//! The scenario driver: multi-job, fault-injecting simulations.
//!
//! A [`ScenarioSpec`] describes a simulation as plain data and [`ScenarioSpec::run`]
//! executes it: any number of jobs placed on one shared cluster, external events
//! (rail failures and recoveries, OCS degradation, late job arrivals, inference
//! request bursts) injected at scheduled times, and per-job metrics plus fleet-level
//! rail counters in the [`ScenarioResult`]. [`OpusSimulator`](crate::OpusSimulator)
//! is the same driver with exactly one job and a clean timeline:
//!
//! ```
//! use opus::{OpusConfig, ScenarioEvent, ScenarioSpec};
//! use railsim_sim::{SimDuration, SimTime};
//! use railsim_topology::{ClusterSpec, NodePreset, RailId};
//! use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};
//! use std::sync::Arc;
//!
//! let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
//! let model = ModelConfig::tiny_test();
//! let parallel = ParallelismConfig::paper_llama3_8b();
//! let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
//! let dag = DagBuilder::new(model, parallel, compute).build();
//!
//! let config = OpusConfig {
//!     iterations: 2,
//!     ..OpusConfig::provisioned(SimDuration::from_millis(25))
//! };
//! let result = ScenarioSpec::new(cluster)
//!     .job(Arc::new(dag), config)
//!     .inject(SimTime::from_millis(5), ScenarioEvent::RailDown(RailId(0)))
//!     .inject(SimTime::from_millis(80), ScenarioEvent::RailUp(RailId(0)))
//!     .run();
//! assert_eq!(result.jobs.len(), 1);
//! assert_eq!(result.fleet.injections_applied, 2);
//! ```
//!
//! ## Execution model
//!
//! Every job keeps its own context — DAG, group/circuit tables, shim, RNG stream,
//! iteration state — while the discrete-event engine, the rail fabric (one OCS per
//! rail under an optical policy) and the rail health state are shared fleet-wide.
//! All events, from every job and from the injected timeline, multiplex over one
//! [`Engine`] queue and commit one at a time in the engine's global `(time, seq)`
//! order. That single sequential commit path is what makes every run reproducible
//! byte for byte; parallelism lives one level up, across whole fleet variants (see
//! `opus::fleet`).
//!
//! Injected events are scheduled before any task event, so an injection at time `T`
//! always applies *before* every task event at `T` (task events carry later sequence
//! numbers). Two injections at the same time apply in the order they were declared.
//!
//! Single-job runs with an inert jitter RNG additionally memoize their steady state:
//! once two consecutive iterations commit byte-identical timelines up to a constant
//! offset, later unperturbed iterations are replayed with a shifted clock instead of
//! re-stepped — byte-identical results at a fraction of the wall-clock cost. See
//! `MemoState` (in `scenario/memo.rs`) for the detection and invalidation semantics and
//! [`OpusConfig::memoize_steady_state`](crate::OpusConfig) for the knob.
//!
//! ## Failure and recovery model
//!
//! `RailDown(r)` marks rail `r` unhealthy and tears down every circuit on its OCS.
//! Transfers already in flight on the rail complete (the model is optimistic about
//! in-flight traffic; see EXPERIMENTS.md); *new* transfers that need the rail wait
//! for `RailUp(r)` — under an optical policy they then also pay a fresh install of
//! their circuits, because the failure destroyed the matching. A rail that fails with
//! no scheduled recovery makes any job that still needs it panic with a diagnostic:
//! scenarios are declared up front, so an unsatisfiable timeline is a scenario bug,
//! not a simulation outcome.
//!
//! That stalling behavior is [`RecoveryPolicy::Stall`], the
//! default. Under [`RecoveryPolicy::Replan`](crate::RecoveryPolicy) an optical job
//! instead swaps every affected group onto a *degraded* circuit plan the moment the
//! failure commits: the dead rail's ring circuits are re-striped onto surviving
//! rails (fresh ports on the node-mate GPUs of those rails), the collective cost
//! model is derated by the lost rail parallelism, and the group pays one
//! reconfiguration delay to install the new circuits. On `RailUp` the pristine plan
//! is restored the same way. [`JobResult`] reports the stall-vs-replan inflation
//! inputs: degraded iterations, replan reconfigurations and time under a degraded
//! plan.

mod build;
mod inject;
mod memo;
mod step;

use crate::circuits::GroupCircuits;
#[cfg(doc)]
use crate::config::{EvictionPolicy, RecoveryPolicy};
use crate::config::{OpusConfig, ReconfigPolicy};
use crate::controller::OpusController;
#[cfg(doc)]
use crate::group_table::GroupTable;
use crate::metrics::{CommRecord, IterationResult, ReconfigEvent, SimulationResult};
use crate::serving::ServingSpec;
use crate::shim::OpusShim;
use inject::Injection;
use memo::MemoState;
use railsim_collectives::GroupId;
use railsim_sim::{Engine, SimDuration, SimRng, SimTime};
use railsim_topology::{Cluster, RailId};
use railsim_workload::{JobId, TaskId, TaskTable, TrainingDag};
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::Arc;
use step::Fleet;

/// An external event injected into a scenario's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioEvent {
    /// The rail fails: its switch stops carrying traffic and (under an optical
    /// policy) every circuit on its OCS is torn down.
    RailDown(RailId),
    /// The rail recovers. Circuits are *not* restored — the next request that needs
    /// the rail reinstalls them, paying the reconfiguration delay.
    RailUp(RailId),
    /// The rail's OCS degrades (or is repaired): its reconfiguration delay becomes
    /// `reconfig_latency` from this point on. Installed circuits are untouched.
    OcsDegraded {
        /// The affected rail.
        rail: RailId,
        /// The new reconfiguration delay of that rail's OCS.
        reconfig_latency: SimDuration,
    },
    /// The job starts at this point instead of at time zero. A job with a
    /// `JobArrival` injection anywhere in the timeline does not start on its own.
    JobArrival {
        /// The arriving job (its index in declaration order).
        job: JobId,
    },
    /// A burst of inference requests joins a serving job's backlog. The first burst
    /// starts the job (a serving job never starts on its own); an idle job resumes
    /// iterating immediately, a busy one absorbs the burst into its queue. See
    /// [`ServingSpec`] and [`crate::serving::ArrivalProcess`].
    RequestBurst {
        /// The serving job (its index in declaration order).
        job: JobId,
        /// Requests in the burst (must be at least one).
        requests: u32,
    },
    /// An elastic serving job grows by one replica at its next iteration boundary
    /// (saturating at the DAG's maximum replica count). The claimed replica slice
    /// was placed at build time through the normal [`JobPlacement`] machinery; the
    /// grow simply unmasks it.
    JobGrow {
        /// The serving job (its index in declaration order).
        job: JobId,
    },
    /// An elastic serving job shrinks by one replica at its next iteration boundary
    /// (a deployment never drops below one active replica). The freed replica's
    /// GPUs go quiet — overlapping tenants see their ports uncontended.
    JobShrink {
        /// The serving job (its index in declaration order).
        job: JobId,
    },
}

/// Where a job's ranks land in the shared cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobPlacement {
    /// Pack the job onto the first free node boundary after every previously
    /// declared job (job 0 starts at GPU 0).
    #[default]
    Auto,
    /// Place the job's rank 0 on this GPU. Node-aligned offsets keep the job's rail
    /// mapping identical to a standalone run; overlapping placements are allowed and
    /// model GPU-sharing tenancy (the fleet counters report port takeovers).
    AtGpu(u32),
}

/// One job declaration: the DAG, its configuration and its placement.
///
/// The DAG rides behind an [`Arc`] so the same template can back many jobs and
/// concurrent scenarios (a fleet sweep pays DAG construction once); neither
/// declaring nor placing a job deep-clones the arena. The DAG stays in job-local
/// rank and group-id space: the placement offset is applied only where the job's
/// groups are turned into circuits.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The job's training DAG (immutably shared; see [`ScenarioSpec`]).
    pub dag: Arc<TrainingDag>,
    /// The job's simulation configuration.
    pub config: OpusConfig,
    /// Where the job's ranks land in the shared cluster.
    pub placement: JobPlacement,
    /// `Some` makes this a *serving* job: it starts on its first
    /// [`ScenarioEvent::RequestBurst`], iterates while its backlog holds requests
    /// (ignoring `config.iterations`), and resizes its active replica set on
    /// [`ScenarioEvent::JobGrow`] / [`ScenarioEvent::JobShrink`]. `None` is a
    /// classic training job, exactly as before.
    pub serving: Option<ServingSpec>,
}

/// A scenario described as plain data: the shared cluster, the job declarations and
/// the injected external-event timeline.
///
/// This is the one way to describe a scenario: the builder methods below, the fleet
/// sweep expansion (`opus::fleet`) and hand assembly all produce it, and
/// [`ScenarioSpec::run`] executes it. Every field is public — a spec can be assembled
/// directly, inspected, cloned cheaply (jobs share their DAGs via [`Arc`]) and re-run
/// without touching imperative setup calls. Jobs are identified by [`JobId`] in
/// declaration order; injections may be declared in any order (they are sorted by
/// time, declaration order breaking ties). See the [module docs](self) for the
/// execution model.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The shared cluster every job is placed on.
    pub cluster: Cluster,
    /// The jobs, identified by [`JobId`] in declaration order.
    pub jobs: Vec<JobSpec>,
    /// The injected timeline, in any order (sorted by time at build, declaration
    /// order breaking ties).
    pub injections: Vec<(SimTime, ScenarioEvent)>,
}

impl ScenarioSpec {
    /// Starts an empty spec on `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        ScenarioSpec {
            cluster,
            jobs: Vec::new(),
            injections: Vec::new(),
        }
    }

    /// Adds a job sharing `dag` with automatic placement. The template is *not*
    /// cloned — scenarios built from the same `Arc` share one arena.
    pub fn job(self, dag: Arc<TrainingDag>, config: OpusConfig) -> Self {
        self.job_placed(dag, config, JobPlacement::Auto)
    }

    /// Adds a job sharing `dag` with an explicit placement.
    pub fn job_placed(
        mut self,
        dag: Arc<TrainingDag>,
        config: OpusConfig,
        at: JobPlacement,
    ) -> Self {
        self.jobs.push(JobSpec {
            dag,
            config,
            placement: at,
            serving: None,
        });
        self
    }

    /// Adds a *serving* job: an elastic inference deployment that starts on its
    /// first [`ScenarioEvent::RequestBurst`] and iterates while its backlog holds
    /// requests. See [`ServingSpec`] and the [`crate::serving`] module docs.
    pub fn serving_job(
        mut self,
        dag: Arc<TrainingDag>,
        config: OpusConfig,
        at: JobPlacement,
        serving: ServingSpec,
    ) -> Self {
        self.jobs.push(JobSpec {
            dag,
            config,
            placement: at,
            serving: Some(serving),
        });
        self
    }

    /// Injects an external event at the given absolute time.
    pub fn inject(mut self, at: SimTime, event: ScenarioEvent) -> Self {
        self.injections.push((at, event));
        self
    }

    /// Injects a whole pre-generated timeline (e.g. the output of
    /// [`crate::serving::ArrivalProcess::bursts`]).
    pub fn inject_all(
        mut self,
        events: impl IntoIterator<Item = (SimTime, ScenarioEvent)>,
    ) -> Self {
        self.injections.extend(events);
        self
    }

    /// Builds and runs the scenario to completion.
    ///
    /// # Panics
    /// Panics when the scenario is malformed: no jobs, an invalid DAG, zero
    /// iterations, a placement outside the cluster, an injection on a nonexistent
    /// rail or job, inconsistent optical reconfiguration latencies across jobs, or a
    /// timeline under which a job cannot finish (a needed rail fails and never
    /// recovers).
    pub fn run(self) -> ScenarioResult {
        let mut sim = ScenarioSim::build(self);
        sim.run_scenario();
        sim.into_result()
    }
}

/// One job's outcome in a [`ScenarioResult`].
#[derive(Debug, Clone, Serialize)]
pub struct JobResult {
    /// The job (its declaration index).
    pub job: JobId,
    /// The GPU its rank 0 was placed on.
    pub gpu_offset: u32,
    /// The network policy it ran under.
    pub policy: ReconfigPolicy,
    /// Iterations during which the job ran — for any part of the iteration — on a
    /// replan-degraded circuit plan. Always 0 under [`RecoveryPolicy::Stall`].
    pub degraded_iterations: u32,
    /// Circuit-plan swaps the replan machinery performed for this job (each degrade,
    /// re-stripe and restore transition counts once per affected group).
    pub replan_reconfigs: u64,
    /// Total simulated time the job spent with at least one group on a degraded plan.
    pub time_under_degraded_plan: SimDuration,
    /// Circuit evictions this job *suffered*: another tenant displaced its port
    /// holds under an active [`EvictionPolicy`]. Always 0 under
    /// [`EvictionPolicy::Never`].
    pub evictions_suffered: u64,
    /// Circuit evictions this job *inflicted* on other tenants. Always 0 under
    /// [`EvictionPolicy::Never`].
    pub evictions_inflicted: u64,
    /// This job's share of the scenario's total circuit-wait time (all jobs' shares
    /// sum to 1 whenever any job waited at all; 0 otherwise).
    pub circuit_wait_share: f64,
    /// Inference requests the job retired (0 for training jobs).
    pub requests_completed: u64,
    /// The 99th-percentile request latency (arrival to retiring iteration end),
    /// nearest-rank over every retired request. `None` for training jobs.
    pub p99_request_latency: Option<SimDuration>,
    /// Its per-iteration metrics, exactly as a standalone
    /// [`OpusSimulator`](crate::OpusSimulator) run reports them.
    pub result: SimulationResult,
}

/// Fleet-level counters aggregated across all jobs of a scenario (vectors are
/// indexed by rail id).
#[derive(Debug, Clone, Serialize)]
pub struct FleetMetrics {
    /// Total transfer time carried per rail (sum over scale-out transfers of their
    /// duration, per rail they used).
    pub rail_busy: Vec<SimDuration>,
    /// Cross-job contention events per rail: a scale-out transfer started on the rail
    /// while another job's transfer was still in flight on it.
    pub cross_job_rail_overlaps: Vec<u64>,
    /// NIC ports whose tenant changed: a job transferred over a port most recently
    /// used by a different job (only possible with overlapping placements).
    pub cross_job_port_takeovers: u64,
    /// Lifetime circuits set up per rail (empty when no job ran an optical policy).
    pub circuits_set_up_by_rail: Vec<u64>,
    /// Lifetime circuits torn down per rail (empty when no job ran an optical policy).
    pub circuits_torn_down_by_rail: Vec<u64>,
    /// Circuits whose ports were evicted per rail under a tenant-aware
    /// [`EvictionPolicy`] (empty unless a policy other than
    /// [`EvictionPolicy::Never`] was active).
    pub circuits_evicted_by_rail: Vec<u64>,
    /// Injected failures per rail.
    pub rail_failures: Vec<u64>,
    /// Accumulated injected downtime per rail (closed outages only).
    pub rail_downtime: Vec<SimDuration>,
    /// Number of injected events that were applied.
    pub injections_applied: usize,
    /// The time of the last committed event — when the whole scenario finished.
    pub makespan: SimTime,
}

/// The outcome of a scenario: per-job metrics plus fleet counters.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioResult {
    /// One entry per declared job, in declaration order.
    pub jobs: Vec<JobResult>,
    /// Fleet-level rail utilization, contention and failure counters.
    pub fleet: FleetMetrics,
}

impl ScenarioResult {
    /// One job's outcome.
    ///
    /// # Panics
    /// Panics if the job does not exist.
    pub fn job(&self, id: JobId) -> &JobResult {
        &self.jobs[id.index()]
    }
}

// ---------------------------------------------------------------------------------
// Internal machinery
// ---------------------------------------------------------------------------------

/// Events of the scenario's discrete-event simulation: per-job DAG execution plus the
/// injected external timeline. External events are scheduled at build time, before
/// any task event, so they sort ahead of every task event at the same timestamp in
/// the engine's `(time, seq)` order.
/// The job index rides in a `u16` so the whole event stays 8 bytes — the engine's
/// heap entries are the hot path's working set, and a wider event measurably slows
/// the 100k-GPU single-job regime. 65k concurrent jobs is far beyond any scenario
/// ([`ScenarioSim::build`] rejects more, so the index can never silently alias).
#[derive(Debug, Clone, Copy)]
enum SimEvent {
    /// All dependencies of the job's task have completed.
    Ready(u16, TaskId),
    /// The job's task has finished executing.
    Done(u16, TaskId),
    /// The injected external event at this index of the (sorted) timeline.
    External(u32),
    /// The job's current iteration is a memoized steady-state replay: this single
    /// event, scheduled at the iteration's predicted end, stands in for the whole
    /// per-task event cascade. Committing it emits the shifted iteration result and
    /// replays the controller-side effects (see [`ScenarioSim::commit_fast_forward`]).
    FastForward(u16),
}

/// One deduplicated circuit-demand entry: every task of a communication group shares
/// this slot instead of owning a `GroupCircuits` clone (at 100k GPUs the per-task
/// clones — a `BTreeMap` of circuit vectors each — dominated the simulator footprint).
struct CircuitSlot {
    group: GroupId,
    /// Member count of the group (collective cost-model input).
    group_size: u32,
    circuits: GroupCircuits,
    /// The undegraded plan, stashed while `circuits` holds a replan-degraded plan
    /// (`None` whenever the live plan *is* the pristine plan). Boxed so the common
    /// healthy case costs one pointer, not a second `GroupCircuits`.
    pristine: Option<Box<GroupCircuits>>,
}

/// Per-job context: everything a standalone simulator used to own globally, now
/// multiplexed over the shared engine and fabric.
struct JobContext {
    job: JobId,
    gpu_offset: u32,
    /// The condensed task columns the run actually reads per event: kind, label and
    /// participants, indexed by [`TaskId`]. The full `TrainingDag` — dependency
    /// edges, comm groups, parallelism config — is consumed at build time: edges
    /// become the CSR `dependents` table plus `dep_counts`, groups become the
    /// `circuit_pool` (through a build-time [`GroupTable`]), and the row-major task
    /// arena (three heap words per task for `deps` alone) is dropped. At the
    /// million-GPU regime this is the difference between the run fitting its memory
    /// budget and carrying ~90M dead `Vec<TaskId>` headers to the finish line.
    tasks: TaskTable,
    /// Per-task dependency indegree — the template `remaining` resets from at every
    /// iteration start (tasks with count 0 are the iteration's roots).
    dep_counts: Vec<u32>,
    config: OpusConfig,
    /// Deduplicated circuit demands; see [`CircuitSlot`].
    circuit_pool: Vec<CircuitSlot>,
    /// Per-task index into `circuit_pool` (`NO_SLOT` for compute tasks).
    task_circuit_slot: Vec<u32>,
    /// Reverse dependency edges in CSR layout.
    dependents_off: Vec<u32>,
    dependents: Vec<u32>,
    shim: OpusShim,
    rng: SimRng,
    /// True when a `JobArrival` injection starts this job (it does not start at 0).
    arrives_via_event: bool,
    // ---- serving (elastic inference) state ----
    /// `Some` for serving jobs; see [`ServingSpec`].
    serving: Option<ServingSpec>,
    /// Per-task replica index (empty for training jobs). Tasks of replica `r` are
    /// masked out while `r >= active`.
    task_replica: Vec<u32>,
    /// Replicas executing in the in-flight iteration.
    active: u32,
    /// Replicas the *next* iteration will run with (grow/shrink events adjust this;
    /// it is snapshotted into `active` at each iteration start).
    pending_active: u32,
    /// The first `RequestBurst` has started the job.
    serving_started: bool,
    /// The backlog drained and the job is waiting for the next burst.
    serving_idle: bool,
    /// Arrival times of requests waiting to be served, FIFO.
    backlog: VecDeque<SimTime>,
    /// Latency (arrival to retiring iteration end) of every retired request.
    request_latencies: Vec<SimDuration>,
    /// Requests retired so far.
    requests_completed: u64,
    // ---- live per-iteration state ----
    iteration: u32,
    iter_start: SimTime,
    remaining: Vec<u32>,
    finish: Vec<SimTime>,
    comm_records: Vec<CommRecord>,
    reconfig_events: Vec<ReconfigEvent>,
    total_circuit_wait: SimDuration,
    /// Done events of the current iteration still to commit.
    done_left: usize,
    completed: Vec<IterationResult>,
    memo: MemoState,
    // ---- replan (RecoveryPolicy::Replan) state ----
    /// Circuit-pool slots currently running a degraded plan.
    degraded_slots: u32,
    /// When the job's current degraded period began (`None` while fully pristine).
    degraded_since: Option<SimTime>,
    /// Closed degraded periods, accumulated; an open period is closed at collection.
    time_under_degraded_plan: SimDuration,
    /// Plan swaps performed for this job (degrades, re-stripes and restores).
    replan_reconfigs: u64,
    /// Completed iterations that ran degraded for any part of their span.
    degraded_iterations: u32,
    /// The in-flight iteration has run degraded at some point.
    iter_degraded: bool,
}

/// The built, runnable scenario. `pub(crate)` so the single-job
/// [`OpusSimulator`](crate::OpusSimulator) wrapper can drive it directly.
pub(crate) struct ScenarioSim {
    cluster: Cluster,
    jobs: Vec<JobContext>,
    fleet: Fleet,
    injections: Vec<Injection>,
    makespan: SimTime,
}

impl ScenarioSim {
    /// One job's shim.
    pub(crate) fn job_shim(&self, job: usize) -> &OpusShim {
        &self.jobs[job].shim
    }

    /// The shared controller, when any job runs an optical policy.
    pub(crate) fn controller(&self) -> Option<&OpusController> {
        self.fleet.controller.as_deref()
    }

    /// Number of iterations one job fast-forwarded from its steady-state memo
    /// instead of re-stepping. Observability only — deliberately not part of any
    /// serialized result, so the golden pins stay byte-identical to the naive path.
    pub(crate) fn job_memoized_iterations(&self, job: usize) -> u64 {
        self.jobs[job].memo.fast_forwarded
    }

    /// Takes one job's completed iterations (used by the single-job wrapper to hand
    /// the result out without cloning a multi-million-record vector).
    pub(crate) fn take_job_result(&mut self, job: usize) -> SimulationResult {
        SimulationResult {
            iterations: std::mem::take(&mut self.jobs[job].completed),
        }
    }

    /// Runs every job to completion, applying the injected timeline.
    pub(crate) fn run_scenario(&mut self) {
        let mut engine: Engine<SimEvent> = Engine::new();
        // External events first: they win every same-timestamp tie against task
        // events (which are scheduled later and carry larger sequence numbers).
        for (i, inj) in self.injections.iter().enumerate() {
            engine.schedule_at(inj.at, SimEvent::External(i as u32));
        }
        for j in 0..self.jobs.len() {
            if !self.jobs[j].arrives_via_event && self.jobs[j].serving.is_none() {
                self.start_iteration(j, SimTime::ZERO, &mut engine);
            }
        }
        while let Some((now, event)) = engine.pop() {
            self.commit_event(&mut engine, now, event);
        }

        assert_eq!(
            engine.clamped_events(),
            0,
            "the scenario executor never schedules into the past; a clamp means an \
             event handler scheduled a follow-up before the event it handles"
        );
        for ctx in &self.jobs {
            if ctx.serving.is_some() {
                assert!(
                    ctx.backlog.is_empty(),
                    "{} ended with {} unserved requests — the serving loop stalled",
                    ctx.job,
                    ctx.backlog.len()
                );
                assert!(
                    ctx.requests_completed > 0,
                    "{} is a serving job that retired no requests",
                    ctx.job
                );
            } else {
                assert_eq!(
                    ctx.completed.len(),
                    ctx.config.iterations as usize,
                    "{} finished {} of {} iterations — it never arrived or was starved",
                    ctx.job,
                    ctx.completed.len(),
                    ctx.config.iterations
                );
            }
        }
        self.makespan = engine.now();
    }

    /// Collects the per-job and fleet results.
    pub(crate) fn into_result(mut self) -> ScenarioResult {
        let fabric = self.fleet.controller.as_deref().map(|c| c.fabric());
        let circuits_set_up_by_rail = fabric
            .map(|f| f.circuits_set_up_by_rail())
            .unwrap_or_default();
        let circuits_torn_down_by_rail = fabric
            .map(|f| f.circuits_torn_down_by_rail())
            .unwrap_or_default();
        // Per-rail busy time, summed once from the committed records: every
        // non-offloaded scale-out record names exactly the rails its circuits use,
        // and every other record names none.
        let mut rail_busy = vec![SimDuration::ZERO; self.cluster.num_rails() as usize];
        for it in self.jobs.iter().flat_map(|ctx| ctx.completed.iter()) {
            for rec in &it.comm_records {
                for rail in &rec.rails {
                    let slot = &mut rail_busy[rail.index()];
                    debug_assert!(
                        slot.checked_add(rec.transfer_time()).is_some(),
                        "rail_busy[{}] overflowed u64 nanoseconds — the saturating \
                         clamp would silently freeze the fleet counter",
                        rail.index()
                    );
                    *slot = slot.saturating_add(rec.transfer_time());
                }
            }
        }
        // Tenant-fairness accounting: the controller's per-tenant ledgers (only
        // populated under an eviction policy other than `Never`) plus each job's
        // share of the scenario-wide circuit wait.
        let (evictions, circuits_evicted_by_rail) = match self.fleet.controller.as_deref() {
            Some(c) if c.tenancy_active() => (
                (0..self.jobs.len() as u32)
                    .map(|t| (c.evictions_suffered_by(t), c.evictions_inflicted_by(t)))
                    .collect::<Vec<_>>(),
                c.circuits_evicted_by_rail().to_vec(),
            ),
            _ => (vec![(0, 0); self.jobs.len()], Vec::new()),
        };
        let job_wait: Vec<SimDuration> = self
            .jobs
            .iter()
            .map(|ctx| {
                ctx.completed.iter().fold(SimDuration::ZERO, |acc, it| {
                    acc.saturating_add(it.total_circuit_wait)
                })
            })
            .collect();
        let total_wait: f64 = job_wait.iter().map(|w| w.as_nanos() as f64).sum();
        let fleet = FleetMetrics {
            rail_busy,
            cross_job_rail_overlaps: std::mem::take(&mut self.fleet.overlaps),
            cross_job_port_takeovers: self.fleet.port_takeovers,
            circuits_set_up_by_rail,
            circuits_torn_down_by_rail,
            circuits_evicted_by_rail,
            rail_failures: self.fleet.health.failures_by_rail().to_vec(),
            rail_downtime: self.fleet.health.downtime_by_rail().to_vec(),
            injections_applied: self.fleet.injections_applied,
            makespan: self.makespan,
        };
        let makespan = self.makespan;
        let jobs = self
            .jobs
            .into_iter()
            .enumerate()
            .map(|(j, mut ctx)| {
                // A degraded period still open at collection time ends at the
                // scenario's makespan (the outage was never recovered).
                if let Some(since) = ctx.degraded_since.take() {
                    ctx.time_under_degraded_plan = ctx
                        .time_under_degraded_plan
                        .saturating_add(makespan.duration_since(since));
                }
                let (evictions_suffered, evictions_inflicted) = evictions[j];
                let circuit_wait_share = if total_wait > 0.0 {
                    job_wait[j].as_nanos() as f64 / total_wait
                } else {
                    0.0
                };
                JobResult {
                    job: ctx.job,
                    gpu_offset: ctx.gpu_offset,
                    policy: ctx.config.policy,
                    degraded_iterations: ctx.degraded_iterations,
                    replan_reconfigs: ctx.replan_reconfigs,
                    time_under_degraded_plan: ctx.time_under_degraded_plan,
                    evictions_suffered,
                    evictions_inflicted,
                    circuit_wait_share,
                    requests_completed: ctx.requests_completed,
                    p99_request_latency: p99(&mut ctx.request_latencies),
                    result: SimulationResult {
                        iterations: ctx.completed,
                    },
                }
            })
            .collect();
        ScenarioResult { jobs, fleet }
    }

    /// Applies one popped event: executes a job task, releases its dependents, or
    /// applies an injected external event.
    fn commit_event(&mut self, engine: &mut Engine<SimEvent>, now: SimTime, event: SimEvent) {
        match event {
            SimEvent::Ready(j, id) => {
                let j = j as usize;
                let (end, record) = {
                    let ScenarioSim {
                        jobs,
                        fleet,
                        cluster,
                        ..
                    } = self;
                    Self::execute_task(&mut jobs[j], fleet, cluster, id, now)
                };
                let ctx = &mut self.jobs[j];
                ctx.finish[id.0 as usize] = end;
                if let Some(rec) = record {
                    debug_assert!(
                        ctx.total_circuit_wait
                            .checked_add(rec.circuit_wait)
                            .is_some(),
                        "total_circuit_wait overflowed u64 nanoseconds — the saturating \
                         clamp would silently freeze the metric"
                    );
                    ctx.total_circuit_wait =
                        ctx.total_circuit_wait.saturating_add(rec.circuit_wait);
                    ctx.comm_records.push(rec);
                    // Attribute any reconfigurations this commit caused to the job.
                    if let Some(c) = self.fleet.controller.as_deref_mut() {
                        if !c.events().is_empty() {
                            c.drain_events_into(&mut ctx.reconfig_events);
                        }
                    }
                }
                engine.schedule_at(end, SimEvent::Done(j as u16, id));
            }
            SimEvent::Done(j, id) => {
                let j = j as usize;
                let ctx = &mut self.jobs[j];
                let lo = ctx.dependents_off[id.0 as usize] as usize;
                let hi = ctx.dependents_off[id.0 as usize + 1] as usize;
                for i in lo..hi {
                    let dep_idx = ctx.dependents[i];
                    let slot = &mut ctx.remaining[dep_idx as usize];
                    debug_assert!(*slot > 0, "dependency counter underflow");
                    *slot -= 1;
                    if *slot == 0 {
                        engine.schedule_at(now, SimEvent::Ready(j as u16, TaskId(dep_idx)));
                    }
                }
                ctx.done_left -= 1;
                if ctx.done_left == 0 {
                    self.finish_iteration(j, engine);
                }
            }
            SimEvent::External(idx) => self.apply_injection(idx as usize, now, engine),
            SimEvent::FastForward(j) => self.commit_fast_forward(j as usize, now, engine),
        }
    }
}

/// Nearest-rank 99th percentile of request latencies (sorts in place). `None` for an
/// empty set — training jobs serve no requests.
fn p99(latencies: &mut [SimDuration]) -> Option<SimDuration> {
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_unstable();
    let idx = (latencies.len() * 99).div_ceil(100) - 1;
    Some(latencies[idx])
}

#[cfg(test)]
mod tests {
    use super::step::NO_JOB;
    use super::*;
    use crate::config::{EvictionPolicy, RecoveryPolicy};
    use railsim_topology::{ClusterSpec, NodePreset, RailHealth};
    use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};

    fn tiny_dag() -> TrainingDag {
        let model = ModelConfig::tiny_test();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        DagBuilder::new(model, parallel, compute).build()
    }

    fn tiny_cluster(nodes: u32) -> Cluster {
        ClusterSpec::from_preset(NodePreset::PerlmutterA100, nodes).build()
    }

    fn clean_single(config: OpusConfig) -> SimulationResult {
        ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .run()
            .jobs
            .remove(0)
            .result
    }

    #[test]
    fn single_job_scenario_reports_one_job_and_fleet_counters() {
        let config = OpusConfig {
            iterations: 2,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .run();
        assert_eq!(result.jobs.len(), 1);
        assert_eq!(result.jobs[0].job, JobId(0));
        assert_eq!(result.jobs[0].gpu_offset, 0);
        assert_eq!(result.job(JobId(0)).result.iterations.len(), 2);
        assert!(result
            .fleet
            .rail_busy
            .iter()
            .any(|b| *b > SimDuration::ZERO));
        assert_eq!(result.fleet.injections_applied, 0);
        assert_eq!(result.fleet.cross_job_port_takeovers, 0);
        assert!(result.fleet.cross_job_rail_overlaps.iter().all(|&o| o == 0));
        assert!(result.fleet.makespan > SimTime::ZERO);
        assert!(
            result.fleet.circuits_set_up_by_rail.iter().sum::<u64>() > 0,
            "an optical job must have installed circuits"
        );
    }

    #[test]
    fn two_disjoint_jobs_run_like_isolated_jobs() {
        // Two copies of the same job, side by side on an 8-node cluster: disjoint
        // GPUs and ports, so the shared fabric must give each job exactly the
        // iteration times of a standalone 4-node run.
        let config = OpusConfig {
            iterations: 2,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        let standalone = clean_single(config);
        let result = ScenarioSpec::new(tiny_cluster(8))
            .job(Arc::new(tiny_dag()), config)
            .job(Arc::new(tiny_dag()), config)
            .run();
        assert_eq!(result.jobs.len(), 2);
        assert_eq!(result.jobs[0].gpu_offset, 0);
        assert_eq!(
            result.jobs[1].gpu_offset, 16,
            "auto-packing is node aligned"
        );
        for job in &result.jobs {
            for (a, b) in job
                .result
                .iterations
                .iter()
                .zip(standalone.iterations.iter())
            {
                assert_eq!(a.iteration_time, b.iteration_time, "{}", job.job);
                assert_eq!(a.reconfig_events.len(), b.reconfig_events.len());
            }
        }
        // Job 1's second iteration starts where *its own* first ended, independent of
        // job 0 (clocks are per job even though the engine is shared).
        assert_eq!(
            result.jobs[1].result.iterations[1].started_at,
            result.jobs[1].result.iterations[0].started_at
                + result.jobs[1].result.iterations[0].iteration_time
        );
        // Both jobs used the same rails — fleet busy time doubles.
        let busy: f64 = result.fleet.rail_busy.iter().map(|d| d.as_secs_f64()).sum();
        let single_busy: f64 = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .run()
            .fleet
            .rail_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        assert!((busy - 2.0 * single_busy).abs() < 1e-9 + busy * 1e-6);
    }

    #[test]
    fn rail_flap_inflates_the_faulted_iteration_then_recovers() {
        let config = OpusConfig {
            iterations: 3,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::on_demand(SimDuration::from_millis(1))
        };
        let clean_scenario = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .run();
        let clean = &clean_scenario.jobs[0].result;
        let t1 = clean.iterations[1].started_at;
        let dur = clean.iterations[1].iteration_time;
        // Fail rail 0 a quarter into iteration 1, recover it half an iteration later.
        let down = t1 + dur.mul_f64(0.25);
        let up = down + dur.mul_f64(0.5);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(down, ScenarioEvent::RailDown(RailId(0)))
            .inject(up, ScenarioEvent::RailUp(RailId(0)))
            .run();
        let faulted = &result.jobs[0].result;
        assert_eq!(result.fleet.injections_applied, 2);
        assert_eq!(result.fleet.rail_failures[0], 1);
        assert!(result.fleet.rail_downtime[0] > SimDuration::ZERO);
        assert!(
            faulted.iterations[1].iteration_time > clean.iterations[1].iteration_time,
            "the faulted iteration must be slower: {} vs {}",
            faulted.iterations[1].iteration_time,
            clean.iterations[1].iteration_time
        );
        // Transfers that needed the failed rail waited for recovery + reinstall; the
        // extra wait is reported as circuit wait.
        assert!(
            faulted.iterations[1].total_circuit_wait > clean.iterations[1].total_circuit_wait,
            "the outage must show up as circuit wait ({} vs {})",
            faulted.iterations[1].total_circuit_wait,
            clean.iterations[1].total_circuit_wait
        );
        // Iteration 0 committed entirely before the failure is byte-identical.
        assert_eq!(
            faulted.iterations[0].comm_records,
            clean.iterations[0].comm_records
        );
    }

    #[test]
    fn electrical_jobs_wait_out_rail_outages_too() {
        let config = OpusConfig {
            iterations: 2,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::electrical()
        };
        let clean = clean_single(config);
        let t1 = clean.iterations[1].started_at;
        let dur = clean.iterations[1].iteration_time;
        let down = t1 + dur.mul_f64(0.1);
        let up = down + dur;
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(down, ScenarioEvent::RailDown(RailId(0)))
            .inject(up, ScenarioEvent::RailUp(RailId(0)))
            .run();
        let faulted = &result.jobs[0].result;
        assert!(faulted.iterations[1].iteration_time > clean.iterations[1].iteration_time);
        assert!(
            faulted.iterations[1].total_circuit_wait > SimDuration::ZERO,
            "the outage wait is reported as circuit wait"
        );
    }

    #[test]
    #[should_panic(expected = "no scheduled recovery")]
    fn unrecovered_rail_failure_is_a_scenario_bug() {
        let config = OpusConfig {
            iterations: 2,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::electrical()
        };
        let _ = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(SimTime::ZERO, ScenarioEvent::RailDown(RailId(0)))
            .run();
    }

    #[test]
    fn ocs_degradation_slows_reconfigurations() {
        let config = OpusConfig {
            iterations: 2,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::on_demand(SimDuration::from_millis(1))
        };
        let clean = clean_single(config);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(
                SimTime::ZERO,
                ScenarioEvent::OcsDegraded {
                    rail: RailId(0),
                    reconfig_latency: SimDuration::from_millis(200),
                },
            )
            .run();
        assert!(
            result.jobs[0].result.steady_state_iteration_time()
                > clean.steady_state_iteration_time(),
            "a degraded OCS must slow the job"
        );
    }

    #[test]
    fn job_arrival_delays_the_start() {
        let config = OpusConfig {
            iterations: 1,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::electrical()
        };
        let at = SimTime::from_millis(250);
        let result = ScenarioSpec::new(tiny_cluster(8))
            .job(Arc::new(tiny_dag()), config)
            .job(Arc::new(tiny_dag()), config)
            .inject(at, ScenarioEvent::JobArrival { job: JobId(1) })
            .run();
        assert_eq!(
            result.jobs[0].result.iterations[0].started_at,
            SimTime::ZERO
        );
        assert_eq!(result.jobs[1].result.iterations[0].started_at, at);
        // The late job runs the same iteration, just shifted.
        assert_eq!(
            result.jobs[0].result.iterations[0].iteration_time,
            result.jobs[1].result.iterations[0].iteration_time
        );
    }

    #[test]
    fn overlapping_placements_report_port_takeovers() {
        // Two jobs time-sharing the same GPUs: every transfer alternation flips the
        // port tenant, which the fleet counters must surface.
        let config = OpusConfig {
            iterations: 1,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::electrical()
        };
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .job_placed(Arc::new(tiny_dag()), config, JobPlacement::AtGpu(0))
            .run();
        assert!(result.fleet.cross_job_port_takeovers > 0);
        assert!(result.fleet.cross_job_rail_overlaps.iter().any(|&o| o > 0));
    }

    #[test]
    fn injections_sort_into_the_timeline_in_declaration_order_on_ties() {
        // Down and up at the same instant, declared down-then-up: the rail ends up.
        let config = OpusConfig {
            iterations: 1,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::electrical()
        };
        let t = SimTime::from_millis(1);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(t, ScenarioEvent::RailDown(RailId(0)))
            .inject(t, ScenarioEvent::RailUp(RailId(0)))
            .run();
        assert_eq!(result.fleet.injections_applied, 2);
        assert_eq!(result.fleet.rail_failures[0], 1);
    }

    #[test]
    #[should_panic(expected = "only has 4 rails")]
    fn injection_on_unknown_rail_is_rejected() {
        let config = OpusConfig::electrical();
        let _ = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(SimTime::ZERO, ScenarioEvent::RailDown(RailId(9)))
            .run();
    }

    #[test]
    #[should_panic(expected = "cluster only has 16 GPUs")]
    fn placement_outside_the_cluster_is_rejected() {
        let config = OpusConfig::electrical();
        let _ = ScenarioSpec::new(tiny_cluster(4))
            .job_placed(Arc::new(tiny_dag()), config, JobPlacement::AtGpu(8))
            .run();
    }

    #[test]
    #[should_panic(expected = "cluster only has 16 GPUs")]
    fn placement_past_u32_max_is_rejected() {
        // `offset + max_rank` would wrap to GPU 10 without a checked add.
        let config = OpusConfig::electrical();
        let _ = ScenarioSpec::new(tiny_cluster(4))
            .job_placed(
                Arc::new(tiny_dag()),
                config,
                JobPlacement::AtGpu(u32::MAX - 4),
            )
            .run();
    }

    #[test]
    fn placement_shares_the_template_rank_sets() {
        // Jobs stay in job-local rank space, so placing one template at eight
        // offsets interns no new rank set: every job's participant handles are
        // job 0's.
        let dag = Arc::new(tiny_dag());
        let mut spec = ScenarioSpec::new(tiny_cluster(12));
        for offset in (0..8).map(|k| 4 * k) {
            spec = spec.job_placed(
                Arc::clone(&dag),
                OpusConfig::electrical(),
                JobPlacement::AtGpu(offset),
            );
        }
        let sim = ScenarioSim::build(spec);
        let base = &sim.jobs[0].tasks;
        for ctx in &sim.jobs[1..] {
            assert_eq!(ctx.tasks.len(), base.len());
            for i in 0..base.len() as u32 {
                let id = railsim_workload::TaskId(i);
                assert_eq!(ctx.tasks.participants(id), base.participants(id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "job0 must simulate at least one iteration")]
    fn zero_iterations_are_rejected() {
        let config = OpusConfig {
            iterations: 0,
            ..OpusConfig::electrical()
        };
        let _ = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .run();
    }

    /// Runs the scenario and reports job 0's fast-forward counter next to the
    /// result (the counter is observability-only and not part of the result).
    fn run_counting_ff(spec: ScenarioSpec) -> (ScenarioResult, u64) {
        let mut sim = ScenarioSim::build(spec);
        sim.run_scenario();
        let ff = sim.job_memoized_iterations(0);
        (sim.into_result(), ff)
    }

    #[test]
    fn memoized_runs_match_naive_byte_for_byte() {
        for (name, config) in [
            (
                "provisioned",
                OpusConfig::provisioned(SimDuration::from_millis(5)),
            ),
            (
                "on_demand",
                OpusConfig::on_demand(SimDuration::from_millis(1)),
            ),
            ("electrical", OpusConfig::electrical()),
        ] {
            let config = OpusConfig {
                iterations: 8,
                compute_jitter: 0.0,
                seed: 1,
                ..config
            };
            let (memo, ff) = run_counting_ff(
                ScenarioSpec::new(tiny_cluster(4)).job(Arc::new(tiny_dag()), config),
            );
            let naive = ScenarioSpec::new(tiny_cluster(4))
                .job(
                    Arc::new(tiny_dag()),
                    OpusConfig {
                        memoize_steady_state: false,
                        ..config
                    },
                )
                .run();
            assert!(
                ff >= 1,
                "{name}: steady state must be detected and fast-forwarded (ff = {ff})"
            );
            assert_eq!(format!("{memo:?}"), format!("{naive:?}"), "{name}");
        }
    }

    #[test]
    fn memoized_runs_leave_the_naive_port_state() {
        // The byte-identity test compares results; this compares the shared port
        // occupancy a later injection would read, slot by slot.
        for config in [
            OpusConfig::provisioned(SimDuration::from_millis(5)),
            OpusConfig::on_demand(SimDuration::from_millis(1)),
        ] {
            let config = OpusConfig {
                iterations: 10,
                compute_jitter: 0.0,
                seed: 1,
                ..config
            };
            let run = |config: OpusConfig| {
                let mut sim = ScenarioSim::build(
                    ScenarioSpec::new(tiny_cluster(4)).job(Arc::new(tiny_dag()), config),
                );
                sim.run_scenario();
                sim
            };
            let memo = run(config);
            let naive = run(OpusConfig {
                memoize_steady_state: false,
                ..config
            });
            assert!(memo.job_memoized_iterations(0) >= 1);
            assert_eq!(naive.job_memoized_iterations(0), 0);
            let (mc, nc) = (memo.controller().unwrap(), naive.controller().unwrap());
            let pool = &memo.jobs[0].circuit_pool;
            assert_eq!(pool.len(), naive.jobs[0].circuit_pool.len());
            for (i, slot) in pool.iter().enumerate() {
                assert_eq!(slot.group, naive.jobs[0].circuit_pool[i].group);
                assert_eq!(
                    mc.ports_free_at(0, &slot.circuits),
                    nc.ports_free_at(0, &slot.circuits),
                    "slot {i} ({:?})",
                    slot.group
                );
            }
        }
    }

    #[test]
    fn memoization_gates_on_the_knob_and_on_jitter() {
        let base = OpusConfig {
            iterations: 6,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        let (_, ff_off) = run_counting_ff(ScenarioSpec::new(tiny_cluster(4)).job(
            Arc::new(tiny_dag()),
            OpusConfig {
                compute_jitter: 0.0,
                seed: 1,
                memoize_steady_state: false,
                ..base
            },
        ));
        assert_eq!(ff_off, 0, "the knob must disable fast-forwarding");
        let (_, ff_jitter) = run_counting_ff(ScenarioSpec::new(tiny_cluster(4)).job(
            Arc::new(tiny_dag()),
            OpusConfig {
                compute_jitter: 0.05,
                seed: 7,
                ..base
            },
        ));
        assert_eq!(ff_jitter, 0, "a live jitter RNG must disable memoization");
    }

    #[test]
    fn rail_flap_invalidates_memoization_and_still_matches_naive() {
        let config = OpusConfig {
            iterations: 10,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        let clean = clean_single(config);
        let t4 = clean.iterations[4].started_at;
        let dur = clean.iterations[4].iteration_time;
        // Fail rail 0 a quarter into iteration 4 (after the memo armed), recover it
        // half an iteration later.
        let down = t4 + dur.mul_f64(0.25);
        let up = down + dur.mul_f64(0.5);
        let flapped = |config: OpusConfig| {
            ScenarioSpec::new(tiny_cluster(4))
                .job(Arc::new(tiny_dag()), config)
                .inject(down, ScenarioEvent::RailDown(RailId(0)))
                .inject(up, ScenarioEvent::RailUp(RailId(0)))
        };
        let (memo, ff) = run_counting_ff(flapped(config));
        let naive = flapped(OpusConfig {
            memoize_steady_state: false,
            ..config
        })
        .run();
        assert_eq!(format!("{memo:?}"), format!("{naive:?}"));
        assert!(
            ff >= 1,
            "memoization must re-arm after the flap (fast-forwarded {ff})"
        );
        assert!(
            ff <= 5,
            "iterations around the flap must step naively (fast-forwarded {ff})"
        );
    }

    #[test]
    fn multi_job_scenarios_never_fast_forward() {
        let config = OpusConfig {
            iterations: 6,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        let mut sim = ScenarioSim::build(
            ScenarioSpec::new(tiny_cluster(8))
                .job(Arc::new(tiny_dag()), config)
                .job(Arc::new(tiny_dag()), config),
        );
        sim.run_scenario();
        assert_eq!(sim.job_memoized_iterations(0), 0);
        assert_eq!(sim.job_memoized_iterations(1), 0);
    }

    #[test]
    fn three_way_interleaved_overlaps_are_counted_against_every_tenant() {
        use railsim_topology::CircuitConfig;
        let cluster = tiny_cluster(4);
        let num_rails = cluster.num_rails() as usize;
        let mut fleet = Fleet {
            controller: None,
            health: RailHealth::new(num_rails),
            faults: false,
            multi_job: true,
            port_owner: vec![
                NO_JOB;
                cluster.num_gpus() as usize * cluster.ports_per_gpu() as usize
            ],
            ports_per_gpu: cluster.ports_per_gpu(),
            rail_last: vec![Vec::new(); num_rails],
            overlaps: vec![0; num_rails],
            port_takeovers: 0,
            injections_applied: 0,
        };
        let circuits = GroupCircuits {
            per_rail: [(RailId(0), CircuitConfig::empty())].into_iter().collect(),
            dropped_pairs: 0,
            scaleup_pairs: 0,
        };
        let ms = SimTime::from_millis;
        // Job 0 holds the rail for [0, 300); job 1 starts inside it: one overlap.
        fleet.note_transfer(0, &circuits, ms(0), ms(300));
        fleet.note_transfer(1, &circuits, ms(10), ms(20));
        // Job 0's next transfer starts while job 1's is still in flight. The pre-fix
        // single-slot tracker had already overwritten job 1's end with job 0's own
        // long transfer and missed this overlap.
        fleet.note_transfer(0, &circuits, ms(15), ms(30));
        assert_eq!(fleet.overlaps[0], 2, "the three-way interleaving case");
        // Job 0's long transfer still bounds its in-flight window for job 1.
        fleet.note_transfer(1, &circuits, ms(200), ms(210));
        assert_eq!(fleet.overlaps[0], 3);
        // After every tenant drained, a late transfer overlaps nothing.
        fleet.note_transfer(2, &circuits, ms(400), ms(410));
        assert_eq!(fleet.overlaps[0], 3);
    }

    #[test]
    #[should_panic(expected = "jobs exceed it")]
    fn more_jobs_than_a_u16_index_fail_fast() {
        // 65,536 copies of an empty DAG: the index-width assert must fire in
        // `build` before any per-job validation touches them.
        let empty = Arc::new(TrainingDag {
            tasks: railsim_workload::TaskArena::default(),
            groups: std::collections::BTreeMap::new(),
            config: ParallelismConfig::paper_llama3_8b(),
        });
        let config = OpusConfig::electrical();
        let mut scenario = ScenarioSpec::new(tiny_cluster(1));
        for _ in 0..(u16::MAX as usize + 1) {
            scenario = scenario.job(Arc::clone(&empty), config);
        }
        let _ = scenario.run();
    }

    /// The standard rail-flap pulse of this module (fail rail 0 a quarter into
    /// iteration 1, recover half an iteration later) under `config`.
    fn flapped_scenario(config: OpusConfig) -> ScenarioResult {
        let clean = clean_single(config);
        let t1 = clean.iterations[1].started_at;
        let dur = clean.iterations[1].iteration_time;
        let down = t1 + dur.mul_f64(0.25);
        let up = down + dur.mul_f64(0.5);
        ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(down, ScenarioEvent::RailDown(RailId(0)))
            .inject(up, ScenarioEvent::RailUp(RailId(0)))
            .run()
    }

    #[test]
    fn replan_beats_stall_on_the_same_flap() {
        let stall = OpusConfig {
            iterations: 3,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        let mut replan = stall;
        replan.recovery_policy = RecoveryPolicy::Replan;
        let clean = clean_single(stall);
        let stalled = flapped_scenario(stall);
        let replanned = flapped_scenario(replan);
        let inflation = |r: &ScenarioResult| {
            r.jobs[0].result.iterations[1].iteration_time.as_secs_f64()
                / clean.iterations[1].iteration_time.as_secs_f64()
        };
        assert!(
            inflation(&replanned) < inflation(&stalled),
            "re-planning around the dead rail must inflate the faulted iteration \
             strictly less than stalling: {:.4}x vs {:.4}x",
            inflation(&replanned),
            inflation(&stalled)
        );
        // Stall reports no replan activity; replan reports the degrade + restore.
        assert_eq!(stalled.jobs[0].degraded_iterations, 0);
        assert_eq!(stalled.jobs[0].replan_reconfigs, 0);
        assert_eq!(stalled.jobs[0].time_under_degraded_plan, SimDuration::ZERO);
        assert!(replanned.jobs[0].degraded_iterations >= 1);
        assert!(
            replanned.jobs[0].replan_reconfigs >= 2,
            "a flap is at least one degrade and one restore, got {}",
            replanned.jobs[0].replan_reconfigs
        );
        assert!(replanned.jobs[0].time_under_degraded_plan > SimDuration::ZERO);
    }

    #[test]
    fn replan_degraded_clock_spans_exactly_the_outage() {
        let mut config = OpusConfig {
            iterations: 3,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        config.recovery_policy = RecoveryPolicy::Replan;
        let clean = clean_single(config);
        let t1 = clean.iterations[1].started_at;
        let dur = clean.iterations[1].iteration_time;
        let down = t1 + dur.mul_f64(0.25);
        let up = down + dur.mul_f64(0.5);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(down, ScenarioEvent::RailDown(RailId(0)))
            .inject(up, ScenarioEvent::RailUp(RailId(0)))
            .run();
        // The degraded period opens at the RailDown commit and closes at the RailUp
        // commit: the swap happens inside the injection, not lazily at the next use.
        assert_eq!(
            result.jobs[0].time_under_degraded_plan,
            up.duration_since(down)
        );
    }

    #[test]
    fn replan_survives_an_unrecovered_outage_that_stalls_forever() {
        // The stall twin of this timeline panics ("no scheduled recovery", pinned by
        // `unrecovered_rail_failure_is_a_scenario_bug`): the degraded plan excludes
        // the dead rail, so a replan job keeps training to the end of the scenario.
        let mut config = OpusConfig {
            iterations: 3,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        config.recovery_policy = RecoveryPolicy::Replan;
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(SimTime::from_micros(1), ScenarioEvent::RailDown(RailId(0)))
            .run();
        assert_eq!(result.jobs[0].result.iterations.len(), 3);
        assert!(
            result.jobs[0].degraded_iterations >= 2,
            "every iteration after the failure runs degraded, got {}",
            result.jobs[0].degraded_iterations
        );
        // The outage never closes, so the degraded clock runs to the makespan.
        assert_eq!(
            result.jobs[0].time_under_degraded_plan,
            result
                .fleet
                .makespan
                .duration_since(SimTime::from_micros(1))
        );
    }

    #[test]
    fn replan_policy_on_electrical_jobs_is_inert() {
        // Electrical fabrics have no circuits to re-stripe; the policy knob must not
        // change their (stalling) behavior or invent replan metrics.
        let stall = OpusConfig {
            iterations: 3,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::electrical()
        };
        let mut replan = stall;
        replan.recovery_policy = RecoveryPolicy::Replan;
        let a = flapped_scenario(stall);
        let b = flapped_scenario(replan);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(b.jobs[0].replan_reconfigs, 0);
    }

    // ---- serving (elastic inference) scenarios ------------------------------------

    use railsim_workload::{InferenceConfig, InferenceDagBuilder};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// A 20-GPU mixed-tenancy scenario: a training tenant on nodes 0–3 and an
    /// elastic inference tenant shifted one node over (nodes 1–4), both optical,
    /// with a bursty request timeline plus one grow and one shrink. The one-node
    /// shift makes the tenants' cross-node rings *conflict* instead of coincide:
    /// the inference hop GPU4↔GPU8 shares rail-0 ports with the trainer's GPU0↔GPU4
    /// and GPU8↔GPU12 rings but is a different circuit, so installs are non-noop
    /// and the port-claim (eviction) path actually engages.
    fn mixed_tenancy_spec(eviction: EvictionPolicy) -> ScenarioSpec {
        let cluster = tiny_cluster(5);
        let model = ModelConfig::llama3_8b();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let train_dag = DagBuilder::new(model, parallel, compute).build();
        let mut train_cfg = OpusConfig {
            iterations: 3,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::on_demand(SimDuration::from_millis(25))
        };
        train_cfg.eviction = eviction;
        let serve_cfg = train_cfg;
        let inference = InferenceConfig::tiny_test(4, 2, 2);
        let serving = ServingSpec::for_inference(&inference, 1);
        let dag = InferenceDagBuilder::new(inference, GpuSpec::a100()).build();
        ScenarioSpec::new(cluster)
            .job(Arc::new(train_dag), train_cfg)
            .serving_job(Arc::new(dag), serve_cfg, JobPlacement::AtGpu(4), serving)
            .inject(
                ms(1),
                ScenarioEvent::RequestBurst {
                    job: JobId(1),
                    requests: 8,
                },
            )
            .inject(ms(20), ScenarioEvent::JobGrow { job: JobId(1) })
            .inject(
                ms(25),
                ScenarioEvent::RequestBurst {
                    job: JobId(1),
                    requests: 12,
                },
            )
            .inject(ms(60), ScenarioEvent::JobShrink { job: JobId(1) })
            .inject(
                ms(70),
                ScenarioEvent::RequestBurst {
                    job: JobId(1),
                    requests: 6,
                },
            )
    }

    #[test]
    fn serving_job_retires_every_request_and_reports_latencies() {
        let result = mixed_tenancy_spec(EvictionPolicy::Never).run();
        assert_eq!(result.fleet.injections_applied, 5);
        let serving = &result.jobs[1];
        assert_eq!(
            serving.requests_completed, 26,
            "every injected request must retire"
        );
        assert!(serving.p99_request_latency.is_some());
        assert!(
            serving.result.iterations.len() >= 3,
            "26 requests at batch 4 × ≤2 replicas need several iterations, got {}",
            serving.result.iterations.len()
        );
        let training = &result.jobs[0];
        assert_eq!(training.result.iterations.len(), 3);
        assert_eq!(training.requests_completed, 0);
        assert!(training.p99_request_latency.is_none());
        // Under `Never` the tenancy ledgers stay off entirely.
        for job in &result.jobs {
            assert_eq!(job.evictions_suffered, 0);
            assert_eq!(job.evictions_inflicted, 0);
        }
        assert!(result.fleet.circuits_evicted_by_rail.is_empty());
        let share: f64 = result.jobs.iter().map(|j| j.circuit_wait_share).sum();
        assert!(
            (share - 1.0).abs() < 1e-9,
            "circuit-wait shares must partition the total, got {share}"
        );
    }

    #[test]
    fn grow_and_shrink_resize_the_active_replica_set() {
        let result = mixed_tenancy_spec(EvictionPolicy::Never).run();
        let counts: Vec<usize> = result.jobs[1]
            .result
            .iterations
            .iter()
            .map(|it| it.comm_records.len())
            .collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert_eq!(
            max,
            2 * min,
            "two active replicas run exactly twice the comm tasks of one: {counts:?}"
        );
        assert!(
            counts.windows(2).any(|w| w[0] == min && w[1] == max),
            "the grow must take effect at an iteration boundary: {counts:?}"
        );
        assert!(
            counts.windows(2).any(|w| w[0] == max && w[1] == min),
            "the shrink must take effect at an iteration boundary: {counts:?}"
        );
    }

    #[test]
    fn mixed_tenancy_is_deterministic_across_runs() {
        for eviction in [EvictionPolicy::Never, EvictionPolicy::FairShare] {
            let reference = serde_json::to_string_pretty(&mixed_tenancy_spec(eviction).run())
                .expect("results serialize");
            let again = serde_json::to_string_pretty(&mixed_tenancy_spec(eviction).run())
                .expect("results serialize");
            assert_eq!(again, reference, "{eviction:?} diverged between two runs");
        }
    }

    #[test]
    fn fair_share_strictly_improves_inference_p99_under_contention() {
        let never = mixed_tenancy_spec(EvictionPolicy::Never).run();
        let fair = mixed_tenancy_spec(EvictionPolicy::FairShare).run();
        let p99_never = never.jobs[1].p99_request_latency.expect("serving job");
        let p99_fair = fair.jobs[1].p99_request_latency.expect("serving job");
        assert!(
            p99_fair < p99_never,
            "FairShare must strictly improve the inference tenant's p99 on the \
             pinned contention seed: fair {p99_fair:?} vs never {p99_never:?}"
        );
        assert!(
            fair.jobs[1].evictions_inflicted > 0,
            "the improvement must come from evictions"
        );
        assert_eq!(
            fair.jobs[0].evictions_suffered, fair.jobs[1].evictions_inflicted,
            "two tenants: everything the trainer suffered, the server inflicted"
        );
        assert!(fair.fleet.circuits_evicted_by_rail.iter().sum::<u64>() > 0);
    }

    #[test]
    #[should_panic(expected = "not a serving job")]
    fn request_burst_for_a_training_job_is_rejected() {
        let config = OpusConfig {
            iterations: 2,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        ScenarioSpec::new(tiny_cluster(4))
            .job(Arc::new(tiny_dag()), config)
            .inject(
                ms(5),
                ScenarioEvent::RequestBurst {
                    job: JobId(0),
                    requests: 4,
                },
            )
            .run();
    }

    #[test]
    #[should_panic(expected = "no RequestBurst")]
    fn serving_job_without_bursts_is_rejected() {
        let mut spec = mixed_tenancy_spec(EvictionPolicy::Never);
        spec.injections
            .retain(|(_, e)| !matches!(e, ScenarioEvent::RequestBurst { .. }));
        spec.run();
    }

    #[test]
    #[should_panic(expected = "agree on the eviction policy")]
    fn mixed_eviction_policies_are_rejected() {
        let mut spec = mixed_tenancy_spec(EvictionPolicy::Never);
        spec.jobs[1].config.eviction = EvictionPolicy::FairShare;
        spec.run();
    }
}
