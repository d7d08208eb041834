//! Scenario construction: placement and the per-job tables the run reads
//! (dependents CSR, circuit pool, condensed task columns).
//!
//! A job's DAG stays in its own rank and group-id space, so every job built from
//! one template shares the caller's `Arc`. Placement is applied here and only
//! here, at the group level, where a rank becomes a NIC port: the groups handed
//! to the [`GroupTable`], the endpoints of ad-hoc point-to-point pairs, and each
//! [`CircuitSlot`]'s group id. Everything the run emits (slots, reconfiguration
//! events, records) therefore carries cluster-global ids.

use super::inject::Injection;
use super::memo::MemoState;
use super::step::{Fleet, NO_JOB};
use super::{CircuitSlot, JobContext, JobPlacement, ScenarioEvent, ScenarioSim, ScenarioSpec};
use crate::circuits::CircuitPlanner;
use crate::config::{EvictionPolicy, OpusConfig};
use crate::controller::OpusController;
use crate::group_table::GroupTable;
use crate::serving::ServingSpec;
use crate::shim::OpusShim;
use railsim_collectives::{CommGroup, GroupId, ParallelismAxis};
use railsim_sim::{SimDuration, SimRng, SimTime};
use railsim_topology::{Cluster, GpuId, OpticalRailFabric, RailHealth};
use railsim_workload::{JobId, TaskKind, TaskTable, TrainingDag};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Sentinel slot index for tasks without circuit demand (compute tasks).
const NO_SLOT: u32 = u32::MAX;

impl ScenarioSim {
    /// Builds every job context and the shared fleet state.
    pub(crate) fn build(spec: ScenarioSpec) -> ScenarioSim {
        let ScenarioSpec {
            cluster,
            jobs,
            injections,
        } = spec;
        assert!(!jobs.is_empty(), "a scenario needs at least one job");
        // The DAG builder that ran before us freed its scratch into the
        // allocator's bins; release it so setup's own tables (circuit pool,
        // dependents CSR, task columns) don't stack on top of dead pages.
        railsim_workload::release_free_heap();
        assert!(
            jobs.len() <= u16::MAX as usize,
            "a scenario carries the job index in a u16 event field; {} jobs exceed it",
            jobs.len()
        );
        assert!(
            injections.len() <= u32::MAX as usize,
            "a scenario carries the injection index in a u32 event field; {} injections \
             exceed it",
            injections.len()
        );
        let gpus_per_node = cluster.gpus_per_node().max(1);

        // Sort the timeline by time (declaration order breaks ties) and precompute
        // every RailDown's scheduled recovery.
        let mut timeline: Vec<Injection> = {
            let mut indexed: Vec<(usize, SimTime, ScenarioEvent)> = injections
                .into_iter()
                .enumerate()
                .map(|(i, (at, e))| (i, at, e))
                .collect();
            indexed.sort_by_key(|&(i, at, _)| (at, i));
            indexed
                .into_iter()
                .map(|(_, at, event)| Injection {
                    at,
                    event,
                    recover_at: None,
                })
                .collect()
        };
        for i in 0..timeline.len() {
            if let ScenarioEvent::RailDown(rail) = timeline[i].event {
                timeline[i].recover_at = timeline[i + 1..]
                    .iter()
                    .find(|inj| inj.event == ScenarioEvent::RailUp(rail))
                    .map(|inj| inj.at);
            }
            match timeline[i].event {
                ScenarioEvent::RailDown(rail)
                | ScenarioEvent::RailUp(rail)
                | ScenarioEvent::OcsDegraded { rail, .. } => {
                    assert!(
                        rail.0 < cluster.num_rails(),
                        "injected event on {rail}, but the cluster only has {} rails",
                        cluster.num_rails()
                    );
                }
                ScenarioEvent::JobArrival { job } => {
                    assert!(
                        job.index() < jobs.len(),
                        "JobArrival for {job}, but only {} jobs are declared",
                        jobs.len()
                    );
                    assert!(
                        jobs[job.index()].serving.is_none(),
                        "JobArrival targets {job}, a serving job — serving jobs start on \
                         their first RequestBurst instead"
                    );
                }
                ScenarioEvent::RequestBurst { job, requests } => {
                    assert!(
                        job.index() < jobs.len(),
                        "RequestBurst for {job}, but only {} jobs are declared",
                        jobs.len()
                    );
                    assert!(requests > 0, "a RequestBurst carries at least one request");
                    assert!(
                        jobs[job.index()].serving.is_some(),
                        "RequestBurst targets {job}, which is not a serving job"
                    );
                }
                ScenarioEvent::JobGrow { job } | ScenarioEvent::JobShrink { job } => {
                    assert!(
                        job.index() < jobs.len(),
                        "grow/shrink for {job}, but only {} jobs are declared",
                        jobs.len()
                    );
                    assert!(
                        jobs[job.index()].serving.is_some(),
                        "grow/shrink targets {job}, which is not a serving job"
                    );
                }
            }
        }
        let faults = timeline
            .iter()
            .any(|inj| matches!(inj.event, ScenarioEvent::RailDown(_)));
        let arriving: Vec<bool> = (0..jobs.len())
            .map(|j| {
                timeline.iter().any(|inj| {
                    matches!(inj.event, ScenarioEvent::JobArrival { job } if job.index() == j)
                })
            })
            .collect();
        for (j, job_spec) in jobs.iter().enumerate() {
            if job_spec.serving.is_some() {
                let fed = timeline.iter().any(|inj| {
                    matches!(inj.event,
                        ScenarioEvent::RequestBurst { job, .. } if job.index() == j)
                });
                assert!(
                    fed,
                    "job{j} is a serving job but the timeline delivers it no RequestBurst \
                     — it would never start"
                );
            }
        }

        // Place the jobs. Job 0 keeps offset 0 / group-id offset 0 under automatic
        // placement, so a single-job scenario is bit-for-bit the classic simulator.
        // Each later job's group ids start after every earlier job's, so two jobs'
        // groups never collide in the shared controller.
        let mut contexts = Vec::with_capacity(jobs.len());
        let mut next_free_gpu = 0u32;
        let mut next_group_id = 0u32;
        let mut optical_latency: Option<SimDuration> = None;
        let mut optical_eviction: Option<EvictionPolicy> = None;
        for (j, spec) in jobs.into_iter().enumerate() {
            spec.dag.validate().expect("training DAG must be valid");
            assert!(
                spec.config.iterations > 0,
                "job{j} must simulate at least one iteration"
            );
            if let Some(serving) = &spec.serving {
                assert!(
                    serving.is_valid(),
                    "job{j}'s serving spec is inconsistent: {serving:?}"
                );
                assert_eq!(
                    serving.replicas * serving.gpus_per_replica,
                    spec.dag.max_rank() + 1,
                    "job{j}'s serving spec must cover the DAG's world size"
                );
            }
            let gpu_offset = match spec.placement {
                JobPlacement::Auto => next_free_gpu.div_ceil(gpus_per_node) * gpus_per_node,
                JobPlacement::AtGpu(offset) => offset,
            };
            let max_rank = spec.dag.max_rank();
            let last_gpu = gpu_offset
                .checked_add(max_rank)
                .filter(|&last| last < cluster.num_gpus())
                .unwrap_or_else(|| {
                    panic!(
                        "job{j} places rank {max_rank} at GPU {} but the cluster only has {} \
                         GPUs",
                        u64::from(gpu_offset) + u64::from(max_rank),
                        cluster.num_gpus()
                    )
                });
            let group_offset = next_group_id;
            next_free_gpu = next_free_gpu.max(last_gpu + 1);
            if let Some(last) = spec.dag.groups.keys().next_back() {
                next_group_id = group_offset + last.0 + 1;
            }
            if spec.config.policy.is_optical() {
                let latency = spec.config.reconfig_latency;
                match optical_latency {
                    None => optical_latency = Some(latency),
                    Some(existing) => assert_eq!(
                        existing, latency,
                        "all optical jobs of a scenario must agree on the OCS \
                         reconfiguration latency (the fabric is shared)"
                    ),
                }
                match optical_eviction {
                    None => optical_eviction = Some(spec.config.eviction),
                    Some(existing) => assert_eq!(
                        existing, spec.config.eviction,
                        "all optical jobs of a scenario must agree on the eviction \
                         policy (the controller is shared)"
                    ),
                }
            }
            contexts.push(Self::build_job(
                &cluster,
                JobId(j as u32),
                gpu_offset,
                group_offset,
                spec.dag,
                spec.config,
                arriving[j],
                spec.serving,
            ));
        }

        let controller = optical_latency.map(|latency| {
            let mut controller = Box::new(OpusController::new(OpticalRailFabric::for_cluster(
                &cluster, latency,
            )));
            if let Some(policy) = optical_eviction.filter(|p| p.can_evict()) {
                controller.set_eviction(policy, contexts.len() as u32);
                // Evictions make the shared port state policy-dependent mid-run;
                // the memo's shifted-replay proof no longer holds.
                for ctx in &mut contexts {
                    ctx.memo.enabled = false;
                }
            }
            controller
        });
        let num_rails = cluster.num_rails() as usize;
        let multi_job = contexts.len() > 1;
        if multi_job {
            // Jobs share the fabric, so one job's own iterations cannot witness
            // steady state: another job's transfers move the shared port occupancy
            // and circuit set under it at any time. Multi-job scenarios therefore
            // always step naively — the sanctioned graceful degradation.
            for ctx in &mut contexts {
                ctx.memo.enabled = false;
            }
        }
        let dense_ports = if multi_job {
            cluster.num_gpus() as usize * cluster.ports_per_gpu() as usize
        } else {
            0
        };
        let fleet = Fleet {
            controller,
            health: RailHealth::new(num_rails),
            faults,
            multi_job,
            port_owner: vec![NO_JOB; dense_ports],
            ports_per_gpu: cluster.ports_per_gpu(),
            rail_last: vec![Vec::new(); num_rails],
            overlaps: vec![0; num_rails],
            port_takeovers: 0,
            injections_applied: 0,
        };

        // Setup is the RSS high-water mark of a run: the builder's churn is all
        // freed by now, but the allocator keeps it resident unless asked.
        railsim_workload::release_free_heap();

        ScenarioSim {
            cluster,
            jobs: contexts,
            fleet,
            injections: timeline,
            makespan: SimTime::ZERO,
        }
    }

    /// Builds one job's context (the tables the classic simulator built globally).
    /// The job's ranks land on GPUs from `gpu_offset` on and its group ids are
    /// shifted by `group_offset`; `dag` itself stays in job-local space.
    #[allow(clippy::too_many_arguments)]
    fn build_job(
        cluster: &Cluster,
        job: JobId,
        gpu_offset: u32,
        group_offset: u32,
        dag: Arc<TrainingDag>,
        config: OpusConfig,
        arrives_via_event: bool,
        serving: Option<ServingSpec>,
    ) -> JobContext {
        let placed_groups: Vec<CommGroup> = dag
            .groups
            .values()
            .map(|g| {
                let ranks = g.ranks.iter().map(|r| GpuId(r.0 + gpu_offset)).collect();
                CommGroup::new(GroupId(g.id.0 + group_offset), g.axis, ranks)
            })
            .collect();
        let group_table = GroupTable::build(cluster, &placed_groups);
        let planner = CircuitPlanner::for_cluster(cluster);
        let (circuit_pool, task_circuit_slot) = Self::plan_task_circuits(
            cluster,
            &dag,
            gpu_offset,
            group_offset,
            &group_table,
            &planner,
        );
        let (dependents_off, dependents, dep_counts) = Self::build_dependents(&dag);
        let rng = SimRng::new(config.seed);
        let n = dag.tasks.len();
        // Inference replicas share no tasks, so a task's replica is simply its first
        // participant's slice of the job's rank range.
        let task_replica: Vec<u32> = match &serving {
            Some(s) => dag
                .tasks
                .iter()
                .map(|task| task.participants.first().0 / s.gpus_per_replica)
                .collect(),
            None => Vec::new(),
        };
        let is_training = serving.is_none();
        // Condense last: every structural consumer above has run, so the DAG's
        // dependency edges and groups are no longer needed. Which path runs follows
        // from whether the caller handed the `Arc` over: a uniquely-owned DAG is
        // drained chunk-by-chunk (freeing ~90M `deps` vectors at the 1M-GPU scale
        // *before* the run allocates its live state, which is what keeps a single
        // large job's peak RSS down); a template still shared with other jobs or
        // scenario variants is condensed by column clone and left alive.
        let tasks = match Arc::try_unwrap(dag) {
            Ok(owned) => TaskTable::from_owned(owned),
            Err(shared) => TaskTable::from_shared(&shared),
        };
        JobContext {
            job,
            gpu_offset,
            tasks,
            dep_counts,
            config,
            circuit_pool,
            task_circuit_slot,
            dependents_off,
            dependents,
            shim: OpusShim::new(),
            rng,
            arrives_via_event,
            active: serving.as_ref().map_or(0, |s| s.initial_replicas),
            pending_active: serving.as_ref().map_or(0, |s| s.initial_replicas),
            serving_started: false,
            serving_idle: false,
            backlog: VecDeque::new(),
            request_latencies: Vec::new(),
            requests_completed: 0,
            task_replica,
            serving,
            iteration: 0,
            iter_start: SimTime::ZERO,
            remaining: Vec::with_capacity(n),
            finish: vec![SimTime::ZERO; n],
            comm_records: Vec::new(),
            reconfig_events: Vec::new(),
            total_circuit_wait: SimDuration::ZERO,
            done_left: 0,
            completed: Vec::new(),
            memo: MemoState {
                // Jitter must be inert: a drawing RNG makes every iteration unique
                // *and* replay would have to reproduce the stream's advancement.
                // Serving jobs iterate on demand, not a steady cycle. `build`
                // additionally disables the memo for multi-job scenarios.
                enabled: config.memoize_steady_state && config.jitter_inert() && is_training,
                template: None,
                counters_at_finish: (0, 0),
                last_delta: None,
                template_delta: (0, 0),
                template_slots: Vec::new(),
                template_occupancy: Vec::new(),
                min_pair: 1,
                fast_forwarded: 0,
            },
            degraded_slots: 0,
            degraded_since: None,
            time_under_degraded_plan: SimDuration::ZERO,
            replan_reconfigs: 0,
            degraded_iterations: 0,
            iter_degraded: false,
        }
    }

    /// Builds the reverse dependency edges in CSR layout plus the per-task indegree
    /// (`(offsets, edges, dep_counts)`). The indegrees are the only thing the run
    /// ever needs the forward `deps` edges for, so capturing them here lets the task
    /// arena be dropped right after this pass.
    fn build_dependents(dag: &TrainingDag) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let n = dag.tasks.len();
        let mut counts = vec![0u32; n + 1];
        let mut dep_counts = vec![0u32; n];
        for task in &dag.tasks {
            dep_counts[task.id.0 as usize] = task.deps.len() as u32;
            for dep in &task.deps {
                counts[dep.0 as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut edges = vec![0u32; offsets[n] as usize];
        for task in &dag.tasks {
            for dep in &task.deps {
                let c = &mut cursor[dep.0 as usize];
                edges[*c as usize] = task.id.0;
                *c += 1;
            }
        }
        (offsets, edges, dep_counts)
    }

    /// Plans the circuit demand of every communication task, deduplicated into one
    /// [`CircuitSlot`] per communication group (plus one per ad-hoc point-to-point
    /// pair that belongs to no group). Returns the pool and the per-task slot index.
    /// `dag` is job-local; `table` holds the placed groups, so a slot's group id and
    /// an ad-hoc pair's endpoints are shifted by the job's offsets here.
    fn plan_task_circuits(
        cluster: &Cluster,
        dag: &TrainingDag,
        gpu_offset: u32,
        group_offset: u32,
        table: &GroupTable,
        planner: &CircuitPlanner,
    ) -> (Vec<CircuitSlot>, Vec<u32>) {
        // Groups partition the ranks of each axis, so `(axis, rank) -> group` is a
        // function; index it once instead of scanning every group per point-to-point
        // task (the scan was quadratic at the 10k-GPU scale: #p2p tasks x #groups).
        let mut member_group: HashMap<(ParallelismAxis, GpuId), GroupId> = HashMap::new();
        for g in dag.groups.values() {
            for rank in &g.ranks {
                member_group.insert((g.axis, *rank), g.id);
            }
        }
        let mut pool: Vec<CircuitSlot> = Vec::new();
        let mut slot_of_group: HashMap<GroupId, u32> = HashMap::new();
        let mut task_slot = vec![NO_SLOT; dag.tasks.len()];
        let mut group_slot = |pool: &mut Vec<CircuitSlot>, id: GroupId| -> u32 {
            *slot_of_group.entry(id).or_insert_with(|| {
                let placed = GroupId(id.0 + group_offset);
                let circuits = table
                    .circuits(placed)
                    .expect("communication group must be registered")
                    .clone();
                let slot = pool.len() as u32;
                pool.push(CircuitSlot {
                    group: placed,
                    group_size: dag.groups[&id].size() as u32,
                    circuits,
                    pristine: None,
                });
                slot
            })
        };
        for task in dag.communication_tasks() {
            let slot = match &task.kind {
                TaskKind::Collective { group, .. } => group_slot(&mut pool, *group),
                TaskKind::PointToPoint { src, dst, axis, .. } => {
                    // A point-to-point transfer uses the circuits of the communication
                    // group it belongs to (circuit allocation is per group, §5): find
                    // the group on the same axis containing both endpoints, or fall
                    // back to planning an ad-hoc pair.
                    let group = member_group
                        .get(&(*axis, *src))
                        .filter(|id| member_group.get(&(*axis, *dst)) == Some(id));
                    match group {
                        Some(&id) => group_slot(&mut pool, id),
                        None => {
                            let pseudo = CommGroup::new(
                                GroupId(u32::MAX - task.id.0),
                                *axis,
                                vec![GpuId(src.0 + gpu_offset), GpuId(dst.0 + gpu_offset)],
                            );
                            let slot = pool.len() as u32;
                            pool.push(CircuitSlot {
                                group: pseudo.id,
                                group_size: 2,
                                circuits: planner.plan(cluster, &pseudo),
                                pristine: None,
                            });
                            slot
                        }
                    }
                }
                TaskKind::Compute { .. } => unreachable!("communication_tasks filters compute"),
            };
            task_slot[task.id.0 as usize] = slot;
        }
        (pool, task_slot)
    }
}
