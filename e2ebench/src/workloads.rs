//! The three benchmark workloads: set-up, the measured call, and the output check.
//!
//! Each repetition is `setup` → `run` → `check`. `setup` covers everything before
//! the first `ScenarioSpec::run` / `FleetService::evaluate` call, `run` is that call
//! (plus window extraction on `train-10k-steady`), and `check` digests the result
//! and verifies the workload's invariants. Every layer call goes through a
//! [`Tracer`] span, which costs one branch when tracing is off.

use crate::digest::Fnv1a;
use crate::trace::Tracer;
use opus::fleet::{FailureModel, FleetService, ProvisioningLevel, SweepReport, SweepSpec};
use opus::{
    windows_of_iterations, ArrivalProcess, EvictionPolicy, JobPlacement, OpusSimulator,
    ReconfigPolicy, RecoveryPolicy, ScenarioEvent, ScenarioResult, ScenarioSpec, ServingSpec,
    Window,
};
use railsim_bench::{scale_run_config, scaled_cluster, scaled_cluster_with_spare, scaled_dag};
use railsim_cost::{standard_points, GpuBackendCostModel};
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::RailId;
use railsim_workload::{GpuSpec, InferenceConfig, InferenceDagBuilder, JobId};
use std::sync::Arc;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 10k-GPU training job, provisioned optical, memoized steady state.
    Train,
    /// A 4k-GPU trainer plus two serving tenants under `FairShare` eviction.
    Serve,
    /// A 36-variant fleet sweep at 1k GPUs on two workers.
    Fleet,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Train, Workload::Serve, Workload::Fleet];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train-10k-steady",
            Workload::Serve => "serve-4k-mixed",
            Workload::Fleet => "fleet-1k-sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes. [`Sizes::FULL`] is what the benchmark measures; the self-tests run
/// the same code at 1k GPUs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// GPUs of the `train` job.
    pub train_gpus: u32,
    /// Iterations of the `train` job.
    pub train_iterations: u32,
    /// GPUs of the `serve` trainer.
    pub serve_gpus: u32,
    /// Iterations of the `serve` trainer.
    pub serve_iterations: u32,
    /// GPUs of each `fleet` variant's job.
    pub fleet_gpus: u32,
}

impl Sizes {
    /// The measured sizes.
    pub const FULL: Sizes = Sizes {
        train_gpus: 10_240,
        train_iterations: 16,
        serve_gpus: 4_096,
        serve_iterations: 8,
        fleet_gpus: 1_024,
    };
}

/// Serving tenants of `serve-4k-mixed`.
const TENANTS: u32 = 2;
/// Mean gap between a tenant's request bursts.
const MEAN_GAP: SimDuration = SimDuration::from_millis(800);
/// Largest request burst.
const MAX_BURST: u32 = 16;
/// Arrivals stop at this simulated time.
const ARRIVAL_HORIZON: SimTime = SimTime::from_millis(14_000);
/// Each tenant grows by a replica here (tenant `k` shifted by `k` seconds) ...
const GROW_AT_MS: u64 = 2_000;
/// ... and shrinks back here.
const SHRINK_AT_MS: u64 = 7_000;

/// Fleet sweep: traces per (level, placement) cell — the clean reference plus one
/// seeded failure trace.
const FLEET_TRACES: u32 = 2;
/// Fleet sweep worker threads.
const FLEET_WORKERS: u32 = 2;
/// Iterations per fleet variant.
const FLEET_ITERATIONS: u32 = 2;

/// The per-tenant arrival seed: splitmix64 finalizer over the workload seed, so
/// neighbouring seeds give unrelated streams.
fn tenant_seed(seed: u64, tenant: u32) -> u64 {
    let mut z = seed ^ (u64::from(tenant) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a workload built before its measured call.
pub enum Setup {
    /// `train-10k-steady`.
    Train {
        /// The one-job scenario.
        spec: ScenarioSpec,
        /// Rails the windows are extracted on.
        rails: Vec<RailId>,
        /// Configured iterations.
        iterations: u32,
    },
    /// `serve-4k-mixed`.
    Serve {
        /// Trainer plus tenants, with the arrival timeline injected.
        spec: ScenarioSpec,
        /// Configured trainer iterations.
        iterations: u32,
        /// Requests injected per tenant, in job order after the trainer.
        injected: Vec<u64>,
    },
    /// `fleet-1k-sweep`.
    Fleet {
        /// The service holding the cluster and the DAG template.
        service: FleetService,
        /// The sweep grid.
        sweep: SweepSpec,
        /// Rail outages each variant's spec injects.
        outages: Vec<usize>,
    },
}

/// What one repetition's set-up produced besides the [`Setup`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCounts {
    /// Tasks across every DAG built.
    pub dag_tasks: u64,
    /// Inference requests injected across tenants.
    pub requests_injected: u64,
}

/// Builds one repetition's inputs from `seed`. The benchmark always memoizes;
/// the self-tests also run with `memoize = false` (results are byte-identical).
pub fn setup(
    workload: Workload,
    sizes: Sizes,
    memoize: bool,
    seed: u64,
    tracer: &mut Tracer,
) -> (Setup, SetupCounts) {
    match workload {
        Workload::Train => {
            let cluster = scaled_cluster(sizes.train_gpus);
            let rails = (0..cluster.num_rails()).map(RailId).collect();
            let dag = tracer.span("workload.dag_build", || scaled_dag(sizes.train_gpus));
            let counts = SetupCounts {
                dag_tasks: dag.len() as u64,
                ..SetupCounts::default()
            };
            let mut config = scale_run_config(sizes.train_iterations);
            config.seed = seed; // inert: jitter is 0, which memoization needs
            config.memoize_steady_state = memoize;
            let spec = ScenarioSpec::new(cluster).job(Arc::new(dag), config);
            let setup = Setup::Train {
                spec,
                rails,
                iterations: sizes.train_iterations,
            };
            (setup, counts)
        }
        Workload::Serve => {
            let cluster = scaled_cluster(sizes.serve_gpus);
            let train = tracer.span("workload.dag_build", || scaled_dag(sizes.serve_gpus));
            let inference = InferenceConfig::llama3_8b(8, 8, 2);
            let tenant_dag = tracer.span("workload.dag_build", || {
                InferenceDagBuilder::new(inference.clone(), GpuSpec::h200()).build()
            });
            let serving = ServingSpec::for_inference(&inference, 1);
            let mut counts = SetupCounts {
                dag_tasks: (train.len() + TENANTS as usize * tenant_dag.len()) as u64,
                ..SetupCounts::default()
            };
            let mut config = scale_run_config(sizes.serve_iterations);
            config.seed = seed;
            config.memoize_steady_state = memoize;
            config.eviction = EvictionPolicy::FairShare;
            let tenant_dag = Arc::new(tenant_dag);
            let mut spec = ScenarioSpec::new(cluster).job(Arc::new(train), config);
            let mut injected = Vec::new();
            for k in 0..TENANTS {
                let job = JobId(1 + k);
                // Half a node in, so the tenant's circuits conflict with the
                // trainer's on every rail.
                let at = JobPlacement::AtGpu(4 + k * sizes.serve_gpus / 2);
                spec = spec.serving_job(Arc::clone(&tenant_dag), config, at, serving);
                let bursts = tracer.span("serving.arrivals", || {
                    ArrivalProcess::new(tenant_seed(seed, k), MEAN_GAP, MAX_BURST).bursts(
                        job,
                        SimTime::ZERO,
                        ARRIVAL_HORIZON,
                    )
                });
                let requests: u64 = bursts
                    .iter()
                    .map(|(_, e)| match e {
                        ScenarioEvent::RequestBurst { requests, .. } => u64::from(*requests),
                        _ => 0,
                    })
                    .sum();
                injected.push(requests);
                let shift = u64::from(k) * 1_000;
                spec = spec
                    .inject_all(bursts)
                    .inject(
                        SimTime::from_millis(GROW_AT_MS + shift),
                        ScenarioEvent::JobGrow { job },
                    )
                    .inject(
                        SimTime::from_millis(SHRINK_AT_MS + shift),
                        ScenarioEvent::JobShrink { job },
                    );
            }
            counts.requests_injected = injected.iter().sum();
            let setup = Setup::Serve {
                spec,
                iterations: sizes.serve_iterations,
                injected,
            };
            (setup, counts)
        }
        Workload::Fleet => {
            // One spare node gives the shifted placement cell room at the top end.
            let service = FleetService::new(scaled_cluster_with_spare(sizes.fleet_gpus, 1));
            let template = format!("{}-h200/llama3-8b-tp8-pp8-fsdp", sizes.fleet_gpus);
            let dag = service.dag_template(&template, || {
                tracer.span("workload.dag_build", || scaled_dag(sizes.fleet_gpus))
            });
            let counts = SetupCounts {
                dag_tasks: dag.len() as u64,
                ..SetupCounts::default()
            };
            let sweep = SweepSpec {
                template,
                base_seed: seed,
                iterations: FLEET_ITERATIONS,
                traces_per_level: FLEET_TRACES,
                levels: ladder(sizes.fleet_gpus),
                placements: vec![JobPlacement::Auto, JobPlacement::AtGpu(4)],
                failures: failure_model(),
                memoize,
                workers: FLEET_WORKERS,
            };
            let outages = tracer.span("fleet.variant_spec", || {
                (0..sweep.num_variants())
                    .map(|idx| {
                        service
                            .variant_spec(&sweep, idx)
                            .injections
                            .iter()
                            .filter(|(_, e)| matches!(e, ScenarioEvent::RailDown(_)))
                            .count()
                    })
                    .collect()
            });
            let setup = Setup::Fleet {
                service,
                sweep,
                outages,
            };
            (setup, counts)
        }
    }
}

/// The provisioning ladder of `fleet_sweep`: the five standard points plus a replan
/// twin of every optical point (9 levels).
fn ladder(num_gpus: u32) -> Vec<ProvisioningLevel> {
    let base: Vec<ProvisioningLevel> =
        standard_points(&GpuBackendCostModel::dgx_h200_400g(), u64::from(num_gpus))
            .into_iter()
            .map(|p| ProvisioningLevel {
                label: p.label,
                policy: if p.optical {
                    ReconfigPolicy::Provisioned
                } else {
                    ReconfigPolicy::Electrical
                },
                recovery: RecoveryPolicy::Stall,
                reconfig_latency: p.reconfig_latency,
                capex_usd: p.capex_usd,
                power_watts: p.power_watts,
            })
            .collect();
    let twins: Vec<ProvisioningLevel> = base
        .iter()
        .filter(|l| l.policy.is_optical())
        .map(|l| l.clone().with_recovery(RecoveryPolicy::Replan))
        .collect();
    base.into_iter().chain(twins).collect()
}

/// Outages land inside the clean job's runtime and last 2-10 % of it, as
/// `fleet_sweep` calibrates them. The clean electrical 2-iteration run at 1k GPUs
/// ends at 568.6 ms simulated; the constants are fixed so set-up makes no
/// simulation call.
fn failure_model() -> FailureModel {
    FailureModel {
        max_outages: 2,
        window: SimDuration::from_millis(455),
        min_outage: SimDuration::from_millis(11),
        max_outage: SimDuration::from_millis(57),
    }
}

/// The measured call's result.
pub enum Output {
    /// `train-10k-steady`.
    Train {
        /// The scenario outcome.
        result: ScenarioResult,
        /// The Fig. 4 windows over every rail.
        windows: Vec<Window>,
        /// Configured iterations.
        iterations: u32,
    },
    /// `serve-4k-mixed`.
    Serve {
        /// The scenario outcome.
        result: ScenarioResult,
        /// Configured trainer iterations.
        iterations: u32,
        /// Requests injected per tenant.
        injected: Vec<u64>,
    },
    /// `fleet-1k-sweep`.
    Fleet {
        /// The sweep report.
        report: SweepReport,
        /// Rail outages each variant's spec injects.
        outages: Vec<usize>,
        /// Variants in the grid.
        variants: usize,
    },
}

/// Runs the measured call.
pub fn run(setup: Setup, tracer: &mut Tracer) -> Output {
    match setup {
        Setup::Train {
            spec,
            rails,
            iterations,
        } => {
            let result = tracer.span("scenario.run", || spec.run());
            let windows = tracer.span("window.extract", || {
                windows_of_iterations(&result.jobs[0].result.iterations, &rails)
            });
            Output::Train {
                result,
                windows,
                iterations,
            }
        }
        Setup::Serve {
            spec,
            iterations,
            injected,
        } => {
            let result = tracer.span("scenario.run", || spec.run());
            Output::Serve {
                result,
                iterations,
                injected,
            }
        }
        Setup::Fleet {
            service,
            sweep,
            outages,
        } => {
            let report = tracer.span("fleet.evaluate", || service.evaluate(&sweep));
            Output::Fleet {
                report,
                outages,
                variants: sweep.num_variants(),
            }
        }
    }
}

/// Per-layer counts and simulated metrics of one repetition. `None` marks a value
/// the benchmark cannot observe through the public API on this workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Observed {
    /// Requests the tenants retired.
    pub requests_completed: u64,
    /// `ScenarioSpec::run` calls the benchmark made.
    pub scenario_calls: u64,
    /// Iterations fast-forwarded in those calls.
    pub memoized_iterations: Option<u64>,
    /// Controller requests.
    pub controller_requests: Option<u64>,
    /// Controller requests that found their circuits installed.
    pub controller_noops: Option<u64>,
    /// OCS reconfigurations reported in the results.
    pub reconfigs: u64,
    /// Circuits set up across rails.
    pub circuits_set_up: Option<u64>,
    /// Circuits torn down across rails.
    pub circuits_torn_down: Option<u64>,
    /// Circuits evicted by the tenant-aware policy.
    pub circuits_evicted: Option<u64>,
    /// Windows extracted.
    pub windows: u64,
    /// Fleet variants evaluated.
    pub fleet_variants: u64,
    /// Iterations the fleet variants fast-forwarded.
    pub fleet_memoized: u64,
    /// The training job's steady-state iteration time, simulated seconds.
    pub sim_iteration_s: Option<f64>,
    /// The training job's total circuit wait, simulated seconds.
    pub sim_circuit_wait_s: Option<f64>,
    /// The worst tenant's p99 request latency, simulated seconds.
    pub sim_p99_request_s: Option<f64>,
    /// Requests behind that p99.
    pub sim_p99_samples: Option<u64>,
}

/// The checked output of one repetition.
#[derive(Debug, Clone)]
pub struct Checked {
    /// FNV-1a over the whole output.
    pub digest: u64,
    /// FNV-1a over the training job's per-iteration results alone (`train` only),
    /// to compare with the single-job probe.
    pub job_digest: Option<u64>,
    /// Invariant violations; empty when the output is correct.
    pub problems: Vec<String>,
    /// Counts and simulated metrics read off the output.
    pub observed: Observed,
}

fn sum(v: &[u64]) -> u64 {
    v.iter().sum()
}

fn total_wait(result: &ScenarioResult) -> f64 {
    result.jobs[0]
        .result
        .iterations
        .iter()
        .map(|it| it.total_circuit_wait.as_secs_f64())
        .sum()
}

/// Observed values shared by the two scenario workloads.
fn scenario_observed(result: &ScenarioResult) -> Observed {
    let fleet = &result.fleet;
    Observed {
        scenario_calls: 1,
        reconfigs: result
            .jobs
            .iter()
            .map(|j| j.result.total_reconfigs() as u64)
            .sum(),
        circuits_set_up: Some(sum(&fleet.circuits_set_up_by_rail)),
        circuits_torn_down: Some(sum(&fleet.circuits_torn_down_by_rail)),
        circuits_evicted: Some(sum(&fleet.circuits_evicted_by_rail)),
        sim_iteration_s: Some(
            result.jobs[0]
                .result
                .steady_state_iteration_time()
                .as_secs_f64(),
        ),
        sim_circuit_wait_s: Some(total_wait(result)),
        ..Observed::default()
    }
}

/// Digests the output and checks the workload's invariants.
pub fn check(output: &Output) -> Checked {
    let mut problems = Vec::new();
    let mut h = Fnv1a::default();
    match output {
        Output::Train {
            result,
            windows,
            iterations,
        } => {
            h.scenario(result);
            h.windows(windows);
            let mut job = Fnv1a::default();
            job.simulation(&result.jobs[0].result);
            let got = result.jobs[0].result.iterations.len();
            if got != *iterations as usize {
                problems.push(format!("training job ran {got} of {iterations} iterations"));
            }
            if windows.is_empty() {
                problems.push("no inter-parallelism windows extracted".to_string());
            }
            let observed = Observed {
                windows: windows.len() as u64,
                ..scenario_observed(result)
            };
            Checked {
                digest: h.finish(),
                job_digest: Some(job.finish()),
                problems,
                observed,
            }
        }
        Output::Serve {
            result,
            iterations,
            injected,
        } => {
            h.scenario(result);
            let got = result.jobs[0].result.iterations.len();
            if got != *iterations as usize {
                problems.push(format!("trainer ran {got} of {iterations} iterations"));
            }
            let mut worst: Option<(SimDuration, u64)> = None;
            for (tenant, want) in result.jobs[1..].iter().zip(injected) {
                if tenant.requests_completed != *want {
                    problems.push(format!(
                        "tenant {} retired {} of {want} injected requests",
                        tenant.job, tenant.requests_completed
                    ));
                }
                match tenant.p99_request_latency {
                    Some(p99) if worst.is_none_or(|(w, _)| p99 > w) => {
                        worst = Some((p99, tenant.requests_completed));
                    }
                    Some(_) => {}
                    None => problems.push(format!("tenant {} reports no p99", tenant.job)),
                }
            }
            if result.jobs.len() != 1 + injected.len() {
                problems.push(format!("{} jobs in the result", result.jobs.len()));
            }
            let observed = Observed {
                requests_completed: result.jobs[1..].iter().map(|j| j.requests_completed).sum(),
                sim_p99_request_s: worst.map(|(p99, _)| p99.as_secs_f64()),
                sim_p99_samples: worst.map(|(_, n)| n),
                ..scenario_observed(result)
            };
            Checked {
                digest: h.finish(),
                job_digest: None,
                problems,
                observed,
            }
        }
        Output::Fleet {
            report,
            outages,
            variants,
        } => {
            h.sweep(report);
            if report.variants.len() != *variants {
                problems.push(format!(
                    "{} of {variants} variant rows",
                    report.variants.len()
                ));
            }
            for (idx, v) in report.variants.iter().enumerate() {
                if v.variant != idx {
                    problems.push(format!("row {idx} holds variant {}", v.variant));
                }
                if v.job_end == SimTime::ZERO {
                    problems.push(format!("variant {idx} reports job_end 0"));
                }
                if outages.get(idx) != Some(&v.outages) {
                    problems.push(format!(
                        "variant {idx} reports {} outages, its spec injects {:?}",
                        v.outages,
                        outages.get(idx)
                    ));
                }
            }
            let observed = Observed {
                reconfigs: report.variants.iter().map(|v| v.reconfigs as u64).sum(),
                memoized_iterations: Some(0), // no direct scenario calls
                fleet_variants: report.variants.len() as u64,
                fleet_memoized: report.variants.iter().map(|v| v.memoized_iterations).sum(),
                ..Observed::default()
            };
            Checked {
                digest: h.finish(),
                job_digest: None,
                problems,
                observed,
            }
        }
    }
}

/// What the single-job probe reads through the `OpusSimulator` accessors.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Iterations fast-forwarded.
    pub memoized_iterations: u64,
    /// Controller requests.
    pub controller_requests: u64,
    /// Controller requests that found their circuits installed.
    pub controller_noops: u64,
    /// FNV-1a over the job's per-iteration results.
    pub job_digest: u64,
}

/// Re-runs `train-10k-steady`'s job through the single-job `OpusSimulator` wrapper,
/// whose accessors expose the memo and controller counters `ScenarioResult` lacks.
/// Traced runs call this once, outside the measured repetitions.
pub fn train_probe(sizes: Sizes, memoize: bool, seed: u64) -> Probe {
    let dag = scaled_dag(sizes.train_gpus);
    let mut config = scale_run_config(sizes.train_iterations);
    config.seed = seed;
    config.memoize_steady_state = memoize;
    let mut sim = OpusSimulator::new(scaled_cluster(sizes.train_gpus), dag, config);
    let result = sim.run();
    let mut h = Fnv1a::default();
    h.simulation(&result);
    let controller = sim
        .controller()
        .expect("train-10k-steady runs an optical policy");
    Probe {
        memoized_iterations: sim.memoized_iterations(),
        controller_requests: controller.requests(),
        controller_noops: controller.noop_requests(),
        job_digest: h.finish(),
    }
}

#[cfg(test)]
mod tests {
    //! Self-tests at 1k GPUs. Run with
    //! `cargo test --release --manifest-path e2ebench/Cargo.toml`.
    use super::*;

    const SMALL: Sizes = Sizes {
        train_gpus: 1_024,
        train_iterations: 16,
        serve_gpus: 1_024,
        serve_iterations: 8,
        fleet_gpus: 1_024,
    };

    fn once(workload: Workload, memoize: bool, seed: u64) -> Checked {
        let mut tracer = Tracer::new(false);
        let (s, _) = setup(workload, SMALL, memoize, seed, &mut tracer);
        let checked = check(&run(s, &mut tracer));
        assert!(
            checked.problems.is_empty(),
            "{}: {:?}",
            workload.name(),
            checked.problems
        );
        checked
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn memoized_digests_equal_naive_digests() {
        for w in Workload::ALL {
            let memo = once(w, true, 7);
            let naive = once(w, false, 7);
            assert_eq!(memo.digest, naive.digest, "{}", w.name());
        }
    }

    #[test]
    fn the_memo_engages_on_the_training_job() {
        let probe = train_probe(SMALL, true, 7);
        assert!(probe.memoized_iterations > 0);
        let naive = train_probe(SMALL, false, 7);
        assert_eq!(naive.memoized_iterations, 0);
        assert_eq!(probe.job_digest, naive.job_digest);
        let entry_point = once(Workload::Train, true, 7);
        assert_eq!(entry_point.job_digest, Some(probe.job_digest));
    }

    #[test]
    fn two_runs_give_the_same_digest() {
        for w in Workload::ALL {
            let a = once(w, true, 11);
            let b = once(w, true, 11);
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert_eq!(a.observed, b.observed, "{}", w.name());
        }
    }

    #[test]
    fn the_seed_reaches_the_serve_and_fleet_inputs() {
        for w in [Workload::Serve, Workload::Fleet] {
            let a = once(w, true, 1);
            let b = once(w, true, 2);
            assert_ne!(a.digest, b.digest, "{}", w.name());
        }
    }

    #[test]
    fn the_serve_tenants_drain_their_backlog() {
        let c = once(Workload::Serve, true, 3);
        assert!(c.observed.requests_completed > 0);
        assert!(c.observed.sim_p99_request_s.is_some());
        assert!(c.observed.circuits_evicted.unwrap_or(0) > 0);
    }
}
