//! # Opus — parallelism-driven reconfiguration for photonic rail fabrics
//!
//! This crate is the reference implementation of the control plane proposed in
//! *Photonic Rails in ML Datacenters* (HotNets 2025), plus the discrete-event
//! simulator used to evaluate it. Rail-optimized fabrics built from optical circuit
//! switches only offer one-to-one connectivity at a time; Opus restores the *illusion*
//! of fully connected rails by reconfiguring each rail's circuits between the
//! parallelism phases of a training job, hiding the switching delay inside the
//! milliseconds-long windows that naturally separate those phases.
//!
//! ## Components (Fig. 6 of the paper)
//!
//! * [`OpusShim`] — sits between the application and the collective library,
//!   intercepts collective calls, profiles the per-rank group sequence during the
//!   first iteration and predicts parallelism shifts afterwards.
//! * [`GroupTable`] / [`CircuitPlanner`] — the controller's communication-group table
//!   and circuit lookup table: which ranks form each group, which rails it needs and
//!   which circuits realize its ring.
//! * [`OpusController`] — receives (possibly speculative) reconfiguration requests,
//!   avoids conflicts with ongoing traffic (FC-FS over the job's sequentially ordered
//!   demands), programs the per-rail OCSes and acknowledges when circuits settle.
//! * [`ScenarioSpec`] — the simulation entry point: describes one or more jobs on a
//!   shared cluster plus an injected event timeline (rail failures/recoveries, OCS
//!   degradation, late job arrivals, request bursts); [`ScenarioSpec::run`] reports
//!   per-job metrics plus fleet-level rail counters.
//! * [`OpusSimulator`] — a one-job [`ScenarioSpec`] with accessors for the shim, the
//!   controller and the memo: executes one [`railsim_workload::TrainingDag`] over a
//!   cluster under the electrical baseline, on-demand optical, or provisioned optical
//!   policy, producing the timings behind Fig. 3, Fig. 4 and Fig. 8.
//! * [`OpusConfig`] — the one configuration surface of a job: public fields, set
//!   with struct-update syntax on top of a policy constructor.
//! * [`window`] — the inter-parallelism window analysis of §3.1 / Fig. 4.
//!
//! ## Quick start
//!
//! ```
//! use opus::{OpusConfig, ScenarioSpec};
//! use railsim_sim::SimDuration;
//! use railsim_topology::{ClusterSpec, NodePreset};
//! use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};
//! use std::sync::Arc;
//!
//! // The paper's §3.1 workload: Llama3-8B, TP=4, FSDP=2, PP=2 on 4 Perlmutter nodes.
//! let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
//! let model = ModelConfig::tiny_test(); // use `llama3_8b()` for the real thing
//! let parallel = ParallelismConfig::paper_llama3_8b();
//! let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
//! let dag = DagBuilder::new(model, parallel, compute).build();
//!
//! // Photonic rails with a 25 ms piezo OCS and provisioning, 2 iterations, driven
//! // through the scenario entry point (see [`scenario`] for fault injection and
//! // multi-job placement).
//! let config = OpusConfig {
//!     iterations: 2,
//!     ..OpusConfig::provisioned(SimDuration::from_millis(25))
//! };
//! let result = ScenarioSpec::new(cluster).job(Arc::new(dag), config).run();
//! assert!(
//!     result.jobs[0].result.steady_state_iteration_time() > SimDuration::ZERO
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuits;
pub mod config;
pub mod controller;
pub mod fleet;
pub mod group_table;
pub mod metrics;
pub mod scenario;
pub mod serving;
pub mod shim;
pub mod simulation;
pub mod window;

pub use circuits::{CircuitPlanner, GroupCircuits};
pub use config::{EvictionPolicy, HostOffload, OpusConfig, ReconfigPolicy, RecoveryPolicy};
pub use controller::OpusController;
pub use fleet::{
    FailureModel, FleetService, Frontier, LevelSummary, Percentiles, ProvisioningLevel,
    SweepReport, SweepSpec, VariantResult,
};
pub use group_table::{GroupEntry, GroupTable};
pub use metrics::{CommRecord, IterationResult, ReconfigEvent, SimulationResult};
pub use scenario::{
    FleetMetrics, JobPlacement, JobResult, JobSpec, ScenarioEvent, ScenarioResult, ScenarioSpec,
};
pub use serving::{ArrivalProcess, ServingSpec};
pub use shim::{OpusShim, ShimProfile};
pub use simulation::{baseline_of, OpusSimulator};
pub use window::{
    default_traffic_buckets_mb, phases_by_rail, phases_on_rail, window_cdf,
    windows_by_following_traffic, windows_of_iterations, windows_on_rail, Phase, Window,
};
