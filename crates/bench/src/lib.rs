//! # railsim-bench — experiment harness for the photonic-rails reproduction
//!
//! Every table and figure of the paper's evaluation has a dedicated binary in
//! `src/bin/` that regenerates it (see DESIGN.md for the full index), plus a set of
//! criterion micro-benchmarks in `benches/`. This library holds what they share:
//!
//! * [`report`] — plain-text table rendering and JSON result files under `results/`,
//! * [`setups`] — the canonical experiment setups (the paper's Perlmutter cluster, the
//!   Llama3-8B 3D-parallel workload, the Fig. 8 latency sweep),
//! * [`mem`] — peak-RSS introspection for the memory-budget tracking of the scale runs,
//! * [`cli`] — the `--help` / exit-2 contract of the binaries that take arguments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod mem;
pub mod report;
pub mod setups;

pub use mem::{peak_rss_bytes, peak_rss_mib, reset_peak_rss};
pub use report::Report;
pub use setups::{
    fig8_latencies_ms, paper_cluster, paper_compute, paper_dag, paper_dag_large_batch, paper_model,
    paper_parallelism, scale_gpu_counts, scale_run_config, scaled_cluster, scaled_cluster_100k,
    scaled_cluster_with_spare, scaled_dag, scaled_parallelism, SCALE_100K_GPUS,
};
