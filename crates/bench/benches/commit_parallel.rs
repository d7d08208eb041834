//! Macro-benchmark of the sequential commit path under multi-rail churn: a 256-GPU
//! DGX H200 slice (8 rails) under the datacenter-scale optical config with a
//! rail-flap pulse mid-run, so every commit class — compute, single- and multi-rail
//! optical collectives, the injections and the reinstalls after recovery — runs
//! through the one event loop, while staying small enough for the bench budget.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::{Scenario, ScenarioEvent};
use railsim_bench::{scale_run_config, scaled_cluster, scaled_dag};
use railsim_sim::SimTime;
use railsim_topology::RailId;

const GPUS: u32 = 256;

fn bench_commit_parallel(c: &mut Criterion) {
    let cluster = scaled_cluster(GPUS);
    let dag = scaled_dag(GPUS);
    let config = scale_run_config(2);

    let run = || {
        Scenario::new(cluster.clone())
            .job(dag.clone(), config)
            .inject(SimTime::from_millis(50), ScenarioEvent::RailDown(RailId(2)))
            .inject(SimTime::from_millis(120), ScenarioEvent::RailUp(RailId(2)))
            .run()
    };

    let mut group = c.benchmark_group("commit_parallel");
    group.sample_size(10);
    group.bench_function("commit_sequential_256", |b| {
        b.iter(|| black_box(run().fleet.makespan))
    });
    group.finish();
}

criterion_group!(benches, bench_commit_parallel);
criterion_main!(benches);
