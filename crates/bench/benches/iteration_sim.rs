//! Macro-benchmark: one full training-iteration simulation under each network policy
//! (the engine behind Fig. 8).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::{OpusConfig, OpusSimulator};
use railsim_bench::{paper_cluster, paper_dag};
use railsim_sim::SimDuration;

fn bench_iteration_sim(c: &mut Criterion) {
    let cluster = paper_cluster();
    let dag = paper_dag();

    let mut group = c.benchmark_group("iteration_simulation");
    group.sample_size(20);
    group.bench_function("electrical_baseline", |b| {
        b.iter(|| {
            let mut sim = OpusSimulator::new(
                cluster.clone(),
                dag.clone(),
                OpusConfig {
                    iterations: 1,
                    ..OpusConfig::electrical()
                },
            );
            black_box(sim.run().steady_state_iteration_time())
        })
    });
    group.bench_function("optical_provisioned_25ms_2iters", |b| {
        b.iter(|| {
            let mut sim = OpusSimulator::new(
                cluster.clone(),
                dag.clone(),
                OpusConfig {
                    iterations: 2,
                    ..OpusConfig::provisioned(SimDuration::from_millis(25))
                },
            );
            black_box(sim.run().steady_state_iteration_time())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_iteration_sim);
criterion_main!(benches);
