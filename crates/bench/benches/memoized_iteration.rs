//! Macro-benchmark of steady-state iteration memoization: a many-iteration
//! jitter-free run with fast-forwarding on versus the naive path that re-steps every
//! iteration. The pair quantifies the speedup the memo buys on iterations 2..N
//! (byte-identity between the two paths is pinned by the determinism and compat
//! suites; this tracks the wall-clock side of the bargain).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::{OpusConfig, OpusSimulator};
use railsim_bench::{paper_cluster, paper_dag};
use railsim_sim::SimDuration;

const ITERATIONS: u32 = 16;

fn bench_memoized_iteration(c: &mut Criterion) {
    let cluster = paper_cluster();
    let dag = paper_dag();
    let config = OpusConfig {
        iterations: ITERATIONS,
        compute_jitter: 0.0,
        seed: 1,
        ..OpusConfig::provisioned(SimDuration::from_millis(25))
    };

    let mut group = c.benchmark_group("memoized_iteration");
    group.sample_size(20);
    group.bench_function("memoized_16_iters", |b| {
        b.iter(|| {
            let mut sim = OpusSimulator::new(cluster.clone(), dag.clone(), config);
            let result = sim.run();
            assert!(
                sim.memoized_iterations() > 0,
                "the memo must engage on the jitter-free bench workload"
            );
            black_box(result.steady_state_iteration_time())
        })
    });
    group.bench_function("naive_16_iters", |b| {
        b.iter(|| {
            let mut sim = OpusSimulator::new(
                cluster.clone(),
                dag.clone(),
                OpusConfig {
                    memoize_steady_state: false,
                    ..config
                },
            );
            black_box(sim.run().steady_state_iteration_time())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_memoized_iteration);
criterion_main!(benches);
