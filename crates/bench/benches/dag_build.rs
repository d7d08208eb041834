//! Micro-benchmark: building the Llama3-8B 3D-parallel training DAG (the workload
//! generator behind Fig. 2/3/4/8), at the paper testbed and at 1k GPUs (the
//! datacenter-scale shape of `table3_scalability`, ~90k tasks).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use railsim_bench::{paper_compute, paper_model, paper_parallelism, scaled_dag};
use railsim_workload::DagBuilder;

fn bench_dag_build(c: &mut Criterion) {
    c.bench_function("dag_build_llama3_8b_3d", |b| {
        b.iter(|| {
            let dag = DagBuilder::new(paper_model(), paper_parallelism(), paper_compute()).build();
            black_box(dag.len())
        })
    });

    c.bench_function("dag_build_scaled_1k", |b| {
        b.iter(|| black_box(scaled_dag(1024).len()))
    });

    c.bench_function("dag_topological_sort_llama3_8b_3d", |b| {
        let dag = DagBuilder::new(paper_model(), paper_parallelism(), paper_compute()).build();
        b.iter(|| black_box(dag.topological_order().expect("acyclic").len()))
    });
}

criterion_group!(benches, bench_dag_build);
criterion_main!(benches);
