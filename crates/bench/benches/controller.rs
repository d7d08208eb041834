//! Micro-benchmark: Opus controller request handling (circuit lookup, conflict check,
//! OCS programming) — the per-collective control-plane overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::{CircuitPlanner, OpusController};
use railsim_bench::paper_cluster;
use railsim_collectives::{CommGroup, GroupId, ParallelismAxis};
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{GpuId, OpticalRailFabric};

fn bench_controller(c: &mut Criterion) {
    let cluster = paper_cluster();
    let planner = CircuitPlanner::for_cluster(&cluster);
    // Two groups sharing GPU 0's port force a tear-down/set-up on every alternation.
    let dp = CommGroup::new(GroupId(0), ParallelismAxis::Data, vec![GpuId(0), GpuId(4)]);
    let pp = CommGroup::new(
        GroupId(1),
        ParallelismAxis::Pipeline,
        vec![GpuId(0), GpuId(8)],
    );
    let dp_circuits = planner.plan(&cluster, &dp);
    let pp_circuits = planner.plan(&cluster, &pp);

    c.bench_function("controller_alternating_requests_1k", |b| {
        b.iter(|| {
            let fabric = OpticalRailFabric::for_cluster(&cluster, SimDuration::from_millis(25));
            let mut controller = OpusController::new(fabric);
            let mut now = SimTime::ZERO;
            for i in 0..1000u64 {
                let (group, circuits) = if i % 2 == 0 {
                    (dp.id, &dp_circuits)
                } else {
                    (pp.id, &pp_circuits)
                };
                let ready = controller.request(0, group, circuits, now);
                controller.occupy(0, circuits, ready + SimDuration::from_millis(1));
                now = ready + SimDuration::from_millis(1);
            }
            black_box(controller.total_reconfigs())
        })
    });
}

criterion_group!(benches, bench_controller);
criterion_main!(benches);
