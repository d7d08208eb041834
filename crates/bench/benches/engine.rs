//! Micro-benchmark: throughput of the discrete-event engine (event queue push/pop),
//! the substrate every simulation in the workspace runs on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use railsim_sim::{Engine, EventQueue, SimDuration, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                // Pseudo-random but deterministic times exercise heap reordering.
                let t = (i * 2_654_435_761) % 1_000_000;
                q.push(SimTime::from_nanos(t), i);
            }
            let mut total = 0u64;
            while let Some(ev) = q.pop() {
                total = total.wrapping_add(black_box(ev.event));
            }
            total
        })
    });
}

fn bench_engine_cascade(c: &mut Criterion) {
    c.bench_function("engine_cascading_events_100k", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            engine.schedule_at(SimTime::ZERO, 0);
            let mut count = 0u64;
            engine.run(|eng, _t, ev| {
                count += 1;
                if ev < 100_000 {
                    eng.schedule_after(SimDuration::from_nanos(10), ev + 1);
                }
            });
            black_box(count)
        })
    });
}

fn bench_engine_same_instant_fanout(c: &mut Criterion) {
    // The Done -> Ready shape of a scenario step: each "done" event readies four
    // dependents at the same instant, and each ready task schedules its own "done" a
    // few nanoseconds later, so half of the events go through the same-instant lane.
    c.bench_function("engine_same_instant_fanout_100k", |b| {
        b.iter(|| {
            let mut engine: Engine<(bool, u64)> = Engine::new();
            engine.schedule_at(SimTime::ZERO, (true, 0));
            let mut count = 0u64;
            let mut next = 1u64;
            engine.run(|eng, _t, (done, id)| {
                count += 1;
                if done {
                    for _ in 0..4 {
                        if next < 100_000 {
                            eng.schedule_now((false, next));
                            next += 1;
                        }
                    }
                } else {
                    eng.schedule_after(SimDuration::from_nanos(10 + id % 7), (true, id));
                }
            });
            black_box(count)
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_engine_cascade,
    bench_engine_same_instant_fanout
);
criterion_main!(benches);
