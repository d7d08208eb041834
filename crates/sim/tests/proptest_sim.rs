//! Property-based tests for the simulation substrate: time arithmetic, the event
//! queue's total order, the engine's clock monotonicity and the statistics helpers.

use proptest::prelude::*;
use railsim_sim::stats::{Cdf, Summary};
use railsim_sim::{Bandwidth, Bytes, Engine, EventQueue, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn duration_sum_is_order_independent(mut values in proptest::collection::vec(0u64..1_000_000_000u64, 1..50)) {
        let forward: SimDuration = values.iter().map(|&n| SimDuration::from_nanos(n)).sum();
        values.reverse();
        let backward: SimDuration = values.iter().map(|&n| SimDuration::from_nanos(n)).sum();
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn duration_display_roundtrips_magnitude(nanos in 1u64..10_000_000_000_000u64) {
        // Display never panics and always produces a unit suffix.
        let text = SimDuration::from_nanos(nanos).to_string();
        prop_assert!(text.ends_with("ns") || text.ends_with("us") || text.ends_with("ms") || text.ends_with('s'));
    }

    #[test]
    fn transfer_time_is_inverse_in_bandwidth(mb in 1u64..10_000, gbps in 1.0f64..1000.0) {
        let slow = Bandwidth::from_gbps(gbps);
        let fast = Bandwidth::from_gbps(gbps * 2.0);
        let bytes = Bytes::from_mb(mb);
        let t_slow = slow.transfer_time(bytes).as_secs_f64();
        let t_fast = fast.transfer_time(bytes).as_secs_f64();
        prop_assert!((t_slow / t_fast - 2.0).abs() < 1e-3);
    }

    #[test]
    fn engine_clock_never_goes_backwards(delays in proptest::collection::vec(0u64..1_000_000u64, 1..100)) {
        let mut engine: Engine<usize> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0usize;
        while let Some((t, _)) = engine.pop() {
            prop_assert!(t >= last);
            last = t;
            seen += 1;
        }
        prop_assert_eq!(seen, delays.len());
        prop_assert_eq!(engine.processed_events(), delays.len() as u64);
    }

    #[test]
    fn engine_lane_pops_in_event_queue_order(
        initial in proptest::collection::vec(0u64..50u64, 1..20),
        spawns in proptest::collection::vec((0u64..4u64, 0u64..3u64), 0..200),
    ) {
        // Each handled event spawns up to two children, all either at the same
        // instant (delay 0, the lane) or later (the heap). The reference delivers the
        // same schedule through a bare `EventQueue`, whose `(time, seq)` order is the
        // contract the engine's lane must keep.
        let spawn = |k: usize| spawns.get(k).copied();
        let mut engine: Engine<usize> = Engine::new();
        let mut reference: EventQueue<usize> = EventQueue::new();
        for (i, &t) in initial.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(t), i);
            reference.push(SimTime::from_nanos(t), i);
        }
        let mut next_id = initial.len();
        let mut got = Vec::new();
        let mut k = 0usize;
        engine.run(|eng, _t, ev| {
            got.push((eng.now(), ev));
            if let Some((delay, fanout)) = spawn(k) {
                for _ in 0..fanout {
                    eng.schedule_after(SimDuration::from_nanos(delay), next_id);
                    next_id += 1;
                }
            }
            k += 1;
        });
        let mut expected = Vec::new();
        let mut next_id = initial.len();
        let mut k = 0usize;
        while let Some(s) = reference.pop() {
            expected.push((s.time, s.event));
            if let Some((delay, fanout)) = spawn(k) {
                for _ in 0..fanout {
                    reference.push(s.time + SimDuration::from_nanos(delay), next_id);
                    next_id += 1;
                }
            }
            k += 1;
        }
        prop_assert_eq!(got, expected);
        prop_assert!(engine.is_idle());
        prop_assert_eq!(engine.clamped_events(), 0);
    }

    #[test]
    fn event_queue_len_tracks_pushes_and_pops(times in proptest::collection::vec(0u64..1_000u64, 0..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
            prop_assert_eq!(q.len(), i + 1);
        }
        for i in (0..times.len()).rev() {
            q.pop();
            prop_assert_eq!(q.len(), i);
        }
        prop_assert!(q.is_empty());
    }

    #[test]
    fn summary_mean_lies_between_min_and_max(samples in proptest::collection::vec(-1e9f64..1e9f64, 1..200)) {
        let s = Summary::from_samples(samples.iter().copied());
        let (min, max, mean) = (s.min().unwrap(), s.max().unwrap(), s.mean().unwrap());
        prop_assert!(min <= mean + 1e-9 && mean <= max + 1e-9);
        prop_assert!(s.percentile(0.0).unwrap() >= min - 1e-9);
        prop_assert!(s.percentile(100.0).unwrap() <= max + 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_bounded(samples in proptest::collection::vec(0f64..1e6f64, 1..200), probe in 0f64..1e6f64) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let f = cdf.fraction_at_or_below(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(cdf.fraction_at_or_below(probe + 1.0) >= f);
        prop_assert!((cdf.fraction_at_or_below(probe) + cdf.fraction_above(probe) - 1.0).abs() < 1e-12);
    }
}
