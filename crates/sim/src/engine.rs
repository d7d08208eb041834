//! The discrete-event simulation driver.
//!
//! [`Engine`] owns an [`EventQueue`] plus the simulation clock. Callers drive the
//! simulation explicitly with [`Engine::pop`] (pull style) or [`Engine::run`] /
//! [`Engine::run_until`] (push style with a handler closure). The engine never runs
//! events "in the past": popping an event advances the clock to that event's timestamp,
//! and scheduling an event before the current time is a logic error that panics in
//! debug builds and is clamped to `now` in release builds.
//!
//! ## The same-instant lane
//!
//! Events are delivered in `(time, insertion sequence)` order. Most of a scenario's
//! events are scheduled at the current instant (a finished task readies its dependents
//! "now"), and sending each of them through the binary heap costs a push and a pop of
//! `O(log n)` sift work. So an event scheduled at exactly `now` skips the heap and goes
//! to a FIFO lane; [`Engine::pop`] serves, in this order,
//!
//! 1. heap events timestamped `now`,
//! 2. the lane,
//! 3. the heap (advancing the clock).
//!
//! This is exactly the `(time, seq)` order. Every lane event is timestamped `now`, and
//! the clock does not advance while the lane is non-empty, because step 3 runs only
//! once it is drained. A heap event timestamped `now` was scheduled while the clock was
//! still *before* `now` (at `now` it would have gone to the lane), so it was inserted
//! before every lane event and carries a smaller sequence number. Within the lane,
//! FIFO is insertion order, and the heap keeps its own `(time, seq)` order. A clamped
//! past event fires at `now` after everything already scheduled for `now`, in the lane,
//! just as a fresh heap entry at `now` would.

use crate::queue::{EventQueue, Scheduled};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A minimal deterministic discrete-event simulation engine.
///
/// `E` is the caller-defined event type. See the crate-level documentation for an
/// end-to-end example.
#[derive(Debug)]
pub struct Engine<E> {
    /// Events timestamped after `now`, plus those scheduled for `now` while the clock
    /// was still earlier.
    queue: EventQueue<E>,
    /// Events scheduled while the clock was already at `now`, in insertion order (see
    /// the module documentation for why this keeps the `(time, seq)` order).
    lane: VecDeque<E>,
    now: SimTime,
    processed: u64,
    clamped: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            lane: VecDeque::new(),
            now: SimTime::ZERO,
            processed: 0,
            clamped: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed_events(&self) -> u64 {
        self.processed
    }

    /// Number of events that were scheduled in the past and clamped to fire "now".
    ///
    /// Release builds clamp instead of panicking so the simulation makes progress, but
    /// a non-zero count means the caller's event logic violated causality; correctness
    /// guards (the scenario executor, the determinism suite) assert this stays zero.
    pub fn clamped_events(&self) -> u64 {
        self.clamped
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.lane.len()
    }

    /// True when no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.lane.is_empty()
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// Scheduling in the past is a logic error: it panics in debug builds; in release
    /// builds the event is clamped to fire "now" so the simulation still makes
    /// progress, and the clamp is counted in [`Engine::clamped_events`] so callers can
    /// assert it never happened.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled an event in the past: at={at} now={}",
            self.now
        );
        if at < self.now {
            self.clamped += 1;
        }
        self.push(at.max(self.now), event);
    }

    /// Schedules `event` to fire `after` the current simulated time.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) {
        self.push(self.now.saturating_add(after), event);
    }

    /// Schedules `event` to fire immediately (at the current simulated time), after all
    /// events already scheduled for this instant.
    pub fn schedule_now(&mut self, event: E) {
        self.lane.push_back(event);
    }

    /// Routes an event at `at >= now` to the lane or the heap.
    fn push(&mut self, at: SimTime, event: E) {
        if at == self.now {
            self.lane.push_back(event);
        } else {
            self.queue.push(at, event);
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Heap events at `now` precede the lane; see the module documentation.
        let event = if !self.lane.is_empty() && self.queue.peek_time() != Some(self.now) {
            self.lane.pop_front()?
        } else {
            let Scheduled { time, event, .. } = self.queue.pop()?;
            self.now = time;
            event
        };
        self.processed += 1;
        Some((self.now, event))
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane.is_empty() {
            self.queue.peek_time()
        } else {
            Some(self.now)
        }
    }

    /// Runs the simulation to completion, invoking `handler` for every event.
    ///
    /// The handler receives `&mut Engine` so it can schedule follow-up events.
    /// Returns the final simulated time.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Engine<E>, SimTime, E)) -> SimTime {
        while let Some((time, event)) = self.pop() {
            handler(self, time, event);
        }
        self.now
    }

    /// Runs the simulation until the clock would pass `deadline` (exclusive) or the
    /// queue drains, whichever comes first. Events at exactly `deadline` are *not*
    /// processed. Returns the final simulated time.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut handler: impl FnMut(&mut Engine<E>, SimTime, E),
    ) -> SimTime {
        while let Some(next) = self.peek_time() {
            if next >= deadline {
                break;
            }
            let (time, event) = self.pop().expect("peeked event must exist");
            handler(self, time, event);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[test]
    fn run_processes_cascading_events() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(1), Ev::Tick(0));
        let mut ticks = Vec::new();
        engine.run(|eng, _t, ev| {
            if let Ev::Tick(n) = ev {
                ticks.push(n);
                if n < 4 {
                    eng.schedule_after(SimDuration::from_millis(2), Ev::Tick(n + 1));
                } else {
                    eng.schedule_now(Ev::Stop);
                }
            }
        });
        assert_eq!(ticks, vec![0, 1, 2, 3, 4]);
        // 1ms + 4 * 2ms = 9ms final time.
        assert_eq!(engine.now(), SimTime::from_millis(9));
        assert_eq!(engine.processed_events(), 6);
    }

    #[test]
    fn run_until_stops_before_deadline() {
        let mut engine = Engine::new();
        for i in 0..10u64 {
            engine.schedule_at(SimTime::from_millis(i), i);
        }
        let mut seen = Vec::new();
        engine.run_until(SimTime::from_millis(5), |_eng, _t, ev| seen.push(ev));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(engine.pending_events(), 5);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(10), "late");
        engine.schedule_at(SimTime::from_millis(2), "early");
        let (t1, _) = engine.pop().unwrap();
        let (t2, _) = engine.pop().unwrap();
        assert!(t2 >= t1);
        assert_eq!(engine.now(), SimTime::from_millis(10));
        assert!(engine.is_idle());
    }

    #[test]
    fn lane_events_count_as_pending_and_peek_at_now() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(3), 0u32);
        engine.pop();
        assert!(engine.is_idle());
        assert_eq!(engine.peek_time(), None);
        engine.schedule_at(SimTime::from_millis(8), 1);
        engine.schedule_now(2);
        engine.schedule_after(SimDuration::ZERO, 3);
        assert_eq!(engine.pending_events(), 3);
        assert!(!engine.is_idle());
        assert_eq!(engine.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(engine.pop(), Some((SimTime::from_millis(3), 2)));
        assert_eq!(engine.pop(), Some((SimTime::from_millis(3), 3)));
        assert_eq!(engine.peek_time(), Some(SimTime::from_millis(8)));
        assert_eq!(engine.pending_events(), 1);
        assert_eq!(engine.pop(), Some((SimTime::from_millis(8), 1)));
        assert!(engine.is_idle());
        assert_eq!(engine.processed_events(), 4);
    }

    #[test]
    fn heap_events_at_now_precede_lane_events() {
        let mut engine = Engine::new();
        let t = SimTime::from_millis(5);
        engine.schedule_at(t, "heap-a");
        engine.schedule_at(t, "heap-b");
        assert_eq!(engine.pop(), Some((t, "heap-a")));
        // Scheduled at `now` after "heap-b" was queued, so it must fire after it.
        engine.schedule_now("lane");
        assert_eq!(engine.peek_time(), Some(t));
        assert_eq!(engine.pop(), Some((t, "heap-b")));
        assert_eq!(engine.pop(), Some((t, "lane")));
        assert_eq!(engine.pop(), None);
    }

    #[test]
    fn run_until_drains_lane_before_deadline_and_keeps_it_at_deadline() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(2), 0u32);
        engine.schedule_at(SimTime::from_millis(5), 10);
        let mut seen = Vec::new();
        engine.run_until(SimTime::from_millis(5), |eng, _t, ev| {
            seen.push(ev);
            if ev < 3 {
                eng.schedule_now(ev + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(engine.now(), SimTime::from_millis(2));
        assert_eq!(engine.pending_events(), 1);

        // Lane events at exactly the deadline stay pending.
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(4), 0u32);
        engine.pop();
        engine.schedule_now(1);
        engine.run_until(SimTime::from_millis(4), |_, _, _| panic!("at the deadline"));
        assert_eq!(engine.pending_events(), 1);
        assert_eq!(engine.peek_time(), Some(SimTime::from_millis(4)));
    }

    #[test]
    #[should_panic(expected = "scheduled an event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(10), ());
        engine.pop();
        engine.schedule_at(SimTime::from_millis(1), ());
    }

    #[test]
    fn well_behaved_schedules_never_clamp() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(1), 1u32);
        engine.schedule_after(SimDuration::from_millis(2), 2);
        engine.run(|_, _, _| {});
        assert_eq!(engine.clamped_events(), 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_is_clamped_and_counted_in_release() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_millis(10), 0u32);
        engine.pop();
        engine.schedule_at(SimTime::from_millis(1), 1);
        assert_eq!(engine.clamped_events(), 1);
        let (t, _) = engine.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(10), "clamped to now, not the past");
    }
}
