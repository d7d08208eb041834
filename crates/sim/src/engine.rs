//! The discrete-event simulation driver.
//!
//! [`Engine`] owns an [`EventQueue`] plus the simulation clock. Callers drive the
//! simulation explicitly with [`Engine::pop`] (pull style) or [`Engine::run`] /
//! [`Engine::run_until`] (push style with a handler closure). The engine never runs
//! events "in the past": popping an event advances the clock to that event's timestamp,
//! and scheduling an event before the current time is a logic error that panics in
//! debug builds and is clamped to `now` in release builds.

use crate::queue::{EventQueue, Scheduled};
use crate::time::{SimDuration, SimTime};

/// A minimal deterministic discrete-event simulation engine.
///
/// `E` is the caller-defined event type. See the crate-level documentation for an
/// end-to-end example.
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
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
        self.queue.len()
    }

    /// True when no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
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
        let at = at.max(self.now);
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire `after` the current simulated time.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) {
        let at = self.now.saturating_add(after);
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire immediately (at the current simulated time), after all
    /// events already scheduled for this instant.
    pub fn schedule_now(&mut self, event: E) {
        self.queue.push(self.now, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Scheduled { time, event, .. } = self.queue.pop()?;
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
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
