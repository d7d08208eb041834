//! The Opus shim runtime.
//!
//! The shim sits between the application (the ML framework's collective launch sites)
//! and the collective communication library (Fig. 6). It has two jobs:
//!
//! 1. **Profiling** — during the first training iteration it intercepts the
//!    application's collectives. Because collective order is dictated by the model's
//!    execution DAG, the sequence of communication groups repeats every iteration.
//! 2. **Prediction / provisioning** — in later iterations the shim knows which group
//!    comes next on each rank. Whenever the upcoming group differs from the one whose
//!    circuits are currently installed, it issues a *speculative* reconfiguration
//!    request as soon as the previous communication finishes, so the switching delay
//!    overlaps the inter-parallelism window instead of the critical path (Fig. 5b).
//!
//! In the simulator the per-rank group sequence is the DAG itself, which every
//! iteration replays, so the shim keeps only the one fact provisioning depends on:
//! whether the profiling iteration finished and saw any traffic on the rails.

/// The Opus shim: the outcome of the profiling iteration.
#[derive(Debug, Clone, Default)]
pub struct OpusShim {
    /// The profiling iteration has finished.
    profiled: bool,
    /// The profiling iteration intercepted at least one scale-out call on the rails.
    saw_rail_traffic: bool,
}

impl OpusShim {
    /// Creates a shim that has not profiled anything yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intercepts a scale-out collective call on the rails. Only calls made during
    /// the profiling iteration count.
    pub fn observe_rail_traffic(&mut self) {
        if !self.profiled {
            self.saw_rail_traffic = true;
        }
    }

    /// Ends the profiling iteration.
    pub fn finish_profiling(&mut self) {
        self.profiled = true;
    }

    /// Whether speculative (provisioned) requests can be issued: only once profiling
    /// is done, i.e. from the second iteration onward, and only when it saw rail
    /// traffic to provision for.
    pub fn can_provision(&self) -> bool {
        self.profiled && self.saw_rail_traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_stops_after_profiling() {
        let mut shim = OpusShim::new();
        shim.finish_profiling();
        shim.observe_rail_traffic();
        assert!(
            !shim.can_provision(),
            "post-profiling calls are not recorded"
        );
        let mut shim = OpusShim::new();
        shim.observe_rail_traffic();
        shim.finish_profiling();
        shim.observe_rail_traffic();
        assert!(shim.can_provision());
    }

    #[test]
    fn provisioning_requires_a_complete_nonempty_profile() {
        let mut shim = OpusShim::new();
        assert!(!shim.can_provision());
        shim.finish_profiling();
        assert!(
            !shim.can_provision(),
            "an empty profile cannot drive provisioning"
        );
        let mut shim2 = OpusShim::new();
        shim2.observe_rail_traffic();
        assert!(!shim2.can_provision());
        shim2.finish_profiling();
        assert!(shim2.can_provision());
    }
}
