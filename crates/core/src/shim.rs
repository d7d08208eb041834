//! The Opus shim runtime.
//!
//! The shim sits between the application (the ML framework's collective launch sites)
//! and the collective communication library (Fig. 6). It has two jobs:
//!
//! 1. **Profiling** — during the first training iteration it records, per rank, the
//!    sequence of communication groups the application used. Because collective order
//!    is dictated by the model's execution DAG, this sequence repeats every iteration.
//! 2. **Prediction / provisioning** — in later iterations the shim knows which group
//!    comes next on each rank. Whenever the upcoming group differs from the one whose
//!    circuits are currently installed, it issues a *speculative* reconfiguration
//!    request as soon as the previous communication finishes, so the switching delay
//!    overlaps the inter-parallelism window instead of the critical path (Fig. 5b).

use railsim_collectives::GroupId;
use railsim_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The per-rank communication profile captured during the first iteration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShimProfile {
    sequences: HashMap<GpuId, Vec<GroupId>>,
    complete: bool,
}

impl ShimProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `rank` issued a communication on `group` (profiling iteration).
    pub fn record(&mut self, rank: GpuId, group: GroupId) {
        assert!(!self.complete, "cannot record into a completed profile");
        self.sequences.entry(rank).or_default().push(group);
    }

    /// Marks the profiling iteration as finished.
    pub fn finish(&mut self) {
        self.complete = true;
    }

    /// True when the profiling iteration has completed.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The recorded sequence of a rank.
    pub fn sequence(&self, rank: GpuId) -> &[GroupId] {
        self.sequences
            .get(&rank)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The number of communication operations rank issued during profiling.
    pub fn len(&self, rank: GpuId) -> usize {
        self.sequence(rank).len()
    }

    /// True when nothing has been recorded for any rank.
    pub fn is_empty(&self) -> bool {
        self.sequences.values().all(|v| v.is_empty())
    }

    /// The next *different* group after `position` in the rank's sequence — i.e. the
    /// next parallelism shift the shim should provision for. Returns `None` when the
    /// remainder of the iteration stays on the same group.
    pub fn next_shift_after(&self, rank: GpuId, position: usize) -> Option<GroupId> {
        let seq = self.sequence(rank);
        let current = *seq.get(position)?;
        seq[position + 1..].iter().copied().find(|&g| g != current)
    }

    /// Number of parallelism shifts (consecutive operations on different groups) in the
    /// rank's profile. Each shift is a potential reconfiguration and is preceded by a
    /// window the controller can hide the switching delay in.
    pub fn shift_count(&self, rank: GpuId) -> usize {
        let seq = self.sequence(rank);
        seq.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// The Opus shim: profile plus the reconfiguration decisions derived from it.
#[derive(Debug, Clone, Default)]
pub struct OpusShim {
    profile: ShimProfile,
}

impl OpusShim {
    /// Creates a shim with an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow the profile.
    pub fn profile(&self) -> &ShimProfile {
        &self.profile
    }

    /// Intercepts a collective call from the application during the profiling
    /// iteration.
    pub fn observe(&mut self, rank: GpuId, group: GroupId) {
        if !self.profile.is_complete() {
            self.profile.record(rank, group);
        }
    }

    /// Ends the profiling iteration.
    pub fn finish_profiling(&mut self) {
        self.profile.finish();
    }

    /// Whether a reconfiguration request is needed when traffic moves from
    /// `current_group` (whose circuits are installed) to `next_group`.
    /// The shim only requests reconfiguration when the demand matrix actually changes
    /// (paper Objective 2: minimize reconfiguration frequency).
    pub fn needs_reconfiguration(current_group: Option<GroupId>, next_group: GroupId) -> bool {
        current_group != Some(next_group)
    }

    /// Whether speculative (provisioned) requests can be issued: only once the profile
    /// is complete, i.e. from the second iteration onward.
    pub fn can_provision(&self) -> bool {
        self.profile.is_complete() && !self.profile.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(i: u32) -> GpuId {
        GpuId(i)
    }

    #[test]
    fn profile_records_in_order() {
        let mut shim = OpusShim::new();
        shim.observe(gpu(0), GroupId(1));
        shim.observe(gpu(0), GroupId(1));
        shim.observe(gpu(0), GroupId(2));
        shim.observe(gpu(1), GroupId(3));
        assert_eq!(
            shim.profile().sequence(gpu(0)),
            &[GroupId(1), GroupId(1), GroupId(2)]
        );
        assert_eq!(shim.profile().len(gpu(1)), 1);
        assert_eq!(shim.profile().len(gpu(2)), 0);
    }

    #[test]
    fn next_shift_skips_repeats_of_the_same_group() {
        let mut p = ShimProfile::new();
        for g in [1, 1, 1, 2, 2, 1] {
            p.record(gpu(0), GroupId(g));
        }
        assert_eq!(p.next_shift_after(gpu(0), 0), Some(GroupId(2)));
        assert_eq!(p.next_shift_after(gpu(0), 3), Some(GroupId(1)));
        assert_eq!(p.next_shift_after(gpu(0), 5), None);
        assert_eq!(p.shift_count(gpu(0)), 2);
    }

    #[test]
    fn observation_stops_after_profiling() {
        let mut shim = OpusShim::new();
        shim.observe(gpu(0), GroupId(1));
        shim.finish_profiling();
        shim.observe(gpu(0), GroupId(2));
        assert_eq!(
            shim.profile().len(gpu(0)),
            1,
            "post-profiling calls are not recorded"
        );
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
        shim2.observe(gpu(0), GroupId(1));
        assert!(!shim2.can_provision());
        shim2.finish_profiling();
        assert!(shim2.can_provision());
    }

    #[test]
    fn reconfiguration_only_on_demand_matrix_change() {
        assert!(OpusShim::needs_reconfiguration(None, GroupId(1)));
        assert!(OpusShim::needs_reconfiguration(
            Some(GroupId(1)),
            GroupId(2)
        ));
        assert!(!OpusShim::needs_reconfiguration(
            Some(GroupId(2)),
            GroupId(2)
        ));
    }

    #[test]
    #[should_panic(expected = "completed profile")]
    fn recording_into_finished_profile_panics() {
        let mut p = ShimProfile::new();
        p.finish();
        p.record(gpu(0), GroupId(0));
    }
}
