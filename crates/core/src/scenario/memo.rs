//! Steady-state iteration memoization: the per-job memo state and the
//! fast-forward that replays a detected steady iteration.

#[cfg(doc)]
use super::ScenarioEvent;
use super::{ScenarioSim, SimEvent};
#[cfg(doc)]
use crate::config::OpusConfig;
use crate::metrics::{CommRecord, IterationResult, ReconfigEvent};
use railsim_sim::{Engine, SimDuration, SimTime};

/// Steady-state iteration memoization state of one job.
///
/// ## Detection
///
/// After each naively stepped iteration the driver compares it with its predecessor
/// via [`IterationResult::shifted_replay_of`] — an exact comparison of the committed
/// timelines, made meaningful by the engine's byte-determinism: same records, same
/// circuit waits, same reconfiguration pattern, all timestamps moved by one constant
/// offset (the controller's request-counter deltas must repeat too). Two such
/// iterations pin *everything* time-varying: compute durations are constant (the
/// jitter RNG must be inert, see [`OpusConfig::jitter_inert`]), the circuit cycle is
/// periodic (a provisioned run re-walks the same reconfiguration sequence every
/// iteration; a reconfiguration-free run trivially so), and any absolute controller
/// state (port occupancy, OCS ready times) either shifted along or was already
/// dominated by the advancing clock — so every later unperturbed iteration is the
/// same iteration shifted again. Each fast-forward replays the template's
/// controller-side effects at shifted times (port occupancy, circuit installs,
/// request counters), so the shared state a later naive iteration reads is exactly
/// what re-stepping would have left.
///
/// ## Invalidation
///
/// Every applied [`ScenarioEvent`] clears the template *and* forbids detection pairs
/// that straddle the perturbed iteration (`min_pair`), because an iteration that ran
/// under a changing fabric proves nothing about the post-change steady state. A
/// fast-forward is only scheduled when the next unapplied injection lies strictly
/// beyond the replayed window, so rail-flap timelines degrade to naive stepping
/// around the fault and re-memoize on fresh evidence afterwards. Multi-job scenarios
/// disable memoization outright (`enabled`): jobs share the fabric, so one job's
/// iterations alone cannot witness steady state.
pub(super) struct MemoState {
    /// Structurally allowed for this job: the config knob is on, the jitter RNG is
    /// inert, and the scenario runs a single job.
    pub(super) enabled: bool,
    /// Index into `completed` of the detected steady-state template iteration.
    pub(super) template: Option<usize>,
    /// Controller request counters `(requests, noop_requests)` at the end of the
    /// last committed iteration, for measuring per-iteration deltas.
    pub(super) counters_at_finish: (u64, u64),
    /// The counter delta of the most recently committed iteration.
    pub(super) last_delta: Option<(u64, u64)>,
    /// The counter delta of one steady iteration, replayed in bulk per fast-forward.
    pub(super) template_delta: (u64, u64),
    /// Per template reconfiguration event: the `circuit_pool` slot whose circuits the
    /// event installed, so the replay can re-perform the install without a search.
    pub(super) template_slots: Vec<u32>,
    /// Per `circuit_pool` slot that carried scale-out traffic in the template: the
    /// latest end of those transfers, relative to the template's start. Occupancy is
    /// a max-merge, so occupying each slot once at this end, shifted, leaves the same
    /// port state as occupying it at every record's end.
    pub(super) template_occupancy: Vec<(u32, SimDuration)>,
    /// Earliest iteration index admissible as the *first* member of a detection
    /// pair. Starts at 1 (iteration 0 profiles: the shim observes, provisioning is
    /// still off) and moves past every iteration perturbed by an injection.
    pub(super) min_pair: u32,
    /// Iterations replayed from the memo instead of re-stepped (observability only;
    /// never serialized, so golden pins are unaffected).
    pub(super) fast_forwarded: u64,
}

impl ScenarioSim {
    /// Schedules job `j`'s next iteration as a memoized fast-forward when a
    /// steady-state template exists and the replayed window `(at, at + period]` is
    /// provably free of external events. Returns false when the iteration must be
    /// stepped naively.
    pub(super) fn try_fast_forward(
        &mut self,
        j: usize,
        at: SimTime,
        engine: &mut Engine<SimEvent>,
    ) -> bool {
        let ctx = &self.jobs[j];
        let Some(template) = ctx.memo.template else {
            return false;
        };
        let predicted_end = at + ctx.completed[template].iteration_time;
        // Injections apply in timeline order, so the next unapplied one is the
        // earliest. It must lie *strictly* beyond the predicted end: an external at
        // exactly that time would commit before the replay event (externals carry
        // the lowest sequence numbers) and could perturb same-instant task events
        // the template baked in.
        if let Some(next) = self.injections.get(self.fleet.injections_applied) {
            if next.at <= predicted_end {
                return false;
            }
        }
        self.jobs[j].iter_start = at;
        engine.schedule_at(predicted_end, SimEvent::FastForward(j as u16));
        true
    }

    /// Commits one memoized fast-forward: emits the template iteration shifted to
    /// start at the job's `iter_start`, replays the controller-side effects a naive
    /// re-step would have had (port occupancy, request counters), and schedules the
    /// next iteration (fast-forwarded again, or naively when an injection comes into
    /// range). By the steady-state argument on [`MemoState`] the emitted result is
    /// byte-identical to naive stepping — the determinism suites pin this.
    pub(super) fn commit_fast_forward(
        &mut self,
        j: usize,
        now: SimTime,
        engine: &mut Engine<SimEvent>,
    ) {
        let ScenarioSim { jobs, fleet, .. } = self;
        let ctx = &mut jobs[j];
        let template = ctx
            .memo
            .template
            .expect("a scheduled fast-forward has a template");
        let template = &ctx.completed[template];
        let shift = ctx.iter_start.duration_since(template.started_at);
        debug_assert_eq!(
            now,
            ctx.iter_start + template.iteration_time,
            "a fast-forward commits exactly at its predicted iteration end"
        );
        let comm_records: Vec<CommRecord> = template
            .comm_records
            .iter()
            .map(|r| {
                let mut rec = r.clone();
                rec.issued_at += shift;
                rec.start += shift;
                rec.end += shift;
                rec
            })
            .collect();
        let reconfig_events: Vec<ReconfigEvent> = template
            .reconfig_events
            .iter()
            .map(|ev| {
                let mut ev = *ev;
                ev.requested_at += shift;
                ev.started_at += shift;
                ev.ready_at += shift;
                ev
            })
            .collect();
        let iteration_time = template.iteration_time;
        let total_circuit_wait = template.total_circuit_wait;
        // Replay the controller-side state the re-stepped iteration would have left
        // behind; it matters the moment an injection later breaks steadiness and the
        // stateful request path resumes reading shared state. Port occupancy is a
        // max-merge and the shift is uniform, so occupying each slot once at its
        // latest shifted transfer end lands on exactly the per-event result. Each
        // logged reconfiguration is re-performed against the fabric at its shifted
        // start (the conflict wait is baked into `started_at`), advancing the matching
        // cycle, per-circuit ready times, epoch and lifetime counters exactly as the
        // naive iteration would have. Request counters move by the template's
        // measured delta.
        if let Some(controller) = fleet.controller.as_deref_mut() {
            for (ev, &slot) in reconfig_events.iter().zip(&ctx.memo.template_slots) {
                let config = &ctx.circuit_pool[slot as usize].circuits.per_rail[&ev.rail];
                let ready = controller.replay_install(ev.rail, config, ev.started_at);
                debug_assert_eq!(
                    ready, ev.ready_at,
                    "a replayed install must land on the template's ready time"
                );
            }
            for &(slot, end) in &ctx.memo.template_occupancy {
                let slot = &ctx.circuit_pool[slot as usize];
                controller.occupy(ctx.job.0, &slot.circuits, ctx.iter_start + end);
            }
            let (requests, noops) = ctx.memo.template_delta;
            controller.replay_requests(requests, noops);
            ctx.memo.counters_at_finish = (controller.requests(), controller.noop_requests());
        }
        ctx.completed.push(IterationResult {
            iteration: ctx.iteration,
            iteration_time,
            started_at: ctx.iter_start,
            comm_records,
            reconfig_events,
            total_circuit_wait,
        });
        ctx.memo.fast_forwarded += 1;
        // A fast-forward replays a steady iteration under whatever plan was live when
        // the template was recorded; swaps invalidate the memo, so the degraded state
        // is constant across the whole replayed window.
        if ctx.degraded_slots > 0 {
            ctx.degraded_iterations += 1;
        }
        ctx.iteration += 1;
        if ctx.iteration < ctx.config.iterations && !self.try_fast_forward(j, now, engine) {
            self.start_iteration(j, now, engine);
        }
    }
}
