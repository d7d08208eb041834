//! The injected external-event timeline: applying events and re-planning
//! circuit demands around rail-health changes.

use super::{ScenarioEvent, ScenarioSim, SimEvent};
use crate::circuits::CircuitPlanner;
use crate::config::RecoveryPolicy;
use railsim_sim::{Engine, SimTime};
use railsim_topology::RailId;

/// One entry of the sorted injected timeline.
pub(super) struct Injection {
    pub(super) at: SimTime,
    pub(super) event: ScenarioEvent,
    /// For `RailDown`: the time of the next `RailUp` of the same rail in the
    /// timeline, precomputed so the health state can answer availability questions in
    /// closed form.
    pub(super) recover_at: Option<SimTime>,
}

impl ScenarioSim {
    /// Applies one injected external event at its committed time.
    pub(super) fn apply_injection(
        &mut self,
        idx: usize,
        now: SimTime,
        engine: &mut Engine<SimEvent>,
    ) {
        self.fleet.injections_applied += 1;
        // Every external event invalidates steady-state memos: the template was
        // recorded against the pre-event fabric, and the iteration the event landed
        // in ran under a *changing* fabric, so it may not seed a new detection pair
        // either. (A fast-forward in flight is impossible here — it is only
        // scheduled when this injection lies strictly beyond its window.)
        for ctx in &mut self.jobs {
            if ctx.memo.enabled {
                ctx.memo.template = None;
                ctx.memo.min_pair = ctx.iteration + 1;
            }
        }
        let Injection {
            event, recover_at, ..
        } = self.injections[idx];
        match event {
            ScenarioEvent::RailDown(rail) => {
                self.fleet.health.fail(rail, now, recover_at);
                if let Some(c) = self.fleet.backend.controller_mut() {
                    c.rail_failed(rail);
                }
                self.replan_after_health_change(now);
            }
            ScenarioEvent::RailUp(rail) => {
                // Overlapping outage pulses collapse into one outage, leaving the
                // later `RailUp` with nothing to close — `recover` asserts on that.
                if !self.fleet.health.is_up(rail) {
                    self.fleet.health.recover(rail, now);
                    self.replan_after_health_change(now);
                }
            }
            ScenarioEvent::OcsDegraded {
                rail,
                reconfig_latency,
            } => {
                if let Some(c) = self.fleet.backend.controller_mut() {
                    c.set_rail_reconfig_delay(rail, reconfig_latency);
                }
            }
            ScenarioEvent::JobArrival { job } => {
                let j = job.index();
                assert!(
                    self.jobs[j].arrives_via_event && self.jobs[j].iteration == 0,
                    "{job} arrived twice"
                );
                self.start_iteration(j, now, engine);
            }
            ScenarioEvent::RequestBurst { job, requests } => {
                let j = job.index();
                let ctx = &mut self.jobs[j];
                for _ in 0..requests {
                    ctx.backlog.push_back(now);
                }
                // The first burst starts the job; a burst into an idle job resumes
                // it. A busy job just absorbed the burst into its backlog — its
                // in-flight iteration picks the requests up at its boundary.
                if !ctx.serving_started || ctx.serving_idle {
                    ctx.serving_started = true;
                    ctx.serving_idle = false;
                    self.start_iteration(j, now, engine);
                }
            }
            ScenarioEvent::JobGrow { job } => {
                let ctx = &mut self.jobs[job.index()];
                let max = ctx.serving.expect("build validated the target").replicas;
                ctx.pending_active = (ctx.pending_active + 1).min(max);
            }
            ScenarioEvent::JobShrink { job } => {
                let ctx = &mut self.jobs[job.index()];
                ctx.pending_active = ctx.pending_active.saturating_sub(1).max(1);
            }
        }
    }

    /// Re-plans every `RecoveryPolicy::Replan` job's circuit demands against the rail
    /// health that the just-committed injection left behind. Per slot, exactly one of
    /// four transitions applies: nothing (pristine plan, all its rails up), *degrade*
    /// (a rail under the pristine plan just failed: re-stripe its circuits onto
    /// surviving rails via [`CircuitPlanner::replan_degraded`]), *re-stripe* (already
    /// degraded and the healthy set changed again), or *restore* (every rail of the
    /// pristine plan is back). Swapped-out circuits are withdrawn from the fabric and
    /// the new plan is installed lazily by the group's next request, paying one
    /// reconfiguration delay. Everything here runs at injection commit time, so the
    /// swap is a deterministic function of the committed timeline.
    fn replan_after_health_change(&mut self, now: SimTime) {
        let ScenarioSim {
            cluster,
            jobs,
            fleet,
            ..
        } = self;
        if !jobs.iter().any(|c| {
            c.config.recovery_policy == RecoveryPolicy::Replan && c.config.policy.is_optical()
        }) {
            return;
        }
        let healthy: Vec<RailId> = fleet.health.healthy_rails().collect();
        let planner = CircuitPlanner::for_cluster(cluster);
        for ctx in jobs.iter_mut() {
            if ctx.config.recovery_policy != RecoveryPolicy::Replan
                || !ctx.config.policy.is_optical()
            {
                continue;
            }
            let mut swapped = false;
            for slot in &mut ctx.circuit_pool {
                let pristine_hit = slot
                    .pristine
                    .as_deref()
                    .unwrap_or(&slot.circuits)
                    .per_rail
                    .keys()
                    .any(|&r| !fleet.health.is_up(r));
                match (slot.pristine.is_some(), pristine_hit) {
                    // The live plan is pristine and every rail it needs is up.
                    (false, false) => {}
                    // A rail under the pristine plan failed: degrade. The failed
                    // rail's circuits are already gone (`rail_failed` cleared its
                    // OCS) and the surviving rails' circuits are reused verbatim, so
                    // nothing needs withdrawing; only the displaced circuits install
                    // on the group's next request.
                    (false, true) => {
                        let degraded =
                            planner.replan_degraded(cluster, &slot.circuits, healthy.clone());
                        // An empty degraded plan would masquerade as scale-up-only
                        // traffic; with no healthy rail to re-stripe onto, the group
                        // stalls exactly like today.
                        if degraded.is_scaleup_only() && !slot.circuits.is_scaleup_only() {
                            continue;
                        }
                        slot.pristine =
                            Some(Box::new(std::mem::replace(&mut slot.circuits, degraded)));
                        ctx.replan_reconfigs += 1;
                        swapped = true;
                    }
                    // Already degraded, and the healthy set changed again: re-stripe
                    // against the current survivors (the round-robin targets shift
                    // with the healthy list, so the plan may change even when the
                    // event hit a rail this group never used).
                    (true, true) => {
                        let pristine = slot.pristine.as_deref().expect("matched is_some");
                        let degraded = planner.replan_degraded(cluster, pristine, healthy.clone());
                        if degraded == slot.circuits {
                            continue;
                        }
                        if let Some(c) = fleet.backend.controller_mut() {
                            c.withdraw(&slot.circuits);
                        }
                        slot.circuits = degraded;
                        ctx.replan_reconfigs += 1;
                        swapped = true;
                    }
                    // Every rail of the pristine plan is back: restore it. The
                    // degraded circuits come down now; the pristine set reinstalls on
                    // the next request, paying the reconfiguration delay once.
                    (true, false) => {
                        if let Some(c) = fleet.backend.controller_mut() {
                            c.withdraw(&slot.circuits);
                        }
                        slot.circuits = *slot.pristine.take().expect("matched is_some");
                        ctx.replan_reconfigs += 1;
                        swapped = true;
                    }
                }
            }
            ctx.degraded_slots = ctx
                .circuit_pool
                .iter()
                .filter(|s| s.pristine.is_some())
                .count() as u32;
            if ctx.degraded_slots > 0 {
                if ctx.degraded_since.is_none() {
                    ctx.degraded_since = Some(now);
                }
            } else if let Some(since) = ctx.degraded_since.take() {
                ctx.time_under_degraded_plan = ctx
                    .time_under_degraded_plan
                    .saturating_add(now.duration_since(since));
            }
            if swapped {
                ctx.iter_degraded = true;
            }
        }
    }
}
