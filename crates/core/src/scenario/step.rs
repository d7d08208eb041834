//! Stepping a job: iteration start and finish, task and transfer execution, and
//! the fleet-wide shared fabric state every transfer goes through.

use super::{CircuitSlot, JobContext, ScenarioSim, SimEvent};
use crate::circuits::GroupCircuits;
use crate::config::OpusConfig;
use crate::controller::OpusController;
use crate::metrics::{CommRecord, IterationResult};
use railsim_collectives::cost::{collective_time, CostParams};
use railsim_collectives::{degraded_params, CollectiveKind, GroupId, ParallelismAxis};
use railsim_sim::{Engine, SimDuration, SimTime};
use railsim_topology::{Cluster, RailHealth, RailSet, ELECTRICAL_SWITCH_LATENCY};
use railsim_workload::{JobId, LabelId, TaskId, TaskKind};

impl CircuitSlot {
    /// The slot's effective scale-out cost parameters: while a degraded plan is live,
    /// bandwidth is derated by the ratio of live to pristine rail counts (the
    /// surviving rails carry the displaced traffic on top of their own).
    fn adjust_params(&self, params: CostParams) -> CostParams {
        match self.pristine.as_deref() {
            Some(p) => degraded_params(&params, p.per_rail.len(), self.circuits.per_rail.len()),
            None => params,
        }
    }
}

/// Sentinel for "no job" in the fleet's per-port tenant table.
pub(super) const NO_JOB: u32 = u32::MAX;

/// Fleet-wide shared state: the optical controller, rail health and the contention
/// counters.
pub(super) struct Fleet {
    /// The one controller (one OCS per rail) every optical job shares; `None` when
    /// no job runs an optical policy. Electrical jobs need no fabric state.
    pub(super) controller: Option<Box<OpusController>>,
    pub(super) health: RailHealth,
    /// True when the timeline contains rail failures (the per-transfer outage gate is
    /// skipped entirely otherwise, keeping clean runs byte-identical and free).
    pub(super) faults: bool,
    /// True when the scenario runs more than one job (enables tenant tracking).
    pub(super) multi_job: bool,
    /// Last job to transfer over each NIC port (dense index), for tenant-takeover
    /// accounting. Empty in single-job scenarios.
    pub(super) port_owner: Vec<u32>,
    pub(super) ports_per_gpu: u8,
    /// Per rail: the latest transfer end seen *per job* (a bounded small map, one
    /// entry per job that ever used the rail, linearly scanned). A single latest-end
    /// slot is not enough: when one job's long transfer holds the slot, overlaps of
    /// that same job's next transfers against *other* jobs' shorter in-flight
    /// transfers would go uncounted (three-way interleavings undercounted).
    pub(super) rail_last: Vec<Vec<(u32, SimTime)>>,
    pub(super) overlaps: Vec<u64>,
    pub(super) port_takeovers: u64,
    pub(super) injections_applied: usize,
}

impl Fleet {
    /// Accounts one scale-out transfer for the cross-job fleet counters: overlap
    /// detection and port-tenant takeovers. Only called in multi-job scenarios —
    /// with one job both counters are structurally zero, and the single-job path is
    /// the 100k-GPU perf-gated hot path, so it must not pay for fleet bookkeeping.
    /// (Per-rail busy time is summed from the committed records at collection time;
    /// see [`ScenarioSim::into_result`].)
    pub(super) fn note_transfer(
        &mut self,
        job: u32,
        circuits: &GroupCircuits,
        start: SimTime,
        end: SimTime,
    ) {
        for (&rail, config) in &circuits.per_rail {
            let i = rail.index();
            // An overlap is counted when any *other* job still had a transfer in
            // flight on the rail when this one started (at most once per transfer
            // per rail, like the pre-fix counter).
            let entries = &mut self.rail_last[i];
            if entries
                .iter()
                .any(|&(other, last_end)| other != job && start < last_end)
            {
                self.overlaps[i] += 1;
            }
            match entries.iter_mut().find(|(other, _)| *other == job) {
                Some(entry) => entry.1 = entry.1.max(end),
                None => entries.push((job, end)),
            }
            for circuit in config.circuits() {
                for port in [circuit.a(), circuit.b()] {
                    let slot = &mut self.port_owner[port.dense_index(self.ports_per_gpu)];
                    if *slot != NO_JOB && *slot != job {
                        self.port_takeovers += 1;
                    }
                    *slot = job;
                }
            }
        }
    }

    /// The earliest time at or after `now` when every rail `circuits` needs is up.
    /// Only called when the timeline contains failures.
    ///
    /// # Panics
    /// Panics when a needed rail is down with no scheduled recovery — the job could
    /// never finish, which makes the scenario unsatisfiable.
    fn outage_gate(
        &self,
        circuits: &GroupCircuits,
        now: SimTime,
        job: JobId,
        label: LabelId,
    ) -> SimTime {
        let mut gated = now;
        for &rail in circuits.per_rail.keys() {
            if let Some(avail) = self.health.available_from(rail) {
                assert!(
                    avail != SimTime::MAX,
                    "{job} task {label} needs {rail}, which failed with no scheduled \
                     recovery — the scenario timeline is unsatisfiable"
                );
                gated = gated.max(avail);
            }
        }
        gated
    }
}

impl ScenarioSim {
    /// Resets job `j`'s per-iteration state and schedules its root tasks at `at`.
    pub(super) fn start_iteration(&mut self, j: usize, at: SimTime, engine: &mut Engine<SimEvent>) {
        let ctx = &mut self.jobs[j];
        ctx.iter_start = at;
        ctx.iter_degraded = ctx.degraded_slots > 0;
        ctx.remaining.clear();
        ctx.remaining.extend_from_slice(&ctx.dep_counts);
        ctx.finish.fill(SimTime::ZERO);
        if ctx.serving.is_some() {
            // Snapshot the elastic size for this iteration and mask out every task
            // of a replica at or beyond it (replicas share no tasks, so a masked
            // replica is a closed subgraph — none of its tasks are reachable from
            // an unmasked root).
            ctx.active = ctx.pending_active;
            let active = ctx.active;
            ctx.done_left = ctx.task_replica.iter().filter(|&&r| r < active).count();
            debug_assert!(
                ctx.done_left > 0,
                "a serving iteration must run at least one replica"
            );
            for (i, &indegree) in ctx.dep_counts.iter().enumerate() {
                if indegree == 0 && ctx.task_replica[i] < active {
                    engine.schedule_at(at, SimEvent::Ready(j as u16, TaskId(i as u32)));
                }
            }
        } else {
            ctx.done_left = ctx.tasks.len();
            for (i, &indegree) in ctx.dep_counts.iter().enumerate() {
                if indegree == 0 {
                    engine.schedule_at(at, SimEvent::Ready(j as u16, TaskId(i as u32)));
                }
            }
        }
    }

    /// Finalizes job `j`'s just-completed iteration and starts the next one (or
    /// retires the job).
    pub(super) fn finish_iteration(&mut self, j: usize, engine: &mut Engine<SimEvent>) {
        let ScenarioSim { jobs, fleet, .. } = &mut *self;
        let ctx = &mut jobs[j];
        debug_assert!(
            ctx.remaining
                .iter()
                .enumerate()
                .all(|(i, &r)| r == 0
                    || (ctx.serving.is_some() && ctx.task_replica[i] >= ctx.active)),
            "every unmasked task must have executed"
        );
        let start = ctx.iter_start;
        let end = ctx.finish.iter().copied().max().unwrap_or(start).max(start);
        let mut comm_records = std::mem::take(&mut ctx.comm_records);
        comm_records.sort_by_key(|r| (r.issued_at, r.task));
        let result = IterationResult {
            iteration: ctx.iteration,
            iteration_time: end.duration_since(start),
            started_at: start,
            comm_records,
            reconfig_events: std::mem::take(&mut ctx.reconfig_events),
            total_circuit_wait: ctx.total_circuit_wait,
        };
        ctx.total_circuit_wait = SimDuration::ZERO;
        ctx.completed.push(result);
        if ctx.iter_degraded {
            ctx.degraded_iterations += 1;
        }
        if ctx.iteration == 0 {
            ctx.shim.finish_profiling();
        }
        ctx.iteration += 1;
        if let Some(spec) = ctx.serving {
            // Retire the oldest requests this iteration's active batch capacity
            // covers, then keep iterating while the backlog holds more — or go
            // idle until the next burst.
            let capacity = spec.batch_capacity as usize * ctx.active as usize;
            for _ in 0..capacity.min(ctx.backlog.len()) {
                let arrived = ctx.backlog.pop_front().expect("len checked");
                ctx.request_latencies.push(end.duration_since(arrived));
                ctx.requests_completed += 1;
            }
            if ctx.backlog.is_empty() {
                ctx.serving_idle = true;
            } else {
                self.start_iteration(j, end, engine);
            }
            return;
        }
        // Steady-state detection: an exact byte-comparison of the just-committed
        // timeline against its predecessor's, shifted by the iteration period, plus
        // a repeat of the controller's request-counter delta. Both members of the
        // pair must postdate the profiling iteration and the last applied injection
        // (`min_pair`); see [`MemoState`] for why a match makes every later
        // unperturbed iteration a shifted replay.
        if ctx.memo.enabled {
            let counters = fleet
                .controller
                .as_deref()
                .map_or((0, 0), |c| (c.requests(), c.noop_requests()));
            let delta = (
                counters.0 - ctx.memo.counters_at_finish.0,
                counters.1 - ctx.memo.counters_at_finish.1,
            );
            if ctx.memo.template.is_none() && ctx.completed.len() >= 2 {
                let m = ctx.completed.len() - 1;
                if (m - 1) as u32 >= ctx.memo.min_pair
                    && ctx.memo.last_delta == Some(delta)
                    && ctx.completed[m].shifted_replay_of(&ctx.completed[m - 1])
                {
                    // The replay re-performs the template's installs; resolve each
                    // event's circuits to its pool slot once, up front.
                    ctx.memo.template_slots = ctx.completed[m]
                        .reconfig_events
                        .iter()
                        .map(|ev| {
                            ctx.circuit_pool
                                .iter()
                                .position(|slot| slot.group == ev.group)
                                .expect("a logged reconfiguration names a pooled group")
                                as u32
                        })
                        .collect();
                    let template = &ctx.completed[m];
                    let mut latest: Vec<Option<SimDuration>> = vec![None; ctx.circuit_pool.len()];
                    for rec in &template.comm_records {
                        if rec.scaleout && !rec.rails.is_empty() {
                            let slot = ctx.task_circuit_slot[rec.task.0 as usize] as usize;
                            let end = rec.end.duration_since(template.started_at);
                            latest[slot] = latest[slot].max(Some(end));
                        }
                    }
                    ctx.memo.template_occupancy = latest
                        .into_iter()
                        .enumerate()
                        .filter_map(|(slot, end)| Some((slot as u32, end?)))
                        .collect();
                    ctx.memo.template = Some(m);
                    ctx.memo.template_delta = delta;
                }
            }
            ctx.memo.counters_at_finish = counters;
            ctx.memo.last_delta = Some(delta);
        }
        if ctx.iteration < ctx.config.iterations && !self.try_fast_forward(j, end, engine) {
            self.start_iteration(j, end, engine);
        }
    }

    /// The α–β cost parameters of a transfer class.
    fn comm_params(
        config: &OpusConfig,
        cluster: &Cluster,
        scaleout: bool,
        offloaded: bool,
    ) -> CostParams {
        if offloaded {
            let h = config.host_offload.expect("offloaded implies configured");
            CostParams::new(h.alpha, h.bandwidth)
        } else if scaleout {
            // The paper's Fig. 8 assumes equal bandwidth on electrical and optical
            // rails, so both policies see the full NIC bandwidth once connectivity
            // exists.
            CostParams::new(config.scaleout_alpha, cluster.spec().nic.total_bandwidth)
        } else {
            CostParams::new(config.scaleup_alpha, cluster.scaleup_bandwidth())
        }
    }

    /// Executes one task of one job that became ready at `now`; returns its end time
    /// and, for communication tasks, the record describing what happened.
    pub(super) fn execute_task(
        ctx: &mut JobContext,
        fleet: &mut Fleet,
        cluster: &Cluster,
        id: TaskId,
        now: SimTime,
    ) -> (SimTime, Option<CommRecord>) {
        // The label is a `Copy` handle, so taking it out of the table costs nothing —
        // the hot path never clones a label `String` per event.
        let kind = ctx.tasks.kind(id).clone();
        let label = ctx.tasks.label(id);
        match kind {
            TaskKind::Compute { duration } => {
                let jitter = ctx.rng.jitter(ctx.config.compute_jitter);
                (now + duration.mul_f64(jitter), None)
            }
            TaskKind::Collective {
                group,
                kind,
                axis,
                bytes,
            } => {
                let record = Self::execute_comm(
                    ctx,
                    fleet,
                    cluster,
                    id,
                    now,
                    kind,
                    axis,
                    bytes,
                    Some(group),
                    label,
                );
                (record.end, Some(record))
            }
            TaskKind::PointToPoint { axis, bytes, .. } => {
                let record = Self::execute_comm(
                    ctx,
                    fleet,
                    cluster,
                    id,
                    now,
                    CollectiveKind::SendRecv,
                    axis,
                    bytes,
                    None,
                    label,
                );
                (record.end, Some(record))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_comm(
        ctx: &mut JobContext,
        fleet: &mut Fleet,
        cluster: &Cluster,
        id: TaskId,
        now: SimTime,
        kind: CollectiveKind,
        axis: ParallelismAxis,
        bytes: railsim_sim::Bytes,
        group: Option<GroupId>,
        label: LabelId,
    ) -> CommRecord {
        let iteration = ctx.iteration;
        let config = &ctx.config;
        let slot = &ctx.circuit_pool[ctx.task_circuit_slot[id.0 as usize] as usize];
        let circuit_group = slot.group;
        let circuits = &slot.circuits;
        let group_size = if group.is_some() {
            slot.group_size as usize
        } else {
            2
        };
        let scaleout = !circuits.is_scaleup_only();
        // §5 extension: small, bursty collectives can bypass the optical rails and run
        // over the host packet-switched network instead of triggering reconfigurations.
        let offloaded = scaleout && config.host_offload.is_some_and(|h| bytes <= h.threshold);

        // The shim intercepts every scale-out call that uses the rails; the
        // profiling iteration tells it whether the job shifts rail traffic at all.
        if scaleout && !offloaded && iteration == 0 {
            ctx.shim.observe_rail_traffic();
        }

        let mut params = Self::comm_params(config, cluster, scaleout, offloaded);
        if scaleout && !offloaded {
            params = slot.adjust_params(params);
        }
        let duration = collective_time(kind, config.scaleout_algorithm, group_size, bytes, &params);

        // The outage gate: with rail failures in the timeline, a transfer that needs
        // a down rail cannot start (electrical) or install circuits (optical) before
        // the rail's scheduled recovery. Clean timelines skip the walk entirely.
        let gated = if fleet.faults && scaleout && !offloaded {
            fleet.outage_gate(circuits, now, ctx.job, label)
        } else {
            now
        };

        let optical = config.policy.is_optical();
        let (start, circuit_wait, datapath_latency) = if !optical {
            // Every scale-out transfer pays the switch datapath latency — offloaded
            // ones included (the host network also runs through packet switches;
            // this matches the pre-redesign simulator byte for byte). Only the
            // outage gate is rail-specific and skips offloaded traffic.
            let latency = if scaleout {
                ELECTRICAL_SWITCH_LATENCY
            } else {
                SimDuration::ZERO
            };
            if scaleout && !offloaded {
                (gated, gated.duration_since(now), latency)
            } else {
                (now, SimDuration::ZERO, latency)
            }
        } else {
            let controller = fleet
                .controller
                .as_deref_mut()
                .expect("optical job implies the shared controller");
            if !scaleout || offloaded {
                (now, SimDuration::ZERO, SimDuration::ZERO)
            } else if let Some(ready) = controller.installed_ready_time(circuits) {
                // The request is a no-op: the circuits are installed on every rail —
                // which also implies every needed rail is up, because a failure tears
                // its circuits down — so it resolves to `max(now, slowest circuit
                // ready)`, found by one O(group circuits) walk.
                controller.note_noop_request();
                let start = ready.max(now);
                (start, start.duration_since(now), SimDuration::ZERO)
            } else {
                // Not (fully) installed: the stateful reconfiguration path.
                let provisioned = config.provisioning_active(iteration) && ctx.shim.can_provision();
                let requested_at = if provisioned {
                    // Speculative request: issued as soon as the previous traffic
                    // on the affected circuits completed (Fig. 5b). Back-dating
                    // further than one reconfiguration latency buys nothing (the
                    // circuits would be ready before the collective is issued
                    // anyway) but would tear down the old circuits earlier than
                    // necessary, so the request time is clamped to
                    // `issue time − reconfiguration latency`.
                    let earliest_useful = SimTime::from_nanos(
                        now.as_nanos()
                            .saturating_sub(config.reconfig_latency.as_nanos()),
                    );
                    // Holds an active eviction policy would displace don't delay
                    // the speculative request.
                    controller
                        .ports_free_at(ctx.job.0, circuits)
                        .max(earliest_useful)
                } else {
                    now
                };
                // A failed rail refuses installs until recovery; the request (however
                // speculative) cannot start switching before the rail is back. With
                // every rail up `gated == now`, and the clamp must NOT apply — a
                // provisioned request is deliberately back-dated before `now`.
                let requested_at = if gated > now {
                    requested_at.max(gated)
                } else {
                    requested_at
                };
                let ready = controller.request(ctx.job.0, circuit_group, circuits, requested_at);
                let start = ready.max(now);
                (start, start.duration_since(now), SimDuration::ZERO)
            }
        };

        let start = start + datapath_latency;
        let end = start + duration;

        if scaleout && !offloaded {
            if optical {
                if let Some(controller) = fleet.controller.as_deref_mut() {
                    controller.occupy(ctx.job.0, circuits, end);
                }
            }
            if fleet.multi_job {
                fleet.note_transfer(ctx.job.0, circuits, start, end);
            }
        }

        CommRecord {
            task: id,
            label,
            axis,
            kind,
            group,
            bytes,
            scaleout,
            // Offloaded traffic never touches the rails, so it carries no rail list and
            // is invisible to the per-rail window/phase analysis — which is the point.
            rails: if offloaded {
                RailSet::EMPTY
            } else {
                circuits.rail_set()
            },
            issued_at: now,
            start,
            end,
            circuit_wait,
        }
    }
}
