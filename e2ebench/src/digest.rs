//! Output digests: FNV-1a over the public fields of each workload's result.
//!
//! The walk feeds every field as fixed-width little-endian integers, so a digest
//! changes exactly when a simulated value changes. It deliberately skips
//! serialization: rendering a 10k-GPU `ScenarioResult` through `serde_json` costs
//! tens of seconds and gigabytes of heap, which would swamp the run it checks.
//!
//! Counters that only say *how* a result was computed (memoized iteration counts)
//! are left out, so a memoized run and a naive run of the same inputs digest alike.

use opus::fleet::{Frontier, Percentiles, SweepReport, VariantResult};
use opus::{
    CommRecord, FleetMetrics, IterationResult, JobResult, ReconfigEvent, ScenarioResult,
    SimulationResult, Window,
};
use railsim_sim::{SimDuration, SimTime};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one integer (every field goes through here as 8 bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }

    fn comm(&mut self, r: &CommRecord) {
        self.u64(u64::from(r.task.0));
        self.u64(u64::from(r.label.raw()));
        self.u64(r.axis as u64);
        self.u64(r.kind as u64);
        self.u64(r.group.map_or(u64::MAX, |g| u64::from(g.0)));
        self.u64(r.bytes.as_u64());
        self.bool(r.scaleout);
        self.u64(r.rails.iter().fold(0u64, |bits, rail| bits | 1 << rail.0));
        self.time(r.issued_at);
        self.time(r.start);
        self.time(r.end);
        self.dur(r.circuit_wait);
    }

    fn reconfig(&mut self, e: &ReconfigEvent) {
        self.u64(u64::from(e.rail.0));
        self.u64(u64::from(e.group.0));
        self.time(e.requested_at);
        self.time(e.started_at);
        self.time(e.ready_at);
        self.len(e.circuits_installed);
    }

    fn iteration(&mut self, it: &IterationResult) {
        self.u64(u64::from(it.iteration));
        self.dur(it.iteration_time);
        self.time(it.started_at);
        self.dur(it.total_circuit_wait);
        self.len(it.comm_records.len());
        for r in &it.comm_records {
            self.comm(r);
        }
        self.len(it.reconfig_events.len());
        for e in &it.reconfig_events {
            self.reconfig(e);
        }
    }

    /// Feeds one job's per-iteration results.
    pub fn simulation(&mut self, result: &SimulationResult) {
        self.len(result.iterations.len());
        for it in &result.iterations {
            self.iteration(it);
        }
    }

    fn job(&mut self, job: &JobResult) {
        self.u64(u64::from(job.job.0));
        self.u64(u64::from(job.gpu_offset));
        self.u64(job.policy as u64);
        self.u64(u64::from(job.degraded_iterations));
        self.u64(job.replan_reconfigs);
        self.dur(job.time_under_degraded_plan);
        self.u64(job.evictions_suffered);
        self.u64(job.evictions_inflicted);
        self.f64(job.circuit_wait_share);
        self.u64(job.requests_completed);
        self.u64(job.p99_request_latency.map_or(u64::MAX, |d| d.as_nanos()));
        self.simulation(&job.result);
    }

    fn durs(&mut self, v: &[SimDuration]) {
        self.len(v.len());
        for &d in v {
            self.dur(d);
        }
    }

    fn counts(&mut self, v: &[u64]) {
        self.len(v.len());
        for &c in v {
            self.u64(c);
        }
    }

    fn fleet(&mut self, f: &FleetMetrics) {
        self.durs(&f.rail_busy);
        self.counts(&f.cross_job_rail_overlaps);
        self.u64(f.cross_job_port_takeovers);
        self.counts(&f.circuits_set_up_by_rail);
        self.counts(&f.circuits_torn_down_by_rail);
        self.counts(&f.circuits_evicted_by_rail);
        self.counts(&f.rail_failures);
        self.durs(&f.rail_downtime);
        self.len(f.injections_applied);
        self.time(f.makespan);
    }

    /// Feeds a whole scenario outcome: every job, then the fleet counters.
    pub fn scenario(&mut self, result: &ScenarioResult) {
        self.len(result.jobs.len());
        for job in &result.jobs {
            self.job(job);
        }
        self.fleet(&result.fleet);
    }

    /// Feeds the extracted inter-parallelism windows.
    pub fn windows(&mut self, windows: &[Window]) {
        self.len(windows.len());
        for w in windows {
            self.u64(u64::from(w.rail.0));
            self.u64(w.before as u64);
            self.u64(w.after as u64);
            self.time(w.opens);
            self.time(w.closes);
            self.dur(w.duration);
            self.u64(w.traffic_after.as_u64());
        }
    }

    fn variant(&mut self, v: &VariantResult) {
        self.len(v.variant);
        self.len(v.level);
        self.len(v.placement);
        self.len(v.trace);
        self.u64(v.seed);
        self.time(v.job_end);
        self.time(v.makespan);
        self.dur(v.circuit_wait);
        self.len(v.reconfigs);
        self.len(v.outages);
    }

    fn percentiles(&mut self, p: &Percentiles) {
        self.dur(p.p50);
        self.dur(p.p95);
        self.dur(p.p99);
    }

    fn frontier(&mut self, f: &Frontier) {
        self.len(f.levels.len());
        for l in &f.levels {
            self.str(&l.label);
            self.u64(l.policy as u64);
            self.u64(l.recovery as u64);
            self.dur(l.reconfig_latency);
            self.f64(l.capex_usd);
            self.f64(l.power_watts);
            self.f64(l.availability);
            self.percentiles(&l.makespan);
            self.percentiles(&l.circuit_wait);
            self.bool(l.pareto);
        }
    }

    /// Feeds a fleet sweep report: every variant row, then the frontier.
    pub fn sweep(&mut self, report: &SweepReport) {
        self.len(report.variants.len());
        for v in &report.variants {
            self.variant(v);
        }
        self.frontier(&report.frontier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_fnv1a_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv1a::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
