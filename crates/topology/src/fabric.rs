//! Scale-out rail fabrics: electrical (packet-switched) and optical (circuit-switched).
//!
//! Both fabrics expose the same question the simulator asks before starting a scale-out
//! transfer between two GPUs on the same rail: *from what time onward can these two
//! GPUs exchange traffic, and at what bandwidth?*
//!
//! * The [`ElectricalRailFabric`] models today's rail-optimized fabric: every pair of
//!   same-rail GPUs is always connected through the rail packet switch at full NIC
//!   bandwidth (the paper's baseline, and the `latency = 0` point of Fig. 8).
//! * The [`OpticalRailFabric`] replaces each rail switch with an [`Ocs`]: two GPUs can
//!   only communicate once a circuit between them has been installed and has settled.

use crate::cluster::Cluster;
use crate::ids::{GpuId, RailId};
use crate::ocs::{CircuitConfig, Ocs, OcsError};
use railsim_sim::{Bandwidth, SimDuration, SimTime};

/// Connectivity questions common to both fabric kinds.
pub trait RailConnectivity {
    /// True when `a` and `b` (which must share `rail`) can exchange traffic at `now`.
    fn is_connected(&self, rail: RailId, a: GpuId, b: GpuId, now: SimTime) -> bool;

    /// The earliest time at or after `now` when `a` and `b` can exchange traffic, or
    /// `None` if no connection is currently installed or pending.
    fn ready_time(&self, rail: RailId, a: GpuId, b: GpuId, now: SimTime) -> Option<SimTime>;

    /// The bandwidth available between `a` and `b` once connected.
    fn pair_bandwidth(&self, rail: RailId, a: GpuId, b: GpuId) -> Bandwidth;

    /// Additional datapath latency imposed by the fabric (switch ASIC, OEO conversions).
    fn datapath_latency(&self) -> SimDuration;
}

/// The electrical packet-switched rail fabric (the paper's baseline).
///
/// Every pair of same-rail GPUs is permanently connected at full NIC bandwidth; the
/// only cost is a small per-transfer datapath latency representing the switch ASIC and
/// the optical-electrical-optical conversions at each hop.
#[derive(Debug, Clone)]
pub struct ElectricalRailFabric {
    pair_bandwidth: Bandwidth,
    datapath_latency: SimDuration,
}

impl ElectricalRailFabric {
    /// Default one-hop latency through an electrical rail switch (ASIC pipeline + OEO),
    /// on the order of a microsecond.
    pub const DEFAULT_SWITCH_LATENCY: SimDuration = SimDuration::from_micros(1);

    /// Builds the electrical fabric for `cluster`: full NIC bandwidth between any pair.
    pub fn for_cluster(cluster: &Cluster) -> Self {
        ElectricalRailFabric {
            pair_bandwidth: cluster.spec().nic.total_bandwidth,
            datapath_latency: Self::DEFAULT_SWITCH_LATENCY,
        }
    }
}

impl RailConnectivity for ElectricalRailFabric {
    fn is_connected(&self, _rail: RailId, _a: GpuId, _b: GpuId, _now: SimTime) -> bool {
        true
    }

    fn ready_time(&self, _rail: RailId, _a: GpuId, _b: GpuId, now: SimTime) -> Option<SimTime> {
        Some(now)
    }

    fn pair_bandwidth(&self, _rail: RailId, _a: GpuId, _b: GpuId) -> Bandwidth {
        self.pair_bandwidth
    }

    fn datapath_latency(&self) -> SimDuration {
        self.datapath_latency
    }
}

/// The photonic rail fabric: one OCS per rail, circuits installed on demand by the
/// Opus controller.
#[derive(Debug, Clone)]
pub struct OpticalRailFabric {
    ocses: Vec<Ocs>,
    port_bandwidth: Bandwidth,
    num_gpus: u32,
    ports_per_gpu: u8,
}

impl OpticalRailFabric {
    /// Builds the optical fabric for `cluster` with the given per-OCS reconfiguration
    /// delay. Each rail gets one OCS whose radix is exactly the number of rail
    /// endpoints (nodes × logical ports per GPU); pass a larger `radix_override` to
    /// model a bigger commercial switch.
    pub fn for_cluster(cluster: &Cluster, reconfig_delay: SimDuration) -> Self {
        let radix = cluster.ocs_ports_per_rail() as usize;
        Self::for_cluster_with_radix(cluster, reconfig_delay, radix)
    }

    /// Builds the optical fabric with an explicit OCS radix.
    pub fn for_cluster_with_radix(
        cluster: &Cluster,
        reconfig_delay: SimDuration,
        radix: usize,
    ) -> Self {
        // Pre-size every OCS's dense port tables from the cluster geometry, so the
        // matching engine never grows mid-simulation.
        let ocses = (0..cluster.num_rails())
            .map(|_| {
                Ocs::with_geometry(
                    radix,
                    reconfig_delay,
                    cluster.num_gpus(),
                    cluster.ports_per_gpu(),
                )
            })
            .collect();
        OpticalRailFabric {
            ocses,
            port_bandwidth: cluster.port_bandwidth(),
            num_gpus: cluster.num_gpus(),
            ports_per_gpu: cluster.ports_per_gpu(),
        }
    }

    /// Number of rails (one OCS each).
    pub fn num_rails(&self) -> usize {
        self.ocses.len()
    }

    /// Number of GPUs in the cluster this fabric was built for.
    pub fn num_gpus(&self) -> u32 {
        self.num_gpus
    }

    /// Logical scale-out NIC ports per GPU.
    pub fn ports_per_gpu(&self) -> u8 {
        self.ports_per_gpu
    }

    /// Size of a dense per-port state table over every port of the cluster
    /// (see [`PortId::dense_index`](crate::PortId::dense_index)).
    pub fn dense_port_count(&self) -> usize {
        self.num_gpus as usize * self.ports_per_gpu as usize
    }

    /// Shared access to a rail's OCS.
    pub fn ocs(&self, rail: RailId) -> &Ocs {
        &self.ocses[rail.index()]
    }

    /// Mutable access to a rail's OCS (used by the Opus controller).
    pub fn ocs_mut(&mut self, rail: RailId) -> &mut Ocs {
        &mut self.ocses[rail.index()]
    }

    /// Installs a circuit configuration on one rail. Returns the time at which all
    /// requested circuits are ready.
    pub fn install(
        &mut self,
        rail: RailId,
        config: &CircuitConfig,
        now: SimTime,
    ) -> Result<SimTime, OcsError> {
        self.ocses[rail.index()].install(config, now)
    }

    /// Sets the reconfiguration delay on every rail's OCS (parameter sweeps).
    pub fn set_reconfig_delay(&mut self, delay: SimDuration) {
        for ocs in &mut self.ocses {
            ocs.set_reconfig_delay(delay);
        }
    }

    /// Total reconfiguration operations across all rails.
    pub fn total_reconfigs(&self) -> u64 {
        self.ocses.iter().map(|o| o.reconfig_count()).sum()
    }

    /// Lifetime circuits set up, per rail (index == rail id). Exposes per-rail
    /// reconfiguration churn to the experiment harness.
    pub fn circuits_set_up_by_rail(&self) -> Vec<u64> {
        self.ocses.iter().map(|o| o.circuits_set_up()).collect()
    }

    /// Lifetime circuits torn down, per rail (index == rail id).
    pub fn circuits_torn_down_by_rail(&self) -> Vec<u64> {
        self.ocses.iter().map(|o| o.circuits_torn_down()).collect()
    }
}

impl RailConnectivity for OpticalRailFabric {
    fn is_connected(&self, rail: RailId, a: GpuId, b: GpuId, now: SimTime) -> bool {
        self.ocses[rail.index()].gpus_connected(a, b, now)
    }

    fn ready_time(&self, rail: RailId, a: GpuId, b: GpuId, now: SimTime) -> Option<SimTime> {
        self.ocses[rail.index()]
            .gpu_ready_time(a, b)
            .map(|t| t.max(now))
    }

    fn pair_bandwidth(&self, rail: RailId, a: GpuId, b: GpuId) -> Bandwidth {
        // Aggregate bandwidth scales with the number of parallel circuits between the
        // pair (e.g. both ports of a 2-port NIC bonded to the same neighbor).
        let n = self.ocses[rail.index()].circuits_between_gpus(a, b, SimTime::MAX);
        self.port_bandwidth.scale(n.max(1) as f64)
    }

    fn datapath_latency(&self) -> SimDuration {
        // End-to-end optical path: no switch ASIC, no OEO conversion.
        SimDuration::ZERO
    }
}

/// Either of the two scale-out fabric implementations, selected per experiment.
#[derive(Debug, Clone)]
pub enum ScaleOutFabric {
    /// Electrical packet-switched rails (the baseline).
    Electrical(ElectricalRailFabric),
    /// Photonic circuit-switched rails (the paper's proposal).
    Optical(OpticalRailFabric),
}

impl ScaleOutFabric {
    /// True when this is the optical fabric.
    pub fn is_optical(&self) -> bool {
        matches!(self, ScaleOutFabric::Optical(_))
    }

    /// Borrows the optical fabric, if that is what this is.
    pub fn as_optical(&self) -> Option<&OpticalRailFabric> {
        match self {
            ScaleOutFabric::Optical(o) => Some(o),
            ScaleOutFabric::Electrical(_) => None,
        }
    }
}

impl RailConnectivity for ScaleOutFabric {
    fn is_connected(&self, rail: RailId, a: GpuId, b: GpuId, now: SimTime) -> bool {
        match self {
            ScaleOutFabric::Electrical(f) => f.is_connected(rail, a, b, now),
            ScaleOutFabric::Optical(f) => f.is_connected(rail, a, b, now),
        }
    }

    fn ready_time(&self, rail: RailId, a: GpuId, b: GpuId, now: SimTime) -> Option<SimTime> {
        match self {
            ScaleOutFabric::Electrical(f) => f.ready_time(rail, a, b, now),
            ScaleOutFabric::Optical(f) => f.ready_time(rail, a, b, now),
        }
    }

    fn pair_bandwidth(&self, rail: RailId, a: GpuId, b: GpuId) -> Bandwidth {
        match self {
            ScaleOutFabric::Electrical(f) => f.pair_bandwidth(rail, a, b),
            ScaleOutFabric::Optical(f) => f.pair_bandwidth(rail, a, b),
        }
    }

    fn datapath_latency(&self) -> SimDuration {
        match self {
            ScaleOutFabric::Electrical(f) => f.datapath_latency(),
            ScaleOutFabric::Optical(f) => f.datapath_latency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PortId;
    use crate::ocs::Circuit;
    use crate::spec::{ClusterSpec, NodePreset};

    fn cluster() -> Cluster {
        ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build()
    }

    #[test]
    fn electrical_fabric_is_always_connected() {
        let c = cluster();
        let f = ElectricalRailFabric::for_cluster(&c);
        let rail = RailId(0);
        let (a, b) = (GpuId(0), GpuId(8));
        assert!(f.is_connected(rail, a, b, SimTime::ZERO));
        assert_eq!(
            f.ready_time(rail, a, b, SimTime::from_secs(5)),
            Some(SimTime::from_secs(5))
        );
        assert!((f.pair_bandwidth(rail, a, b).as_gbps() - 200.0).abs() < 1e-9);
        assert!(f.datapath_latency() > SimDuration::ZERO);
    }

    #[test]
    fn optical_fabric_requires_circuits() {
        let c = cluster();
        let mut f = OpticalRailFabric::for_cluster(&c, SimDuration::from_millis(15));
        let rail = RailId(0);
        let (a, b) = (GpuId(0), GpuId(8));
        assert!(!f.is_connected(rail, a, b, SimTime::ZERO));
        assert_eq!(f.ready_time(rail, a, b, SimTime::ZERO), None);

        let cfg =
            CircuitConfig::new(vec![Circuit::new(PortId::new(a, 0), PortId::new(b, 0))]).unwrap();
        let ready = f.install(rail, &cfg, SimTime::ZERO).unwrap();
        assert_eq!(ready, SimTime::from_millis(15));
        assert!(!f.is_connected(rail, a, b, SimTime::from_millis(14)));
        assert!(f.is_connected(rail, a, b, SimTime::from_millis(15)));
        assert_eq!(f.datapath_latency(), SimDuration::ZERO);
        assert_eq!(f.total_reconfigs(), 1);
    }

    #[test]
    fn optical_fabric_rails_are_independent() {
        let c = cluster();
        let mut f = OpticalRailFabric::for_cluster(&c, SimDuration::ZERO);
        let cfg = CircuitConfig::new(vec![Circuit::new(
            PortId::new(GpuId(0), 0),
            PortId::new(GpuId(8), 0),
        )])
        .unwrap();
        f.install(RailId(0), &cfg, SimTime::ZERO).unwrap();
        // Rail 1 is untouched: GPUs 1 and 9 remain disconnected.
        assert!(!f.is_connected(RailId(1), GpuId(1), GpuId(9), SimTime::from_secs(1)));
        assert!(f.is_connected(RailId(0), GpuId(0), GpuId(8), SimTime::from_secs(1)));
    }

    #[test]
    fn ocs_radix_defaults_to_rail_endpoint_count() {
        let c = cluster(); // 4 nodes, 1 port per GPU
        let f = OpticalRailFabric::for_cluster(&c, SimDuration::ZERO);
        assert_eq!(f.ocs(RailId(0)).radix(), 4);
        assert_eq!(f.num_rails(), 4);
    }

    #[test]
    fn scaleout_enum_dispatch() {
        let c = cluster();
        let e = ScaleOutFabric::Electrical(ElectricalRailFabric::for_cluster(&c));
        let o = ScaleOutFabric::Optical(OpticalRailFabric::for_cluster(&c, SimDuration::ZERO));
        assert!(!e.is_optical());
        assert!(o.is_optical());
        assert!(e.is_connected(RailId(0), GpuId(0), GpuId(4), SimTime::ZERO));
        assert!(!o.is_connected(RailId(0), GpuId(0), GpuId(4), SimTime::ZERO));
        assert!(o.as_optical().is_some());
        assert!(e.as_optical().is_none());
    }
}
