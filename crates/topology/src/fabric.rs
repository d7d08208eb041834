//! Scale-out rail fabrics: electrical (packet-switched) and optical (circuit-switched).
//!
//! * The electrical rail fabric models today's rail-optimized fabric: every pair of
//!   same-rail GPUs is always connected through the rail packet switch at full NIC
//!   bandwidth (the paper's baseline, and the `latency = 0` point of Fig. 8). All it
//!   adds to a transfer is the switch datapath latency,
//!   [`ELECTRICAL_SWITCH_LATENCY`].
//! * The [`OpticalRailFabric`] replaces each rail switch with an [`Ocs`]: two GPUs can
//!   only communicate once a circuit between them has been installed and has settled.
//!   The end-to-end optical path adds no datapath latency (no switch ASIC, no OEO
//!   conversion).

use crate::cluster::Cluster;
use crate::ids::RailId;
use crate::ocs::{CircuitConfig, Ocs, OcsError};
use railsim_sim::{SimDuration, SimTime};

/// One hop through an electrical rail switch (ASIC pipeline plus the
/// optical-electrical-optical conversions), on the order of a microsecond. Every
/// scale-out transfer on the electrical baseline pays it.
pub const ELECTRICAL_SWITCH_LATENCY: SimDuration = SimDuration::from_micros(1);

/// The photonic rail fabric: one OCS per rail, circuits installed on demand by the
/// Opus controller.
#[derive(Debug, Clone)]
pub struct OpticalRailFabric {
    ocses: Vec<Ocs>,
    num_gpus: u32,
    ports_per_gpu: u8,
}

impl OpticalRailFabric {
    /// Builds the optical fabric for `cluster` with the given per-OCS reconfiguration
    /// delay. Each rail gets one OCS whose radix is exactly the number of rail
    /// endpoints (nodes × logical ports per GPU).
    pub fn for_cluster(cluster: &Cluster, reconfig_delay: SimDuration) -> Self {
        let radix = cluster.ocs_ports_per_rail() as usize;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GpuId, PortId};
    use crate::ocs::Circuit;
    use crate::spec::{ClusterSpec, NodePreset};

    fn cluster() -> Cluster {
        ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build()
    }

    #[test]
    fn optical_fabric_requires_circuits() {
        let c = cluster();
        let mut f = OpticalRailFabric::for_cluster(&c, SimDuration::from_millis(15));
        let rail = RailId(0);
        let (a, b) = (GpuId(0), GpuId(8));
        assert!(!f.ocs(rail).gpus_connected(a, b, SimTime::ZERO));
        assert_eq!(f.ocs(rail).gpu_ready_time(a, b), None);

        let cfg =
            CircuitConfig::new(vec![Circuit::new(PortId::new(a, 0), PortId::new(b, 0))]).unwrap();
        let ready = f.install(rail, &cfg, SimTime::ZERO).unwrap();
        assert_eq!(ready, SimTime::from_millis(15));
        assert!(!f.ocs(rail).gpus_connected(a, b, SimTime::from_millis(14)));
        assert!(f.ocs(rail).gpus_connected(a, b, SimTime::from_millis(15)));
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
        let later = SimTime::from_secs(1);
        assert!(!f.ocs(RailId(1)).gpus_connected(GpuId(1), GpuId(9), later));
        assert!(f.ocs(RailId(0)).gpus_connected(GpuId(0), GpuId(8), later));
    }

    #[test]
    fn ocs_radix_defaults_to_rail_endpoint_count() {
        let c = cluster(); // 4 nodes, 1 port per GPU
        let f = OpticalRailFabric::for_cluster(&c, SimDuration::ZERO);
        assert_eq!(f.ocs(RailId(0)).radix(), 4);
        assert_eq!(f.num_rails(), 4);
    }
}
