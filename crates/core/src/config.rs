//! System-wide configuration.

use lastcpu_bus::{BusCostModel, RetryConfig, SecurityPolicy};
use lastcpu_net::NetCostModel;
use lastcpu_sim::{FaultPlan, SimDuration};

/// Configuration of the emulated machine.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Deterministic seed: same seed, same run.
    pub seed: u64,
    /// Physical DRAM size in bytes.
    pub dram_bytes: u64,
    /// IOTLB entries per device IOMMU.
    pub iotlb_entries: usize,
    /// Control-plane cost model.
    pub bus_cost: BusCostModel,
    /// Network cost model.
    pub net_cost: NetCostModel,
    /// Latency of a doorbell (an MSI-like data-plane memory write, §2.3).
    pub doorbell_latency: SimDuration,
    /// Time a device takes to come back after a bus-initiated reset.
    pub reset_latency: SimDuration,
    /// How often the bus scans for lapsed heartbeats (`None` = disabled;
    /// most experiments disable it to avoid heartbeat noise in traces).
    pub liveness_interval: Option<SimDuration>,
    /// When true, control-plane messages are tunnelled over the *data*
    /// interconnect: every bus message also occupies the DRAM path for its
    /// wire length. This is the conflated-planes configuration that E6
    /// compares against the paper's split design (§2.3).
    pub conflate_planes: bool,
    /// Enable trace collection (protocol-step recording).
    pub trace: bool,
    /// Deterministic fault schedule (`None` = fault-free run). The plan's
    /// injections are turned into ordinary discrete events at
    /// [`power_on`](crate::System::power_on), so a faulty run replays
    /// bit-identically from its seed.
    pub fault_plan: Option<FaultPlan>,
    /// Per-request timeout + bounded-backoff retry for bus RPCs (`None` =
    /// disabled, the pre-fault-subsystem behaviour). Failure experiments
    /// enable this so lost/corrupted requests are retransmitted instead of
    /// wedging the requester.
    pub rpc_retry: Option<RetryConfig>,
    /// Enable the E11 security audit: every DMA translation verdict and
    /// every privileged bus operation is recorded (`sec.*` metrics plus
    /// `security_denial` trace events), so denied accesses are *provably*
    /// denied. Off by default — the audit is observation, and performance
    /// experiments don't pay for it.
    pub security_audit: bool,
    /// Bus hardening policy (shadow-announce denial, control-flood
    /// limiting). The default policy changes nothing; see
    /// [`SecurityPolicy::hardened`] for the settings the E11 attack matrix
    /// runs under.
    pub security_policy: SecurityPolicy,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            seed: 0xC0FFEE,
            dram_bytes: 1 << 30, // 1 GiB (sparse; only touched pages cost host memory)
            iotlb_entries: 64,
            bus_cost: BusCostModel::default(),
            net_cost: NetCostModel::default(),
            doorbell_latency: SimDuration::from_nanos(250),
            reset_latency: SimDuration::from_micros(100),
            liveness_interval: None,
            conflate_planes: false,
            trace: true,
            fault_plan: None,
            rpc_retry: None,
            security_audit: false,
            security_policy: SecurityPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SystemConfig::default();
        assert!(c.dram_bytes >= 1 << 20);
        assert!(c.iotlb_entries > 0);
        assert!(c.doorbell_latency < c.bus_cost.unicast(64));
        assert!(!c.conflate_planes);
    }
}
