//! Machine configuration: latency, bandwidth and cache parameters.

use crate::fault::FaultMode;

/// Whether transfers contend for interconnect resources.
///
/// Under [`ContentionMode::Off`] every operation is priced by the
/// uncontended analytic formulas in [`crate::cost`] exactly as before the
/// contention model existed — bitwise identical results. Under
/// [`ContentionMode::Queued`] the runtimes additionally route each
/// transfer through `o2k-net`'s per-link busy-until queueing model and add
/// the accrued queueing delay on top of the analytic cost.
/// [`ContentionMode::Fabric`] extends the queued path of each transfer with
/// the *non-wire* resources it crosses — the source node's shared bus, the
/// source and destination routers' arbitration (hub) ports, and the
/// destination node's bus/directory — so controller occupancy, not just
/// link bandwidth, can become the bottleneck (Holt et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentionMode {
    /// Uncontended analytic costs only (the historical behaviour).
    #[default]
    Off,
    /// Hop-by-hop link queueing on top of the analytic costs.
    Queued,
    /// Full resource-fabric queueing: node buses and hub ports contend in
    /// addition to links.
    Fabric,
}

impl ContentionMode {
    /// Parse `"off"` / `"queued"` / `"fabric"` (as accepted by
    /// `repro --contention`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(ContentionMode::Off),
            "queued" => Some(ContentionMode::Queued),
            "fabric" => Some(ContentionMode::Fabric),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ContentionMode::Off => "off",
            ContentionMode::Queued => "queued",
            ContentionMode::Fabric => "fabric",
        }
    }
}

/// How the operating system assigns shared pages their home nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// IRIX default: a page lives on the node of the first PE to touch it.
    FirstTouch,
    /// Ablation baseline: pages are struck round-robin across nodes.
    RoundRobin,
}

/// Parameters of the simulated ccNUMA machine.
///
/// The [`MachineConfig::origin2000`] preset follows publicly documented
/// Origin2000 characteristics (250 MHz R10000, dual-CPU nodes, 128 B L2
/// lines, ~320 ns local memory, ~100 ns per router hop, 780 MB/s links).
/// Exact values matter less than their *ratios*: the reproduction targets
/// relative model behaviour, and every knob here is adjustable.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    // --- structure ---
    /// CPUs (PEs) per node board. Origin2000: 2.
    pub cpus_per_node: usize,
    /// CPU cycle time in nanoseconds. 250 MHz R10000 → 4 ns.
    pub cycle_ns: f64,
    /// Virtual-memory page size in bytes (first-touch homing granularity).
    pub page_bytes: usize,
    /// How shared pages get their home nodes (see [`PagePolicy`]).
    pub page_policy: PagePolicy,

    // --- cache geometry (models the unified off-chip L2) ---
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Modelled cache capacity in bytes per PE.
    pub cache_bytes: usize,
    /// Set associativity of the modelled cache.
    pub cache_assoc: usize,

    // --- memory-system latencies (ns) ---
    /// Hit in the modelled cache.
    pub lat_cache_hit: u64,
    /// Line fill from the local node's memory.
    pub lat_local_mem: u64,
    /// Extra latency per router hop for remote fills / network traversal.
    pub lat_hop: u64,
    /// Directory lookup / coherence action overhead at the home node.
    pub lat_directory: u64,
    /// Cost charged to a writer per sharer invalidated.
    pub lat_invalidate: u64,

    // --- interconnect ---
    /// Link bandwidth in bytes per nanosecond (0.78 ≈ 780 MB/s).
    pub bw_bytes_per_ns: f64,
    /// Shared node-bus bandwidth in bytes per nanosecond. Every transfer a
    /// node's PEs source or sink crosses this bus, so under
    /// [`ContentionMode::Fabric`] fat nodes (many CPUs per node) saturate
    /// it. Origin2000: the 780 MB/s SysAD bus is shared by both CPUs.
    pub bus_bytes_per_ns: f64,
    /// Hub / router-arbitration port occupancy per transfer (ns): how long
    /// a transfer holds the router's arbitration logic regardless of size.
    /// Only charged under [`ContentionMode::Fabric`].
    pub hub_occ_ns: u64,

    // --- message passing (two-sided) software costs ---
    /// Sender-side software overhead per message (marshalling, matching).
    pub mp_send_overhead: u64,
    /// Receiver-side software overhead per message.
    pub mp_recv_overhead: u64,
    /// Fixed network injection latency for a message, before per-hop cost.
    pub mp_net_base: u64,

    // --- one-sided (SHMEM) costs ---
    /// Initiator overhead for a put.
    pub shmem_put_overhead: u64,
    /// Initiator overhead for a get (plus a round trip is charged).
    pub shmem_get_overhead: u64,
    /// Remote atomic operation overhead (on top of a round trip).
    pub shmem_amo_overhead: u64,

    // --- synchronisation ---
    /// Cost per tree level of a barrier / collective.
    pub sync_hop: u64,

    // --- interconnect contention ---
    /// Whether transfers queue on shared links (see [`ContentionMode`]).
    pub contention: ContentionMode,
    /// Link fault schedule (see [`FaultMode`]). Only consulted when the
    /// contention model is on (`queued` / `fabric`): faults are per-link
    /// states, and links only exist as resources in the queueing model.
    pub fault: FaultMode,
}

impl MachineConfig {
    /// Origin2000-class preset. See module docs for provenance.
    pub fn origin2000() -> Self {
        MachineConfig {
            cpus_per_node: 2,
            cycle_ns: 4.0,
            page_bytes: 16 * 1024,
            page_policy: PagePolicy::FirstTouch,
            line_bytes: 128,
            cache_bytes: 4 * 1024 * 1024,
            cache_assoc: 2,
            lat_cache_hit: 20,
            lat_local_mem: 320,
            lat_hop: 100,
            lat_directory: 80,
            lat_invalidate: 60,
            bw_bytes_per_ns: 0.78,
            bus_bytes_per_ns: 0.78,
            hub_occ_ns: 50,
            mp_send_overhead: 4_000,
            mp_recv_overhead: 4_000,
            mp_net_base: 1_000,
            shmem_put_overhead: 500,
            shmem_get_overhead: 500,
            shmem_amo_overhead: 300,
            sync_hop: 400,
            contention: ContentionMode::Off,
            fault: FaultMode::Off,
        }
    }

    /// A cluster-of-SMPs preset (the follow-up papers' platform): fat SMP
    /// nodes joined by a commodity network. Within a node everything is
    /// Origin-priced; across nodes there is **no coherence hardware**, so
    /// cross-node "shared memory" is software-DSM-class — every remote
    /// line fill, invalidation and directory action costs microseconds —
    /// while messages pay commodity-NIC software overheads. Experiment A5
    /// runs the three models on it next to the Origin2000.
    pub fn cluster_of_smps() -> Self {
        let base = Self::origin2000();
        MachineConfig {
            cpus_per_node: 4,
            lat_hop: 5_000,
            lat_directory: 5_000,
            lat_invalidate: 100,
            bw_bytes_per_ns: 0.1,
            hub_occ_ns: 1_000,
            mp_send_overhead: 8_000,
            mp_recv_overhead: 8_000,
            mp_net_base: 10_000,
            shmem_put_overhead: 6_000,
            shmem_get_overhead: 6_000,
            shmem_amo_overhead: 6_000,
            ..base
        }
    }

    /// A small, fast configuration for unit tests: tiny cache so eviction
    /// paths are exercised, round latencies so arithmetic is easy to check.
    pub fn test_tiny() -> Self {
        MachineConfig {
            cpus_per_node: 2,
            cycle_ns: 1.0,
            page_bytes: 256,
            page_policy: PagePolicy::FirstTouch,
            line_bytes: 64,
            cache_bytes: 1024,
            cache_assoc: 2,
            lat_cache_hit: 1,
            lat_local_mem: 10,
            lat_hop: 5,
            lat_directory: 2,
            lat_invalidate: 3,
            bw_bytes_per_ns: 1.0,
            bus_bytes_per_ns: 1.0,
            hub_occ_ns: 2,
            mp_send_overhead: 100,
            mp_recv_overhead: 100,
            mp_net_base: 10,
            shmem_put_overhead: 20,
            shmem_get_overhead: 20,
            shmem_amo_overhead: 10,
            sync_hop: 8,
            contention: ContentionMode::Off,
            fault: FaultMode::Off,
        }
    }

    /// Nanoseconds to move `bytes` across one link at configured bandwidth.
    #[inline]
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.bw_bytes_per_ns).ceil() as u64
    }

    /// Nanoseconds `bytes` occupy the shared node bus.
    #[inline]
    pub fn bus_transfer_ns(&self, bytes: usize) -> u64 {
        (bytes as f64 / self.bus_bytes_per_ns).ceil() as u64
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::origin2000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin2000_preset_sane() {
        let c = MachineConfig::origin2000();
        assert_eq!(c.cpus_per_node, 2);
        assert_eq!(c.line_bytes, 128);
        assert!(c.lat_local_mem > c.lat_cache_hit);
        assert!(
            c.mp_send_overhead > c.shmem_put_overhead,
            "two-sided software overhead must exceed one-sided"
        );
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let c = MachineConfig::test_tiny();
        assert_eq!(c.transfer_ns(100), 100);
        assert_eq!(c.transfer_ns(0), 0);
        let o = MachineConfig::origin2000();
        assert!(o.transfer_ns(1024) > o.transfer_ns(128));
    }

    #[test]
    fn cluster_preset_is_remote_hostile() {
        let o = MachineConfig::origin2000();
        let c = MachineConfig::cluster_of_smps();
        assert!(c.lat_hop > 10 * o.lat_hop);
        assert!(c.mp_send_overhead > o.mp_send_overhead);
        assert_eq!(c.line_bytes, o.line_bytes, "node hardware unchanged");
        assert_eq!(c.cpus_per_node, 4, "fatter SMP nodes");
    }

    #[test]
    fn contention_defaults_off_everywhere() {
        assert_eq!(MachineConfig::origin2000().contention, ContentionMode::Off);
        assert_eq!(MachineConfig::test_tiny().contention, ContentionMode::Off);
        assert_eq!(
            MachineConfig::cluster_of_smps().contention,
            ContentionMode::Off
        );
        assert_eq!(ContentionMode::default(), ContentionMode::Off);
    }

    #[test]
    fn pages_are_first_touched_everywhere() {
        assert_eq!(
            MachineConfig::origin2000().page_policy,
            PagePolicy::FirstTouch
        );
        assert_eq!(
            MachineConfig::test_tiny().page_policy,
            PagePolicy::FirstTouch
        );
        assert_eq!(
            MachineConfig::cluster_of_smps().page_policy,
            PagePolicy::FirstTouch
        );
        assert_eq!(MachineConfig::default().page_policy, PagePolicy::FirstTouch);
    }

    #[test]
    fn fault_defaults_off_everywhere() {
        // No preset reads ambient state: a fault plan is always the
        // caller's explicit `fault:` field.
        assert_eq!(MachineConfig::origin2000().fault, FaultMode::Off);
        assert_eq!(MachineConfig::test_tiny().fault, FaultMode::Off);
        assert_eq!(MachineConfig::cluster_of_smps().fault, FaultMode::Off);
    }

    #[test]
    fn contention_mode_round_trips() {
        for m in [
            ContentionMode::Off,
            ContentionMode::Queued,
            ContentionMode::Fabric,
        ] {
            assert_eq!(ContentionMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(ContentionMode::parse("sometimes"), None);
    }

    #[test]
    fn bus_transfer_time_scales_with_bytes() {
        let c = MachineConfig::test_tiny();
        assert_eq!(c.bus_transfer_ns(100), 100);
        assert_eq!(c.bus_transfer_ns(0), 0);
        let o = MachineConfig::origin2000();
        assert!(o.bus_transfer_ns(1024) > o.bus_transfer_ns(128));
        assert!(o.hub_occ_ns > 0);
        // The cluster preset's commodity switch arbitrates far slower than
        // the Origin hub ASIC.
        assert!(MachineConfig::cluster_of_smps().hub_occ_ns > o.hub_occ_ns);
    }
}
