//! Cost functions: abstract operations → nanoseconds under a config.
//!
//! This is the one price list of the three programming models: the only
//! code that turns `MachineConfig` latencies, overheads and bandwidth into
//! virtual time. The `mp`, `shmem` and `sas` runtimes, `serve`, and
//! `parallel`'s barrier and blackboard broadcast charge a `cost::`
//! result plus at most the fabric's queueing delay (`Ctx::net_delay_*`,
//! zero under `ContentionMode::Off`), and price nothing themselves, so the
//! models stay mutually consistent. DESIGN §4's price table lists every
//! function here with what charges it, its `TimeCat` and its `EventKind`.

use crate::config::MachineConfig;
use crate::time::SimTime;

/// Cost pieces of a two-sided message, LogGP-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgCost {
    /// Sender CPU overhead (o_s): charged to the sender as Remote time.
    pub send_overhead: SimTime,
    /// Wire time: base latency + per-hop latency + bytes / bandwidth. The
    /// message becomes visible to the receiver this long after injection.
    pub network: SimTime,
    /// Receiver CPU overhead (o_r): charged on matching.
    pub recv_overhead: SimTime,
}

impl MsgCost {
    /// End-to-end latency seen by a receiver already waiting.
    pub fn total(&self) -> SimTime {
        self.send_overhead + self.network + self.recv_overhead
    }
}

/// Two-sided message of `bytes` travelling `hops` router hops.
pub fn msg(config: &MachineConfig, bytes: usize, hops: u32) -> MsgCost {
    MsgCost {
        send_overhead: config.mp_send_overhead,
        network: config.mp_net_base + u64::from(hops) * config.lat_hop + config.transfer_ns(bytes),
        recv_overhead: recv(config),
    }
}

/// Receiver CPU overhead (o_r) of one two-sided message: charged when a
/// receive matches it, and once per request a work-stealing claim takes.
#[inline]
pub fn recv(config: &MachineConfig) -> SimTime {
    config.mp_recv_overhead
}

/// Work-stealing claim on a victim `hops` away that takes `batch_bytes` of
/// queued requests: an 8-byte claim message's send overhead and wire time,
/// whether or not anything was eligible, plus the batch's wire time. Each
/// stolen request's receive overhead is charged apart, as [`recv`].
#[inline]
pub fn steal(config: &MachineConfig, batch_bytes: usize, hops: u32) -> SimTime {
    let claim = msg(config, 8, hops);
    let batch = if batch_bytes > 0 {
        msg(config, batch_bytes, hops).network
    } else {
        0
    };
    claim.send_overhead + claim.network + batch
}

/// One-sided put of `bytes` to a PE `hops` away: initiator overhead plus
/// one-way network time (puts are fire-and-forget until a fence).
pub fn put(config: &MachineConfig, bytes: usize, hops: u32) -> SimTime {
    config.shmem_put_overhead + u64::from(hops) * config.lat_hop + config.transfer_ns(bytes)
}

/// `shmem_quiet`: waiting for the outstanding puts' acknowledgements, one
/// hop-free round trip priced as a put's initiator overhead.
#[inline]
pub fn quiet(config: &MachineConfig) -> SimTime {
    config.shmem_put_overhead
}

/// SHMEM broadcast of `bytes` as a binomial tree of puts `depth` levels
/// deep, every level priced as a put `hops` away.
#[inline]
pub fn put_tree(config: &MachineConfig, depth: u32, bytes: usize, hops: u32) -> SimTime {
    u64::from(depth) * put(config, bytes, hops)
}

/// One-sided get of `bytes` from a PE `hops` away: a request/response round
/// trip; the payload pays bandwidth on the way back.
pub fn get(config: &MachineConfig, bytes: usize, hops: u32) -> SimTime {
    config.shmem_get_overhead + 2 * u64::from(hops) * config.lat_hop + config.transfer_ns(bytes)
}

/// Remote atomic (fetch-add, compare-swap, …): a round trip plus the
/// directory/AMO processing cost at the target.
pub fn amo(config: &MachineConfig, hops: u32) -> SimTime {
    config.shmem_amo_overhead + 2 * u64::from(hops) * config.lat_hop + config.lat_directory
}

/// Cache-line fill from the memory of a node `hops` away (0 = local).
/// Includes the directory lookup at the line's home.
pub fn line_fill(config: &MachineConfig, hops: u32) -> SimTime {
    if hops == 0 {
        config.lat_local_mem
    } else {
        config.lat_local_mem + config.lat_directory + u64::from(hops) * config.lat_hop
    }
}

/// Cache-to-cache forward of a dirty line from its owner `hops` away: the
/// hops to the owner plus its directory transaction, on top of the fill.
#[inline]
pub fn forward(config: &MachineConfig, hops: u32) -> SimTime {
    u64::from(hops) * config.lat_hop + config.lat_directory
}

/// Charged to a writer per sharer whose copy it invalidates, the sharer's
/// node `hops` away: a same-node sharer (0 hops) is an SMP-bus operation,
/// a remote one also pays the network hops.
#[inline]
pub fn invalidation(config: &MachineConfig, hops: u32) -> SimTime {
    config.lat_invalidate + u64::from(hops) * config.lat_hop
}

/// Upgrade of a line the writer already caches to exclusive ownership: one
/// directory transaction.
#[inline]
pub fn upgrade(config: &MachineConfig) -> SimTime {
    config.lat_directory
}

/// Writing a dirty victim line back to memory when the cache evicts it.
#[inline]
pub fn writeback(config: &MachineConfig) -> SimTime {
    config.lat_local_mem
}

/// Barrier / clock-synchronising collective across `pes` PEs whose farthest
/// pair is `max_hops` apart: a log-depth tree of hop-priced exchanges.
pub fn barrier(config: &MachineConfig, pes: usize, max_hops: u32) -> SimTime {
    if pes <= 1 {
        return 0;
    }
    let depth = u64::from(usize::BITS - (pes - 1).leading_zeros());
    depth * (config.sync_hop + u64::from(max_hops) * config.lat_hop)
}

/// One blackboard collective step (a broadcast of `bytes` from a root) down
/// a tree `depth` levels deep, every level paying the payload's transfer
/// time and the machine's widest distance, `max_hops`.
#[inline]
pub fn tree_step(config: &MachineConfig, depth: u32, bytes: usize, max_hops: u32) -> SimTime {
    u64::from(depth) * (config.transfer_ns(bytes) + u64::from(max_hops) * config.lat_hop)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::origin2000()
    }

    #[test]
    fn msg_cost_monotone_in_bytes_and_hops() {
        let c = cfg();
        assert!(msg(&c, 1024, 2).total() > msg(&c, 128, 2).total());
        assert!(msg(&c, 128, 4).total() > msg(&c, 128, 1).total());
    }

    #[test]
    fn put_cheaper_than_msg() {
        let c = cfg();
        for bytes in [8usize, 128, 4096] {
            for hops in [0u32, 1, 3] {
                assert!(
                    put(&c, bytes, hops) < msg(&c, bytes, hops).total(),
                    "one-sided put must beat a two-sided message: {bytes}B {hops}h"
                );
            }
        }
    }

    #[test]
    fn get_is_round_trip() {
        let c = cfg();
        let g = get(&c, 8, 3);
        let p = put(&c, 8, 3);
        assert!(g > p, "get pays a round trip, put one way");
    }

    #[test]
    fn local_line_fill_has_no_network_cost() {
        let c = cfg();
        assert_eq!(line_fill(&c, 0), c.lat_local_mem);
        assert!(line_fill(&c, 1) > line_fill(&c, 0));
        assert!(line_fill(&c, 3) > line_fill(&c, 1));
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let c = cfg();
        assert_eq!(barrier(&c, 1, 0), 0);
        let b2 = barrier(&c, 2, 1);
        let b4 = barrier(&c, 4, 2);
        let b64 = barrier(&c, 64, 6);
        assert!(b4 > b2);
        assert!(b64 > b4);
        // log depth: 64 PEs is 6 levels, not 63
        assert!(b64 < 63 * b2);
    }

    #[test]
    fn invalidation_pays_the_hops_to_the_sharer() {
        let c = cfg();
        assert_eq!(invalidation(&c, 0), c.lat_invalidate);
        assert_eq!(invalidation(&c, 3), c.lat_invalidate + 3 * c.lat_hop);
    }

    #[test]
    fn amo_more_expensive_with_distance() {
        let c = cfg();
        assert!(amo(&c, 3) > amo(&c, 0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Message cost is monotone in both payload size and distance.
        #[test]
        fn msg_cost_monotone(bytes in 0usize..1_000_000, hops in 0u32..8) {
            let c = MachineConfig::origin2000();
            let base = msg(&c, bytes, hops).total();
            prop_assert!(msg(&c, bytes + 128, hops).total() >= base);
            prop_assert!(msg(&c, bytes, hops + 1).total() >= base);
        }

        /// One-sided operations always undercut the two-sided message for
        /// the same payload and distance.
        #[test]
        fn one_sided_cheaper(bytes in 1usize..100_000, hops in 0u32..8) {
            let c = MachineConfig::origin2000();
            prop_assert!(put(&c, bytes, hops) < msg(&c, bytes, hops).total());
            prop_assert!(get(&c, bytes, hops) < msg(&c, bytes, hops).total());
        }

        /// Barrier cost grows logarithmically: doubling the team adds one
        /// tree level, never more.
        #[test]
        fn barrier_log_growth(pes in 2usize..512, hops in 0u32..8) {
            let c = MachineConfig::origin2000();
            let single_level = c.sync_hop + u64::from(hops) * c.lat_hop;
            let b1 = barrier(&c, pes, hops);
            let b2 = barrier(&c, pes * 2, hops);
            prop_assert!(b2 >= b1);
            prop_assert!(b2 <= b1 + single_level);
        }

        /// Line fills: remote always costs at least local, and cost is
        /// monotone in distance.
        #[test]
        fn line_fill_monotone(hops in 0u32..10) {
            let c = MachineConfig::origin2000();
            prop_assert!(line_fill(&c, hops) >= c.lat_local_mem);
            prop_assert!(line_fill(&c, hops + 1) >= line_fill(&c, hops));
        }
    }
}
