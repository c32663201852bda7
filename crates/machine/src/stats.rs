//! Per-PE event counters.
//!
//! Every runtime increments these alongside the time charges, so experiments
//! can report communication volume, remote-reference counts, message-size
//! histograms, and cache behaviour (the paper family's Figures on traffic).

/// Declares [`Counters`] from one list of scalar counters. The struct, its
/// `NAMES` and its `scalars()` / `scalars_mut()` views all come from that
/// list, so `merge`, `diff` and the snapshot codec (which walk the views)
/// cannot miss a counter: adding one is a one-line edit here.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Number of scalar counters (everything but the histogram).
        const SCALARS: usize = [$(stringify!($name),)*].len();

        /// Raw event counts for one PE (or, after [`Counters::merge`], a whole run).
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $name: u64,)*
            /// Message-size histogram buckets: counts of messages with payload in
            /// [0,64), [64,512), [512,4K), [4K,32K), [32K,∞) bytes.
            pub msg_size_hist: [u64; 5],
        }

        impl Counters {
            /// The scalar counters' field names, in declaration order.
            pub const NAMES: [&'static str; SCALARS] = [$(stringify!($name),)*];

            /// The scalar counters' values, in declaration order.
            pub fn scalars(&self) -> [u64; SCALARS] {
                [$(self.$name,)*]
            }

            /// The scalar counters, in declaration order, for writing.
            pub fn scalars_mut(&mut self) -> [&mut u64; SCALARS] {
                [$(&mut self.$name,)*]
            }
        }
    };
}

counters! {
    // --- two-sided ---
    /// Messages sent.
    msgs_sent,
    /// Payload bytes sent in messages.
    msg_bytes,
    /// Messages received.
    msgs_recvd,

    // --- one-sided ---
    /// Puts issued.
    puts,
    /// Bytes written by puts.
    put_bytes,
    /// Gets issued.
    gets,
    /// Bytes read by gets.
    get_bytes,
    /// Remote atomic operations.
    amos,

    // --- shared address space ---
    /// Cache hits in the modelled cache.
    cache_hits,
    /// Misses served by local memory.
    misses_local,
    /// Misses served by a remote node.
    misses_remote,
    /// Invalidation messages caused by this PE's writes.
    invalidations,
    /// Write upgrades (line already present, needed exclusivity).
    upgrades,

    // --- synchronisation ---
    /// Barrier episodes.
    barriers,
    /// Lock acquisitions.
    lock_acquires,
    /// Cooperative-scheduler floor handoffs at this PE's yield points.
    sched_handoffs,

    // --- request serving (nonzero only for o2k-serve workloads) ---
    /// Application-level client requests this PE looked up and answered
    /// (the serving side: the shard owner under MP, the requester under
    /// the one-sided and shared-memory models).
    requests_served,
    /// Requests this PE claimed out of another PE's mailbox under the MP
    /// work-stealing mitigation (a subset of `requests_served`).
    requests_stolen,
    /// Bytes this PE moved to build or refresh hot-shard read replicas
    /// (the replication mitigation's fan-out traffic).
    replica_bytes,

    // --- interconnect contention (nonzero only under queued/fabric) ---
    /// Transfers this PE routed through the contended fabric.
    net_transfers,
    /// Directed links those transfers traversed (hops + bristle ports).
    net_links,
    /// Queueing delay this PE's transfers accrued on occupied links (ns).
    net_queued_ns,
    /// Queueing delay accrued on shared node buses (ns); nonzero only
    /// under `ContentionMode::Fabric`.
    net_bus_queued_ns,
    /// Queueing delay accrued on router hub/arbitration ports (ns);
    /// nonzero only under `ContentionMode::Fabric`.
    net_hub_queued_ns,
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sent message of `bytes` (updates count, volume, histogram).
    pub fn record_msg_sent(&mut self, bytes: usize) {
        self.msgs_sent += 1;
        self.msg_bytes += bytes as u64;
        let bucket = match bytes {
            0..=63 => 0,
            64..=511 => 1,
            512..=4095 => 2,
            4096..=32767 => 3,
            _ => 4,
        };
        self.msg_size_hist[bucket] += 1;
    }

    /// Total bytes moved across the network by explicit communication
    /// (messages + puts + gets).
    pub fn explicit_comm_bytes(&self) -> u64 {
        self.msg_bytes + self.put_bytes + self.get_bytes
    }

    /// Bytes implied by remote cache misses (line-granularity traffic).
    pub fn implicit_comm_bytes(&self, line_bytes: usize) -> u64 {
        self.misses_remote * line_bytes as u64
    }

    /// Cache miss ratio over all modelled accesses; 0 if no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let misses = self.misses_local + self.misses_remote;
        let total = self.cache_hits + misses;
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// Fraction of misses served remotely; 0 if no misses.
    pub fn remote_miss_fraction(&self) -> f64 {
        let misses = self.misses_local + self.misses_remote;
        if misses == 0 {
            0.0
        } else {
            self.misses_remote as f64 / misses as f64
        }
    }

    /// Counters accumulated since `earlier` was captured: field-wise
    /// `self - earlier`, saturating at zero. Lets experiments attribute
    /// communication to individual phases (e.g. one adaptation step) by
    /// snapshotting the running totals before and after.
    ///
    /// The counters are cumulative, so `earlier` must genuinely be an
    /// earlier snapshot of the same running totals. In debug builds a
    /// counter going backwards panics — a monotonicity violation means a
    /// runtime double-counted or a caller diffed unrelated snapshots — in
    /// release builds the subtraction still saturates at zero.
    pub fn diff(&self, earlier: &Counters) -> Counters {
        fn mono_sub(a: u64, b: u64, field: &'static str) -> u64 {
            debug_assert!(a >= b, "counter {field} went backwards: {a} < {b}");
            a.saturating_sub(b)
        }
        let mut out = Counters::new();
        let scalars = self.scalars().into_iter().zip(earlier.scalars());
        for ((d, (a, b)), name) in out.scalars_mut().into_iter().zip(scalars).zip(Self::NAMES) {
            *d = mono_sub(a, b, name);
        }
        let hist = self.msg_size_hist.iter().zip(earlier.msg_size_hist);
        for (d, (a, b)) in out.msg_size_hist.iter_mut().zip(hist) {
            *d = mono_sub(*a, b, "msg_size_hist");
        }
        out
    }

    /// Accumulate `other` into `self` (for whole-run aggregation).
    pub fn merge(&mut self, other: &Counters) {
        for (a, b) in self.scalars_mut().into_iter().zip(other.scalars()) {
            *a += b;
        }
        for (a, b) in self.msg_size_hist.iter_mut().zip(other.msg_size_hist) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_histogram_buckets() {
        let mut c = Counters::new();
        c.record_msg_sent(0);
        c.record_msg_sent(63);
        c.record_msg_sent(64);
        c.record_msg_sent(511);
        c.record_msg_sent(512);
        c.record_msg_sent(4096);
        c.record_msg_sent(40_000);
        assert_eq!(c.msg_size_hist, [2, 2, 1, 1, 1]);
        assert_eq!(c.msgs_sent, 7);
        assert_eq!(c.msg_bytes, 63 + 64 + 511 + 512 + 4096 + 40_000);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Counters::new();
        a.record_msg_sent(100);
        a.cache_hits = 5;
        let mut b = Counters::new();
        b.record_msg_sent(200);
        b.misses_remote = 7;
        a.merge(&b);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.msg_bytes, 300);
        assert_eq!(a.cache_hits, 5);
        assert_eq!(a.misses_remote, 7);
    }

    #[test]
    fn diff_undoes_merge() {
        let mut before = Counters::new();
        before.record_msg_sent(100);
        before.cache_hits = 3;
        let mut step = Counters::new();
        step.record_msg_sent(5000);
        step.misses_remote = 9;
        step.barriers = 2;
        step.net_transfers = 4;
        step.net_links = 12;
        step.net_queued_ns = 777;
        step.net_bus_queued_ns = 55;
        step.net_hub_queued_ns = 44;
        let mut after = before.clone();
        after.merge(&step);
        assert_eq!(after.diff(&before), step);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "went backwards"))]
    fn diff_flags_backwards_counters() {
        let mut before = Counters::new();
        before.record_msg_sent(100);
        let mut after = before.clone();
        after.record_msg_sent(100);
        // Diffing the snapshots in the wrong order is a monotonicity
        // violation: loud in debug builds, saturating (not wrapping) in
        // release builds.
        let d = before.diff(&after);
        assert_eq!(d.msgs_sent, 0, "release builds saturate at zero");
    }

    #[test]
    fn ratios_handle_empty() {
        let c = Counters::new();
        assert_eq!(c.miss_ratio(), 0.0);
        assert_eq!(c.remote_miss_fraction(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let c = Counters {
            cache_hits: 90,
            misses_local: 5,
            misses_remote: 5,
            ..Counters::new()
        };
        assert!((c.miss_ratio() - 0.1).abs() < 1e-12);
        assert!((c.remote_miss_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn comm_byte_accounting() {
        let c = Counters {
            msg_bytes: 100,
            put_bytes: 50,
            get_bytes: 25,
            misses_remote: 3,
            ..Counters::new()
        };
        assert_eq!(c.explicit_comm_bytes(), 175);
        assert_eq!(c.implicit_comm_bytes(128), 384);
    }
}
