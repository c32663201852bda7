//! Per-PE event counters.
//!
//! Every runtime increments these alongside the time charges, so experiments
//! can report communication volume, remote-reference counts, message-size
//! histograms, and cache behaviour (the paper family's Figures on traffic).

/// Raw event counts for one PE (or, after [`Counters::merge`], a whole run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    // --- two-sided ---
    /// Messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent in messages.
    pub msg_bytes: u64,
    /// Messages received.
    pub msgs_recvd: u64,

    // --- one-sided ---
    /// Puts issued.
    pub puts: u64,
    /// Bytes written by puts.
    pub put_bytes: u64,
    /// Gets issued.
    pub gets: u64,
    /// Bytes read by gets.
    pub get_bytes: u64,
    /// Remote atomic operations.
    pub amos: u64,

    // --- shared address space ---
    /// Cache hits in the modelled cache.
    pub cache_hits: u64,
    /// Misses served by local memory.
    pub misses_local: u64,
    /// Misses served by a remote node.
    pub misses_remote: u64,
    /// Invalidation messages caused by this PE's writes.
    pub invalidations: u64,
    /// Write upgrades (line already present, needed exclusivity).
    pub upgrades: u64,

    // --- synchronisation ---
    /// Barrier episodes.
    pub barriers: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
    /// Cooperative-scheduler floor handoffs at this PE's yield points.
    pub sched_handoffs: u64,

    // --- request serving (nonzero only for o2k-serve workloads) ---
    /// Application-level client requests this PE looked up and answered
    /// (the serving side: the shard owner under MP, the requester under
    /// the one-sided and shared-memory models).
    pub requests_served: u64,
    /// Requests this PE claimed out of another PE's mailbox under the MP
    /// work-stealing mitigation (a subset of `requests_served`).
    pub requests_stolen: u64,
    /// Bytes this PE moved to build or refresh hot-shard read replicas
    /// (the replication mitigation's fan-out traffic).
    pub replica_bytes: u64,

    // --- interconnect contention (nonzero only under queued/fabric) ---
    /// Transfers this PE routed through the contended fabric.
    pub net_transfers: u64,
    /// Directed links those transfers traversed (hops + bristle ports).
    pub net_links: u64,
    /// Queueing delay this PE's transfers accrued on occupied links (ns).
    pub net_queued_ns: u64,
    /// Queueing delay accrued on shared node buses (ns); nonzero only
    /// under `ContentionMode::Fabric`.
    pub net_bus_queued_ns: u64,
    /// Queueing delay accrued on router hub/arbitration ports (ns);
    /// nonzero only under `ContentionMode::Fabric`.
    pub net_hub_queued_ns: u64,

    /// Message-size histogram buckets: counts of messages with payload in
    /// [0,64), [64,512), [512,4K), [4K,32K), [32K,∞) bytes.
    pub msg_size_hist: [u64; 5],
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
        let mut msg_size_hist = [0u64; 5];
        for (d, (a, b)) in msg_size_hist
            .iter_mut()
            .zip(self.msg_size_hist.iter().zip(earlier.msg_size_hist))
        {
            *d = mono_sub(*a, b, "msg_size_hist");
        }
        Counters {
            msgs_sent: mono_sub(self.msgs_sent, earlier.msgs_sent, "msgs_sent"),
            msg_bytes: mono_sub(self.msg_bytes, earlier.msg_bytes, "msg_bytes"),
            msgs_recvd: mono_sub(self.msgs_recvd, earlier.msgs_recvd, "msgs_recvd"),
            puts: mono_sub(self.puts, earlier.puts, "puts"),
            put_bytes: mono_sub(self.put_bytes, earlier.put_bytes, "put_bytes"),
            gets: mono_sub(self.gets, earlier.gets, "gets"),
            get_bytes: mono_sub(self.get_bytes, earlier.get_bytes, "get_bytes"),
            amos: mono_sub(self.amos, earlier.amos, "amos"),
            cache_hits: mono_sub(self.cache_hits, earlier.cache_hits, "cache_hits"),
            misses_local: mono_sub(self.misses_local, earlier.misses_local, "misses_local"),
            misses_remote: mono_sub(self.misses_remote, earlier.misses_remote, "misses_remote"),
            invalidations: mono_sub(self.invalidations, earlier.invalidations, "invalidations"),
            upgrades: mono_sub(self.upgrades, earlier.upgrades, "upgrades"),
            barriers: mono_sub(self.barriers, earlier.barriers, "barriers"),
            lock_acquires: mono_sub(self.lock_acquires, earlier.lock_acquires, "lock_acquires"),
            sched_handoffs: mono_sub(
                self.sched_handoffs,
                earlier.sched_handoffs,
                "sched_handoffs",
            ),
            requests_served: mono_sub(
                self.requests_served,
                earlier.requests_served,
                "requests_served",
            ),
            requests_stolen: mono_sub(
                self.requests_stolen,
                earlier.requests_stolen,
                "requests_stolen",
            ),
            replica_bytes: mono_sub(self.replica_bytes, earlier.replica_bytes, "replica_bytes"),
            net_transfers: mono_sub(self.net_transfers, earlier.net_transfers, "net_transfers"),
            net_links: mono_sub(self.net_links, earlier.net_links, "net_links"),
            net_queued_ns: mono_sub(self.net_queued_ns, earlier.net_queued_ns, "net_queued_ns"),
            net_bus_queued_ns: mono_sub(
                self.net_bus_queued_ns,
                earlier.net_bus_queued_ns,
                "net_bus_queued_ns",
            ),
            net_hub_queued_ns: mono_sub(
                self.net_hub_queued_ns,
                earlier.net_hub_queued_ns,
                "net_hub_queued_ns",
            ),
            msg_size_hist,
        }
    }

    /// Accumulate `other` into `self` (for whole-run aggregation).
    pub fn merge(&mut self, other: &Counters) {
        self.msgs_sent += other.msgs_sent;
        self.msg_bytes += other.msg_bytes;
        self.msgs_recvd += other.msgs_recvd;
        self.puts += other.puts;
        self.put_bytes += other.put_bytes;
        self.gets += other.gets;
        self.get_bytes += other.get_bytes;
        self.amos += other.amos;
        self.cache_hits += other.cache_hits;
        self.misses_local += other.misses_local;
        self.misses_remote += other.misses_remote;
        self.invalidations += other.invalidations;
        self.upgrades += other.upgrades;
        self.barriers += other.barriers;
        self.lock_acquires += other.lock_acquires;
        self.sched_handoffs += other.sched_handoffs;
        self.requests_served += other.requests_served;
        self.requests_stolen += other.requests_stolen;
        self.replica_bytes += other.replica_bytes;
        self.net_transfers += other.net_transfers;
        self.net_links += other.net_links;
        self.net_queued_ns += other.net_queued_ns;
        self.net_bus_queued_ns += other.net_bus_queued_ns;
        self.net_hub_queued_ns += other.net_hub_queued_ns;
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
