//! HDR-style log-linear latency histogram over virtual nanoseconds.
//!
//! Values are bucketed with 64 linear sub-buckets per power of two, the
//! layout HdrHistogram popularised: exact counts below 64 ns, then
//! `(octave, sub-bucket)` pairs up to `u64::MAX`, 3 776 buckets in all. A
//! bucket spans at most 1/64 ≈ 1.6 % of the values in it.
//!
//! A histogram holds only the buckets it has seen: one list of
//! `(bucket, count)` pairs, ascending by bucket, every count non-zero,
//! beside the exact sample count, sum and maximum. The list is canonical
//! — the same multiset of buckets gives the same list whatever order the
//! samples arrived in and however histograms were merged — so equality is
//! field-wise. Recording is a binary search, then an increment or an
//! insert; merging is a sorted merge; a quantile walks the list
//! cumulatively. Per-PE recording stays contention-free and
//! deterministic, and a PE pays for the buckets its samples reach, not
//! for the whole table: a P = 1 024 client that records two latencies
//! holds two pairs.
//!
//! Quantiles report the *upper bound* of the bucket holding the target
//! rank, clamped to the exact recorded maximum. Two invariants follow
//! (and are property-tested): quantiles are monotone in `q`, and no
//! quantile exceeds [`LatencyHist::max`].

use std::cmp::Ordering;

/// log2 of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 6;
/// Sub-buckets per octave (also the threshold below which values are
/// counted exactly).
const SUB: u64 = 1 << SUB_BITS;

/// Index of the bucket containing `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    (((shift + 1) << SUB_BITS) + ((v >> shift) as u32 & (SUB as u32 - 1))) as usize
}

/// Largest value falling into bucket `idx` (inclusive upper bound).
#[inline]
fn bucket_high(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let shift = (idx >> SUB_BITS) - 1;
    let low = (SUB + (idx & (SUB - 1))) << shift;
    // Parenthesised so the top bucket (low + 2^shift == 2^64) cannot
    // overflow before the subtraction.
    low + ((1u64 << shift) - 1)
}

/// A mergeable log-linear histogram of virtual-time latencies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHist {
    /// `(bucket, count)` for every bucket holding a sample, ascending by
    /// bucket; no count is zero.
    buckets: Vec<(usize, u64)>,
    total: u64,
    sum: u128,
    max: u64,
}

impl LatencyHist {
    /// An empty histogram. Allocation-free until the first sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample (ns).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.total += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
        let b = bucket_of(v);
        match self.buckets.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 += 1,
            Err(at) => self.buckets.insert(at, (b, 1)),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / u128::from(self.total)) as u64
        }
    }

    /// The value at quantile `q`: the upper bound of the bucket containing
    /// the sample of rank `ceil(q · count)`, clamped to the exact maximum.
    /// Monotone in `q`. Edge cases are defined, not accidental: an empty
    /// histogram returns 0 for every `q`; `q` outside `[0, 1]` clamps to
    /// the recorded range (`q ≤ 0` is the smallest sample's bucket,
    /// `q ≥ 1` the exact maximum); `NaN` clamps low like `q = 0`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one (a sorted merge of the two
    /// bucket lists, adding the counts of a bucket both hold).
    pub fn merge(&mut self, other: &LatencyHist) {
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        let (a, b) = (&self.buckets, &other.buckets);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.buckets = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Total buckets needed to cover `0..=u64::MAX`.
    const NBUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

    #[test]
    fn buckets_tile_the_u64_range() {
        // Bucket upper bounds are fixed points, and the next value after a
        // bound starts the next bucket — the buckets tile with no gaps.
        for idx in (0..NBUCKETS - 1).step_by(7) {
            let high = bucket_high(idx);
            assert_eq!(bucket_of(high), idx, "bound of bucket {idx} strays");
            assert_eq!(bucket_of(high + 1), idx + 1, "gap after bucket {idx}");
        }
        assert_eq!(bucket_high(NBUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 63, 64, 65, 127, 128, 129, 1000, 1 << 40, u64::MAX] {
            let i = bucket_of(v);
            assert!(v <= bucket_high(i), "v={v} above its bucket bound");
            if i > 0 {
                assert!(v > bucket_high(i - 1), "v={v} below its bucket");
            }
        }
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHist::new();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.count(), SUB);
        // rank ⌈0.5·64⌉ = 32 → the 32nd smallest of 0..64, which is 31.
        assert_eq!(h.quantile(0.5), SUB / 2 - 1);
        assert_eq!(h.max(), SUB - 1);
    }

    #[test]
    fn quantile_edge_cases_are_defined() {
        let empty = LatencyHist::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.quantile(q), 0, "empty histogram is 0 at q={q}");
        }
        let mut h = LatencyHist::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 10, "q = 0 is the smallest sample");
        assert_eq!(h.quantile(-3.0), h.quantile(0.0), "q below 0 clamps low");
        assert_eq!(h.quantile(7.5), 30, "q above 1 clamps to the max");
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0), "NaN clamps low");
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = LatencyHist::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        // p50 ≈ 1 µs within the ~1.6 % bucket resolution; p999 must see
        // the single outlier exactly (clamped to max).
        let p50 = h.quantile(0.50);
        assert!((1_000..=1_016).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(0.999), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut whole = LatencyHist::new();
        for v in [3u64, 77, 500, 80_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [9u64, 64, 1 << 30] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    /// The dense table the bucket list replaced: one counter per bucket
    /// from construction, queried by a walk over all of them. Kept as the
    /// reference the list must answer like.
    struct Dense {
        counts: Box<[u64; NBUCKETS]>,
        total: u64,
        sum: u128,
        max: u64,
    }

    impl Dense {
        fn new() -> Self {
            Dense {
                counts: Box::new([0; NBUCKETS]),
                total: 0,
                sum: 0,
                max: 0,
            }
        }

        fn record(&mut self, v: u64) {
            self.total += 1;
            self.sum += u128::from(v);
            self.max = self.max.max(v);
            self.counts[bucket_of(v)] += 1;
        }

        fn merge(&mut self, other: &Dense) {
            self.total += other.total;
            self.sum += other.sum;
            self.max = self.max.max(other.max);
            for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a += b;
            }
        }

        fn mean(&self) -> u64 {
            if self.total == 0 {
                0
            } else {
                (self.sum / u128::from(self.total)) as u64
            }
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
            let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_high(i).min(self.max);
                }
            }
            self.max
        }

        fn same(&self, other: &Dense) -> bool {
            (self.total, self.sum, self.max) == (other.total, other.sum, other.max)
                && self.counts == other.counts
        }
    }

    const QUERIES: [f64; 9] = [f64::NAN, -1.0, 0.0, 1e-9, 0.5, 0.99, 0.999, 1.0, 2.0];

    /// Every query of `h` answers as `d`'s, and `h`'s list is `d`'s
    /// non-zero buckets in order.
    fn agree(h: &LatencyHist, d: &Dense) -> Result<(), TestCaseError> {
        prop_assert_eq!(h.count(), d.total);
        prop_assert_eq!(h.max(), d.max);
        prop_assert_eq!(h.mean(), d.mean());
        for q in QUERIES {
            prop_assert_eq!(h.quantile(q), d.quantile(q), "q={}", q);
        }
        let nonzero: Vec<(usize, u64)> = (d.counts.iter().enumerate())
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        prop_assert_eq!(&h.buckets, &nonzero);
        Ok(())
    }

    /// A sample from `(kind, raw)`: a bucket edge or `u64::MAX`, a small
    /// value (so repeats are common), a value spread across the octaves,
    /// or anything.
    fn sample(kind: u8, raw: u64) -> u64 {
        const EDGES: [u64; 6] = [0, 63, 64, 127, 128, u64::MAX];
        match kind {
            0..=2 => EDGES[(raw % 6) as usize],
            3..=5 => raw % 200,
            6 | 7 => raw >> (raw % 64),
            _ => raw,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sample count is conserved: everything recorded is counted,
        /// exactly once, and survives an arbitrary merge split.
        #[test]
        fn count_conserved(values in proptest::collection::vec(0u64..u64::MAX, 0..300), split in 0usize..300) {
            let cut = split.min(values.len());
            let mut a = LatencyHist::new();
            let mut b = LatencyHist::new();
            for &v in &values[..cut] { a.record(v); }
            for &v in &values[cut..] { b.record(v); }
            a.merge(&b);
            prop_assert_eq!(a.count(), values.len() as u64);
        }

        /// Quantiles are monotone and bounded by the exact maximum:
        /// p50 ≤ p99 ≤ p999 ≤ max.
        #[test]
        fn quantiles_monotone(values in proptest::collection::vec(0u64..1_000_000_000_000, 1..300)) {
            let mut h = LatencyHist::new();
            let mut true_max = 0u64;
            for &v in &values { h.record(v); true_max = true_max.max(v); }
            let (p50, p99, p999) = (h.quantile(0.50), h.quantile(0.99), h.quantile(0.999));
            prop_assert!(p50 <= p99, "p50 {} > p99 {}", p50, p99);
            prop_assert!(p99 <= p999, "p99 {} > p999 {}", p99, p999);
            prop_assert!(p999 <= h.max(), "p999 {} > max {}", p999, h.max());
            prop_assert_eq!(h.max(), true_max);
        }

        /// A quantile never undershoots the true rank value by more than
        /// the bucket resolution (~1.6 %) and never exceeds it by more
        /// than the same bound.
        #[test]
        fn quantile_within_resolution(values in proptest::collection::vec(1u64..1_000_000_000, 1..200), qi in 0usize..5) {
            let q = [0.01, 0.25, 0.5, 0.9, 0.99][qi];
            let mut h = LatencyHist::new();
            let mut sorted = values.clone();
            for &v in &values { h.record(v); }
            sorted.sort_unstable();
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = sorted[rank - 1];
            let got = h.quantile(q);
            let tol = exact / 32 + 1; // 2^-5 ≥ one part in 64 resolution, plus rounding
            prop_assert!(got + tol >= exact && got <= exact + tol,
                "q={} got {} exact {}", q, got, exact);
        }

        /// The bucket list answers every query like the dense table, after
        /// every part is recorded and after every merge of a random merge
        /// tree; `==` on lists agrees with equality of the tables, and a
        /// list does not depend on the order its samples arrived in.
        #[test]
        fn the_list_matches_the_dense_table(
            samples in proptest::collection::vec((0u8..10, any::<u64>(), 0usize..6), 0..300),
            picks in proptest::collection::vec(any::<u64>(), 5),
        ) {
            let mut lists: Vec<LatencyHist> = (0..6).map(|_| LatencyHist::new()).collect();
            let mut denses: Vec<Dense> = (0..6).map(|_| Dense::new()).collect();
            for &(kind, raw, part) in &samples {
                let v = sample(kind, raw);
                lists[part].record(v);
                denses[part].record(v);
                agree(&lists[part], &denses[part])?;
            }
            for (a, b) in [(0, 1), (2, 3), (4, 5), (0, 5)] {
                prop_assert_eq!(lists[a] == lists[b], denses[a].same(&denses[b]));
            }
            let mut backwards = LatencyHist::new();
            for &(kind, raw, _) in samples.iter().rev() {
                backwards.record(sample(kind, raw));
            }
            // Merge two of the histograms left, at random, until one is.
            for pick in picks {
                let n = lists.len() as u64;
                let into = (pick % n) as usize;
                let from = ((pick / n) % (n - 1)) as usize;
                let from = if from >= into { from + 1 } else { from };
                let (list, dense) = (lists.remove(from), denses.remove(from));
                let into = if into > from { into - 1 } else { into };
                lists[into].merge(&list);
                denses[into].merge(&dense);
                agree(&lists[into], &denses[into])?;
            }
            prop_assert_eq!(&lists[0], &backwards);
        }
    }
}
