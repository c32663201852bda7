//! Virtual time: per-PE clocks with categorised accounting.
//!
//! All model runtimes charge their costs to a [`Clock`]. Time is measured in
//! integer nanoseconds ([`SimTime`]) so the model is exactly deterministic.

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// Category a span of simulated time is attributed to.
///
/// Mirrors the execution-time breakdown reported by the paper family
/// (busy / local memory / remote communication / synchronisation wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeCat {
    /// CPU computation.
    Busy,
    /// Local memory hierarchy (cache misses served on the local node).
    Local,
    /// Remote communication: messages, puts/gets, remote cache misses.
    Remote,
    /// Waiting at barriers or for messages to arrive.
    Sync,
}

/// Accumulated per-category time. Sums to the clock's final value minus its
/// starting value when every advance is categorised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    pub busy: SimTime,
    pub local: SimTime,
    pub remote: SimTime,
    pub sync: SimTime,
}

impl TimeBreakdown {
    /// Total categorised time.
    #[inline]
    pub fn total(&self) -> SimTime {
        self.busy + self.local + self.remote + self.sync
    }

    /// Element-wise sum of two breakdowns.
    pub fn merged(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            busy: self.busy + other.busy,
            local: self.local + other.local,
            remote: self.remote + other.remote,
            sync: self.sync + other.sync,
        }
    }

    /// Fraction of total time in each category, as `(busy, local, remote,
    /// sync)`. Returns zeros for an empty breakdown.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let t = t as f64;
        (
            self.busy as f64 / t,
            self.local as f64 / t,
            self.remote as f64 / t,
            self.sync as f64 / t,
        )
    }
}

/// A PE's virtual clock.
///
/// Monotone; every advance is attributed to a [`TimeCat`] so the final
/// [`TimeBreakdown`] accounts for the whole run.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
    breakdown: TimeBreakdown,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Categorised accounting so far.
    #[inline]
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }

    /// Advance by `ns`, attributed to `cat`.
    #[inline]
    pub fn advance(&mut self, ns: SimTime, cat: TimeCat) {
        self.now += ns;
        match cat {
            TimeCat::Busy => self.breakdown.busy += ns,
            TimeCat::Local => self.breakdown.local += ns,
            TimeCat::Remote => self.breakdown.remote += ns,
            TimeCat::Sync => self.breakdown.sync += ns,
        }
    }

    /// Advance to absolute time `t` if `t` is in the future, attributing the
    /// gap to `cat` (typically [`TimeCat::Sync`] for waiting). No-op if `t`
    /// is in the past: clocks never run backwards.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime, cat: TimeCat) {
        if t > self.now {
            let gap = t - self.now;
            self.advance(gap, cat);
        }
    }

    /// Rebuild a clock from checkpointed state. `now` must equal the
    /// breakdown's total (every advance is categorised, so a consistent
    /// snapshot always satisfies this).
    pub fn restore(now: SimTime, breakdown: TimeBreakdown) -> Self {
        debug_assert_eq!(now, breakdown.total(), "uncategorised clock time");
        Clock { now, breakdown }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates_by_category() {
        let mut c = Clock::new();
        c.advance(10, TimeCat::Busy);
        c.advance(5, TimeCat::Remote);
        c.advance(1, TimeCat::Sync);
        assert_eq!(c.now(), 16);
        let b = c.breakdown();
        assert_eq!(b.busy, 10);
        assert_eq!(b.remote, 5);
        assert_eq!(b.sync, 1);
        assert_eq!(b.local, 0);
        assert_eq!(b.total(), 16);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut c = Clock::new();
        c.advance(100, TimeCat::Busy);
        c.advance_to(50, TimeCat::Sync); // in the past: no-op
        assert_eq!(c.now(), 100);
        assert_eq!(c.breakdown().sync, 0);
        c.advance_to(130, TimeCat::Sync);
        assert_eq!(c.now(), 130);
        assert_eq!(c.breakdown().sync, 30);
    }

    #[test]
    fn breakdown_total_matches_clock() {
        let mut c = Clock::new();
        for i in 0..100u64 {
            let cat = match i % 4 {
                0 => TimeCat::Busy,
                1 => TimeCat::Local,
                2 => TimeCat::Remote,
                _ => TimeCat::Sync,
            };
            c.advance(i, cat);
        }
        assert_eq!(c.breakdown().total(), c.now());
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut c = Clock::new();
        c.advance(30, TimeCat::Busy);
        c.advance(20, TimeCat::Local);
        c.advance(40, TimeCat::Remote);
        c.advance(10, TimeCat::Sync);
        let (b, l, r, s) = c.breakdown().fractions();
        assert!((b + l + r + s - 1.0).abs() < 1e-12);
        assert!((b - 0.3).abs() < 1e-12);
        assert!((r - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merged_adds_elementwise() {
        let a = TimeBreakdown {
            busy: 1,
            local: 2,
            remote: 3,
            sync: 4,
        };
        let b = TimeBreakdown {
            busy: 10,
            local: 20,
            remote: 30,
            sync: 40,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            TimeBreakdown {
                busy: 11,
                local: 22,
                remote: 33,
                sync: 44
            }
        );
    }

    #[test]
    fn empty_fractions_are_zero() {
        assert_eq!(TimeBreakdown::default().fractions(), (0.0, 0.0, 0.0, 0.0));
    }
}
