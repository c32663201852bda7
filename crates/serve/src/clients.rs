//! Deterministic open-loop client generator.
//!
//! Clients are *virtual-time event sources*, not PEs: each server PE owns
//! one client stream — a pre-drawn schedule of `(arrival, key)` pairs —
//! and admits requests when its virtual clock passes their arrival times.
//! The schedule is a pure function of `(ServeConfig, pe, pes)`, so a run
//! replays bitwise under the deterministic scheduler, and a million
//! requests cost only a million table lookups, not a million threads.
//!
//! Arrivals follow a Poisson-like process (exponential gaps around
//! [`crate::ServeConfig::mean_gap_ns`], clamped to bound pathological
//! tails); keys follow a power-law skew: a uniform draw `u` is mapped to
//! `⌊keys · u^skew⌋`, which is uniform at `skew = 1` and concentrates on
//! the low keys — and therefore on shard 0's node — as `skew` grows.

use machine::SimTime;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::ServeConfig;

/// One client request: admitted at `arrival`, looks up `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Virtual admission time (ns).
    pub arrival: SimTime,
    /// Key to look up.
    pub key: usize,
}

/// Exponential gaps longer than this multiple of the mean are clamped so
/// one extreme draw cannot stall a stream for a whole run.
const GAP_CLAMP: u64 = 20;

#[inline]
fn u01(x: u64) -> f64 {
    // 53 high bits → uniform in [0, 1).
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Number of requests in PE `pe`'s stream (total split as evenly as
/// possible, low PEs taking the remainder).
fn stream_len(cfg: &ServeConfig, pe: usize, pes: usize) -> u64 {
    let base = cfg.requests / pes as u64;
    let extra = cfg.requests % pes as u64;
    base + u64::from((pe as u64) < extra)
}

/// PE `pe`'s full client stream, arrival-ordered.
pub fn stream(cfg: &ServeConfig, pe: usize, pes: usize) -> Vec<Request> {
    let n = stream_len(cfg, pe, pes);
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed ^ (pe as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut t: SimTime = cfg.start_ns;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let gap_u: u64 = rng.gen();
        let gap = exp_gap(cfg.mean_gap_ns, u01(gap_u));
        t += gap;
        let key_u: u64 = rng.gen();
        out.push(Request {
            arrival: t,
            key: skewed_key(cfg.keys, cfg.skew, u01(key_u)),
        });
    }
    out
}

/// An exponential inter-arrival gap with the given mean, from a uniform
/// draw; at least 1 ns, clamped at [`GAP_CLAMP`]× the mean.
#[inline]
fn exp_gap(mean_ns: u64, u: f64) -> u64 {
    let gap = (-(1.0 - u).ln() * mean_ns as f64).round() as u64;
    gap.clamp(1, mean_ns.saturating_mul(GAP_CLAMP).max(1))
}

/// Map a uniform draw to a key with power-law skew (`skew = 1` uniform).
#[inline]
fn skewed_key(keys: usize, skew: f64, u: f64) -> usize {
    let v = if skew == 1.0 { u } else { u.powf(skew) };
    ((v * keys as f64) as usize).min(keys - 1)
}

/// The PE owning `key` under the contiguous block distribution.
#[inline]
pub fn owner_of(key: usize, keys: usize, pes: usize) -> usize {
    (key as u128 * pes as u128 / keys as u128) as usize
}

/// First key of PE `pe`'s shard.
#[inline]
pub fn shard_start(pe: usize, keys: usize, pes: usize) -> usize {
    (pe as u128 * keys as u128).div_ceil(pes as u128) as usize
}

/// Number of keys in PE `pe`'s shard.
#[inline]
pub fn shard_len(pe: usize, keys: usize, pes: usize) -> usize {
    shard_start(pe + 1, keys, pes) - shard_start(pe, keys, pes)
}

/// The largest shard size on the machine (symmetric-heap allocation size).
pub fn max_shard_len(keys: usize, pes: usize) -> usize {
    (0..pes).map(|p| shard_len(p, keys, pes)).max().unwrap_or(0)
}

/// Deterministic content of value word `w` of `key` (same in every
/// model's table, so cross-model checksums must agree bitwise).
#[inline]
pub fn value_word(seed: u64, key: usize, w: usize) -> u64 {
    splitmix64(seed ^ (key as u64).wrapping_mul(0xA24B_AED4_963E_E407) ^ ((w as u64) << 48))
}

#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServeConfig {
        ServeConfig {
            keys: 1024,
            requests: 10_000,
            ..ServeConfig::small()
        }
    }

    #[test]
    fn streams_are_deterministic_and_partition_requests() {
        let c = cfg();
        let pes = 7;
        let mut total = 0u64;
        for pe in 0..pes {
            let a = stream(&c, pe, pes);
            let b = stream(&c, pe, pes);
            assert_eq!(a, b, "stream must be a pure function of (cfg, pe)");
            assert_eq!(a.len() as u64, stream_len(&c, pe, pes));
            assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
            assert!(a.iter().all(|r| r.key < c.keys));
            total += a.len() as u64;
        }
        assert_eq!(total, c.requests, "requests conserved across streams");
    }

    #[test]
    fn shards_partition_the_keyspace() {
        for (keys, pes) in [(1024, 32), (1000, 7), (64, 64), (65, 3)] {
            let mut covered = 0;
            for p in 0..pes {
                let s = shard_start(p, keys, pes);
                let l = shard_len(p, keys, pes);
                assert_eq!(s, covered, "shards must be contiguous");
                for k in s..s + l {
                    assert_eq!(owner_of(k, keys, pes), p, "owner({k})");
                }
                covered += l;
            }
            assert_eq!(covered, keys);
            assert!(max_shard_len(keys, pes) >= keys / pes);
        }
    }

    #[test]
    fn skew_concentrates_on_low_keys() {
        let c = ServeConfig { skew: 3.0, ..cfg() };
        let u = cfg();
        let low = |s: &[Request]| s.iter().filter(|r| r.key < 128).count();
        let skewed: usize = (0..4).map(|p| low(&stream(&c, p, 4))).sum();
        let uniform: usize = (0..4).map(|p| low(&stream(&u, p, 4))).sum();
        assert!(
            skewed > uniform * 2,
            "skew 3.0 must pile onto the low keys ({skewed} vs {uniform})"
        );
    }

    #[test]
    fn gaps_average_near_the_mean() {
        let c = cfg();
        let s = stream(&c, 0, 1);
        let span = s.last().unwrap().arrival;
        let mean = span / c.requests;
        assert!(
            (c.mean_gap_ns / 2..=c.mean_gap_ns * 2).contains(&mean),
            "empirical mean gap {mean} vs configured {}",
            c.mean_gap_ns
        );
    }
}
