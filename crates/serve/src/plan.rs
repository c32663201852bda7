//! Deterministic hot-shard mitigation planning.
//!
//! Client streams are pure functions of `(ServeConfig, pe, pes)`, so every
//! PE — and every model — can derive the *same* per-shard demand profile
//! before a single request is issued. The plan marks shards whose demand
//! crosses [`HOT_FACTOR`]× the mean as **hot** and assigns each a small,
//! deterministic set of helper PEs spaced around the ring:
//!
//! * under [`Mitigation::Replicate`] the helpers hold read replicas and
//!   requests fan out over `{owner} ∪ helpers` by demand hash;
//! * under [`Mitigation::Steal`] (MP only) the helpers claim request
//!   batches out of the hot owner's mailbox while idle.
//!
//! Because the plan is a pure function of the config, all three models
//! agree on it bitwise, per-shard demand accounting stays keyed by the
//! *true* owner, and `Mitigation::Off` (or a run with no hot shards)
//! leaves every charge, schedule point, and RNG draw of the unmitigated
//! path untouched.

use crate::clients;
use crate::ServeConfig;

/// Hot-shard mitigation mode (see [`ServeConfig::mitigation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mitigation {
    /// No mitigation: the PR-6 serving paths, bitwise unchanged.
    Off,
    /// Replicated reads: each hot shard gets up to `replicas`
    /// deterministic read replicas and lookups fan out over
    /// owner+replicas by demand hash. All three models implement this
    /// (symmetric-heap copies, MP copy messages, CC-SAS home striping).
    Replicate {
        /// Read replicas per hot shard (helpers actually placed may be
        /// fewer on tiny teams).
        replicas: usize,
    },
    /// MP work stealing: helper PEs claim queued request batches from the
    /// hot owner's mailbox via the deterministic virtual-time claim in
    /// [`mp::MpWorld::steal_batch`]. The one-sided models have no server
    /// queue to steal from and treat this as `Off`.
    Steal,
}

/// Helpers assigned per hot shard under [`Mitigation::Steal`].
pub const STEAL_HELPERS: usize = 3;

/// A shard is hot when its demand exceeds this multiple of the mean.
pub const HOT_FACTOR: u64 = 2;

/// The mitigation plan: hot shards and their helper PEs, identical on
/// every PE and under every model. Empty when mitigation is off or no
/// shard crosses the threshold — and an empty plan is guaranteed to leave
/// the serving path byte-for-byte identical to [`Mitigation::Off`].
#[derive(Debug, Clone)]
pub struct MitPlan {
    mitigation: Mitigation,
    /// Hot shard owners, ascending.
    hot: Vec<usize>,
    /// Helper PEs per hot shard (same order as `hot`), owner excluded.
    helpers: Vec<Vec<usize>>,
    /// The most hot shards any one PE helps.
    replica_width: usize,
    /// Dense owner → index into `hot` / `helpers`.
    hot_index: Vec<Option<u32>>,
    seed: u64,
}

impl MitPlan {
    /// An inert plan (mitigation off).
    fn empty() -> Self {
        MitPlan {
            mitigation: Mitigation::Off,
            hot: Vec::new(),
            helpers: Vec::new(),
            replica_width: 0,
            hot_index: Vec::new(),
            seed: 0,
        }
    }

    /// Build the plan for `cfg` on a `pes`-wide team. Pure: regenerates
    /// the client streams to tally per-shard demand, so every caller
    /// (host-side, once per run) computes the identical plan.
    pub fn build(cfg: &ServeConfig, pes: usize) -> Self {
        if cfg.mitigation == Mitigation::Off || pes < 2 {
            return Self::empty();
        }
        let mut demand = vec![0u64; pes];
        for pe in 0..pes {
            for req in clients::stream(cfg, pe, pes) {
                demand[clients::owner_of(req.key, cfg.keys, pes)] += 1;
            }
        }
        let total: u64 = demand.iter().sum();
        // demand > HOT_FACTOR * mean, in integers: demand * pes > HF * total.
        let hot: Vec<usize> = (0..pes)
            .filter(|&s| demand[s] * pes as u64 > HOT_FACTOR * total)
            .collect();
        if hot.is_empty() {
            return Self::empty();
        }
        let is_hot: Vec<bool> = {
            let mut v = vec![false; pes];
            for &s in &hot {
                v[s] = true;
            }
            v
        };
        let want = match cfg.mitigation {
            Mitigation::Replicate { replicas } => replicas,
            Mitigation::Steal => STEAL_HELPERS,
            Mitigation::Off => unreachable!("handled above"),
        };
        let helpers: Vec<Vec<usize>> = hot
            .iter()
            .map(|&s| pick_helpers(s, want, pes, &is_hot))
            .collect();
        let mut helps = vec![0usize; pes];
        for &t in helpers.iter().flatten() {
            helps[t] += 1;
        }
        let replica_width = helps.into_iter().max().unwrap_or(0);
        let mut hot_index = vec![None; pes];
        for (i, &s) in hot.iter().enumerate() {
            hot_index[s] = Some(i as u32);
        }
        MitPlan {
            mitigation: cfg.mitigation,
            hot,
            helpers,
            replica_width,
            hot_index,
            seed: cfg.seed,
        }
    }

    /// The mode this plan was built for ([`Mitigation::Off`] when empty).
    pub fn mitigation(&self) -> Mitigation {
        self.mitigation
    }

    /// True when no shard is hot (the plan is inert).
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// Hot shard owners, ascending.
    pub fn hot_shards(&self) -> &[usize] {
        &self.hot
    }

    /// Index of `owner` in [`MitPlan::hot_shards`], if hot.
    pub fn hot_index(&self, owner: usize) -> Option<usize> {
        self.hot_index
            .get(owner)
            .copied()
            .flatten()
            .map(|i| i as usize)
    }

    /// Helper PEs for hot shard number `h` (in `hot_shards` order).
    pub fn helpers(&self, h: usize) -> &[usize] {
        &self.helpers[h]
    }

    /// Replica slots in a PE's copy of a symmetric replica region: the
    /// most hot shards any one PE helps — 1 unless two hot shards' helper
    /// rings meet at a PE, 0 for an empty plan. Not one slot per hot
    /// shard: a helper stores only the shards it helps.
    pub fn replica_width(&self) -> usize {
        self.replica_width
    }

    /// The replica slot in which helper `pe` keeps hot shard number `h`'s
    /// copy — the shard's rank among those `pe` helps, in hot-shard order
    /// — or `None` if `pe` does not help it.
    pub fn replica_slot(&self, h: usize, pe: usize) -> Option<usize> {
        self.helpers[h].contains(&pe).then(|| {
            (self.helpers[..h].iter())
                .filter(|hs| hs.contains(&pe))
                .count()
        })
    }

    /// Hot owners PE `me` helps (its steal victims / replica sources),
    /// ascending.
    pub fn victims_of(&self, me: usize) -> Vec<usize> {
        self.hot
            .iter()
            .zip(&self.helpers)
            .filter(|(_, hs)| hs.contains(&me))
            .map(|(&s, _)| s)
            .collect()
    }

    /// The PE a lookup of `key` (owned by `owner`, arriving at `arrival`)
    /// is routed to under replication: the owner itself when the shard is
    /// not hot, otherwise a demand-hashed pick from `{owner} ∪ helpers`.
    /// Pure, so every model routes the same request identically. Only
    /// [`Mitigation::Replicate`] redirects: under `Steal` the request
    /// still goes home and helpers pull work out of the owner's mailbox
    /// instead.
    pub fn route(&self, owner: usize, key: usize, arrival: u64) -> usize {
        if !matches!(self.mitigation, Mitigation::Replicate { .. }) {
            return owner;
        }
        let Some(h) = self.hot_index(owner) else {
            return owner;
        };
        let set = &self.helpers[h];
        if set.is_empty() {
            return owner;
        }
        let hash = clients::splitmix64(
            self.seed
                ^ (key as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
                ^ arrival.wrapping_mul(0xCA5A_8268_85B3_12F1),
        );
        let pick = (hash % (set.len() as u64 + 1)) as usize;
        if pick == 0 {
            owner
        } else {
            set[pick - 1]
        }
    }
}

/// Up to `want` helper PEs for hot shard `s`, spaced evenly around the
/// ring and skipping the owner, other hot owners, and duplicates.
fn pick_helpers(s: usize, want: usize, pes: usize, is_hot: &[bool]) -> Vec<usize> {
    let step = (pes / (want + 1)).max(1);
    let mut out = Vec::with_capacity(want);
    for k in 1..=want {
        let mut t = (s + k * step) % pes;
        let mut tries = 0;
        while (t == s || is_hot[t] || out.contains(&t)) && tries < pes {
            t = (t + 1) % pes;
            tries += 1;
        }
        if t != s && !is_hot[t] && !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_cfg(mitigation: Mitigation) -> ServeConfig {
        ServeConfig {
            skew: 3.0,
            mitigation,
            ..ServeConfig::small()
        }
    }

    #[test]
    fn off_and_uniform_plans_are_inert() {
        let off = MitPlan::build(&ServeConfig::small(), 16);
        assert!(off.is_empty());
        // Uniform keys: nothing crosses 2x the mean demand.
        let uniform = MitPlan::build(
            &ServeConfig {
                mitigation: Mitigation::Replicate { replicas: 3 },
                ..ServeConfig::small()
            },
            16,
        );
        assert!(uniform.is_empty());
        assert_eq!(uniform.route(3, 100, 5_000), 3, "inert plan routes home");
    }

    #[test]
    fn skew_marks_shard_zero_hot_with_disjoint_helpers() {
        let plan = MitPlan::build(&skewed_cfg(Mitigation::Replicate { replicas: 3 }), 16);
        assert!(!plan.is_empty());
        assert!(plan.hot_shards().contains(&0), "skew 3.0 melts shard 0");
        for (h, &s) in plan.hot_shards().iter().enumerate() {
            let helpers = plan.helpers(h);
            assert!(!helpers.is_empty() && helpers.len() <= 3);
            assert!(!helpers.contains(&s), "owner is not its own helper");
            for &t in helpers {
                assert!(
                    plan.hot_index(t).is_none(),
                    "a melting owner must not also be a helper"
                );
            }
            let mut dedup = helpers.to_vec();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), helpers.len(), "helpers are distinct");
        }
    }

    #[test]
    fn route_spreads_hot_traffic_and_is_pure() {
        let cfg = skewed_cfg(Mitigation::Replicate { replicas: 3 });
        let plan = MitPlan::build(&cfg, 16);
        let again = MitPlan::build(&cfg, 16);
        let hot = plan.hot_shards()[0];
        let mut per_target = std::collections::HashMap::new();
        for i in 0..4_000u64 {
            let t = plan.route(hot, (i % 17) as usize, i * 37);
            assert_eq!(t, again.route(hot, (i % 17) as usize, i * 37), "pure");
            *per_target.entry(t).or_insert(0u64) += 1;
        }
        let n_targets = plan.helpers(plan.hot_index(hot).unwrap()).len() + 1;
        assert_eq!(per_target.len(), n_targets, "every target sees traffic");
        let max = *per_target.values().max().unwrap();
        assert!(
            max < 4_000 * 2 / n_targets as u64,
            "demand hash must spread, not pile ({per_target:?})"
        );
    }

    #[test]
    fn a_helper_keeps_each_shard_it_helps_in_a_slot_of_its_own() {
        let plan = MitPlan::build(&skewed_cfg(Mitigation::Replicate { replicas: 3 }), 16);
        assert!(plan.replica_width() >= 1);
        for pe in 0..16 {
            let slots: Vec<usize> = (0..plan.hot_shards().len())
                .filter_map(|h| plan.replica_slot(h, pe))
                .collect();
            assert_eq!(slots, (0..slots.len()).collect::<Vec<_>>(), "PE {pe}");
            assert!(slots.len() <= plan.replica_width());
        }
        // Two hot shards whose helper rings meet at PE 5: it keeps shard
        // 0's copy in slot 0 and shard 4's in slot 1; everyone else uses
        // slot 0.
        let met = MitPlan {
            mitigation: Mitigation::Replicate { replicas: 2 },
            hot: vec![0, 4],
            helpers: vec![vec![2, 5], vec![5, 7]],
            replica_width: 2,
            hot_index: vec![Some(0), None, None, None, Some(1), None, None, None],
            seed: 0,
        };
        assert_eq!(met.replica_slot(0, 5), Some(0));
        assert_eq!(met.replica_slot(1, 5), Some(1));
        assert_eq!(met.replica_slot(1, 7), Some(0));
        assert_eq!(met.replica_slot(1, 2), None, "PE 2 does not help shard 4");
    }

    #[test]
    fn steal_plan_inverts_to_victims() {
        let plan = MitPlan::build(&skewed_cfg(Mitigation::Steal), 16);
        assert!(!plan.is_empty());
        let hot = plan.hot_shards()[0];
        assert_eq!(
            plan.route(hot, 3, 999),
            hot,
            "steal never reroutes requests — helpers pull instead"
        );
        let mut covered = 0;
        for pe in 0..16 {
            for v in plan.victims_of(pe) {
                let h = plan.hot_index(v).expect("victims are hot owners");
                assert!(plan.helpers(h).contains(&pe));
                covered += 1;
            }
        }
        let total: usize = (0..plan.hot_shards().len())
            .map(|h| plan.helpers(h).len())
            .sum();
        assert_eq!(covered, total, "victims_of is the exact inverse");
    }
}
