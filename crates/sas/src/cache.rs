//! Per-PE set-associative cache simulator.
//!
//! Tracks which (region, line) pairs a PE currently holds and at which
//! directory version, with LRU replacement within each set. It answers
//! probes and keeps no statistics of its own: whether an access was a hit,
//! a local or a remote miss, or an upgrade is decided by the runtime
//! against the directory, and counted once, in `machine::Counters`. A
//! cached copy whose directory version has moved on was invalidated by
//! another PE's write: the runtime purges it and the access misses.
//!
//! LRU is an order, not a clock: each set keeps its valid lines most
//! recent first, its invalid ways after them. A hit moves its line to way
//! 0 (a no-op when it is there already, as it is for a PE that keeps
//! touching one line), an insert enters at way 0, and the victim of a
//! full set is its last way — the line a per-access tick would have
//! found with the oldest stamp, since no two stamps are equal.

/// Identity of a cached line: region id in the high bits, line index low.
pub type LineTag = u64;

/// Pack a region id and line index into a [`LineTag`].
#[inline]
pub fn line_tag(region: u32, line: u64) -> LineTag {
    (u64::from(region) << 40) | (line & 0xFF_FFFF_FFFF)
}

/// A way's `state` bit: the way holds a line.
const VALID: u64 = 0b01;
/// A way's `state` bit: this PE wrote the line and holds it exclusively.
const DIRTY: u64 = 0b10;

/// One way, 16 bytes: the line and `version << 2 | dirty << 1 | valid`,
/// where `version` is the directory version the copy corresponds to. An
/// invalid way is all zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Way {
    tag: LineTag,
    state: u64,
}

impl Way {
    #[inline]
    fn holds(self, tag: LineTag) -> bool {
        self.tag == tag && self.state & VALID != 0
    }

    #[inline]
    fn is_valid(self) -> bool {
        self.state & VALID != 0
    }
}

/// Result of probing the cache for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Present at the given version; `dirty` reports exclusive ownership.
    Hit { version: u64, dirty: bool },
    /// Not present (never loaded, evicted, or invalidated and purged).
    Miss,
}

/// Evicted line returned by [`CacheSim::insert`] when a set overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Which line was displaced.
    pub tag: LineTag,
    /// Whether the displaced copy was dirty (costs a writeback).
    pub dirty: bool,
}

/// Make way `i` the first of `ways`, the ways before it moving back one.
/// Swaps, not a `copy_within`: a set is too few ways to pay a `memmove`
/// call for.
#[inline]
fn to_front(ways: &mut [Way], i: usize) {
    for k in (1..=i).rev() {
        ways.swap(k, k - 1);
    }
}

/// The set `tag` maps to among `num_sets` (a power of two): a
/// multiplicative hash spreads region/line structure across sets.
#[inline]
fn set_index(tag: LineTag, num_sets: usize) -> usize {
    let h = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h as usize) & (num_sets - 1)
}

/// The most sets a [`CacheSim`] has: 2¹⁵, the largest power of two whose
/// last group number — `num_sets`, once every set holds a line — fits
/// `slot`'s 16 bits. An 8 MiB cache at 128 B lines and 2 ways.
const MAX_SETS: usize = 1 << 15;

/// A set-associative, LRU, version-tagged cache model.
///
/// Only the sets a line has landed in are stored: a 4 MiB cache is 16 384
/// sets, a PE of a P = 256 serving run touches about a thousand, and a set
/// no line ever reached answers every probe with a miss whether or not
/// its ways exist. `slot` holds two bytes per set, its group number; the
/// ways of the sets that have been inserted into live in `ways`, in
/// first-touch order, behind one group of empty ways that every untouched
/// set shares.
#[derive(Debug)]
pub struct CacheSim {
    /// Per set: the number of its group of `assoc` ways in `ways`, which
    /// start at `group × assoc`. `0` — the shared empty group — until a
    /// line lands in the set.
    slot: Vec<u16>,
    /// Group 0 is `assoc` ways that are never written (all invalid, all
    /// zero); group `k > 0` is the `k`-th set to have been inserted into,
    /// its valid ways most recent first.
    ways: Vec<Way>,
    num_sets: usize,
    assoc: usize,
}

impl CacheSim {
    /// A cache of `capacity_bytes` with `line_bytes` lines and `assoc` ways.
    /// The number of sets is rounded down to a power of two (at least 1).
    ///
    /// # Panics
    /// Panics if the geometry has more than 2¹⁵ sets: `slot` holds 16-bit
    /// group numbers.
    pub fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        let lines = (capacity_bytes / line_bytes.max(1)).max(1);
        let assoc = assoc.clamp(1, lines);
        // Round the set count down to a power of two so indexing can mask.
        let raw_sets = (lines / assoc).max(1);
        let num_sets = if raw_sets.is_power_of_two() {
            raw_sets
        } else {
            raw_sets.next_power_of_two() / 2
        };
        assert!(
            num_sets <= MAX_SETS,
            "cache_bytes {capacity_bytes} / line_bytes {line_bytes} / {assoc} ways is \
             {num_sets} sets; a set's group number is 16 bits, so a cache has at most \
             {MAX_SETS} sets"
        );
        CacheSim {
            slot: vec![0; num_sets],
            ways: vec![Way::default(); assoc],
            num_sets,
            assoc,
        }
    }

    #[inline]
    fn set_of(&self, tag: LineTag) -> usize {
        set_index(tag, self.num_sets)
    }

    /// The ways of `set` — the shared empty group while no line has landed
    /// in it, so only [`Self::materialise`]'s result may be written to.
    #[inline]
    fn ways_of(&mut self, set: usize) -> &mut [Way] {
        let at = usize::from(self.slot[set]) * self.assoc;
        &mut self.ways[at..at + self.assoc]
    }

    /// The ways of `set`, given a group of their own on the first insert.
    #[inline]
    fn materialise(&mut self, set: usize) -> &mut [Way] {
        if self.slot[set] == 0 {
            self.add_group(set);
        }
        self.ways_of(set)
    }

    #[cold]
    fn add_group(&mut self, set: usize) {
        // At most `num_sets` groups after group 0; `new` checked that the
        // last one's number fits.
        self.slot[set] = (self.ways.len() / self.assoc) as u16;
        self.ways
            .extend(std::iter::repeat_n(Way::default(), self.assoc));
    }

    /// Look for `tag`; a hit makes it the most recent line of its set.
    #[inline]
    pub fn probe(&mut self, tag: LineTag) -> Probe {
        let set = self.set_of(tag);
        let ways = self.ways_of(set);
        let Some(i) = ways.iter().position(|w| w.holds(tag)) else {
            return Probe::Miss;
        };
        let hit = ways[i];
        to_front(ways, i);
        Probe::Hit {
            version: hit.state >> 2,
            dirty: hit.state & DIRTY != 0,
        }
    }

    /// Insert (or update) `tag` at `version` as the most recent line of
    /// its set; returns any displaced line. Versions are below 2⁶².
    pub fn insert(&mut self, tag: LineTag, version: u64, dirty: bool) -> Option<Evicted> {
        debug_assert!(version < 1 << 62, "version {version} does not fit 62 bits");
        let fresh = Way {
            tag,
            state: (version << 2) | (u64::from(dirty) << 1) | VALID,
        };
        let set = self.set_of(tag);
        let ways = self.materialise(set);
        // The line itself if present, else the last way: a free one while
        // the set has room (invalid ways trail), its LRU line once full.
        let (i, evicted) = match ways.iter().position(|w| w.holds(tag)) {
            Some(i) => (i, None),
            None => {
                let last = ways[ways.len() - 1];
                let evicted = last.is_valid().then_some(Evicted {
                    tag: last.tag,
                    dirty: last.state & DIRTY != 0,
                });
                (ways.len() - 1, evicted)
            }
        };
        to_front(ways, i);
        ways[0] = fresh;
        evicted
    }

    /// Drop `tag` if present (used when the runtime observes a stale
    /// version: the copy is conceptually invalid).
    pub fn purge(&mut self, tag: LineTag) {
        let set = self.set_of(tag);
        let ways = self.ways_of(set);
        if let Some(i) = ways.iter().position(|w| w.holds(tag)) {
            ways.copy_within(i + 1.., i);
            ways[ways.len() - 1] = Way::default();
        }
    }

    /// Invalidate everything (e.g. between timed phases).
    pub fn clear(&mut self) {
        self.ways.fill(Way::default());
    }

    /// Dump the cache state as plain words, for checkpoints: the geometry
    /// (sets, ways), then each set that holds a valid line, in ascending
    /// set order, as its index, its line count `n`, and `n` `(tag, state)`
    /// pairs most recent first. The words are canonical: two caches that
    /// answer every probe and evict alike export the same words. Restoring
    /// with [`CacheSim::import_words`] makes the post-restore probe answers
    /// bitwise-identical to an uninterrupted run's.
    pub fn export_words(&self) -> Vec<u64> {
        let mut out = vec![self.num_sets as u64, self.assoc as u64];
        for (set, &group) in self.slot.iter().enumerate() {
            let at = usize::from(group) * self.assoc;
            let ways = &self.ways[at..at + self.assoc];
            let n = ways.iter().take_while(|w| w.is_valid()).count();
            if n > 0 {
                out.extend([set as u64, n as u64]);
                out.extend(ways[..n].iter().flat_map(|w| [w.tag, w.state]));
            }
        }
        out
    }

    /// Restore state captured by [`CacheSim::export_words`]. Only the sets
    /// the words list are materialised.
    ///
    /// # Errors
    /// Errors (leaving the cache untouched) on a geometry that disagrees
    /// with this cache's, on words that are not canonical — a set past the
    /// table, sets out of ascending order, a set listing no line or more
    /// than `assoc`, a way that is not valid, a tag that does not hash to
    /// its set, a tag listed twice — and on truncated or trailing words.
    pub fn import_words(&mut self, words: &[u64]) -> Result<(), String> {
        let &[sets, assoc, ref rest @ ..] = words else {
            return Err(format!(
                "cache snapshot has {} words, expected its geometry",
                words.len()
            ));
        };
        if (sets, assoc) != (self.num_sets as u64, self.assoc as u64) {
            return Err(format!(
                "cache snapshot geometry {sets}x{assoc}, cache is {}x{}",
                self.num_sets, self.assoc
            ));
        }
        let mut slot = vec![0u16; self.num_sets];
        let mut ways = vec![Way::default(); self.assoc];
        let (mut rest, mut prev) = (rest, None);
        while !rest.is_empty() {
            let &[set, n, ref tail @ ..] = rest else {
                return Err("cache snapshot ends inside a set's header".into());
            };
            if set >= self.num_sets as u64 {
                return Err(format!(
                    "cache snapshot set {set} is past the cache's {} sets",
                    self.num_sets
                ));
            }
            if let Some(prev) = prev.filter(|&p| set <= p) {
                return Err(format!(
                    "cache snapshot set {set} follows set {prev}: sets must ascend"
                ));
            }
            if n == 0 || n > self.assoc as u64 {
                return Err(format!(
                    "cache snapshot set {set} lists {n} lines, a set holds 1 to {}",
                    self.assoc
                ));
            }
            let Some((held, after)) = tail.split_at_checked(2 * n as usize) else {
                return Err(format!("cache snapshot set {set} is truncated"));
            };
            let group = ways.len();
            for (k, pair) in held.chunks_exact(2).enumerate() {
                let (tag, state) = (pair[0], pair[1]);
                if state & VALID == 0 {
                    return Err(format!(
                        "cache snapshot set {set} way {k}: state {state:#x} is not a valid line"
                    ));
                }
                let home = set_index(tag, self.num_sets);
                if home as u64 != set {
                    return Err(format!(
                        "cache snapshot set {set} way {k}: tag {tag:#x} belongs to set {home}"
                    ));
                }
                if ways[group..].iter().any(|w| w.tag == tag) {
                    return Err(format!(
                        "cache snapshot set {set} way {k}: tag {tag:#x} is listed twice"
                    ));
                }
                ways.push(Way { tag, state });
            }
            ways.resize(group + self.assoc, Way::default());
            slot[set as usize] = (group / self.assoc) as u16;
            prev = Some(set);
            rest = after;
        }
        self.slot = slot;
        self.ways = ways;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheSim {
        // 8 lines of 64 B, 2-way → 4 sets.
        CacheSim::new(512, 64, 2)
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.assoc, 2);
        assert!(c.num_sets.is_power_of_two());
        assert_eq!(c.num_sets * c.assoc, 8);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let t = line_tag(0, 5);
        assert_eq!(c.probe(t), Probe::Miss);
        assert_eq!(c.insert(t, 1, false), None);
        assert_eq!(
            c.probe(t),
            Probe::Hit {
                version: 1,
                dirty: false
            }
        );
    }

    #[test]
    fn insert_updates_in_place() {
        let mut c = tiny();
        let t = line_tag(0, 5);
        c.insert(t, 1, false);
        assert_eq!(c.insert(t, 2, true), None);
        assert_eq!(
            c.probe(t),
            Probe::Hit {
                version: 2,
                dirty: true
            }
        );
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Find three tags mapping to the same set.
        let mut same_set = Vec::new();
        let probe_set = |c: &CacheSim, t: LineTag| c.set_of(t);
        let target = probe_set(&c, line_tag(0, 0));
        for line in 0..10_000u64 {
            let t = line_tag(0, line);
            if probe_set(&c, t) == target {
                same_set.push(t);
                if same_set.len() == 3 {
                    break;
                }
            }
        }
        let [a, b, x] = same_set[..] else {
            panic!("need 3 colliding tags")
        };
        c.insert(a, 1, true);
        c.insert(b, 1, false);
        c.probe(a); // refresh a → b becomes LRU
        let ev = c.insert(x, 1, false).expect("set overflow evicts");
        assert_eq!(ev.tag, b);
        assert!(!ev.dirty);
        assert_eq!(
            c.probe(a),
            Probe::Hit {
                version: 1,
                dirty: true
            }
        );
        assert_eq!(c.probe(b), Probe::Miss);
    }

    #[test]
    fn purge_removes() {
        let mut c = tiny();
        let t = line_tag(3, 7);
        c.insert(t, 1, false);
        c.purge(t);
        assert_eq!(c.probe(t), Probe::Miss);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = tiny();
        for line in 0..8 {
            c.insert(line_tag(0, line), 1, false);
        }
        c.clear();
        for line in 0..8 {
            assert_eq!(c.probe(line_tag(0, line)), Probe::Miss);
        }
    }

    #[test]
    fn distinct_regions_do_not_collide_logically() {
        let mut c = tiny();
        let t0 = line_tag(0, 1);
        let t1 = line_tag(1, 1);
        c.insert(t0, 5, false);
        c.insert(t1, 9, true);
        assert_eq!(
            c.probe(t0),
            Probe::Hit {
                version: 5,
                dirty: false
            }
        );
        assert_eq!(
            c.probe(t1),
            Probe::Hit {
                version: 9,
                dirty: true
            }
        );
    }

    #[test]
    fn export_import_words_roundtrips_exactly() {
        let mut c = tiny();
        c.insert(line_tag(0, 1), 3, true);
        c.probe(line_tag(0, 1)); // hit
        c.probe(line_tag(2, 9)); // miss
        let words = c.export_words();
        let mut d = tiny();
        d.import_words(&words).unwrap();
        assert_eq!(d.export_words(), words);
        assert_eq!(
            d.probe(line_tag(0, 1)),
            Probe::Hit {
                version: 3,
                dirty: true
            }
        );
        // Geometry mismatch and truncation are rejected, state untouched.
        let mut other = CacheSim::new(1024, 64, 2);
        assert!(other.import_words(&words).is_err());
        let before = d.export_words();
        assert!(d.import_words(&words[..words.len() - 1]).is_err());
        assert_eq!(d.export_words(), before);
    }

    #[test]
    fn sets_no_line_landed_in_cost_nothing_and_survive_a_snapshot() {
        // The Origin2000 geometry: 4 MiB, 128 B lines, 2-way.
        let geometry = || CacheSim::new(4 << 20, 128, 2);
        let mut c = geometry();
        assert_eq!((c.slot.len(), c.ways.len()), (16_384, c.assoc));
        for line in 0..5 {
            c.insert(line_tag(1, line), line + 1, line % 2 == 0);
        }
        c.purge(line_tag(1, 3)); // a touched set may hold no line now
        assert_eq!(c.probe(line_tag(7, 7)), Probe::Miss); // a set still absent
        let held = c.ways.len();
        assert!(held <= (1 + 5) * c.assoc, "only the touched sets exist");

        // Only the sets holding a line are written: index, count, and a
        // (tag, state) pair per line.
        let sets: std::collections::BTreeSet<usize> =
            [0, 1, 2, 4].map(|line| c.set_of(line_tag(1, line))).into();
        let words = c.export_words();
        assert_eq!(
            words.len(),
            2 + 2 * sets.len() + 2 * 4,
            "the sparse wire format"
        );
        let mut d = geometry();
        d.import_words(&words).unwrap();
        assert_eq!(
            d.ways.len(),
            (1 + sets.len()) * d.assoc,
            "only listed sets exist"
        );
        assert_eq!(d.export_words(), words);

        // A cleared cache is its geometry alone, and imports as untouched.
        c.clear();
        let cleared = c.export_words();
        assert_eq!(cleared, [16_384, 2]);
        d.import_words(&cleared).unwrap();
        assert_eq!(d.ways.len(), d.assoc);
        assert_eq!(d.probe(line_tag(1, 0)), Probe::Miss);
        // Importing over a populated cache forgets what it held.
        d.insert(line_tag(9, 9), 1, true);
        d.import_words(&words).unwrap();
        assert_eq!(d.export_words(), words);
    }

    /// A `tiny()` line's state word at version 1, clean.
    const CLEAN_V1: u64 = (1 << 2) | VALID;

    /// The first `n` tags of region 0 that hash to `set` of `tiny()`.
    fn tags_in(set: usize, n: usize) -> Vec<LineTag> {
        (0..)
            .map(|line| line_tag(0, line))
            .filter(|&t| set_index(t, 4) == set)
            .take(n)
            .collect()
    }

    /// The error `tiny()` gives importing `words` over a cache that holds a
    /// line; the refused import must leave that cache as it was.
    fn refused(words: &[u64]) -> String {
        let mut c = tiny();
        c.insert(line_tag(5, 5), 2, true);
        let before = c.export_words();
        let err = c.import_words(words).unwrap_err();
        assert_eq!(c.export_words(), before, "a refused import changes nothing");
        err
    }

    #[test]
    fn import_refuses_a_set_past_the_table() {
        let err = refused(&[4, 2, 4, 1, tags_in(0, 1)[0], CLEAN_V1]);
        assert_eq!(err, "cache snapshot set 4 is past the cache's 4 sets");
    }

    #[test]
    fn import_refuses_sets_out_of_ascending_order() {
        let (lo, hi) = (tags_in(1, 1)[0], tags_in(2, 1)[0]);
        let err = refused(&[4, 2, 2, 1, hi, CLEAN_V1, 1, 1, lo, CLEAN_V1]);
        assert_eq!(err, "cache snapshot set 1 follows set 2: sets must ascend");
        // A set listed twice is out of order too.
        let err = refused(&[4, 2, 1, 1, lo, CLEAN_V1, 1, 1, lo, CLEAN_V1]);
        assert_eq!(err, "cache snapshot set 1 follows set 1: sets must ascend");
    }

    #[test]
    fn import_refuses_more_ways_than_a_set_has() {
        let t = tags_in(3, 3);
        let err = refused(&[4, 2, 3, 3, t[0], CLEAN_V1, t[1], CLEAN_V1, t[2], CLEAN_V1]);
        assert_eq!(
            err,
            "cache snapshot set 3 lists 3 lines, a set holds 1 to 2"
        );
    }

    #[test]
    fn import_refuses_a_tag_that_hashes_to_another_set() {
        let t = tags_in(2, 1)[0];
        let err = refused(&[4, 2, 0, 1, t, CLEAN_V1]);
        assert_eq!(
            err,
            format!("cache snapshot set 0 way 0: tag {t:#x} belongs to set 2")
        );
    }

    #[test]
    fn import_refuses_a_duplicate_tag() {
        let t = tags_in(1, 1)[0];
        let err = refused(&[4, 2, 1, 2, t, CLEAN_V1, t, DIRTY | CLEAN_V1]);
        assert_eq!(
            err,
            format!("cache snapshot set 1 way 1: tag {t:#x} is listed twice")
        );
    }

    #[test]
    fn import_refuses_an_empty_set_or_an_invalid_way() {
        let err = refused(&[4, 2, 1, 0]);
        assert_eq!(
            err,
            "cache snapshot set 1 lists 0 lines, a set holds 1 to 2"
        );
        let err = refused(&[4, 2, 1, 1, tags_in(1, 1)[0], 1 << 2]);
        assert_eq!(
            err,
            "cache snapshot set 1 way 0: state 0x4 is not a valid line"
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "a cache has at most 32768 sets")]
    fn a_geometry_past_the_set_table_is_refused() {
        // 2³⁰ sets of 4 ways: refused before a slot is allocated.
        CacheSim::new(1 << 38, 64, 4);
    }

    #[test]
    fn the_largest_set_table_holds_a_line_in_every_set() {
        // 2¹⁵ sets: 8 MiB at 128 B lines and 2 ways, the last group's
        // number is 2¹⁵ and still fits a slot.
        let geometry = || CacheSim::new(8 << 20, 128, 2);
        let mut c = geometry();
        assert_eq!(c.num_sets, MAX_SETS);
        // The first line of region 3 to land in each set, at version 1 + set.
        let mut first = vec![None; c.num_sets];
        let mut filled = 0;
        for line in 0.. {
            let tag = line_tag(3, line);
            let set = c.set_of(tag);
            if first[set].is_none() {
                assert_eq!(c.insert(tag, 1 + set as u64, set % 2 == 0), None);
                first[set] = Some(tag);
                filled += 1;
                if filled == c.num_sets {
                    break;
                }
            }
        }
        assert_eq!(
            c.ways.len(),
            (1 + MAX_SETS) * c.assoc,
            "every set materialised"
        );
        assert_eq!(c.slot.iter().copied().max(), Some(MAX_SETS as u16));
        let probe_all = |c: &mut CacheSim| {
            for (set, tag) in first.iter().enumerate() {
                let want = Probe::Hit {
                    version: 1 + set as u64,
                    dirty: set % 2 == 0,
                };
                assert_eq!(c.probe(tag.unwrap()), want, "set {set}");
            }
        };
        probe_all(&mut c);
        let words = c.export_words();
        assert_eq!(words.len(), 2 + 4 * MAX_SETS, "one line in every set");
        let mut d = geometry();
        d.import_words(&words).unwrap();
        assert_eq!(d.export_words(), words);
        probe_all(&mut d);
    }

    #[test]
    #[should_panic(expected = "is 65536 sets; a set's group number is 16 bits")]
    fn twice_the_largest_set_table_is_refused() {
        CacheSim::new(16 << 20, 128, 2);
    }

    /// A way of the tick-LRU table [`CacheSim`] replaced.
    #[derive(Clone, Copy, Default)]
    struct DenseEntry {
        tag: LineTag,
        version: u64,
        dirty: bool,
        /// LRU timestamp.
        used: u64,
        valid: bool,
    }

    /// The dense, tick-LRU table [`CacheSim`] replaced — every way of every
    /// set exists from construction, and every probe and insert stamps a
    /// clock — kept as the reference the recency order must answer like.
    struct Dense {
        sets: Vec<DenseEntry>,
        assoc: usize,
        tick: u64,
    }

    impl Dense {
        fn like(c: &CacheSim) -> Self {
            Dense {
                sets: vec![DenseEntry::default(); c.num_sets * c.assoc],
                assoc: c.assoc,
                tick: 0,
            }
        }

        fn set(&mut self, tag: LineTag) -> &mut [DenseEntry] {
            let set = set_index(tag, self.sets.len() / self.assoc);
            &mut self.sets[set * self.assoc..(set + 1) * self.assoc]
        }

        fn probe(&mut self, tag: LineTag) -> Probe {
            self.tick += 1;
            let tick = self.tick;
            let found = self.set(tag).iter_mut().find(|e| e.valid && e.tag == tag);
            found.map_or(Probe::Miss, |e| {
                e.used = tick;
                Probe::Hit {
                    version: e.version,
                    dirty: e.dirty,
                }
            })
        }

        fn insert(&mut self, tag: LineTag, version: u64, dirty: bool) -> Option<Evicted> {
            self.tick += 1;
            let fresh = DenseEntry {
                tag,
                version,
                dirty,
                used: self.tick,
                valid: true,
            };
            let set = self.set(tag);
            let present = set.iter().position(|e| e.valid && e.tag == tag);
            if let Some(i) = present.or_else(|| set.iter().position(|e| !e.valid)) {
                set[i] = fresh;
                return None;
            }
            let victim = set.iter_mut().min_by_key(|e| e.used).unwrap();
            let evicted = Evicted {
                tag: victim.tag,
                dirty: victim.dirty,
            };
            *victim = fresh;
            Some(evicted)
        }

        fn purge(&mut self, tag: LineTag) {
            if let Some(e) = self.set(tag).iter_mut().find(|e| e.valid && e.tag == tag) {
                e.valid = false;
            }
        }

        /// [`CacheSim::export_words`]' layout, each set's valid lines
        /// ordered by their stamps, newest first.
        fn export_words(&self) -> Vec<u64> {
            let mut out = vec![(self.sets.len() / self.assoc) as u64, self.assoc as u64];
            for (set, ways) in self.sets.chunks(self.assoc).enumerate() {
                let mut held: Vec<_> = ways.iter().filter(|e| e.valid).collect();
                held.sort_by_key(|e| std::cmp::Reverse(e.used));
                if !held.is_empty() {
                    out.extend([set as u64, held.len() as u64]);
                }
                for e in held {
                    out.extend([e.tag, (e.version << 2) | (u64::from(e.dirty) << 1) | VALID]);
                }
            }
            out
        }
    }

    mod recency_order_matches_tick_lru {
        use super::*;
        use proptest::prelude::*;

        /// (capacity, line bytes, ways): the degenerate single line, 1-,
        /// 2- and 4-way tables the tag pool overflows, and one with far
        /// more sets than the pool can touch.
        const GEOMETRIES: [(usize, usize, usize); 5] = [
            (64, 64, 4),
            (512, 64, 1),
            (512, 64, 2),
            (2048, 64, 4),
            (64 << 10, 64, 2),
        ];

        /// Every group's valid ways come first and its invalid ways are
        /// all zero, the shared empty group included.
        fn invalid_ways_trail(c: &CacheSim) -> bool {
            c.ways.chunks(c.assoc).all(|g| {
                let n = g.iter().take_while(|w| w.is_valid()).count();
                g[n..].iter().all(|w| *w == Way::default())
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random probe / insert / purge / clear streams give the tick
            /// LRU's probe answers and eviction victims, and leave each
            /// set's valid lines in its stamp order, at every step; half
            /// way through, the cache is swapped for its own export
            /// imported into a fresh one.
            #[test]
            fn at_every_step(
                geometry in 0usize..GEOMETRIES.len(),
                ops in proptest::collection::vec(
                    (0u8..16, 0u32..3, 0u64..24, 0u64..4, any::<bool>()),
                    1..250,
                ),
            ) {
                let (capacity, line_bytes, assoc) = GEOMETRIES[geometry];
                let mut sim = CacheSim::new(capacity, line_bytes, assoc);
                let mut dense = Dense::like(&sim);
                let half = ops.len() / 2;
                for (step, (op, region, line, version, dirty)) in ops.into_iter().enumerate() {
                    if step == half {
                        let words = sim.export_words();
                        let mut restored = CacheSim::new(capacity, line_bytes, assoc);
                        restored.import_words(&words).unwrap();
                        prop_assert!(restored.ways.len() <= sim.ways.len());
                        prop_assert_eq!(restored.export_words(), words);
                        sim = restored;
                    }
                    let tag = line_tag(region, line);
                    match op {
                        0..=6 => {
                            let got = sim.probe(tag);
                            prop_assert_eq!(got, dense.probe(tag));
                            // The runtime's invalidation miss: a stale hit
                            // is purged.
                            if op == 6 && got != Probe::Miss {
                                sim.purge(tag);
                                dense.purge(tag);
                            }
                        }
                        7..=12 => prop_assert_eq!(
                            sim.insert(tag, version, dirty),
                            dense.insert(tag, version, dirty)
                        ),
                        13 | 14 => {
                            sim.purge(tag);
                            dense.purge(tag);
                        }
                        _ => {
                            sim.clear();
                            dense.sets.iter_mut().for_each(|e| e.valid = false);
                        }
                    }
                    prop_assert_eq!(sim.export_words(), dense.export_words());
                    prop_assert!(invalid_ways_trail(&sim));
                }
            }
        }
    }

    #[test]
    fn degenerate_single_line_cache() {
        let mut c = CacheSim::new(64, 64, 4);
        assert_eq!(c.num_sets * c.assoc, 1);
        c.insert(line_tag(0, 0), 1, false);
        let ev = c.insert(line_tag(0, 1), 1, true);
        assert!(ev.is_some());
    }
}
