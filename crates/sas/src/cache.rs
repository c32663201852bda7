//! Per-PE set-associative cache simulator.
//!
//! Tracks which (region, line) pairs a PE currently holds and at which
//! directory version, with LRU replacement within each set. It answers
//! probes and keeps no statistics of its own: whether an access was a hit,
//! a local or a remote miss, or an upgrade is decided by the runtime
//! against the directory, and counted once, in `machine::Counters`. A
//! cached copy whose directory version has moved on was invalidated by
//! another PE's write: the runtime purges it and the access misses.

/// Identity of a cached line: region id in the high bits, line index low.
pub type LineTag = u64;

/// Pack a region id and line index into a [`LineTag`].
#[inline]
pub fn line_tag(region: u32, line: u64) -> LineTag {
    (u64::from(region) << 40) | (line & 0xFF_FFFF_FFFF)
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: LineTag,
    /// Directory version this copy corresponds to.
    version: u64,
    /// This PE wrote the line and holds it exclusively.
    dirty: bool,
    /// LRU timestamp.
    used: u64,
    valid: bool,
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

/// The set `tag` maps to among `num_sets` (a power of two): a
/// multiplicative hash spreads region/line structure across sets.
#[inline]
fn set_index(tag: LineTag, num_sets: usize) -> usize {
    let h = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (h as usize) & (num_sets - 1)
}

/// A set-associative, LRU, version-tagged cache model.
///
/// Only the sets a line has landed in are stored: a 4 MiB cache is 16 384
/// sets, a PE of a P = 256 serving run touches about a thousand, and a set
/// no line ever reached answers every probe with a miss whether or not
/// its ways exist. `slot` holds one word per set; the ways of the sets that
/// have been inserted into live in `ways`, in first-touch order, behind
/// one group of empty ways that every untouched set shares.
#[derive(Debug)]
pub struct CacheSim {
    /// Per set: which `assoc`-entry group of `ways` holds it. `0` — the
    /// shared empty group — until a line lands in the set.
    slot: Vec<u32>,
    /// Group 0 is `assoc` ways that are never written (all invalid, all
    /// zero); group `k > 0` is the `k`-th set to have been inserted into.
    ways: Vec<Entry>,
    num_sets: usize,
    assoc: usize,
    tick: u64,
}

impl CacheSim {
    /// A cache of `capacity_bytes` with `line_bytes` lines and `assoc` ways.
    /// The number of sets is rounded down to a power of two (at least 1).
    ///
    /// # Panics
    /// Panics if the geometry has more than `u32::MAX` sets.
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
            num_sets <= u32::MAX as usize,
            "cache_bytes {capacity_bytes} / line_bytes {line_bytes} / {assoc} ways is \
             {num_sets} sets; the set table indexes with 32 bits"
        );
        CacheSim {
            slot: vec![0; num_sets],
            ways: vec![Entry::default(); assoc],
            num_sets,
            assoc,
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, tag: LineTag) -> usize {
        set_index(tag, self.num_sets)
    }

    /// The ways of `set` — the shared empty group while no line has landed
    /// in it, so only [`Self::materialise`]'s result may be written to.
    #[inline]
    fn ways_of(&mut self, set: usize) -> &mut [Entry] {
        let at = self.slot[set] as usize * self.assoc;
        &mut self.ways[at..at + self.assoc]
    }

    /// The ways of `set`, given a group of their own on the first insert.
    #[inline]
    fn materialise(&mut self, set: usize) -> &mut [Entry] {
        if self.slot[set] == 0 {
            self.add_group(set);
        }
        self.ways_of(set)
    }

    #[cold]
    fn add_group(&mut self, set: usize) {
        // At most `num_sets` groups after group 0; `new` checked that fits.
        self.slot[set] = (self.ways.len() / self.assoc) as u32;
        self.ways
            .extend(std::iter::repeat_n(Entry::default(), self.assoc));
    }

    /// Look for `tag`, refreshing its LRU tick on a hit.
    pub fn probe(&mut self, tag: LineTag) -> Probe {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(tag);
        if let Some(e) = self
            .ways_of(set)
            .iter_mut()
            .find(|e| e.valid && e.tag == tag)
        {
            e.used = tick;
            return Probe::Hit {
                version: e.version,
                dirty: e.dirty,
            };
        }
        Probe::Miss
    }

    /// Insert (or update) `tag` at `version`; returns any displaced line.
    pub fn insert(&mut self, tag: LineTag, version: u64, dirty: bool) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(tag);
        let set = self.materialise(set);
        // Update in place if present.
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.version = version;
            e.dirty = dirty;
            e.used = tick;
            return None;
        }
        let fresh = Entry {
            tag,
            version,
            dirty,
            used: tick,
            valid: true,
        };
        // Free way?
        if let Some(e) = set.iter_mut().find(|e| !e.valid) {
            *e = fresh;
            return None;
        }
        // Evict LRU.
        let victim = set
            .iter_mut()
            .min_by_key(|e| e.used)
            .expect("non-empty set");
        let evicted = Evicted {
            tag: victim.tag,
            dirty: victim.dirty,
        };
        *victim = fresh;
        Some(evicted)
    }

    /// Drop `tag` if present (used when the runtime observes a stale
    /// version: the copy is conceptually invalid).
    pub fn purge(&mut self, tag: LineTag) {
        let set = self.set_of(tag);
        if let Some(e) = self
            .ways_of(set)
            .iter_mut()
            .find(|e| e.valid && e.tag == tag)
        {
            e.valid = false;
        }
    }

    /// Invalidate everything (e.g. between timed phases).
    pub fn clear(&mut self) {
        for e in &mut self.ways {
            e.valid = false;
        }
    }

    /// Number of words [`CacheSim::export_words`] writes for this geometry.
    fn export_len(&self) -> usize {
        3 + self.num_sets * self.assoc * 4
    }

    /// Dump the complete cache state — geometry, LRU clock, and every way
    /// of every set in set order, a set no line has landed in as the
    /// `assoc` empty ways it shares — as plain words, for checkpoints.
    /// Restoring with [`CacheSim::import_words`] makes the post-restore
    /// probe answers bitwise-identical to an uninterrupted run's.
    pub fn export_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.export_len());
        out.push(self.num_sets as u64);
        out.push(self.assoc as u64);
        out.push(self.tick);
        for &group in &self.slot {
            let at = group as usize * self.assoc;
            for e in &self.ways[at..at + self.assoc] {
                out.push(e.tag);
                out.push(e.version);
                out.push((u64::from(e.dirty) << 1) | u64::from(e.valid));
                out.push(e.used);
            }
        }
        out
    }

    /// Restore state captured by [`CacheSim::export_words`]. A set whose
    /// words are all zero stays unmaterialised.
    ///
    /// # Errors
    /// Errors (leaving the cache untouched) if the word count or the
    /// recorded geometry disagrees with this cache's configuration.
    pub fn import_words(&mut self, words: &[u64]) -> Result<(), String> {
        let expect = self.export_len();
        if words.len() != expect {
            return Err(format!(
                "cache snapshot has {} words, expected {expect}",
                words.len()
            ));
        }
        if words[0] != self.num_sets as u64 || words[1] != self.assoc as u64 {
            return Err(format!(
                "cache snapshot geometry {}x{}, cache is {}x{}",
                words[0], words[1], self.num_sets, self.assoc
            ));
        }
        self.tick = words[2];
        self.slot.fill(0);
        self.ways.truncate(self.assoc);
        for (set, group) in words[3..].chunks_exact(self.assoc * 4).enumerate() {
            if group.iter().all(|&w| w == 0) {
                continue;
            }
            for (e, chunk) in self.materialise(set).iter_mut().zip(group.chunks_exact(4)) {
                *e = Entry {
                    tag: chunk[0],
                    version: chunk[1],
                    dirty: chunk[2] & 0b10 != 0,
                    valid: chunk[2] & 0b01 != 0,
                    used: chunk[3],
                };
            }
        }
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
        c.purge(line_tag(1, 3)); // an invalid way that still has its words
        assert_eq!(c.probe(line_tag(7, 7)), Probe::Miss); // a set still absent
        let held = c.ways.len();
        assert!(held <= (1 + 5) * c.assoc, "only the touched sets exist");

        let words = c.export_words();
        assert_eq!(words.len(), 3 + 16_384 * 2 * 4, "the dense wire format");
        let mut d = geometry();
        d.import_words(&words).unwrap();
        assert_eq!(d.ways.len(), held, "absent sets stay absent on import");
        assert_eq!(d.export_words(), words);

        // `clear` keeps the invalidated ways' words, as the dense table did.
        c.clear();
        let cleared = c.export_words();
        assert_ne!(cleared, words);
        d.import_words(&cleared).unwrap();
        assert_eq!(d.export_words(), cleared);
        assert_eq!(d.probe(line_tag(1, 0)), Probe::Miss);
        // Importing over a populated cache forgets what it held.
        d.insert(line_tag(9, 9), 1, true);
        d.import_words(&words).unwrap();
        assert_eq!(d.export_words(), words);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "cache_bytes")]
    fn a_geometry_past_the_set_table_is_refused() {
        CacheSim::new(1 << 40, 64, 2);
    }

    /// The dense table [`CacheSim`] replaced — every way of every set
    /// exists from construction — kept as the reference the sparse one
    /// must answer like, word for word.
    struct Dense {
        sets: Vec<Entry>,
        assoc: usize,
        tick: u64,
    }

    impl Dense {
        fn like(c: &CacheSim) -> Self {
            Dense {
                sets: vec![Entry::default(); c.num_sets * c.assoc],
                assoc: c.assoc,
                tick: 0,
            }
        }

        fn set(&mut self, tag: LineTag) -> &mut [Entry] {
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
            let fresh = Entry {
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

        fn export_words(&self) -> Vec<u64> {
            let mut out = vec![
                (self.sets.len() / self.assoc) as u64,
                self.assoc as u64,
                self.tick,
            ];
            for e in &self.sets {
                let flags = (u64::from(e.dirty) << 1) | u64::from(e.valid);
                out.extend([e.tag, e.version, flags, e.used]);
            }
            out
        }
    }

    mod sparse_matches_dense {
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Random probe / insert / purge / clear streams answer
            /// identically and leave identical snapshot words, at every
            /// step, whether or not absent sets are stored.
            #[test]
            fn at_every_step(
                geometry in 0usize..GEOMETRIES.len(),
                ops in proptest::collection::vec(
                    (0u8..16, 0u32..3, 0u64..24, 0u64..4, any::<bool>()),
                    1..250,
                ),
            ) {
                let (capacity, line, assoc) = GEOMETRIES[geometry];
                let mut sparse = CacheSim::new(capacity, line, assoc);
                let mut dense = Dense::like(&sparse);
                for (op, region, line, version, dirty) in ops {
                    let tag = line_tag(region, line);
                    match op {
                        0..=6 => {
                            let got = sparse.probe(tag);
                            prop_assert_eq!(got, dense.probe(tag));
                            // The runtime's invalidation miss: a stale hit
                            // is purged.
                            if op == 6 && got != Probe::Miss {
                                sparse.purge(tag);
                                dense.purge(tag);
                            }
                        }
                        7..=12 => prop_assert_eq!(
                            sparse.insert(tag, version, dirty),
                            dense.insert(tag, version, dirty)
                        ),
                        13 | 14 => {
                            sparse.purge(tag);
                            dense.purge(tag);
                        }
                        _ => {
                            sparse.clear();
                            dense.sets.iter_mut().for_each(|e| e.valid = false);
                        }
                    }
                    prop_assert_eq!(sparse.export_words(), dense.export_words());
                }
                let words = sparse.export_words();
                let mut restored = CacheSim::new(capacity, line, assoc);
                restored.import_words(&words).unwrap();
                prop_assert!(restored.ways.len() <= sparse.ways.len());
                prop_assert_eq!(restored.export_words(), words);
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
