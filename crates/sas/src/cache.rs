//! Per-PE set-associative cache simulator.
//!
//! Tracks which (region, line) pairs a PE currently holds and at which
//! directory version. A cached line whose directory version has moved on
//! was invalidated by another PE's write; the next access misses. LRU
//! replacement within each set.

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

/// A set-associative, LRU, version-tagged cache model.
#[derive(Debug)]
pub struct CacheSim {
    sets: Vec<Entry>,
    num_sets: usize,
    assoc: usize,
    tick: u64,
    // Stats (model-internal; the runtime mirrors what it needs into
    // `machine::Counters`).
    hits: u64,
    misses: u64,
    /// Whether the most recent probe was a hit — the only state
    /// [`CacheSim::reclassify_stale`] is allowed to undo.
    last_probe_hit: bool,
}

impl CacheSim {
    /// A cache of `capacity_bytes` with `line_bytes` lines and `assoc` ways.
    /// The number of sets is rounded down to a power of two (at least 1).
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
        CacheSim {
            sets: vec![Entry::default(); num_sets * assoc],
            num_sets,
            assoc,
            tick: 0,
            hits: 0,
            misses: 0,
            last_probe_hit: false,
        }
    }

    /// (hits, misses) recorded by probes.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    #[inline]
    fn set_range(&self, tag: LineTag) -> std::ops::Range<usize> {
        // Multiplicative hash spreads region/line structure across sets.
        let h = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let set = (h as usize) & (self.num_sets - 1);
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Look for `tag`; records hit/miss stats and refreshes LRU on hit.
    pub fn probe(&mut self, tag: LineTag) -> Probe {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(tag);
        for e in &mut self.sets[range] {
            if e.valid && e.tag == tag {
                e.used = tick;
                self.hits += 1;
                self.last_probe_hit = true;
                return Probe::Hit {
                    version: e.version,
                    dirty: e.dirty,
                };
            }
        }
        self.misses += 1;
        self.last_probe_hit = false;
        Probe::Miss
    }

    /// Insert (or update) `tag` at `version`; returns any displaced line.
    pub fn insert(&mut self, tag: LineTag, version: u64, dirty: bool) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(tag);
        // Update in place if present.
        let set = &mut self.sets[range.clone()];
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.version = version;
            e.dirty = dirty;
            e.used = tick;
            return None;
        }
        // Free way?
        if let Some(e) = set.iter_mut().find(|e| !e.valid) {
            *e = Entry {
                tag,
                version,
                dirty,
                used: tick,
                valid: true,
            };
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
        *victim = Entry {
            tag,
            version,
            dirty,
            used: tick,
            valid: true,
        };
        Some(evicted)
    }

    /// Reclassify the most recent probe from hit to miss: the runtime found
    /// the copy stale against the directory (an invalidation miss).
    ///
    /// Only legal directly after a [`Probe::Hit`] — undoing anything else
    /// would corrupt the hit/miss split (and, before this invariant was
    /// enforced, could silently clamp `hits` at 0 via `saturating_sub`).
    pub fn reclassify_stale(&mut self) {
        assert!(
            self.last_probe_hit,
            "reclassify_stale: most recent probe was not a hit"
        );
        self.last_probe_hit = false;
        self.hits = self
            .hits
            .checked_sub(1)
            .expect("reclassify_stale: hit counter underflow");
        self.misses += 1;
    }

    /// Drop `tag` if present (used when the runtime observes a stale
    /// version: the copy is conceptually invalid).
    pub fn purge(&mut self, tag: LineTag) {
        let range = self.set_range(tag);
        for e in &mut self.sets[range] {
            if e.valid && e.tag == tag {
                e.valid = false;
                return;
            }
        }
    }

    /// Invalidate everything (e.g. between timed phases).
    pub fn clear(&mut self) {
        for e in &mut self.sets {
            e.valid = false;
        }
    }

    /// Dump the complete cache state — geometry, LRU clock, stats, and
    /// every way — as plain words, for checkpoints. Restoring with
    /// [`CacheSim::import_words`] makes the post-restore hit/miss stream
    /// bitwise-identical to an uninterrupted run.
    pub fn export_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(6 + self.sets.len() * 4);
        out.push(self.num_sets as u64);
        out.push(self.assoc as u64);
        out.push(self.tick);
        out.push(self.hits);
        out.push(self.misses);
        out.push(u64::from(self.last_probe_hit));
        for e in &self.sets {
            out.push(e.tag);
            out.push(e.version);
            out.push((u64::from(e.dirty) << 1) | u64::from(e.valid));
            out.push(e.used);
        }
        out
    }

    /// Restore state captured by [`CacheSim::export_words`].
    ///
    /// # Errors
    /// Errors (leaving the cache untouched) if the word count or the
    /// recorded geometry disagrees with this cache's configuration.
    pub fn import_words(&mut self, words: &[u64]) -> Result<(), String> {
        let expect = 6 + self.sets.len() * 4;
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
        self.hits = words[3];
        self.misses = words[4];
        self.last_probe_hit = words[5] != 0;
        for (e, chunk) in self.sets.iter_mut().zip(words[6..].chunks_exact(4)) {
            *e = Entry {
                tag: chunk[0],
                version: chunk[1],
                dirty: chunk[2] & 0b10 != 0,
                valid: chunk[2] & 0b01 != 0,
                used: chunk[3],
            };
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
        assert_eq!(c.stats(), (1, 1));
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
        let probe_set = |c: &CacheSim, t: LineTag| c.set_range(t).start;
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
    fn reclassify_moves_one_hit_to_miss() {
        let mut c = tiny();
        let t = line_tag(0, 5);
        c.probe(t); // miss
        c.insert(t, 1, false);
        c.probe(t); // hit — but the runtime finds the copy stale
        c.purge(t);
        c.reclassify_stale();
        assert_eq!(c.stats(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "reclassify_stale")]
    fn reclassify_without_a_hit_is_rejected() {
        let mut c = tiny();
        c.probe(line_tag(0, 5)); // miss — nothing to reclassify
        c.reclassify_stale();
    }

    #[test]
    #[should_panic(expected = "reclassify_stale")]
    fn reclassify_twice_is_rejected() {
        let mut c = tiny();
        let t = line_tag(0, 5);
        c.insert(t, 1, false);
        c.probe(t); // hit
        c.reclassify_stale();
        c.reclassify_stale(); // the hit was already consumed
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
        assert_eq!(d.stats(), c.stats());
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
    fn degenerate_single_line_cache() {
        let mut c = CacheSim::new(64, 64, 4);
        assert_eq!(c.num_sets * c.assoc, 1);
        c.insert(line_tag(0, 0), 1, false);
        let ev = c.insert(line_tag(0, 1), 1, true);
        assert!(ev.is_some());
    }
}
