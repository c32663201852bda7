//! Lightweight happens-before race detection for shared regions.
//!
//! An Eraser-style detector at cache-line granularity: every costed access
//! records `(word, class, barrier epoch, lockset)`, and two accesses to the
//! same line by different PEs **conflict** when
//!
//! * neither is ordered before the other by a barrier (same epoch),
//! * they are not both reads and not both atomics, and
//! * their locksets are disjoint (no common [`parallel::SimLock`] held).
//!
//! A conflict on the *same word* is a [`RaceKind::DataRace`]; on different
//! words of one line it is [`RaceKind::FalseSharing`] — not a correctness
//! bug, but the line ping-pongs between caches, the classic CC-SAS
//! performance trap the paper's applications tuned against.
//!
//! The detector keeps only each PE's most recent access per line, so it is
//! cheap enough to leave on during schedule exploration; combined with the
//! exploration policies in `o2k-sched` it flags schedule-dependent accesses
//! that any single run might never interleave.

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

/// How an access participates in conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Atomic read-modify-write (`fadd`): never races with other atomics.
    Atomic,
}

/// Conflict classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// Unordered conflicting accesses to the same word.
    DataRace,
    /// Unordered conflicting accesses to different words of one line.
    FalseSharing,
}

/// One flagged conflict (deduplicated per `(region, line, PE pair, kind)`).
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// What kind of conflict.
    pub kind: RaceKind,
    /// Region id the line belongs to.
    pub region: u32,
    /// Line index within the region.
    pub line: usize,
    /// The earlier access: `(pe, word, class)`.
    pub first: (usize, usize, AccessClass),
    /// The later access: `(pe, word, class)`.
    pub second: (usize, usize, AccessClass),
}

#[derive(Debug, Clone)]
struct AccessRec {
    word: usize,
    class: AccessClass,
    /// Barrier epoch at access time.
    gepoch: u64,
    /// Lock ids held at access time.
    locks: Vec<u64>,
}

/// Shared detector state, attached to every region of a world built with
/// [`crate::SasWorld::detect_races`].
/// Per-(region, line): each PE's most recent access.
type LineMap = HashMap<(u32, usize), Vec<Option<AccessRec>>>;
/// Deduplication key: (region, line, pe a, pe b, kind).
type SeenKey = (u32, usize, usize, usize, RaceKind);

#[derive(Debug)]
pub(crate) struct RaceDetector {
    npes: usize,
    lines: Mutex<LineMap>,
    reports: Mutex<Vec<RaceReport>>,
    seen: Mutex<HashSet<SeenKey>>,
}

impl RaceDetector {
    pub(crate) fn new(npes: usize) -> Self {
        RaceDetector {
            npes,
            lines: Mutex::new(HashMap::new()),
            reports: Mutex::new(Vec::new()),
            seen: Mutex::new(HashSet::new()),
        }
    }

    pub(crate) fn reports(&self) -> Vec<RaceReport> {
        self.reports.lock().clone()
    }

    /// Record `pe`'s access and flag conflicts against other PEs' most
    /// recent accesses to the same line.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &self,
        region: u32,
        line: usize,
        word: usize,
        class: AccessClass,
        pe: usize,
        gepoch: u64,
        locks: &[u64],
    ) {
        let rec = AccessRec {
            word,
            class,
            gepoch,
            locks: locks.to_vec(),
        };
        let mut lines = self.lines.lock();
        let recs = lines
            .entry((region, line))
            .or_insert_with(|| vec![None; self.npes]);
        for (q, slot) in recs.iter().enumerate() {
            if q == pe {
                continue;
            }
            let Some(o) = slot else { continue };
            if o.gepoch != rec.gepoch {
                continue;
            }
            if o.class == AccessClass::Read && rec.class == AccessClass::Read {
                continue;
            }
            if o.class == AccessClass::Atomic && rec.class == AccessClass::Atomic {
                continue;
            }
            if o.locks.iter().any(|l| rec.locks.contains(l)) {
                continue;
            }
            let kind = if o.word == rec.word {
                RaceKind::DataRace
            } else {
                RaceKind::FalseSharing
            };
            let key = (region, line, pe.min(q), pe.max(q), kind);
            if self.seen.lock().insert(key) {
                self.reports.lock().push(RaceReport {
                    kind,
                    region,
                    line,
                    first: (q, o.word, o.class),
                    second: (pe, rec.word, rec.class),
                });
            }
        }
        recs[pe] = Some(rec);
    }
}
