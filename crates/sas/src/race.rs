//! Lightweight happens-before race detection for shared regions.
//!
//! An Eraser-style detector at cache-line granularity: every costed access
//! records `(word, class, barrier epoch)`, and two accesses to the same line
//! by different PEs **conflict** when
//!
//! * neither is ordered before the other by a barrier (same epoch), and
//! * they are not both reads and not both atomics.
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
use std::sync::{Mutex, MutexGuard};

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
}

/// Shared detector state, attached to every region of a world built with
/// [`crate::SasWorld::detect_races`].
#[derive(Debug)]
pub(crate) struct RaceDetector {
    npes: usize,
    state: Mutex<RaceState>,
}

#[derive(Debug, Default)]
struct RaceState {
    /// Per-(region, line): each PE's most recent access.
    lines: HashMap<(u32, usize), Vec<Option<AccessRec>>>,
    /// Conflicts found so far, in discovery order.
    reports: Vec<RaceReport>,
    /// Deduplication keys of `reports`: (region, line, pe a, pe b, kind).
    seen: HashSet<(u32, usize, usize, usize, RaceKind)>,
}

impl RaceDetector {
    pub(crate) fn new(npes: usize) -> Self {
        RaceDetector {
            npes,
            state: Mutex::default(),
        }
    }

    /// `state`, locked: no panic leaves it half-updated, so poison is ignored.
    fn state(&self) -> MutexGuard<'_, RaceState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn reports(&self) -> Vec<RaceReport> {
        self.state().reports.clone()
    }

    /// Record `pe`'s access and flag conflicts against other PEs' most
    /// recent accesses to the same line.
    pub(crate) fn record(
        &self,
        region: u32,
        line: usize,
        word: usize,
        class: AccessClass,
        pe: usize,
        gepoch: u64,
    ) {
        let rec = AccessRec {
            word,
            class,
            gepoch,
        };
        let mut state = self.state();
        let RaceState {
            lines,
            reports,
            seen,
        } = &mut *state;
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
            let kind = if o.word == rec.word {
                RaceKind::DataRace
            } else {
                RaceKind::FalseSharing
            };
            let key = (region, line, pe.min(q), pe.max(q), kind);
            if seen.insert(key) {
                reports.push(RaceReport {
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
