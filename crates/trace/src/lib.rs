//! Simulated-time event tracing for the origin2k runtimes.
//!
//! Every virtual-clock charge made by the `parallel`, `mp`, `shmem`, and
//! `sas` runtimes can be recorded as an [`Event`] — a `[t0, t1]` span on
//! one PE's virtual timeline, tagged with a semantic [`EventKind`], the
//! [`TimeCat`] the span was charged to, payload size, and (for waits) a
//! [`Dep`] edge naming the remote activity that unblocked it.
//!
//! Because exactly one event is recorded per clock advance (zero-duration
//! charges are skipped, adjacent bulk events are coalesced), the summed
//! event durations per category equal the clock's own [`TimeBreakdown`] —
//! tracing is an exact decomposition of simulated time, never a sample.
//!
//! Consumers:
//! - [`chrome::to_chrome_json`]: Chrome `trace_event` JSON, one track per
//!   PE, loadable in Perfetto or `chrome://tracing`.
//! - [`chrome::text_timeline`]: a compact terminal timeline.
//! - [`critpath::critical_path`]: follows wait edges backward from the
//!   final event to attribute the end-to-end simulated time to the chain
//!   of operations that actually determined it.
//!
//! Recording is `Off` by default and costs one branch per charge; it
//! never touches the clock, so enabling it cannot perturb simulated time.

use std::sync::{Arc, Mutex, MutexGuard};

use machine::{SimTime, TimeBreakdown, TimeCat};

pub mod chrome;
pub mod critpath;

/// Semantic label of a traced span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// CPU computation (`Ctx::compute*`).
    Compute,
    /// Generic categorised charge with no finer label (`Ctx::advance`).
    Other,
    /// Waiting for the slowest PE to arrive at a global barrier.
    BarrierWait,
    /// The barrier operation itself (fan-in/fan-out cost).
    Barrier,
    /// One log-depth transfer step of a blackboard collective.
    CollStep,
    /// Message-passing send overhead.
    Send,
    /// Waiting for a message to arrive (includes network transit).
    RecvWait,
    /// Message-passing receive overhead.
    Recv,
    /// One-sided put.
    Put,
    /// One-sided get.
    Get,
    /// Remote atomic operation.
    Amo,
    /// SHMEM collective step (broadcast / reduction / fcollect rounds).
    ShmemColl,
    /// Cache miss served by local memory.
    MissLocal,
    /// Cache miss served by a remote node (fills, forwards, invalidations).
    MissRemote,
    /// Dirty-line writeback on eviction.
    Writeback,
    /// One served client request of the `o2k-serve` workload: the span is
    /// the server-side service time, `bytes` the value payload, and `peer`
    /// the shard owner the lookup resolved to.
    Request,
    /// A work-stealing claim under the MP hot-shard mitigation: the span
    /// covers the remote claim round trip plus the batch transfer, `bytes`
    /// the stolen payload, and `peer` the victim PE.
    Steal,
}

impl EventKind {
    /// Every kind, for tabulation.
    pub const ALL: [EventKind; 17] = [
        EventKind::Compute,
        EventKind::Other,
        EventKind::BarrierWait,
        EventKind::Barrier,
        EventKind::CollStep,
        EventKind::Send,
        EventKind::RecvWait,
        EventKind::Recv,
        EventKind::Put,
        EventKind::Get,
        EventKind::Amo,
        EventKind::ShmemColl,
        EventKind::MissLocal,
        EventKind::MissRemote,
        EventKind::Writeback,
        EventKind::Request,
        EventKind::Steal,
    ];

    /// Stable display name (also used as the Perfetto slice name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Compute => "compute",
            EventKind::Other => "other",
            EventKind::BarrierWait => "barrier_wait",
            EventKind::Barrier => "barrier",
            EventKind::CollStep => "coll_step",
            EventKind::Send => "send",
            EventKind::RecvWait => "recv_wait",
            EventKind::Recv => "recv",
            EventKind::Put => "put",
            EventKind::Get => "get",
            EventKind::Amo => "amo",
            EventKind::ShmemColl => "shmem_coll",
            EventKind::MissLocal => "miss_local",
            EventKind::MissRemote => "miss_remote",
            EventKind::Writeback => "writeback",
            EventKind::Request => "request",
            EventKind::Steal => "steal",
        }
    }

    /// Dense index into `ALL`-sized tables.
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind in ALL")
    }

    /// High-frequency bulk kinds whose adjacent events may be merged
    /// without losing structure (communication and sync events stay
    /// one-per-operation so dependency edges keep exact endpoints).
    fn coalesces(self) -> bool {
        matches!(
            self,
            EventKind::Compute
                | EventKind::Other
                | EventKind::MissLocal
                | EventKind::MissRemote
                | EventKind::Writeback
        )
    }
}

/// A wait edge: the remote activity whose completion unblocked this span.
/// `pe`'s timeline at time `t` is where a critical-path walk continues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// PE whose activity this span waited on.
    pub pe: u32,
    /// Virtual time at which that activity completed.
    pub t: SimTime,
}

/// One span of simulated time on one PE's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// PE this span belongs to.
    pub pe: u32,
    /// Span start (virtual ns).
    pub t0: SimTime,
    /// Span end (virtual ns); `t1 > t0` for every recorded span.
    pub t1: SimTime,
    /// Semantic label.
    pub kind: EventKind,
    /// Category the span was charged to on the clock.
    pub cat: TimeCat,
    /// Payload bytes moved (0 when not applicable).
    pub bytes: u32,
    /// Communication partner: destination/source PE, or home *node* for
    /// cache-miss events.
    pub peer: Option<u32>,
    /// Wait edge for blocking events.
    pub dep: Option<Dep>,
}

impl Event {
    /// Span duration.
    #[inline]
    pub fn dur(&self) -> SimTime {
        self.t1 - self.t0
    }
}

/// Per-PE event recorder owned next to the `Clock`.
///
/// `Off` is the default and costs a single discriminant check per charge.
#[derive(Debug, Default)]
pub enum Recorder {
    /// Recording disabled; `record` is a no-op.
    #[default]
    Off,
    /// Recording enabled; events accumulate in clock order.
    On(Vec<Event>),
}

impl Recorder {
    /// A recorder in the given state.
    pub fn new(enabled: bool) -> Self {
        if enabled {
            Recorder::On(Vec::new())
        } else {
            Recorder::Off
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, Recorder::On(_))
    }

    /// Record a span. Zero-duration spans are dropped; adjacent spans of
    /// the same bulk kind/category/peer are merged in place.
    #[inline]
    pub fn record(&mut self, ev: Event) {
        if let Recorder::On(events) = self {
            debug_assert!(ev.t1 >= ev.t0, "event runs backwards");
            if ev.t1 == ev.t0 {
                return;
            }
            if ev.kind.coalesces() && ev.dep.is_none() {
                if let Some(last) = events.last_mut() {
                    if last.kind == ev.kind
                        && last.cat == ev.cat
                        && last.peer == ev.peer
                        && last.dep.is_none()
                        && last.t1 == ev.t0
                    {
                        last.t1 = ev.t1;
                        last.bytes = last.bytes.saturating_add(ev.bytes);
                        return;
                    }
                }
            }
            events.push(ev);
        }
    }

    /// Take the recorded events, leaving the recorder `Off`.
    pub fn take(&mut self) -> Vec<Event> {
        match std::mem::take(self) {
            Recorder::Off => Vec::new(),
            Recorder::On(events) => events,
        }
    }
}

/// One occupancy interval of a directed interconnect link, produced by the
/// `o2k-net` contention model when span recording is enabled. Unlike
/// [`Event`]s these live on *link* timelines, not PE timelines, and are
/// exported as a separate process in the Chrome JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpan {
    /// Link id (index into [`Trace::link_names`]).
    pub link: u32,
    /// Occupancy start (virtual ns).
    pub t0: SimTime,
    /// Occupancy end (virtual ns); always `t1 > t0`.
    pub t1: SimTime,
    /// Payload bytes of the transfer holding the link.
    pub bytes: u32,
    /// PE that issued the transfer.
    pub pe: u32,
}

/// A fault interval on a directed interconnect link, produced by the
/// `o2k-net` fault model: the span during which a scheduled
/// `machine::FaultKind` was in force (e.g. `"fault:kill"`,
/// `"fault:deg8"`). Rendered on the same link tracks as [`LinkSpan`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpan {
    /// Link id (index into [`Trace::link_names`]).
    pub link: u32,
    /// Fault onset (virtual ns).
    pub t0: SimTime,
    /// End of the interval (next fault event or the run horizon).
    pub t1: SimTime,
    /// Slice label, `"fault:<kind>"`.
    pub label: String,
}

/// A complete team trace: one clock-ordered event list per PE.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// `per_pe[pe]` is PE `pe`'s event list, ordered by time.
    pub per_pe: Vec<Vec<Event>>,
    /// Display names of interconnect links, indexed by [`LinkSpan::link`].
    /// Empty unless the run recorded link occupancy.
    pub link_names: Vec<String>,
    /// Link occupancy intervals in routing order (not sorted per link).
    pub link_spans: Vec<LinkSpan>,
    /// Link fault intervals (empty unless a fault plan was active).
    pub link_faults: Vec<FaultSpan>,
}

impl Trace {
    /// Assemble from per-PE event lists (indexed by PE).
    pub fn new(per_pe: Vec<Vec<Event>>) -> Self {
        Trace {
            per_pe,
            link_names: Vec::new(),
            link_spans: Vec::new(),
            link_faults: Vec::new(),
        }
    }

    /// Number of PEs.
    pub fn pes(&self) -> usize {
        self.per_pe.len()
    }

    /// Total number of recorded events.
    pub fn total_events(&self) -> usize {
        self.per_pe.iter().map(Vec::len).sum()
    }

    /// Latest span end across all PEs (the traced finish time).
    pub fn finish(&self) -> SimTime {
        self.per_pe
            .iter()
            .filter_map(|evs| evs.last())
            .map(|e| e.t1)
            .max()
            .unwrap_or(0)
    }

    /// Per-category time accounted by one PE's events. Equals that PE's
    /// clock `TimeBreakdown` when every charge was traced.
    pub fn pe_breakdown(&self, pe: usize) -> TimeBreakdown {
        let mut b = TimeBreakdown::default();
        for e in &self.per_pe[pe] {
            match e.cat {
                TimeCat::Busy => b.busy += e.dur(),
                TimeCat::Local => b.local += e.dur(),
                TimeCat::Remote => b.remote += e.dur(),
                TimeCat::Sync => b.sync += e.dur(),
            }
        }
        b
    }

    /// Check the structural invariants: per PE, events are strictly
    /// ordered, non-overlapping, and non-empty spans.
    pub fn validate(&self) -> Result<(), String> {
        for (pe, evs) in self.per_pe.iter().enumerate() {
            let mut prev_end = 0;
            for (i, e) in evs.iter().enumerate() {
                if e.pe as usize != pe {
                    return Err(format!("PE {pe} event {i} tagged pe={}", e.pe));
                }
                if e.t1 <= e.t0 {
                    return Err(format!("PE {pe} event {i} empty span [{}, {}]", e.t0, e.t1));
                }
                if e.t0 < prev_end {
                    return Err(format!(
                        "PE {pe} event {i} starts at {} before previous end {}",
                        e.t0, prev_end
                    ));
                }
                prev_end = e.t1;
            }
        }
        Ok(())
    }
}

/// Where a run's finished traces are collected: a cloneable handle on one
/// shared list. Whoever wants traces creates a sink, hands clones to the
/// runs it starts (`RunOpts::trace`, `Team::trace_into`) and drains it
/// afterwards; a team given a sink records events and pushes its
/// [`Trace`] on completion. Two sinks never see each other's runs.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Arc<Mutex<Vec<Trace>>>);

impl TraceSink {
    /// The list, locked: no panic leaves it half-updated, so poison is ignored.
    fn lock(&self) -> MutexGuard<'_, Vec<Trace>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deposit a finished trace (called by the team runtime).
    pub fn push(&self, trace: Trace) {
        self.lock().push(trace);
    }

    /// Take all deposited traces, in completion order.
    pub fn drain(&self) -> Vec<Trace> {
        std::mem::take(&mut *self.lock())
    }
}

#[cfg(test)]
pub(crate) fn ev(pe: u32, t0: SimTime, t1: SimTime, kind: EventKind, cat: TimeCat) -> Event {
    Event {
        pe,
        t0,
        t1,
        kind,
        cat,
        bytes: 0,
        peer: None,
        dep: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing() {
        let mut r = Recorder::default();
        r.record(ev(0, 0, 10, EventKind::Compute, TimeCat::Busy));
        assert!(!r.is_on());
        assert!(r.take().is_empty());
    }

    #[test]
    fn zero_duration_events_dropped() {
        let mut r = Recorder::new(true);
        r.record(ev(0, 5, 5, EventKind::Send, TimeCat::Remote));
        assert!(r.take().is_empty());
    }

    #[test]
    fn adjacent_compute_coalesces() {
        let mut r = Recorder::new(true);
        r.record(ev(0, 0, 10, EventKind::Compute, TimeCat::Busy));
        r.record(ev(0, 10, 25, EventKind::Compute, TimeCat::Busy));
        r.record(ev(0, 25, 30, EventKind::Send, TimeCat::Remote));
        r.record(ev(0, 30, 35, EventKind::Send, TimeCat::Remote));
        let evs = r.take();
        assert_eq!(evs.len(), 3, "computes merge, sends do not: {evs:?}");
        assert_eq!((evs[0].t0, evs[0].t1), (0, 25));
    }

    #[test]
    fn gap_breaks_coalescing() {
        let mut r = Recorder::new(true);
        r.record(ev(0, 0, 10, EventKind::Compute, TimeCat::Busy));
        r.record(ev(0, 20, 30, EventKind::Compute, TimeCat::Busy));
        assert_eq!(r.take().len(), 2);
    }

    #[test]
    fn trace_breakdown_and_validate() {
        let t = Trace::new(vec![
            vec![
                ev(0, 0, 10, EventKind::Compute, TimeCat::Busy),
                ev(0, 10, 14, EventKind::Send, TimeCat::Remote),
            ],
            vec![ev(1, 2, 9, EventKind::RecvWait, TimeCat::Sync)],
        ]);
        assert!(t.validate().is_ok());
        assert_eq!(t.finish(), 14);
        assert_eq!(t.total_events(), 3);
        let b = t.pe_breakdown(0);
        assert_eq!((b.busy, b.remote), (10, 4));
        assert_eq!(t.pe_breakdown(1).sync, 7);
    }

    #[test]
    fn validate_rejects_overlap() {
        let t = Trace::new(vec![vec![
            ev(0, 0, 10, EventKind::Compute, TimeCat::Busy),
            ev(0, 5, 12, EventKind::Compute, TimeCat::Busy),
        ]]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn sink_roundtrip() {
        let sink = TraceSink::default();
        sink.clone().push(Trace::new(vec![vec![ev(
            0,
            0,
            1,
            EventKind::Compute,
            TimeCat::Busy,
        )]]));
        assert!(
            TraceSink::default().drain().is_empty(),
            "sinks are separate"
        );
        assert_eq!(sink.drain().len(), 1);
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn kind_indices_are_dense() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
