//! # o2k-sched — deterministic cooperative scheduling for the substrate
//!
//! The simulator prices every operation in *virtual* nanoseconds, but the
//! seed ran one free-running OS thread per PE: whenever two PEs touched
//! the same coherence state (a directory entry, a first-touch page-home
//! CAS, a self-scheduling cursor), the *host* scheduler decided the
//! order. Checksums were protected by barriers, yet CC-SAS simulated
//! times and the local/remote miss split jittered a few percent run to
//! run (EXPERIMENTS.md's old D3 deviation).
//!
//! This crate replaces free-running threads with **cooperative
//! virtual-time stepping**: a PE is still its own flow of control (a
//! coroutine or a thread, see "Execution backends"), but at most one PE
//! holds the *floor* at a time, and every yield point
//! hands the floor to the runnable PE chosen by a [`SchedPolicy`]:
//!
//! * [`SchedPolicy::Det`] — the runnable PE with the lowest simulated
//!   clock runs next, ties broken by PE id. This is exactly the order a
//!   hardware machine with those timings would exhibit, and it makes
//!   every run bitwise reproducible: simulated times, [`machine`]
//!   counters, traces, page homes, everything.
//! * [`SchedPolicy::Explore`] — seeded uniformly-random choice among
//!   runnable PEs. Each seed is one reproducible interleaving; sweeping
//!   seeds explores the schedule space (the race-hunting harness).
//!
//! Every team runs under one of the two: there is no policy without a
//! floor.
//!
//! The scheduler itself is a [`CoopSched`]: one mutex-protected table of
//! per-PE states plus one condvar per PE. PEs `register` at spawn (the
//! first pick happens once everyone arrived), `yield_now` at instrumented
//! points, `block`/`unblock` around mailbox waits, rendezvous on
//! `gate_wait` (barriers), and `finish` at the end. A panicking PE
//! `poison`s the scheduler so every blocked peer wakes and unwinds
//! instead of hanging the team.
//!
//! Everything here is *simulation machinery*: it decides host execution
//! order only, and never charges virtual time itself.
//!
//! ## Execution backends
//!
//! The protocol above says nothing about *how* a PE waits for the floor,
//! and that choice is the [`ExecMode`]:
//!
//! * [`ExecMode::Event`] — every PE is a stackful coroutine
//!   ([`coro`]) on **one** OS thread, run by [`CoopSched::drive`]: a
//!   binary heap keyed on `(virtual clock, PE id)` yields the next PE to
//!   run, and handing it the floor is one user-space stack switch from
//!   the yielding PE straight into it. This is the corten-style
//!   simulation core that reaches P=1024 and beyond, and what
//!   [`default_exec`] answers wherever coroutines are supported.
//! * [`ExecMode::Thread`] — one OS thread per PE; a PE without the floor
//!   parks on its condvar. Simple, but a P-PE team costs P threads and
//!   every handoff is a kernel round trip, which caps practical team
//!   sizes near the paper's 64 CPUs. An explicit opt-in.
//!
//! At most one PE runs at a time under either policy, so the two
//! backends execute the *same* logical schedule: the pick sequence is
//! produced by the same `CoopSched::hand_off` code either way, and
//! `det` runs are bitwise identical between backends (enforced by the
//! cross-backend golden tests).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

use machine::SimTime;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

pub mod coro;

/// Panic message used when a PE unwinds because *another* PE panicked or
/// the team deadlocked. [`team`](../parallel) filters these out when
/// picking which payload to propagate, so the original panic surfaces.
pub const POISON_MSG: &str = "o2k-sched: peer PE panicked or team deadlocked";

/// Scheduling policy for a team run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Deterministic virtual-time order: lowest simulated clock runs,
    /// ties to the lowest PE id. Bitwise-reproducible runs.
    Det,
    /// Seeded uniformly-random choice among runnable PEs; each seed is
    /// one reproducible interleaving.
    Explore {
        /// Schedule seed; same seed ⇒ same interleaving.
        seed: u64,
    },
}

impl SchedPolicy {
    /// Parse the `--sched` / `O2K_SCHED` syntax: `det` or
    /// `explore:<seed>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if let Some(seed) = s.strip_prefix("explore:") {
            let seed = seed
                .parse::<u64>()
                .map_err(|e| format!("bad explore seed {seed:?}: {e}"))?;
            return Ok(SchedPolicy::Explore { seed });
        }
        match s {
            "det" => Ok(SchedPolicy::Det),
            other => Err(format!(
                "unknown scheduler {other:?} (expected det or explore:<seed>)"
            )),
        }
    }
}

impl std::str::FromStr for SchedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SchedPolicy::parse(s)
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedPolicy::Det => write!(f, "det"),
            SchedPolicy::Explore { seed } => write!(f, "explore:{seed}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Execution backend
// ---------------------------------------------------------------------------

/// How a team's PEs are executed on the host. Orthogonal to
/// [`SchedPolicy`], which decides *which* PE runs next; the exec mode
/// decides what a PE *is* (an OS thread or a coroutine). See the crate
/// docs for the trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One OS thread per PE, condvar handoffs (the pre-event behaviour).
    Thread,
    /// One OS thread total: PEs are stackful coroutines that hand the
    /// floor on in virtual-time order by switching straight into each
    /// other ([`CoopSched::drive`]). What
    /// [`default_exec`] answers wherever [`coro::SUPPORTED`].
    Event,
}

impl ExecMode {
    /// Parse the `--exec` / `O2K_EXEC` syntax: `thread` or `event`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "thread" => Ok(ExecMode::Thread),
            "event" => Ok(ExecMode::Event),
            other => Err(format!(
                "unknown exec mode {other:?} (expected thread or event)"
            )),
        }
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExecMode::parse(s)
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Thread => write!(f, "thread"),
            ExecMode::Event => write!(f, "event"),
        }
    }
}

/// `O2K_EXEC` from the environment: `Ok(None)` when unset, a diagnostic
/// when malformed (see [`machine::env_setting`]).
pub fn env_exec() -> Result<Option<ExecMode>, String> {
    machine::env_setting("O2K_EXEC", "thread or event", |s| ExecMode::parse(s).ok())
}

/// The exec mode a `Team` uses when none is set explicitly: `O2K_EXEC`
/// from the environment, else [`ExecMode::Event`] wherever this build has
/// coroutines ([`coro::SUPPORTED`]) and [`ExecMode::Thread`] where it has
/// not. Panics with [`env_exec`]'s diagnostic on a malformed `O2K_EXEC`.
pub fn default_exec() -> ExecMode {
    static ENV: OnceLock<ExecMode> = OnceLock::new();
    *ENV.get_or_init(|| {
        let ambient = if coro::SUPPORTED {
            ExecMode::Event
        } else {
            ExecMode::Thread
        };
        env_exec()
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or(ambient)
    })
}

// ---------------------------------------------------------------------------
// Process-wide default policy
// ---------------------------------------------------------------------------

static OVERRIDE: Mutex<Option<SchedPolicy>> = Mutex::new(None);

/// [`OVERRIDE`], locked: no panic leaves it half-updated, so poison is ignored.
fn override_policy() -> MutexGuard<'static, Option<SchedPolicy>> {
    OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
}

/// `O2K_SCHED` from the environment: `Ok(None)` when unset, a diagnostic
/// when malformed (see [`machine::env_setting`]).
pub fn env_policy() -> Result<Option<SchedPolicy>, String> {
    machine::env_setting("O2K_SCHED", "det or explore:<seed>", |s| {
        SchedPolicy::parse(s).ok()
    })
}

/// The policy a `Team` uses when none is set explicitly: the last
/// [`set_default_policy`] value, else `O2K_SCHED` from the environment,
/// else [`SchedPolicy::Det`] (what `repro` defaults to). Panics with
/// [`env_policy`]'s diagnostic on a malformed `O2K_SCHED`.
pub fn default_policy() -> SchedPolicy {
    static ENV: OnceLock<SchedPolicy> = OnceLock::new();
    override_policy().unwrap_or_else(|| {
        *ENV.get_or_init(|| {
            env_policy()
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or(SchedPolicy::Det)
        })
    })
}

/// Override the process-wide default policy (used by the `repro` binary's
/// `--sched` flag and by test binaries that pin determinism).
pub fn set_default_policy(p: SchedPolicy) {
    *override_policy() = Some(p);
}

// ---------------------------------------------------------------------------
// Cooperative scheduler
// ---------------------------------------------------------------------------

/// Why a PE gave up the floor without staying runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting at the team-wide rendezvous gate.
    Gate,
    /// Waiting for a matching message to arrive in the mailbox.
    Mailbox,
    /// The PE's transfer hit a dead interconnect link with no detour (a
    /// network partition under fault injection). Never unblocked: the PE
    /// parks here so the deadlock detector can report *partition*, not a
    /// logic bug.
    DeadLink,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Unstarted,
    Runnable,
    Running,
    Blocked(BlockReason),
    Done,
}

enum Chooser {
    Det,
    Explore(SmallRng),
}

// ---------------------------------------------------------------------------
// Indexed event heap
// ---------------------------------------------------------------------------

/// `pos` sentinel for a PE with no entry in the [`PeHeap`].
const HEAP_ABSENT: u32 = u32::MAX;

/// A [`PeHeap`] entry: `clock` in the high 64 bits, `pe` in the low 64, so
/// one integer compare orders entries exactly as the `(clock, pe)` tuple.
type HeapKey = u128;

fn heap_key(clock: SimTime, pe: usize) -> HeapKey {
    (HeapKey::from(clock) << 64) | pe as HeapKey
}

fn key_pe(k: HeapKey) -> usize {
    k as u64 as usize
}

fn key_clock(k: HeapKey) -> SimTime {
    (k >> 64) as SimTime
}

/// Fixed-capacity indexed binary min-heap over `(clock, pe)` keys — the
/// event backend's pending-PE set.
///
/// The original event core used `BinaryHeap<Reverse<(clock, pe, stamp)>>`
/// with lazy invalidation: every wake pushed a fresh entry and bumped a
/// per-PE stamp, and stale entries were skipped when they surfaced. At
/// P=1024 a busy run churns millions of short-lived heap entries through
/// the allocator and the heap grows past the live-PE count between
/// compactions. This structure replaces that with two arrays sized once
/// at construction and never reallocated:
///
/// * `heap` — the live entries in binary-heap order, each packed into one
///   `HeapKey`; at most one per PE, so capacity `npes` suffices forever.
/// * `pos` — per-PE slot index into `heap` (`HEAP_ABSENT` when the PE has
///   no entry), the classic indexed-heap back-pointer that makes
///   [`PeHeap::remove`] and in-place reschedule O(log P) with *exact*
///   deletion instead of tombstones.
///
/// Keys order lexicographically by `(clock, pe)`, so min order is lowest
/// clock with ties to the lowest PE id — exactly [`SchedPolicy::Det`]'s
/// pick order, which is why [`PeHeap::peek`] never has to skip anything:
/// every entry is live by construction. Packing the pair into one `u128`
/// makes every compare a single integer compare, and the sift-down step
/// picks the smaller child by arithmetic rather than by a branch the
/// predictor gets wrong half the time.
#[derive(Debug, Clone)]
pub struct PeHeap {
    heap: Vec<HeapKey>,
    pos: Vec<u32>,
}

impl PeHeap {
    /// A heap for PEs `0..npes`, with all storage allocated up front.
    pub fn new(npes: usize) -> Self {
        assert!(
            npes < HEAP_ABSENT as usize,
            "a PeHeap indexes PEs with u32 slots"
        );
        PeHeap {
            heap: Vec::with_capacity(npes),
            pos: vec![HEAP_ABSENT; npes],
        }
    }

    /// Number of PEs currently scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no PE is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `pe` currently has an entry.
    pub fn contains(&self, pe: usize) -> bool {
        self.pos[pe] != HEAP_ABSENT
    }

    /// The minimum `(clock, pe)` entry, without removing it.
    pub fn peek(&self) -> Option<(SimTime, usize)> {
        self.heap.first().map(|&k| (key_clock(k), key_pe(k)))
    }

    /// Schedule `pe` at `clock`, or reschedule it in place if already
    /// present (the decrease/increase-key the lazy design could not do).
    pub fn insert_or_update(&mut self, pe: usize, clock: SimTime) {
        let key = heap_key(clock, pe);
        let i = self.pos[pe];
        if i == HEAP_ABSENT {
            self.heap.push(key);
            self.sift_up(self.heap.len() - 1);
        } else {
            let i = i as usize;
            let old = self.heap[i];
            self.heap[i] = key;
            if key < old {
                self.sift_up(i);
            } else if key > old {
                self.sift_down(i);
            }
        }
    }

    /// Remove `pe`'s entry if present; returns whether one was removed.
    /// Tolerates absent PEs so the poison path can sweep any status.
    pub fn remove(&mut self, pe: usize) -> bool {
        let i = self.pos[pe];
        if i == HEAP_ABSENT {
            return false;
        }
        let i = i as usize;
        self.pos[pe] = HEAP_ABSENT;
        let last = self.heap.pop().expect("a present PE has an entry");
        if i < self.heap.len() {
            self.heap[i] = last;
            if i == 0 {
                // Removing the min (every det pick): the bottom-row
                // filler almost always sinks back to a leaf, so take it
                // straight down along the smaller-child spine — one
                // comparison per level — and fix up from there, the same
                // strategy `BinaryHeap::pop` uses.
                self.sift_down_to_bottom(0);
            } else if last < self.heap[(i - 1) / 2] {
                // An arbitrary slot's filler may need to travel either
                // direction.
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        true
    }

    // Both sifts move a *hole* instead of swapping pairwise: the element
    // being placed is held in a register and written exactly once, and
    // every displaced entry gets exactly one heap write and one pos
    // write — half the memory traffic of swap-based sifting, which is
    // what this structure races `BinaryHeap`'s hole-based sift against.

    /// Write `key` into slot `i` and point its PE back at it.
    #[inline]
    fn place(&mut self, i: usize, key: HeapKey) {
        self.heap[i] = key;
        self.pos[key_pe(key)] = i as u32;
    }

    /// The smaller of the children at `c` and `c + 1` (both present),
    /// chosen without a branch.
    #[inline]
    fn smaller_child(&self, c: usize) -> usize {
        c + usize::from(self.heap[c + 1] < self.heap[c])
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if item >= self.heap[parent] {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, item);
    }

    fn sift_down(&mut self, mut i: usize) {
        let item = self.heap[i];
        let end = self.heap.len();
        let mut child = 2 * i + 1;
        while child < end {
            if child + 1 < end {
                child = self.smaller_child(child);
            }
            if item <= self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
            child = 2 * i + 1;
        }
        self.place(i, item);
    }

    /// Sink the hole at `i` to a leaf along the smaller-child spine
    /// without comparing against the displaced item, then let `sift_up`
    /// find the item's true slot from below.
    fn sift_down_to_bottom(&mut self, mut i: usize) {
        let item = self.heap[i];
        let end = self.heap.len();
        let mut child = 2 * i + 1;
        while child + 1 < end {
            child = self.smaller_child(child);
            self.place(i, self.heap[child]);
            i = child;
            child = 2 * i + 1;
        }
        if child < end {
            self.place(i, self.heap[child]);
            i = child;
        }
        self.heap[i] = item;
        self.sift_up(i);
    }
}

struct Inner {
    status: Vec<Status>,
    /// Advisory per-PE virtual clocks, refreshed at every yield point.
    clock: Vec<SimTime>,
    registered: usize,
    done: usize,
    current: Option<usize>,
    chooser: Chooser,
    /// PEs waiting at the team-wide rendezvous gate; the `npes`-th
    /// arrival releases them all.
    gate_arrived: usize,
    switches: u64,
    /// Pending PEs keyed `(clock, pe)`, exactly the `Runnable` set: PEs
    /// are inserted on wake and removed *exactly* when they leave
    /// `Runnable`, so the top entry is always the det pick with no stale
    /// tombstones to skip and no allocation after construction.
    heap: PeHeap,
    /// One-shot direct grant consumed by the first `hand_off` after a
    /// [`CoopSched::preseed_resume`]: the floor goes straight to the PE
    /// that held it when the snapshot was taken, with no pick, no
    /// fingerprint update and no switch count — that grant was already
    /// accounted in the run the snapshot came from.
    resume_grant: Option<usize>,
}

impl Inner {
    fn runnable(&self) -> impl Iterator<Item = usize> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Status::Runnable))
            .map(|(p, _)| p)
    }

    /// Transition `pe` to `Runnable` with its clock already final.
    fn make_runnable(&mut self, pe: usize) {
        self.status[pe] = Status::Runnable;
        self.heap.insert_or_update(pe, self.clock[pe]);
    }

    /// Drop `pe`'s heap entry as it leaves `Runnable` (picked to run, or
    /// force-finished by poison — the latter may find no entry).
    fn leave_runnable(&mut self, pe: usize) {
        self.heap.remove(pe);
    }

    /// Virtual-time order: lowest clock, ties to the lowest PE id.
    ///
    /// Peeks the indexed heap — O(1), since exact removal keeps every
    /// entry live — without consuming the winner: the chosen PE's entry
    /// is removed when it leaves `Runnable`, whichever chooser picked it.
    /// Debug builds check the pick against a linear scan of the status
    /// table.
    fn pick_det(&mut self) -> Option<usize> {
        let picked = self.heap.peek().map(|(c, p)| {
            debug_assert_eq!(self.status[p], Status::Runnable, "heap entry left behind");
            debug_assert_eq!(c, self.clock[p], "heap entry with stale clock");
            let _ = c;
            p
        });
        debug_assert_eq!(
            picked,
            self.runnable().min_by_key(|&p| (self.clock[p], p)),
            "heap pick diverged from the linear-scan reference"
        );
        picked
    }

    /// Pick the next PE to run among the runnable ones, or `None` if
    /// nothing is runnable.
    fn pick(&mut self) -> Option<usize> {
        match &self.chooser {
            Chooser::Det => self.pick_det(),
            Chooser::Explore { .. } => {
                // The i-th runnable PE in id order, for a uniform draw of
                // i: the heap holds exactly the runnable set, so it counts
                // them without a scan or a candidate list.
                let n = self.heap.len();
                debug_assert_eq!(n, self.runnable().count(), "heap is the runnable set");
                if n == 0 {
                    return None;
                }
                let Chooser::Explore(rng) = &mut self.chooser else {
                    unreachable!()
                };
                let i = (rng.next_u64() % n as u64) as usize;
                self.runnable().nth(i)
            }
        }
    }
}

/// Statistics of one scheduled run, read back after the team joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Policy that produced the run.
    pub policy: SchedPolicy,
    /// Number of floor handoffs to a *different* PE.
    pub switches: u64,
    /// FNV-style fingerprint of the whole pick sequence — two runs with
    /// equal fingerprints took the same schedule.
    pub fingerprint: u64,
}

/// Scheduler state captured at a snapshot quiescence point, sufficient to
/// resume a fresh [`CoopSched`] exactly where the captured one stood.
///
/// Exported by the floor-holding PE *after* the snap gate released (so
/// `fingerprint`/`switches` include the release pick and `current` is the
/// exporter itself), and fed to [`CoopSched::preseed_resume`] before any
/// PE registers in the restored team.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedResume {
    /// Policy of the run the snapshot was taken from. A restore under a
    /// *different* policy must use [`CoopSched::preseed_clocks`] instead:
    /// the fingerprint and chooser stream are policy-specific.
    pub policy: SchedPolicy,
    /// Per-PE advisory clocks at the quiescence point.
    pub clocks: Vec<SimTime>,
    /// Pick-sequence fingerprint including the snap-gate release pick.
    pub fingerprint: u64,
    /// Floor switches so far, including the release pick.
    pub switches: u64,
    /// The PE holding the floor after the snap gate — the one the
    /// restored run's first hand_off must grant to directly.
    pub current: usize,
    /// Raw RNG state of the seeded `Explore` chooser; zero (unused) under
    /// `Det`.
    pub rng_state: u64,
}

/// Horizon value that no `(clock, pe)` key is below: every yield takes
/// the locked path.
const HORIZON_SHUT: (SimTime, usize) = (0, 0);

/// Horizon value for an empty runnable set: every key is below it, so a
/// PE running alone always keeps the floor.
const HORIZON_OPEN: (SimTime, usize) = (SimTime::MAX, usize::MAX);

/// [`CoopSched::next_resume`] while no floor grant is pending.
const NO_GRANT: usize = usize::MAX;

/// Where [`CoopSched::hand_off`] put the floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Floor {
    /// The caller was picked again.
    Kept,
    /// Another PE holds it. The thread backend has notified its condvar;
    /// under the event backend the caller switches into it, or — when the
    /// caller is finishing and cannot — leaves it to the driver.
    Granted(usize),
    /// Nobody holds it: registration is incomplete, or the team is done.
    Idle,
}

/// One step of the pick-sequence fingerprint (FNV-1a over picked PE ids).
#[inline]
fn fold_pick(fingerprint: u64, pe: usize) -> u64 {
    (fingerprint ^ pe as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The cooperative scheduler shared by one team run. See the crate docs
/// for the protocol.
///
/// # Keeping the floor
///
/// **Only the floor holder mutates the runnable set.** Every operation
/// that inserts into or removes from it — [`Self::yield_now`]'s locked
/// path, [`Self::block`], [`Self::unblock`], [`Self::gate_wait`],
/// [`Self::register`]'s last arrival, [`Self::finish`] — is called by the
/// PE that holds the floor (or, at registration, before anyone does), and
/// each publishes the `(clock, pe)` key of the heap top as the *horizon*
/// before it releases the scheduler lock. So whenever a PE is running,
/// the horizon it reads is exact: no other PE can have changed the set
/// since it was written. ([`Self::poison`] may drop an unwinding waiter's
/// entry; that only raises the true top, and a horizon that is too low
/// errs toward the locked path.)
///
/// That makes the common yield a compare. Under [`SchedPolicy::Det`] a
/// yielding PE whose key is below the horizon is precisely the PE the
/// locked insert → peek → remove would pick again (its key differs from
/// every heap key in the PE id, so strict `<` is the whole condition), and
/// [`Self::yield_now`] returns after folding the self-pick into the
/// fingerprint: no lock, no heap traffic, and the pick sequence, switch
/// count and fingerprint are those of the locked path. The horizon is
/// held shut at `HORIZON_SHUT` where a yield must not be skipped: under
/// [`SchedPolicy::Explore`] (every yield draws one RNG value) and while a
/// [`Self::preseed_resume`] grant is pending (no PE runs before the first
/// hand-off consumes it).
///
/// The skipped path does not refresh the caller's *advisory* clock
/// (`Inner::clock`). Every reader of those clocks sees a value written by
/// a locked entry of the PE in question first: heap keys are written by
/// the locked `yield_now` / `gate_wait` right before `make_runnable`;
/// [`Self::unblock`]'s `max(hint)` reads the sleeper's clock, written by
/// its [`Self::block`]; [`Self::export_resume`] runs straight after a
/// gate released, so every clock is its PE's `gate_wait` value (the
/// exporter's included — it has not yielded since); and the deadlock /
/// partition diagnostic prints PEs that are all `Blocked` or `Done`,
/// i.e. last seen by `block`, `gate_wait` or `finish`.
///
/// # The transfer protocol
///
/// **Under [`ExecMode::Event`] a hand-off is one stack switch, from the
/// PE giving the floor up straight into the PE `hand_off` granted it
/// to.** `hand_off` returns the grant to its caller instead of publishing
/// it; `wait_for_floor` releases the lock and transfers into the granted
/// PE's coroutine through the task table [`Self::drive`] installed, and
/// the granted PE comes back from its own suspension there. So every
/// suspended PE is resumed by exactly one switch — the one its grant
/// decided — or, once the team is poisoned, by the driver's sweep; a PE
/// that comes back reads the poison flag and returns without re-taking
/// the lock (debug builds re-read its status and assert `Running`). A
/// poisoned team transfers nowhere: the flag is checked before the switch
/// too.
///
/// The driver, parked in its `resume` the whole time, gets control back
/// in three cases only: a PE suspends with no grant to act on (everyone
/// but the last registrant, at registration), a PE finishes (its stack
/// still has frames to unwind, so it cannot switch away: `finish` leaves
/// the grant in `next_resume`, an atomic stored under the lock and taken
/// by the driver with a swap), or the team is poisoned (the flag is an
/// atomic too, stored under the lock by [`Self::poison`] and `hand_off`'s
/// deadlock branch). The thread backend reads the same flag holding the
/// lock, as it must: there the check and the condvar wait have to be
/// atomic with respect to the store.
pub struct CoopSched {
    npes: usize,
    policy: SchedPolicy,
    exec: ExecMode,
    inner: Mutex<Inner>,
    /// The published horizon (see "Keeping the floor"), written under
    /// `inner`'s lock by the floor holder and read by the floor holder
    /// alone. The floor itself moves between threads through that mutex,
    /// which already orders these stores before the next holder's loads;
    /// the Release/Acquire pair on them states the same edge locally.
    horizon_clock: AtomicU64,
    horizon_pe: AtomicUsize,
    /// FNV-style fingerprint of the pick sequence. Folded by whoever
    /// makes a pick — `hand_off` under the lock, or the floor holder on
    /// the keep-the-floor path — so never by two PEs at once; `Relaxed`
    /// suffices for the same reason as above.
    fingerprint: AtomicU64,
    /// Event backend: the PE the driver must resume next ([`NO_GRANT`] for
    /// none), stored by [`Self::finish`] when it grants the floor — the one
    /// hand-off that cannot switch straight into its winner — and taken by
    /// [`Self::event_take_next`]. See "The transfer protocol".
    next_resume: AtomicUsize,
    /// A PE panicked or the team deadlocked. Stored under `inner`'s lock
    /// (Release) by [`Self::poison`] and `hand_off`'s deadlock branch, so a
    /// thread-backend waiter — which checks it (Acquire) holding that lock
    /// before it parks — cannot miss the wake-up that follows the store.
    poisoned: AtomicBool,
    /// One condvar per PE; PE `p` waits on `cvs[p]` until it holds the
    /// floor (or the scheduler is poisoned). Waited on by the thread
    /// backend only: under [`ExecMode::Event`] a PE without the floor is a
    /// suspended coroutine.
    cvs: Vec<Condvar>,
    /// Event backend: the team's coroutines by PE while [`Self::drive`]
    /// runs them, for the transfers of "The transfer protocol"; no slots
    /// under the thread backend.
    tasks: coro::Tasks,
}

impl CoopSched {
    /// Build a thread-backend scheduler for `npes` PEs.
    ///
    /// # Panics
    /// Panics on an empty team.
    pub fn new(npes: usize, policy: SchedPolicy) -> Self {
        Self::with_exec(npes, policy, ExecMode::Thread)
    }

    /// [`Self::new`] with an explicit execution backend.
    pub fn with_exec(npes: usize, policy: SchedPolicy, exec: ExecMode) -> Self {
        assert!(npes > 0, "empty team");
        let chooser = match policy {
            SchedPolicy::Det => Chooser::Det,
            SchedPolicy::Explore { seed } => Chooser::Explore(SmallRng::seed_from_u64(seed)),
        };
        let task_slots = if exec == ExecMode::Event { npes } else { 0 };
        CoopSched {
            npes,
            policy,
            exec,
            inner: Mutex::new(Inner {
                status: vec![Status::Unstarted; npes],
                clock: vec![0; npes],
                registered: 0,
                done: 0,
                current: None,
                chooser,
                gate_arrived: 0,
                switches: 0,
                heap: PeHeap::new(npes),
                resume_grant: None,
            }),
            horizon_clock: AtomicU64::new(HORIZON_SHUT.0),
            horizon_pe: AtomicUsize::new(HORIZON_SHUT.1),
            fingerprint: AtomicU64::new(0xcbf2_9ce4_8422_2325),
            next_resume: AtomicUsize::new(NO_GRANT),
            poisoned: AtomicBool::new(false),
            cvs: (0..npes).map(|_| Condvar::new()).collect(),
            tasks: coro::Tasks::new(task_slots),
        }
    }

    /// The execution backend this scheduler was built for.
    pub fn exec(&self) -> ExecMode {
        self.exec
    }

    /// `inner`, locked. `hand_off`'s deadlock panic unwinds holding the
    /// lock, and the unwinding PE's [`Self::poison`] takes it again: a
    /// poisoned lock is taken as it stands, so the diagnosis surfaces
    /// instead of a second panic.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run statistics so far (final once the team joined).
    pub fn stats(&self) -> SchedStats {
        let inner = self.lock();
        SchedStats {
            policy: self.policy,
            switches: inner.switches,
            fingerprint: self.fingerprint.load(Ordering::Relaxed),
        }
    }

    /// Export resumable state at a quiescence point. Must be called by
    /// the PE currently holding the floor, with every other PE runnable
    /// or done (i.e. right after a team-wide gate released) — mid-wait
    /// blocked states are not capturable.
    ///
    /// # Panics
    /// Panics if no PE holds the floor or a PE is blocked.
    pub fn export_resume(&self) -> SchedResume {
        let inner = self.lock();
        let current = inner.current.expect("export_resume: no PE holds the floor");
        assert!(
            !inner
                .status
                .iter()
                .any(|s| matches!(s, Status::Blocked(_) | Status::Unstarted)),
            "export_resume: a PE is blocked or unstarted — not a quiescence point"
        );
        let rng_state = match &inner.chooser {
            Chooser::Det => 0,
            Chooser::Explore(rng) => rng.state(),
        };
        SchedResume {
            policy: self.policy,
            clocks: inner.clock.clone(),
            fingerprint: self.fingerprint.load(Ordering::Relaxed),
            switches: inner.switches,
            current,
            rng_state,
        }
    }

    /// Preseed a fresh scheduler from captured state, before any PE
    /// registers. The first hand_off (triggered by the last registrant)
    /// grants the floor directly to `r.current` with no pick, exactly
    /// replaying the snap-gate release the accumulators already include.
    ///
    /// # Panics
    /// Panics if any PE has registered, the PE counts differ, or the
    /// policy differs from the snapshot's (use
    /// [`Self::preseed_clocks`] to restore under a new policy).
    pub fn preseed_resume(&self, r: &SchedResume) {
        assert_eq!(r.policy, self.policy, "preseed_resume across policies");
        let mut inner = self.lock();
        assert_eq!(inner.registered, 0, "preseed after registration");
        assert_eq!(r.clocks.len(), self.npes, "preseed PE count mismatch");
        inner.clock.copy_from_slice(&r.clocks);
        self.fingerprint.store(r.fingerprint, Ordering::Relaxed);
        inner.switches = r.switches;
        inner.resume_grant = Some(r.current);
        if let Chooser::Explore(rng) = &mut inner.chooser {
            *rng = SmallRng::from_state(r.rng_state);
        }
    }

    /// Clocks-only preseed for restoring a snapshot under a *different*
    /// policy: virtual time carries over, but the pick sequence (and so
    /// the fingerprint, switch count and any chooser RNG stream) starts
    /// fresh — the first registration pick is a normal chooser pick.
    pub fn preseed_clocks(&self, clocks: &[SimTime]) {
        let mut inner = self.lock();
        assert_eq!(inner.registered, 0, "preseed after registration");
        assert_eq!(clocks.len(), self.npes, "preseed PE count mismatch");
        inner.clock.copy_from_slice(clocks);
    }

    /// Hand the floor to the next runnable PE. The caller must already
    /// have moved `pe` out of `Running`. Unless the floor is
    /// [`Floor::Kept`], the caller must then [`Self::wait_for_floor`] with
    /// the answer, or, if it is finishing, leave a grant to the driver.
    fn hand_off(&self, inner: &mut Inner, pe: usize) -> Floor {
        // A pending resume grant replays the pick the snapshot already
        // accounted (its fingerprint/switch effects are in the preseeded
        // accumulators), so it bypasses the chooser entirely — including
        // any RNG draw a seeded policy would spend.
        let granted = inner.resume_grant.take();
        let picked = match granted {
            Some(w) => {
                debug_assert_eq!(
                    inner.status[w],
                    Status::Runnable,
                    "resume grant to a PE that is not runnable"
                );
                Some(w)
            }
            None => inner.pick(),
        };
        match picked {
            Some(next) => {
                // Count switches against the previous floor holder, not
                // the caller: during `register` no one holds the floor
                // yet and which thread happens to register last is OS
                // timing, so the initial grant must never count.
                let prev = inner.current;
                inner.leave_runnable(next);
                inner.status[next] = Status::Running;
                inner.current = Some(next);
                if granted.is_none() {
                    self.fold_fingerprint(next);
                    if prev.is_some() && prev != Some(next) {
                        inner.switches += 1;
                    }
                }
                self.publish_horizon(inner);
                if next == pe {
                    return Floor::Kept;
                }
                // Grant delivery is where the backends part: wake the
                // winner's parked thread here, or let the caller switch
                // into the winner's coroutine once the lock is released.
                if self.exec == ExecMode::Thread {
                    self.cvs[next].notify_all();
                }
                Floor::Granted(next)
            }
            None => {
                inner.current = None;
                if inner.done < self.npes {
                    // Nothing runnable but PEs remain: the team deadlocked
                    // (mismatched barriers, lock cycle, missing send).
                    let diag: Vec<String> = inner
                        .status
                        .iter()
                        .enumerate()
                        .map(|(p, s)| format!("PE {p}: {s:?} @ {} ns", inner.clock[p]))
                        .collect();
                    self.poisoned.store(true, Ordering::Release);
                    for cv in &self.cvs {
                        cv.notify_all();
                    }
                    // A PE parked on a dead interconnect link means the
                    // fault plan partitioned the machine — that is the
                    // injected fault working as specified, not mismatched
                    // barriers or a lock cycle. Say so.
                    let partitioned = inner
                        .status
                        .contains(&Status::Blocked(BlockReason::DeadLink));
                    if partitioned {
                        panic!(
                            "network partition: PE(s) blocked on a dead interconnect link, \
                             not a logic deadlock ({} of {} done)\n  {}",
                            inner.done,
                            self.npes,
                            diag.join("\n  ")
                        );
                    }
                    panic!(
                        "cooperative scheduler deadlock: no runnable PE ({} of {} done)\n  {}",
                        inner.done,
                        self.npes,
                        diag.join("\n  ")
                    );
                }
                Floor::Idle
            }
        }
    }

    /// Wait until `pe` holds the floor (or panic if poisoned), after a
    /// hand-off that put the floor at `floor`.
    fn wait_for_floor<'a>(&'a self, mut inner: MutexGuard<'a, Inner>, pe: usize, floor: Floor) {
        if floor == Floor::Kept {
            return;
        }
        if self.exec == ExecMode::Event {
            // Never switch away holding the scheduler lock — the granted PE
            // needs it.
            drop(inner);
            if self.is_poisoned() {
                panic!("{POISON_MSG}");
            }
            match floor {
                Floor::Granted(next) => self.tasks.transfer(pe, next),
                // Registration: nothing to switch into; back to the driver.
                _ => coro::yield_current(),
            }
            // Only the switch a grant decided, or the poison sweep, brings a
            // PE back here (see "The transfer protocol"), so there is
            // nothing to re-read under the lock.
            if self.is_poisoned() {
                panic!("{POISON_MSG}");
            }
            debug_assert_eq!(
                self.lock().status[pe],
                Status::Running,
                "PE {pe} resumed without a floor grant"
            );
            return;
        }
        loop {
            if self.is_poisoned() {
                drop(inner);
                panic!("{POISON_MSG}");
            }
            if inner.status[pe] == Status::Running {
                return;
            }
            inner = self.cvs[pe].wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Called once per PE at thread start. Blocks until all PEs have
    /// registered and this PE is picked to run.
    pub fn register(&self, pe: usize) {
        let mut inner = self.lock();
        assert_eq!(
            inner.status[pe],
            Status::Unstarted,
            "PE {pe} registered twice"
        );
        inner.make_runnable(pe);
        inner.registered += 1;
        let floor = if inner.registered == self.npes {
            self.hand_off(&mut inner, pe)
        } else {
            Floor::Idle
        };
        self.wait_for_floor(inner, pe, floor);
    }

    /// Fold one pick into the fingerprint. Only ever called by the PE
    /// making the pick (see the field), so a plain load + store.
    #[inline]
    fn fold_fingerprint(&self, picked: usize) {
        let fp = self.fingerprint.load(Ordering::Relaxed);
        self.fingerprint
            .store(fold_pick(fp, picked), Ordering::Relaxed);
    }

    /// Publish the heap top as the horizon (see "Keeping the floor" on
    /// [`CoopSched`]). Called under the lock by every operation that
    /// changed the runnable set, before the lock is released.
    fn publish_horizon(&self, inner: &Inner) {
        let open = matches!(inner.chooser, Chooser::Det) && inner.resume_grant.is_none();
        let (clock, pe) = if open {
            inner.heap.peek().unwrap_or(HORIZON_OPEN)
        } else {
            HORIZON_SHUT
        };
        self.horizon_clock.store(clock, Ordering::Release);
        self.horizon_pe.store(pe, Ordering::Release);
    }

    /// The linear-scan reference for the keep-the-floor compare, as
    /// [`Inner::pick_det`] has for the heap: `pe` holds the floor under
    /// `det` and no runnable PE's key is below `(clock, pe)`.
    fn keeps_floor_by_scan(&self, pe: usize, clock: SimTime) -> bool {
        let inner = self.lock();
        matches!(inner.chooser, Chooser::Det)
            && inner.resume_grant.is_none()
            && inner.current == Some(pe)
            && inner.status[pe] == Status::Running
            && inner
                .runnable()
                .map(|p| (inner.clock[p], p))
                .min()
                .is_none_or(|top| (clock, pe) < top)
    }

    /// Yield point: offer the floor at virtual time `clock`. Returns true
    /// if another PE ran in between (a real handoff).
    ///
    /// A caller whose key is below the published horizon would be picked
    /// again, so it keeps the floor for the price of a compare and the
    /// fingerprint fold; see "Keeping the floor" on [`CoopSched`].
    #[inline]
    pub fn yield_now(&self, pe: usize, clock: SimTime) -> bool {
        let horizon = (
            self.horizon_clock.load(Ordering::Acquire),
            self.horizon_pe.load(Ordering::Acquire),
        );
        if (clock, pe) < horizon {
            debug_assert!(
                self.keeps_floor_by_scan(pe, clock),
                "horizon {horizon:?} let PE {pe} @ {clock} keep a floor the scan would move"
            );
            self.fold_fingerprint(pe);
            return false;
        }
        self.yield_locked(pe, clock)
    }

    /// [`Self::yield_now`] when the floor can actually move: refresh
    /// `pe`'s clock, rejoin the runnable set and let the chooser pick.
    /// Kept out of line so the inlined compare stays a compare at every
    /// `sched_point` site.
    #[inline(never)]
    fn yield_locked(&self, pe: usize, clock: SimTime) -> bool {
        let mut inner = self.lock();
        inner.clock[pe] = clock;
        inner.make_runnable(pe);
        let floor = self.hand_off(&mut inner, pe);
        self.wait_for_floor(inner, pe, floor);
        floor != Floor::Kept
    }

    /// Give up the floor until [`Self::unblock`] is called with the same
    /// `reason` class. Spurious wakeups are possible; callers re-check
    /// their condition in a loop.
    pub fn block(&self, pe: usize, clock: SimTime, reason: BlockReason) {
        let mut inner = self.lock();
        inner.clock[pe] = clock;
        inner.status[pe] = Status::Blocked(reason);
        let floor = self.hand_off(&mut inner, pe);
        self.wait_for_floor(inner, pe, floor);
    }

    /// Make `pe` runnable again if it is blocked for `reason`. `hint` is
    /// the virtual time of the enabling event (a message arrival): the
    /// sleeper's advisory clock is raised to it so the deterministic
    /// chooser orders the wakeup faithfully. Called by the floor holder;
    /// does not yield.
    pub fn unblock(&self, pe: usize, hint: SimTime, reason: BlockReason) {
        let mut inner = self.lock();
        if inner.status[pe] == Status::Blocked(reason) {
            inner.clock[pe] = inner.clock[pe].max(hint);
            inner.make_runnable(pe);
            self.publish_horizon(&inner);
        }
    }

    /// Team-wide rendezvous: block until every PE has arrived; the last
    /// arriver releases all and re-enters the normal pick order.
    pub fn gate_wait(&self, pe: usize, clock: SimTime) {
        let mut inner = self.lock();
        inner.clock[pe] = clock;
        inner.gate_arrived += 1;
        if inner.gate_arrived == self.npes {
            inner.gate_arrived = 0;
            for q in 0..self.npes {
                if inner.status[q] == Status::Blocked(BlockReason::Gate) {
                    inner.make_runnable(q);
                }
            }
            inner.make_runnable(pe);
        } else {
            inner.status[pe] = Status::Blocked(BlockReason::Gate);
        }
        let floor = self.hand_off(&mut inner, pe);
        self.wait_for_floor(inner, pe, floor);
    }

    /// Called when `pe`'s program function returns. Hands the floor on
    /// without waiting; the thread is free to finalise its report. Under
    /// the event backend the grant waits in `next_resume` for the driver,
    /// which the finishing coroutine returns to.
    pub fn finish(&self, pe: usize, clock: SimTime) {
        let mut inner = self.lock();
        inner.clock[pe] = clock;
        inner.status[pe] = Status::Done;
        inner.done += 1;
        if inner.done == self.npes {
            inner.current = None;
            return;
        }
        let floor = self.hand_off(&mut inner, pe);
        if let (ExecMode::Event, Floor::Granted(next)) = (self.exec, floor) {
            let pending = self.next_resume.swap(next, Ordering::Release);
            debug_assert_eq!(pending, NO_GRANT, "two floor grants pending at once");
        }
    }

    /// Called from a panicking PE's unwind path: wake everyone so blocked
    /// peers raise [`POISON_MSG`] panics instead of hanging the join.
    pub fn poison(&self, pe: usize) {
        let mut inner = self.lock();
        if inner.status[pe] != Status::Done {
            inner.leave_runnable(pe);
            inner.status[pe] = Status::Done;
            inner.done += 1;
        }
        self.poisoned.store(true, Ordering::Release);
        for cv in &self.cvs {
            cv.notify_all();
        }
    }

    // -- The event driver ----------------------------------------------------

    /// Run a team on this thread under [`ExecMode::Event`]: `coros[pe]` is
    /// PE `pe`'s coroutine, whose first act is [`Self::register`]. Resumes
    /// each once so it registers — the last registrant's hand-off switches
    /// straight into the first PE to run, and from there the floor moves by
    /// transfer (see "The transfer protocol") — then resumes whichever PE
    /// a finishing PE granted the floor to, until no grant is left. A
    /// poisoned team (a PE panicked, or `hand_off` found a deadlock) is
    /// swept instead: every started, unfinished coroutine is resumed once,
    /// comes back from its suspension in `wait_for_floor`, raises
    /// [`POISON_MSG`] and unwinds, so every stack frame drops cleanly.
    /// Panic payloads stay parked in the coroutines for the caller
    /// ([`coro::Coro::take_panic`]).
    ///
    /// # Panics
    /// Panics if this scheduler is not an event-backend one for
    /// `coros.len()` PEs, or if the grants run out while a PE is still
    /// suspended (a scheduler bug).
    pub fn drive(&self, coros: &mut [coro::Coro]) {
        assert_eq!(
            self.exec,
            ExecMode::Event,
            "drive needs an event-backend CoopSched"
        );
        assert_eq!(coros.len(), self.npes, "drive needs one coroutine per PE");
        // SAFETY: `coros` stays borrowed until `_table` clears the slots,
        // and every coroutine runs on this thread, inside `Coro::resume`.
        let _table = unsafe { self.tasks.install(coros) };
        for c in coros.iter_mut() {
            if self.is_poisoned() {
                break;
            }
            driver_resume(c);
        }
        while !self.is_poisoned() {
            match self.event_take_next() {
                Some(pe) => driver_resume(&mut coros[pe]),
                None => break,
            }
        }
        if self.is_poisoned() {
            for c in coros.iter_mut() {
                if c.started() && !c.finished() {
                    driver_resume(c);
                }
            }
        }
        assert!(
            coros.iter().all(|c| c.finished() || !c.started()),
            "event driver ran out of floor grants with PEs suspended"
        );
    }

    /// Take the pending floor grant, if any. `None` means no PE is
    /// waiting to be resumed: the team is finished (or poisoned — check
    /// [`Self::is_poisoned`]). A grant is taken exactly once.
    fn event_take_next(&self) -> Option<usize> {
        match self.next_resume.swap(NO_GRANT, Ordering::Acquire) {
            NO_GRANT => None,
            pe => Some(pe),
        }
    }

    /// Whether a PE panicked or a deadlock was detected.
    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

/// One resume by [`CoopSched::drive`]; it returns when control comes back
/// to the driver.
fn driver_resume(c: &mut coro::Coro) {
    c.resume();
    #[cfg(test)]
    tests::DRIVER_ENTRIES.with(|n| n.set(n.get() + 1));
}

#[cfg(test)]
mod horizon_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    thread_local! {
        /// How many times control came back to [`CoopSched::drive`] on
        /// this thread: once per resume it made.
        pub(super) static DRIVER_ENTRIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn policy_parse_roundtrip() {
        for p in [SchedPolicy::Det, SchedPolicy::Explore { seed: 42 }] {
            assert_eq!(SchedPolicy::parse(&p.to_string()), Ok(p));
        }
        // The free-running policy is gone; its old spelling is refused
        // with the two that remain.
        let err = SchedPolicy::parse("os").unwrap_err();
        for needle in ["det", "explore:<seed>"] {
            assert!(err.contains(needle), "{err:?} must name {needle}");
        }
        assert!(SchedPolicy::parse("explore:")
            .unwrap_err()
            .contains("bad explore seed"));
        assert!(SchedPolicy::parse("bp:1:64").is_err());
        assert!(SchedPolicy::parse("fifo").is_err());
    }

    /// The indexed heap against a brute-force reference: seeded
    /// insert / update / remove streams must keep the peek equal to the
    /// linear-scan minimum, and the heap order and back-pointers intact.
    /// Run small with dense clocks, and at P = 1024 (every PE id scheduled
    /// first) with clocks at 0 and the top of the range, where the packed
    /// key's high half saturates.
    #[test]
    fn pe_heap_matches_linear_reference() {
        const EDGES: [SimTime; 4] = [0, u64::MAX, u64::MAX - 1, 1];
        for (npes, seed) in [(37, 0x5EED), (1024, 1), (1024, 2), (1024, 3)] {
            let clock_of = |r: u64| match (npes, r % 8) {
                (37, _) => r % 1000,
                (_, 0..=3) => EDGES[(r >> 8) as usize % EDGES.len()],
                _ => (r >> 8) % 64,
            };
            let mut heap = PeHeap::new(npes);
            let mut reference: Vec<Option<SimTime>> = vec![None; npes];
            let mut rng = SmallRng::seed_from_u64(seed);
            if npes == 1024 {
                for pe in 0..npes {
                    heap.insert_or_update(pe, EDGES[pe % EDGES.len()]);
                    reference[pe] = Some(EDGES[pe % EDGES.len()]);
                }
            }
            for step in 0..20_000 {
                let pe = (rng.next_u64() % npes as u64) as usize;
                let r = rng.next_u64();
                if r % 3 == 2 {
                    assert_eq!(heap.remove(pe), reference[pe].is_some());
                    reference[pe] = None;
                } else {
                    let clock = clock_of(rng.next_u64());
                    heap.insert_or_update(pe, clock);
                    reference[pe] = Some(clock);
                }
                let want = reference
                    .iter()
                    .enumerate()
                    .filter_map(|(p, c)| c.map(|c| (c, p)))
                    .min();
                assert_eq!(heap.peek(), want, "P = {npes}, seed {seed}, step {step}");
                assert_eq!(heap.len(), reference.iter().flatten().count());
                for (p, c) in reference.iter().enumerate() {
                    assert_eq!(heap.contains(p), c.is_some());
                }
                for (i, &k) in heap.heap.iter().enumerate() {
                    assert_eq!(heap.pos[key_pe(k)] as usize, i, "back-pointer");
                    assert_eq!(reference[key_pe(k)], Some(key_clock(k)));
                    assert!(i == 0 || heap.heap[(i - 1) / 2] <= k, "heap order");
                }
            }
        }
    }

    /// Drive a scheduler from real threads: each PE appends its id to a
    /// shared log at every step, with per-step virtual clocks chosen so
    /// Det has a unique correct order.
    fn run_logged(policy: SchedPolicy, npes: usize, steps: usize) -> (Vec<usize>, SchedStats) {
        let sched = Arc::new(CoopSched::new(npes, policy));
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for pe in 0..npes {
                let sched = Arc::clone(&sched);
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    sched.register(pe);
                    let mut clock = 0u64;
                    for step in 0..steps {
                        log.lock().unwrap().push(pe);
                        // Distinct increments ⇒ a unique min-clock order.
                        clock += 10 + (pe as u64) + (step as u64 % 3);
                        sched.yield_now(pe, clock);
                    }
                    sched.finish(pe, clock);
                });
            }
        });
        let stats = sched.stats();
        (Arc::try_unwrap(log).unwrap().into_inner().unwrap(), stats)
    }

    /// The same logged workload as [`run_logged`], but on the event
    /// backend: one coroutine per PE, run by [`CoopSched::drive`] as a
    /// `parallel` team's are.
    pub(super) fn run_logged_event(
        policy: SchedPolicy,
        npes: usize,
        steps: usize,
    ) -> (Vec<usize>, SchedStats) {
        let sched = Arc::new(CoopSched::with_exec(npes, policy, ExecMode::Event));
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut coros: Vec<coro::Coro> = (0..npes)
            .map(|pe| {
                let sched = Arc::clone(&sched);
                let log = std::rc::Rc::clone(&log);
                coro::Coro::new(256 * 1024, move || {
                    sched.register(pe);
                    let mut clock = 0u64;
                    for step in 0..steps {
                        log.borrow_mut().push(pe);
                        clock += 10 + (pe as u64) + (step as u64 % 3);
                        sched.yield_now(pe, clock);
                    }
                    sched.finish(pe, clock);
                })
            })
            .collect();
        sched.drive(&mut coros);
        assert!(coros.iter().all(|c| c.finished()), "driver exited early");
        let stats = sched.stats();
        drop(coros);
        (std::rc::Rc::try_unwrap(log).unwrap().into_inner(), stats)
    }

    #[test]
    fn det_schedule_is_reproducible_and_virtual_time_ordered() {
        let (a, sa) = run_logged(SchedPolicy::Det, 4, 20);
        let (b, sb) = run_logged(SchedPolicy::Det, 4, 20);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // First picks happen at clock 0 for everyone: PE order by id.
        assert_eq!(&a[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn explore_seeds_differ_but_each_is_reproducible() {
        let (a1, s1) = run_logged(SchedPolicy::Explore { seed: 1 }, 3, 30);
        let (a2, _) = run_logged(SchedPolicy::Explore { seed: 1 }, 3, 30);
        let (b, s2) = run_logged(SchedPolicy::Explore { seed: 2 }, 3, 30);
        assert_eq!(a1, a2, "same seed must replay the same schedule");
        assert_ne!(s1.fingerprint, s2.fingerprint, "different seeds explore");
        assert_ne!(a1, b);
    }

    #[test]
    fn floor_is_exclusive() {
        // A counter that would be racy under real parallelism: each PE
        // does read-modify-write with a yield in the middle. Under the
        // cooperative floor the interleaving is serialised at yield
        // points only, so the Det schedule gives a deterministic result.
        let npes = 4;
        let sched = Arc::new(CoopSched::new(npes, SchedPolicy::Det));
        let cell = Arc::new(AtomicU64::new(0));
        let in_crit = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for pe in 0..npes {
                let sched = Arc::clone(&sched);
                let cell = Arc::clone(&cell);
                let in_crit = Arc::clone(&in_crit);
                scope.spawn(move || {
                    sched.register(pe);
                    for i in 0..50u64 {
                        // No other PE may be between these two fences.
                        assert_eq!(in_crit.fetch_add(1, Ordering::SeqCst), 0);
                        cell.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(in_crit.fetch_sub(1, Ordering::SeqCst), 1);
                        sched.yield_now(pe, (pe as u64 + 1) * 7 + i * 13);
                    }
                    sched.finish(pe, u64::MAX);
                });
            }
        });
        assert_eq!(cell.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn gates_release_only_when_all_arrive() {
        let npes = 3;
        let sched = Arc::new(CoopSched::new(npes, SchedPolicy::Det));
        let phase = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for pe in 0..npes {
                let sched = Arc::clone(&sched);
                let phase = Arc::clone(&phase);
                scope.spawn(move || {
                    sched.register(pe);
                    for round in 1..=5u64 {
                        phase.fetch_add(1, Ordering::SeqCst);
                        sched.gate_wait(pe, round * 100 + pe as u64);
                        // Everyone must have bumped the phase before any
                        // PE proceeds past the gate.
                        assert_eq!(phase.load(Ordering::SeqCst), round * npes as u64);
                        sched.gate_wait(pe, round * 100 + 50 + pe as u64);
                    }
                    sched.finish(pe, u64::MAX);
                });
            }
        });
    }

    #[test]
    fn block_unblock_wrong_reason_is_ignored() {
        let sched = Arc::new(CoopSched::new(2, SchedPolicy::Det));
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            {
                let sched = Arc::clone(&sched);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    sched.register(0);
                    order.lock().unwrap().push("pe0-blocking");
                    sched.block(0, 0, BlockReason::Mailbox);
                    order.lock().unwrap().push("pe0-woke");
                    sched.finish(0, 10);
                });
            }
            {
                let sched = Arc::clone(&sched);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    sched.register(1);
                    // Wrong class: must not wake PE 0.
                    sched.unblock(0, 5, BlockReason::DeadLink);
                    sched.yield_now(1, 1);
                    order.lock().unwrap().push("pe1-sent");
                    sched.unblock(0, 5, BlockReason::Mailbox);
                    sched.yield_now(1, 2);
                    sched.finish(1, 10);
                });
            }
        });
        let order = order.lock().unwrap().clone();
        let woke = order.iter().position(|s| *s == "pe0-woke").unwrap();
        let sent = order.iter().position(|s| *s == "pe1-sent").unwrap();
        assert!(sent < woke, "PE 0 woke before the real unblock: {order:?}");
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let sched = Arc::new(CoopSched::new(2, SchedPolicy::Det));
        let result = std::thread::scope(|scope| {
            let h0 = {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    sched.register(0);
                    // Block forever: nobody will ever unblock us.
                    sched.block(0, 0, BlockReason::Mailbox);
                })
            };
            let h1 = {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    sched.register(1);
                    sched.block(1, 0, BlockReason::Mailbox);
                })
            };
            (h0.join(), h1.join())
        });
        assert!(
            result.0.is_err() && result.1.is_err(),
            "both PEs must unwind"
        );
    }

    #[test]
    fn dead_link_blocks_classify_as_partition() {
        let sched = Arc::new(CoopSched::new(2, SchedPolicy::Det));
        let (r0, r1) = std::thread::scope(|scope| {
            let h0 = {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    sched.register(0);
                    // As Ctx does when try_route returns Unreachable.
                    sched.block(0, 0, BlockReason::DeadLink);
                })
            };
            let h1 = {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    sched.register(1);
                    sched.block(1, 0, BlockReason::Mailbox);
                })
            };
            (h0.join(), h1.join())
        });
        let msgs: Vec<String> = [r0, r1]
            .into_iter()
            .map(|r| {
                let p = r.expect_err("both PEs unwind");
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            })
            .collect();
        // Exactly one PE raises the classifying panic; the other gets the
        // poison message. The classifier must say partition, not deadlock.
        let diag = msgs
            .iter()
            .find(|m| *m != POISON_MSG)
            .expect("one PE carries the diagnostic");
        assert!(diag.contains("network partition"), "{diag}");
        assert!(!diag.contains("cooperative scheduler deadlock"), "{diag}");
        assert!(diag.contains("DeadLink"), "{diag}");
    }

    #[test]
    fn poison_wakes_blocked_peers() {
        let sched = Arc::new(CoopSched::new(2, SchedPolicy::Det));
        let (r0, r1) = std::thread::scope(|scope| {
            let h0 = {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    sched.register(0);
                    sched.block(0, 0, BlockReason::Mailbox);
                })
            };
            let h1 = {
                let sched = Arc::clone(&sched);
                scope.spawn(move || {
                    sched.register(1);
                    sched.poison(1); // as a panicking PE's unwind would
                })
            };
            (h0.join(), h1.join())
        });
        assert!(r0.is_err(), "blocked peer must unwind after poison");
        assert!(r1.is_ok());
    }

    #[test]
    fn exec_mode_parse_roundtrip() {
        for e in [ExecMode::Thread, ExecMode::Event] {
            assert_eq!(ExecMode::parse(&e.to_string()), Ok(e));
        }
        assert!(ExecMode::parse("fiber").is_err());
    }

    /// The answer is read once per process, so each case gets its own.
    #[test]
    fn default_exec_is_event_unless_the_environment_says_thread() {
        use coro::tests::{is_child, rerun_as_child};
        if is_child() {
            println!("default_exec={}", default_exec());
            return;
        }
        let me = "tests::default_exec_is_event_unless_the_environment_says_thread";
        let answer = |env: &[(&str, &str)]| {
            let out = rerun_as_child(me, env);
            assert!(out.status.success(), "child failed: {}", out.status);
            let text = String::from_utf8_lossy(&out.stdout);
            let at = text
                .find("default_exec=")
                .expect("child printed its answer");
            text[at..].lines().next().expect("a line").to_string()
        };
        let ambient = if coro::SUPPORTED { "event" } else { "thread" };
        assert_eq!(answer(&[]), format!("default_exec={ambient}"));
        assert_eq!(answer(&[("O2K_EXEC", "thread")]), "default_exec=thread");
        assert_eq!(answer(&[("O2K_EXEC", "event")]), "default_exec=event");
    }

    #[test]
    fn event_backend_replays_the_thread_backend_det_schedule() {
        let (a, sa) = run_logged(SchedPolicy::Det, 4, 20);
        let (b, sb) = run_logged_event(SchedPolicy::Det, 4, 20);
        assert_eq!(a, b, "pick sequences must be identical across backends");
        assert_eq!(sa.fingerprint, sb.fingerprint);
        assert_eq!(sa.switches, sb.switches);
    }

    #[test]
    fn event_backend_replays_the_seeded_policy_too() {
        let policy = SchedPolicy::Explore { seed: 11 };
        let (a, sa) = run_logged(policy, 3, 30);
        let (b, sb) = run_logged_event(policy, 3, 30);
        assert_eq!(a, b, "{policy} diverged across backends");
        assert_eq!(sa, sb);
    }

    #[test]
    fn event_backend_scales_to_1024_pes() {
        // The point of the backend: a P=1024 team on one OS thread. Two
        // steps each keeps it a smoke test, not a benchmark.
        let (log, stats) = run_logged_event(SchedPolicy::Det, 1024, 2);
        assert_eq!(log.len(), 1024 * 2);
        // First sweep is clock-0 ties broken by PE id.
        assert!(log[..1024].iter().copied().eq(0..1024));
        assert!(stats.switches > 0);
    }

    /// As a `parallel` team's PE body does: poison the scheduler if this
    /// PE unwinds.
    struct PoisonOnUnwind<'a>(&'a CoopSched, usize);

    impl Drop for PoisonOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.poison(self.1);
            }
        }
    }

    /// A PE that yields `yields` times at a clock 10 ns further each time:
    /// with every PE doing that, ties go by PE id and the floor goes round
    /// the ring, one transfer per yield.
    fn ring_yields(sched: &CoopSched, pe: usize, yields: u64) -> SimTime {
        for step in 1..=yields {
            sched.yield_now(pe, step * 10);
        }
        yields * 10
    }

    /// The panic payloads a driven team left parked, in PE order.
    fn payloads(coros: &mut [coro::Coro]) -> Vec<String> {
        coros
            .iter_mut()
            .filter_map(|c| c.take_panic())
            .map(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Four PEs pass the floor round a ring by transfer 1 200 times, then
    /// every PE blocks for good — or, with `exploding`, PE 2 panics where
    /// it would have blocked. Either way the driver must sweep every
    /// suspended coroutine off its stack, and exactly one payload is not
    /// the poison message: the deadlock diagnostic or PE 2's own panic.
    fn ring_then_fail(exploding: bool) -> (String, SchedStats) {
        let npes = 4;
        let sched = Arc::new(CoopSched::with_exec(
            npes,
            SchedPolicy::Det,
            ExecMode::Event,
        ));
        let mut coros: Vec<coro::Coro> = (0..npes)
            .map(|pe| {
                let sched = Arc::clone(&sched);
                coro::Coro::new(256 * 1024, move || {
                    let _poison = PoisonOnUnwind(&sched, pe);
                    sched.register(pe);
                    let clock = ring_yields(&sched, pe, 300);
                    if exploding && pe == 2 {
                        panic!("PE 2 exploded");
                    }
                    // Nobody will unblock us.
                    sched.block(pe, clock, BlockReason::Mailbox);
                })
            })
            .collect();
        sched.drive(&mut coros);
        assert!(sched.is_poisoned(), "the failure must poison the scheduler");
        assert!(coros.iter().all(|c| c.finished()), "every PE unwound");
        let msgs = payloads(&mut coros);
        assert_eq!(msgs.len(), npes, "every PE unwinds with a payload");
        let mut primary = msgs.iter().filter(|m| *m != POISON_MSG);
        let first = primary.next().expect("one PE carries the failure").clone();
        assert_eq!(primary.next(), None, "the rest are poison: {msgs:?}");
        (first, sched.stats())
    }

    #[test]
    fn event_backend_detects_deadlock_and_unwinds_all_coroutines() {
        let (diag, stats) = ring_then_fail(false);
        assert!(diag.contains("cooperative scheduler deadlock"), "{diag}");
        assert!(stats.switches >= 1_000, "{} transfers", stats.switches);
        let (primary, stats) = ring_then_fail(true);
        assert_eq!(primary, "PE 2 exploded");
        assert!(stats.switches >= 1_000, "{} transfers", stats.switches);
    }

    /// The driver gets control back at registration (every registrant but
    /// the last suspends to it) and after each finish — never for a
    /// hand-off between running PEs, however many there are.
    #[test]
    fn the_driver_is_entered_only_at_registration_and_finishes() {
        let npes = 5;
        for yields in [1u64, 10, 1_000] {
            let sched = Arc::new(CoopSched::with_exec(
                npes,
                SchedPolicy::Det,
                ExecMode::Event,
            ));
            let mut coros: Vec<coro::Coro> = (0..npes)
                .map(|pe| {
                    let sched = Arc::clone(&sched);
                    coro::Coro::new(256 * 1024, move || {
                        sched.register(pe);
                        let clock = ring_yields(&sched, pe, yields);
                        sched.finish(pe, clock);
                    })
                })
                .collect();
            DRIVER_ENTRIES.with(|n| n.set(0));
            sched.drive(&mut coros);
            let entries = DRIVER_ENTRIES.with(|n| n.get());
            // npes - 1 suspended registrants, then npes finishes.
            assert_eq!(entries, 2 * npes as u64 - 1, "{yields} yields each");
            // A ring: every yield, and every finish but the last, switches.
            let switches = (yields + 1) * npes as u64 - 1;
            assert_eq!(sched.stats().switches, switches, "{yields} yields each");
        }
    }

    /// Two PEs that register and finish, as coroutines the test drives.
    fn two_registrants(sched: &Arc<CoopSched>) -> Vec<coro::Coro<'static>> {
        (0..2)
            .map(|pe| {
                let sched = Arc::clone(sched);
                coro::Coro::new(256 * 1024, move || {
                    sched.register(pe);
                    sched.finish(pe, 0);
                })
            })
            .collect()
    }

    #[test]
    fn a_floor_grant_is_taken_exactly_once() {
        let sched = Arc::new(CoopSched::with_exec(2, SchedPolicy::Det, ExecMode::Event));
        let mut coros = two_registrants(&sched);
        // SAFETY: `coros` outlives the guard; everything runs on this
        // thread.
        let _table = unsafe { sched.tasks.install(&coros) };
        assert_eq!(sched.event_take_next(), None, "nobody registered yet");
        coros[0].resume(); // registers and suspends: no grant to act on
        assert_eq!(sched.event_take_next(), None);
        // The last registrant's hand-off picks PE 0 and switches straight
        // into it; PE 0's `finish` grants PE 1, which is the driver's job.
        assert!(!coros[1].resume());
        assert!(coros[0].finished());
        assert_eq!(sched.event_take_next(), Some(1));
        assert_eq!(sched.event_take_next(), None);
        assert!(coros[1].resume());
        assert_eq!(
            sched.event_take_next(),
            None,
            "the last finish grants nothing"
        );
    }

    /// The overrun diagnostic must follow a transfer: `CURRENT` is the PE
    /// the floor was handed to, not the yielder, and not whichever PE the
    /// driver last resumed.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_overrun_after_a_transfer_names_the_pe_and_aborts() {
        use coro::tests::{dive, is_child, rerun_as_child};
        use std::os::unix::process::ExitStatusExt;
        if is_child() {
            let sched = CoopSched::with_exec(2, SchedPolicy::Det, ExecMode::Event);
            let sched = &sched;
            // PE 1 registers last (the driver's last resume) and switches
            // into PE 0, which yields into PE 1, which yields back into PE
            // 0: the dive runs on a stack reached by transfer twice over.
            let mut coros = vec![
                coro::Coro::new(coro::stack_bytes(), move || {
                    sched.register(0);
                    sched.yield_now(0, 10);
                    std::hint::black_box(dive(0));
                })
                .for_pe(0),
                coro::Coro::new(coro::stack_bytes(), move || {
                    sched.register(1);
                    sched.yield_now(1, 20);
                    sched.finish(1, 20);
                })
                .for_pe(1),
            ];
            sched.drive(&mut coros);
            unreachable!("the dive has no bottom");
        }
        let out = rerun_as_child(
            "tests::an_overrun_after_a_transfer_names_the_pe_and_aborts",
            &[("O2K_STACK_KB", "64")],
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("PE 0 overran its 64 KiB coroutine stack; raise O2K_STACK_KB"),
            "no diagnostic naming PE 0 on stderr:\n{err}"
        );
        assert_eq!(out.status.signal(), Some(6), "SIGABRT, got {}", out.status);
    }

    #[test]
    fn a_pe_resumed_after_poison_unwinds_without_taking_the_lock() {
        let sched = Arc::new(CoopSched::with_exec(2, SchedPolicy::Det, ExecMode::Event));
        let mut coros = two_registrants(&sched);
        coros[0].resume(); // registers and suspends: PE 1 has not arrived
        sched.poison(1); // as PE 1's unwind path would
        assert!(sched.is_poisoned());
        // Resume PE 0 with the mutex held by this, its own, thread: a PE
        // that went back under the lock to re-read its status would hang
        // here instead of unwinding.
        let held = sched.lock();
        coros[0].resume();
        drop(held);
        assert!(coros[0].finished());
        let payload = coros[0].take_panic().expect("PE 0 unwound");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), POISON_MSG);
    }

    #[test]
    fn preseed_resume_replays_the_tail_of_a_straight_run() {
        // A two-phase workload with a mid-run gate: the straight run
        // exports resumable state right after the gate; a second team
        // preseeded from it must replay phase 2 pick-for-pick and land on
        // the same final fingerprint and switch count.
        for policy in [SchedPolicy::Det, SchedPolicy::Explore { seed: 3 }] {
            let npes = 3;
            let steps = 10usize;
            let clock_at = |pe: usize, step: usize| (step as u64 + 1) * 10 + pe as u64 * 3;

            let sched = Arc::new(CoopSched::new(npes, policy));
            let log = Arc::new(Mutex::new(Vec::new()));
            let resume = Arc::new(Mutex::new(None));
            std::thread::scope(|scope| {
                for pe in 0..npes {
                    let sched = Arc::clone(&sched);
                    let log = Arc::clone(&log);
                    let resume = Arc::clone(&resume);
                    scope.spawn(move || {
                        sched.register(pe);
                        for step in 0..steps {
                            log.lock().unwrap().push((1u8, pe));
                            sched.yield_now(pe, clock_at(pe, step));
                        }
                        sched.gate_wait(pe, clock_at(pe, steps));
                        // First PE past the gate is the floor holder: the
                        // only place export_resume is legal.
                        {
                            let mut r = resume.lock().unwrap();
                            if r.is_none() {
                                *r = Some(sched.export_resume());
                            }
                        }
                        for step in steps..2 * steps {
                            log.lock().unwrap().push((2u8, pe));
                            sched.yield_now(pe, clock_at(pe, step + 1));
                        }
                        sched.finish(pe, u64::MAX);
                    });
                }
            });
            let straight = sched.stats();
            let straight_tail: Vec<usize> = log
                .lock()
                .unwrap()
                .iter()
                .filter(|(phase, _)| *phase == 2)
                .map(|(_, pe)| *pe)
                .collect();
            let resume = resume
                .lock()
                .unwrap()
                .take()
                .expect("floor holder exported");
            assert_eq!(resume.clocks.len(), npes);

            let sched2 = Arc::new(CoopSched::new(npes, policy));
            sched2.preseed_resume(&resume);
            let log2 = Arc::new(Mutex::new(Vec::new()));
            std::thread::scope(|scope| {
                for pe in 0..npes {
                    let sched2 = Arc::clone(&sched2);
                    let log2 = Arc::clone(&log2);
                    scope.spawn(move || {
                        sched2.register(pe);
                        for step in steps..2 * steps {
                            log2.lock().unwrap().push(pe);
                            sched2.yield_now(pe, clock_at(pe, step + 1));
                        }
                        sched2.finish(pe, u64::MAX);
                    });
                }
            });
            let resumed = sched2.stats();
            assert_eq!(
                log2.lock().unwrap().clone(),
                straight_tail,
                "{policy}: resumed tail diverged from the straight run"
            );
            assert_eq!(resumed.fingerprint, straight.fingerprint, "{policy}");
            assert_eq!(resumed.switches, straight.switches, "{policy}");
        }
    }

    #[test]
    fn default_policy_is_det_unless_env_or_override_says_otherwise() {
        // The CI matrix sets O2K_SCHED; without it the fallback is `det`.
        if std::env::var_os("O2K_SCHED").is_none() {
            assert_eq!(default_policy(), SchedPolicy::Det);
        }
        // The override wins over everything.
        set_default_policy(SchedPolicy::Explore { seed: 3 });
        assert_eq!(default_policy(), SchedPolicy::Explore { seed: 3 });
    }
}
