//! A large team pays for what it touches.
//!
//! Its own test binary (like `hit_path.rs`) so it can install a counting
//! `#[global_allocator]`: a P = 256 CC-SAS serving run must fit in 64 MiB
//! of live heap — each PE's cache simulator used to be a dense 1 MiB
//! table, 256 MiB for the team, whatever the PE touched. Live bytes are
//! counted per thread; the event core runs every PE on the calling
//! thread, so the other tests in this binary never show up in the figure.
//! A symmetric SHMEM region is held to the same rule: the hot-shard
//! replica region is allocated by all 256 PEs and written by three helpers
//! per hot shard, and how many shards are hot follows the seed — dense, it
//! was 8 MiB of heap per hot shard and the run's peak moved with the seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use origin2k::machine::{ContentionMode, Machine, MachineConfig};
use origin2k::prelude::*;
use origin2k::serve::Mitigation;

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrank(bytes: usize) {
    // A block freed on a thread that did not allocate it must not wrap.
    LIVE.with(|l| l.set(l.get().saturating_sub(bytes)));
}

// SAFETY: defers every request to `System` unchanged; the only addition is
// arithmetic on const-initialised, destructor-free thread-local `Cell`s,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout, passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout, passed straight through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most heap `f` held at once on this thread, beyond what was live
/// when it started.
fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let r = f();
    (r, PEAK.with(Cell::get) - base)
}

/// The benchmark's `serve-tail` shape (Origin2000 parameters on the full
/// fabric, 64 keys per shard, 64-word values), at a request count a debug
/// build finishes quickly.
fn serve(pes: usize, model: Model, opts: RunOpts) -> RunMetrics {
    serve_cfg(pes, model, opts, ServeConfig::default())
}

/// [`serve`] with the fields the shape leaves alone (skew, mitigation)
/// taken from `rest`.
fn serve_cfg(pes: usize, model: Model, opts: RunOpts, rest: ServeConfig) -> RunMetrics {
    let machine = Arc::new(Machine::new(
        pes,
        MachineConfig {
            contention: ContentionMode::Fabric,
            ..MachineConfig::origin2000()
        },
    ));
    let cfg = ServeConfig {
        keys: 64 * pes,
        requests: 32 * pes as u64,
        mean_gap_ns: 15_000,
        val_words: 64,
        start_ns: 600_000,
        seed: 0x00C0_FFEE,
        ..rest
    };
    let run = origin2k::serve::run_opts(machine, model, &cfg, opts);
    let s = run.serve.as_ref().expect("serving runs carry ServeStats");
    assert_eq!(s.issued, cfg.requests, "every request issued");
    assert_eq!(s.completed, s.issued, "no deadline, so nothing is shed");
    run
}

#[test]
fn a_p256_sas_serve_run_fits_in_64_mib_of_heap() {
    const MIB: usize = 1 << 20;
    let (run, peak) = peak_live_bytes(|| serve(256, Model::Sas, RunOpts::det_event()));
    assert!(run.counters.cache_hits > 0, "the caches were in use");
    assert!(
        peak < 64 * MIB,
        "P = 256 CC-SAS serve held {} MiB of heap at once",
        peak / MIB
    );
}

#[test]
fn a_p256_shmem_replica_region_costs_what_its_helpers_hold() {
    const MIB: usize = 1 << 20;
    let hot = ServeConfig {
        skew: 3.0,
        mitigation: Mitigation::Replicate { replicas: 3 },
        ..ServeConfig::default()
    };
    let (run, peak) = peak_live_bytes(|| serve_cfg(256, Model::Shmem, RunOpts::det_event(), hot));
    assert!(run.counters.replica_bytes > 0, "replicas were placed");
    assert!(
        peak < 64 * MIB,
        "P = 256 SHMEM replicated serve held {} MiB of heap at once",
        peak / MIB
    );
}
