//! One counting `#[global_allocator]` for the test binaries that hold a
//! path to an allocation figure (`hit_path`, `msg_path`, `adapt_alloc`,
//! `tree_alloc`, `footprint`). Each includes it with `mod support;`, so each stays its
//! own binary and no other test's allocator is replaced.
//!
//! Two counts are kept per thread: allocation *calls* — `alloc`,
//! `alloc_zeroed` and `realloc` count once each — and *live bytes* with
//! their peak. A block freed on a thread that did not allocate it must
//! not wrap the live count.

// Each binary reads one of the two counts.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// One allocation call that leaves `bytes` more live on this thread.
fn allocated(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn freed(bytes: usize) {
    LIVE.with(|l| l.set(l.get().saturating_sub(bytes)));
}

// SAFETY: defers every request to `System` unchanged; the only addition is
// arithmetic on const-initialised, destructor-free thread-local `Cell`s,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        // SAFETY: same layout, passed straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size());
        // SAFETY: same layout, passed straight through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        freed(layout.size());
        allocated(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls made on this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The most heap `f` held at once on this thread, beyond what was live
/// when it started.
pub fn peak_live_bytes<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let r = f();
    (r, PEAK.with(Cell::get) - base)
}
