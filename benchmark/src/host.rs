//! The host side of a run: the counting allocator, CPU pinning, process
//! accounting from `/proc`, and the record of what machine and toolchain
//! produced a result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::json::{self, Value};

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Forwards to the system allocator and keeps three statistics: live bytes,
/// their high-water mark, and the number of allocation calls. Sizes are the
/// *requested* sizes, so a 4 MiB coroutine stack counts as 4 MiB however few
/// of its pages are ever touched — which is what makes the peak repeat
/// exactly from run to run.
pub struct CountingAlloc;

// Statistics only: no other memory is published through these counters, so
// `Relaxed` is enough.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer, so `System`'s guarantees carry over; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc malloc's policy for the run: serve every request up to 32 MiB
/// (the most glibc allows) from the heap, and never hand the heap's top back
/// to the kernel. Returns whether the policy is in force.
///
/// Left alone, glibc moves both thresholds while the program runs, by what
/// was freed last. A P = 256 serve cell allocates 1 GiB of coroutine stacks
/// and 0.3 GiB of cache-simulator tables and frees them again; whether the
/// next cell finds those pages still mapped or faults them all in anew then
/// depends on that moving state, i.e. on the seed's allocation history. The
/// same code ran `serve-tail` in 1.48 s on six seeds and in 1.72 s on four,
/// run after run: on those four, three cells faulted 65 000 pages in again on
/// every pass. Pinned, the warm-up pass faults the pages in once (that is
/// part of `setup_s`, and `host.minor_faults` counts it) and the timed passes
/// reuse them on every seed.
pub fn pin_allocator_policy() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    let pinned = {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets allocator parameters, and runs before
        // any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    };
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    let pinned = false;
    POLICY_PINNED.store(pinned, Ordering::Relaxed);
    pinned
}

static POLICY_PINNED: AtomicBool = AtomicBool::new(false);

pub fn peak_alloc_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

pub fn alloc_calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Environment and pinning
// ---------------------------------------------------------------------------

/// The repository's ambient knobs. A run clears them so that what it
/// measures is the code's defaults, not the caller's shell.
const AMBIENT_VARS: [&str; 6] = [
    "O2K_SCHED",
    "O2K_EXEC",
    "O2K_FAULT",
    "O2K_TRACE",
    "O2K_STACK_KB",
    "O2K_THREAD_PE_CAP",
];

/// Must run before any other thread exists and before the repository's
/// `OnceLock` readers of these variables fire.
pub fn clear_ambient_env() {
    for v in AMBIENT_VARS {
        std::env::remove_var(v);
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this thread (and every thread or process it later starts) to the CPU
/// it is running on. Returns the CPU, or `None` when pinning is not possible
/// — the run goes on, marked unpinned.
pub fn pin_to_current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let cpu = proc_stat().map(|s| s.processor)?;
        let mut mask = [0u64; 16]; // 1024 CPUs
        *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, correctly sized buffer for the length
        // passed; pid 0 means the calling thread; the call writes nothing.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

// ---------------------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------------------

/// The fields of `/proc/self/stat` a run reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub minor_faults: u64,
    pub user_s: f64,
    pub sys_s: f64,
    pub processor: usize,
}

pub fn proc_stat() -> Option<ProcStat> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &text[text.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3, so field n is f[n - 3]. Clock ticks are
    // 100 Hz on every Linux this runs on (USER_HZ).
    let ticks = |n: usize| f.get(n - 3)?.parse::<f64>().ok().map(|t| t / 100.0);
    Some(ProcStat {
        minor_faults: f.get(10 - 3)?.parse().ok()?,
        user_s: ticks(14)?,
        sys_s: ticks(15)?,
        processor: f.get(39 - 3)?.parse().ok()?,
    })
}

/// High-water resident set, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

// ---------------------------------------------------------------------------
// Host record
// ---------------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What produced a result: carried by every run so that two results are
/// only ever compared knowingly across hosts or toolchains.
pub fn record(pinned_cpu: Option<usize>) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| Some(l.split(':').nth(1)?.trim().to_string()))
        .unwrap_or_else(|| "unknown".into());
    // The host's CPUs, not the one this process is pinned to (which is all
    // `available_parallelism` would see).
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    // Only ask git inside a work tree rooted here: a benchmark checkout is
    // not a repository, and git must not wander into parent directories.
    let git_rev = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    json::obj([
        ("nproc", json::num(nproc as u32)),
        ("cpu_model", json::str(cpu_model)),
        (
            "rustc",
            json::str(command_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_rev",
            json::str(git_rev.unwrap_or_else(|| "unknown".into())),
        ),
        ("pinned", Value::Bool(pinned_cpu.is_some())),
        (
            "malloc_policy_pinned",
            Value::Bool(POLICY_PINNED.load(Ordering::Relaxed)),
        ),
        (
            "cpu",
            pinned_cpu.map_or(Value::Null, |c| json::num(c as u32)),
        ),
    ])
}
