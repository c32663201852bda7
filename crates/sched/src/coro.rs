//! Minimal stackful coroutines for the single-threaded event backend.
//!
//! [`ExecMode::Event`](crate::ExecMode::Event) runs every PE of a team as
//! a resumable task on one OS thread. Each task needs its own call stack —
//! the PE bodies are arbitrary deep-recursing application code, not state
//! machines — so this module vendors the one primitive the standard
//! library does not offer: a user-space stack switch.
//!
//! The design is the classic asymmetric coroutine, plus one symmetric
//! move:
//!
//! * [`Coro::resume`] switches from the driver onto the task's stack
//!   (first entering through a bootstrap frame that `ret`s into
//!   `trampoline`, later returning into whatever frame the task
//!   suspended in);
//! * [`yield_current`] switches from the task back to whoever resumed it;
//! * `Tasks::transfer` switches from the running task straight into a
//!   suspended peer, which takes over the yielder's resumer — so the peer's
//!   next yield, or its finish, lands in the driver, which stayed parked
//!   in its `resume` throughout. The event backend hands the floor from
//!   PE to PE this way: one switch, no trip through the driver.
//!
//! The switch itself (`o2k_coro_switch`) saves the callee-saved register
//! set on the current stack, publishes the stack pointer, and restores the
//! target's — about 30 ns for a yield and the resume after it
//! (`sched.coro_switch_ns` on a 2-CPU Xeon), against the microseconds a
//! condvar handoff between parked OS threads costs.
//! Caller-saved registers need no saving: from the compiler's point of
//! view the switch is an ordinary `extern "C"` call that eventually
//! returns.
//!
//! Panics never unwind across a switch: the task's panic runs down its own
//! stack into the `catch_unwind` in `trampoline`, is parked as a
//! payload, and the driver decides what to propagate — mirroring what
//! `JoinHandle::join` gives the thread backend.
//!
//! Every stack is its own anonymous mapping with a `PROT_NONE` guard page
//! at the low end (see [`STACK_BYTES`]): untouched pages cost address
//! space, not memory, none of it passes through the global allocator, and
//! a task that overruns its stack faults on the guard page, where a
//! signal handler names the PE and aborts. Finished tasks leave their
//! mapping on a per-thread free list for the next [`Coro::new`] of that
//! size, so a team's pages are faulted in once per thread, not once per
//! run.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Default per-task stack size. A stack is a private anonymous mapping
/// (`MAP_NORESERVE`) of this many bytes above one inaccessible guard
/// page: pages are committed as the task first touches them, and running
/// off the end is a fault the handler below turns into `PE <n> overran
/// its <k> KiB coroutine stack; raise O2K_STACK_KB` and an abort — never
/// a write into a neighbour's memory. Unoptimized frames are several
/// times fatter than release ones (the deep CC-SAS line-access paths
/// overflowed 2 MiB under debug assertions), so debug builds get 16 MiB
/// where release builds get 4 MiB; DESIGN.md §4f records the measured
/// high-water marks ([`Coro::stack_high_water_kb`]) behind those sizes.
/// Override with `O2K_STACK_KB`.
pub const STACK_BYTES: usize = if cfg!(debug_assertions) {
    16 * 1024 * 1024
} else {
    4 * 1024 * 1024
};

/// `O2K_STACK_KB` from the environment: `Ok(None)` when unset, a
/// diagnostic when malformed (see [`machine::env_setting`]).
pub fn env_stack_kb() -> Result<Option<usize>, String> {
    machine::env_setting(
        "O2K_STACK_KB",
        "a per-task stack size in KiB, raised to at least 64",
        |s| {
            s.trim()
                .parse::<usize>()
                .ok()
                .filter(|kb| kb.checked_mul(1024).is_some())
        },
    )
}

/// Per-task stack size: `O2K_STACK_KB` (in KiB, min 64) or
/// [`STACK_BYTES`]. Panics with [`env_stack_kb`]'s diagnostic on a
/// malformed `O2K_STACK_KB`.
pub fn stack_bytes() -> usize {
    static SIZE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *SIZE.get_or_init(|| {
        env_stack_kb()
            .unwrap_or_else(|e| panic!("{e}"))
            .map_or(STACK_BYTES, |kb| kb.max(64) * 1024)
    })
}

/// Whether this build can run coroutines: a stack switch for the host
/// architecture (x86-64, aarch64) and the mapping / signal calls as Linux
/// declares them (see `sys`). Elsewhere [`Coro::new`] panics,
/// [`ExecMode::Event`](crate::ExecMode::Event) is unavailable and
/// [`default_exec`](crate::default_exec) answers `Thread`.
pub const SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

// ---------------------------------------------------------------------------
// The stack switch
// ---------------------------------------------------------------------------

// x86-64 SysV: save rbp/rbx/r12-r15 plus the MXCSR and x87 control words
// (the only floating-point state the ABI makes callee-saved), publish rsp
// through `save`, adopt `target`, restore, return. A bootstrap frame makes
// the first restore `ret` into `trampoline` (see `Coro::new` for the
// layout, which must match this save order exactly).
#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    r#"
    .text
    .p2align 4
    .globl o2k_coro_switch
    .hidden o2k_coro_switch
o2k_coro_switch:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    sub rsp, 8
    stmxcsr [rsp]
    fnstcw  [rsp + 4]
    mov [rdi], rsp
    mov rsp, rsi
    ldmxcsr [rsp]
    fldcw   [rsp + 4]
    add rsp, 8
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret
"#
);

// AArch64 AAPCS64: x19-x28, the frame pointer/link register pair, and the
// low halves of v8-v15 are callee-saved. `ret` branches to the restored
// x30, which the bootstrap frame points at `trampoline`.
#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    r#"
    .text
    .p2align 4
    .globl o2k_coro_switch
    .hidden o2k_coro_switch
o2k_coro_switch:
    sub sp, sp, #160
    stp x19, x20, [sp, #0]
    stp x21, x22, [sp, #16]
    stp x23, x24, [sp, #32]
    stp x25, x26, [sp, #48]
    stp x27, x28, [sp, #64]
    stp x29, x30, [sp, #80]
    stp d8,  d9,  [sp, #96]
    stp d10, d11, [sp, #112]
    stp d12, d13, [sp, #128]
    stp d14, d15, [sp, #144]
    mov x9, sp
    str x9, [x0]
    mov sp, x1
    ldp x19, x20, [sp, #0]
    ldp x21, x22, [sp, #16]
    ldp x23, x24, [sp, #32]
    ldp x25, x26, [sp, #48]
    ldp x27, x28, [sp, #64]
    ldp x29, x30, [sp, #80]
    ldp d8,  d9,  [sp, #96]
    ldp d10, d11, [sp, #112]
    ldp d12, d13, [sp, #128]
    ldp d14, d15, [sp, #144]
    add sp, sp, #160
    ret
"#
);

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
extern "C" {
    /// Save the current continuation's stack pointer into `*save`, switch
    /// to the continuation whose stack pointer is `target`, and return
    /// when something switches back here.
    fn o2k_coro_switch(save: *mut *mut u8, target: *mut u8);
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
#[allow(clippy::missing_safety_doc)]
unsafe fn o2k_coro_switch(_save: *mut *mut u8, _target: *mut u8) {
    unreachable!("ExecMode::Event has no stack switch for this architecture");
}

// ---------------------------------------------------------------------------
// Coroutine objects
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Created; the entry closure has not run yet.
    New,
    /// Suspended inside [`yield_current`] (or the bootstrap frame).
    Suspended,
    /// Currently on its own stack (between resume and yield/finish).
    Running,
    /// The entry closure returned or panicked; never resumable again.
    Finished,
}

/// The handful of libc calls the stacks need, declared by hand: the
/// workspace carries no `libc` crate. Constants and struct layouts are
/// Linux's, the same on x86-64 and aarch64 under glibc and musl.
#[cfg(target_os = "linux")]
mod sys {
    pub(super) use std::ffi::{c_int, c_void};

    pub(super) const PROT_NONE: c_int = 0;
    pub(super) const PROT_READ: c_int = 1;
    pub(super) const PROT_WRITE: c_int = 2;
    pub(super) const MAP_PRIVATE: c_int = 0x02;
    pub(super) const MAP_ANONYMOUS: c_int = 0x20;
    pub(super) const MAP_NORESERVE: c_int = 0x4000;
    pub(super) const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
    pub(super) const SC_PAGESIZE: c_int = 30;
    pub(super) const SIGBUS: c_int = 7;
    pub(super) const SIGSEGV: c_int = 11;
    pub(super) const SIG_DFL: usize = 0;
    pub(super) const SIG_IGN: usize = 1;
    pub(super) const SA_SIGINFO: c_int = 4;
    pub(super) const SA_ONSTACK: c_int = 0x0800_0000;

    /// `struct sigaction`: handler (either signature), 1024-bit mask,
    /// flags, restorer.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct SigAction {
        pub(super) handler: usize,
        pub(super) mask: [u64; 16],
        pub(super) flags: c_int,
        pub(super) restorer: usize,
    }

    /// The head of `siginfo_t` as SIGSEGV / SIGBUS fill it: three ints,
    /// then (8-aligned) the faulting address.
    #[repr(C)]
    pub(super) struct SigInfo {
        pub(super) signo: c_int,
        pub(super) errno: c_int,
        pub(super) code: c_int,
        pub(super) addr: *mut c_void,
    }

    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub(super) fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        pub(super) fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
        pub(super) fn sysconf(name: c_int) -> std::ffi::c_long;
        pub(super) fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        pub(super) fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub(super) fn abort() -> !;
    }
}

/// A task stack: `usable` bytes of lazily committed private memory above
/// a `guard`-byte inaccessible page at `base` (stacks grow down, so the
/// guard is where an overrun lands).
struct StackMem {
    base: *mut u8,
    guard: usize,
    usable: usize,
}

thread_local! {
    /// Mappings of this thread's finished coroutines, kept for the next
    /// [`Coro::new`] of the same size: their touched pages stay resident,
    /// so a run does not fault its team's stacks in afresh. Unmapped when
    /// the thread exits.
    static FREE: RefCell<Vec<StackMem>> = const { RefCell::new(Vec::new()) };
}

impl StackMem {
    /// A stack with at least `bytes` usable bytes: this thread's most
    /// recently freed one of that size, else a fresh mapping.
    fn take(bytes: usize) -> Self {
        let page = page_size();
        let usable = bytes.max(1).div_ceil(page) * page;
        let recycled = FREE.with(|free| {
            let mut free = free.borrow_mut();
            let at = free.iter().rposition(|s| s.usable == usable)?;
            Some(free.swap_remove(at))
        });
        recycled.unwrap_or_else(|| Self::map(page, usable))
    }

    /// Hand the mapping to the next coroutine of this thread. A stack
    /// dropped while the thread's locals are being destroyed is unmapped
    /// on the spot.
    fn recycle(self) {
        let _ = FREE.try_with(|free| free.borrow_mut().push(self));
    }

    /// One-past-the-end of the stack, page- (so 16-) aligned.
    fn top(&self) -> *mut u8 {
        // SAFETY: base + guard + usable is one past the mapping.
        unsafe { self.base.add(self.guard + self.usable) }
    }
}

#[cfg(target_os = "linux")]
fn page_size() -> usize {
    static PAGE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    // SAFETY: sysconf reads a constant of the running system.
    *PAGE.get_or_init(|| usize::try_from(unsafe { sys::sysconf(sys::SC_PAGESIZE) }).unwrap_or(4096))
}

#[cfg(target_os = "linux")]
impl StackMem {
    fn map(guard: usize, usable: usize) -> Self {
        install_fault_handler();
        let len = guard + usable;
        // SAFETY: a fresh anonymous private mapping aliases nothing.
        // NORESERVE: a team's stacks are address space until touched, and
        // must not count against the commit limit as if they were not.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            base != sys::MAP_FAILED,
            "mapping a {} KiB coroutine stack failed: {}",
            usable / 1024,
            std::io::Error::last_os_error()
        );
        // SAFETY: the lowest page of the mapping just made; nothing has
        // used it yet.
        let rc = unsafe { sys::mprotect(base, guard, sys::PROT_NONE) };
        assert!(
            rc == 0,
            "protecting a coroutine stack's guard page failed: {}",
            std::io::Error::last_os_error()
        );
        StackMem {
            base: base.cast(),
            guard,
            usable,
        }
    }

    /// Bytes from the stack top down to the deepest page that is resident,
    /// i.e. that any coroutine run on this mapping ever touched. A stack
    /// is touched without gaps from the top — a frame larger than a page
    /// is probed page by page, a smaller one at least stores its return
    /// address — so this asks `mincore` about windows below the top, 16
    /// pages and doubling, and stops at the first page that is not there:
    /// one short call for the usual shallow stack instead of a walk over
    /// 4 MiB of page table per PE per run.
    fn high_water(&self) -> usize {
        let page = self.guard;
        let mut resident = [0u8; 1024];
        let mut pages = 16;
        let mut known = 0;
        while known < self.usable {
            let len = (self.usable - known).min(pages * page);
            // SAFETY: [top - known - len, top - known) is a page-aligned
            // part of this live mapping above the guard, and `resident`
            // has a byte for each of its at most 1024 pages.
            let rc = unsafe {
                sys::mincore(
                    self.top().sub(known + len).cast(),
                    len,
                    resident.as_mut_ptr(),
                )
            };
            assert!(
                rc == 0,
                "mincore on a coroutine stack failed: {}",
                std::io::Error::last_os_error()
            );
            let window = &resident[..len / page];
            if let Some(absent) = window.iter().rposition(|r| r & 1 == 0) {
                return known + (window.len() - 1 - absent) * page;
            }
            known += len;
            pages = (pages * 2).min(resident.len());
        }
        self.usable
    }
}

#[cfg(target_os = "linux")]
impl Drop for StackMem {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `map` made; no coroutine runs on a
        // stack that reached the free list or a dropped `Coro`.
        unsafe { sys::munmap(self.base.cast(), self.guard + self.usable) };
    }
}

#[cfg(not(target_os = "linux"))]
fn page_size() -> usize {
    4096
}

#[cfg(not(target_os = "linux"))]
impl StackMem {
    fn map(_guard: usize, _usable: usize) -> Self {
        panic!(
            "ExecMode::Event maps its stacks with Linux's mmap / mprotect / sigaction; \
             use --exec thread on this system"
        );
    }

    fn high_water(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// Overruns
// ---------------------------------------------------------------------------

/// What SIGSEGV and SIGBUS did before [`install_fault_handler`]: std's
/// own main-thread overflow detector, normally.
#[cfg(target_os = "linux")]
static PREVIOUS: std::sync::OnceLock<[sys::SigAction; 2]> = std::sync::OnceLock::new();

/// Route SIGSEGV and SIGBUS through [`on_fault`], once per process, before
/// the first stack is mapped. `SA_ONSTACK`: the faulting stack has no room
/// left by definition, so the handler runs on the alternate signal stack
/// std gives the main thread and every thread it spawns (a thread with
/// none simply dies of the fault, as it would have).
#[cfg(target_os = "linux")]
fn install_fault_handler() {
    PREVIOUS.get_or_init(|| {
        let ours = sys::SigAction {
            handler: on_fault as *const () as usize,
            mask: [0; 16],
            flags: sys::SA_SIGINFO | sys::SA_ONSTACK,
            restorer: 0,
        };
        [sys::SIGSEGV, sys::SIGBUS].map(|sig| {
            let mut old = sys::SigAction {
                handler: sys::SIG_DFL,
                mask: [0; 16],
                flags: 0,
                restorer: 0,
            };
            // SAFETY: `on_fault` has the three-argument signature
            // SA_SIGINFO promises and is async-signal-safe; `old` is one
            // writable `struct sigaction`.
            let rc = unsafe { sys::sigaction(sig, &ours, &mut old) };
            assert!(
                rc == 0,
                "installing the coroutine-stack fault handler failed"
            );
            old
        })
    });
}

/// SIGSEGV / SIGBUS handler. A fault on the guard page of the coroutine
/// running on this thread is that coroutine overrunning its stack: say
/// which PE and how large, and abort. Every other fault belongs to
/// whoever handled it before. Touches only what a signal handler may: a
/// const-initialised thread-local without destructor, a set `OnceLock`,
/// `write`, `sigaction`, `abort`.
#[cfg(target_os = "linux")]
unsafe extern "C" fn on_fault(sig: sys::c_int, info: *mut sys::SigInfo, context: *mut sys::c_void) {
    // SAFETY: the kernel passes a valid siginfo_t, whose si_addr is the
    // faulting address for these two signals.
    let addr = unsafe { (*info).addr } as usize;
    let current = CURRENT.with(|c| c.get());
    if !current.is_null() {
        // SAFETY: CURRENT points at the live Inner of the task this thread
        // was running when it faulted; these fields never change after
        // `Coro::new`.
        let (guard, len, usable, pe) = unsafe {
            let stack = &*std::ptr::addr_of!((*current).stack);
            (
                stack.base as usize,
                stack.guard,
                stack.usable,
                (*current).pe,
            )
        };
        if (guard..guard + len).contains(&addr) {
            report_overrun(pe, usable / 1024);
        }
    }
    let previous = PREVIOUS
        .get()
        .map(|p| p[usize::from(sig == sys::SIGBUS)])
        .filter(|p| p.handler != sys::SIG_DFL && p.handler != sys::SIG_IGN);
    match previous {
        // SAFETY (both arms): the address and its signature are what the
        // previous `sigaction` registered; it gets the kernel's arguments.
        Some(p) if p.flags & sys::SA_SIGINFO != 0 => unsafe {
            let handler: unsafe extern "C" fn(sys::c_int, *mut sys::SigInfo, *mut sys::c_void) =
                std::mem::transmute(p.handler);
            handler(sig, info, context)
        },
        Some(p) => unsafe {
            let handler: unsafe extern "C" fn(sys::c_int) = std::mem::transmute(p.handler);
            handler(sig)
        },
        // Nobody before us (or a fault on another thread in the instant
        // before `PREVIOUS` is set): put the default action back and
        // return. The faulting instruction runs again and the process
        // dies of the signal it would have died of without this handler.
        None => {
            let default = sys::SigAction {
                handler: sys::SIG_DFL,
                mask: [0; 16],
                flags: 0,
                restorer: 0,
            };
            // SAFETY: installs SIG_DFL; reads one valid struct.
            unsafe { sys::sigaction(sig, &default, std::ptr::null_mut()) };
        }
    }
}

/// `PE 17 overran its 4096 KiB coroutine stack; raise O2K_STACK_KB` on
/// stderr, then abort — put together in a fixed buffer, because this runs
/// in a signal handler, where nothing may allocate.
#[cfg(target_os = "linux")]
fn report_overrun(pe: Option<usize>, stack_kib: usize) -> ! {
    struct Line {
        bytes: [u8; 128],
        len: usize,
    }
    impl Line {
        fn text(&mut self, text: &[u8]) {
            self.bytes[self.len..self.len + text.len()].copy_from_slice(text);
            self.len += text.len();
        }
        fn number(&mut self, mut n: usize) {
            let mut digits = [0u8; 20];
            let mut at = digits.len();
            loop {
                at -= 1;
                digits[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            self.text(&digits[at..]);
        }
    }
    let mut line = Line {
        bytes: [0; 128],
        len: 0,
    };
    match pe {
        Some(pe) => {
            line.text(b"PE ");
            line.number(pe);
        }
        None => line.text(b"a coroutine outside any team"),
    }
    line.text(b" overran its ");
    line.number(stack_kib);
    line.text(b" KiB coroutine stack; raise O2K_STACK_KB\n");
    // SAFETY: writes the `len` bytes of `line` filled in above to stderr;
    // abort never returns.
    unsafe {
        sys::write(2, line.bytes.as_ptr().cast(), line.len);
        sys::abort()
    }
}

/// The part of a coroutine both sides of a switch need at a stable
/// address (a heap allocation [`Coro`] owns through a raw pointer, so that
/// the driver's `&mut Coro` never claims it while a [`Tasks`] table or a
/// transfer reaches it too); the thread-local [`CURRENT`] points here while
/// the task runs.
struct Inner {
    /// The task's stack, from `Coro::new` until `Coro`'s drop hands it to
    /// the free list.
    stack: StackMem,
    /// Which PE this task is, for the overrun diagnostic.
    pe: Option<usize>,
    state: State,
    /// The task's saved stack pointer while it is not running.
    task_sp: *mut u8,
    /// The resumer's saved stack pointer while the task runs: the frame
    /// that `resume`d it, handed on from task to task by each transfer.
    resumer_sp: *mut u8,
    /// Entry closure; taken by the trampoline on first resume. The
    /// lifetime is erased to `'static` here and policed by `Coro<'a>`.
    entry: Option<Box<dyn FnOnce()>>,
    /// Parked panic payload if the entry closure unwound.
    panic: Option<Box<dyn Any + Send + 'static>>,
}

thread_local! {
    /// The coroutine currently running on this thread, if any.
    static CURRENT: Cell<*mut Inner> = const { Cell::new(std::ptr::null_mut()) };
}

/// Entry point of every task, reached by the first switch into it (a
/// resume or a transfer) through the bootstrap frame's `ret`. Runs the
/// closure under `catch_unwind`, parks any panic payload, and switches
/// back to the resumer for the last time.
extern "C" fn trampoline() -> ! {
    // Every access goes through the raw pointer: whoever switches into and
    // out of this task meanwhile writes the same Inner.
    let inner = CURRENT.with(|c| c.get());
    // SAFETY: the resume or transfer that entered this task set CURRENT to
    // its Inner just before switching here, and the Inner outlives the
    // task (Coro owns it).
    let entry = unsafe { (*inner).entry.take() }.expect("task entered twice");
    let panic = catch_unwind(AssertUnwindSafe(entry)).err();
    // SAFETY: the same live Inner; resumer_sp is the frame the latest
    // resume parked, passed on by every transfer since.
    unsafe {
        (*inner).panic = panic;
        (*inner).state = State::Finished;
        o2k_coro_switch(&raw mut (*inner).task_sp, (*inner).resumer_sp);
    }
    unreachable!("a finished coroutine was resumed");
}

/// Words the bootstrap frame occupies below the stack top; must mirror the
/// restore half of `o2k_coro_switch`.
#[cfg(target_arch = "x86_64")]
fn bootstrap(stack_top: *mut u8) -> *mut u8 {
    // Layout (descending): [0][trampoline][rbp][rbx][r12][r13][r14][r15]
    // [mxcsr|fcw|pad]. The restore pops six registers then `ret`s into
    // `trampoline` with rsp ≡ 8 (mod 16), exactly the post-`call` ABI
    // state. 0x1F80 / 0x037F are the architectural reset control words.
    //
    // The zero word *above* the trampoline's return-address slot is
    // load-bearing: it sits at CFA−8 of the trampoline frame, where the
    // unwinder (panic backtraces walk every frame) expects the caller's
    // PC. A fresh mapping is zeroed, but one from the free list holds
    // whatever the previous task left there —
    // the walker would treat that garbage as a code address and fault
    // inside libgcc. PC 0 has no FDE, so the walk ends here instead.
    unsafe {
        let top = stack_top as *mut u64;
        top.offset(-1).write(0);
        top.offset(-2)
            .write(trampoline as *const () as usize as u64);
        for i in 3..=8 {
            top.offset(-i).write(0);
        }
        top.offset(-9).write(0x037F_0000_1F80u64); // fcw << 32 | mxcsr
        top.offset(-9) as *mut u8
    }
}

#[cfg(target_arch = "aarch64")]
fn bootstrap(stack_top: *mut u8) -> *mut u8 {
    // 160-byte frame of zeroed callee-saved registers with the x30 (link
    // register) slot pointing at `trampoline`; the restore's `ret`
    // branches there with a 16-aligned sp. The zeroed x29 slot doubles
    // as the unwind terminator: AArch64 frame records chain through
    // x29, and a null frame pointer ends a backtrace walk even on a
    // recycled (non-zero) stack.
    unsafe {
        let sp = (stack_top as *mut u64).offset(-20);
        for i in 0..20 {
            sp.add(i).write(0);
        }
        sp.add(11).write(trampoline as *const () as usize as u64); // x30 slot
        sp as *mut u8
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn bootstrap(_stack_top: *mut u8) -> *mut u8 {
    panic!(
        "ExecMode::Event needs a stack switch for this architecture \
         (x86_64 and aarch64 are supported); use --exec thread"
    );
}

/// One resumable task with its own stack. `'a` bounds the borrows the
/// entry closure captures: the driver that owns the `Coro` must not
/// outlive them, exactly like a scoped thread.
pub struct Coro<'a> {
    /// Owned: made by `Box::leak` in [`Coro::new`], freed by the drop.
    inner: NonNull<Inner>,
    _entry_borrows: std::marker::PhantomData<&'a ()>,
}

impl<'a> Coro<'a> {
    /// Create a suspended task that will run `entry` on its own
    /// `stack_bytes`-sized stack when first resumed.
    pub fn new<F: FnOnce() + 'a>(stack_bytes: usize, entry: F) -> Self {
        let stack = StackMem::take(stack_bytes);
        let task_sp = bootstrap(stack.top());
        // Erase the borrow lifetime for storage; PhantomData<&'a ()> on
        // the Coro keeps the real constraint visible to the borrow
        // checker.
        let entry: Box<dyn FnOnce() + 'a> = Box::new(entry);
        let entry: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(entry) };
        let inner = Box::new(Inner {
            stack,
            pe: None,
            state: State::New,
            task_sp,
            resumer_sp: std::ptr::null_mut(),
            entry: Some(entry),
            panic: None,
        });
        Coro {
            inner: NonNull::from(Box::leak(inner)),
            _entry_borrows: std::marker::PhantomData,
        }
    }

    /// The task's shared part, for a look while the task is not running.
    fn inner(&self) -> &Inner {
        // SAFETY: owned by this Coro; a task writes it only while running,
        // and none runs while its owner's code does.
        unsafe { self.inner.as_ref() }
    }

    /// Name the PE this task runs, so that an overrun of its stack is
    /// reported as that PE's.
    pub fn for_pe(mut self, pe: usize) -> Self {
        // SAFETY: owned, and not started yet.
        unsafe { self.inner.as_mut().pe = Some(pe) };
        self
    }

    /// Switch onto the task's stack and run until control comes back to
    /// this caller: when the task yields or finishes — or, once tasks
    /// transfer among themselves, when whichever task this one transferred
    /// into (directly or down a chain) does. Returns whether *this* task
    /// has finished at that point. A task that never transfers, such as
    /// any task outside a team's event driver, therefore returns `false`
    /// at each yield and `true` once it has finished, so `while
    /// !co.resume() {}` runs it to the end.
    ///
    /// # Panics
    /// Panics if the task is finished or running.
    pub fn resume(&mut self) -> bool {
        let inner = self.inner.as_ptr();
        // SAFETY: the Inner is live (owned) and, in the driver's hands, no
        // task runs; task_sp is either the bootstrap frame or the frame the
        // task suspended in, and whatever runs from here switches back to
        // the resumer_sp saved here exactly once.
        unsafe {
            let state = (*inner).state;
            assert!(
                matches!(state, State::New | State::Suspended),
                "resumed a {state:?} coroutine"
            );
            (*inner).state = State::Running;
            let prev = CURRENT.with(|c| c.replace(inner));
            o2k_coro_switch(&raw mut (*inner).resumer_sp, (*inner).task_sp);
            CURRENT.with(|c| c.set(prev));
            (*inner).state == State::Finished
        }
    }

    /// Whether the entry closure has run to completion (or unwound).
    pub fn finished(&self) -> bool {
        self.inner().state == State::Finished
    }

    /// Whether the entry closure has started running at all.
    pub fn started(&self) -> bool {
        self.inner().state != State::New
    }

    /// The panic payload of a finished task that unwound, if any.
    pub fn take_panic(&mut self) -> Option<Box<dyn Any + Send + 'static>> {
        // SAFETY: owned; a finished task touches nothing any more.
        unsafe { self.inner.as_mut().panic.take() }
    }

    /// How deep this task's stack has been used, in KiB: the distance
    /// from the stack top to the deepest page of the mapping that is
    /// resident. Page-granular, and — because a finished task's mapping is
    /// reused with its pages — the high-water mark of every task that ran
    /// on this mapping, which bounds this one's from above. Ask once the
    /// task has finished.
    pub fn stack_high_water_kb(&self) -> usize {
        self.inner().stack.high_water() / 1024
    }
}

impl Drop for Coro<'_> {
    fn drop(&mut self) {
        // SAFETY: made by Box::leak in `new`, reclaimed exactly once, here;
        // nothing runs on or reads the stack after its Coro is gone.
        let inner = unsafe { Box::from_raw(self.inner.as_ptr()) };
        // A suspended task still has live frames on its stack; their
        // destructors cannot run without resuming it, which the owner can
        // no longer do. The event driver prevents this by poisoning and
        // resuming every started task before dropping it; tasks that
        // never started just drop their entry closure. Anything else is a
        // driver bug — leak the frames (safe: nothing will touch them)
        // but say so loudly in debug builds.
        debug_assert!(
            !matches!(inner.state, State::Suspended | State::Running),
            "coroutine dropped while suspended: its stack frames leak"
        );
        let Inner { stack, .. } = *inner;
        stack.recycle();
    }
}

/// Suspend the currently-running task, switching back to its resumer.
/// Returns when the task is next resumed (or transferred into).
///
/// # Panics
/// Panics when called outside any task.
pub fn yield_current() {
    let me = CURRENT.with(|c| c.get());
    assert!(
        !me.is_null(),
        "coro::yield_current outside a running coroutine"
    );
    // SAFETY: CURRENT points at the Inner of the task executing this very
    // function; the resumer's sp was saved on its way in.
    unsafe {
        (*me).state = State::Suspended;
        o2k_coro_switch(&raw mut (*me).task_sp, (*me).resumer_sp);
    }
}

/// A team's tasks by PE, so that the running one can switch straight into
/// a peer ([`Tasks::transfer`]). Empty (every slot null) except while an
/// event driver has [`Tasks::install`]ed its coroutines. The slots are
/// atomics so that the scheduler holding the table stays `Sync` without an
/// `unsafe impl`; they are installed, read and cleared on one thread (the
/// contract of `install`), so `Relaxed` orders all there is.
pub(crate) struct Tasks(Box<[AtomicPtr<Inner>]>);

/// Clears a [`Tasks`] table when the run that installed it ends, however
/// it ends.
pub(crate) struct Installed<'t>(&'t Tasks);

impl Drop for Installed<'_> {
    fn drop(&mut self) {
        for slot in self.0 .0.iter() {
            slot.store(std::ptr::null_mut(), Ordering::Relaxed);
        }
    }
}

impl Tasks {
    /// A table for `n` tasks, all slots empty.
    pub(crate) fn new(n: usize) -> Self {
        Tasks(
            (0..n)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        )
    }

    /// Put `coros[i]` in slot `i` until the returned guard drops.
    ///
    /// # Safety
    /// Every coroutine in `coros` outlives the guard, and is resumed only
    /// by the calling thread while the guard lives.
    pub(crate) unsafe fn install(&self, coros: &[Coro]) -> Installed<'_> {
        assert_eq!(coros.len(), self.0.len(), "one coroutine per task slot");
        for (slot, c) in self.0.iter().zip(coros) {
            slot.store(c.inner.as_ptr(), Ordering::Relaxed);
        }
        Installed(self)
    }

    /// Suspend the running task — task `from` of this table — and switch
    /// straight into task `to`, which takes over the yielder's resumer:
    /// `CURRENT` follows the switch (an overrun names `to`'s PE), and
    /// `to`'s next yield or its finish lands where this task's would have.
    /// Returns when something switches back into the caller.
    ///
    /// # Panics
    /// Panics unless task `from` is the one running on this thread and task
    /// `to` is installed and suspended (or not started).
    pub(crate) fn transfer(&self, from: usize, to: usize) {
        let me = self.0[from].load(Ordering::Relaxed);
        let target = self.0[to].load(Ordering::Relaxed);
        assert!(
            !me.is_null() && me == CURRENT.with(|c| c.get()),
            "transfer from task {from}, which is not running on this thread"
        );
        assert!(!target.is_null(), "transfer to task {to}: no run installed");
        // SAFETY: both are installed, so live (the contract of `install`);
        // `me` is running on this thread, so the installing thread is this
        // one and `target` is not running anywhere else; the state check
        // proves the two distinct, since `me` is Running.
        unsafe {
            let state = (*target).state;
            assert!(
                matches!(state, State::New | State::Suspended),
                "transfer into a {state:?} coroutine"
            );
            (*me).state = State::Suspended;
            (*target).state = State::Running;
            (*target).resumer_sp = (*me).resumer_sp;
            CURRENT.with(|c| c.set(target));
            o2k_coro_switch(&raw mut (*me).task_sp, (*target).task_sp);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn runs_to_completion_without_yield() {
        let hit = Rc::new(Cell::new(false));
        let h = Rc::clone(&hit);
        let mut c = Coro::new(64 * 1024, move || h.set(true));
        assert!(!c.started());
        assert!(c.resume());
        assert!(hit.get());
        assert!(c.finished());
    }

    #[test]
    fn yields_interleave_with_driver() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        let mut c = Coro::new(64 * 1024, move || {
            l.borrow_mut().push("a");
            yield_current();
            l.borrow_mut().push("b");
            yield_current();
            l.borrow_mut().push("c");
        });
        assert!(!c.resume());
        log.borrow_mut().push("drv1");
        assert!(!c.resume());
        log.borrow_mut().push("drv2");
        assert!(c.resume());
        assert_eq!(*log.borrow(), ["a", "drv1", "b", "drv2", "c"]);
    }

    #[test]
    fn two_coroutines_alternate() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mk = |tag: &'static str| {
            let l = Rc::clone(&log);
            Coro::new(64 * 1024, move || {
                for i in 0..3 {
                    l.borrow_mut().push((tag, i));
                    yield_current();
                }
            })
        };
        let mut a = mk("a");
        let mut b = mk("b");
        for _ in 0..4 {
            if !a.finished() {
                a.resume();
            }
            if !b.finished() {
                b.resume();
            }
        }
        assert_eq!(
            *log.borrow(),
            [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
        );
    }

    #[test]
    fn panic_is_parked_not_propagated() {
        let mut c = Coro::new(64 * 1024, || panic!("boom in task"));
        assert!(c.resume(), "a panicking task finishes");
        let p = c.take_panic().expect("payload parked");
        assert_eq!(p.downcast_ref::<&str>(), Some(&"boom in task"));
    }

    #[test]
    fn deep_recursion_on_own_stack() {
        fn rec(n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                // Keep a real frame per level.
                std::hint::black_box(rec(n - 1) + 1)
            }
        }
        let mut c = Coro::new(STACK_BYTES, || {
            assert_eq!(rec(10_000), 10_000);
        });
        assert!(c.resume());
    }

    #[test]
    fn float_state_survives_switches() {
        let mut c = Coro::new(64 * 1024, || {
            let mut x = 1.0f64;
            for _ in 0..4 {
                x = x * 1.5 + 0.25;
                yield_current();
            }
            assert!(
                (x - 1.0f64
                    .mul_add(1.5, 0.25)
                    .mul_add(1.5, 0.25)
                    .mul_add(1.5, 0.25)
                    .mul_add(1.5, 0.25))
                .abs()
                    < 1e-12
            );
        });
        let mut f = 2.0f64;
        while !c.resume() {
            f = f.sqrt() + 1.0; // dirty the driver's float registers too
        }
        assert!(f > 1.0);
    }

    #[test]
    fn unstarted_drop_runs_entry_destructors() {
        struct Flag(Rc<Cell<bool>>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Rc::new(Cell::new(false));
        let flag = Flag(Rc::clone(&dropped));
        let c = Coro::new(64 * 1024, move || {
            let _keep = &flag;
        });
        drop(c);
        assert!(dropped.get(), "captured state dropped with the closure");
    }

    fn free_list_len() -> usize {
        FREE.with(|free| free.borrow().len())
    }

    /// A panic inside a task whose stack came off the free list must not
    /// crash the process. The panic handler's backtrace walker steps
    /// through every frame and reads the trampoline's "caller PC" from
    /// the top stack slot; `bootstrap` zeroes that slot precisely so the
    /// walk terminates there instead of chasing whatever bytes the
    /// previous task left behind (f64 payloads make convincing-looking
    /// garbage pointers). So: dirty a stack from inside (its frames) and
    /// from outside (the words above its first frame), drop it, see the
    /// next task get that very mapping, and panic in it.
    #[test]
    fn panics_are_caught_on_a_dirty_recycled_stack() {
        const PAINT: u64 = 0x3FE4_FFFF_FFFF_FFFF;
        let bytes = 256 * 1024;
        assert_eq!(free_list_len(), 0, "a test thread starts without stacks");
        let mut painter = Coro::new(bytes, || {
            let mut frame = [0u64; 24 * 1024];
            for word in frame.iter_mut() {
                // SAFETY: a plain store the optimiser must keep.
                unsafe { std::ptr::write_volatile(word, PAINT) };
            }
            std::hint::black_box(&frame);
        });
        assert!(painter.resume());
        let (base, top) = (painter.inner().stack.base, painter.inner().stack.top());
        // SAFETY: the task has finished; its top 16 words are mapped,
        // writable and no longer read by anyone.
        unsafe {
            for i in 1..=16 {
                (top as *mut u64).sub(i).write(PAINT);
            }
        }
        drop(painter);
        assert_eq!(free_list_len(), 1, "a finished task's stack is kept");

        let mut c = Coro::new(bytes, || panic!("task panic on a dirty stack"));
        assert_eq!(free_list_len(), 0);
        assert_eq!(c.inner().stack.base, base, "same size, same mapping");
        assert!(c.resume(), "a panicking task still finishes");
        let payload = c.take_panic().expect("the panic is parked, not lost");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task panic on a dirty stack");
        assert!(c.stack_high_water_kb() >= 192, "the painter's pages stayed");
    }

    #[test]
    fn a_stack_of_another_size_is_not_reused() {
        drop(Coro::new(64 * 1024, || {}));
        assert_eq!(free_list_len(), 1);
        let c = Coro::new(128 * 1024, || {});
        assert_eq!(free_list_len(), 1, "the 64 KiB stack is still waiting");
        assert_eq!(c.inner().stack.usable, 128 * 1024);
    }

    #[test]
    fn high_water_is_the_deepest_touched_page() {
        let mut c = Coro::new(512 * 1024, || {
            let frame = [1u8; 100 * 1024];
            std::hint::black_box(&frame);
        });
        let page_kb = c.inner().stack.guard / 1024;
        assert_eq!(
            c.stack_high_water_kb(),
            page_kb,
            "a fresh mapping holds the bootstrap frame and nothing else"
        );
        assert!(c.resume());
        let kb = c.stack_high_water_kb();
        assert!(
            (100..=100 + 16 + 4 * page_kb).contains(&kb),
            "a 100 KiB frame plus the trampoline's own: {kb} KiB"
        );
    }

    // -- Tests that need a process of their own ---------------------------

    const CHILD: &str = "O2K_SCHED_TEST_CHILD";

    pub(crate) fn is_child() -> bool {
        std::env::var_os(CHILD).is_some()
    }

    /// Run `test` (its full path in this binary) again, alone, in a child
    /// process where [`is_child`] holds and `O2K_EXEC` / `O2K_STACK_KB`
    /// are exactly what `env` says.
    pub(crate) fn rerun_as_child(test: &str, env: &[(&str, &str)]) -> std::process::Output {
        std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args([test, "--exact", "--nocapture"])
            .env(CHILD, "1")
            .env_remove("O2K_EXEC")
            .env_remove("O2K_STACK_KB")
            .envs(env.iter().copied())
            .output()
            .expect("re-run the test binary")
    }

    /// Recurse without bound, a real frame per level.
    #[inline(never)]
    pub(crate) fn dive(depth: u64) -> u64 {
        let frame = [depth; 8];
        if std::hint::black_box(depth) == u64::MAX {
            return 0;
        }
        dive(depth + 1) + std::hint::black_box(frame)[7]
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_overrun_names_the_pe_and_aborts() {
        use std::os::unix::process::ExitStatusExt;
        if is_child() {
            let mut c = Coro::new(stack_bytes(), || {
                std::hint::black_box(dive(0));
            })
            .for_pe(17);
            c.resume();
            unreachable!("the dive has no bottom");
        }
        let out = rerun_as_child(
            "coro::tests::an_overrun_names_the_pe_and_aborts",
            &[("O2K_STACK_KB", "64")],
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("PE 17 overran its 64 KiB coroutine stack; raise O2K_STACK_KB"),
            "no diagnostic on stderr:\n{err}"
        );
        assert_eq!(out.status.signal(), Some(6), "SIGABRT, got {}", out.status);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_fault_elsewhere_goes_to_the_previous_handler() {
        use std::os::unix::process::ExitStatusExt;
        if is_child() {
            let mut c = Coro::new(64 * 1024, || {
                // SAFETY: none — page zero is unmapped, the store faults,
                // and that is the point.
                unsafe { std::ptr::without_provenance_mut::<u64>(64).write_volatile(1) };
            })
            .for_pe(3);
            c.resume();
            unreachable!("the store faults");
        }
        let out = rerun_as_child(
            "coro::tests::a_fault_elsewhere_goes_to_the_previous_handler",
            &[],
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("overran"), "not a stack overrun:\n{err}");
        assert_eq!(out.status.signal(), Some(11), "SIGSEGV, got {}", out.status);
    }
}
