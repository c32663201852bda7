//! Minimal stackful coroutines for the single-threaded event backend.
//!
//! [`ExecMode::Event`](crate::ExecMode::Event) runs every PE of a team as
//! a resumable task on one OS thread. Each task needs its own call stack —
//! the PE bodies are arbitrary deep-recursing application code, not state
//! machines — so this module vendors the one primitive the standard
//! library does not offer: a user-space stack switch.
//!
//! The design is the classic asymmetric coroutine:
//!
//! * [`Coro::resume`] switches from the driver onto the task's stack
//!   (first entering through a bootstrap frame that `ret`s into
//!   [`trampoline`], later returning into whatever [`yield_current`]
//!   frame the task suspended in);
//! * [`yield_current`] switches from the task back to whoever resumed it.
//!
//! The switch itself (`o2k_coro_switch`) saves the callee-saved register
//! set on the current stack, publishes the stack pointer, and restores the
//! target's — ~20 ns, against the microseconds a condvar handoff between
//! parked OS threads costs. Caller-saved registers need no saving: from
//! the compiler's point of view the switch is an ordinary `extern "C"`
//! call that eventually returns.
//!
//! Panics never unwind across a switch: the task's panic runs down its own
//! stack into the `catch_unwind` in [`trampoline`], is parked as a
//! payload, and the driver decides what to propagate — mirroring what
//! `JoinHandle::join` gives the thread backend.
//!
//! Stacks are heap allocations (lazily committed by the OS, so a
//! 1024-task team costs address space, not resident memory) without guard
//! pages; the default [`STACK_BYTES`] matches the 2 MiB Rust gives spawned
//! threads and can be raised with `O2K_STACK_KB`.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default per-task stack size. Task stacks are plain heap allocations
/// with no guard page, so an overflow corrupts the heap silently rather
/// than faulting — the default leaves generous headroom instead.
/// Unoptimized frames are several times fatter than release ones (the
/// deep CC-SAS line-access paths overflow 2 MiB under debug
/// assertions), so debug builds get 16 MiB where release builds get
/// 4 MiB. Untouched pages cost address space, not memory. Override
/// with `O2K_STACK_KB`.
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

/// Whether this build carries a stack switch for the host architecture.
/// On unsupported targets [`Coro::new`] panics and
/// [`ExecMode::Event`](crate::ExecMode::Event) is unavailable.
pub const SUPPORTED: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

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

/// 16-byte-aligned heap allocation serving as a task stack.
struct StackMem {
    base: *mut u8,
    layout: std::alloc::Layout,
}

impl StackMem {
    fn new(bytes: usize) -> Self {
        let layout = std::alloc::Layout::from_size_align(bytes, 16).expect("stack layout");
        // SAFETY: layout has non-zero size.
        let base = unsafe { std::alloc::alloc(layout) };
        assert!(!base.is_null(), "coroutine stack allocation failed");
        StackMem { base, layout }
    }

    /// One-past-the-end of the stack (stacks grow down), 16-aligned.
    fn top(&self) -> *mut u8 {
        // SAFETY: base + size stays within (one past) the allocation.
        unsafe { self.base.add(self.layout.size()) }
    }
}

impl Drop for StackMem {
    fn drop(&mut self) {
        // SAFETY: allocated with this exact layout in `new`.
        unsafe { std::alloc::dealloc(self.base, self.layout) }
    }
}

/// The part of a coroutine both sides of a switch need at a stable
/// address (boxed by [`Coro`]); the thread-local [`CURRENT`] points here
/// while the task runs.
struct Inner {
    /// Owns the stack allocation for the task's lifetime; only the raw
    /// pointers below ever read it after construction.
    _stack: StackMem,
    state: State,
    /// The task's saved stack pointer while it is not running.
    task_sp: *mut u8,
    /// The resumer's saved stack pointer while the task runs.
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

/// Entry point of every task, reached by the first resume's `ret` through
/// the bootstrap frame. Runs the closure under `catch_unwind`, parks any
/// panic payload, and switches back to the resumer for the last time.
extern "C" fn trampoline() -> ! {
    // SAFETY: resume() set CURRENT to this task's Inner just before
    // switching here, and the Inner outlives the task (Coro owns it).
    let inner = unsafe { &mut *CURRENT.with(|c| c.get()) };
    let entry = inner.entry.take().expect("task entered twice");
    if let Err(payload) = catch_unwind(AssertUnwindSafe(entry)) {
        inner.panic = Some(payload);
    }
    inner.state = State::Finished;
    // SAFETY: resumer_sp was saved by the resume that (re)entered us.
    unsafe { o2k_coro_switch(&mut inner.task_sp, inner.resumer_sp) };
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
    // PC. A fresh stack straight from the kernel is zeroed, but a
    // recycled allocation holds whatever the previous owner left there —
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
    // recycled (non-zero) stack allocation.
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
    inner: Box<Inner>,
    _entry_borrows: std::marker::PhantomData<&'a ()>,
}

impl<'a> Coro<'a> {
    /// Create a suspended task that will run `entry` on its own
    /// `stack_bytes`-sized stack when first resumed.
    pub fn new<F: FnOnce() + 'a>(stack_bytes: usize, entry: F) -> Self {
        let stack = StackMem::new(stack_bytes);
        let task_sp = bootstrap(stack.top());
        // Erase the borrow lifetime for storage; PhantomData<&'a ()> on
        // the Coro keeps the real constraint visible to the borrow
        // checker.
        let entry: Box<dyn FnOnce() + 'a> = Box::new(entry);
        let entry: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(entry) };
        Coro {
            inner: Box::new(Inner {
                _stack: stack,
                state: State::New,
                task_sp,
                resumer_sp: std::ptr::null_mut(),
                entry: Some(entry),
                panic: None,
            }),
            _entry_borrows: std::marker::PhantomData,
        }
    }

    /// Switch onto the task's stack until it yields or finishes. Returns
    /// `true` once the task is finished.
    ///
    /// # Panics
    /// Panics if the task already finished.
    pub fn resume(&mut self) -> bool {
        let inner: &mut Inner = &mut self.inner;
        assert!(
            matches!(inner.state, State::New | State::Suspended),
            "resumed a {:?} coroutine",
            inner.state
        );
        inner.state = State::Running;
        let me = inner as *mut Inner;
        let prev = CURRENT.with(|c| c.replace(me));
        // SAFETY: task_sp is either the bootstrap frame or the frame a
        // yield_current saved; both resume correctly and switch back
        // exactly once before this Inner can be touched again.
        unsafe { o2k_coro_switch(&mut inner.resumer_sp, inner.task_sp) };
        CURRENT.with(|c| c.set(prev));
        inner.state == State::Finished
    }

    /// Whether the entry closure has run to completion (or unwound).
    pub fn finished(&self) -> bool {
        self.inner.state == State::Finished
    }

    /// Whether the entry closure has started running at all.
    pub fn started(&self) -> bool {
        self.inner.state != State::New
    }

    /// The panic payload of a finished task that unwound, if any.
    pub fn take_panic(&mut self) -> Option<Box<dyn Any + Send + 'static>> {
        self.inner.panic.take()
    }
}

impl Drop for Coro<'_> {
    fn drop(&mut self) {
        // A suspended task still has live frames on its stack; their
        // destructors cannot run without resuming it, which the owner can
        // no longer do. The event driver prevents this by poisoning and
        // resuming every started task before dropping it; tasks that
        // never started just drop their entry closure. Anything else is a
        // driver bug — leak the frames (safe: nothing will touch them)
        // but say so loudly in debug builds.
        debug_assert!(
            !matches!(self.inner.state, State::Suspended | State::Running),
            "coroutine dropped while suspended: its stack frames leak"
        );
    }
}

/// Suspend the currently-running task, switching back to its resumer.
/// Returns when the task is next resumed.
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
    let inner = unsafe { &mut *me };
    inner.state = State::Suspended;
    unsafe { o2k_coro_switch(&mut inner.task_sp, inner.resumer_sp) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
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

    /// A panic inside a task whose stack is a *recycled* allocation must
    /// not crash the process. The panic handler's backtrace walker steps
    /// through every frame and reads the trampoline's "caller PC" from
    /// the top stack slot; `bootstrap` zeroes that slot precisely so the
    /// walk terminates there instead of chasing whatever bytes the
    /// previous owner left behind (f64 payloads make convincing-looking
    /// garbage pointers). Recycling is the allocator's call, so this
    /// test salts same-layout allocations with adversarial bit patterns
    /// first — if the allocator hands the task one of them back, the
    /// zero slot is all that stands between a caught panic and SIGSEGV.
    #[test]
    fn panics_are_caught_on_a_dirty_recycled_stack() {
        let bytes = 256 * 1024;
        let layout = std::alloc::Layout::from_size_align(bytes, 16).unwrap();
        for _ in 0..8 {
            // SAFETY: valid non-zero layout; filled then freed before any
            // other use.
            unsafe {
                let p = std::alloc::alloc(layout);
                assert!(!p.is_null());
                let words = p as *mut u64;
                for i in 0..bytes / 8 {
                    words.add(i).write(0x3FE4_FFFF_FFFF_FFFF);
                }
                std::alloc::dealloc(p, layout);
            }
        }
        let mut c = Coro::new(bytes, || panic!("task panic on a dirty stack"));
        assert!(c.resume(), "a panicking task still finishes");
        let payload = c.take_panic().expect("the panic is parked, not lost");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task panic on a dirty stack");
    }
}
