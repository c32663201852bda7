//! Virtual-time-aware mutual exclusion.
//!
//! [`SimLock`] combines mutual exclusion between PEs with virtual-time
//! queueing: an acquirer's clock advances to the previous holder's
//! release time, so lock contention shows up as
//! [`machine::TimeCat::Sync`] time exactly as it would on the hardware.
//! The acquisition *order* follows the team's schedule: waiters park in
//! the scheduler, never on an OS primitive, so holding a `SimLock`
//! across yield points cannot deadlock the floor. No PE's critical
//! section overlaps another's in virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use machine::{cost, SimTime, TimeCat};
use o2k_sched::{BlockReason, CoopSched};
use o2k_trace::{Dep, EventKind};

use crate::ctx::Ctx;

/// Process-wide unique lock ids, for the race detector's lockset
/// classification (two accesses guarded by the same id cannot race).
static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
struct LockState {
    /// Whether some PE is between acquire and release.
    held: bool,
    /// Virtual release time and PE of the previous holder — the wait edge
    /// a contended acquirer's trace event points back to.
    release: (SimTime, u32),
    /// PEs parked in the cooperative scheduler waiting for this lock.
    waiters: Vec<usize>,
}

/// A lock with Origin2000-style acquisition costs and virtual-time queueing.
///
/// The lock's cache line lives on `home_node`; acquisition pays a round trip
/// proportional to the acquirer's distance from it.
#[derive(Debug)]
pub struct SimLock {
    home_node: usize,
    id: u64,
    state: Mutex<LockState>,
}

/// Guard proving exclusive access. Call [`SimLockGuard::release`] with the
/// PE's context so the release time is recorded; dropping the guard without
/// releasing (a panic path) frees the lock but leaves the previous release
/// time in place (a conservative under-estimate).
#[must_use = "dropping the guard immediately releases the lock"]
pub struct SimLockGuard<'a> {
    lock: &'a SimLock,
    coop: Arc<CoopSched>,
    released: bool,
}

impl SimLock {
    /// A lock homed on `home_node`.
    pub fn new(home_node: usize) -> Self {
        SimLock {
            home_node,
            id: NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(LockState {
                held: false,
                release: (0, 0),
                waiters: Vec::new(),
            }),
        }
    }

    /// A set of `n` locks homed round-robin across `nodes` nodes, the usual
    /// layout for fine-grained lock arrays.
    pub fn array(n: usize, nodes: usize) -> Vec<SimLock> {
        (0..n).map(|i| SimLock::new(i % nodes.max(1))).collect()
    }

    /// `state`, locked: no panic leaves it half-updated, so poison is ignored.
    fn state(&self) -> MutexGuard<'_, LockState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// This lock's process-wide unique id (lockset vocabulary).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Acquire: blocks until the lock is free, advances the virtual clock
    /// past the previous holder's release, and charges the
    /// distance-priced acquisition cost.
    pub fn acquire<'a>(&'a self, ctx: &mut Ctx) -> SimLockGuard<'a> {
        let coop = Arc::clone(ctx.coop());
        let pe = ctx.pe();
        let (release_t, holder) = loop {
            let mut st = self.state();
            if !st.held {
                st.held = true;
                break st.release;
            }
            st.waiters.push(pe);
            drop(st);
            // Parked in the scheduler: the floor moves on, and the
            // releaser's unblock re-runs this loop.
            coop.block(pe, ctx.now(), BlockReason::Lock);
        };
        ctx.wait_until_traced(
            release_t,
            EventKind::LockWait,
            Some(holder),
            Some(Dep {
                pe: holder,
                t: release_t,
            }),
        );
        let hops = {
            let topo = &ctx.machine().topology;
            topo.hops(topo.node_of(pe), self.home_node.min(topo.nodes() - 1))
        };
        let c = cost::lock(&ctx.machine().config, hops);
        ctx.advance_traced(c, TimeCat::Remote, EventKind::LockAcquire, 0, None);
        ctx.counters_mut().lock_acquires += 1;
        ctx.lockset_push(self.id);
        SimLockGuard {
            lock: self,
            coop,
            released: false,
        }
    }

    /// Free the lock and wake waiters. `release` records the holder's
    /// virtual release time; `None` (guard drop on a panic path) leaves
    /// the previous one.
    fn unlock(&self, coop: &CoopSched, release: Option<(SimTime, u32)>) {
        let mut st = self.state();
        st.held = false;
        if let Some(r) = release {
            st.release = r;
        }
        let hint = st.release.0;
        let waiters = std::mem::take(&mut st.waiters);
        drop(st);
        // Wake every parked waiter; they re-contend in virtual-time order
        // and the losers park again.
        for w in waiters {
            coop.unblock(w, hint, BlockReason::Lock);
        }
    }
}

impl SimLockGuard<'_> {
    /// Release at the PE's current virtual time.
    pub fn release(mut self, ctx: &mut Ctx) {
        self.released = true;
        ctx.lockset_pop(self.lock.id);
        self.lock
            .unlock(&self.coop, Some((ctx.now(), ctx.pe() as u32)));
    }
}

impl Drop for SimLockGuard<'_> {
    fn drop(&mut self) {
        if !self.released {
            self.lock.unlock(&self.coop, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;
    use machine::{Machine, MachineConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn critical_sections_serialise_in_virtual_time() {
        let machine = Arc::new(Machine::new(4, MachineConfig::test_tiny()));
        let lock = SimLock::new(0);
        let counter = AtomicU64::new(0);
        let run = Team::new(machine).run(|ctx| {
            let g = lock.acquire(ctx);
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.compute(100); // 100 ns critical section
            g.release(ctx);
            ctx.now()
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        // 4 non-overlapping 100 ns sections: someone finishes at >= 400.
        assert!(run.results.iter().max().unwrap() >= &400);
        // All finish times distinct (no virtual overlap).
        let mut times = run.results.clone();
        times.sort_unstable();
        times.dedup();
        assert_eq!(times.len(), 4);
    }

    #[test]
    fn contention_charged_as_sync() {
        let machine = Arc::new(Machine::new(2, MachineConfig::test_tiny()));
        let lock = SimLock::new(0);
        let run = Team::new(machine).run(|ctx| {
            let g = lock.acquire(ctx);
            ctx.compute(1_000);
            g.release(ctx);
        });
        let total_sync: u64 = run.reports.iter().map(|r| r.breakdown.sync).sum();
        assert!(
            total_sync >= 1_000,
            "second acquirer must wait out the first"
        );
    }

    #[test]
    fn lock_array_homes_round_robin() {
        let locks = SimLock::array(5, 2);
        assert_eq!(locks.len(), 5);
        assert_eq!(locks[0].home_node, 0);
        assert_eq!(locks[1].home_node, 1);
        assert_eq!(locks[2].home_node, 0);
        // Ids are unique process-wide.
        let mut ids: Vec<u64> = locks.iter().map(|l| l.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn uncontended_acquire_counts() {
        let machine = Arc::new(Machine::new(1, MachineConfig::test_tiny()));
        let lock = SimLock::new(0);
        let run = Team::new(machine).run(|ctx| {
            for _ in 0..3 {
                let g = lock.acquire(ctx);
                g.release(ctx);
            }
        });
        assert_eq!(run.reports[0].counters.lock_acquires, 3);
    }

    #[test]
    fn coop_policy_serialises_and_orders_by_virtual_time() {
        use o2k_sched::SchedPolicy;
        let machine = Arc::new(Machine::new(4, MachineConfig::test_tiny()));
        let lock = SimLock::new(0);
        let order = Mutex::new(Vec::new());
        let run = Team::new(machine).sched(SchedPolicy::Det).run(|ctx| {
            // Stagger arrivals: PE 3 first, PE 0 last.
            ctx.compute(100 * (4 - ctx.pe() as u64));
            let g = lock.acquire(ctx);
            order.lock().unwrap().push(ctx.pe());
            assert_eq!(ctx.lockset(), &[lock.id()]);
            ctx.compute(50);
            g.release(ctx);
            assert!(ctx.lockset().is_empty());
            ctx.now()
        });
        // Virtual-time arrival order is PE 3, 2, 1, 0 — and under the
        // deterministic scheduler the acquisition order matches it.
        assert_eq!(*order.lock().unwrap(), vec![3, 2, 1, 0]);
        let mut times = run.results.clone();
        times.sort_unstable();
        times.dedup();
        assert_eq!(times.len(), 4, "critical sections overlap in virtual time");
        assert!(run.sched.switches > 0);
    }

    #[test]
    fn guard_drop_on_panic_frees_lock_under_coop() {
        use o2k_sched::SchedPolicy;
        let machine = Arc::new(Machine::new(2, MachineConfig::test_tiny()));
        let lock = SimLock::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Team::new(machine).sched(SchedPolicy::Det).run(|ctx| {
                let _g = lock.acquire(ctx);
                if ctx.pe() == 0 {
                    panic!("boom");
                }
                ctx.compute(10);
            });
        }));
        // The team must unwind (not hang), and the original panic must
        // be the one propagated.
        let err = r.expect_err("PE panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom"), "got {msg:?}");
    }
}
