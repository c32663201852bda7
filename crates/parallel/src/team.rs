//! Team construction and execution.

use std::any::Any;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};

use machine::{ContentionMode, Counters, Machine, SimTime, TimeBreakdown};
use o2k_net::NetSim;
use o2k_sched::{coro, CoopSched, ExecMode, SchedPolicy, SchedStats, POISON_MSG};

use crate::ctx::Ctx;

/// Largest team [`ExecMode::Thread`] will spawn. One OS thread per PE is
/// fine at the paper's 64 CPUs but a P=1024 team would commit a thousand
/// thread stacks and crawl through kernel handoffs — refuse it with a
/// pointer at the event backend instead of fork-bombing the host.
pub const THREAD_PE_CAP: usize = 512;

/// Per-PE outcome of a team run: final virtual time, its breakdown, the
/// PE's event counters, and (when tracing) its recorded events.
#[derive(Debug, Clone)]
pub struct PeReport {
    /// PE index.
    pub pe: usize,
    /// Virtual time at which this PE finished.
    pub finish: SimTime,
    /// Categorised time accounting.
    pub breakdown: TimeBreakdown,
    /// Event counters.
    pub counters: Counters,
    /// Recorded trace events (empty unless the run was traced).
    pub events: Vec<o2k_trace::Event>,
}

/// Result of [`Team::run`]: the per-PE closure results (indexed by PE) and
/// the per-PE reports.
#[derive(Debug)]
pub struct TeamRun<R> {
    /// Closure return values, `results[pe]`.
    pub results: Vec<R>,
    /// Timing / counter reports, `reports[pe]`.
    pub reports: Vec<PeReport>,
    /// Scheduler statistics: policy, switch count, schedule fingerprint.
    pub sched: SchedStats,
    /// The interconnect contention model, populated when the machine ran
    /// with [`ContentionMode::Queued`] or [`ContentionMode::Fabric`];
    /// query it for [`NetSim::stats`], hotspot reports and utilization
    /// histograms.
    pub net: Option<Arc<NetSim>>,
    /// Deepest coroutine stack of the run in KiB
    /// ([`coro::Coro::stack_high_water_kb`], maximum over PEs) on the
    /// event backend; `None` where PEs are OS threads. A host-side figure:
    /// it belongs in no archive, which must not tell the backends apart.
    pub stack_hwm_kb: Option<usize>,
}

impl<R> TeamRun<R> {
    /// Simulated execution time of the whole run: the latest PE finish time.
    pub fn sim_time(&self) -> SimTime {
        self.reports.iter().map(|r| r.finish).max().unwrap_or(0)
    }

    /// Sum of all PEs' counters.
    pub fn merged_counters(&self) -> Counters {
        let mut c = Counters::new();
        for r in &self.reports {
            c.merge(&r.counters);
        }
        c
    }

    /// Whether any PE recorded trace events during this run.
    pub fn is_traced(&self) -> bool {
        self.reports.iter().any(|r| !r.events.is_empty())
    }

    /// Assemble the per-PE event streams into a [`o2k_trace::Trace`]
    /// (empty streams if the run was untraced). When the run was both
    /// traced and contended, recorded link-occupancy spans ride along as
    /// interconnect tracks.
    pub fn trace(&self) -> o2k_trace::Trace {
        let mut t = o2k_trace::Trace::new(self.reports.iter().map(|r| r.events.clone()).collect());
        if let Some(net) = &self.net {
            let (names, spans) = net.spans();
            t.link_names = names;
            t.link_spans = spans;
            let faults = net.fault_spans(self.sim_time());
            if !faults.is_empty() && t.link_names.is_empty() {
                // Spans may be off while a fault plan is active; fault
                // tracks still need link names to render.
                t.link_names = (0..net.links()).map(|id| net.link_name(id)).collect();
            }
            t.link_faults = faults;
        }
        t
    }
}

/// Shared synchronisation state for one team. Internal to this crate but
/// reachable from [`Ctx`].
pub(crate) struct TeamShared {
    /// Per-PE clock deposit slots for computing the barrier max.
    pub clock_slots: Vec<AtomicU64>,
    /// Per-PE blackboard slots for [`Ctx::broadcast`](crate::Ctx::broadcast).
    slots: Vec<Mutex<Option<Box<dyn Any + Send>>>>,
    /// The team's cooperative scheduler: every rendezvous, block and
    /// yield of the run goes through it.
    pub coop: Arc<CoopSched>,
    /// Interconnect contention model, present iff the machine config says
    /// [`ContentionMode::Queued`] or [`ContentionMode::Fabric`]. One
    /// instance per run: its per-resource occupancy state *is* the run's
    /// contention history.
    pub net: Option<Arc<NetSim>>,
}

impl TeamShared {
    fn new(machine: &Machine, coop: Arc<CoopSched>) -> Self {
        let pes = machine.pes();
        let topo = &machine.topology;
        let net = match machine.config.contention {
            ContentionMode::Off => None,
            ContentionMode::Queued | ContentionMode::Fabric => {
                Some(Arc::new(NetSim::new(topo, &machine.config)))
            }
        };
        TeamShared {
            clock_slots: (0..pes).map(|_| AtomicU64::new(0)).collect(),
            slots: (0..pes).map(|_| Mutex::new(None)).collect(),
            coop,
            net,
        }
    }

    /// PE `pe`'s blackboard slot, locked: no panic leaves it half-updated, so poison is ignored.
    pub(crate) fn slot(&self, pe: usize) -> MutexGuard<'_, Option<Box<dyn Any + Send>>> {
        self.slots[pe].lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Poisons the cooperative scheduler if the PE thread unwinds, so blocked
/// peers wake and unwind too instead of hanging the join.
struct PoisonOnPanic<'a> {
    coop: &'a CoopSched,
    pe: usize,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.coop.poison(self.pe);
        }
    }
}

/// Substrate state a team needs to resume from a snapshot: the
/// scheduler's pick-sequence state, every PE's core state, and the
/// fabric's busy-until queues. Model and app state (heaps, regions,
/// domain data) are restored by the caller — this is only the layer
/// [`Team::run_resumed`] owns.
#[derive(Debug, Clone)]
pub struct TeamResume {
    /// Scheduler state exported at the snap gate. Applied in full when
    /// the resuming team runs the same policy; under a different
    /// cooperative policy only the virtual clocks carry over (the pick
    /// sequence, fingerprint and chooser stream start fresh).
    pub sched: o2k_sched::SchedResume,
    /// Per-PE core state, `cores[pe]`, applied to each [`Ctx`] at spawn.
    pub cores: Vec<o2k_snap::PeCore>,
    /// Fabric state from [`NetSim::export_state_bytes`], or `None` for a
    /// cold fabric. When present it must fit this machine's fabric: a
    /// machine without one, or an import error, panics. A restore onto
    /// another machine than the captured one passes `None`: the captured
    /// fabric state belongs to that other machine.
    pub fabric: Option<Vec<u8>>,
}

/// A team of simulated PEs bound to a [`Machine`].
#[derive(Clone)]
pub struct Team {
    machine: Arc<Machine>,
    sink: Option<o2k_trace::TraceSink>,
    sched: SchedPolicy,
    exec: ExecMode,
}

impl Team {
    /// A team covering every PE of `machine`. The scheduling policy
    /// defaults to [`o2k_sched::default_policy`] (`O2K_SCHED` env var or
    /// [`SchedPolicy::Det`]); the execution backend to
    /// [`o2k_sched::default_exec`] (`O2K_EXEC`, else [`ExecMode::Event`]
    /// wherever coroutines are supported).
    pub fn new(machine: Arc<Machine>) -> Self {
        Team {
            machine,
            sink: None,
            sched: o2k_sched::default_policy(),
            exec: o2k_sched::default_exec(),
        }
    }

    /// Set the scheduling policy for this team's runs (see
    /// [`SchedPolicy`]). [`SchedPolicy::Det`] makes runs bitwise
    /// reproducible; `Explore` replays seeded interleavings for race
    /// hunting. Either way a PE runs only while it holds the scheduler's
    /// floor.
    pub fn sched(mut self, policy: SchedPolicy) -> Self {
        self.sched = policy;
        self
    }

    /// Set the execution backend (see [`ExecMode`]). `Event` runs every
    /// PE as a coroutine on one OS thread — the only way past
    /// [`THREAD_PE_CAP`] PEs — and produces bitwise-identical `det` runs
    /// to `Thread`.
    pub fn exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Trace every run of this team: the trace comes back on the
    /// [`TeamRun`], and each finished [`o2k_trace::Trace`] is also pushed
    /// into `sink`, for whoever holds the other end.
    pub fn trace_into(mut self, sink: o2k_trace::TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The machine this team runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Run `f` once per PE and gather results.
    ///
    /// Under [`ExecMode::Thread`] each PE is an OS thread; under
    /// [`ExecMode::Event`] each PE is a coroutine on this thread, run by
    /// [`CoopSched::drive`]. `f` is shared by reference; per-PE
    /// mutable state lives in the [`Ctx`]. Panics in any PE propagate.
    pub fn run<R, F>(&self, f: F) -> TeamRun<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        self.run_resumed(None, f)
    }

    /// [`Team::run`], optionally resuming substrate state captured at a
    /// snapshot quiescence point: the scheduler is preseeded before any
    /// PE registers (so the first floor grant replays the snap-gate
    /// release), each PE's [`Ctx`] starts from its captured core, and the
    /// fabric's busy-until queues are reloaded. The closure `f` is
    /// expected to rebuild model/app state from the snapshot's own
    /// sections and enter its loop at the captured step.
    ///
    /// # Panics
    /// Panics on a PE-count mismatch, and on [`TeamResume::fabric`] bytes
    /// this machine's fabric cannot import.
    pub fn run_resumed<R, F>(&self, resume: Option<TeamResume>, f: F) -> TeamRun<R>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        let pes = self.machine.pes();
        if self.exec == ExecMode::Thread {
            assert!(
                pes <= THREAD_PE_CAP,
                "a {pes}-PE team exceeds the {THREAD_PE_CAP}-thread cap of ExecMode::Thread; \
                 run it on the event backend (--exec event / O2K_EXEC=event)"
            );
        }
        let coop = Arc::new(CoopSched::with_exec(pes, self.sched, self.exec));
        if let Some(res) = &resume {
            assert_eq!(
                res.cores.len(),
                pes,
                "snapshot holds {} PE cores, this team has {pes}",
                res.cores.len()
            );
            if res.sched.policy == self.sched {
                coop.preseed_resume(&res.sched);
            } else {
                // Restoring under a different policy: virtual time carries
                // over, the pick sequence starts fresh.
                coop.preseed_clocks(&res.sched.clocks);
            }
        }
        let shared = Arc::new(TeamShared::new(&self.machine, Arc::clone(&coop)));
        if let Some(bytes) = resume.as_ref().and_then(|r| r.fabric.as_deref()) {
            let Some(net) = &shared.net else {
                panic!("snapshot section fabric: this machine models no fabric (contention off)");
            };
            net.import_state_bytes(bytes)
                .unwrap_or_else(|e| panic!("snapshot section fabric: {e}"));
        }
        let trace = self.sink.is_some();
        if trace {
            if let Some(net) = &shared.net {
                net.set_record_spans(true);
            }
        }
        let mut out: Vec<Option<(R, PeReport)>> = (0..pes).map(|_| None).collect();

        // The per-PE body is identical in both backends; only the vehicle
        // (thread vs coroutine) differs.
        let body = |pe: usize, slot: &mut Option<(R, PeReport)>| {
            let guard = PoisonOnPanic { coop: &coop, pe };
            coop.register(pe);
            let mut ctx = Ctx::new(pe, Arc::clone(&self.machine), Arc::clone(&shared), trace);
            if let Some(res) = &resume {
                ctx.apply_core(&res.cores[pe]);
            }
            let r = f(&mut ctx);
            coop.finish(pe, ctx.now());
            drop(guard);
            *slot = Some((r, ctx.into_report()));
        };

        let stack_hwm_kb = match self.exec {
            ExecMode::Thread => {
                self.drive_threads(pes, &mut out, &body);
                None
            }
            ExecMode::Event => Self::drive_events(&coop, &mut out, &body),
        };

        let mut results = Vec::with_capacity(pes);
        let mut reports = Vec::with_capacity(pes);
        for slot in out {
            let (r, rep) = slot.expect("PE produced no result");
            results.push(r);
            reports.push(rep);
        }
        let run = TeamRun {
            results,
            reports,
            sched: coop.stats(),
            net: shared.net.clone(),
            stack_hwm_kb,
        };
        if let Some(sink) = &self.sink {
            sink.push(run.trace());
        }
        run
    }

    /// Thread backend: one scoped OS thread per PE.
    fn drive_threads<R: Send>(
        &self,
        pes: usize,
        out: &mut [Option<(R, PeReport)>],
        body: &(impl Fn(usize, &mut Option<(R, PeReport)>) + Sync),
    ) {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(pes);
            for (pe, slot) in out.iter_mut().enumerate() {
                handles.push(scope.spawn(move || body(pe, slot)));
            }
            // Join everyone. A panicking PE poisons the scheduler and its
            // peers unwind with POISON_MSG;
            // propagate the *original* panic, not a secondary one.
            let mut first: Option<Box<dyn Any + Send>> = None;
            let mut first_is_secondary = false;
            for h in handles {
                if let Err(payload) = h.join() {
                    prefer_primary_panic(&mut first, &mut first_is_secondary, payload);
                }
            }
            if let Some(payload) = first {
                std::panic::resume_unwind(payload);
            }
        });
    }

    /// Event backend: every PE is a coroutine, run to completion by
    /// [`CoopSched::drive`] on this thread. A panicking or deadlocking PE
    /// poisons the scheduler exactly as under threads, the driver unwinds
    /// every surviving coroutine, and this propagates the original
    /// payload. Returns the deepest stack any PE used, in KiB (`Some` for
    /// every team that has a PE).
    fn drive_events<R>(
        cs: &Arc<CoopSched>,
        out: &mut [Option<(R, PeReport)>],
        body: &impl Fn(usize, &mut Option<(R, PeReport)>),
    ) -> Option<usize> {
        let stack = coro::stack_bytes();
        let mut coros: Vec<coro::Coro> = out
            .iter_mut()
            .enumerate()
            .map(|(pe, slot)| coro::Coro::new(stack, move || body(pe, slot)).for_pe(pe))
            .collect();
        cs.drive(&mut coros);
        let mut first: Option<Box<dyn Any + Send>> = None;
        let mut first_is_secondary = false;
        for c in &mut coros {
            if let Some(payload) = c.take_panic() {
                prefer_primary_panic(&mut first, &mut first_is_secondary, payload);
            }
        }
        let stack_hwm_kb = coros.iter().map(|c| c.stack_high_water_kb()).max();
        drop(coros);
        if let Some(payload) = first {
            std::panic::resume_unwind(payload);
        }
        stack_hwm_kb
    }
}

/// Keep the first panic payload, upgrading a secondary POISON_MSG payload
/// to a later primary one (the PE that actually hit the bug).
fn prefer_primary_panic(
    first: &mut Option<Box<dyn Any + Send>>,
    first_is_secondary: &mut bool,
    payload: Box<dyn Any + Send>,
) {
    let secondary = payload
        .downcast_ref::<String>()
        .is_some_and(|s| s.contains(POISON_MSG))
        || payload
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains(POISON_MSG));
    if first.is_none() || (*first_is_secondary && !secondary) {
        *first = Some(payload);
        *first_is_secondary = secondary;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{MachineConfig, TimeCat};

    fn team(pes: usize) -> Team {
        Team::new(Arc::new(Machine::new(pes, MachineConfig::test_tiny())))
    }

    #[test]
    fn run_returns_per_pe_results_in_order() {
        let t = team(4);
        let run = t.run(|ctx| ctx.pe() * 10);
        assert_eq!(run.results, vec![0, 10, 20, 30]);
        assert_eq!(run.reports.len(), 4);
        for (i, r) in run.reports.iter().enumerate() {
            assert_eq!(r.pe, i);
        }
    }

    #[test]
    fn sim_time_is_max_finish() {
        let t = team(4);
        let run = t.run(|ctx| {
            ctx.compute((ctx.pe() as u64 + 1) * 100);
        });
        assert_eq!(run.sim_time(), 400);
        assert_eq!(run.reports[2].finish, 300);
    }

    #[test]
    fn single_pe_team_works() {
        let t = team(1);
        let run = t.run(|ctx| {
            ctx.barrier();
            42
        });
        assert_eq!(run.results, vec![42]);
    }

    #[test]
    fn sync_time_charged_while_waiting() {
        let t = team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                ctx.compute(1_000);
            }
            ctx.barrier();
        });
        // PE 1 waited for PE 0's 1000 ns of work.
        assert!(run.reports[1].breakdown.sync >= 1_000);
        assert_eq!(run.reports[0].finish, run.reports[1].finish);
    }

    /// Every PE's time breakdown, in PE order.
    fn breakdowns<R>(run: &TeamRun<R>) -> Vec<TimeBreakdown> {
        run.reports.iter().map(|r| r.breakdown).collect()
    }

    /// A PE- and round-dependent value, standing in for per-PE data.
    fn pe_value(pe: usize, round: u64) -> u64 {
        (pe as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ round.wrapping_mul(0xBF58_476D_1CE4_E5B9)
    }

    /// A det workload exercising compute and barriers — run it on both
    /// backends and the whole TeamRun must agree.
    fn backend_pair(pes: usize) -> (TeamRun<u64>, TeamRun<u64>) {
        let body = |ctx: &mut Ctx| {
            let mut acc = 0u64;
            for round in 0..4 {
                acc = acc.wrapping_mul(31).wrapping_add(pe_value(ctx.pe(), round));
                ctx.compute(100 + (ctx.pe() as u64 * 13 + round * 7) % 50);
                ctx.barrier();
            }
            acc
        };
        let thread = team(pes).sched(SchedPolicy::Det).run(body);
        let event = team(pes)
            .sched(SchedPolicy::Det)
            .exec(ExecMode::Event)
            .run(body);
        (thread, event)
    }

    #[test]
    fn event_backend_matches_thread_backend_bitwise() {
        let (t, e) = backend_pair(4);
        assert_eq!(t.results, e.results);
        assert_eq!(t.sim_time(), e.sim_time());
        assert_eq!(t.merged_counters(), e.merged_counters());
        assert_eq!(breakdowns(&t), breakdowns(&e));
        assert_eq!(
            t.sched.fingerprint, e.sched.fingerprint,
            "same pick sequence"
        );
        assert_eq!(t.sched.switches, e.sched.switches);
    }

    #[test]
    fn event_backend_runs_1024_pes() {
        let t = team(1024).sched(SchedPolicy::Det).exec(ExecMode::Event);
        let run = t.run(|ctx| {
            ctx.compute(10 + ctx.pe() as u64 % 3);
            ctx.barrier();
            ctx.pe() as u64
        });
        assert_eq!(run.results.len(), 1024);
        assert!(run.results.iter().copied().eq(0..1024));
    }

    #[test]
    fn thread_backend_refuses_oversized_teams() {
        // Pin the backend: this test is about Thread's cap, and must not be
        // flipped onto the event backend by an ambient O2K_EXEC=event.
        let t = team(1024).sched(SchedPolicy::Det).exec(ExecMode::Thread);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.run(|ctx| ctx.pe());
        }))
        .expect_err("1024 OS threads must be refused");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("--exec event"), "unhelpful refusal: {msg}");
    }

    #[test]
    fn event_backend_propagates_pe_panics() {
        let t = team(3).sched(SchedPolicy::Det).exec(ExecMode::Event);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.run(|ctx| {
                // 1 200 hand-offs by transfer first, one per sched point.
                for _ in 0..400 {
                    ctx.compute(10);
                    ctx.sched_point();
                }
                if ctx.pe() == 1 {
                    panic!("pe 1 exploded");
                }
                ctx.barrier(); // peers block here and must unwind
            });
        }))
        .expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("pe 1 exploded"), "wrong payload: {msg}");
    }

    /// One round of the resume-test workload: a PE- and round-dependent
    /// value and compute, a barrier.
    fn resume_round(ctx: &mut Ctx, acc: u64, round: usize) -> u64 {
        let acc = acc
            .wrapping_mul(31)
            .wrapping_add(pe_value(ctx.pe(), round as u64));
        ctx.compute(100 + (ctx.pe() as u64 * 13 + round as u64 * 7) % 50);
        ctx.barrier();
        acc
    }

    /// Full substrate capture/resume round trip: a straight run exports
    /// its state at a mid-run snap gate; a second team resumed from it
    /// must replay the tail bitwise — results, sim time, counters,
    /// breakdowns, and the schedule fingerprint.
    #[test]
    fn run_resumed_replays_straight_run_tail_bitwise() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const CUT: usize = 3;
        const ROUNDS: usize = 6;
        for policy in [SchedPolicy::Det, SchedPolicy::Explore { seed: 11 }] {
            let cores: Mutex<Vec<Option<o2k_snap::PeCore>>> = Mutex::new(vec![None; 3]);
            let sched_state = Mutex::new(None);
            let claimed = AtomicBool::new(false);
            let straight = team(3).sched(policy).run(|ctx| {
                let mut acc = 0;
                for round in 0..CUT {
                    acc = resume_round(ctx, acc, round);
                }
                // The snap gate: deposit core state host-side, rendezvous
                // at zero virtual cost, then the first PE past the gate
                // (the floor holder) exports the scheduler state.
                cores.lock().unwrap()[ctx.pe()] = Some(ctx.export_core());
                ctx.gate();
                if !claimed.swap(true, Ordering::SeqCst) {
                    *sched_state.lock().unwrap() = Some(ctx.coop().export_resume());
                }
                let mut tail_acc = 0;
                for round in CUT..ROUNDS {
                    tail_acc = resume_round(ctx, tail_acc, round);
                }
                (acc, tail_acc)
            });

            let resume = TeamResume {
                sched: sched_state
                    .into_inner()
                    .unwrap()
                    .expect("floor holder exported"),
                cores: cores
                    .into_inner()
                    .unwrap()
                    .into_iter()
                    .map(|c| c.expect("every PE deposited"))
                    .collect(),
                fabric: None,
            };
            let resumed = team(3).sched(policy).run_resumed(Some(resume), |ctx| {
                let mut tail_acc = 0;
                for round in CUT..ROUNDS {
                    tail_acc = resume_round(ctx, tail_acc, round);
                }
                tail_acc
            });

            let straight_tails: Vec<u64> = straight.results.iter().map(|&(_, t)| t).collect();
            assert_eq!(resumed.results, straight_tails, "{policy}: tail values");
            assert_eq!(resumed.sim_time(), straight.sim_time(), "{policy}");
            assert_eq!(
                resumed.merged_counters(),
                straight.merged_counters(),
                "{policy}"
            );
            assert_eq!(breakdowns(&resumed), breakdowns(&straight), "{policy}");
            let (ss, rs) = (straight.sched, resumed.sched);
            assert_eq!(rs.fingerprint, ss.fingerprint, "{policy}: fingerprint");
            assert_eq!(rs.switches, ss.switches, "{policy}: switches");
        }
    }

    /// Restoring under a *different* policy keeps virtual time and core
    /// state but starts a fresh pick sequence.
    #[test]
    fn run_resumed_under_new_policy_keeps_clocks_not_fingerprint() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cores: Mutex<Vec<Option<o2k_snap::PeCore>>> = Mutex::new(vec![None; 3]);
        let sched_state = Mutex::new(None);
        let claimed = AtomicBool::new(false);
        let straight = team(3).sched(SchedPolicy::Det).run(|ctx| {
            let mut acc = 0;
            for round in 0..3 {
                acc = resume_round(ctx, acc, round);
            }
            cores.lock().unwrap()[ctx.pe()] = Some(ctx.export_core());
            ctx.gate();
            if !claimed.swap(true, Ordering::SeqCst) {
                *sched_state.lock().unwrap() = Some(ctx.coop().export_resume());
            }
            ctx.now()
        });
        let cut_time = straight.results[0];
        let resume = TeamResume {
            sched: sched_state.into_inner().unwrap().unwrap(),
            cores: cores
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|c| c.unwrap())
                .collect(),
            fabric: None,
        };
        let resumed =
            team(3)
                .sched(SchedPolicy::Explore { seed: 5 })
                .run_resumed(Some(resume), |ctx| {
                    assert_eq!(ctx.now(), cut_time, "virtual clock must carry over");
                    resume_round(ctx, 0, 3);
                    ctx.now()
                });
        assert!(resumed.sim_time() > cut_time);
        assert_eq!(resumed.sched.policy, SchedPolicy::Explore { seed: 5 });
    }

    #[test]
    fn advance_with_category() {
        let t = team(1);
        let run = t.run(|ctx| {
            ctx.advance(25, TimeCat::Remote);
            ctx.advance(10, TimeCat::Local);
        });
        let b = &run.reports[0].breakdown;
        assert_eq!(b.remote, 25);
        assert_eq!(b.local, 10);
    }
}
