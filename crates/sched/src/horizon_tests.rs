//! The horizon fast path against a naive scheduler model.
//!
//! A seeded [`Script`] decides, for whichever PE holds the floor, what it
//! does next (advance + yield, block, unblock a sleeper with a hint below
//! or above its own clock, gate, finish). The same script drives a real
//! event-backend [`CoopSched`] and the [`Naive`] model below, which picks
//! by linear scan and folds every pick — self-picks included — the way
//! the scheduler did before it had a horizon. If the two ever pick
//! differently the op logs diverge, and so do `switches` / `fingerprint`.

use super::tests::run_logged_event;
use super::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Yield(SimTime),
    Block(SimTime),
    Unblock(usize, SimTime),
    Gate(SimTime),
    Finish(SimTime),
}

/// What each PE does, decided when it asks. Legality rules keep every
/// sequence deadlock-free: a PE blocks only while another PE is active,
/// and wakes every sleeper before it leaves the active set itself.
struct Script {
    rng: SmallRng,
    clock: Vec<SimTime>,
    asleep: Vec<bool>,
    /// PEs that are neither asleep, at the gate, nor finished.
    active: usize,
    at_gate: usize,
    ops_left: Vec<usize>,
    rounds_left: Vec<usize>,
}

impl Script {
    fn new(seed: u64, npes: usize, rounds: usize) -> Self {
        Script {
            rng: SmallRng::seed_from_u64(seed),
            clock: vec![0; npes],
            asleep: vec![false; npes],
            active: npes,
            at_gate: 0,
            ops_left: vec![0; npes],
            rounds_left: vec![rounds; npes],
        }
    }

    fn draw(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn next(&mut self, pe: usize) -> Op {
        let npes = self.clock.len();
        if self.ops_left[pe] == 0 {
            // Leaving the active set: nobody may stay asleep behind us.
            if let Some(q) = self.asleep.iter().position(|&a| a) {
                return self.wake(pe, q);
            }
            if self.rounds_left[pe] == 0 {
                self.active -= 1;
                return Op::Finish(self.clock[pe]);
            }
            self.rounds_left[pe] -= 1;
            self.ops_left[pe] = 1 + self.draw(12) as usize;
            self.active -= 1;
            self.at_gate += 1;
            if self.at_gate == npes {
                self.at_gate = 0;
                self.active = npes;
            }
            return Op::Gate(self.clock[pe]);
        }
        self.ops_left[pe] -= 1;
        match self.draw(10) {
            0 if self.active > 1 => {
                self.asleep[pe] = true;
                self.active -= 1;
                Op::Block(self.clock[pe])
            }
            1 | 2 => match self.asleep.iter().position(|&a| a) {
                Some(q) => self.wake(pe, q),
                None => self.advance(pe),
            },
            _ => self.advance(pe),
        }
    }

    /// Advance by 0–19 ns (zero keeps ties on the PE id in play) and yield.
    fn advance(&mut self, pe: usize) -> Op {
        self.clock[pe] += self.draw(20);
        Op::Yield(self.clock[pe])
    }

    /// Wake `q` with a hint on either side of the waker's clock.
    fn wake(&mut self, pe: usize, q: usize) -> Op {
        self.asleep[q] = false;
        self.active += 1;
        let hint = (self.clock[pe] + self.draw(30)).saturating_sub(15);
        // The sleeper resumes no earlier than the scheduler will say.
        self.clock[q] = self.clock[q].max(hint);
        Op::Unblock(q, hint)
    }
}

#[derive(Clone, Copy, PartialEq)]
enum St {
    Runnable,
    Running,
    Asleep,
    AtGate,
    Done,
}

/// The reference: min `(clock, pe)` by linear scan, fold on every pick.
struct Naive {
    status: Vec<St>,
    clock: Vec<SimTime>,
    current: Option<usize>,
    arrived: usize,
    switches: u64,
    fingerprint: u64,
}

impl Naive {
    fn new(npes: usize) -> Self {
        let mut m = Naive {
            status: vec![St::Runnable; npes],
            clock: vec![0; npes],
            current: None,
            arrived: 0,
            switches: 0,
            fingerprint: 0xcbf2_9ce4_8422_2325,
        };
        m.pick();
        m
    }

    fn pick(&mut self) {
        let next = (0..self.status.len())
            .filter(|&p| self.status[p] == St::Runnable)
            .min_by_key(|&p| (self.clock[p], p));
        if let Some(n) = next {
            self.status[n] = St::Running;
            self.fingerprint = (self.fingerprint ^ n as u64).wrapping_mul(0x0000_0100_0000_01b3);
            if self.current.is_some() && self.current != Some(n) {
                self.switches += 1;
            }
        }
        self.current = next;
    }

    fn apply(&mut self, pe: usize, op: Op) {
        match op {
            Op::Unblock(q, hint) => {
                self.clock[q] = self.clock[q].max(hint);
                self.status[q] = St::Runnable;
                return;
            }
            Op::Yield(c) => (self.clock[pe], self.status[pe]) = (c, St::Runnable),
            Op::Block(c) => (self.clock[pe], self.status[pe]) = (c, St::Asleep),
            Op::Finish(c) => (self.clock[pe], self.status[pe]) = (c, St::Done),
            Op::Gate(c) => {
                (self.clock[pe], self.status[pe]) = (c, St::AtGate);
                self.arrived += 1;
                if self.arrived == self.status.len() {
                    self.arrived = 0;
                    for s in &mut self.status {
                        if *s == St::AtGate {
                            *s = St::Runnable;
                        }
                    }
                }
            }
        }
        self.pick();
    }
}

type Log = Vec<(usize, Op)>;

fn run_naive(seed: u64, npes: usize, rounds: usize) -> (Log, u64, u64) {
    let mut script = Script::new(seed, npes, rounds);
    let mut model = Naive::new(npes);
    let mut log = Vec::new();
    while let Some(pe) = model.current {
        let op = script.next(pe);
        log.push((pe, op));
        model.apply(pe, op);
    }
    (log, model.switches, model.fingerprint)
}

fn run_real(seed: u64, npes: usize, rounds: usize) -> (Log, u64, u64) {
    let sched = Arc::new(CoopSched::with_exec(
        npes,
        SchedPolicy::Det,
        ExecMode::Event,
    ));
    let script = Rc::new(RefCell::new(Script::new(seed, npes, rounds)));
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut coros: Vec<coro::Coro> = (0..npes)
        .map(|pe| {
            let (sched, script, log) = (Arc::clone(&sched), Rc::clone(&script), Rc::clone(&log));
            coro::Coro::new(256 * 1024, move || {
                sched.register(pe);
                loop {
                    let op = script.borrow_mut().next(pe);
                    log.borrow_mut().push((pe, op));
                    match op {
                        Op::Yield(c) => {
                            sched.yield_now(pe, c);
                        }
                        Op::Block(c) => sched.block(pe, c, BlockReason::Mailbox),
                        Op::Unblock(q, hint) => sched.unblock(q, hint),
                        Op::Gate(c) => sched.gate_wait(pe, c),
                        Op::Finish(c) => return sched.finish(pe, c),
                    }
                }
            })
        })
        .collect();
    sched.drive(&mut coros);
    assert!(coros.iter().all(|c| c.finished()), "driver exited early");
    drop(coros);
    let stats = sched.stats();
    let log = log.borrow().clone();
    (log, stats.switches, stats.fingerprint)
}

#[test]
fn random_op_sequences_match_the_naive_model() {
    for npes in [1usize, 2, 7, 32] {
        let mut blocks = 0;
        for seed in 0..24u64 {
            let (want_log, want_sw, want_fp) = run_naive(seed, npes, 4);
            let (log, sw, fp) = run_real(seed, npes, 4);
            let first = log.iter().zip(&want_log).position(|(a, b)| a != b);
            assert_eq!(
                first, None,
                "P={npes} seed={seed}: op logs diverge at step {first:?}"
            );
            assert_eq!(log.len(), want_log.len(), "P={npes} seed={seed}");
            assert_eq!(sw, want_sw, "P={npes} seed={seed}: switches");
            assert_eq!(fp, want_fp, "P={npes} seed={seed}: fingerprint");
            blocks += log
                .iter()
                .filter(|(_, op)| matches!(op, Op::Block(_)))
                .count();
        }
        assert!(npes == 1 || blocks > 0, "P={npes}: no script ever blocked");
    }
}

/// Under `explore` every yield must still reach the chooser and draw one
/// RNG value. Checked two ways on `tests::run_logged_event`'s workload:
/// against a model that draws once per pick, and against the
/// fingerprints the parent commit (no horizon) produced for seeds
/// `tests/schedule_exploration.rs` leans on.
#[test]
fn explore_still_draws_once_per_yield() {
    const PINNED: [(u64, u64); 4] = [
        (0, 0xace5_89e8_a104_1473),
        (7, 0x09cd_442c_0541_9a23),
        (23, 0xe599_efa2_7fb6_0ac9),
        (42, 0xa0d8_56e7_a8a6_105f),
    ];
    let (npes, steps) = (5usize, 40usize);
    for (seed, pinned) in PINNED {
        let (_, stats) = run_logged_event(SchedPolicy::Explore { seed }, npes, steps);

        // Each PE is picked `steps + 1` times (its yields, then its
        // finish); one draw per pick, candidates in PE order.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut left = vec![steps + 1; npes];
        let mut fp = 0xcbf2_9ce4_8422_2325u64;
        loop {
            let cands: Vec<usize> = (0..npes).filter(|&p| left[p] > 0).collect();
            if cands.is_empty() {
                break;
            }
            let next = cands[(rng.next_u64() % cands.len() as u64) as usize];
            fp = fold_pick(fp, next);
            left[next] -= 1;
        }
        let got = stats.fingerprint;
        assert_eq!(got, fp, "explore:{seed}: a yield skipped its RNG draw");
        assert_eq!(
            got, pinned,
            "explore:{seed}: fingerprint {got:#x} moved off the parent's"
        );
    }
}

/// A `preseed_resume`d scheduler keeps the horizon shut until the first
/// hand-off consumes the grant; from then on it is the real heap top and
/// the granted PE keeps the floor on the compare alone.
#[test]
fn resume_grant_holds_the_horizon_shut() {
    let npes = 3;
    let resume = SchedResume {
        policy: SchedPolicy::Det,
        clocks: vec![50, 40, 60],
        fingerprint: 0x1234,
        switches: 9,
        current: 2,
        rng_state: 0,
    };
    let sched = Arc::new(CoopSched::with_exec(
        npes,
        SchedPolicy::Det,
        ExecMode::Event,
    ));
    sched.preseed_resume(&resume);
    fn horizon(s: &CoopSched) -> (SimTime, usize) {
        (
            s.horizon_clock.load(Ordering::Relaxed),
            s.horizon_pe.load(Ordering::Relaxed),
        )
    }
    assert_eq!(horizon(&sched), HORIZON_SHUT);

    // (registered yet?, pe, horizon it saw)
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut coros: Vec<coro::Coro> = (0..npes)
        .map(|pe| {
            let (sched, seen) = (Arc::clone(&sched), Rc::clone(&seen));
            coro::Coro::new(256 * 1024, move || {
                seen.borrow_mut().push((false, pe, horizon(&sched)));
                sched.register(pe);
                seen.borrow_mut().push((true, pe, horizon(&sched)));
                if pe == 2 {
                    // Below PE 1 @ 40: kept on the compare, folded once.
                    assert!(!sched.yield_now(2, 30));
                }
                sched.finish(pe, 100);
            })
        })
        .collect();
    sched.drive(&mut coros);
    // While the grant is pending the horizon stays shut and nobody runs;
    // the last registrant's hand-off consumes it: PE 2 gets the floor (not
    // the min-clock PE 1) and sees the real heap top.
    assert_eq!(
        *seen.borrow(),
        vec![
            (false, 0, HORIZON_SHUT),
            (false, 1, HORIZON_SHUT),
            (false, 2, HORIZON_SHUT),
            (true, 2, (40, 1)),
            (true, 1, (50, 0)),
            (true, 0, HORIZON_OPEN),
        ]
    );
    let stats = sched.stats();
    // The grant itself folds nothing; the kept floor and the two
    // hand-offs after it do.
    let folded = [2, 1, 0].into_iter().fold(0x1234, fold_pick);
    assert_eq!(stats.fingerprint, folded);
    assert_eq!(stats.switches, 9 + 2);
}
