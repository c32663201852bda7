//! Schedule-exploration harness: replay the runtime under many seeded
//! interleavings and check that what *must* hold under every schedule
//! actually does.
//!
//! The `Explore { seed }` policy makes the cooperative scheduler pick a
//! uniformly-random runnable PE at every yield point — each seed is one
//! reproducible interleaving, and sweeping seeds is a poor man's model
//! checker for the synchronisation substrate. The invariants:
//!
//! * the AMR CC-SAS self-scheduled step computes the same physics under
//!   every interleaving (and the sweep genuinely explores: the schedule
//!   fingerprints are almost all distinct);
//! * barriers separate epochs (pre-barrier writes visible after, clocks
//!   aligned);
//! * shmem puts complete before the barrier-separated reader looks;
//! * the race detector stays quiet on the barrier/atomic-clean AMR step.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use origin2k::parallel::Team;
use origin2k::prelude::*;

fn tiny(p: usize) -> std::sync::Arc<Machine> {
    Arc::new(Machine::new(p, MachineConfig::test_tiny()))
}

fn explore_team(p: usize, seed: u64) -> Team {
    Team::new(tiny(p)).sched(SchedPolicy::Explore { seed })
}

/// One quick self-scheduled AMR step — the most schedule-sensitive code in
/// the repo (dynamic chunk claiming over a shared fetch-add cursor).
fn amr_step_cfg() -> AmrConfig {
    AmrConfig {
        steps: 1,
        sas_self_schedule: true,
        ..AmrConfig::small()
    }
}

/// The acceptance test for the exploration harness: >=100 distinct seeded
/// interleavings of an AMR CC-SAS step, every one producing the reference
/// physics.
#[test]
fn amr_sas_step_invariant_over_100_explored_schedules() {
    let cfg = amr_step_cfg();
    let run = |policy| {
        origin2k::apps::amr_sas::run_opts(Machine::origin2000(4), &cfg, RunOpts::with_sched(policy))
    };
    let reference = run(SchedPolicy::Det);
    let mut fingerprints = HashSet::new();
    for seed in 0..=100u64 {
        let r = run(SchedPolicy::Explore { seed });
        assert_eq!(
            r.checksum, reference.checksum,
            "seed {seed}: physics must be schedule-independent"
        );
        fingerprints.insert(r.sched.expect("explore reports stats").fingerprint);
    }
    // The sweep must genuinely explore the schedule space, not replay one
    // interleaving 101 times.
    assert!(
        fingerprints.len() >= 90,
        "only {} distinct schedules out of 101 seeds",
        fingerprints.len()
    );
}

/// Replaying one seed must reproduce the interleaving exactly.
#[test]
fn explored_schedules_replay_bitwise() {
    let cfg = amr_step_cfg();
    let run = || {
        origin2k::apps::amr_sas::run_opts(
            Machine::origin2000(4),
            &cfg,
            RunOpts::with_sched(SchedPolicy::Explore { seed: 42 }),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.sim_time, b.sim_time);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.sched, b.sched);
}

/// Barrier separation: every pre-barrier write is visible after the
/// barrier and the barrier aligns all virtual clocks, under every
/// explored interleaving.
#[test]
fn barriers_separate_epochs_under_all_schedules() {
    for p in [2usize, 4, 8] {
        for seed in 0..34u64 {
            let slots: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
            let run = explore_team(p, seed).run(|ctx| {
                // Unequal work so the schedule has real freedom.
                ctx.compute(37 * (ctx.pe() as u64 % 3 + 1));
                slots[ctx.pe()].store(ctx.pe() as u64 + 1, Ordering::Relaxed);
                ctx.barrier();
                let sum: u64 = slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
                (sum, ctx.now())
            });
            let expect: u64 = (1..=p as u64).sum();
            for &(sum, _) in &run.results {
                assert_eq!(sum, expect, "P={p} seed={seed}: write lost at barrier");
            }
            let t0 = run.results[0].1;
            assert!(
                run.results.iter().all(|&(_, t)| t == t0),
                "P={p} seed={seed}: barrier must align clocks"
            );
        }
    }
}

/// One-sided completion: a put followed by a barrier is visible to the
/// target's local read; a get after the barrier returns the posted value.
#[test]
fn shmem_puts_and_gets_complete_under_all_schedules() {
    use origin2k::shmem::SymWorld;
    for p in [2usize, 4, 8] {
        for seed in 0..34u64 {
            let machine = tiny(p);
            let heap = SymWorld::new(Arc::clone(&machine));
            let run = Team::new(machine)
                .sched(SchedPolicy::Explore { seed })
                .run(|ctx| {
                    let sym = heap.alloc::<u64>(ctx, 2);
                    let me = ctx.pe();
                    let right = (me + 1) % ctx.npes();
                    ctx.compute(29 * (me as u64 % 3 + 1));
                    // Ring put: everyone writes slot 0 of the right peer.
                    sym.put1(ctx, right, 0, 1000 + me as u64);
                    heap.barrier_all(ctx);
                    let local = sym.read_local1(ctx, 0);
                    // Get it back from the peer we wrote to.
                    let fetched = sym.get1(ctx, right, 0);
                    heap.barrier_all(ctx);
                    (local, fetched)
                });
            for (me, &(local, fetched)) in run.results.iter().enumerate() {
                let left = (me + p - 1) % p;
                assert_eq!(
                    local,
                    1000 + left as u64,
                    "P={p} seed={seed}: put from left neighbour not visible"
                );
                assert_eq!(
                    fetched,
                    1000 + me as u64,
                    "P={p} seed={seed}: get must see my own put"
                );
            }
        }
    }
}

/// The race detector across explored schedules: the barrier/atomic-clean
/// AMR step must never produce a data race, under any interleaving (false
/// sharing is expected — neighbouring triangles share lines by design).
#[test]
fn race_detector_stays_quiet_on_amr_under_exploration() {
    use origin2k::sas::{RaceKind, SasWorld};
    for seed in [0u64, 7, 23] {
        let machine = tiny(4);
        let world = Arc::new(SasWorld::new(Arc::clone(&machine)).detect_races());
        let w = Arc::clone(&world);
        Team::new(machine)
            .sched(SchedPolicy::Explore { seed })
            .run(|ctx| {
                // A miniature of the AMR sweep structure: atomic claim,
                // read epoch, barrier, write epoch.
                let field = w.alloc::<f64>(ctx, 64);
                let cursor = w.alloc::<u64>(ctx, 1);
                let mut pe = w.pe();
                let mut mine = Vec::new();
                loop {
                    let c = pe.fadd(ctx, &cursor, 0, 1u64) as usize;
                    if c * 8 >= 64 {
                        break;
                    }
                    for i in c * 8..(c + 1) * 8 {
                        let _ = pe.read(ctx, &field, i);
                        mine.push(i);
                    }
                }
                w.barrier(ctx);
                for &i in &mine {
                    pe.write(ctx, &field, i, i as f64);
                }
            });
        let races: Vec<_> = world
            .race_reports()
            .into_iter()
            .filter(|r| r.kind == RaceKind::DataRace)
            .collect();
        assert!(
            races.is_empty(),
            "seed {seed}: barrier-separated sweep must be race-free: {races:?}"
        );
    }
}

/// And the detector must still catch a real bug under exploration: the
/// same kernel without the barrier races on every schedule that
/// interleaves the epochs.
#[test]
fn race_detector_catches_seeded_unbarriered_writes() {
    use origin2k::sas::{RaceKind, SasWorld};
    let mut caught = 0;
    for seed in 0..8u64 {
        let machine = tiny(2);
        let world = Arc::new(SasWorld::new(Arc::clone(&machine)).detect_races());
        let w = Arc::clone(&world);
        Team::new(machine)
            .sched(SchedPolicy::Explore { seed })
            .run(|ctx| {
                let field = w.alloc::<u64>(ctx, 8);
                let mut pe = w.pe();
                pe.write(ctx, &field, 0, ctx.pe() as u64); // no barrier: racy
            });
        if world
            .race_reports()
            .iter()
            .any(|r| r.kind == RaceKind::DataRace)
        {
            caught += 1;
        }
    }
    assert_eq!(
        caught, 8,
        "the unsynchronised write must be flagged on every seed"
    );
}

/// Interconnect contention under schedule exploration: the queueing model
/// keys every delay off the deterministic virtual-time order, so each seed
/// replays bitwise (times, counters, and per-link NetStats), and the
/// physics never moves no matter how traffic is interleaved on the links.
#[test]
fn queued_contention_replays_and_keeps_physics_under_exploration() {
    use origin2k::machine::ContentionMode;
    let cfg = amr_step_cfg();
    let qm = || {
        Arc::new(Machine::new(
            4,
            MachineConfig {
                contention: ContentionMode::Queued,
                ..MachineConfig::origin2000()
            },
        ))
    };
    let run = |policy| origin2k::apps::amr_sas::run_opts(qm(), &cfg, RunOpts::with_sched(policy));
    let reference = run(SchedPolicy::Det);
    let again = run(SchedPolicy::Det);
    assert_eq!(
        reference.sim_time, again.sim_time,
        "det must repeat bitwise"
    );
    assert_eq!(reference.counters, again.counters);
    assert_eq!(reference.net, again.net, "det must repeat NetStats bitwise");
    assert_eq!(reference.sched, again.sched);
    let net = reference.net.expect("queued mode reports NetStats");
    assert!(net.transfers > 0, "the step must route remote traffic");
    for seed in 0..25u64 {
        let r = run(SchedPolicy::Explore { seed });
        assert_eq!(
            r.checksum, reference.checksum,
            "seed {seed}: physics must be schedule-independent under contention"
        );
        let b = run(SchedPolicy::Explore { seed });
        assert_eq!(
            r.sim_time, b.sim_time,
            "seed {seed} must replay under contention"
        );
        assert_eq!(r.net, b.net, "seed {seed}: NetStats must replay");
    }
}
