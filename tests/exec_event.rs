//! Execution-backend equivalence: the event core must be observationally
//! identical to the thread backend under the deterministic scheduler.
//!
//! Three layers of evidence:
//!
//! * **Golden equivalence** — the runs behind every pinned golden
//!   (F1/F3/F5 app runs, the serving results, and the f2/n1/n2/q1
//!   experiment archives) are regenerated on both backends and
//!   byte-diffed. The T2/T3 goldens never execute a team, so they are
//!   backend-independent by construction.
//! * **Property tests** — virtual-time monotonicity of the event heap's
//!   pick sequence, deterministic tie-breaking (same seed ⇒ same
//!   fingerprint on both backends), and no lost wakeups through
//!   mailbox+barrier traffic at P ∈ {2, 4, 8, 64}.
//! * **Scale smoke** — P = 1024 teams (past the OS-thread cap) complete
//!   on the event core for N-body, AMR, and serving, with cross-model
//!   checksums agreeing and request conservation holding; thread mode at
//!   P = 1024 is refused with a diagnostic pointing at `--exec event`.
//!
//! Every test passes its backend explicitly ([`RunOpts`] or
//! `o2k_bench::Env`), so all of them are safe to run concurrently.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use origin2k::prelude::*;

fn machine(p: usize) -> Arc<Machine> {
    Machine::origin2000(p)
}

fn det(exec: ExecMode) -> RunOpts {
    RunOpts {
        sched: Some(SchedPolicy::Det),
        exec: Some(exec),
        ..RunOpts::default()
    }
}

/// Byte-level equivalence of two runs: simulated time, physics checksum
/// bits, merged counters, per-PE breakdowns, NetStats, ServeStats, and
/// the schedule fingerprint.
fn assert_same_run(tag: &str, a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.sim_time, b.sim_time, "{tag}: sim time");
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{tag}: checksum bits"
    );
    assert_eq!(a.counters, b.counters, "{tag}: merged counters");
    assert_eq!(a.per_pe, b.per_pe, "{tag}: per-PE breakdowns");
    assert_eq!(a.net, b.net, "{tag}: NetStats");
    assert_eq!(a.serve, b.serve, "{tag}: ServeStats");
    let (fa, fb) = (a.sched.as_ref().unwrap(), b.sched.as_ref().unwrap());
    assert_eq!(fa.fingerprint, fb.fingerprint, "{tag}: pick sequence");
    assert_eq!(fa.switches, fb.switches, "{tag}: handoff count");
}

// ------------------------------------------------- golden equivalence

/// The runs behind the F1/F3/F5 pins (both apps, all models, P ∈ {1, 4},
/// quick sizes): regenerate under thread-det and event-det and compare
/// everything the goldens derive from.
#[test]
fn pinned_app_goldens_replay_bitwise_under_event() {
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            for p in [1usize, 4] {
                let t = run_app_opts(machine(p), app, model, &nb, &am, det(ExecMode::Thread));
                let e = run_app_opts(machine(p), app, model, &nb, &am, det(ExecMode::Event));
                let tag = format!("{}/{} P={p}", app.name(), model.name());
                assert_same_run(&tag, &t, &e);
                // The one thing that tells the backends apart is host-side:
                // only coroutines have a stack high-water mark to report.
                assert_eq!(t.stack_hwm_kb, None, "{tag}: threads have no mark");
                let kb = e.stack_hwm_kb.expect("the event core measures its stacks");
                let cap = origin2k::sched::coro::stack_bytes() / 1024;
                assert!((1..=cap).contains(&kb), "{tag}: {kb} KiB of {cap}");
            }
        }
    }
}

/// The serving goldens: `ServeConfig::small()` at P=8 on the queued
/// fabric, every model — quantiles and NetStats must match bitwise.
#[test]
fn serve_goldens_replay_bitwise_under_event() {
    use origin2k::machine::ContentionMode;
    let cfg = ServeConfig::small();
    let queued = |p: usize| {
        Arc::new(Machine::new(
            p,
            MachineConfig {
                contention: ContentionMode::Queued,
                ..MachineConfig::origin2000()
            },
        ))
    };
    for model in Model::ALL {
        let t = origin2k::serve::run_opts(queued(8), model, &cfg, det(ExecMode::Thread));
        let e = origin2k::serve::run_opts(queued(8), model, &cfg, det(ExecMode::Event));
        let tag = format!("serve/{}", model.name());
        assert_same_run(&tag, &t, &e);
        assert!(t.serve.is_some(), "{tag}: serving runs carry ServeStats");
    }
}

/// The pinned experiment archives: f2, n1, n2, and q1 regenerated under
/// the event core must be byte-identical to the thread-backend text
/// (tables, hotspot reports, quantiles — the whole rendered archive).
#[test]
fn experiment_archives_replay_bitwise_under_event() {
    let on = |exec: ExecMode| o2k_bench::Env {
        sched: Some(SchedPolicy::Det),
        exec: Some(exec),
        ..o2k_bench::Env::new(true)
    };
    for id in ["f2", "n1", "n2", "q1"] {
        let thread = o2k_bench::run_experiment_in(id, &on(ExecMode::Thread));
        let event = o2k_bench::run_experiment_in(id, &on(ExecMode::Event));
        assert_eq!(
            thread, event,
            "repro {id} archive must be byte-identical across backends"
        );
    }
}

// ------------------------------------------------------ property tests

mod properties {
    use super::*;
    use origin2k::sched::{coro, CoopSched};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The det event heap grants the floor in non-decreasing virtual
        /// time: after a warm-up barrier, the clock observed at each grant
        /// never regresses (ties broken by PE id never reorder time).
        #[test]
        fn popped_virtual_times_are_monotone_under_event(
            p_idx in 0usize..3,
            incs in proptest::collection::vec(1u64..1_000, 64),
        ) {
            let p = [2usize, 4, 8][p_idx];
            let rounds = incs.len() / p;
            let sched = Arc::new(CoopSched::with_exec(p, SchedPolicy::Det, ExecMode::Event));
            let grants: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let mut coros: Vec<coro::Coro> = (0..p)
                .map(|pe| {
                    let sched = Arc::clone(&sched);
                    let grants = Arc::clone(&grants);
                    let incs = incs.clone();
                    coro::Coro::new(coro::stack_bytes(), move || {
                        sched.register(pe);
                        sched.gate_wait(pe, 0);
                        let mut clock = 0u64;
                        for r in 0..rounds {
                            clock += incs[r * p + pe];
                            sched.yield_now(pe, clock);
                            // The floor is ours again: one grant observed.
                            grants.lock().unwrap().push(clock);
                        }
                        sched.finish(pe, clock);
                    })
                })
                .collect();
            sched.drive(&mut coros);
            prop_assert!(coros.iter().all(|c| c.finished()), "all PEs must run dry");
            let grants = grants.lock().unwrap();
            prop_assert_eq!(grants.len(), rounds * p);
            for w in grants.windows(2) {
                prop_assert!(
                    w[0] <= w[1],
                    "virtual time regressed across grants: {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }

        /// Deterministic tie-breaking: the same Explore seed produces the
        /// same schedule fingerprint on the event core twice in a row, and
        /// the thread backend takes the identical pick sequence.
        #[test]
        fn same_seed_same_fingerprint_on_both_backends(
            p in 2usize..9,
            seed in any::<u64>(),
        ) {
            let policy = SchedPolicy::Explore { seed };
            let go = |exec: ExecMode| {
                Team::new(machine(p))
                    .seed(7)
                    .sched(policy)
                    .exec(exec)
                    .run(|ctx| {
                        for _ in 0..4 {
                            ctx.compute(50 + ctx.pe() as u64 * 11);
                            ctx.barrier();
                        }
                        ctx.rng_u64()
                    })
            };
            let e1 = go(ExecMode::Event);
            let e2 = go(ExecMode::Event);
            let t = go(ExecMode::Thread);
            let f = |r: &parallel::TeamRun<u64>| r.sched.as_ref().unwrap().fingerprint;
            prop_assert_eq!(f(&e1), f(&e2), "event replay must be stable");
            prop_assert_eq!(f(&e1), f(&t), "backends must take the same picks");
            prop_assert_eq!(e1.results, t.results);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// No lost wakeups: random mailbox ring traffic plus barriers at
        /// P ∈ {2, 4, 8, 64}. A lost wakeup deadlocks (poisons) the team;
        /// completion with matching fingerprints on both backends is the
        /// assertion.
        #[test]
        fn no_lost_wakeups_under_event(
            p_idx in 0usize..4,
            rounds in 1usize..4,
            payload in any::<u64>(),
        ) {
            let p = [2usize, 4, 8, 64][p_idx];
            let go = |exec: ExecMode| {
                let mach = Arc::new(machine::Machine::new(
                    p,
                    machine::MachineConfig::test_tiny(),
                ));
                let world = Arc::new(mp::MpWorld::new(Arc::clone(&mach)));
                Team::new(mach)
                    .seed(payload)
                    .sched(SchedPolicy::Det)
                    .exec(exec)
                    .run(move |ctx| {
                        let me = ctx.pe();
                        let n = ctx.npes();
                        let mut acc = payload;
                        for r in 0..rounds {
                            let dst = (me + 1) % n;
                            let src = (me + n - 1) % n;
                            world.send(ctx, dst, r as mp::Tag, &[acc]);
                            let (_, _, got) = world.recv::<u64>(
                                ctx,
                                mp::RecvSpec {
                                    src: Some(src),
                                    tag: Some(r as mp::Tag),
                                },
                            );
                            acc = acc.wrapping_add(got[0]).rotate_left(7);
                            ctx.compute(10 + (me as u64 * 3 + r as u64) % 17);
                            ctx.barrier();
                        }
                        acc
                    })
            };
            let t = go(ExecMode::Thread);
            let e = go(ExecMode::Event);
            prop_assert_eq!(&t.results, &e.results, "ring traffic must agree");
            prop_assert_eq!(
                t.sched.as_ref().unwrap().fingerprint,
                e.sched.as_ref().unwrap().fingerprint
            );
        }
    }
}

// ----------------------------------------------------- P = 1024 smoke

/// N-body at P = 1024 on the event core: SHMEM and MPI both complete
/// past the thread cap and agree on the physics **bitwise** at the
/// same P (the models trade identical essential trees). A CC-SAS run
/// anchors the physics at P = 64 — the smoke keeps that model small
/// because across *different* P the MAC accepts slightly different
/// cells per partition, so the cross-P check is a tolerance, not bit
/// equality (the directory's sharer set grows past one word now, so
/// 64 is a run-time budget, not a cap).
///
/// The MPI LET trade is O(P²) in messages, so this smoke is
/// release-only (it takes minutes under debug assertions); CI runs it
/// in the release-scale step alongside E1.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "P=1024 N-body smoke is release-only: run with `cargo test --release --test exec_event p1024`"
)]
fn nbody_p1024_completes_and_models_agree_under_event() {
    let nb = NBodyConfig {
        n: 1_024,
        steps: 1,
        ..NBodyConfig::default()
    };
    let am = AmrConfig::small();
    let sh = run_app_opts(
        machine(1024),
        App::NBody,
        Model::Shmem,
        &nb,
        &am,
        det(ExecMode::Event),
    );
    assert_eq!(sh.pes, 1024);
    assert!(sh.sim_time > 0, "the run must do work");
    assert!(sh.checksum.is_finite(), "bodies must be conserved");
    let mp = run_app_opts(
        machine(1024),
        App::NBody,
        Model::Mp,
        &nb,
        &am,
        det(ExecMode::Event),
    );
    assert_eq!(
        sh.checksum.to_bits(),
        mp.checksum.to_bits(),
        "SHMEM and MPI must agree bitwise on the physics at P=1024"
    );
    let sas = run_app_opts(
        machine(64),
        App::NBody,
        Model::Sas,
        &nb,
        &am,
        det(ExecMode::Event),
    );
    let rel = (sh.checksum - sas.checksum).abs() / sas.checksum.abs();
    assert!(
        rel < 1e-6,
        "P=1024 physics must anchor to the P=64 CC-SAS run (rel err {rel:e})"
    );
}

/// AMR at P = 1024 on the event core (one cell per PE on the base
/// mesh): completion plus cross-model physics agreement. The anchors
/// run at P = 64 — the AMR checksum is partition-invariant (pinned
/// across P by E1), so small anchors carry the full cross-model
/// comparison without the directory-protocol run time of a 1024-PE
/// CC-SAS team.
#[test]
fn amr_p1024_completes_and_models_agree_under_event() {
    let nb = NBodyConfig::small();
    let am = AmrConfig {
        nx: 32,
        ny: 32,
        steps: 1,
        sweeps: 1,
        ..AmrConfig::default()
    };
    let sh = run_app_opts(
        machine(1024),
        App::Amr,
        Model::Shmem,
        &nb,
        &am,
        det(ExecMode::Event),
    );
    assert_eq!(sh.pes, 1024);
    assert!(sh.sim_time > 0, "the run must do work");
    for model in [Model::Mp, Model::Sas] {
        let anchor = run_app_opts(machine(64), App::Amr, model, &nb, &am, det(ExecMode::Event));
        assert_eq!(
            sh.checksum.to_bits(),
            anchor.checksum.to_bits(),
            "SHMEM at P=1024 must agree with {model:?} at P=64 on the physics"
        );
    }
}

/// Serving at P = 1024 shards: every request issued is completed
/// (conservation), and a second run replays bitwise — the event core
/// is deterministic even with a thousand coroutines in flight. (The
/// serve checksum depends on the shard layout, so cross-model equality
/// is pinned at P ≤ 64 by the goldens; SHMEM is the model that runs
/// cheapest here — MP termination trades O(P²) DONE tokens, which the
/// release-only mitigation smoke below pays for.)
#[test]
fn serve_p1024_conserves_requests_under_event() {
    let cfg = ServeConfig {
        keys: 16_384,
        requests: 2_048,
        seed: 0x00C0_FFEE,
        ..ServeConfig::default()
    };
    let go = || origin2k::serve::run_opts(machine(1024), Model::Shmem, &cfg, det(ExecMode::Event));
    let a = go();
    let s = a.serve.as_ref().expect("serving runs carry ServeStats");
    assert_eq!(s.issued, cfg.requests, "every request issued");
    assert_eq!(s.completed + s.failed, s.issued, "conservation");
    assert!(
        s.p50_ns <= s.p99_ns && s.p99_ns <= s.max_ns,
        "quantile order"
    );
    let b = go();
    assert_same_run("serve p1024 replay", &a, &b);
}

/// Hot-shard mitigation at P = 1024 shards on the event core: under
/// key skew 3.0 the first shards take an order-of-magnitude overload,
/// and both replicated reads and MP work-stealing must cut the skewed
/// p99 below mitigation-off while serving bit-identical data. The MP
/// cells trade O(P²) DONE tokens, so this smoke is release-only; CI
/// runs it in the release-scale step.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "P=1024 mitigation smoke is release-only: run with `cargo test --release --test exec_event p1024`"
)]
fn serve_p1024_mitigation_cuts_skewed_tail_under_event() {
    use origin2k::machine::ContentionMode;
    use origin2k::serve::Mitigation;
    let p = 1024usize;
    let queued = || {
        Arc::new(Machine::new(
            p,
            MachineConfig {
                contention: ContentionMode::Queued,
                ..MachineConfig::origin2000()
            },
        ))
    };
    let cfg = |mitigation: Mitigation| ServeConfig {
        keys: 64 * p,
        requests: 32 * p as u64,
        mean_gap_ns: 15_000,
        skew: 3.0,
        val_words: 64,
        service_ns: 1_500,
        deadline_ns: None,
        poll_ns: 4_000,
        seed: 0x00C0_FFEE,
        mitigation,
        start_ns: 600_000,
    };
    let run = |model: Model, mit: Mitigation| {
        origin2k::serve::run_opts(queued(), model, &cfg(mit), det(ExecMode::Event))
    };
    let grid = [
        (Model::Mp, Mitigation::Replicate { replicas: 3 }),
        (Model::Mp, Mitigation::Steal),
        (Model::Shmem, Mitigation::Replicate { replicas: 3 }),
    ];
    for (model, mit) in grid {
        let off = run(model, Mitigation::Off);
        let on = run(model, mit);
        for r in [&off, &on] {
            let s = r.serve.as_ref().expect("serving runs carry ServeStats");
            assert_eq!(s.issued, 32 * p as u64, "{model:?}: every request issued");
            assert_eq!(s.completed, s.issued, "{model:?} {mit:?}: conservation");
        }
        assert_eq!(
            on.checksum.to_bits(),
            off.checksum.to_bits(),
            "{model:?} {mit:?}: mitigation must serve bit-identical data"
        );
        let (off_p99, on_p99) = (
            off.serve.as_ref().unwrap().p99_ns,
            on.serve.as_ref().unwrap().p99_ns,
        );
        assert!(
            on_p99 < off_p99,
            "{model:?} {mit:?}: mitigation must cut the skewed p99 \
             ({on_p99} vs off {off_p99} ns)"
        );
        match mit {
            Mitigation::Replicate { .. } => assert!(
                on.counters.replica_bytes > 0,
                "{model:?}: replicate must ship copies"
            ),
            Mitigation::Steal => assert!(
                on.counters.requests_stolen > 0,
                "{model:?}: steal must claim batches"
            ),
            Mitigation::Off => unreachable!(),
        }
    }
}

/// The thread backend refuses a 1024-PE team with a diagnostic that
/// points at the event core instead of spawning a thousand OS threads.
#[test]
fn thread_backend_refuses_p1024_with_guidance() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        Team::new(machine(1024))
            .sched(SchedPolicy::Det)
            .exec(ExecMode::Thread)
            .run(|ctx| ctx.pe())
    }))
    .expect_err("thread mode must refuse P=1024");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("--exec event"),
        "refusal must point at the event core: {msg}"
    );
}

// -------------------------------------- deadlock diagnosis regression

/// A logic deadlock (a recv no send will ever match) produces the same
/// scheduler diagnostic on both backends.
#[test]
fn deadlock_diagnosis_is_identical_across_backends() {
    let diagnose = |exec: ExecMode| -> String {
        let mach = Arc::new(machine::Machine::new(
            2,
            machine::MachineConfig::test_tiny(),
        ));
        let world = Arc::new(mp::MpWorld::new(Arc::clone(&mach)));
        let err = catch_unwind(AssertUnwindSafe(|| {
            Team::new(mach)
                .sched(SchedPolicy::Det)
                .exec(exec)
                .run(move |ctx| {
                    if ctx.pe() == 0 {
                        // No PE ever sends tag 9: a true logic deadlock.
                        world.recv::<u64>(
                            ctx,
                            mp::RecvSpec {
                                src: Some(1),
                                tag: Some(9),
                            },
                        );
                    }
                })
        }))
        .expect_err("the deadlocked team must panic");
        err.downcast_ref::<String>()
            .cloned()
            .expect("diagnostic panics carry a String payload")
    };
    let t = diagnose(ExecMode::Thread);
    let e = diagnose(ExecMode::Event);
    assert!(
        t.contains("cooperative scheduler deadlock"),
        "must diagnose a logic deadlock: {t}"
    );
    assert_eq!(t, e, "backends must produce the identical diagnostic");
}

/// A dead-link block (the fault plan partitioned the machine) is
/// diagnosed as a *network partition* — not a logic deadlock — and the
/// diagnostic is identical on both backends.
#[test]
fn partition_diagnosis_is_identical_across_backends() {
    use origin2k::machine::{ContentionMode, FaultMode};
    let diagnose = |exec: ExecMode| -> String {
        // 8 PEs → 4 nodes, 2 routers; killing the single r0d0 edge severs
        // rtr0 from rtr1 with nothing to detour over.
        let mach = Arc::new(Machine::new(
            8,
            MachineConfig {
                contention: ContentionMode::Queued,
                fault: FaultMode::parse("plan:r0d0:kill").expect("valid fault spec"),
                ..MachineConfig::origin2000()
            },
        ));
        let err = catch_unwind(AssertUnwindSafe(|| {
            Team::new(mach)
                .sched(SchedPolicy::Det)
                .exec(exec)
                .run(|ctx| {
                    if ctx.pe() == 0 {
                        // Every route to node 2 crosses the severed edge.
                        ctx.net_delay_to_node(2, 1_024);
                    }
                })
        }))
        .expect_err("the partitioned team must panic");
        err.downcast_ref::<String>()
            .cloned()
            .expect("diagnostic panics carry a String payload")
    };
    let t = diagnose(ExecMode::Thread);
    let e = diagnose(ExecMode::Event);
    assert!(
        t.contains("network partition"),
        "must diagnose a partition: {t}"
    );
    assert!(
        !t.contains("cooperative scheduler deadlock"),
        "must not misdiagnose as a logic deadlock: {t}"
    );
    assert_eq!(t, e, "backends must produce the identical diagnostic");
}
