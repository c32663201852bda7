//! Cross-model integration tests: the three programming models must
//! compute the *same physics* — the paper's comparison is only meaningful
//! because the implementations are numerically equivalent.

use origin2k::prelude::*;

fn machine(p: usize) -> std::sync::Arc<Machine> {
    Machine::origin2000(p)
}

#[test]
fn amr_checksums_agree_bitwise_across_models_and_pes() {
    let cfg = AmrConfig::small();
    let nb = NBodyConfig::small();
    let mut checks = Vec::new();
    for model in Model::ALL {
        for p in [1, 2, 5, 8] {
            let r = run_app(machine(p), App::Amr, model, &nb, &cfg);
            checks.push((model, p, r.checksum));
        }
    }
    let first = checks[0].2;
    for (model, p, c) in checks {
        assert_eq!(c, first, "{model:?} at P={p} diverged");
    }
}

#[test]
fn nbody_checksums_agree_within_tolerance() {
    // N-body models build different trees (global vs local+LET), so the
    // approximation differs slightly; agreement must still be tight.
    let cfg = NBodyConfig::small();
    let amr = AmrConfig::small();
    let reference = run_app(machine(1), App::NBody, Model::Sas, &cfg, &amr).checksum;
    for model in Model::ALL {
        for p in [2, 4] {
            let c = run_app(machine(p), App::NBody, model, &cfg, &amr).checksum;
            let rel = (c - reference).abs() / reference;
            assert!(rel < 0.02, "{model:?} P={p}: relative deviation {rel}");
        }
    }
}

#[test]
fn models_use_only_their_own_communication_style() {
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        let mp = run_app(machine(4), app, Model::Mp, &nb, &am);
        assert!(mp.counters.msgs_sent > 0);
        assert_eq!(mp.counters.puts + mp.counters.gets + mp.counters.amos, 0);
        assert_eq!(mp.counters.misses_remote, 0);

        let sh = run_app(machine(4), app, Model::Shmem, &nb, &am);
        assert!(sh.counters.puts > 0);
        assert_eq!(sh.counters.msgs_sent, 0);
        assert_eq!(sh.counters.misses_remote, 0);

        let sas = run_app(machine(4), app, Model::Sas, &nb, &am);
        assert!(sas.counters.cache_hits > 0);
        assert!(sas.counters.misses_remote > 0);
        assert_eq!(sas.counters.msgs_sent, 0);
        assert_eq!(sas.counters.puts, 0);
    }
}

#[test]
fn breakdown_accounts_for_all_time() {
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let r = run_app(machine(3), app, model, &nb, &am);
            for (pe, bd) in r.per_pe.iter().enumerate() {
                assert!(
                    bd.total() <= r.sim_time,
                    "{app:?}/{model:?} PE {pe}: breakdown exceeds sim time"
                );
                assert!(bd.busy > 0, "{app:?}/{model:?} PE {pe} did no work");
            }
            // The slowest PE's breakdown covers the whole run.
            let max_total = r.per_pe.iter().map(|b| b.total()).max().unwrap();
            assert_eq!(max_total, r.sim_time);
        }
    }
}

#[test]
fn deterministic_end_to_end() {
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let a = run_app(machine(4), app, model, &nb, &am);
            let b = run_app(machine(4), app, model, &nb, &am);
            // Physics is always exactly reproducible.
            assert_eq!(a.checksum, b.checksum, "{app:?}/{model:?}");
            match model {
                // Message and one-sided costs are interleaving-independent:
                // exact timing determinism under any scheduling policy.
                Model::Mp | Model::Shmem => {
                    assert_eq!(a.sim_time, b.sim_time, "{app:?}/{model:?}")
                }
                // Coherence cost accounting depends on thread interleaving
                // (who shares a line when a writer hits it). Under the
                // deterministic scheduler the interleaving is pinned to
                // virtual-time order, so SAS runs repeat *bitwise* — times,
                // per-PE breakdowns, counters, and schedule fingerprint.
                Model::Sas => {
                    let (a, b) = sas_det_pair(app, &nb, &am);
                    assert_eq!(a.checksum, b.checksum, "{app:?}/SAS det");
                    assert_eq!(a.sim_time, b.sim_time, "{app:?}/SAS det");
                    assert_eq!(a.per_pe, b.per_pe, "{app:?}/SAS det");
                    assert_eq!(a.counters, b.counters, "{app:?}/SAS det");
                    assert_eq!(a.sched, b.sched, "{app:?}/SAS det fingerprint");
                }
            }
        }
    }
}

/// Two identical-config CC-SAS runs pinned to the deterministic scheduler.
fn sas_det_pair(app: App, nb: &NBodyConfig, am: &AmrConfig) -> (RunMetrics, RunMetrics) {
    use origin2k::sas::PagePolicy;
    let go = || match app {
        App::NBody => origin2k::apps::nbody_sas::run_with_opts(
            machine(4),
            nb,
            PagePolicy::FirstTouch,
            RunOpts::with_sched(SchedPolicy::Det),
        ),
        App::Amr => origin2k::apps::amr_sas::run_with_opts(
            machine(4),
            am,
            PagePolicy::FirstTouch,
            RunOpts::with_sched(SchedPolicy::Det),
        ),
        App::Serve => unreachable!("the serving workload has its own det tests"),
    };
    (go(), go())
}

#[test]
fn circular_shock_workload_also_agrees_bitwise() {
    // The adaptation driver is geometry-agnostic: an expanding circular
    // front (a different, rotationally-symmetric refinement pattern) must
    // preserve the cross-model equivalence too.
    let cfg = AmrConfig {
        circular: true,
        ..AmrConfig::small()
    };
    let nb = NBodyConfig::small();
    let reference = run_app(machine(1), App::Amr, Model::Sas, &nb, &cfg).checksum;
    for model in Model::ALL {
        let c = run_app(machine(4), App::Amr, model, &nb, &cfg).checksum;
        assert_eq!(c, reference, "{model:?} diverged on the circular workload");
    }
    // And it is genuinely a different workload.
    let planar = run_app(machine(1), App::Amr, Model::Sas, &nb, &AmrConfig::small()).checksum;
    assert_ne!(reference, planar);
}

mod config_space {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Cross-model AMR equivalence holds across the configuration
        /// space, not just the defaults: random mesh sizes, band widths,
        /// step/sweep counts and front shapes.
        #[test]
        fn amr_equivalence_over_random_configs(
            nx in 4usize..10,
            ny in 4usize..10,
            steps in 1usize..4,
            sweeps in 1usize..4,
            circular in any::<bool>(),
        ) {
            let cfg = AmrConfig {
                nx,
                ny,
                steps,
                sweeps,
                circular,
                ..AmrConfig::small()
            };
            let nb = NBodyConfig::small();
            let reference =
                run_app(machine(1), App::Amr, Model::Sas, &nb, &cfg).checksum;
            for model in Model::ALL {
                let c = run_app(machine(4), App::Amr, model, &nb, &cfg).checksum;
                prop_assert_eq!(c, reference, "{:?} diverged on {:?}", model, (nx, ny, steps, sweeps, circular));
            }
        }
    }
}
