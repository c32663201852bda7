//! Scaling-shape integration tests: the qualitative results the paper
//! reports must hold in the reproduction (see DESIGN.md §3, "Expected
//! shapes").

use origin2k::core::SweepResult;
use origin2k::prelude::*;

/// All three models across `pes` on stock Origin2000 machines.
fn sweep(app: App, pes: &[usize], nb: &NBodyConfig, am: &AmrConfig) -> SweepResult {
    sweep_models(app, &Model::ALL, pes, |model, p| {
        run_app(Machine::origin2000(p), app, model, nb, am)
    })
}

#[test]
fn every_model_speeds_up_to_moderate_pe_counts() {
    let nb = NBodyConfig {
        n: 1024,
        steps: 2,
        ..NBodyConfig::default()
    };
    let am = AmrConfig {
        nx: 16,
        ny: 16,
        steps: 3,
        sweeps: 3,
        ..AmrConfig::default()
    };
    for app in [App::NBody, App::Amr] {
        let sweep = sweep(app, &[1, 4, 8], &nb, &am);
        for s in &sweep.series {
            let sp = s.speedups();
            assert!(
                sp[2] > 2.0,
                "{app:?}/{:?}: speedup at P=8 only {:.2}",
                s.model,
                sp[2]
            );
            assert!(
                sp[1] > 1.5,
                "{app:?}/{:?}: speedup at P=4 only {:.2}",
                s.model,
                sp[1]
            );
        }
    }
}

#[test]
fn sas_wins_amr_at_scale_and_mpi_lags() {
    // The paper-family headline: for the adaptive mesh application on
    // ccNUMA hardware, CC-SAS beats SHMEM beats MPI at higher P.
    let nb = NBodyConfig::small();
    let am = AmrConfig {
        nx: 24,
        ny: 24,
        steps: 4,
        sweeps: 4,
        ..AmrConfig::default()
    };
    let sweep = sweep(App::Amr, &[16], &nb, &am);
    let t = |m: Model| sweep.series_for(m).runs[0].sim_time;
    assert!(
        t(Model::Sas) < t(Model::Shmem),
        "SAS ({}) must beat SHMEM ({}) on AMR at P=16",
        t(Model::Sas),
        t(Model::Shmem)
    );
    assert!(
        t(Model::Shmem) < t(Model::Mp),
        "SHMEM ({}) must beat MPI ({}) on AMR at P=16",
        t(Model::Shmem),
        t(Model::Mp)
    );
}

#[test]
fn nbody_models_are_comparable_at_moderate_scale() {
    // For N-body the paper found the three models close, with SAS at least
    // competitive. Allow 25% spread.
    let nb = NBodyConfig {
        n: 1024,
        steps: 2,
        ..NBodyConfig::default()
    };
    let am = AmrConfig::small();
    let sweep = sweep(App::NBody, &[8], &nb, &am);
    let times: Vec<u64> = sweep.series.iter().map(|s| s.runs[0].sim_time).collect();
    let max = *times.iter().max().unwrap() as f64;
    let min = *times.iter().min().unwrap() as f64;
    assert!(
        max / min < 1.25,
        "N-body models should be comparable at P=8: {times:?}"
    );
}

#[test]
fn mpi_remote_fraction_grows_faster_than_sas_on_amr() {
    let nb = NBodyConfig::small();
    let am = AmrConfig {
        nx: 16,
        ny: 16,
        steps: 3,
        sweeps: 3,
        ..AmrConfig::default()
    };
    let frac = |model: Model, p: usize| {
        let r = run_app(Machine::origin2000(p), App::Amr, model, &nb, &am);
        let (_, _, remote, sync) = r.breakdown().fractions();
        remote + sync
    };
    let mp_overhead = frac(Model::Mp, 16);
    let sas_overhead = frac(Model::Sas, 16);
    assert!(
        mp_overhead > sas_overhead,
        "MPI's explicit machinery must cost more overhead at P=16: {mp_overhead:.3} vs {sas_overhead:.3}"
    );
}

#[test]
fn serial_runs_have_negligible_communication() {
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let r = run_app(Machine::origin2000(1), app, model, &nb, &am);
            let (busy, _, _, _) = r.breakdown().fractions();
            assert!(
                busy > 0.85,
                "{app:?}/{model:?} at P=1 should be compute-dominated: busy={busy:.3}"
            );
        }
    }
}
