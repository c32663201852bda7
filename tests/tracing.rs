//! End-to-end properties of the o2k-trace subsystem: traces conserve the
//! clock's time accounting exactly, tracing never perturbs simulated
//! results, and the F9 experiment archives Perfetto-loadable traces.

use std::sync::{Arc, Mutex, OnceLock};

use apps::{AmrConfig, App, Model, NBodyConfig, RunOpts};
use machine::{Machine, MachineConfig};

/// The tracing flag and sink are process-global; tests that toggle them
/// must not interleave.
fn global_trace_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn machine(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(p, MachineConfig::origin2000()))
}

fn amr_cfg() -> AmrConfig {
    AmrConfig::small()
}

fn nbody_cfg() -> NBodyConfig {
    NBodyConfig {
        n: 256,
        steps: 1,
        ..NBodyConfig::default()
    }
}

/// Per-PE event spans must sum, per category, to exactly the clock's own
/// breakdown: every nanosecond the runtimes charge is captured by exactly
/// one recorded event.
#[test]
fn trace_conserves_clock_breakdown() {
    let _g = global_trace_lock().lock().unwrap();
    o2k_trace::set_enabled(true);
    for model in Model::WITH_HYBRID {
        let r = apps::run_app(machine(4), App::Amr, model, &nbody_cfg(), &amr_cfg());
        let trace = r
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("{}: tracing enabled but no trace collected", model.name()));
        trace.validate().expect("well-formed trace");
        assert_eq!(trace.pes(), 4);
        for pe in 0..4 {
            let from_events = trace.pe_breakdown(pe);
            let from_clock = r.per_pe[pe];
            assert_eq!(
                (
                    from_events.busy,
                    from_events.local,
                    from_events.remote,
                    from_events.sync
                ),
                (
                    from_clock.busy,
                    from_clock.local,
                    from_clock.remote,
                    from_clock.sync
                ),
                "{} PE {pe}: trace must account for every charged nanosecond",
                model.name()
            );
        }
    }
    o2k_trace::set_enabled(false);
    let _ = o2k_trace::sink_drain();
}

/// Tracing must be a pure observer: enabling it cannot change any
/// simulated time or physics result.
///
/// MP and SHMEM runs are deterministic under every scheduling policy, so
/// traced and untraced runs must be bit-identical (sim_time, checksum,
/// every counter). Under free-running OS threads the CC-SAS runs differ
/// between any two runs, traced or not — first-touch homing, sharer-list
/// order and (N-body) the shared tree's insertion order all follow the
/// real interleaving, so even the access *total* moves. The SAS leg is
/// therefore pinned to the deterministic scheduler, where the access
/// stream is program-determined.
#[test]
fn tracing_does_not_perturb_results() {
    let _g = global_trace_lock().lock().unwrap();
    let run = |app, model| apps::run_app(machine(4), app, model, &nbody_cfg(), &amr_cfg());
    let run_sas = |app| {
        let det = RunOpts::with_sched(Some(parallel::SchedPolicy::Det));
        apps::run_app_opts(machine(4), app, Model::Sas, &nbody_cfg(), &amr_cfg(), det)
    };
    for app in [App::Amr, App::NBody] {
        for model in [Model::Mp, Model::Shmem] {
            let base = run(app, model);
            o2k_trace::set_enabled(true);
            let traced = run(app, model);
            o2k_trace::set_enabled(false);
            assert_eq!(
                (base.sim_time, base.checksum.to_bits(), &base.counters),
                (traced.sim_time, traced.checksum.to_bits(), &traced.counters),
                "{} {}: tracing perturbed a deterministic run",
                app.name(),
                model.name()
            );
            assert!(base.trace.is_none() && traced.trace.is_some());
        }
        let base = run_sas(app);
        o2k_trace::set_enabled(true);
        let traced = run_sas(app);
        o2k_trace::set_enabled(false);
        let (b, t) = (&base.counters, &traced.counters);
        assert_eq!(base.checksum.to_bits(), traced.checksum.to_bits());
        assert_eq!(
            b.cache_hits + b.misses_local + b.misses_remote,
            t.cache_hits + t.misses_local + t.misses_remote,
            "{}: the access stream is program-determined",
            app.name()
        );
        assert_eq!((b.barriers, b.lock_acquires), (t.barriers, t.lock_acquires));
    }
    let _ = o2k_trace::sink_drain();
}

/// A team-level trace request works without the global flag and captures
/// the wait structure of an unbalanced barrier.
#[test]
fn team_level_tracing_captures_barrier_waits() {
    use parallel::{EventKind, Team};
    let run = Team::new(machine(4)).trace(true).run(|ctx| {
        ctx.compute(1_000 * (ctx.pe() as u64 + 1));
        ctx.barrier();
        ctx.now()
    });
    assert!(run.is_traced());
    let trace = run.trace();
    trace.validate().expect("well-formed");
    // PEs 0..2 waited on PE 3, the last arriver; each wait edge names it.
    let waits: Vec<_> = trace
        .per_pe
        .iter()
        .flatten()
        .filter(|e| e.kind == EventKind::BarrierWait)
        .collect();
    assert_eq!(waits.len(), 3, "three PEs waited");
    for w in waits {
        assert_eq!(w.dep.map(|d| d.pe), Some(3));
    }
    let stats = o2k_trace::critpath::critical_path(&trace);
    assert_eq!(stats.total, run.sim_time());
    assert_eq!(stats.attributed() + stats.untracked, stats.total);
}

/// Under the resource fabric, the Perfetto "interconnect" process grows
/// one track per bus/hub resource that carried traffic, alongside the
/// link tracks — the export is name-driven, so this pins the wiring from
/// `NetSim` resource names through `Team::trace` to the JSON.
#[test]
fn fabric_trace_exports_bus_and_hub_tracks() {
    let _g = global_trace_lock().lock().unwrap();
    o2k_trace::set_enabled(true);
    let fabric = Arc::new(Machine::new(
        4,
        MachineConfig {
            contention: machine::ContentionMode::Fabric,
            ..MachineConfig::origin2000()
        },
    ));
    let r = apps::run_app(fabric, App::Amr, Model::Sas, &nbody_cfg(), &amr_cfg());
    o2k_trace::set_enabled(false);
    let trace = r.trace.as_ref().expect("trace collected");
    let json = o2k_trace::chrome::to_chrome_json(trace);
    assert!(json.contains("\"name\":\"interconnect\""));
    for needle in ["bus:node", "hub:rtr", "node0→rtr0"] {
        assert!(json.contains(needle), "missing {needle} track");
    }
    let _ = o2k_trace::sink_drain();
}

/// `repro f9 --quick` (driven through the library) archives one
/// Perfetto-loadable trace per app/model cell.
#[test]
fn f9_archives_perfetto_traces() {
    let _g = global_trace_lock().lock().unwrap();
    let dir = std::env::temp_dir().join("o2k_f9_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("O2K_RESULTS_DIR", &dir);
    let out = o2k_bench::run_experiment("f9", true);
    std::env::remove_var("O2K_RESULTS_DIR");
    assert!(out.contains("critical path:"), "f9 output:\n{out}");
    assert!(
        out.contains("per adaptation step"),
        "Counters::diff table missing"
    );
    let mut n = 0;
    for entry in std::fs::read_dir(&dir).expect("f9 out dir") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let body = std::fs::read_to_string(&path).unwrap();
            assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
            assert!(body.contains("\"traceEvents\""));
            n += 1;
        }
    }
    assert_eq!(n, 6, "one trace per app x model cell");
    let _ = std::fs::remove_dir_all(&dir);
}
