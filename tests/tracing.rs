//! End-to-end properties of the o2k-trace subsystem: traces conserve the
//! clock's time accounting exactly, tracing never perturbs simulated
//! results, and the F9 experiment archives Perfetto-loadable traces.

use std::sync::Arc;

use apps::{AmrConfig, App, Model, NBodyConfig, RunOpts};
use machine::{Machine, MachineConfig};
use o2k_trace::TraceSink;

fn machine(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(p, MachineConfig::origin2000()))
}

/// Options that trace a run into a sink of its own.
fn traced() -> RunOpts {
    RunOpts {
        trace: Some(TraceSink::default()),
        ..RunOpts::default()
    }
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
    for model in Model::ALL {
        let (nb, am) = (nbody_cfg(), amr_cfg());
        let r = apps::run_app_opts(machine(4), App::Amr, model, &nb, &am, traced());
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
    let run = |app, model, opts| {
        apps::run_app_opts(machine(4), app, model, &nbody_cfg(), &amr_cfg(), opts)
    };
    let det = |opts: RunOpts| RunOpts {
        sched: Some(parallel::SchedPolicy::Det),
        ..opts
    };
    for app in [App::Amr, App::NBody] {
        for model in [Model::Mp, Model::Shmem] {
            let base = run(app, model, RunOpts::default());
            let traced = run(app, model, traced());
            assert_eq!(
                (base.sim_time, base.checksum.to_bits(), &base.counters),
                (traced.sim_time, traced.checksum.to_bits(), &traced.counters),
                "{} {}: tracing perturbed a deterministic run",
                app.name(),
                model.name()
            );
            assert!(base.trace.is_none() && traced.trace.is_some());
        }
        let base = run(app, Model::Sas, det(RunOpts::default()));
        let traced = run(app, Model::Sas, det(traced()));
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
}

/// Two traced runs on two threads, each with a sink of its own: each sink
/// ends up holding exactly its own run's trace, whatever the other thread
/// was doing meanwhile.
#[test]
fn concurrent_traced_runs_keep_their_own_sinks() {
    let run = |p: usize| {
        let sink = TraceSink::default();
        let opts = RunOpts {
            trace: Some(sink.clone()),
            ..RunOpts::default()
        };
        let (nb, am) = (nbody_cfg(), amr_cfg());
        let r = apps::run_app_opts(machine(p), App::Amr, Model::Mp, &nb, &am, opts);
        (r, sink.drain())
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run(2));
        let b = s.spawn(|| run(4));
        (a.join().unwrap(), b.join().unwrap())
    });
    for (p, (r, drained)) in [(2, a), (4, b)] {
        assert_eq!(drained.len(), 1, "P={p}: one run, one trace");
        assert_eq!(drained[0].pes(), p, "P={p}: the sink holds its own run");
        assert_eq!(Some(&drained[0]), r.trace.as_ref());
    }
}

/// A team-level trace request reads the run's trace off the `TeamRun`
/// (nobody need drain the sink) and captures the wait structure of an
/// unbalanced barrier.
#[test]
fn team_level_tracing_captures_barrier_waits() {
    use parallel::{EventKind, Team};
    let run = Team::new(machine(4))
        .trace_into(TraceSink::default())
        .run(|ctx| {
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
    let fabric = Arc::new(Machine::new(
        4,
        MachineConfig {
            contention: machine::ContentionMode::Fabric,
            ..MachineConfig::origin2000()
        },
    ));
    let (nb, am) = (nbody_cfg(), amr_cfg());
    let r = apps::run_app_opts(fabric, App::Amr, Model::Sas, &nb, &am, traced());
    let trace = r.trace.as_ref().expect("trace collected");
    let json = o2k_trace::chrome::to_chrome_json(trace);
    assert!(json.contains("\"name\":\"interconnect\""));
    for needle in ["bus:node", "hub:rtr", "node0→rtr0"] {
        assert!(json.contains(needle), "missing {needle} track");
    }
}

/// `repro f9 --quick` (driven through the library) archives one
/// Perfetto-loadable trace per app/model cell.
#[test]
fn f9_archives_perfetto_traces() {
    let dir = std::env::temp_dir().join("o2k_f9_test");
    let _ = std::fs::remove_dir_all(&dir);
    let sink = TraceSink::default();
    let env = o2k_bench::Env {
        out_dir: dir.clone(),
        trace: Some(sink.clone()),
        ..o2k_bench::Env::new(true)
    };
    let out = o2k_bench::run_experiment_in("f9", &env);
    // Under `--trace` every run F9 performs reaches the caller's sink: the
    // six archived cells plus the step-series reruns.
    assert!(sink.drain().len() > 6, "f9 must not swallow its runs");
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
