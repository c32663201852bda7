//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro <id>... [--quick] [--sched <policy>] [--exec <mode>] [--fault <spec>]
//!               [--snapshot <dir>@<gate>[:index] | --restore <dir>] [--trace <dir>]
//! repro all [--quick]                       run the whole suite
//! ```
//!
//! Output goes to stdout and to `results/<id>.txt`. Flags (and the
//! `O2K_SCHED` / `O2K_EXEC` fallbacks) are parsed here, once, into one
//! [`Env`] that every experiment builds its machines, run options and
//! teams from; nothing below `main` consults process-wide state for them.
//!
//! With `--trace <dir>` every team run any experiment performs is
//! recorded, and its trace written to `<dir>/<id>_runN.trace.json` in
//! Chrome `trace_event` format (loadable at <https://ui.perfetto.dev>).
//! Tracing never perturbs simulated times, so every archive is identical
//! with it on.
//!
//! `--sched <policy>` (or `O2K_SCHED=<policy>`) picks the team scheduling
//! policy: `det` (the default — every table is bitwise reproducible) or
//! `explore:<seed>` (seeded random interleaving, itself reproducible per
//! seed). See DESIGN.md "Determinism & scheduling".
//!
//! `--exec <mode>` (or `O2K_EXEC=<mode>`) picks the execution backend:
//! `event` (the default, [`o2k_sched::default_exec`] — every PE a
//! coroutine on one OS thread; required past 512 PEs, e.g. experiment
//! E1's P=1024 points) or `thread` (one OS thread per PE, an order of
//! magnitude slower per handoff). Under `det` the two backends produce
//! byte-identical archives — CI diffs them.
//!
//! `--fault <spec>` injects link faults into every machine the
//! experiments build: `off` or
//! `plan:<link>:<action>[@<ns>][;…]` with links `up<N>` / `down<N>` /
//! `r<R>d<D>` and actions `kill` / `deg<F>` / `heal` (see DESIGN.md §4c).
//! Faults only bite when the contention model is on; cells that study
//! faults (N2, Q1's sick fabric, C1) set their own plan on top.
//!
//! `--snapshot <dir>@<gate>[:index]` writes a checkpoint of every team
//! run into `<dir>` when execution reaches the named snap gate (`step:4`,
//! `warm`, …); `--restore <dir>` warm-starts every run whose snapshot
//! exists in `<dir>` (runs with no matching snapshot run from scratch; a
//! matching snapshot that cannot be used fails the run, naming the file;
//! a `<dir>` holding no snapshot exits 2). Snap gates cost zero virtual
//! time, so a capturing run's tables are bitwise identical to a plain
//! run's and a restored run replays the plain run's tail exactly — see
//! DESIGN.md §4g. Experiment C1 manages its own snapshot directory and
//! ignores these flags.

use std::fs;
use std::time::Instant;

use o2k_bench::{run_experiment_in, Env, EXPERIMENTS, EXPERIMENT_IDS};

/// Unwrap an `O2K_*` environment setting, or print its diagnostic and
/// exit with the usage-error status.
fn env_or_exit<T>(setting: Result<Option<T>, String>) -> Option<T> {
    setting.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut trace_dir: Option<String> = None;
    // Default to the deterministic scheduler so regenerated tables are
    // bitwise reproducible; `--sched explore:<seed>` picks another
    // interleaving, reproducible per seed.
    let mut sched = env_or_exit(o2k_sched::env_policy()).unwrap_or(o2k_sched::SchedPolicy::Det);
    let mut exec = env_or_exit(o2k_sched::env_exec()).unwrap_or_else(o2k_sched::default_exec);
    let mut fault = machine::FaultMode::Off;
    // Checked here so a typo exits with a usage error; `o2k_sched` reads
    // this one itself, at first use.
    env_or_exit(o2k_sched::coro::env_stack_kb());
    let mut capture: Option<o2k_snap::SnapSpec> = None;
    let mut restore: Option<o2k_snap::SnapSpec> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter().filter(|a| *a != "--quick");
    while let Some(a) = it.next() {
        if a == "--trace" {
            match it.next() {
                Some(d) => trace_dir = Some(d.clone()),
                None => {
                    eprintln!("--trace requires a directory argument");
                    std::process::exit(2);
                }
            }
        } else if a == "--sched" {
            match it.next().map(|s| o2k_sched::SchedPolicy::parse(s)) {
                Some(Ok(p)) => sched = p,
                Some(Err(e)) => {
                    eprintln!("--sched: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--sched requires a policy: det or explore:<seed>");
                    std::process::exit(2);
                }
            }
        } else if a == "--exec" {
            match it.next().map(|s| o2k_sched::ExecMode::parse(s)) {
                Some(Ok(e)) => exec = e,
                Some(Err(e)) => {
                    eprintln!("--exec: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--exec requires a mode: event (the default) or thread");
                    std::process::exit(2);
                }
            }
        } else if a == "--fault" {
            match it.next().map(|s| machine::FaultMode::parse(s)) {
                Some(Some(f)) => fault = f,
                _ => {
                    eprintln!(
                        "--fault requires a spec: off or plan:<link>:<action>[@<ns>][;...] \
                         (links up<N>/down<N>/r<R>d<D>, actions kill/deg<F>/heal)"
                    );
                    std::process::exit(2);
                }
            }
        } else if a == "--snapshot" {
            match it.next().map(|s| o2k_snap::SnapSpec::parse_capture(s)) {
                Some(Ok(s)) => capture = Some(s),
                Some(Err(e)) => {
                    eprintln!("--snapshot: {e}");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--snapshot requires <dir>@<gate>[:index], e.g. snaps@step:4");
                    std::process::exit(2);
                }
            }
        } else if a == "--restore" {
            match it.next().map(|s| o2k_snap::SnapSpec::parse_restore(s)) {
                Some(Ok(s)) => restore = Some(s),
                _ => {
                    eprintln!("--restore requires a snapshot directory");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(a.to_lowercase());
        }
    }
    let known = format!("{} all", EXPERIMENT_IDS.join(" "));
    if ids.is_empty() {
        eprintln!(
            "usage: repro <id>... [--quick] [--sched <policy>] [--exec <mode>] [--fault <spec>] [--snapshot <dir>@<gate>[:index] | --restore <dir>] [--trace <dir>]   ids: {known}"
        );
        std::process::exit(2);
    }
    // Everything below writes result files, so the rest of the command
    // line is checked first.
    let unknown = |id: &&String| *id != "all" && !EXPERIMENT_IDS.contains(&id.as_str());
    if let Some(id) = ids.iter().find(unknown) {
        eprintln!("unknown experiment {id}; ids: {known}");
        std::process::exit(2);
    }
    if ids.iter().any(|i| i == "all") {
        ids = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect();
    }
    if capture.is_some() && restore.is_some() {
        eprintln!("--snapshot and --restore are mutually exclusive");
        std::process::exit(2);
    }
    if let Some(o2k_snap::SnapSpec::Restore { dir }) = &restore {
        let is_snap = |e: fs::DirEntry| e.path().extension().is_some_and(|x| x == o2k_snap::EXT);
        if !fs::read_dir(dir).is_ok_and(|mut rd| rd.any(|e| e.is_ok_and(is_snap))) {
            eprintln!("--restore: {} holds no .o2ksnap snapshot", dir.display());
            std::process::exit(2);
        }
    }
    let tracing = trace_dir.map(|dir| (dir, o2k_trace::TraceSink::default()));
    let mut env = Env {
        opts: apps::RunOpts {
            sched: Some(sched),
            exec: Some(exec),
            snap: capture.or(restore),
            trace: tracing.as_ref().map(|(_, sink)| sink.clone()),
        },
        ..Env::new(quick)
    };
    env.machine.fault = fault;
    if let Some((dir, _)) = &tracing {
        fs::create_dir_all(dir).expect("create trace dir");
    }
    fs::create_dir_all(&env.out_dir).expect("create results dir");
    let mut bodies: Vec<(String, String)> = Vec::new();
    for id in ids {
        let start = Instant::now();
        let out = run_experiment_in(&id, &env);
        let elapsed = start.elapsed();
        println!("{out}");
        println!("[{id} regenerated in {elapsed:.2?}]\n");
        fs::write(env.out_dir.join(format!("{id}.txt")), &out).expect("write result file");
        if let Some((dir, sink)) = &tracing {
            for (n, trace) in sink.drain().iter().enumerate() {
                let path = format!("{dir}/{id}_run{n}.trace.json");
                fs::write(&path, o2k_trace::chrome::to_chrome_json(trace))
                    .expect("write trace json");
                println!("[trace archived: {path}]");
            }
        }
        bodies.push((id, out));
    }
    // A full suite is stitched into one report, in the table's order.
    let sections: Option<Vec<_>> = EXPERIMENTS
        .iter()
        .map(|&(id, title, _)| {
            let (_, body) = bodies.iter().rev().find(|(ran, _)| ran == id)?;
            Some(o2k_core::report::Section { id, title, body })
        })
        .collect();
    if let Some(sections) = sections {
        let header = format!(
            "Generated by `repro all{}` — every table, figure and ablation of the\nreconstructed evaluation suite (see DESIGN.md §3 and EXPERIMENTS.md).",
            if quick { " --quick" } else { "" }
        );
        let report = o2k_core::report::assemble(&header, &sections);
        fs::write(env.out_dir.join("REPORT.md"), report).expect("write REPORT.md");
        println!("[full suite stitched into results/REPORT.md]");
    }
}
