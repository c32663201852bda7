//! One run of one workload: set up, warm up, time K passes, check every
//! result, and (traced) probe the layers and reconcile.
//!
//! Run shape: one process, one driving thread, pinned to one CPU; the cells
//! of a pass run back to back (a closed loop of one). `wall_s` is one pass at
//! its best — each cell's best time over the K timed passes, summed: on a
//! shared host a burst from another tenant moves a run's median pass by
//! several percent and its best by about one.

use std::time::{Duration, Instant};

use crate::adapter::{self, Agree, Cell, Counts, Probe, RunOut};
use crate::host;
use crate::json::{self, Value};
use crate::spans::Spans;
use crate::workloads::{self, Workload};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the timed passes (and, traced, the probes) may take.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Test only: corrupt the expectation the timed passes are checked
    /// against, to show that a wrong result fails the run.
    pub break_expectation: bool,
}

/// Cold set-ups a run samples `setup_s` from: its own plus fresh child
/// processes (a second set-up in the same process would find the path tables
/// built and the allocator warm, and measure nothing).
const SETUP_SAMPLES: usize = 3;

/// Share of a traced run's time budget spent on timed passes; the rest goes
/// to the probes.
const TRACED_PASS_SHARE: f64 = 0.45;

// ---------------------------------------------------------------------------
// Passes and checks
// ---------------------------------------------------------------------------

struct Pass {
    wall_s: f64,
    cell_wall_s: Vec<f64>,
    outs: Vec<Vec<RunOut>>,
}

fn run_pass(cells: &[Cell], spans: &mut Spans, record: bool, label: &str) -> Pass {
    let mut cell_wall_s = Vec::with_capacity(cells.len());
    let mut outs = Vec::with_capacity(cells.len());
    if record {
        spans.enter(|| label.to_string());
    }
    let t = Instant::now();
    for c in cells {
        if record {
            spans.enter(|| format!("cell:{}", c.name));
        }
        let tc = Instant::now();
        outs.push(c.run());
        cell_wall_s.push(tc.elapsed().as_secs_f64());
        if record {
            spans.exit();
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    if record {
        spans.exit();
    }
    Pass {
        wall_s,
        cell_wall_s,
        outs,
    }
}

/// What the checks need to know about a cell.
pub struct CellMeta<'a> {
    pub name: &'a str,
    pub group: &'a str,
    pub agree: Agree,
}

/// Check one pass. Returns, per cell, why it failed (`None` = passed):
///
/// * a serving run must conserve requests (`issued = completed + failed`),
///   admit exactly the requests configured, and shed none;
/// * cells of one group ran the same problem under different models and
///   must agree on its checksum (and, serving, on per-shard demand);
/// * against `reference` (an earlier pass of the same cells) simulated time,
///   schedule fingerprint, checksum and rendered text must repeat exactly.
pub fn check_pass(
    cells: &[CellMeta],
    outs: &[Vec<RunOut>],
    reference: Option<&[Vec<RunOut>]>,
) -> Vec<Option<String>> {
    let mut verdicts = Vec::with_capacity(cells.len());
    for (i, (cell, runs)) in cells.iter().zip(outs).enumerate() {
        let mut why = None;
        for r in runs {
            if let Some(s) = &r.serve {
                if s.issued != s.completed + s.failed {
                    why = Some("requests not conserved".to_string());
                } else if s.issued != s.requested {
                    why = Some(format!("{} of {} requests issued", s.issued, s.requested));
                } else if s.failed != 0 {
                    why = Some(format!("{} requests failed", s.failed));
                }
            }
        }
        let first = cells
            .iter()
            .position(|c| c.group == cell.group)
            .expect("a cell is in its own group");
        if why.is_none() && first != i && cell.agree != Agree::Alone {
            why = disagreement(cell.agree, &outs[first], runs)
                .map(|d| format!("disagrees with {}: {d}", cells[first].name));
        }
        if let (None, Some(reference)) = (&why, reference) {
            why = drift(&reference[i], runs);
        }
        verdicts.push(why);
    }
    verdicts
}

fn disagreement(agree: Agree, base: &[RunOut], runs: &[RunOut]) -> Option<String> {
    if base.len() != runs.len() {
        return Some("different number of runs".into());
    }
    for (b, r) in base.iter().zip(runs) {
        let same = match agree {
            Agree::Alone => true,
            Agree::Bitwise => r.checksum.to_bits() == b.checksum.to_bits(),
            Agree::Within(tol) => ((r.checksum - b.checksum) / b.checksum).abs() < tol,
        };
        if !same {
            return Some(format!("checksum {} vs {}", r.checksum, b.checksum));
        }
        if let (Some(rs), Some(bs)) = (&r.serve, &b.serve) {
            if rs.shard_hash != bs.shard_hash {
                return Some("per-shard demand differs".into());
            }
        }
    }
    None
}

fn drift(reference: &[RunOut], runs: &[RunOut]) -> Option<String> {
    if reference.len() != runs.len() {
        return Some("different number of runs than the first pass".into());
    }
    for (a, b) in reference.iter().zip(runs) {
        if a.sim_ns != b.sim_ns {
            return Some(format!(
                "simulated time moved: {} vs {}",
                a.sim_ns, b.sim_ns
            ));
        }
        if a.fingerprint != b.fingerprint {
            return Some("schedule fingerprint moved".into());
        }
        if a.checksum.to_bits() != b.checksum.to_bits() {
            return Some(format!("checksum moved: {} vs {}", a.checksum, b.checksum));
        }
        if a.text != b.text {
            return Some("rendered text moved".into());
        }
    }
    None
}

fn metas(cells: &[Cell]) -> Vec<CellMeta<'_>> {
    cells
        .iter()
        .map(|c| CellMeta {
            name: &c.name,
            group: c.group,
            agree: c.agree,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Everything before the first timed pass: clear the ambient knobs, pin,
/// build the inputs, and run the cell list once untimed (allocator arenas,
/// `OnceLock` path tables, page-faulted stacks).
fn set_up(
    name: &str,
    seed: u64,
    smoke: bool,
    spans: &mut Spans,
) -> Result<(Workload, Pass, Option<usize>), String> {
    host::clear_ambient_env();
    let cpu = host::pin_to_current_cpu();
    if !host::pin_allocator_policy() {
        eprintln!(
            "warning: could not fix the allocator's policy; `wall_s` may fall into a slower \
             mode on some seeds (see `pin_allocator_policy`)"
        );
    }
    workloads::prepare_process(name);
    let wl = workloads::build(name, seed, smoke).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; workloads: {}",
            workloads::NAMES.join(" ")
        )
    })?;
    let warm = run_pass(&wl.cells, spans, true, "warm-up");
    Ok((wl, warm, cpu))
}

/// `setup-probe`: one cold set-up in a fresh process; prints its seconds.
pub fn setup_probe(start: Instant, name: &str, seed: u64, smoke: bool) -> i32 {
    let mut spans = Spans::new(false, start, String::new());
    match set_up(name, seed, smoke, &mut spans) {
        Ok(_) => {
            println!("{}", start.elapsed().as_secs_f64());
            0
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

fn child_setup_s(args: &RunArgs) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["setup-probe", "--workload", &args.workload, "--seed"])
        .arg(args.seed.to_string());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("setup-probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("setup-probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("setup-probe printed no time: {e}"))
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// Cost of one operation, in the probe's unit: the best of three repetitions
/// sized to fill `budget` between them.
fn measure(p: &mut Probe, budget: Duration) -> f64 {
    let started = Instant::now();
    let per_rep = budget / 4; // sizing takes about one repetition's time too
    let mut n = 1u64;
    let mut d = (p.rep)(n);
    while d < per_rep / 4 && started.elapsed() < budget {
        let grow = if d.is_zero() {
            16.0
        } else {
            (per_rep.as_secs_f64() / 2.0 / d.as_secs_f64()).clamp(2.0, 16.0)
        };
        n = (n as f64 * grow) as u64;
        d = (p.rep)(n);
    }
    if !d.is_zero() {
        n = ((n as f64 * per_rep.as_secs_f64() / d.as_secs_f64()) as u64).max(1);
    }
    let mut best = f64::INFINITY;
    for rep in 0..3 {
        // A repetition also spends time outside what it measures (building a
        // team, a world); never let that run a probe far past its budget.
        if rep > 0 && started.elapsed() > budget * 2 {
            break;
        }
        best = best.min((p.rep)(n).as_secs_f64() * 1e9 / n as f64);
    }
    let unit_ns = match p.unit {
        "ns" => 1.0,
        "us" => 1e3,
        _ => 1e6,
    };
    best / unit_ns
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    fn to_json(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        json::obj([("value", json::num(m.value)), ("unit", json::str(m.unit))]),
                    )
                })
                .collect(),
        )
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn min(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Exact counts of one pass, by layer.
fn count_metrics(m: &mut Metrics, c: &Counts, outs: &[Vec<RunOut>]) {
    let runs = || outs.iter().flatten();
    for (name, v) in [
        ("sched.switches", c.switches),
        ("sched.handoffs", c.handoffs),
        ("parallel.barriers", c.barriers),
        ("parallel.lock_acquires", c.lock_acquires),
        ("net.transfers", c.net_transfers),
        ("net.links_walked", c.net_links),
        ("mp.msgs", c.msgs),
        ("shmem.puts", c.puts),
        ("shmem.gets", c.gets),
        ("shmem.amos", c.amos),
        ("sas.cache_hits", c.cache_hits),
        ("sas.misses_local", c.misses_local),
        ("sas.misses_remote", c.misses_remote),
        ("sas.invalidations", c.invalidations),
        ("serve.requests", c.requests),
        ("serve.stolen", c.stolen),
        ("serve.failed", c.failed),
    ] {
        m.push(name, v as f64, "count");
    }
    m.push("mp.msg_bytes", c.msg_bytes as f64, "bytes");
    m.push("serve.replica_bytes", c.replica_bytes as f64, "bytes");
    m.push(
        "net.queued_virt_ms",
        c.net_queued_ns as f64 / 1e6,
        "virt_ms",
    );
    let accesses = c.cache_hits + c.misses_local + c.misses_remote;
    m.push(
        "sas.hit_ratio",
        ratio(c.cache_hits as f64, accesses as f64),
        "ratio",
    );
    m.push(
        "apps.virt_makespan_ms",
        runs().map(|r| r.sim_ns).sum::<u64>() as f64 / 1e6,
        "virt_ms",
    );
    let virt = (c.busy_ns + c.local_ns + c.remote_ns + c.sync_ns) as f64;
    m.push(
        "apps.virt_busy_share",
        ratio(c.busy_ns as f64, virt),
        "share",
    );
    m.push(
        "apps.virt_remote_share",
        ratio(c.remote_ns as f64, virt),
        "share",
    );
    m.push(
        "apps.virt_sync_share",
        ratio(c.sync_ns as f64, virt),
        "share",
    );
    m.push(
        "core.out_bytes",
        runs().filter_map(|r| r.text).map(|t| t.1).sum::<usize>() as f64,
        "bytes",
    );
    // The tail a client sees is set by the worst cell.
    let worst = |f: fn(&adapter::ServeOut) -> u64| {
        runs()
            .filter_map(|r| r.serve.as_ref())
            .map(f)
            .max()
            .unwrap_or(0) as f64
            / 1e3
    };
    m.push("serve.virt_p50_us", worst(|s| s.p50_ns), "virt_us");
    m.push("serve.virt_p99_us", worst(|s| s.p99_ns), "virt_us");
    m.push("serve.virt_p999_us", worst(|s| s.p999_ns), "virt_us");
}

/// The reconciliation: each layer's count times its probed price, as a share
/// of `wall_s`; what the prices do not explain is `unexplained`. These are
/// estimates from outside the program — a probe run in a team also pays for
/// the scheduler and, on the fabric, for route walks, so those are taken out
/// of the model layers' prices to keep the shares additive.
fn ladder(
    probes: &Metrics,
    c: &Counts,
    substrate: &adapter::SubstrateOps,
    fabric: bool,
    threads: bool,
    wall_s: f64,
) -> Vec<(&'static str, f64)> {
    let p = |name: &str| probes.get(name);
    let switch_ns = if threads {
        p("parallel.sched_point_thread_ns")
    } else {
        p("parallel.sched_point_event_ns")
    };
    let route_ns = if fabric { p("net.route_ns") } else { 0.0 };
    let less = |ns: f64, by: f64| (ns - by).max(0.0);
    let ns = [
        ("sched", c.switches as f64 * switch_ns),
        ("net", c.net_transfers as f64 * p("net.route_ns")),
        (
            "mp",
            c.msgs as f64 * less(p("mp.pingpong_ns") / 2.0, switch_ns + route_ns),
        ),
        (
            "shmem",
            c.puts as f64 * less(p("shmem.put64_ns"), route_ns)
                + c.gets as f64 * less(p("shmem.get64_ns"), route_ns)
                + c.amos as f64 * less(p("shmem.fadd_ns"), route_ns),
        ),
        (
            "sas",
            c.cache_hits as f64 * p("sas.read_hit_ns")
                + (c.misses_local + c.misses_remote) as f64 * less(p("sas.read_miss_ns"), route_ns),
        ),
        (
            "serve",
            c.requests as f64
                * (p("serve.hist_record_ns") + p("serve.clients_stream_us") * 1e3 / 1024.0),
        ),
        (
            "nbody",
            substrate.force_evals as f64 * p("nbody.force_ns_per_body"),
        ),
        (
            "mesh",
            substrate.mesh_adapts as f64 * p("mesh.refine_ms") * 1e6,
        ),
        (
            "partition",
            substrate.partitions as f64 * p("partition.rcb_ms") * 1e6,
        ),
    ];
    let mut shares: Vec<(&'static str, f64)> = ns
        .iter()
        .map(|&(layer, ns)| (layer, ratio(ns / 1e9, wall_s)))
        .collect();
    let explained: f64 = shares.iter().map(|s| s.1).sum();
    shares.push(("unexplained", 1.0 - explained));
    shares
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

pub fn run(start: Instant, args: &RunArgs) -> i32 {
    match run_inner(start, args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("o2k-benchmark: {e}");
            2
        }
    }
}

fn run_inner(start: Instant, args: &RunArgs) -> Result<i32, String> {
    let run_id = format!("{}#{:#x}", args.workload, args.seed);
    let mut spans = Spans::new(args.traced, start, run_id);
    spans.enter(|| "run".into());
    spans.enter(|| "setup".into());
    let (wl, warm, cpu) = set_up(&args.workload, args.seed, args.smoke, &mut spans)?;
    spans.exit();
    let setup_self_s = start.elapsed().as_secs_f64();
    if cpu.is_none() {
        eprintln!(
            "warning: could not pin to one CPU; this result is marked unpinned \
             (the thread-backend workload is ±20 % unpinned)"
        );
    }

    let cells = metas(&wl.cells);
    let mut ops = 0usize;
    let mut failed_ops = 0usize;
    let mut judge = |pass: &str, verdicts: Vec<Option<String>>| {
        for (cell, why) in cells.iter().zip(verdicts) {
            ops += 1;
            if let Some(why) = why {
                failed_ops += 1;
                println!("FAILED {pass} cell {}: {why}", cell.name);
            }
        }
    };
    judge("warm-up", check_pass(&cells, &warm.outs, None));
    let mut reference = warm.outs.clone();
    if args.break_expectation {
        let r = &mut reference[0][0];
        r.sim_ns ^= 1;
        r.text = r.text.map(|(h, len)| (h ^ 1, len));
    }

    // ---- timed passes ----------------------------------------------------
    let budget_s = args.seconds * if args.traced { TRACED_PASS_SHARE } else { 1.0 };
    let min_passes = if args.smoke { 2 } else { 3 };
    let mut passes: Vec<Pass> = Vec::new();
    // A traced run records every other pass, to price the recording itself.
    let mut recorded: Vec<bool> = Vec::new();
    let timed = Instant::now();
    loop {
        let k = passes.len();
        let next_s = passes.last().map_or(0.0, |p: &Pass| p.wall_s);
        if k >= min_passes && timed.elapsed().as_secs_f64() + next_s > budget_s {
            break;
        }
        let record = args.traced && k.is_multiple_of(2);
        let pass = run_pass(&wl.cells, &mut spans, record, &format!("pass[{k}]"));
        judge(
            &format!("pass {k}"),
            check_pass(&cells, &pass.outs, Some(&reference)),
        );
        println!(
            "pass {k} {:.4} s  [{}]",
            pass.wall_s,
            cells
                .iter()
                .zip(&pass.cell_wall_s)
                .map(|(c, w)| format!("{} {w:.3}", c.name))
                .collect::<Vec<_>>()
                .join(", ")
        );
        passes.push(pass);
        recorded.push(record);
    }
    let k = passes.len();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let pass_best_s = min(walls.iter().copied());
    let cell_best_s: Vec<f64> = (0..cells.len())
        .map(|i| min(passes.iter().map(|p| p.cell_wall_s[i])))
        .collect();
    // Each cell's best, summed: a burst that lands on one cell of a pass
    // does not spoil that pass's other cells.
    let wall_s: f64 = cell_best_s.iter().sum();

    let stat = host::proc_stat().unwrap_or_default();
    let mut m = Metrics::default();
    if !args.traced {
        // ---- end-to-end --------------------------------------------------
        let mut setups = vec![setup_self_s];
        for _ in 1..if args.smoke { 2 } else { SETUP_SAMPLES } {
            setups.push(child_setup_s(args)?);
        }
        println!(
            "setup samples (s): {}",
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        m.push("wall_s", wall_s, "s");
        m.push("setup_s", median(&setups), "s");
        m.push(
            "peak_alloc_mib",
            host::peak_alloc_bytes() as f64 / (1 << 20) as f64,
            "MiB",
        );
    } else {
        // ---- per layer ----------------------------------------------------
        let mut pass_counts = Counts::default();
        let mut substrate = adapter::SubstrateOps::default();
        let per_cell: Vec<Counts> = warm
            .outs
            .iter()
            .map(|runs| {
                let mut c = Counts::default();
                runs.iter().for_each(|r| c.add(&r.counts));
                c
            })
            .collect();
        for (c, cell) in per_cell.iter().zip(&wl.cells) {
            pass_counts.add(c);
            substrate.force_evals += cell.substrate.force_evals;
            substrate.mesh_adapts += cell.substrate.mesh_adapts;
            substrate.partitions += cell.substrate.partitions;
        }
        count_metrics(&mut m, &pass_counts, &warm.outs);

        spans.enter(|| "probes".into());
        let mut probes = adapter::probes(wl.site);
        let each =
            Duration::from_secs_f64(args.seconds * (1.0 - TRACED_PASS_SHARE) / probes.len() as f64);
        let mut priced = Metrics::default();
        for p in &mut probes {
            spans.enter(|| format!("probe:{}", p.name));
            priced.push(p.name, measure(p, each), p.unit);
            spans.exit();
        }
        drop(probes);
        spans.exit();

        let serving_s: f64 = (0..cells.len())
            .filter(|&i| per_cell[i].requests > 0)
            .map(|i| cell_best_s[i])
            .sum();
        m.push(
            "serve.host_us_per_req",
            ratio(serving_s * 1e6, pass_counts.requests as f64),
            "us/req",
        );
        let threads = wl.ambient_backend && adapter::ambient_backend_is_threads();
        for (i, cell) in cells.iter().enumerate() {
            let shares = ladder(
                &priced,
                &per_cell[i],
                &wl.cells[i].substrate,
                wl.site.fabric,
                threads,
                cell_best_s[i],
            );
            println!(
                "cell {} best {:.4} s  ladder: {}",
                cell.name,
                cell_best_s[i],
                shares
                    .iter()
                    .map(|(l, s)| format!("{l} {s:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        for (layer, share) in ladder(
            &priced,
            &pass_counts,
            &substrate,
            wl.site.fabric,
            threads,
            wall_s,
        ) {
            m.push(format!("ladder.{layer}_share"), share, "share");
        }
        m.0.append(&mut priced.0);

        let slowest = cell_best_s.iter().copied().fold(0.0, f64::max);
        m.push("cell.slowest_wall_s", slowest, "s");
        // The same estimator as `wall_s`, over the recorded passes and over
        // the unrecorded ones.
        let best_of = |want: bool| -> f64 {
            (0..cells.len())
                .map(|i| {
                    min(passes
                        .iter()
                        .zip(&recorded)
                        .filter(|(_, &r)| r == want)
                        .map(|(p, _)| p.cell_wall_s[i]))
                })
                .sum()
        };
        let (with, without) = (best_of(true), best_of(false));
        let overhead_pct = if with.is_finite() && without.is_finite() {
            (with / without - 1.0) * 100.0
        } else {
            0.0
        };
        m.push("host.passes", k as f64, "count");
        m.push("host.pass_min_s", pass_best_s, "s");
        m.push("host.pass_median_s", median(&walls), "s");
        m.push(
            "host.pass_max_s",
            walls.iter().copied().fold(0.0, f64::max),
            "s",
        );
        m.push("host.cpu_user_s", stat.user_s, "s");
        m.push("host.cpu_sys_s", stat.sys_s, "s");
        m.push("host.minor_faults", stat.minor_faults as f64, "count");
        m.push("host.alloc_calls", host::alloc_calls() as f64, "count");
        m.push("host.peak_rss_mib", host::peak_rss_mib(), "MiB");
        m.push("host.pinned", f64::from(u8::from(cpu.is_some())), "flag");
        m.push("host.traced_overhead_pct", overhead_pct, "%");
    }
    spans.exit(); // run

    if args.traced {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.spans.json", wl.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }

    // ---- report -----------------------------------------------------------
    for metric in &m.0 {
        println!("metric {} {} {}", metric.name, metric.value, metric.unit);
    }
    let record = json::obj([
        ("workload", json::str(wl.name)),
        ("seed", json::num(args.seed as f64)),
        ("seed_reaches_inputs", Value::Bool(wl.seeded)),
        ("traced", Value::Bool(args.traced)),
        ("smoke", Value::Bool(args.smoke)),
        ("k", json::num(k as u32)),
        ("pass_best_s", json::num(pass_best_s)),
        ("pass_median_s", json::num(median(&walls))),
        (
            "pass_max_s",
            json::num(walls.iter().copied().fold(0.0, f64::max)),
        ),
        (
            "cpu_sys_share",
            json::num(ratio(stat.sys_s, stat.sys_s + stat.user_s)),
        ),
        ("ops", json::num(ops as u32)),
        ("failed_ops", json::num(failed_ops as u32)),
        ("host", host::record(cpu)),
    ]);
    println!("record {}", record.render());
    let result = json::obj([
        ("correct", Value::Bool(failed_ops == 0)),
        ("attempted", json::num(ops as u32)),
        ("failed", json::num(failed_ops as u32)),
        ("metrics", m.to_json()),
    ]);
    println!("{}", result.render());
    Ok(i32::from(failed_ops != 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ServeOut;

    fn meta<'a>(name: &'a str, group: &'a str, agree: Agree) -> CellMeta<'a> {
        CellMeta { name, group, agree }
    }

    fn out(checksum: f64) -> RunOut {
        RunOut {
            sim_ns: 1_000,
            fingerprint: 7,
            checksum,
            ..RunOut::default()
        }
    }

    #[test]
    fn agreeing_cells_pass_and_repeat() {
        let cells = [
            meta("mp", "g", Agree::Bitwise),
            meta("sas", "g", Agree::Bitwise),
        ];
        let outs = vec![vec![out(2.5)], vec![out(2.5)]];
        assert!(check_pass(&cells, &outs, Some(&outs))
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn a_model_that_disagrees_fails_alone() {
        let cells = [
            meta("mp", "g", Agree::Bitwise),
            meta("sas", "g", Agree::Bitwise),
            meta("f1", "f1", Agree::Alone),
        ];
        let outs = vec![vec![out(2.5)], vec![out(2.5000001)], vec![out(9.0)]];
        let v = check_pass(&cells, &outs, None);
        assert!(v[0].is_none() && v[2].is_none());
        assert!(v[1].as_ref().unwrap().contains("disagrees with mp"));
        // The N-body tolerance lets the same pair through.
        let cells = [
            meta("mp", "g", Agree::Within(0.02)),
            meta("sas", "g", Agree::Within(0.02)),
        ];
        assert!(check_pass(&cells, &outs[..2], None)
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn drift_between_passes_fails() {
        let cells = [meta("f1", "f1", Agree::Alone)];
        let first = vec![vec![RunOut {
            text: Some((11, 4)),
            ..out(0.0)
        }]];
        let mut second = first.clone();
        second[0][0].text = Some((12, 4));
        assert!(check_pass(&cells, &second, Some(&first))[0]
            .as_ref()
            .unwrap()
            .contains("text"));
        let mut third = first.clone();
        third[0][0].sim_ns += 1;
        assert!(check_pass(&cells, &third, Some(&first))[0].is_some());
    }

    #[test]
    fn serving_must_conserve_and_shed_nothing() {
        let cells = [meta("uni-mp", "uni", Agree::Bitwise)];
        let serve = |issued, completed, failed| {
            vec![vec![RunOut {
                serve: Some(ServeOut {
                    requested: 100,
                    issued,
                    completed,
                    failed,
                    shard_hash: 1,
                    p50_ns: 1,
                    p99_ns: 2,
                    p999_ns: 3,
                }),
                ..out(1.0)
            }]]
        };
        assert!(check_pass(&cells, &serve(100, 100, 0), None)[0].is_none());
        assert!(check_pass(&cells, &serve(100, 99, 0), None)[0].is_some());
        assert!(check_pass(&cells, &serve(99, 99, 0), None)[0].is_some());
        assert!(check_pass(&cells, &serve(100, 98, 2), None)[0].is_some());
    }

    #[test]
    fn ladder_shares_sum_to_one() {
        let mut probes = Metrics::default();
        probes.push("parallel.sched_point_event_ns", 120.0, "ns");
        probes.push("net.route_ns", 300.0, "ns");
        probes.push("mp.pingpong_ns", 2_000.0, "ns");
        let c = Counts {
            switches: 1_000_000,
            net_transfers: 2_000_000,
            msgs: 500_000,
            ..Counts::default()
        };
        let shares = ladder(
            &probes,
            &c,
            &adapter::SubstrateOps::default(),
            true,
            false,
            2.0,
        );
        let sum: f64 = shares.iter().map(|s| s.1).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(shares.last().unwrap().0, "unexplained");
    }
}
