//! The reconstructed evaluation suite (DESIGN.md §3): tables T1–T3,
//! figures F1–F8, ablations A1–A6, scheduler study S1.

use std::path::PathBuf;
use std::sync::Arc;

use apps::{AmrConfig, App, Model, NBodyConfig, RunMetrics, RunOpts};
use machine::{ContentionMode, FaultMode, Machine, MachineConfig, PagePolicy};
use mesh::adaptive::AdaptiveMesh;
use mesh::dual::dual_graph;
use o2k_core::figure::{line_chart, stacked_bars};
use o2k_core::table::{cells, ms, render, x2};
use o2k_core::{effort_table, sweep_models, SweepResult};
use o2k_serve::ServeConfig;
use o2k_snap::SnapSpec;
use parallel::{ExecMode, SchedPolicy, Team};
use partition::{
    diffusion::diffuse, edge_cut, hilbert_partition, imbalance, morton_partition,
    multilevel_partition, rcb_partition, CsrGraph, WeightedPoint,
};

/// Everything a run of the suite is configured by, as one value. `repro`
/// fills it from its flags and the `O2K_*` variables; an experiment builds
/// every machine, every [`RunOpts`] and every bare [`Team`] from it, so no
/// cell can ignore a flag and nothing is read from process-wide state
/// (except that a `None` policy / backend follows `o2k_sched`'s defaults).
#[derive(Debug, Clone)]
pub struct Env {
    /// Shrink problem sizes and sweeps.
    pub quick: bool,
    /// The machine every cell starts from at its own PE count: the
    /// Origin2000 preset, plus `--fault`'s link faults. Cells that study
    /// faults, contention, node width or page placement change their copy.
    pub machine: MachineConfig,
    /// Run options for every run and every bare team: `--sched`, `--exec`,
    /// `--snapshot` / `--restore` and `--trace`.
    pub opts: RunOpts,
    /// Where archives go: the caller's `<id>.txt` and F9's trace JSONs.
    pub out_dir: PathBuf,
}

impl Env {
    /// Ambient defaults: healthy machines, no snapshots, no tracing,
    /// archives under `results/`.
    pub fn new(quick: bool) -> Self {
        Env {
            quick,
            machine: MachineConfig::origin2000(),
            opts: RunOpts::default(),
            out_dir: PathBuf::from("results"),
        }
    }

    /// This environment's machine at `p` PEs.
    pub fn machine(&self, p: usize) -> Arc<Machine> {
        self.machine_with(p, |_| {})
    }

    /// [`Env::machine`] with per-cell changes applied on top (contention
    /// mode, node width, page placement, a cell's own fault plan, …).
    fn machine_with(&self, p: usize, cell: impl FnOnce(&mut MachineConfig)) -> Arc<Machine> {
        let mut cfg = self.machine.clone();
        cell(&mut cfg);
        Arc::new(Machine::new(p, cfg))
    }

    /// Run options for an app or serve entry point. A cell that pins
    /// something writes `RunOpts { sched: .., ..env.opts() }`.
    fn opts(&self) -> RunOpts {
        self.opts.clone()
    }

    /// A bare team (microbenchmarks that drive a runtime directly),
    /// configured exactly as [`Env`]'s `opts` configure the apps' teams.
    pub fn team(&self, machine: Arc<Machine>) -> Team {
        self.opts().configure(Team::new(machine))
    }

    /// A size or sweep at the scale this run asked for.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// This environment's `opts` pinned to the deterministic schedule, for
    /// cells whose comparison another interleaving would confound.
    pub fn det(&self) -> RunOpts {
        RunOpts {
            sched: Some(SchedPolicy::Det),
            ..self.opts()
        }
    }

    /// Run `workload` under `model` on `machine`: the one door from a cell
    /// to the entry points (`apps::run_app_opts`, `o2k_serve::run_opts`).
    pub fn run(
        &self,
        machine: Arc<Machine>,
        workload: Workload,
        model: Model,
        opts: RunOpts,
    ) -> RunMetrics {
        // `run_app_opts` reads only the configuration of the app it runs.
        let (nb, am) = (NBodyConfig::default(), AmrConfig::default());
        match workload {
            Workload::NBody(cfg) => apps::run_app_opts(machine, App::NBody, model, cfg, &am, opts),
            Workload::Amr(cfg) => apps::run_app_opts(machine, App::Amr, model, &nb, cfg, opts),
            Workload::Serve(cfg) => o2k_serve::run_opts(machine, model, cfg, opts),
        }
    }
}

/// What a cell runs: one application and the configuration it reads.
#[derive(Debug, Clone, Copy)]
pub enum Workload<'a> {
    NBody(&'a NBodyConfig),
    Amr(&'a AmrConfig),
    Serve(&'a ServeConfig),
}

impl Workload<'_> {
    /// Which application this is.
    fn app(self) -> App {
        match self {
            Workload::NBody(_) => App::NBody,
            Workload::Amr(_) => App::Amr,
            Workload::Serve(_) => App::Serve,
        }
    }
}

/// One experiment: id, report title, and the function rendering it.
pub type Experiment = (&'static str, &'static str, fn(&Env) -> String);

/// The suite, in presentation order. Ids, dispatch and the report's titles
/// and order all come from this one table.
pub const EXPERIMENTS: [Experiment; 27] = [
    ("t1", "Machine parameters", t1_machine),
    ("t2", "Programming effort", t2_effort),
    ("t3", "Partitioner quality", t3_partitioners),
    ("t4", "Communication microbenchmarks", t4_microbench),
    ("f1", "N-body: time and speedup", |env| {
        f_speedup(Workload::NBody(&nbody_cfg(env)), env)
    }),
    ("f2", "N-body: execution-time breakdown", |env| {
        f_breakdown(Workload::NBody(&nbody_cfg(env)), env)
    }),
    ("f3", "AMR: time and speedup", |env| {
        f_speedup(Workload::Amr(&amr_cfg(env)), env)
    }),
    ("f4", "AMR: execution-time breakdown", |env| {
        f_breakdown(Workload::Amr(&amr_cfg(env)), env)
    }),
    ("f5", "Communication volume", f5_comm_volume),
    ("f6", "Load balance and data movement", f6_balance),
    ("f7", "Traffic structure", f7_traffic_structure),
    ("f8", "CC-SAS cache behaviour", f8_cache),
    ("f9", "Event tracing and critical path", f9_critical_path),
    ("a1", "Ablation: page placement", a1_paging),
    ("a2", "Ablation: PLUM remapping", a2_remap),
    ("a3", "Ablation: costzones vs ORB", a3_partitioning),
    (
        "a4",
        "Extension: NUMA remoteness sweep",
        a4_numa_sensitivity,
    ),
    (
        "a5",
        "Extension: the three models on a cluster of SMPs",
        a5_cluster,
    ),
    ("a6", "Ablation: SAS sweep scheduling", a6_self_schedule),
    ("s1", "Scheduling policies", s1_scheduler_policies),
    ("n1", "Interconnect contention", n1_contention),
    ("n2", "Degradation under link faults", n2_fault),
    ("n3", "Shared-bus saturation", n3_bus_saturation),
    ("q1", "KV-serving tail latency", q1_serving),
    ("q2", "Hot-shard mitigation at scale", q2_mitigation),
    ("e1", "Event-core scaling", e1_scale),
    ("c1", "Warm-starting a sweep from snapshots", c1_warm_start),
];

/// All experiment ids, in suite order.
pub const EXPERIMENT_IDS: [&str; 27] = {
    let mut ids = [""; 27];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].0;
        i += 1;
    }
    ids
};

/// Processor sweep used by the figure experiments.
fn sweep_pes(env: &Env) -> Vec<usize> {
    env.pick(vec![1, 2, 4, 8], vec![1, 2, 4, 8, 16, 32, 64])
}

fn nbody_cfg(env: &Env) -> NBodyConfig {
    NBodyConfig {
        n: env.pick(512, 2048),
        steps: env.pick(2, 3),
        ..NBodyConfig::default()
    }
}

fn amr_cfg(env: &Env) -> AmrConfig {
    let full = AmrConfig {
        nx: 32,
        ny: 32,
        steps: 5,
        sweeps: 5,
        ..AmrConfig::default()
    };
    env.pick(AmrConfig::small(), full)
}

/// Run one experiment by id on ambient defaults; `quick` shrinks problem
/// sizes and sweeps.
///
/// # Panics
/// Panics on an unknown id.
pub fn run_experiment(id: &str, quick: bool) -> String {
    run_experiment_in(id, &Env::new(quick))
}

/// Run one experiment by id under `env`.
///
/// # Panics
/// Panics on an unknown id.
pub fn run_experiment_in(id: &str, env: &Env) -> String {
    let (_, _, run) = EXPERIMENTS
        .iter()
        .find(|e| e.0 == id)
        .unwrap_or_else(|| panic!("unknown experiment id {id:?}"));
    run(env)
}

// ---------------------------------------------------------------- tables

fn t1_machine(_env: &Env) -> String {
    let c = MachineConfig::origin2000();
    let rows = vec![
        vec!["CPUs per node".into(), format!("{}", c.cpus_per_node)],
        vec![
            "CPU cycle".into(),
            format!("{} ns (250 MHz R10000)", c.cycle_ns),
        ],
        vec!["Cache line".into(), format!("{} B", c.line_bytes)],
        vec![
            "Modelled cache".into(),
            format!("{} MB, {}-way", c.cache_bytes >> 20, c.cache_assoc),
        ],
        vec!["Cache hit".into(), format!("{} ns", c.lat_cache_hit)],
        vec!["Local memory".into(), format!("{} ns", c.lat_local_mem)],
        vec!["Per router hop".into(), format!("{} ns", c.lat_hop)],
        vec!["Directory op".into(), format!("{} ns", c.lat_directory)],
        vec![
            "Link bandwidth".into(),
            format!("{:.2} GB/s", c.bw_bytes_per_ns),
        ],
        vec!["Page size".into(), format!("{} KB", c.page_bytes >> 10)],
        vec![
            "MPI send+recv overhead".into(),
            format!("{} ns", c.mp_send_overhead + c.mp_recv_overhead),
        ],
        vec![
            "SHMEM put overhead".into(),
            format!("{} ns", c.shmem_put_overhead),
        ],
        vec![
            "Barrier cost per tree level".into(),
            format!("{} ns", c.sync_hop),
        ],
    ];
    format!(
        "T1: simulated Origin2000 machine parameters\n\n{}",
        render(&cells(&["parameter", "value"]), &rows)
    )
}

fn t2_effort(_env: &Env) -> String {
    let t = effort_table();
    let rows: Vec<Vec<String>> = t
        .iter()
        .map(|r| {
            vec![
                format!("{} / {}", r.app.name(), r.model.name()),
                r.loc.to_string(),
            ]
        })
        .collect();
    format!(
        "T2: programming effort (effective source lines, simulator shims excluded)\n\n{}",
        render(&cells(&["application / model", "LoC"]), &rows)
    )
}

fn t3_partitioners(_env: &Env) -> String {
    // Partition an adapted mesh (shock mid-domain) with every partitioner.
    let mut mesh = AdaptiveMesh::structured(32, 32, 1.0, 1.0);
    let cfg = AmrConfig {
        nx: 32,
        ny: 32,
        ..AmrConfig::default()
    };
    for step in 0..3 {
        mesh::indicator::adapt_step(
            &mut mesh,
            &cfg.shock(),
            cfg.front_time(step),
            cfg.refine_band,
            cfg.coarsen_band,
            cfg.max_level,
        );
    }
    let dual = dual_graph(&mesh);
    let pts: Vec<WeightedPoint> = dual
        .centroids
        .iter()
        .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
        .collect();
    let g = CsrGraph {
        xadj: dual.xadj.clone(),
        adj: dual.adj.clone(),
        vwgt: vec![1.0; dual.len()],
    };
    let nparts = 16;
    let mut rows = Vec::new();
    let mut eval = |name: &str, parts: &[u32]| {
        rows.push(vec![
            name.to_string(),
            edge_cut(&g, parts).to_string(),
            x2(imbalance(&g.vwgt, parts, nparts)),
        ]);
    };
    eval("RCB", &rcb_partition(&pts, nparts));
    eval("Morton SFC", &morton_partition(&pts, nparts));
    eval("Hilbert SFC", &hilbert_partition(&pts, nparts));
    eval("Multilevel (MeTiS-lite)", &multilevel_partition(&g, nparts));
    // A stale partition: computed on the *base* mesh and inherited through
    // the adaptation (what a non-repartitioning code would run with) —
    // then repaired locally by diffusion instead of a global repartition.
    let base = AdaptiveMesh::structured(32, 32, 1.0, 1.0);
    let bdual = dual_graph(&base);
    let bpts: Vec<WeightedPoint> = bdual
        .centroids
        .iter()
        .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
        .collect();
    let bparts = rcb_partition(&bpts, nparts);
    let mut bowner = vec![0u32; base.num_tris_total()];
    for (i, &t) in bdual.tris.iter().enumerate() {
        bowner[t as usize] = bparts[i];
    }
    // Inherit through the hierarchy: children take the parent's part.
    let mut stale: Vec<u32> = dual
        .tris
        .iter()
        .map(|&t| {
            let mut cur = t;
            loop {
                if (cur as usize) < bowner.len() {
                    return bowner[cur as usize];
                }
                cur = mesh.parent_of(cur).expect("new tris trace to base");
            }
        })
        .collect();
    eval("stale (inherited)", &stale);
    diffuse(&g, &mut stale, nparts, 1.05, 200);
    eval("stale + diffusion", &stale);
    format!(
        "T3: partitioner quality on an adapted mesh ({} active triangles, {} parts)\n\n{}",
        dual.len(),
        nparts,
        render(&cells(&["partitioner", "edge cut", "imbalance"]), &rows)
    )
}

fn t4_microbench(env: &Env) -> String {
    // The communication-parameter table every paper of the era includes,
    // *measured* on the simulated machine by running the primitives —
    // a self-validation that the runtimes charge what the model says.
    use mp::{MpWorld, RecvSpec};
    use sas::SasWorld;
    use shmem::SymWorld;

    let p = 16;
    let m = env.machine(p);
    let mut rows = Vec::new();

    // Two-sided round trip / 2 for varying sizes, ranks 0 <-> p-1.
    let mpw = MpWorld::new(Arc::clone(&m));
    for bytes in [8usize, 1024, 65_536] {
        let words = bytes / 8;
        let run = env.team(Arc::clone(&m)).run(|ctx| {
            let reps = 10u64;
            let t0 = ctx.now();
            for _ in 0..reps {
                if ctx.pe() == 0 {
                    mpw.send_vec(ctx, p - 1, 1, vec![0u64; words]);
                    let _ = mpw.recv::<u64>(ctx, RecvSpec::from(p - 1, 2));
                } else if ctx.pe() == p - 1 {
                    let (_, _, d) = mpw.recv::<u64>(ctx, RecvSpec::from(0, 1));
                    mpw.send_vec(ctx, 0, 2, d);
                }
            }
            (ctx.now() - t0) / (2 * reps)
        });
        rows.push(vec![
            format!("MPI one-way, {bytes} B"),
            format!("{} ns", run.results[0]),
        ]);
    }

    // One-sided put / get for the same span.
    let shw = SymWorld::new(Arc::clone(&m));
    for bytes in [8usize, 1024, 65_536] {
        let words = bytes / 8;
        let run = env.team(Arc::clone(&m)).run(|ctx| {
            let sym = shw.alloc::<u64>(ctx, words.max(1));
            let reps = 10u64;
            let data = vec![0u64; words];
            let t0 = ctx.now();
            if ctx.pe() == 0 {
                for _ in 0..reps {
                    sym.put(ctx, p - 1, 0, &data);
                }
            }
            let put_ns = (ctx.now() - t0) / reps;
            let t1 = ctx.now();
            if ctx.pe() == 0 {
                for _ in 0..reps {
                    let _ = sym.get(ctx, p - 1, 0, words.max(1));
                }
            }
            (put_ns, (ctx.now() - t1) / reps)
        });
        let (put_ns, get_ns) = run.results[0];
        rows.push(vec![
            format!("SHMEM put / get, {bytes} B"),
            format!("{put_ns} / {get_ns} ns"),
        ]);
    }

    // SAS remote line fetch: PE p-1 reads a line homed on node 0.
    let sasw = SasWorld::new(Arc::clone(&m));
    let run = env.team(Arc::clone(&m)).run(|ctx| {
        let sh = sasw.alloc::<u64>(ctx, 1024);
        let mut pe = sasw.pe();
        if ctx.pe() == 0 {
            sh.home_pages(ctx, 0, 1024);
            pe.write(ctx, &sh, 0, 1);
        }
        sasw.barrier(ctx);
        let t0 = ctx.now();
        let _ = pe.read(ctx, &sh, 0);
        ctx.now() - t0
    });
    rows.push(vec![
        "CC-SAS remote dirty-line fetch".into(),
        format!("{} ns", run.results[p - 1]),
    ]);

    // Barrier costs vs team size.
    for pes in [4usize, 16, 64] {
        let run = env.team(env.machine(pes)).run(|ctx| {
            let reps = 10u64;
            let t0 = ctx.now();
            for _ in 0..reps {
                ctx.barrier();
            }
            (ctx.now() - t0) / reps
        });
        rows.push(vec![
            format!("barrier, P={pes}"),
            format!("{} ns", run.results[0]),
        ]);
    }

    format!(
        "T4: measured communication parameters on the simulated Origin2000
(P={p}, ranks 0 and {} are {} hops apart)

{}
Measured by timing the actual runtime primitives in virtual time — the
microbenchmark table of the era, doubling as a model self-check.
",
        p - 1,
        m.hops_between(0, p - 1),
        render(&cells(&["operation", "cost"]), &rows)
    )
}

// ---------------------------------------------------------------- figures

fn do_sweep(wl: Workload, env: &Env) -> SweepResult {
    sweep_models(wl.app(), &Model::ALL, &sweep_pes(env), |model, p| {
        env.run(env.machine(p), wl, model, env.opts())
    })
}

fn f_speedup(wl: Workload, env: &Env) -> String {
    let app = wl.app();
    let sweep = do_sweep(wl, env);
    let id = if app == App::NBody { "F1" } else { "F3" };
    let mut rows = Vec::new();
    for (pi, &p) in sweep.pes.iter().enumerate() {
        let mut row = vec![p.to_string()];
        for s in &sweep.series {
            row.push(ms(s.runs[pi].sim_time));
        }
        for s in &sweep.series {
            row.push(x2(s.speedups()[pi]));
        }
        rows.push(row);
    }
    let header = cells(&[
        "P",
        "MPI ms",
        "SHMEM ms",
        "CC-SAS ms",
        "MPI spd",
        "SHMEM spd",
        "CC-SAS spd",
    ]);
    let chart_series: Vec<(&str, Vec<f64>)> = sweep
        .series
        .iter()
        .map(|s| (s.model.name(), s.speedups()))
        .collect();
    format!(
        "{id}: {} simulated execution time and speedup vs processors\n\n{}\n{}",
        app.name(),
        render(&header, &rows),
        line_chart(
            &format!("{} speedup", app.name()),
            &sweep.pes,
            &chart_series,
            12
        )
    )
}

fn f_breakdown(wl: Workload, env: &Env) -> String {
    let app = wl.app();
    let id = if app == App::NBody { "F2" } else { "F4" };
    let p = env.pick(8, 32);
    let m = env.machine(p);
    let runs: Vec<_> = Model::ALL
        .iter()
        .map(|&model| env.run(Arc::clone(&m), wl, model, env.opts()))
        .collect();
    let labels: Vec<&str> = Model::ALL.iter().map(|m| m.name()).collect();
    let fractions: Vec<Vec<f64>> = runs
        .iter()
        .map(|r| {
            let (b, l, rm, s) = r.breakdown().fractions();
            vec![b, l, rm, s]
        })
        .collect();
    let mut rows = Vec::new();
    for (r, model) in runs.iter().zip(&labels) {
        let bd = r.breakdown();
        rows.push(vec![
            model.to_string(),
            ms(r.sim_time),
            ms(bd.busy / p as u64),
            ms(bd.local / p as u64),
            ms(bd.remote / p as u64),
            ms(bd.sync / p as u64),
        ]);
    }
    format!(
        "{id}: {} execution-time breakdown at P={p} (per-PE average, ms)\n\n{}\n{}",
        app.name(),
        render(
            &cells(&["model", "total", "busy", "local", "remote", "sync"]),
            &rows
        ),
        stacked_bars(
            "time fractions",
            &labels,
            &["busy", "local", "remote", "sync"],
            &fractions,
            48
        )
    )
}

fn f5_comm_volume(env: &Env) -> String {
    let mut out = String::from("F5: communication volume vs processors (KB total)\n");
    let (nb, am) = (nbody_cfg(env), amr_cfg(env));
    for wl in [Workload::NBody(&nb), Workload::Amr(&am)] {
        let app = wl.app();
        let sweep = do_sweep(wl, env);
        out.push('\n');
        out.push_str(&format!("{}:\n", app.name()));
        let mut rows = Vec::new();
        for (pi, &p) in sweep.pes.iter().enumerate() {
            let mut row = vec![p.to_string()];
            for s in &sweep.series {
                let c = &s.runs[pi].counters;
                let line = MachineConfig::origin2000().line_bytes;
                let bytes = c.explicit_comm_bytes() + c.implicit_comm_bytes(line);
                row.push(format!("{}", bytes / 1024));
            }
            rows.push(row);
        }
        out.push_str(&render(&cells(&["P", "MPI", "SHMEM", "CC-SAS"]), &rows));
    }
    out.push_str(
        "\nMPI/SHMEM volume is explicit message/put/get payload; CC-SAS volume is\nremote cache-line fills (misses × 128 B).\n",
    );
    out
}

fn f6_balance(env: &Env) -> String {
    let cfg = amr_cfg(env);
    let p = env.pick(8, 16);
    let with = apps::amr_common::balance_series(&cfg, p);
    let no_cfg = AmrConfig {
        use_remap: false,
        ..cfg.clone()
    };
    let without = apps::amr_common::balance_series(&no_cfg, p);
    let mut rows = Vec::new();
    for (step, (w, n)) in with.iter().zip(&without).enumerate() {
        rows.push(vec![
            step.to_string(),
            x2(w.0),
            x2(w.1),
            format!("{:.0}", w.2),
            format!("{:.0}", w.3),
            format!("{:.0}", n.2),
            format!("{:.0}", n.3),
        ]);
    }
    format!(
        "F6: AMR load balance and data movement per adaptation step (P={p})\n\n{}\nimb-before: imbalance inherited after adaptation; imb-after: after\nrepartitioning. TotalV/MaxV: elements moved (PLUM metrics), with remapping\nvs without.\n",
        render(
            &cells(&[
                "step",
                "imb-before",
                "imb-after",
                "TotalV(remap)",
                "MaxV(remap)",
                "TotalV(none)",
                "MaxV(none)"
            ]),
            &rows
        )
    )
}

fn f7_traffic_structure(env: &Env) -> String {
    let p = env.pick(8, 16);
    let m = env.machine(p);
    let (nb, am) = (nbody_cfg(env), amr_cfg(env));
    let mut out = String::from(
        "F7: traffic structure at P=16 — message-size histogram (MPI) and\none-sided operation counts (SHMEM)\n",
    );
    for wl in [Workload::NBody(&nb), Workload::Amr(&am)] {
        let mp = env.run(Arc::clone(&m), wl, Model::Mp, env.opts());
        let sh = env.run(Arc::clone(&m), wl, Model::Shmem, env.opts());
        out.push('\n');
        out.push_str(&format!("{}:\n", wl.app().name()));
        let h = mp.counters.msg_size_hist;
        let rows = vec![
            vec!["MPI messages".into(), mp.counters.msgs_sent.to_string()],
            vec!["  <64 B".into(), h[0].to_string()],
            vec!["  64-511 B".into(), h[1].to_string()],
            vec!["  512 B-4 KB".into(), h[2].to_string()],
            vec!["  4-32 KB".into(), h[3].to_string()],
            vec!["  >32 KB".into(), h[4].to_string()],
            vec!["SHMEM puts".into(), sh.counters.puts.to_string()],
            vec!["SHMEM gets".into(), sh.counters.gets.to_string()],
            vec!["SHMEM atomics".into(), sh.counters.amos.to_string()],
        ];
        out.push_str(&render(&cells(&["metric", "count"]), &rows));
    }
    out
}

fn f8_cache(env: &Env) -> String {
    let mut out = String::from("F8: CC-SAS cache behaviour vs processors\n");
    let (nb, am) = (nbody_cfg(env), amr_cfg(env));
    for wl in [Workload::NBody(&nb), Workload::Amr(&am)] {
        out.push('\n');
        out.push_str(&format!("{}:\n", wl.app().name()));
        let mut rows = Vec::new();
        for &p in &sweep_pes(env) {
            let r = env.run(env.machine(p), wl, Model::Sas, env.opts());
            rows.push(vec![
                p.to_string(),
                format!("{:.4}", r.counters.miss_ratio()),
                format!("{:.3}", r.counters.remote_miss_fraction()),
                r.counters.invalidations.to_string(),
            ]);
        }
        out.push_str(&render(
            &cells(&["P", "miss ratio", "remote fraction", "invalidations"]),
            &rows,
        ));
    }
    out
}

fn f9_critical_path(env: &Env) -> String {
    // Event tracing plus critical-path analysis: where does the end-to-end
    // simulated time actually go, for each application under each model?
    // Traces are archived as Perfetto-loadable Chrome JSON next to the
    // text outputs.
    let p = env.pick(8, 32);
    let (nb, am) = (nbody_cfg(env), amr_cfg(env));
    let _ = std::fs::create_dir_all(&env.out_dir);
    // These runs are traced whether or not the caller asked for traces;
    // under `--trace` they land in the caller's sink like any other run.
    let traced = RunOpts {
        trace: Some(env.opts.trace.clone().unwrap_or_default()),
        ..env.opts()
    };

    let mut out = format!(
        "F9: event traces and critical-path analysis at P={p}\n\
         (open the archived .trace.json files in https://ui.perfetto.dev)\n"
    );
    for wl in [Workload::Amr(&am), Workload::NBody(&nb)] {
        let app = wl.app();
        for model in Model::ALL {
            let r = env.run(env.machine(p), wl, model, traced.clone());
            let trace = r.trace.as_ref().expect("tracing was enabled");
            let slug = format!(
                "f9_{}_{}",
                app.name().to_lowercase().replace('-', ""),
                model.name().to_lowercase().replace(['-', '+'], "")
            );
            let path = env.out_dir.join(format!("{slug}.trace.json"));
            std::fs::write(&path, o2k_trace::chrome::to_chrome_json(trace))
                .expect("write trace json");
            let path = path.display();
            let stats = o2k_trace::critpath::critical_path(trace);
            out.push_str(&format!(
                "\n--- {} / {} — {} events across {} PEs, archived to {path}\n",
                app.name(),
                model.name(),
                trace.total_events(),
                trace.pes(),
            ));
            out.push_str(&o2k_trace::critpath::render_table(&stats));
            // One terminal timeline for the headline case (AMR under MPI:
            // the send/recv storms are visible to the naked eye).
            if matches!((app, model), (App::Amr, Model::Mp)) {
                out.push_str(&o2k_trace::chrome::text_timeline(trace, 72));
            }
        }
    }

    // Per-adaptation-step communication deltas (Counters::diff): rerun the
    // MPI AMR with a growing step budget and difference the running totals.
    // Run on a contention-enabled machine so the network-queueing column is
    // live — it attributes queueing delay to the step that incurred it.
    out.push_str(
        "\nAMR / MPI communication per adaptation step (cumulative-run deltas,\ncontention model on):\n",
    );
    let mut rows = Vec::new();
    let mut prev = machine::Counters::new();
    let mut phase_report = String::new();
    for k in 1..=am.steps {
        let cfg = apps::AmrConfig {
            steps: k,
            ..am.clone()
        };
        let queued = env.machine_with(p, |c| c.contention = ContentionMode::Queued);
        let r = env.run(queued, Workload::Amr(&cfg), Model::Mp, env.opts());
        // These are totals from *separate* runs, not snapshots of one run:
        // the k-step run's final sync moves different-sized messages than
        // the (k-1)-step run's, so only the aggregate fields printed here
        // are monotone across the series (Counters::diff is for same-run
        // snapshots and insists on full monotonicity).
        rows.push(vec![
            k.to_string(),
            r.counters
                .msgs_sent
                .saturating_sub(prev.msgs_sent)
                .to_string(),
            format!(
                "{}",
                r.counters.msg_bytes.saturating_sub(prev.msg_bytes) / 1024
            ),
            r.counters
                .barriers
                .saturating_sub(prev.barriers)
                .to_string(),
            format!(
                "{}",
                r.counters.net_queued_ns.saturating_sub(prev.net_queued_ns) / 1000
            ),
        ]);
        prev = r.counters;
        if k == am.steps {
            phase_report = r.net_report.clone().expect("queued run renders hotspots");
        }
    }
    out.push_str(&render(
        &cells(&["step", "msgs", "KB", "barriers", "net queue µs"]),
        &rows,
    ));
    // Per-phase link hotspots from the final run: the applications mark
    // sync/adapt/remap/solve, so queueing delay is attributed to the
    // algorithmic phase that incurred it.
    out.push_str(&format!(
        "\nAMR / MPI link hotspots by phase ({}-step run):\n{phase_report}",
        am.steps
    ));
    out
}

// -------------------------------------------------------------- ablations

fn a1_paging(env: &Env) -> String {
    let p = env.pick(8, 16);
    let (nb, am) = (nbody_cfg(env), amr_cfg(env));
    let mut rows = Vec::new();
    for (name, policy) in [
        ("first-touch", PagePolicy::FirstTouch),
        ("round-robin", PagePolicy::RoundRobin),
    ] {
        let m = env.machine_with(p, |c| c.page_policy = policy);
        let n = env.run(Arc::clone(&m), Workload::NBody(&nb), Model::Sas, env.opts());
        let a = env.run(m, Workload::Amr(&am), Model::Sas, env.opts());
        rows.push(vec![
            name.to_string(),
            ms(n.sim_time),
            format!("{:.3}", n.counters.remote_miss_fraction()),
            ms(a.sim_time),
            format!("{:.3}", a.counters.remote_miss_fraction()),
        ]);
    }
    format!(
        "A1: CC-SAS page-placement ablation at P={p}\n\n{}\nFirst touch matters where ownership is address-contiguous (AMR); the\nirregular N-body working set defeats both policies equally (the SPLASH-era\nfinding).\n",
        render(
            &cells(&["paging", "N-body ms", "N-body remote", "AMR ms", "AMR remote"]),
            &rows
        )
    )
}

fn a2_remap(env: &Env) -> String {
    let p = env.pick(8, 16);
    let base = amr_cfg(env);
    let mut rows = Vec::new();
    for (name, use_remap) in [("with PLUM remap", true), ("without remap", false)] {
        let cfg = AmrConfig {
            use_remap,
            ..base.clone()
        };
        let r = env.run(env.machine(p), Workload::Amr(&cfg), Model::Mp, env.opts());
        let moved: f64 = apps::amr_common::balance_series(&cfg, p)
            .iter()
            .map(|s| s.2)
            .sum();
        rows.push(vec![
            name.to_string(),
            ms(r.sim_time),
            format!("{moved:.0}"),
        ]);
    }
    format!(
        "A2: PLUM remapping ablation (MPI AMR, P={p})\n\n{}",
        render(
            &cells(&["configuration", "time ms", "elements moved"]),
            &rows
        )
    )
}

fn a3_partitioning(env: &Env) -> String {
    // Load-balance quality of costzones (SAS) vs ORB (MP): spread of busy
    // time across PEs.
    let p = env.pick(8, 16);
    let nb = nbody_cfg(env);
    let mut rows = Vec::new();
    for model in [Model::Sas, Model::Mp] {
        let r = env.run(env.machine(p), Workload::NBody(&nb), model, env.opts());
        let busy: Vec<f64> = r.per_pe.iter().map(|b| b.busy as f64).collect();
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let scheme = if model == Model::Sas {
            "costzones"
        } else {
            "ORB"
        };
        rows.push(vec![
            format!("{} ({})", model.name(), scheme),
            ms(r.sim_time),
            x2(max / mean),
        ]);
    }
    format!(
        "A3: N-body work partitioning — costzones vs ORB at P={p}\n\n{}\nbusy max/mean = 1.00 is perfect compute balance.\n",
        render(&cells(&["model (scheme)", "time ms", "busy max/mean"]), &rows)
    )
}

fn a4_numa_sensitivity(env: &Env) -> String {
    // Extension beyond the paper: how does the model ranking depend on the
    // machine's NUMA remoteness? Scale the per-hop latency and re-run the
    // AMR comparison at fixed P.
    let p = env.pick(8, 16);
    let am = amr_cfg(env);
    let mut rows = Vec::new();
    for factor in [0u64, 1, 4, 16] {
        let m = env.machine_with(p, |c| c.lat_hop *= factor);
        let mut row = vec![format!("{}x ({} ns/hop)", factor, m.config.lat_hop)];
        for model in Model::ALL {
            let r = env.run(Arc::clone(&m), Workload::Amr(&am), model, env.opts());
            row.push(ms(r.sim_time));
        }
        rows.push(row);
    }
    format!(
        "A4 (extension): NUMA remoteness sensitivity — AMR at P={p}, scaling the
per-hop network latency

{}
MPI's cost is dominated by per-message *software* overhead, so it is nearly
flat in hop latency. The fine-grained models — SHMEM puts and CC-SAS line
fills — are the latency-sensitive ones: their advantage is largest on a
flat machine (0x) and erodes as remoteness grows, until at 16x the ranking
*inverts* and bulk message passing wins. This is precisely the mechanism
behind the follow-up papers' cluster results: take away cheap hardware
fine-grained access and MPI becomes competitive again.
",
        render(
            &cells(&["hop latency", "MPI ms", "SHMEM ms", "CC-SAS ms"]),
            &rows
        )
    )
}

fn a5_cluster(env: &Env) -> String {
    // Extension: the companion study's platform. The same three models on
    // the stock machine and on a cluster of SMPs, where there is no
    // coherence hardware between nodes and fine-grained remote access
    // costs microseconds.
    let p = env.pick(8, 16);
    let (nb, am) = (nbody_cfg(env), amr_cfg(env));
    let table = |contention: ContentionMode| {
        let mut rows = Vec::new();
        for wl in [Workload::NBody(&nb), Workload::Amr(&am)] {
            let app = wl.app();
            for (label, cluster) in [("Origin2000", false), ("cluster of SMPs", true)] {
                let m = env.machine_with(p, |c| {
                    if cluster {
                        *c = MachineConfig {
                            fault: c.fault.clone(),
                            ..MachineConfig::cluster_of_smps()
                        };
                    }
                    c.contention = contention;
                });
                let times =
                    Model::ALL.map(|model| env.run(Arc::clone(&m), wl, model, env.opts()).sim_time);
                let [mpi, _, sas] = times;
                // The cluster inverts the Origin2000 ranking. N-body shows
                // it at both scales (quick 9.5 vs 29.5 ms, full 50.7 vs
                // 172.4 ms); AMR needs the full-size mesh (23.9 vs 64.8 ms)
                // — at `--quick` its rows still read 2.57 vs 2.35 ms.
                if cluster && (app == App::NBody || !env.quick) {
                    assert!(
                        mpi < sas,
                        "{} on the cluster: bulk MPI ({mpi} ns) must beat CC-SAS ({sas} ns)",
                        app.name()
                    );
                }
                let mut row = vec![format!("{} / {}", app.name(), label)];
                row.extend(times.map(ms));
                rows.push(row);
            }
        }
        render(
            &cells(&["workload / machine", "MPI ms", "SHMEM ms", "CC-SAS ms"]),
            &rows,
        )
    };
    // The second table re-runs the same four cells on the contended-resource
    // fabric: every transfer now also arbitrates for its node buses and hub
    // ports, which penalises the fine-grained models' many small transfers
    // more than MPI's few bulk ones.
    format!(
        "A5 (extension): the three models on a cluster of SMPs at P={p}\n\n{}\nThe cluster is the companion study's platform: 4-way SMP nodes on a\ncommodity network with no coherence hardware between nodes, so every\nremote line fill, invalidation and directory action costs microseconds\nand every message pays NIC software overhead. On the Origin2000 the three\nmodels tie on N-body and the fine-grained ones win AMR, CC-SAS first. On\nthe cluster the ranking inverts and bulk MPI wins both applications —\nN-body by ~3x over CC-SAS, whose shared-tree walk is the most\nremote-line-bound code here. It is A4's remoteness sweep taken to its end\npoint.\n\nSame cells on the contended-resource fabric (links + node buses + hub\nports, ContentionMode::Fabric):\n\n{}\nBus and hub arbitration taxes per-transfer models hardest. On the cluster\nMPI's lead over CC-SAS grows to ~10x on N-body and doubles in absolute\nterms on AMR; on the Origin2000 CC-SAS keeps AMR but gives up N-body.\n",
        table(ContentionMode::Off),
        table(ContentionMode::Fabric),
    )
}

fn a6_self_schedule(env: &Env) -> String {
    // Ablation: the classic SAS self-scheduled loop (chunks claimed from a
    // shared counter) vs the static block schedule, for the CC-SAS AMR.
    let p = env.pick(8, 16);
    let base = amr_cfg(env);
    let mut rows = Vec::new();
    for (name, dynamic) in [
        ("static blocks", false),
        ("self-scheduled (chunk 32)", true),
    ] {
        let cfg = AmrConfig {
            sas_self_schedule: dynamic,
            ..base.clone()
        };
        // Claiming is a genuine fetch-add race (see `apps::amr_sas`): the
        // run's policy orders the claims, `det` by default, and each
        // policy reproduces its row exactly.
        let r = env.run(env.machine(p), Workload::Amr(&cfg), Model::Sas, env.opts());
        let busy: Vec<f64> = r.per_pe.iter().map(|b| b.busy as f64).collect();
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        rows.push(vec![
            name.to_string(),
            ms(r.sim_time),
            x2(max / mean),
            r.counters.invalidations.to_string(),
            format!("{:.3}", r.counters.remote_miss_fraction()),
        ]);
    }
    format!(
        "A6 (ablation): CC-SAS sweep scheduling at P={p}\n\n{}\nWith near-uniform per-element work, self-scheduling buys no balance (both\nschedules sit at busy max/mean ~1.0) and pays extra invalidation\ntraffic for the shared cursor line — so the static block schedule is the\nright default, exactly the trade-off the SPLASH-era codes tuned by hand.\n(Chunks are claimed by real fetch-adds in virtual-time order under the\ndefault det schedule; `repro a6 --sched explore:<seed>` replays a seeded\ninterleaving of the claims. See `apps::amr_sas` and S1.)\n",
        render(
            &cells(&["schedule", "time ms", "busy max/mean", "invalidations", "remote frac"]),
            &rows
        )
    )
}

fn s1_scheduler_policies(env: &Env) -> String {
    // Scheduler study: the same self-scheduled CC-SAS AMR under every
    // scheduling policy. Deterministic runs repeat bitwise (same schedule
    // fingerprint, same times); exploration seeds pick distinct
    // interleavings; the physics checksum never moves.
    let p = env.pick(4, 8);
    let cfg = AmrConfig {
        sas_self_schedule: true,
        ..AmrConfig::small()
    };
    let go = |policy: SchedPolicy| {
        let opts = RunOpts {
            sched: Some(policy),
            ..env.opts()
        };
        env.run(env.machine(p), Workload::Amr(&cfg), Model::Sas, opts)
    };
    let det_a = go(SchedPolicy::Det);
    let det_b = go(SchedPolicy::Det);
    assert_eq!(det_a.sim_time, det_b.sim_time, "det must repeat bitwise");
    assert_eq!(det_a.sched, det_b.sched, "det must repeat the schedule");
    let mut rows = Vec::new();
    let mut fingerprints = Vec::new();
    let mut checksums = Vec::new();
    for (name, r) in [
        ("det (run 1)", &det_a),
        ("det (run 2)", &det_b),
        ("explore:1", &go(SchedPolicy::Explore { seed: 1 })),
        ("explore:2", &go(SchedPolicy::Explore { seed: 2 })),
    ] {
        let s = r.sched.expect("cooperative policies report stats");
        fingerprints.push(s.fingerprint);
        checksums.push(r.checksum);
        rows.push(vec![
            name.to_string(),
            ms(r.sim_time),
            r.counters.sched_handoffs.to_string(),
            format!("{:016x}", s.fingerprint),
        ]);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "the answer must be schedule-independent"
    );
    let distinct = {
        let mut f = fingerprints.clone();
        f.sort_unstable();
        f.dedup();
        f.len()
    };
    format!(
        "S1: scheduling policies on self-scheduled CC-SAS AMR at P={p}\n\n{}\nThe two det rows are bitwise identical (one schedule, one fingerprint);\nthe exploration rows each replay a distinct seeded interleaving\n({distinct} distinct fingerprints across {total} cooperative runs) while\nthe physics checksum is identical in every row — the Jacobi answer is\nbarrier-separated, only times and traffic move with the schedule.\n",
        render(
            &cells(&["policy", "time ms", "handoffs", "schedule fingerprint"]),
            &rows
        ),
        total = fingerprints.len(),
    )
}

fn n1_contention(env: &Env) -> String {
    use mp::MpWorld;
    use sas::SasWorld;

    // Contention sweep: the same traffic on the analytic (uncontended)
    // machine and on the queueing interconnect model. Each transfer is
    // routed hop-by-hop over the hypercube; a busy link delays it, so
    // concentrated traffic pays where the analytic model charges a
    // load-independent latency.
    let pes: Vec<usize> = env.pick(vec![4, 8], vec![4, 8, 16, 32, 64]);
    let mach = |p: usize, mode: ContentionMode| env.machine_with(p, |c| c.contention = mode);

    // (a) MPI personalised all-to-all: every PE sends a chunk to every
    // other PE — the bisection-stressing pattern.
    let words = env.pick(512, 2048);
    let alltoall = |p: usize, mode: ContentionMode| {
        let m = mach(p, mode);
        let mpw = MpWorld::new(Arc::clone(&m));
        env.team(Arc::clone(&m)).run(move |ctx| {
            let sends: Vec<Vec<u64>> = (0..p).map(|_| vec![7u64; words]).collect();
            let r = mpw.alltoallv(ctx, sends);
            r.len() as u64
        })
    };

    // (b) CC-SAS hotspot: every PE reads lines homed (and dirtied) on
    // node 0, so every fill converges on node 0's router ports.
    let lines = 256usize; // 16 u64 per 128 B line
    let hotspot = |p: usize, mode: ContentionMode| {
        let m = mach(p, mode);
        let sasw = SasWorld::new(Arc::clone(&m));
        env.team(Arc::clone(&m)).run(move |ctx| {
            let sh = sasw.alloc::<u64>(ctx, lines * 16);
            let mut pe = sasw.pe();
            if ctx.pe() == 0 {
                sh.home_pages(ctx, 0, lines * 16);
                for l in 0..lines {
                    pe.write(ctx, &sh, l * 16, l as u64);
                }
            }
            sasw.barrier(ctx);
            let mut acc = 0u64;
            for l in 0..lines {
                acc = acc.wrapping_add(pe.read(ctx, &sh, l * 16));
            }
            acc
        })
    };

    let mut out =
        String::from("N1: interconnect contention sweep — analytic (off) vs queueing (queued)\n");
    let mut queued_series: Vec<(&str, Vec<u64>)> = Vec::new();
    let a2a_label = format!("MPI all-to-all, {} B chunks", words * 8);
    let hot_label = format!("CC-SAS hotspot, {lines} lines homed on node 0");
    for (name, bench) in [
        (
            a2a_label.as_str(),
            &alltoall as &dyn Fn(usize, ContentionMode) -> parallel::TeamRun<u64>,
        ),
        (hot_label.as_str(), &hotspot),
    ] {
        let mut rows = Vec::new();
        let mut qns = Vec::new();
        for &p in &pes {
            let off = bench(p, ContentionMode::Off);
            let q = bench(p, ContentionMode::Queued);
            assert!(off.net.is_none(), "off mode must not build a NetSim");
            let stats = q
                .net
                .as_ref()
                .expect("queued mode reports NetStats")
                .stats();
            assert!(
                q.sim_time() >= off.sim_time(),
                "{name}: queueing can only add delay (P={p})"
            );
            qns.push(stats.queued_ns);
            rows.push(vec![
                p.to_string(),
                ms(off.sim_time()),
                ms(q.sim_time()),
                x2(q.sim_time() as f64 / off.sim_time().max(1) as f64),
                format!("{}", stats.queued_ns / 1000),
                stats.active_links.to_string(),
                format!("{}", stats.max_link_queued_ns / 1000),
            ]);
        }
        // The acceptance property: queueing delay grows with P.
        assert!(
            qns.windows(2).all(|w| w[0] <= w[1]) && qns[qns.len() - 1] > qns[0],
            "{name}: total queueing delay must grow with P ({qns:?})"
        );
        out.push('\n');
        out.push_str(&format!("{name}:\n"));
        out.push_str(&render(
            &cells(&[
                "P",
                "off ms",
                "queued ms",
                "slowdown",
                "queue µs",
                "links hit",
                "worst link µs",
            ]),
            &rows,
        ));
        queued_series.push((name, qns));
    }
    let chart: Vec<(&str, Vec<f64>)> = queued_series
        .iter()
        .map(|(n, v)| (*n, v.iter().map(|&x| x as f64 / 1000.0).collect()))
        .collect();
    out.push('\n');
    out.push_str(&line_chart("total queueing delay (µs)", &pes, &chart, 10));

    // (c) Both applications under all three models, off vs queued, at a
    // fixed P: how much does the analytic model understate by ignoring
    // contention on real adaptive traffic?
    let p = env.pick(8, 32);
    let (nb, am) = (nbody_cfg(env), amr_cfg(env));
    let mut rows = Vec::new();
    for wl in [Workload::NBody(&nb), Workload::Amr(&am)] {
        let app = wl.app();
        for model in Model::ALL {
            let run = |mode| env.run(mach(p, mode), wl, model, env.opts());
            let off = run(ContentionMode::Off);
            let q = run(ContentionMode::Queued);
            let s = q.net.expect("queued run reports NetStats");
            rows.push(vec![
                format!("{} / {}", app.name(), model.name()),
                ms(off.sim_time),
                ms(q.sim_time),
                x2(q.sim_time as f64 / off.sim_time.max(1) as f64),
                format!("{}", s.queued_ns / 1000),
            ]);
        }
    }
    out.push_str(&format!(
        "\nApplications at P={p}, off vs queued:\n{}",
        render(
            &cells(&["workload", "off ms", "queued ms", "slowdown", "queue µs"]),
            &rows
        )
    ));

    // Hotspot anatomy at the largest swept P: per-link occupancy report and
    // utilization histogram from the CC-SAS hotspot run.
    let top_p = *pes.last().expect("sweep is non-empty");
    let q = hotspot(top_p, ContentionMode::Queued);
    let net = q.net.as_ref().expect("queued mode reports NetStats");
    let hist = net.utilization_hist(q.sim_time());
    out.push_str(&format!(
        "\nCC-SAS hotspot anatomy at P={top_p}:\n{}\nlink utilization histogram (busy fraction deciles, links per bin):\n  {:?}\n\
         The hot links are node 0's router ports — every fill crosses them,\n\
         so their occupancy, not the per-hop latency, sets the service rate.\n",
        net.hotspot_report(5),
        hist,
    ));

    // (d) The same applications on the full resource fabric (links + node
    // buses + hub ports): how much the link-only queueing model still
    // understates, and where the extra delay accrues by resource kind.
    let mut rows = Vec::new();
    for wl in [Workload::NBody(&nb), Workload::Amr(&am)] {
        let app = wl.app();
        for model in Model::ALL {
            let run = |mode| env.run(mach(p, mode), wl, model, env.opts());
            let q = run(ContentionMode::Queued);
            let f = run(ContentionMode::Fabric);
            assert_eq!(f.checksum, q.checksum, "fabric changed physics");
            let s = f.net.as_ref().expect("fabric run reports NetStats");
            assert!(
                s.bus.transfers > 0,
                "fabric runs must arbitrate for node buses"
            );
            rows.push(vec![
                format!("{} / {}", app.name(), model.name()),
                ms(q.sim_time),
                ms(f.sim_time),
                x2(f.sim_time as f64 / q.sim_time.max(1) as f64),
                format!("{}", s.queued_ns / 1000),
                format!("{}", s.bus.queued_ns / 1000),
                format!("{}", s.hub.queued_ns / 1000),
            ]);
        }
    }
    out.push_str(&format!(
        "\nApplications at P={p}, link-only queueing vs the full resource fabric\n\
         (fabric adds per-node shared-bus and per-router hub arbitration):\n{}",
        render(
            &cells(&[
                "workload",
                "queued ms",
                "fabric ms",
                "fabric x",
                "link q µs",
                "bus q µs",
                "hub q µs",
            ]),
            &rows
        )
    ));
    out
}

fn n2_fault(env: &Env) -> String {
    // Fault-injection sweep: the same workloads on the queueing
    // interconnect, healthy vs one degraded link vs one killed router
    // port. Degrade multiplies a link's service time; kill removes a
    // router edge and every transfer that would cross it detours over the
    // surviving hypercube edges. P must give the routers at least two
    // dimensions or the cut has no detour (quick keeps P=16, not 8).
    let p = env.pick(16, 32);
    let (nb, am) = (nbody_cfg(env), amr_cfg(env));
    let degraded_spec = "plan:down0:deg8";
    let faulted_spec = "plan:down0:deg8;r0d0:kill";
    let faulty = |p: usize, spec: &str| {
        env.machine_with(p, |c| {
            c.contention = ContentionMode::Queued;
            c.fault = FaultMode::parse(spec).expect("valid fault spec");
        })
    };

    let mut out = format!(
        "N2: graceful degradation under interconnect faults at P={p}\n\
         (queueing model on; slow = {degraded_spec}: node 0's inbound\n\
         bristle port serves 8x slower; faulted = {faulted_spec}:\n\
         the slow link plus a cut on router 0's dim-0 port, around which\n\
         traffic detours over the surviving hypercube edges)\n\n"
    );
    let mut rows = Vec::new();
    let mut amr_retained = [0.0f64; 3];
    let mut degraded_report = String::new();
    let mut amr_mp_times = (0u64, 0u64);
    let mut amr_mp_checksum = 0.0f64;
    // Pin the deterministic schedule: a fault comparison under free OS
    // interleaving confounds the fault's cost with schedule noise.
    let det = env.det();
    for wl in [Workload::Amr(&am), Workload::NBody(&nb)] {
        let app = wl.app();
        for (mi, &model) in Model::ALL.iter().enumerate() {
            let queued = env.machine_with(p, |c| c.contention = ContentionMode::Queued);
            let healthy = env.run(queued, wl, model, det.clone());
            let deg = env.run(faulty(p, degraded_spec), wl, model, det.clone());
            let dead = env.run(faulty(p, faulted_spec), wl, model, det.clone());
            // Graceful degradation: faults move time and traffic, never
            // the physics.
            assert_eq!(deg.checksum, healthy.checksum, "degrade changed physics");
            assert_eq!(dead.checksum, healthy.checksum, "dead link changed physics");
            let ds = dead.net.as_ref().expect("queued run reports NetStats");
            assert_eq!(ds.dead_links, 1, "the kill must register");
            assert_eq!(ds.degraded_links, 1, "the degrade must register");
            assert!(
                ds.detoured_transfers > 0,
                "{} / {}: traffic must detour around the cut",
                app.name(),
                model.name()
            );
            rows.push(vec![
                format!("{} / {}", app.name(), model.name()),
                ms(healthy.sim_time),
                ms(deg.sim_time),
                x2(deg.sim_time as f64 / healthy.sim_time.max(1) as f64),
                ms(dead.sim_time),
                x2(dead.sim_time as f64 / healthy.sim_time.max(1) as f64),
                ds.detoured_transfers.to_string(),
            ]);
            if app == App::Amr {
                amr_retained[mi] = healthy.sim_time as f64 / dead.sim_time.max(1) as f64;
                if model == Model::Mp {
                    degraded_report = deg.net_report.clone().expect("queued run renders hotspots");
                    amr_mp_times = (healthy.sim_time, deg.sim_time);
                    amr_mp_checksum = healthy.checksum;
                }
            }
        }
    }
    out.push_str(&render(
        &cells(&[
            "workload",
            "healthy ms",
            "slow ms",
            "slow x",
            "slow+dead ms",
            "slow+dead x",
            "detours",
        ]),
        &rows,
    ));

    // The acceptance property: bulk message passing retains more of its
    // healthy throughput across the faulted fabric (one slow link, one
    // dead link) than the cache-coherent SAS, whose fine-grained line
    // fills pay the slow port and the detour on every miss.
    let (mp_ret, sh_ret, sas_ret) = (amr_retained[0], amr_retained[1], amr_retained[2]);
    assert!(
        mp_ret > sas_ret,
        "MP should retain more throughput than CC-SAS under the slow+dead links \
         ({mp_ret:.3} vs {sas_ret:.3})"
    );
    out.push_str(&format!(
        "\nAMR throughput retained under the slow+dead links (healthy/faulted time):\n  \
         MPI {mp_ret:.2}, SHMEM {sh_ret:.2}, CC-SAS {sas_ret:.2} — bulk messages amortise the\n  \
         slow port and the detour that the fine-grained models pay per transfer.\n"
    ));

    // Link hotspots of the degraded AMR / MPI run: the slow link is
    // annotated in place, per phase.
    out.push_str(&format!(
        "\nAMR / MPI link hotspots with the degraded bristle:\n{degraded_report}"
    ));

    // Heal: the degraded bristle is restored partway through the run
    // (`plan:down0:deg8;down0:heal@<ns>`). Throughput must recover — the
    // healed run lands strictly between the healthy and the permanently
    // degraded run — and the physics never moves.
    let (healthy_t, deg_t) = amr_mp_times;
    let heal_at = deg_t / 4;
    let healed_spec = format!("plan:down0:deg8;down0:heal@{heal_at}");
    let healed = env.run(faulty(p, &healed_spec), Workload::Amr(&am), Model::Mp, det);
    assert_eq!(healed.checksum, amr_mp_checksum, "heal changed physics");
    let hs = healed.net.as_ref().expect("queued run reports NetStats");
    assert_eq!(
        hs.degraded_links, 0,
        "a terminally healed link must not count as degraded"
    );
    assert!(
        healed.sim_time < deg_t,
        "healing the bristle mid-run must recover throughput \
         (healed {} vs degraded {deg_t})",
        healed.sim_time
    );
    assert!(
        healed.sim_time >= healthy_t,
        "a run degraded until t={heal_at} cannot beat the healthy run"
    );
    out.push_str(&format!(
        "\nHeal ({healed_spec}): AMR / MPI with the slow bristle restored mid-run:\n  \
         healthy {}, degraded {}, healed {} — throughput recovers once the\n  \
         port returns to full service; the hotspot report marks the link [healed].\n",
        ms(healthy_t),
        ms(deg_t),
        ms(healed.sim_time),
    ));
    out
}

fn n3_bus_saturation(env: &Env) -> String {
    // Bus-saturation sweep: fix the PE count and fatten the nodes. More
    // CPUs per node means more PEs arbitrating for each node's shared
    // SysAD bus and each router's hub port — the cluster-of-SMPs failure
    // mode the follow-up papers measured. Efficiency compares the analytic
    // (off) and fabric runs *at the same topology*, so the column isolates
    // pure resource contention from path-length effects.
    let p = env.pick(8, 16);
    let cpns: &[usize] = env.pick(&[2, 4, 8], &[2, 4, 8, 16]);
    let (nb, am) = (nbody_cfg(env), amr_cfg(env));
    // Pin the deterministic schedule so the sweep is bitwise reproducible.
    let det = env.det();
    let mach = |cpn: usize, mode: ContentionMode| {
        env.machine_with(p, |c| {
            c.cpus_per_node = cpn;
            c.contention = mode;
        })
    };

    let mut out = format!(
        "N3: shared-bus saturation at fixed P={p}, fattening nodes from {} to {}\n\
         CPUs each (ContentionMode::Fabric: every transfer arbitrates for its\n\
         source and destination node buses and the router hub ports on its\n\
         path; per-PE efficiency = analytic time / fabric time at the same\n\
         topology, so 1.00 means contention-free)\n",
        cpns[0],
        cpns[cpns.len() - 1],
    );
    let mut sas_report = String::new();
    for wl in [Workload::Amr(&am), Workload::NBody(&nb)] {
        let app = wl.app();
        let mut rows = Vec::new();
        let mut eff = vec![[0.0f64; 3]; cpns.len()];
        for (ci, &cpn) in cpns.iter().enumerate() {
            let mut row = vec![cpn.to_string()];
            let mut by_kind = String::new();
            for (mi, &model) in Model::ALL.iter().enumerate() {
                let off = env.run(mach(cpn, ContentionMode::Off), wl, model, det.clone());
                let fab = env.run(mach(cpn, ContentionMode::Fabric), wl, model, det.clone());
                assert_eq!(fab.checksum, off.checksum, "fabric changed physics");
                let s = fab.net.as_ref().expect("fabric run reports NetStats");
                assert!(s.bus.transfers > 0, "fabric runs must cross node buses");
                eff[ci][mi] = off.sim_time as f64 / fab.sim_time.max(1) as f64;
                row.push(format!("{:.3}", eff[ci][mi]));
                if model == Model::Sas {
                    by_kind = fab
                        .net_kind_summary()
                        .expect("fabric run reports kind breakdown");
                    if app == App::Amr && ci == cpns.len() - 1 {
                        sas_report = fab.net_report.clone().expect("fabric run renders hotspots");
                    }
                }
            }
            row.push(by_kind);
            rows.push(row);
        }
        // The acceptance properties, on the adaptive headline workload:
        // fattening nodes costs CC-SAS per-PE efficiency monotonically
        // (every fill arbitrates for the shared bus), while bulk message
        // passing degrades strictly less (its per-message software
        // overhead is bus-free). The irregular N-body is displayed for
        // contrast but not asserted — its widest-node case is single-node
        // and all-local, which relieves the links as fast as the bus fills.
        if app == App::Amr {
            let sas: Vec<f64> = eff.iter().map(|e| e[2]).collect();
            let mp: Vec<f64> = eff.iter().map(|e| e[0]).collect();
            assert!(
                sas.windows(2).all(|w| w[1] < w[0]),
                "CC-SAS efficiency must fall monotonically with node width ({sas:?})"
            );
            assert!(
                1.0 - mp[mp.len() - 1] < 1.0 - sas[sas.len() - 1],
                "MP must degrade strictly less than CC-SAS at the widest node \
                 (MP {:.3} vs CC-SAS {:.3})",
                mp[mp.len() - 1],
                sas[sas.len() - 1]
            );
        }
        out.push('\n');
        out.push_str(&format!(
            "{} per-PE efficiency vs node width:\n",
            app.name()
        ));
        out.push_str(&render(
            &cells(&[
                "cpus/node",
                "MPI eff",
                "SHMEM eff",
                "CC-SAS eff",
                "CC-SAS queue by kind",
            ]),
            &rows,
        ));
    }

    // Hotspot anatomy of the saturated case: the report groups contended
    // resources by kind, and the top entries must include the shared buses
    // or hub ports — the links are no longer where the time goes.
    assert!(
        sas_report.lines().any(|l| {
            let t = l.trim_start();
            t.starts_with("bus ") || t.starts_with("hub ")
        }),
        "top-k hotspots must attribute delay to a bus or hub resource:\n{sas_report}"
    );
    out.push_str(&format!(
        "\nCC-SAS AMR resource hotspots at {} CPUs/node (kind column groups\n\
         links, node buses and hub ports):\n{sas_report}",
        cpns[cpns.len() - 1],
    ));
    out
}

fn q1_serving(env: &Env) -> String {
    use o2k_serve::Mitigation;

    // Tail latency of the sharded key-value service under the three
    // models, across four fabric conditions. Clients are open-loop
    // virtual-time event sources, so a million requests are a million
    // table lookups; every run pins the deterministic schedule so the
    // quantiles replay bitwise.
    let p = env.pick(16, 32);
    let base = ServeConfig {
        keys: env.pick(8_192, 32_768),
        requests: env.pick(40_000, 90_000),
        mean_gap_ns: 25_000,
        skew: 1.0,
        val_words: 32,
        service_ns: 1_500,
        deadline_ns: None,
        poll_ns: 4_000,
        seed: 0x00C0_FFEE,
        mitigation: Mitigation::Off,
        start_ns: 0,
    };
    let sick_spec = "plan:down0:deg8;r0d0:kill";
    let det = env.det();
    let scenarios: [(&str, &str); 4] = [
        ("healthy", "queued fabric, uniform keys"),
        ("skewed", "queued fabric, key skew 3.0 piles onto shard 0"),
        ("sick", "queued fabric with plan:down0:deg8;r0d0:kill"),
        ("fat-nodes", "full fabric (buses+hubs), 8 CPUs per node"),
    ];
    let mach = |scen: &str| {
        env.machine_with(p, |c| {
            c.contention = ContentionMode::Queued;
            match scen {
                "sick" => c.fault = FaultMode::parse(sick_spec).expect("valid fault spec"),
                "fat-nodes" => {
                    c.contention = ContentionMode::Fabric;
                    c.cpus_per_node = 8;
                }
                _ => {}
            }
        })
    };
    let serve_cfg = |scen: &str| -> ServeConfig {
        ServeConfig {
            skew: if scen == "skewed" { 3.0 } else { 1.0 },
            ..base.clone()
        }
    };

    let mut out = format!(
        "Q1: KV-serving tail latency at P={p}, {} requests per cell\n\
         (open-loop clients, mean inter-arrival {} ns/PE, {}-key table,\n\
         256 B values; latency = virtual time from arrival to completion,\n\
         deterministic schedule everywhere)\n\n",
        base.requests, base.mean_gap_ns, base.keys,
    );
    let mut rows = Vec::new();
    let mut total_requests = 0u64;
    // p99 per (scenario, model) for the degradation assertions.
    let mut p99 = vec![[0u64; 3]; scenarios.len()];
    let mut queued = vec![[0u64; 3]; scenarios.len()];
    let mut skew_report = String::new();
    let mut sick_report = String::new();
    for (si, (scen, _)) in scenarios.iter().enumerate() {
        let cfg = serve_cfg(scen);
        let mut checksums = [0.0f64; 3];
        for (mi, &model) in Model::ALL.iter().enumerate() {
            let r = env.run(mach(scen), Workload::Serve(&cfg), model, det.clone());
            let s = r.serve.as_ref().expect("serving run carries ServeStats");
            assert_eq!(s.issued, cfg.requests, "every request admitted");
            assert_eq!(s.completed, cfg.requests, "no shedding without deadline");
            assert_eq!(
                r.counters.requests_served, s.completed,
                "every completed request was served exactly once"
            );
            total_requests += s.completed;
            checksums[mi] = r.checksum;
            p99[si][mi] = s.p99_ns;
            let net = r.net.as_ref().expect("contended run reports NetStats");
            queued[si][mi] = net.queued_ns;
            if *scen == "skewed" && model == Model::Shmem {
                skew_report = r
                    .net_report
                    .clone()
                    .expect("contended run renders hotspots");
            }
            if *scen == "sick" && model == Model::Sas {
                let net = r.net.as_ref().expect("sick run reports NetStats");
                assert_eq!(net.dead_links, 1, "the kill must register");
                assert_eq!(net.degraded_links, 1, "the degrade must register");
                assert!(net.detoured_transfers > 0, "traffic must detour the cut");
                sick_report = r.net_report.clone().expect("sick run renders hotspots");
            }
            rows.push(vec![
                format!("{} / {}", scen, model.name()),
                s.p50_ns.to_string(),
                s.p99_ns.to_string(),
                s.p999_ns.to_string(),
                s.max_ns.to_string(),
                format!("{:.0}", s.throughput_rps),
            ]);
        }
        assert_eq!(checksums[0], checksums[1], "{scen}: MP vs SHMEM data");
        assert_eq!(checksums[1], checksums[2], "{scen}: SHMEM vs CC-SAS data");
    }
    out.push_str(&render(
        &cells(&[
            "scenario / model",
            "p50 ns",
            "p99 ns",
            "p999 ns",
            "max ns",
            "req/s",
        ]),
        &rows,
    ));
    out.push_str(&format!(
        "\nTotal simulated client requests: {total_requests}\n"
    ));
    if !env.quick {
        assert!(
            total_requests >= 1_000_000,
            "the full suite must serve at least a million requests"
        );
    }

    // Skew must light up the fabric: piling a third of all traffic onto
    // shard 0's node queues its links far beyond the uniform run (the
    // hotspot table below names the ports).
    assert!(
        queued[1][1] > queued[0][1],
        "skewed SHMEM must queue more than uniform ({} vs {} ns)",
        queued[1][1],
        queued[0][1]
    );

    // The acceptance property: under the sick fabric (slow bristle into
    // node 0 plus a dead router port) MP's p99 degrades *less* than
    // CC-SAS's. An MP lookup pushes one 8-byte request through the sick
    // port and its 256-byte reply leaves node 0 on healthy links, while a
    // CC-SAS lookup drags every missing cache line through it at 8x
    // occupancy — so the coherence traffic, not the message traffic,
    // inherits the queue.
    let mp_deg = p99[2][0] as f64 / p99[0][0].max(1) as f64;
    let sh_deg = p99[2][1] as f64 / p99[0][1].max(1) as f64;
    let sas_deg = p99[2][2] as f64 / p99[0][2].max(1) as f64;
    assert!(
        mp_deg < sas_deg,
        "MP p99 must degrade less than CC-SAS under the sick fabric \
         (MP {mp_deg:.2}x vs CC-SAS {sas_deg:.2}x)"
    );
    out.push_str(&format!(
        "\np99 degradation under the sick fabric (sick p99 / healthy p99):\n  \
         MPI {mp_deg:.2}x, SHMEM {sh_deg:.2}x, CC-SAS {sas_deg:.2}x — one small request\n  \
         message amortises the slow port; per-line coherence fills pay it on\n  \
         every miss.\n"
    ));

    out.push_str(&format!(
        "\nSHMEM link hotspots with key skew 3.0 (shard 0's node saturates):\n{skew_report}"
    ));
    out.push_str(&format!(
        "\nCC-SAS link hotspots on the sick fabric (the degraded bristle and\n\
         the detoured traffic are annotated in place):\n{sick_report}"
    ));
    out
}

fn q2_mitigation(env: &Env) -> String {
    use o2k_serve::Mitigation;

    // Q2: hot-shard mitigation at scale. The Q1 skew scenario rerun on
    // the event core at P up to 1024, crossing skew x mitigation x model.
    // Replicated reads fan a hot shard's lookups over R deterministic
    // helper copies (SHMEM ships symmetric-heap copies at an epoch gate;
    // CC-SAS re-homes the hot shard's pages so coherence does the
    // fan-out; MP replica PEs join the REQ/REP mailbox protocol), and MP
    // work-stealing lets idle PEs claim request batches straight out of
    // the hot owner's mailbox. Everything runs the deterministic
    // schedule, so each cell replays bitwise — and with uniform keys the
    // mitigation plan is empty, which must leave runs *bitwise identical*
    // to mitigation off.
    let ps: Vec<usize> = env.pick(vec![64], vec![64, 256, 1024]);
    let mk_cfg = |p: usize, skew: f64, mitigation: Mitigation| ServeConfig {
        keys: 64 * p,
        requests: 32 * p as u64,
        mean_gap_ns: 15_000,
        skew,
        val_words: 64,
        service_ns: 1_500,
        deadline_ns: None,
        poll_ns: 4_000,
        seed: 0x00C0_FFEE,
        mitigation,
        // Clients start only after the table build and any replica-copy
        // epoch, so the measured window is pure steady-state serving.
        start_ns: 600_000,
    };
    const REPL: Mitigation = Mitigation::Replicate { replicas: 3 };
    let det_event = RunOpts {
        exec: Some(ExecMode::Event),
        ..env.det()
    };
    let grid: [(Model, Mitigation, &str); 7] = [
        (Model::Mp, Mitigation::Off, "MPI / off"),
        (Model::Mp, REPL, "MPI / replicate"),
        (Model::Mp, Mitigation::Steal, "MPI / steal"),
        (Model::Shmem, Mitigation::Off, "SHMEM / off"),
        (Model::Shmem, REPL, "SHMEM / replicate"),
        (Model::Sas, Mitigation::Off, "CC-SAS / off"),
        (Model::Sas, REPL, "CC-SAS / replicate"),
    ];

    let mut out = format!(
        "Q2: hot-shard mitigation under key skew, event core, P up to {top}\n\
         (64 keys and 32 requests per PE, mean inter-arrival 15000 ns/PE,\n\
         64 B values, service 1500 ns; skew 3.0 piles ~25-35% of all traffic\n\
         onto the first shards; replicate = 3 helper copies, deterministic\n\
         demand-hash fan-out; steal = idle PEs claim request batches from\n\
         hot owners' mailboxes at virtual time)\n\n",
        top = ps.last().unwrap(),
    );
    let mut rows = Vec::new();
    let mut factors = String::new();
    for &p in &ps {
        for &skew in &[1.0f64, 3.0] {
            let mut baseline: Option<RunMetrics> = None;
            // Off-cell metrics per model for the bitwise and p99 checks.
            let mut off: Vec<(Model, RunMetrics)> = Vec::new();
            for &(model, mit, label) in &grid {
                let cfg = mk_cfg(p, skew, mit);
                let queued = env.machine_with(p, |c| c.contention = ContentionMode::Queued);
                let r = env.run(queued, Workload::Serve(&cfg), model, det_event.clone());
                let s = r.serve.as_ref().expect("serving run carries ServeStats");
                assert_eq!(s.issued, cfg.requests, "{label}: every request admitted");
                assert_eq!(
                    s.issued,
                    s.completed + s.failed,
                    "{label}: request conservation"
                );
                assert_eq!(s.failed, 0, "{label}: no shedding without a deadline");
                assert_eq!(
                    r.counters.requests_served, s.completed,
                    "{label}: every request served exactly once"
                );
                if let Some(b) = &baseline {
                    let bs = b.serve.as_ref().unwrap();
                    assert_eq!(
                        r.checksum.to_bits(),
                        b.checksum.to_bits(),
                        "P={p} skew={skew} {label}: same data served"
                    );
                    assert_eq!(
                        s.shard_counts, bs.shard_counts,
                        "P={p} skew={skew} {label}: demand is keyed by true owner"
                    );
                } else {
                    baseline = Some(r.clone());
                }
                match mit {
                    Mitigation::Off => {}
                    Mitigation::Replicate { .. } if skew > 1.0 => assert!(
                        r.counters.replica_bytes > 0,
                        "{label}: skewed replicate cell must ship copies"
                    ),
                    Mitigation::Steal if skew > 1.0 => assert!(
                        r.counters.requests_stolen > 0,
                        "{label}: skewed steal cell must steal"
                    ),
                    _ => {
                        // Uniform keys: nothing is hot, the plan is empty,
                        // and the run must be bitwise the off run.
                        let (_, b) = off
                            .iter()
                            .find(|(m, _)| *m == model)
                            .expect("off cell runs first per model");
                        assert_eq!(
                            r.sim_time, b.sim_time,
                            "{label}: empty plan must not move the clock"
                        );
                        assert_eq!(r.checksum.to_bits(), b.checksum.to_bits());
                        assert_eq!(
                            r.sched.as_ref().map(|s| s.fingerprint),
                            b.sched.as_ref().map(|s| s.fingerprint),
                            "{label}: empty plan must replay the off schedule"
                        );
                        assert_eq!(r.counters.replica_bytes, 0, "{label}");
                        assert_eq!(r.counters.requests_stolen, 0, "{label}");
                    }
                }
                if matches!(mit, Mitigation::Off) {
                    off.push((model, r.clone()));
                }
                rows.push(vec![
                    format!("{p} / {skew} / {label}"),
                    s.p50_ns.to_string(),
                    s.p99_ns.to_string(),
                    s.max_ns.to_string(),
                    r.counters.requests_stolen.to_string(),
                    (r.counters.replica_bytes / 1024).to_string(),
                ]);
                if skew > 1.0 && !matches!(mit, Mitigation::Off) {
                    let off_p99 = off
                        .iter()
                        .find(|(m, _)| *m == model)
                        .map(|(_, b)| b.serve.as_ref().unwrap().p99_ns)
                        .unwrap();
                    let cut = off_p99 as f64 / s.p99_ns.max(1) as f64;
                    factors.push_str(&format!(
                        "  P={p}: {label} cuts skewed p99 {cut:.2}x \
                         ({off_p99} -> {} ns)\n",
                        s.p99_ns
                    ));
                    // The acceptance property: at the top of the sweep,
                    // every MP and SHMEM mitigation must beat off.
                    if p == *ps.last().unwrap() && model != Model::Sas {
                        assert!(
                            s.p99_ns < off_p99,
                            "P={p} {label}: mitigation must cut skewed p99 \
                             ({} vs off {off_p99} ns)",
                            s.p99_ns
                        );
                    }
                }
            }
        }
    }
    out.push_str(&render(
        &cells(&[
            "P / skew / model / mitigation",
            "p50 ns",
            "p99 ns",
            "max ns",
            "stolen",
            "repl KiB",
        ]),
        &rows,
    ));
    out.push_str(&format!(
        "\nSkewed-tail p99 cut by mitigation (off p99 / mitigated p99):\n{factors}\
         \nUniform-key cells with mitigation on are bitwise identical to off\n\
         (empty plan: no extra messages, charges, or schedule points), and\n\
         every cell serves bit-identical data — the checksum and per-shard\n\
         demand vector match across all models and mitigation modes.\n"
    ));
    out
}

fn e1_scale(env: &Env) -> String {
    use parallel::THREAD_PE_CAP;

    // E1: event-core scaling. The thread backend stops at the OS-thread
    // cap ([`parallel::THREAD_PE_CAP`]); the event core runs every PE as
    // a coroutine on one thread and carries the same deterministic
    // schedules to P = 1024. This table is simulated time only, so it
    // replays bitwise.
    let pes: Vec<usize> = env.pick(vec![16, 64, 256], vec![64, 256, 1024]);
    let nb = NBodyConfig {
        n: env.pick(512, 4_096),
        steps: 2,
        ..NBodyConfig::default()
    };
    let am = AmrConfig {
        nx: env.pick(32, 64),
        ny: env.pick(32, 64),
        steps: env.pick(1, 2),
        sweeps: env.pick(1, 2),
        ..AmrConfig::default()
    };
    // SHMEM serving scales one-sidedly (no per-pair DONE protocol), so it
    // is the model that meaningfully reaches 1024 shards.
    let sv = ServeConfig {
        keys: env.pick(16_384, 65_536),
        requests: env.pick(2_048, 8_192),
        seed: 0x00C0_FFEE,
        ..ServeConfig::default()
    };
    let on = |exec: ExecMode| RunOpts {
        exec: Some(exec),
        ..env.det()
    };
    let (event, thread) = (on(ExecMode::Event), on(ExecMode::Thread));

    let workloads = [
        (Workload::NBody(&nb), Model::Mp, "N-body / MPI"),
        (Workload::Amr(&am), Model::Mp, "AMR / MPI"),
        (Workload::Serve(&sv), Model::Shmem, "KV-serve / SHMEM"),
    ];

    let mut out = format!(
        "E1: event-core scaling to P={top} (deterministic schedule, simulated\n\
         time; the thread backend is capped at {cap} OS threads, so past that\n\
         only the event core can run the team)\n\n",
        top = pes.last().unwrap(),
        cap = THREAD_PE_CAP,
    );

    let p0 = pes[0];
    let mut rows = Vec::new();
    for (workload, model, wl) in workloads {
        for &p in &pes {
            let run = |opts| env.run(env.machine(p), workload, model, opts);
            let r = run(event.clone());
            assert!(r.sim_time > 0, "{wl} at P={p} must do work");
            let s = r.sched.expect("det runs carry SchedStats");
            if p == p0 {
                // Anchor: where both backends can run, the event core must
                // reproduce the thread run bitwise — same simulated time,
                // same physics, same pick sequence.
                let t = run(thread.clone());
                assert_eq!(t.sim_time, r.sim_time, "{wl}: sim time must match");
                assert_eq!(
                    t.checksum.to_bits(),
                    r.checksum.to_bits(),
                    "{wl}: checksum must match bitwise"
                );
                let ts = t.sched.expect("det runs carry SchedStats");
                assert_eq!(ts.fingerprint, s.fingerprint, "{wl}: same pick sequence");
                assert_eq!(ts.switches, s.switches, "{wl}: same handoff count");
                out.push_str(&format!(
                    "  P={p0} {wl}: thread and event backends agree bitwise \
                     (fingerprint {:016x})\n",
                    s.fingerprint
                ));
            }
            rows.push(vec![
                wl.to_string(),
                p.to_string(),
                ms(r.sim_time),
                format!("{:.6e}", r.checksum),
                format!("{:016x}", s.fingerprint),
                s.switches.to_string(),
            ]);
        }
    }
    out.push('\n');
    out.push_str(&render(
        &cells(&[
            "workload",
            "P",
            "sim ms",
            "checksum",
            "schedule fingerprint",
            "switches",
        ]),
        &rows,
    ));
    if pes.last().copied().unwrap_or(0) > THREAD_PE_CAP {
        out.push_str(&format!(
            "\nP={} exceeds the thread cap; those rows ran on the event core\n\
             alone (one OS thread, {} coroutine stacks).\n",
            pes.last().unwrap(),
            pes.last().unwrap()
        ));
    }
    out
}

fn c1_warm_start(env: &Env) -> String {
    use std::time::Instant;

    use o2k_serve::Mitigation;
    use o2k_snap::SnapPoint;

    // C1: warm-starting a scenario sweep from a snapshot. Two prologues
    // are paid once and captured — the AMR mesh converged to its last
    // adaptation step, and the Q1 KV table fully built — then a fault ×
    // contention × policy sweep fans out from the snapshot, each cell
    // running only the tail it actually studies. The from-scratch sweep
    // re-pays the prologue in every cell; the difference is host
    // wall-clock, since a restored run replays the same virtual-time tail.
    //
    // C1 manages its own snapshot directory: every cell sets `snap`
    // itself, so `--snapshot` / `--restore` do not apply here (a restore
    // would warm-start the from-scratch half too).

    let p = 16;
    // Heavy on sweeps: the smoothing sweeps (and their halo exchanges) are
    // exactly the per-step cost a warm start skips, while the adaptation
    // replay it cannot skip stays cheap.
    let am = AmrConfig {
        nx: env.pick(12, 20),
        ny: env.pick(12, 20),
        steps: 8,
        sweeps: 16,
        ..AmrConfig::default()
    };
    // The serving half keeps its Q1 shape but a short tail: a warm start
    // only saves the build phase, so the cells mostly measure that the
    // restore itself is cheap (one symmetric-heap import).
    let sv = ServeConfig {
        keys: env.pick(16_384, 32_768),
        requests: env.pick(1_500, 6_000),
        mean_gap_ns: 25_000,
        skew: 1.0,
        val_words: 32,
        service_ns: 1_500,
        deadline_ns: None,
        poll_ns: 4_000,
        seed: 0x00C0_FFEE,
        mitigation: Mitigation::Off,
        start_ns: 0,
    };
    // AMR captures right before its last step: the mesh has converged
    // through steps-1 adaptations and only the final solve tail remains.
    let amr_gate = SnapPoint {
        name: "step".into(),
        index: (am.steps - 1) as u64,
    };
    let serve_gate = SnapPoint {
        name: "warm".into(),
        index: 0,
    };

    let faults: [(&str, &str); 3] = [
        ("healthy", "off"),
        ("slow", "plan:down0:deg8"),
        ("slow+dead", "plan:down0:deg8;r0d0:kill"),
    ];
    let policies: [(&str, SchedPolicy); 2] = [
        ("det", SchedPolicy::Det),
        ("explore:11", SchedPolicy::Explore { seed: 11 }),
    ];
    let conts: [(&str, ContentionMode); 2] = [
        ("queued", ContentionMode::Queued),
        ("fabric", ContentionMode::Fabric),
    ];
    // The sweep: AMR crosses all three axes (12 cells); serving crosses
    // fault × policy on the queued fabric (6 cells). 18 cells total.
    #[derive(Clone, Copy)]
    struct Cell<'a> {
        wl: (&'static str, Workload<'a>),
        fault: (&'static str, &'static str),
        cont: (&'static str, ContentionMode),
        policy: (&'static str, SchedPolicy),
    }
    let wl_amr = ("amr", Workload::Amr(&am));
    let wl_serve = ("serve", Workload::Serve(&sv));
    let mut sweep = Vec::new();
    for fault in faults {
        for cont in conts {
            for policy in policies {
                sweep.push(Cell {
                    wl: wl_amr,
                    fault,
                    cont,
                    policy,
                });
            }
        }
        for policy in policies {
            sweep.push(Cell {
                wl: wl_serve,
                fault,
                cont: conts[0],
                policy,
            });
        }
    }

    let mach = |cont: ContentionMode, fault: &str| {
        env.machine_with(p, |c| {
            c.contention = cont;
            c.fault = FaultMode::parse(fault).expect("valid fault spec");
        })
    };
    let run = |c: &Cell, snap: Option<SnapSpec>| -> RunMetrics {
        let m = mach(c.cont.1, c.fault.1);
        let opts = RunOpts {
            sched: Some(c.policy.1),
            snap,
            ..env.opts()
        };
        // SHMEM serving restores as one symmetric-heap import; CC-SAS
        // would drag its whole coherence directory through every cell's
        // restore, which costs more than the build it skips.
        env.run(m, c.wl.1, Model::Shmem, opts)
    };

    // --- capture each prologue once ---
    // The two capture runs (and their file writes) are timed apart from
    // the fan-out: they are paid once however many cells follow, and on a
    // fast backend they would otherwise be a third of an 18-cell sweep.
    let snap_dir = std::env::temp_dir().join(format!("o2k-c1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    std::fs::create_dir_all(&snap_dir).expect("create snapshot dir");
    let capture_start = Instant::now();
    let baseline = |wl| Cell {
        wl,
        fault: faults[0],
        cont: conts[0],
        policy: policies[0],
    };
    let cap_amr = run(
        &baseline(wl_amr),
        Some(SnapSpec::Capture {
            dir: snap_dir.clone(),
            point: amr_gate.clone(),
        }),
    );
    let cap_serve = run(
        &baseline(wl_serve),
        Some(SnapSpec::Capture {
            dir: snap_dir.clone(),
            point: serve_gate,
        }),
    );
    let captured = std::fs::read_dir(&snap_dir)
        .expect("snapshot dir readable")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == o2k_snap::EXT))
        })
        .count();
    assert_eq!(captured, 2, "both prologues must have been captured");
    let capture_total = capture_start.elapsed();

    // --- both sweeps: every cell from scratch (paying the full prologue)
    // and from the snapshot, alternately, best of ROUNDS each ---
    // A host-noise burst then lands on both sides of a cell or on one
    // round of it, not on one whole sweep: the cells are deterministic,
    // so every round computes the same run and only its host time varies.
    const ROUNDS: usize = 3;
    let restore = || {
        Some(SnapSpec::Restore {
            dir: snap_dir.clone(),
        })
    };
    let timed = |c: &Cell, snap| {
        let t = Instant::now();
        let r = run(c, snap);
        (r, t.elapsed())
    };
    let (mut scratch, mut scratch_host) = (Vec::new(), Vec::new());
    let (mut warm, mut warm_host) = (Vec::new(), Vec::new());
    for c in &sweep {
        let (s, mut s_best) = timed(c, None);
        let (w, mut w_best) = timed(c, restore());
        for _ in 1..ROUNDS {
            s_best = s_best.min(timed(c, None).1);
            w_best = w_best.min(timed(c, restore()).1);
        }
        scratch.push(s);
        scratch_host.push(s_best);
        warm.push(w);
        warm_host.push(w_best);
    }
    let scratch_total: std::time::Duration = scratch_host.iter().sum();
    let warm_total: std::time::Duration = warm_host.iter().sum();
    let _ = std::fs::remove_dir_all(&snap_dir);

    // Correctness before speed. Faults, contention modes and cooperative
    // schedules move virtual time, never the physics — so every cell's
    // checksum must be bitwise identical between the warm-started run and
    // its from-scratch twin.
    for (i, c) in sweep.iter().enumerate() {
        assert_eq!(
            warm[i].checksum.to_bits(),
            scratch[i].checksum.to_bits(),
            "{}/{}/{}/{}: warm-start changed the physics",
            c.wl.0,
            c.fault.0,
            c.cont.0,
            c.policy.0
        );
    }
    // On the cells matching the capture conditions the restored run must
    // replay the straight run's tail *exactly*: capture run, warm run and
    // from-scratch run agree on time, counters and pick sequence.
    for (wl, cap) in [("amr", &cap_amr), ("serve", &cap_serve)] {
        let i = sweep
            .iter()
            .position(|c| {
                c.wl.0 == wl
                    && c.fault.0 == "healthy"
                    && c.cont.0 == "queued"
                    && c.policy.0 == "det"
            })
            .expect("baseline cell present");
        for (kind, r) in [("capture", cap), ("warm", &warm[i])] {
            assert_eq!(
                r.checksum.to_bits(),
                scratch[i].checksum.to_bits(),
                "{wl} {kind}: checksum"
            );
            assert_eq!(r.sim_time, scratch[i].sim_time, "{wl} {kind}: sim time");
            assert_eq!(r.counters, scratch[i].counters, "{wl} {kind}: counters");
            assert_eq!(
                r.sched.as_ref().map(|s| s.fingerprint),
                scratch[i].sched.as_ref().map(|s| s.fingerprint),
                "{wl} {kind}: schedule fingerprint"
            );
        }
    }

    // The bar is on the fan-out, cell sums against cell sums; what the
    // captures cost, and how many cells repay them, is reported beside it.
    let ratio = scratch_total.as_secs_f64() / warm_total.as_secs_f64().max(1e-9);
    assert!(
        ratio > 1.5,
        "warm-starting the sweep must beat from-scratch clearly \
         (got {ratio:.2}x; from-scratch {scratch_total:.2?}, warm {warm_total:.2?})"
    );
    let saved_per_cell =
        (scratch_total.as_secs_f64() - warm_total.as_secs_f64()) / sweep.len() as f64;
    let repaid_after = (capture_total.as_secs_f64() / saved_per_cell).ceil();
    let with_captures =
        scratch_total.as_secs_f64() / (warm_total + capture_total).as_secs_f64().max(1e-9);

    let mut out = format!(
        "C1: warm-starting a {n}-cell sweep from snapshots at P={p}\n\
         (AMR/SHMEM captured at gate step:{amr_at} — the converged mesh before\n\
         its final solve step — and KV-serve/SHMEM at gate warm — the built\n\
         table before the first request; each warm cell restores that state\n\
         and runs only its tail under its own fault, contention and schedule.\n\
         Host wall-clock; virtual-time results are asserted identical to the\n\
         from-scratch twin cell by cell)\n\n",
        n = sweep.len(),
        amr_at = amr_gate.index,
    );
    let host_ms = |d: &std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
    let mut rows = Vec::new();
    for (i, c) in sweep.iter().enumerate() {
        rows.push(vec![
            format!("{} / {} / {}", c.wl.0, c.fault.0, c.cont.0),
            c.policy.0.to_string(),
            host_ms(&scratch_host[i]),
            host_ms(&warm_host[i]),
            x2(scratch_host[i].as_secs_f64() / warm_host[i].as_secs_f64().max(1e-9)),
        ]);
    }
    out.push_str(&render(
        &cells(&[
            "cell (workload / fault / fabric)",
            "sched",
            "from-scratch ms",
            "from-snapshot ms",
            "speedup",
        ]),
        &rows,
    ));
    out.push_str(&format!(
        "\nFan-out wall-clock, {n} cells: from-scratch {scratch_total:.2?} vs from-snapshot\n\
         {warm_total:.2?} — fan-out speedup {ratio:.2}x.\n\
         Capture cost: {capture_total:.2?} for both prologues, paid once and repaid after {repaid_after}\n\
         cells of this mix (counted in, the sweep reads {with_captures:.2}x).\n\
         Both baseline cells replay the capture run's tail bitwise\n\
         (checksum, counters, schedule fingerprint), and all {n} cells keep\n\
         their physics unchanged under warm-start.\n",
        n = rows.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        for id in ["t1", "t2", "t3"] {
            let out = run_experiment(id, true);
            assert!(out.len() > 100, "{id} too short:\n{out}");
            assert!(out.contains('\n'));
        }
    }

    #[test]
    fn quick_figures_render() {
        for id in ["f2", "f6", "f7"] {
            let out = run_experiment(id, true);
            assert!(out.len() > 100, "{id} too short");
        }
    }

    #[test]
    fn a_series_render() {
        for id in ["a1", "a2", "a3"] {
            let out = run_experiment(id, true);
            assert!(out.len() > 80, "{id} too short");
        }
    }

    #[test]
    fn a5_tables_have_exactly_the_three_model_columns() {
        let out = run_experiment("a5", true);
        assert!(!out.contains("MPI+SAS"), "{out}");
        let headers: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("workload / machine"))
            .collect();
        assert_eq!(headers.len(), 2, "two tables expected:\n{out}");
        for h in headers {
            let cols: Vec<&str> = h
                .split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .collect();
            assert_eq!(
                cols,
                ["workload / machine", "MPI ms", "SHMEM ms", "CC-SAS ms"]
            );
        }
        let rows: Vec<&str> = out.lines().filter(|l| l.contains(" / ")).collect();
        assert_eq!(rows.len(), 2 + 8, "two headers + 2 × 4 cells:\n{out}");
        for row in rows.iter().filter(|r| !r.starts_with("workload")) {
            let times = row.split_whitespace().filter(|t| t.parse::<f64>().is_ok());
            assert_eq!(times.count(), 3, "{row}");
        }
    }

    #[test]
    fn ids_follow_the_experiment_table() {
        for (i, (id, title, _)) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(EXPERIMENT_IDS[i], *id);
            assert!(
                !title.is_empty() && title != id,
                "{id} needs a report title"
            );
        }
    }

    /// File names (minus extension) of the snapshots in `dir`.
    fn snapshot_tags(dir: &std::path::Path) -> Vec<String> {
        let mut tags: Vec<String> = std::fs::read_dir(dir)
            .expect("snapshot dir exists")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == o2k_snap::EXT))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        tags.sort();
        tags
    }

    fn capture_into(name: &str) -> (PathBuf, Option<SnapSpec>) {
        let dir = std::env::temp_dir().join(format!("o2k-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = SnapSpec::Capture {
            dir: dir.clone(),
            point: o2k_snap::SnapPoint::parse("step:1").unwrap(),
        };
        (dir, Some(spec))
    }

    #[test]
    fn a_snapshot_env_reaches_the_runs_behind_f1() {
        // F1's runs happen inside `sweep_models`; the spec travels there in
        // `env.opts()`, with no process-wide spec to fall back on.
        let (dir, snap) = capture_into("f1-snap");
        let env = Env {
            opts: RunOpts {
                snap,
                ..RunOpts::with_sched(SchedPolicy::Det)
            },
            ..Env::new(true)
        };
        run_experiment_in("f1", &env);
        let tags = snapshot_tags(&dir);
        assert_eq!(tags.len(), 12, "3 models x 4 team sizes: {tags:?}");
        assert!(tags.iter().all(|t| t.starts_with("nbody-")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fault_env_reaches_the_machines_f5_builds() {
        // Snapshot names are keyed by a digest of the machine config, fault
        // plan included — so they show which machines F5 really ran on.
        let (dir, snap) = capture_into("f5-fault");
        let mut env = Env {
            opts: RunOpts {
                snap,
                ..RunOpts::with_sched(SchedPolicy::Det)
            },
            ..Env::new(true)
        };
        env.machine.fault = FaultMode::parse("plan:down0:deg8").unwrap();
        run_experiment_in("f5", &env);
        let digest = |m: &Machine| o2k_snap::fnv1a(format!("{:?}", m.config).as_bytes());
        let tags = snapshot_tags(&dir);
        assert_eq!(tags.len(), 24, "2 apps x 3 models x 4 team sizes: {tags:?}");
        for tag in &tags {
            let p = sweep_pes(&env)
                .into_iter()
                .find(|p| tag.contains(&format!("-p{p}-")))
                .expect("a tag names its team size");
            assert!(
                tag.ends_with(&format!("-m{:016x}", digest(&env.machine(p)))),
                "{tag} was not captured on a machine carrying the env's fault plan"
            );
        }
        let healthy = digest(&Env::new(true).machine(4));
        assert_ne!(
            healthy,
            digest(&env.machine(4)),
            "the plan is in the digest"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        run_experiment("zzz", true);
    }

    #[test]
    fn n1_contention_renders_and_grows() {
        // The experiment itself asserts queueing delay grows with P and
        // that off-mode runs never build a NetSim.
        let out = run_experiment("n1", true);
        assert!(out.contains("queued ms"), "missing sweep table:\n{out}");
        assert!(out.contains("hotspot anatomy"), "missing report:\n{out}");
    }

    #[test]
    fn n3_bus_saturation_renders_and_saturates() {
        // The experiment itself asserts CC-SAS per-PE efficiency falls
        // monotonically with node width, that MP degrades strictly less,
        // and that the top hotspots name a bus or hub resource.
        let out = run_experiment("n3", true);
        assert!(out.contains("per-PE efficiency"), "missing sweep:\n{out}");
        assert!(
            out.contains("bus") && out.contains("hub"),
            "missing kind breakdown:\n{out}"
        );
    }

    #[test]
    fn q1_serving_renders_and_degrades_gracefully() {
        // The experiment itself asserts request conservation, cross-model
        // checksum equality per scenario, the skew hotspot, and that MP's
        // p99 degrades less than CC-SAS's under the sick fabric.
        let out = run_experiment("q1", true);
        assert!(out.contains("p99 ns"), "missing latency table:\n{out}");
        assert!(
            out.contains("Total simulated client requests"),
            "missing request count:\n{out}"
        );
        assert!(
            out.contains("p99 degradation under the sick fabric"),
            "missing degradation summary:\n{out}"
        );
        assert!(
            out.contains("[deg8]"),
            "hotspot report must mark the sick port:\n{out}"
        );
    }

    #[test]
    fn q2_mitigation_cuts_the_skewed_tail() {
        // The experiment itself asserts request conservation, cross-cell
        // checksum and shard-demand equality, that uniform-key cells with
        // mitigation on replay the off cell bitwise (empty plan), and
        // that every MP and SHMEM mitigation beats off on skewed p99 at
        // the top of the sweep.
        let out = run_experiment("q2", true);
        assert!(out.contains("p99 ns"), "missing latency table:\n{out}");
        assert!(
            out.contains("cuts skewed p99"),
            "missing mitigation factors:\n{out}"
        );
        assert!(
            out.contains("bitwise identical to off"),
            "missing inertness summary:\n{out}"
        );
    }

    #[test]
    fn e1_scales_on_the_event_core_and_anchors_to_threads() {
        // The experiment itself asserts that at the smallest P the thread
        // and event backends agree bitwise (sim time, checksum bits,
        // schedule fingerprint, handoff count) and that every larger P
        // completes on the event core.
        let out = run_experiment("e1", true);
        assert!(
            out.contains("agree bitwise"),
            "missing cross-backend anchor:\n{out}"
        );
        assert!(
            out.contains("schedule fingerprint"),
            "missing scaling table:\n{out}"
        );
        assert!(
            out.contains("256"),
            "must reach the top of the sweep:\n{out}"
        );
    }

    #[test]
    #[ignore = "runs every quick C1 cell three times from scratch and three times warm (minutes unoptimised); CI runs `repro c1 --quick` in release"]
    fn c1_warm_start_renders_and_wins() {
        // The experiment itself asserts both prologues were captured, that
        // every warm cell's physics matches its from-scratch twin, that the
        // baseline cells replay the capture run bitwise, and that the
        // snapshot fan-out beats from-scratch on host wall-clock.
        let out = run_experiment("c1", true);
        assert!(out.contains("18-cell sweep"), "missing sweep size:\n{out}");
        assert!(
            out.contains("from-snapshot ms"),
            "missing wall-clock table:\n{out}"
        );
        assert!(
            out.contains("fan-out speedup"),
            "missing speedup summary:\n{out}"
        );
        assert!(
            out.contains("Capture cost:") && out.contains("repaid after"),
            "missing the capture cost and its break-even:\n{out}"
        );
    }

    #[test]
    fn n2_fault_renders_and_recovers() {
        // The experiment itself asserts the physics never moves, that
        // traffic detours around the cut, and that MP retains more
        // throughput than CC-SAS under the faulted fabric.
        let out = run_experiment("n2", true);
        assert!(out.contains("slow+dead"), "missing fault table:\n{out}");
        assert!(
            out.contains("throughput retained"),
            "missing recovery summary:\n{out}"
        );
        assert!(
            out.contains("[deg8]"),
            "hotspot report must annotate the degraded link:\n{out}"
        );
    }
}
