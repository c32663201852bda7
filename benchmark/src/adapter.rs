//! The one file of the benchmark that names the repository's APIs.
//!
//! Everything else in this crate speaks in the plain types below (`Cell`,
//! `RunOut`, `Counts`, `Probe`), so when the repository folds its `run*`
//! spellings or deletes the exec-backend plumbing (ROADMAP items 2–3), this
//! file is the only one that has to follow.
//!
//! Two kinds of thing live here:
//!
//! * **cells** — one timed call into the repository (`run_experiment`,
//!   `run_app_opts`, `o2k_serve::run_opts`), reduced to what the harness
//!   checks and counts;
//! * **probes** — host-time micro-measurements of single layers' public
//!   functions, at the workload's team size and contention mode.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use origin2k::apps::{self, AmrConfig, App, NBodyConfig, RunMetrics, RunOpts};
use origin2k::machine::{ContentionMode, Machine, MachineConfig, Topology};
use origin2k::mesh::adaptive::AdaptiveMesh;
use origin2k::mesh::indicator::adapt_step;
use origin2k::mp::{MpWorld, RecvSpec};
use origin2k::nbody::{force::accel_at, plummer::plummer, Octree, Vec3};
use origin2k::net::NetSim;
use origin2k::parallel::{Ctx, ExecMode, SchedPolicy, Team};
use origin2k::partition::{rcb_partition, WeightedPoint};
use origin2k::sas::cache::{line_tag, CacheSim, Probe as CacheProbe};
use origin2k::sas::SasWorld;
use origin2k::sched::{self, coro, PeHeap};
use origin2k::serve::{self, clients, hist::LatencyHist, Mitigation, ServeConfig};
use origin2k::shmem::{SymSlice, SymWorld};

// ---------------------------------------------------------------------------
// Plain types the rest of the benchmark uses
// ---------------------------------------------------------------------------

/// The paper's three programming models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Mp,
    Shmem,
    Sas,
}

impl Model {
    pub const ALL: [Model; 3] = [Model::Mp, Model::Shmem, Model::Sas];

    pub fn name(self) -> &'static str {
        match self {
            Model::Mp => "mp",
            Model::Shmem => "shmem",
            Model::Sas => "sas",
        }
    }

    fn repo(self) -> apps::Model {
        match self {
            Model::Mp => apps::Model::Mp,
            Model::Shmem => apps::Model::Shmem,
            Model::Sas => apps::Model::Sas,
        }
    }
}

/// Hot-shard mitigation of a serving cell.
#[derive(Debug, Clone, Copy)]
pub enum HotShard {
    Off,
    Steal,
    Replicate(usize),
}

/// Exact counts one run produced, by layer. Sums are meaningful.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub switches: u64,
    pub handoffs: u64,
    pub barriers: u64,
    pub lock_acquires: u64,
    pub net_transfers: u64,
    pub net_links: u64,
    pub net_queued_ns: u64,
    pub msgs: u64,
    pub msg_bytes: u64,
    pub puts: u64,
    pub gets: u64,
    pub amos: u64,
    pub cache_hits: u64,
    pub misses_local: u64,
    pub misses_remote: u64,
    pub invalidations: u64,
    pub requests: u64,
    pub stolen: u64,
    pub replica_bytes: u64,
    pub failed: u64,
    /// Virtual time by category, summed over PEs (ns).
    pub busy_ns: u64,
    pub local_ns: u64,
    pub remote_ns: u64,
    pub sync_ns: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        macro_rules! sum { ($($f:ident),*) => { $( self.$f += o.$f; )* } }
        sum!(
            switches,
            handoffs,
            barriers,
            lock_acquires,
            net_transfers,
            net_links,
            net_queued_ns,
            msgs,
            msg_bytes,
            puts,
            gets,
            amos,
            cache_hits,
            misses_local,
            misses_remote,
            invalidations,
            requests,
            stolen,
            replica_bytes,
            failed,
            busy_ns,
            local_ns,
            remote_ns,
            sync_ns
        );
    }
}

/// What the serving workload adds to a run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOut {
    pub requested: u64,
    pub issued: u64,
    pub completed: u64,
    pub failed: u64,
    /// FNV-1a over the per-shard request counts.
    pub shard_hash: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
}

/// One run of the repository's code, reduced to a few words: small enough
/// that keeping every pass's outcome does not move the allocation peak.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunOut {
    /// Simulated makespan (ns); 0 when the run exposes none.
    pub sim_ns: u64,
    /// `SchedStats::fingerprint` of the schedule taken; 0 when none.
    pub fingerprint: u64,
    /// Physics / data checksum.
    pub checksum: f64,
    pub serve: Option<ServeOut>,
    /// `(hash, length)` of rendered text, for runs that return text.
    pub text: Option<(u64, usize)>,
    pub counts: Counts,
}

pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn reduce(m: &RunMetrics) -> RunOut {
    let c = &m.counters;
    let b = m.breakdown();
    let net = m.net.as_ref();
    RunOut {
        sim_ns: m.sim_time,
        fingerprint: m.sched.map_or(0, |s| s.fingerprint),
        checksum: m.checksum,
        serve: m.serve.as_ref().map(|s| ServeOut {
            requested: m.problem_size as u64,
            issued: s.issued,
            completed: s.completed,
            failed: s.failed,
            shard_hash: fnv1a(s.shard_counts.iter().flat_map(|n| n.to_le_bytes())),
            p50_ns: s.p50_ns,
            p99_ns: s.p99_ns,
            p999_ns: s.p999_ns,
        }),
        text: None,
        counts: Counts {
            switches: m.sched.map_or(0, |s| s.switches),
            handoffs: c.sched_handoffs,
            barriers: c.barriers,
            lock_acquires: c.lock_acquires,
            net_transfers: net.map_or(0, |n| n.transfers),
            net_links: c.net_links,
            net_queued_ns: net.map_or(0, |n| n.total_queued_ns()),
            msgs: c.msgs_sent,
            msg_bytes: c.msg_bytes,
            puts: c.puts,
            gets: c.gets,
            amos: c.amos,
            cache_hits: c.cache_hits,
            misses_local: c.misses_local,
            misses_remote: c.misses_remote,
            invalidations: c.invalidations,
            requests: c.requests_served,
            stolen: c.requests_stolen,
            replica_bytes: c.replica_bytes,
            failed: m.serve.as_ref().map_or(0, |s| s.failed),
            busy_ns: b.busy,
            local_ns: b.local,
            remote_ns: b.remote,
            sync_ns: b.sync,
        },
    }
}

/// How the runs of a group of cells must agree with each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agree {
    /// No cross-cell check (each `repro` id stands alone).
    Alone,
    /// Checksums (and, for serving, shard counts) equal bit for bit.
    Bitwise,
    /// Checksums within this relative tolerance of the group's first cell
    /// (`tests/cross_model.rs` uses 0.02 for N-body: the models build
    /// different trees, so their force approximations differ slightly).
    Within(f64),
}

/// Host-side substrate work a cell does that no run counter reports; known
/// from the cell's configuration (every PE adapts and partitions its own
/// replica of the mesh; every body gets one force evaluation per step).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubstrateOps {
    pub force_evals: u64,
    pub mesh_adapts: u64,
    pub partitions: u64,
}

/// One named, timed unit of a pass. A cell may make several runs (the N-body
/// cells run one per body set); their outcomes are checked one by one.
pub struct Cell {
    pub name: String,
    /// Cells sharing a group ran the same problem and must agree.
    pub group: &'static str,
    pub agree: Agree,
    pub substrate: SubstrateOps,
    run: Box<dyn Fn() -> Vec<RunOut>>,
}

impl Cell {
    pub fn run(&self) -> Vec<RunOut> {
        (self.run)()
    }
}

fn machine(pes: usize, contention: ContentionMode) -> Arc<Machine> {
    Arc::new(Machine::new(pes, machine_config(contention)))
}

fn machine_config(contention: ContentionMode) -> MachineConfig {
    MachineConfig {
        contention,
        ..MachineConfig::origin2000()
    }
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// What `repro`'s `main` does before its first experiment — and only the
/// part that is not a backend choice: the exec backend stays whatever the
/// process default is, so that flipping that default shows in `repro-quick`.
pub fn repro_process_defaults() {
    sched::set_default_policy(SchedPolicy::Det);
}

/// Whether a cell that names no backend runs on OS threads today. The
/// reconciliation prices such a cell's switches with the matching probe.
pub fn ambient_backend_is_threads() -> bool {
    sched::default_exec() == ExecMode::Thread
}

/// `run_experiment(id, quick = true)`: the text is the result.
pub fn repro_cell(id: &'static str) -> Cell {
    Cell {
        name: id.to_string(),
        group: id,
        agree: Agree::Alone,
        substrate: SubstrateOps::default(),
        run: Box::new(move || {
            let text = o2k_bench::run_experiment(id, true);
            vec![RunOut {
                text: Some((fnv1a(text.bytes()), text.len())),
                ..RunOut::default()
            }]
        }),
    }
}

/// Experiment Q1's quick configuration (P = 16, queued fabric, uniform keys)
/// at a fraction of its requests, on ambient defaults: Q1 itself is 8 s of
/// the 25 s `repro all --quick`, too long to repeat inside one run, so this
/// stands in for its share of the thread-backend cost.
pub fn ambient_serve_cell(model: Model, requests: u64) -> Cell {
    let cfg = ServeConfig {
        keys: 8_192,
        requests,
        seed: 0x00C0_FFEE,
        ..ServeConfig::default()
    };
    Cell {
        name: format!("q1lite-{}", model.name()),
        group: "q1lite",
        agree: Agree::Bitwise,
        substrate: SubstrateOps::default(),
        run: Box::new(move || {
            let m = machine(16, ContentionMode::Queued);
            vec![reduce(&serve::run_opts(
                m,
                model.repo(),
                &cfg,
                RunOpts::default(),
            ))]
        }),
    }
}

pub struct ServeShape {
    pub pes: usize,
    pub requests_per_pe: u64,
    pub seed: u64,
}

/// One KV-serve cell on the full fabric, det schedule, event core.
pub fn serve_cell(
    name: &str,
    group: &'static str,
    model: Model,
    skew: f64,
    hot: HotShard,
    shape: &ServeShape,
) -> Cell {
    let pes = shape.pes;
    let cfg = serve_config(shape, skew, hot);
    Cell {
        name: name.to_string(),
        group,
        agree: Agree::Bitwise,
        substrate: SubstrateOps::default(),
        run: Box::new(move || {
            let m = machine(pes, ContentionMode::Fabric);
            vec![reduce(&serve::run_opts(
                m,
                model.repo(),
                &cfg,
                RunOpts::det_event(),
            ))]
        }),
    }
}

fn serve_config(shape: &ServeShape, skew: f64, hot: HotShard) -> ServeConfig {
    ServeConfig {
        keys: 64 * shape.pes,
        requests: shape.requests_per_pe * shape.pes as u64,
        mean_gap_ns: 15_000,
        skew,
        val_words: 64,
        start_ns: 600_000,
        seed: shape.seed,
        mitigation: match hot {
            HotShard::Off => Mitigation::Off,
            HotShard::Steal => Mitigation::Steal,
            HotShard::Replicate(replicas) => Mitigation::Replicate { replicas },
        },
        ..ServeConfig::default()
    }
}

/// N-body under one model, contention off (the paper's configuration), one
/// run per body-set seed.
pub fn nbody_cell(model: Model, pes: usize, n: usize, steps: usize, seeds: Vec<u64>) -> Cell {
    Cell {
        name: model.name().to_string(),
        group: "nbody",
        agree: Agree::Within(0.02),
        substrate: SubstrateOps {
            force_evals: (n * steps * seeds.len()) as u64,
            ..SubstrateOps::default()
        },
        run: Box::new(move || {
            seeds
                .iter()
                .map(|&seed| {
                    let cfg = NBodyConfig {
                        n,
                        steps,
                        seed,
                        ..NBodyConfig::default()
                    };
                    reduce(&apps::run_app_opts(
                        machine(pes, ContentionMode::Off),
                        App::NBody,
                        model.repo(),
                        &cfg,
                        &AmrConfig::small(),
                        RunOpts::det_event(),
                    ))
                })
                .collect()
        }),
    }
}

/// AMR under one model on the full fabric.
pub fn amr_cell(
    model: Model,
    pes: usize,
    nx: usize,
    steps: usize,
    sweeps: usize,
    seed: u64,
) -> Cell {
    let cfg = AmrConfig {
        nx,
        ny: nx,
        steps,
        sweeps,
        seed,
        ..AmrConfig::default()
    };
    Cell {
        name: model.name().to_string(),
        group: "amr",
        agree: Agree::Bitwise,
        substrate: SubstrateOps {
            mesh_adapts: (pes * steps) as u64,
            partitions: (pes * steps) as u64,
            ..SubstrateOps::default()
        },
        run: Box::new(move || {
            vec![reduce(&apps::run_app_opts(
                machine(pes, ContentionMode::Fabric),
                App::Amr,
                model.repo(),
                &NBodyConfig::small(),
                &cfg,
                RunOpts::det_event(),
            ))]
        }),
    }
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// Where a workload runs: the probes measure each layer there.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSite {
    pub pes: usize,
    /// Full fabric (links + buses + hubs) or contention off.
    pub fabric: bool,
    /// Bodies for the N-body substrate probes.
    pub nbody_n: usize,
    /// Base mesh edge for the mesh / partition probes.
    pub mesh_nx: usize,
}

impl ProbeSite {
    fn contention(&self) -> ContentionMode {
        if self.fabric {
            ContentionMode::Fabric
        } else {
            ContentionMode::Off
        }
    }

    fn machine(&self) -> Arc<Machine> {
        machine(self.pes, self.contention())
    }

    fn event_team(&self) -> Team {
        Team::new(self.machine())
            .sched(SchedPolicy::Det)
            .exec(ExecMode::Event)
    }
}

/// A host-time measurement of one layer operation. `rep(n)` performs the
/// operation `n` times and returns the host time those `n` took (team spawn
/// and input building excluded wherever the operation is not the spawn
/// itself).
pub struct Probe {
    /// Metric name, e.g. `sched.coro_switch_ns`.
    pub name: &'static str,
    /// `ns`, `us` or `ms`: what one operation's cost is reported in.
    pub unit: &'static str,
    pub rep: Box<dyn FnMut(u64) -> Duration>,
}

fn probe(
    name: &'static str,
    unit: &'static str,
    rep: impl FnMut(u64) -> Duration + 'static,
) -> Probe {
    Probe {
        name,
        unit,
        rep: Box::new(rep),
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Host time from the first PE entering its loop to the last PE leaving it.
fn team_span(spans: &[(Instant, Instant)]) -> Duration {
    let start = spans.iter().map(|s| s.0).min().expect("a team has PEs");
    let end = spans.iter().map(|s| s.1).max().expect("a team has PEs");
    end - start
}

/// Every probe, in the order they run. All of them run on every workload:
/// a probe prices a layer at this workload's team size, whether or not the
/// workload leans on that layer (the reconciliation multiplies by the
/// workload's own counts, which are 0 where it does not).
pub fn probes(site: ProbeSite) -> Vec<Probe> {
    let mut v = Vec::new();

    // ---- sched -----------------------------------------------------------
    v.push(probe("sched.coro_switch_ns", "ns", |n| {
        let mut co = coro::Coro::new(coro::stack_bytes(), move || {
            for _ in 0..n {
                coro::yield_current();
            }
        });
        timed(|| while !co.resume() {})
    }));
    let pes = site.pes;
    v.push(probe("sched.heap_cycle_ns", "ns", move |n| {
        // One handoff: pick the min-clock PE, take it out, advance it, put
        // it back — what the event core does per switch.
        let mut heap = PeHeap::new(pes);
        for pe in 0..pes {
            heap.insert_or_update(pe, pe as u64);
        }
        timed(|| {
            let mut sum = 0u64;
            for i in 0..n {
                let (clock, pe) = heap.peek().expect("heap holds every PE");
                heap.remove(pe);
                sum = sum.wrapping_add(clock);
                heap.insert_or_update(pe, clock + 10 + (i % 7));
            }
            black_box(sum);
        })
    }));
    v.push(probe("sched.coro_spawn_us", "us", |n| {
        timed(|| {
            for _ in 0..n {
                let mut co = coro::Coro::new(coro::stack_bytes(), || {});
                black_box(co.resume());
            }
        })
    }));

    // ---- parallel --------------------------------------------------------
    // Per PE per scheduling point: the whole pick-and-handoff ladder.
    let sched_point = |team: Team, pes: usize| {
        move |n: u64| {
            let per_pe = n.div_ceil(pes as u64);
            let run = team.run(|ctx| {
                let start = Instant::now();
                for _ in 0..per_pe {
                    ctx.compute(100);
                    ctx.sched_point();
                }
                (start, Instant::now())
            });
            // `n` was rounded up to a whole number of rounds; scale back.
            team_span(&run.results).mul_f64(n as f64 / (per_pe * pes as u64) as f64)
        }
    };
    v.push(probe(
        "parallel.sched_point_event_ns",
        "ns",
        sched_point(site.event_team(), site.pes),
    ));
    // The thread backend serves `repro --quick`'s team sizes (P ≤ 16); a
    // P = 256 thread team would measure the host's thread limits instead.
    let thread_pes = site.pes.min(16);
    v.push(probe(
        "parallel.sched_point_thread_ns",
        "ns",
        sched_point(
            Team::new(machine(thread_pes, site.contention()))
                .sched(SchedPolicy::Det)
                .exec(ExecMode::Thread),
            thread_pes,
        ),
    ));
    let team = site.event_team();
    v.push(probe("parallel.barrier_ns", "ns", move |n| {
        let run = team.run(|ctx| {
            let start = Instant::now();
            for _ in 0..n {
                ctx.barrier();
            }
            (start, Instant::now())
        });
        team_span(&run.results)
    }));
    let team = site.event_team();
    v.push(probe("parallel.team_spawn_us", "us", move |n| {
        timed(|| {
            for _ in 0..n {
                black_box(team.run(|_| ()).reports.len());
            }
        })
    }));

    // ---- machine / net ---------------------------------------------------
    let contention = site.contention();
    v.push(probe("machine.build_us", "us", move |n| {
        timed(|| {
            for _ in 0..n {
                black_box(Machine::new(pes, machine_config(contention)));
            }
        })
    }));
    // The fabric exists only when contention is on; the net probes always
    // build the full one, so their price is known on every workload.
    let topo = Topology::new(site.pes, 2);
    let net_cfg = machine_config(ContentionMode::Fabric);
    let nodes = topo.nodes();
    {
        let net = NetSim::new(&topo, &net_cfg);
        let mut t = 0u64;
        v.push(probe("net.route_ns", "ns", move |n| {
            timed(|| {
                for _ in 0..n {
                    t += 50;
                    let src = (t as usize / 50) % nodes;
                    let dst = (src + 7) % nodes;
                    black_box(net.route((src * 2) as u32, src, dst, 256, t));
                }
            })
        }));
    }
    {
        let net = NetSim::new(&topo, &net_cfg);
        let mut t = 0u64;
        v.push(probe("net.route_many16_ns", "ns", move |n| {
            let mut items = [(0usize, 128usize); 16];
            timed(|| {
                for _ in 0..n {
                    t += 50;
                    let src = (t as usize / 50) % nodes;
                    for (i, it) in items.iter_mut().enumerate() {
                        it.0 = (src + 1 + i) % nodes;
                    }
                    let r = net.try_route_many((src * 2) as u32, src, &items, t, true, 0);
                    black_box(r.expect("healthy fabric routes everything").delay);
                }
            })
        }));
    }
    {
        let topo = topo.clone();
        let net_cfg = net_cfg.clone();
        v.push(probe("net.build_us", "us", move |n| {
            timed(|| {
                for _ in 0..n {
                    black_box(NetSim::new(&topo, &net_cfg).links());
                }
            })
        }));
    }

    // ---- mp (2 PEs: a round trip is between two ranks) --------------------
    let pair = move || {
        let m = machine(2, contention);
        let team = Team::new(Arc::clone(&m))
            .sched(SchedPolicy::Det)
            .exec(ExecMode::Event);
        (MpWorld::new(m), team)
    };
    {
        let (w, team) = pair();
        v.push(probe("mp.pingpong_ns", "ns", move |n| {
            let run = team.run(|ctx| {
                let start = Instant::now();
                for i in 0..n {
                    if ctx.pe() == 0 {
                        w.send(ctx, 1, 0, &[i]);
                        black_box(w.recv::<u64>(ctx, RecvSpec::from(1, 1)));
                    } else {
                        let (_, _, d) = w.recv::<u64>(ctx, RecvSpec::from(0, 0));
                        w.send_vec(ctx, 0, 1, d);
                    }
                }
                (start, Instant::now())
            });
            team_span(&run.results)
        }));
    }
    {
        // The hot-shard case: every matched receive first walks past 1 024
        // queued envelopes that do not match. The same round trip as
        // `mp.pingpong_ns` otherwise, so the difference is the walk.
        const DEPTH: u64 = 1_024;
        let (w, team) = pair();
        v.push(probe("mp.deep_recv_ns", "ns", move |n| {
            let run = team.run(|ctx| {
                if ctx.pe() == 1 {
                    for i in 0..DEPTH {
                        w.send(ctx, 0, 7, &[i]);
                    }
                }
                ctx.barrier();
                let start = Instant::now();
                for i in 0..n {
                    if ctx.pe() == 0 {
                        black_box(w.recv::<u64>(ctx, RecvSpec::from(1, 9)));
                        w.send(ctx, 1, 8, &[i]);
                    } else {
                        w.send(ctx, 0, 9, &[i]);
                        black_box(w.recv::<u64>(ctx, RecvSpec::from(0, 8)));
                    }
                }
                let end = Instant::now();
                if ctx.pe() == 0 {
                    for _ in 0..DEPTH {
                        black_box(w.recv::<u64>(ctx, RecvSpec::from(1, 7)));
                    }
                }
                (start, end)
            });
            team_span(&run.results)
        }));
    }

    // ---- shmem: PE 0 against the farthest PE, 64-word values --------------
    const WORDS: usize = 64;
    let far = site.pes - 1;
    // The model probes build their world afresh for every repetition: a
    // world keeps every region ever allocated in it.
    let shmem_probe = |name: &'static str, op: fn(&SymSlice<u64>, &mut Ctx, usize, u64)| {
        let team = site.event_team();
        probe(name, "ns", move |n| {
            let w = SymWorld::new(Arc::clone(team.machine()));
            let run = team.run(|ctx| {
                let s = w.alloc::<u64>(ctx, WORDS);
                let start = Instant::now();
                if ctx.pe() == 0 {
                    for i in 0..n {
                        op(&s, ctx, far, i);
                    }
                }
                let end = Instant::now();
                w.barrier_all(ctx);
                (start, end)
            });
            run.results[0].1 - run.results[0].0
        })
    };
    v.push(shmem_probe("shmem.put64_ns", |s, ctx, far, i| {
        s.put(ctx, far, 0, &[i; WORDS]);
    }));
    v.push(shmem_probe("shmem.get64_ns", |s, ctx, far, _| {
        black_box(s.get(ctx, far, 0, WORDS));
    }));
    v.push(shmem_probe("shmem.fadd_ns", |s, ctx, far, _| {
        black_box(s.fadd(ctx, far, 0, 1u64));
    }));

    // ---- sas ---------------------------------------------------------------
    {
        // A resident line: 512 words fit the modelled cache many times over.
        let team = site.event_team();
        v.push(probe("sas.read_hit_ns", "ns", move |n| {
            const LEN: usize = 512;
            let w = SasWorld::new(Arc::clone(team.machine()));
            let run = team.run(|ctx| {
                let s = w.alloc::<f64>(ctx, LEN);
                let mut span = Duration::ZERO;
                if ctx.pe() == 0 {
                    let mut pe = w.pe();
                    let mut acc = 0.0;
                    for i in 0..LEN {
                        acc += pe.read(ctx, &s, i);
                    }
                    span = timed(|| {
                        for i in 0..n as usize {
                            acc += pe.read(ctx, &s, i % LEN);
                        }
                    });
                    black_box(acc);
                }
                w.barrier(ctx);
                span
            });
            run.results[0]
        }));
    }
    {
        // A slice four times the modelled cache, homed on the farthest
        // node, read one word per line: every read is a remote miss.
        let m = site.machine();
        let len = 4 * m.config.cache_bytes / 8;
        let stride = m.config.line_bytes / 8;
        let team = site.event_team();
        v.push(probe("sas.read_miss_ns", "ns", move |n| {
            let w = SasWorld::new(Arc::clone(team.machine()));
            let run = team.run(|ctx| {
                let s = w.alloc::<f64>(ctx, len);
                if ctx.pe() == far {
                    s.home_pages(ctx, 0, len);
                }
                w.barrier(ctx);
                let mut span = Duration::ZERO;
                if ctx.pe() == 0 {
                    let mut pe = w.pe();
                    let mut acc = 0.0;
                    span = timed(|| {
                        let mut idx = 0;
                        for _ in 0..n {
                            acc += pe.read(ctx, &s, idx);
                            idx = (idx + stride) % len;
                        }
                    });
                    black_box(acc);
                }
                w.barrier(ctx);
                span
            });
            run.results[0]
        }));
    }
    {
        let cfg = machine_config(ContentionMode::Off);
        let mut sim = CacheSim::new(cfg.cache_bytes, cfg.line_bytes, cfg.cache_assoc);
        let mut i = 0u64;
        v.push(probe("sas.cachesim_ns", "ns", move |n| {
            timed(|| {
                for _ in 0..n {
                    // 40 000 lines against 32 768 slots: a mix of hits and
                    // replacements, as the N-body working set produces.
                    let tag = line_tag(0, i % 40_000);
                    if sim.probe(tag) == CacheProbe::Miss {
                        sim.insert(tag, 1, false);
                    }
                    i += 1;
                }
            })
        }));
    }

    // ---- nbody / mesh / partition -----------------------------------------
    let bodies = plummer(site.nbody_n, 7);
    let pos: Arc<Vec<Vec3>> = Arc::new(bodies.iter().map(|b| b.pos).collect());
    let mass: Arc<Vec<f64>> = Arc::new(bodies.iter().map(|b| b.mass).collect());
    {
        let (pos, mass) = (Arc::clone(&pos), Arc::clone(&mass));
        v.push(probe("nbody.octree_build_us", "us", move |n| {
            timed(|| {
                for _ in 0..n {
                    black_box(Octree::build(&pos, &mass, 4).nodes.len());
                }
            })
        }));
    }
    {
        let tree = Octree::build(&pos, &mass, 4);
        let defaults = NBodyConfig::default();
        let mut i = 0usize;
        v.push(probe("nbody.force_ns_per_body", "ns", move |n| {
            timed(|| {
                let mut acc = Vec3::ZERO;
                for _ in 0..n {
                    acc += accel_at(&tree, pos[i % pos.len()], defaults.theta, defaults.eps).0;
                    i += 1;
                }
                black_box(acc);
            })
        }));
    }
    let amr = AmrConfig {
        nx: site.mesh_nx,
        ny: site.mesh_nx,
        ..AmrConfig::default()
    };
    let adapted = {
        // The mesh as the AMR cells see it mid-run: two adaptation steps in.
        let mut m = AdaptiveMesh::structured(amr.nx, amr.ny, 1.0, 1.0);
        for step in 0..2 {
            adapt_step(
                &mut m,
                &amr.shock(),
                amr.front_time(step),
                amr.refine_band,
                amr.coarsen_band,
                amr.max_level,
            );
        }
        m
    };
    {
        let (adapted, amr) = (adapted.clone(), amr.clone());
        v.push(probe("mesh.refine_ms", "ms", move |n| {
            let mut total = Duration::ZERO;
            for _ in 0..n {
                let mut m = adapted.clone();
                total += timed(|| {
                    adapt_step(
                        &mut m,
                        &amr.shock(),
                        amr.front_time(2),
                        amr.refine_band,
                        amr.coarsen_band,
                        amr.max_level,
                    );
                });
                black_box(m.active_tris().len());
            }
            total
        }));
    }
    {
        let pts: Vec<WeightedPoint> = adapted
            .active_tris()
            .into_iter()
            .map(|t| {
                let c = adapted.centroid_of(t);
                WeightedPoint::new(c.x, c.y, 1.0)
            })
            .collect();
        v.push(probe("partition.rcb_ms", "ms", move |n| {
            timed(|| {
                for _ in 0..n {
                    black_box(rcb_partition(&pts, pes).len());
                }
            })
        }));
    }

    // ---- serve -------------------------------------------------------------
    {
        let mut h = LatencyHist::new();
        let mut x: u64 = 0x9E37_79B9;
        v.push(probe("serve.hist_record_ns", "ns", move |n| {
            timed(|| {
                for _ in 0..n {
                    // xorshift keeps the values spread across octaves.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    h.record(x >> 40);
                }
                black_box(h.count());
            })
        }));
    }
    {
        // One PE's open-loop schedule of 1 024 requests.
        let cfg = serve_config(
            &ServeShape {
                pes,
                requests_per_pe: 1_024,
                seed: 0x00C0_FFEE,
            },
            3.0,
            HotShard::Off,
        );
        v.push(probe("serve.clients_stream_us", "us", move |n| {
            timed(|| {
                for i in 0..n as usize {
                    black_box(clients::stream(&cfg, i % pes, pes).len());
                }
            })
        }));
    }
    v
}
