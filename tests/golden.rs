//! Golden-result conformance tests.
//!
//! These pin the *current* outputs of the reconstructed evaluation suite —
//! programming-effort line counts (T2), partitioner quality (T3), model
//! speedups (F1/F3), and communication volumes (F5) — at quick problem
//! sizes, under the deterministic scheduler so every number is exactly
//! reproducible. A failure here means the simulated results moved; if the
//! move is intentional, regenerate the constants with
//!
//! ```text
//! cargo test --test golden -- --ignored --nocapture print_current_goldens
//! ```
//!
//! and update both this file and EXPERIMENTS.md.

use origin2k::prelude::*;

fn machine(p: usize) -> std::sync::Arc<Machine> {
    Machine::origin2000(p)
}

/// Every test in this binary runs under the deterministic scheduler, so
/// CC-SAS timings and counters are bitwise-stable (idempotent; tests run
/// concurrently in one process).
fn pin_det() {
    origin2k::sched::set_default_policy(SchedPolicy::Det);
}

// ------------------------------------------------------------------ T2

/// `(app, model, effective LoC)` — the paper's programming-effort story:
/// CC-SAS shortest, MPI longest, for both applications.
const T2_LOC: [(&str, &str, usize); 6] = [
    ("N-body", "MPI", T2_NBODY_MP),
    ("N-body", "SHMEM", T2_NBODY_SHMEM),
    ("N-body", "CC-SAS", T2_NBODY_SAS),
    ("AMR", "MPI", T2_AMR_MP),
    ("AMR", "SHMEM", T2_AMR_SHMEM),
    ("AMR", "CC-SAS", T2_AMR_SAS),
];
const T2_NBODY_MP: usize = 145;
const T2_NBODY_SHMEM: usize = 216;
const T2_NBODY_SAS: usize = 144;
const T2_AMR_MP: usize = 170;
const T2_AMR_SHMEM: usize = 168;
const T2_AMR_SAS: usize = 121;

#[test]
fn t2_effort_line_counts_are_pinned() {
    let table = origin2k::core::effort_table();
    assert_eq!(table.len(), T2_LOC.len());
    for (row, (app, model, loc)) in table.iter().zip(T2_LOC) {
        assert_eq!(row.app.name(), app);
        assert_eq!(row.model.name(), model);
        assert_eq!(
            row.loc, loc,
            "{app}/{model}: effective LoC moved (edit the pin if the app source change was intentional)"
        );
    }
}

#[cfg(test)]
mod t3 {
    use origin2k::mesh::adaptive::AdaptiveMesh;
    use origin2k::mesh::dual::dual_graph;
    use origin2k::partition::{
        edge_cut, hilbert_partition, imbalance, morton_partition, multilevel_partition,
        rcb_partition, CsrGraph, WeightedPoint,
    };
    use origin2k::prelude::*;

    pub const NPARTS: usize = 8;
    /// `(partitioner, edge cut, imbalance·1000)` on the quick adapted mesh.
    pub const T3_GOLDEN: [(&str, usize, u64); 4] = [
        ("rcb", T3_RCB.0, T3_RCB.1),
        ("morton", T3_MORTON.0, T3_MORTON.1),
        ("hilbert", T3_HILBERT.0, T3_HILBERT.1),
        ("multilevel", T3_MULTILEVEL.0, T3_MULTILEVEL.1),
    ];
    const T3_RCB: (usize, u64) = (101, 1000);
    const T3_MORTON: (usize, u64) = (122, 1000);
    const T3_HILBERT: (usize, u64) = (158, 1000);
    const T3_MULTILEVEL: (usize, u64) = (94, 1093);

    /// The T3 mesh at quick size: a 16×16 base adapted for two steps.
    pub fn quality() -> Vec<(&'static str, usize, u64)> {
        let mut mesh = AdaptiveMesh::structured(16, 16, 1.0, 1.0);
        let cfg = AmrConfig {
            nx: 16,
            ny: 16,
            ..AmrConfig::default()
        };
        for step in 0..2 {
            origin2k::mesh::indicator::adapt_step(
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
        let mut out = Vec::new();
        let mut eval = |name: &'static str, parts: &[u32]| {
            // Imbalance is a ratio of f64 weights over integer counts:
            // exactly reproducible; pinned at fixed precision.
            let imb = (imbalance(&g.vwgt, parts, NPARTS) * 1000.0).round() as u64;
            out.push((name, edge_cut(&g, parts), imb));
        };
        eval("rcb", &rcb_partition(&pts, NPARTS));
        eval("morton", &morton_partition(&pts, NPARTS));
        eval("hilbert", &hilbert_partition(&pts, NPARTS));
        eval("multilevel", &multilevel_partition(&g, NPARTS));
        out
    }

    #[test]
    fn t3_partitioner_quality_is_pinned() {
        assert_eq!(quality(), T3_GOLDEN.to_vec());
    }
}

// --------------------------------------------------------------- F1/F3

/// `(model, sim_time at P=1, sim_time at P=4)` in simulated ns, quick
/// sizes, deterministic scheduler. Speedup = column2 / column3.
const F1_NBODY: [(&str, u64, u64); 3] = [
    ("MPI", F1_MP.0, F1_MP.1),
    ("SHMEM", F1_SHMEM.0, F1_SHMEM.1),
    ("CC-SAS", F1_SAS.0, F1_SAS.1),
];
const F1_MP: (u64, u64) = (17_592_640, 5_240_819);
const F1_SHMEM: (u64, u64) = (17_593_400, 5_142_477);
const F1_SAS: (u64, u64) = (17_480_000, 5_427_022);

const F3_AMR: [(&str, u64, u64); 3] = [
    ("MPI", F3_MP.0, F3_MP.1),
    ("SHMEM", F3_SHMEM.0, F3_SHMEM.1),
    ("CC-SAS", F3_SAS.0, F3_SAS.1),
];
const F3_MP: (u64, u64) = (1_594_400, 895_277);
const F3_SHMEM: (u64, u64) = (1_594_400, 769_183);
const F3_SAS: (u64, u64) = (1_365_360, 450_742);

fn model_times(app: App) -> Vec<(&'static str, u64, u64)> {
    pin_det();
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    Model::ALL
        .iter()
        .map(|&m| {
            let t1 = run_app(machine(1), app, m, &nb, &am).sim_time;
            let t4 = run_app(machine(4), app, m, &nb, &am).sim_time;
            (m.name(), t1, t4)
        })
        .collect()
}

#[test]
fn f1_nbody_times_and_speedups_are_pinned() {
    let got = model_times(App::NBody);
    assert_eq!(got, F1_NBODY.to_vec());
    for (m, t1, t4) in got {
        assert!(t4 < t1, "{m} must speed up: {t1} -> {t4}");
    }
}

#[test]
fn f3_amr_times_and_speedups_are_pinned() {
    let got = model_times(App::Amr);
    assert_eq!(got, F3_AMR.to_vec());
    for (m, t1, t4) in got {
        assert!(t4 < t1, "{m} must speed up: {t1} -> {t4}");
    }
}

// ------------------------------------------------------------------ F5

/// Communication volumes at P=4, quick AMR: explicit bytes for MP/SHMEM,
/// coherence-implicit bytes (128 B × remote misses) for CC-SAS.
const F5_AMR_COMM: [(&str, u64); 3] = [
    ("MPI", F5_MP_BYTES),
    ("SHMEM", F5_SHMEM_BYTES),
    ("CC-SAS", F5_SAS_BYTES),
];
const F5_MP_BYTES: u64 = 81_736;
const F5_SHMEM_BYTES: u64 = 10_496;
const F5_SAS_BYTES: u64 = 23_680;

fn comm_volumes() -> Vec<(&'static str, u64)> {
    pin_det();
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    Model::ALL
        .iter()
        .map(|&m| {
            let r = run_app(machine(4), App::Amr, m, &nb, &am);
            let bytes = match m {
                Model::Sas => r.counters.implicit_comm_bytes(128),
                _ => r.counters.explicit_comm_bytes(),
            };
            (m.name(), bytes)
        })
        .collect()
}

#[test]
fn f5_amr_comm_volumes_are_pinned() {
    assert_eq!(comm_volumes(), F5_AMR_COMM.to_vec());
}

// ----------------------------------------------------- repro determinism

/// The acceptance test for the deterministic scheduler: regenerating F2
/// twice under `--sched det` produces bitwise-identical report text
/// (tables include CC-SAS timings, the schedule-sensitive part).
#[test]
fn repro_f2_is_bitwise_identical_under_det() {
    pin_det();
    let a = origin2k_bench_f2();
    let b = origin2k_bench_f2();
    assert_eq!(a, b, "repro f2 must be bitwise reproducible under det");
    assert!(a.contains("CC-SAS"), "sanity: F2 covers the SAS model");
}

fn origin2k_bench_f2() -> String {
    o2k_bench::run_experiment("f2", true)
}

/// Same property for the fault-injection experiment: N2 threads a
/// degraded link and a killed router edge through routing, detours, and
/// the per-phase hotspot report, and all of it must replay bitwise (the
/// fault state of a transfer is a pure function of link and departure
/// time, and N2 pins the deterministic scheduler internally).
#[test]
fn repro_n2_is_bitwise_identical_under_det() {
    pin_det();
    let a = o2k_bench::run_experiment("n2", true);
    let b = o2k_bench::run_experiment("n2", true);
    assert_eq!(a, b, "repro n2 must be bitwise reproducible under det");
    assert!(
        a.contains("[deg8]") && a.contains("detours"),
        "sanity: N2 reports the fault annotations"
    );
}

/// Same property for the serving experiment: Q1 threads a million-scale
/// open-loop request stream through all three models, four fabric
/// conditions, HDR quantiles, and the hotspot reports — and the whole
/// rendered archive must replay bitwise (Q1 pins the deterministic
/// scheduler internally).
#[test]
fn repro_q1_is_bitwise_identical_under_det() {
    pin_det();
    let a = o2k_bench::run_experiment("q1", true);
    let b = o2k_bench::run_experiment("q1", true);
    assert_eq!(a, b, "repro q1 must be bitwise reproducible under det");
    assert!(
        a.contains("p99 ns") && a.contains("sick"),
        "sanity: Q1 reports tail latencies across fabric conditions"
    );
}

/// The serving workload's full result set — simulated time, quantiles,
/// merged counters, per-link NetStats, and the schedule fingerprint —
/// replays bitwise under the deterministic scheduler for every model.
#[test]
fn serve_results_are_bitwise_reproducible_under_det() {
    pin_det();
    let cfg = origin2k::serve::ServeConfig::small();
    for model in Model::ALL {
        let go = || {
            origin2k::serve::run_opts(
                queued_machine(8),
                model,
                &cfg,
                RunOpts::with_sched(SchedPolicy::Det),
            )
        };
        let (a, b) = (go(), go());
        assert_eq!(a.sim_time, b.sim_time, "{model:?} sim time");
        assert_eq!(a.checksum, b.checksum, "{model:?} checksum");
        assert_eq!(a.counters, b.counters, "{model:?} counters");
        assert_eq!(a.serve, b.serve, "{model:?} latency quantiles");
        assert_eq!(a.net, b.net, "{model:?} per-link NetStats");
        assert_eq!(
            a.sched.as_ref().map(|s| s.fingerprint),
            b.sched.as_ref().map(|s| s.fingerprint),
            "{model:?} schedule fingerprint"
        );
    }
}

// ------------------------------------------ contention-model determinism

/// The Origin2000 machine with the interconnect queueing model on.
fn queued_machine(p: usize) -> std::sync::Arc<Machine> {
    use origin2k::machine::ContentionMode;
    std::sync::Arc::new(Machine::new(
        p,
        MachineConfig {
            contention: ContentionMode::Queued,
            ..MachineConfig::origin2000()
        },
    ))
}

/// Contention changes *when* transfers complete, never *whether* the run
/// is reproducible: under the deterministic scheduler, two queued-mode
/// runs agree bitwise — simulated times, merged counters, per-link
/// network statistics, and the schedule fingerprint.
#[test]
fn queued_contention_is_bitwise_reproducible_under_det() {
    pin_det();
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let a = run_app(queued_machine(4), app, model, &nb, &am);
            let b = run_app(queued_machine(4), app, model, &nb, &am);
            let tag = format!("{}/{}", app.name(), model.name());
            assert_eq!(a.sim_time, b.sim_time, "{tag}: sim time must repeat");
            assert_eq!(a.counters, b.counters, "{tag}: counters must repeat");
            assert_eq!(a.net, b.net, "{tag}: NetStats must repeat");
            assert_eq!(a.sched, b.sched, "{tag}: schedule fingerprint must repeat");
            let net = a.net.expect("queued mode reports NetStats");
            assert!(net.transfers > 0, "{tag}: remote traffic must be routed");
        }
    }
}

/// Off-mode runs never construct the network simulator, and the queued
/// model only ever adds delay relative to the analytic costs (the physics
/// checksum is identical either way).
#[test]
fn queued_contention_only_adds_delay() {
    pin_det();
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let off = run_app(machine(4), app, model, &nb, &am);
            let q = run_app(queued_machine(4), app, model, &nb, &am);
            let tag = format!("{}/{}", app.name(), model.name());
            assert!(
                off.net.is_none(),
                "{tag}: off mode must not report NetStats"
            );
            assert!(
                q.sim_time >= off.sim_time,
                "{tag}: queueing can only slow a run ({} -> {})",
                off.sim_time,
                q.sim_time
            );
            assert_eq!(
                q.checksum, off.checksum,
                "{tag}: contention must not move physics"
            );
        }
    }
}

// ------------------------------------------------ resource-fabric goldens

/// The Origin2000 machine on the full contended-resource fabric: links
/// plus per-node SysAD buses and per-router hub arbitration ports.
fn fabric_machine(p: usize) -> std::sync::Arc<Machine> {
    use origin2k::machine::ContentionMode;
    std::sync::Arc::new(Machine::new(
        p,
        MachineConfig {
            contention: ContentionMode::Fabric,
            ..MachineConfig::origin2000()
        },
    ))
}

/// The fabric generalises the link-only queueing model; it must inherit
/// its reproducibility wholesale — times, counters (including the new
/// bus/hub queueing counters), per-resource statistics, fingerprints.
#[test]
fn fabric_contention_is_bitwise_reproducible_under_det() {
    pin_det();
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let a = run_app(fabric_machine(4), app, model, &nb, &am);
            let b = run_app(fabric_machine(4), app, model, &nb, &am);
            let tag = format!("{}/{}", app.name(), model.name());
            assert_eq!(a.sim_time, b.sim_time, "{tag}: sim time must repeat");
            assert_eq!(a.counters, b.counters, "{tag}: counters must repeat");
            assert_eq!(a.net, b.net, "{tag}: NetStats must repeat");
            let net = a.net.expect("fabric mode reports NetStats");
            assert!(
                net.bus.transfers > 0,
                "{tag}: fabric traffic must arbitrate for node buses"
            );
        }
    }
}

/// Fabric arbitration only ever adds delay on top of the analytic costs,
/// and — like every contention mode — never moves the physics.
#[test]
fn fabric_contention_only_adds_delay() {
    pin_det();
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    for app in [App::NBody, App::Amr] {
        for model in Model::ALL {
            let off = run_app(machine(4), app, model, &nb, &am);
            let f = run_app(fabric_machine(4), app, model, &nb, &am);
            let tag = format!("{}/{}", app.name(), model.name());
            assert!(
                f.sim_time >= off.sim_time,
                "{tag}: fabric arbitration can only slow a run ({} -> {})",
                off.sim_time,
                f.sim_time
            );
            assert_eq!(
                f.checksum, off.checksum,
                "{tag}: contention must not move physics"
            );
        }
    }
}

// ------------------------------------------------------- AMR kernels

// ------------------------------------------------------------- digests

/// FNV-1a over 64-bit words, little-endian bytes first.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for i in 0..8 {
            self.0 ^= (w >> (8 * i)) & 0xff;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over every generation of the `amr-adapt` benchmark mesh
/// (nx = 32, 4 steps): vertex coordinate bits, each triangle's vertices,
/// parent and level, the active set, the dual CSR and the P = 32 RCB
/// parts. Pinned from the hash-map kernels the near-linear ones replaced:
/// adaptation, the dual and RCB must give the same ids, rows and parts.
mod amr_kernels {
    use origin2k::mesh::adaptive::AdaptiveMesh;
    use origin2k::mesh::dual::dual_graph;
    use origin2k::mesh::indicator::adapt_step;
    use origin2k::partition::{rcb_partition, WeightedPoint};
    use origin2k::prelude::*;

    use super::Fnv;

    const DIGESTS: [u64; 5] = [
        2885324580231512178,
        2122913809676280770,
        3291288013804742652,
        17425625903106447055,
        5023699489610463933,
    ];

    fn digest(m: &AdaptiveMesh) -> u64 {
        let mut h = Fnv::new();
        for v in &m.verts {
            h.word(v.x.to_bits());
            h.word(v.y.to_bits());
        }
        for t in 0..m.num_tris_total() as u32 {
            for v in m.tri(t) {
                h.word(u64::from(v));
            }
            h.word(m.parent_of(t).map_or(u64::MAX, u64::from));
            h.word(u64::from(m.level_of(t)));
        }
        for t in m.active_tris() {
            h.word(u64::from(t));
        }
        let dual = dual_graph(m);
        for &x in &dual.xadj {
            h.word(x as u64);
        }
        for &a in &dual.adj {
            h.word(u64::from(a));
        }
        let pts: Vec<WeightedPoint> = dual
            .centroids
            .iter()
            .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
            .collect();
        for p in rcb_partition(&pts, 32) {
            h.word(u64::from(p));
        }
        h.0
    }

    pub fn generations() -> Vec<u64> {
        let cfg = AmrConfig {
            nx: 32,
            ny: 32,
            steps: 4,
            ..AmrConfig::default()
        };
        let mut m = AdaptiveMesh::structured(cfg.nx, cfg.ny, 1.0, 1.0);
        let mut out = vec![digest(&m)];
        for step in 0..cfg.steps {
            adapt_step(
                &mut m,
                &cfg.shock(),
                cfg.front_time(step),
                cfg.refine_band,
                cfg.coarsen_band,
                cfg.max_level,
            );
            out.push(digest(&m));
        }
        out
    }

    #[test]
    fn amr_adapt_generations_are_pinned() {
        assert_eq!(generations(), DIGESTS);
    }
}

/// The N-body substrate and the three N-body codes, bit for bit: an FNV-1a
/// over every node of the octree of `plummer(4096, 11)` (centre, half
/// width, mass and centre of mass as bits, first child, and each leaf's
/// bodies in order), and per model the simulated time, checksum bits,
/// merged counters and schedule fingerprint of a run at the benchmark's
/// `nbody-3model` smoke shape (P = 8, n = 256, 2 steps, contention off,
/// the benchmark's default seed mixed as its workload does). Pinned from
/// the octree whose leaves owned a `Vec` each: the arena tree must build
/// the same nodes and the same runs.
mod nbody_kernels {
    use super::Fnv;
    use origin2k::machine::ContentionMode;
    use origin2k::nbody::plummer::plummer;
    use origin2k::nbody::{Octree, Vec3};
    use origin2k::prelude::*;

    const OCTREE: u64 = 17_469_409_472_247_292_705;

    /// `(model, sim_time, checksum bits, counters digest, fingerprint)`.
    const SMOKE_RUNS: [(&str, u64, u64, u64, u64); 3] = [
        (
            "MPI",
            3_583_729,
            4_647_383_134_693_865_695,
            5_396_362_674_140_312_752,
            6_071_327_928_300_442_455,
        ),
        (
            "SHMEM",
            3_382_409,
            4_647_383_134_693_865_694,
            17_035_426_528_453_939_476,
            9_028_739_822_452_656_583,
        ),
        (
            "CC-SAS",
            3_320_013,
            4_647_383_134_909_639_540,
            16_124_501_092_537_304_829,
            8_588_833_850_787_894_949,
        ),
    ];

    pub fn octree_digest() -> u64 {
        let bodies = plummer(4096, 11);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = Octree::build(&pos, &mass, 4);
        let mut h = Fnv::new();
        for n in &tree.nodes {
            for x in [n.center.x, n.center.y, n.center.z, n.half, n.mass] {
                h.word(x.to_bits());
            }
            for x in [n.com.x, n.com.y, n.com.z] {
                h.word(x.to_bits());
            }
            h.word(u64::from(n.first_child));
            let leaf = tree.bodies(n);
            h.word(leaf.len() as u64);
            for &b in leaf {
                h.word(u64::from(b));
            }
        }
        h.0
    }

    pub fn smoke_runs() -> Vec<(&'static str, u64, u64, u64, u64)> {
        let seed = 0x00C0_FFEE_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let cfg = NBodyConfig {
            n: 256,
            steps: 2,
            seed,
            ..NBodyConfig::default()
        };
        let machine = MachineConfig {
            contention: ContentionMode::Off,
            ..MachineConfig::origin2000()
        };
        Model::ALL
            .iter()
            .map(|&m| {
                let r = run_app_opts(
                    std::sync::Arc::new(Machine::new(8, machine.clone())),
                    App::NBody,
                    m,
                    &cfg,
                    &AmrConfig::small(),
                    RunOpts::with_sched(SchedPolicy::Det),
                );
                let mut counters = Fnv::new();
                for w in r
                    .counters
                    .scalars()
                    .into_iter()
                    .chain(r.counters.msg_size_hist)
                {
                    counters.word(w);
                }
                let fingerprint = r.sched.map_or(0, |s| s.fingerprint);
                (
                    m.name(),
                    r.sim_time,
                    r.checksum.to_bits(),
                    counters.0,
                    fingerprint,
                )
            })
            .collect()
    }

    #[test]
    fn the_octree_of_a_plummer_sphere_is_pinned() {
        assert_eq!(octree_digest(), OCTREE);
    }

    #[test]
    fn nbody_smoke_runs_are_pinned() {
        assert_eq!(smoke_runs(), SMOKE_RUNS);
    }
}

// ------------------------------------------------------------- harvest

/// Regenerates every pinned constant above. Run with
/// `cargo test --test golden -- --ignored --nocapture print_current_goldens`.
#[test]
#[ignore]
fn print_current_goldens() {
    pin_det();
    println!("== T2 ==");
    for r in origin2k::core::effort_table() {
        println!("{} / {}: {}", r.app.name(), r.model.name(), r.loc);
    }
    println!("== T3 ==");
    for (name, cut, imb) in t3::quality() {
        println!("{name}: ({cut}, {imb})");
    }
    println!("== F1 ==");
    for (m, t1, t4) in model_times(App::NBody) {
        println!("{m}: ({t1}, {t4})");
    }
    println!("== F3 ==");
    for (m, t1, t4) in model_times(App::Amr) {
        println!("{m}: ({t1}, {t4})");
    }
    println!("== F5 ==");
    for (m, b) in comm_volumes() {
        println!("{m}: {b}");
    }
    println!("== AMR kernels ==");
    println!("{:?}", amr_kernels::generations());
    println!("== N-body kernels ==");
    println!("octree: {}", nbody_kernels::octree_digest());
    for run in nbody_kernels::smoke_runs() {
        println!("{run:?}");
    }
}
