//! The four workloads: which cells make one pass, at what size, and why.
//!
//! Sizes are set so that one pass takes 2.5–4 s on the 2-core host the
//! benchmark was sized on: long enough that a pass repeats to about 1 %,
//! short enough that a 20 s run holds five or more passes to take the best
//! of. `BENCHMARK.json` repeats each workload's one-sentence reason.

use crate::adapter::{self, Cell, HotShard, Model, ProbeSite, ServeShape};

pub struct Workload {
    pub name: &'static str,
    /// Whether `--seed` changes the inputs (documented where it does not).
    pub seeded: bool,
    /// Whether the cells leave the exec backend to the process default.
    pub ambient_backend: bool,
    pub site: ProbeSite,
    pub cells: Vec<Cell>,
}

pub const NAMES: [&str; 4] = ["repro-quick", "serve-tail", "nbody-3model", "amr-adapt"];

/// `smoke` shrinks every workload to a fraction of a second, for the
/// benchmark's own tests; nothing measured at that size is reported.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    Some(match name {
        "repro-quick" => repro_quick(smoke),
        "serve-tail" => serve_tail(seed, smoke),
        "nbody-3model" => nbody_3model(seed, smoke),
        "amr-adapt" => amr_adapt(seed, smoke),
        _ => return None,
    })
}

/// Runs before the first cell, once per process.
pub fn prepare_process(name: &str) {
    if name == "repro-quick" {
        adapter::repro_process_defaults();
    }
}

/// The loop people wait on. The experiments carry fixed seeds of their own,
/// so `--seed` does not reach them.
fn repro_quick(smoke: bool) -> Workload {
    let ids: &[&'static str] = if smoke { &["f5"] } else { &["f1", "f5", "f8"] };
    let mut cells: Vec<Cell> = ids.iter().map(|id| adapter::repro_cell(id)).collect();
    let requests = if smoke { 400 } else { 8_000 };
    cells.extend(
        Model::ALL
            .iter()
            .map(|&m| adapter::ambient_serve_cell(m, requests)),
    );
    Workload {
        name: "repro-quick",
        seeded: false,
        ambient_backend: true,
        site: ProbeSite {
            pes: 16,
            fabric: false,
            nbody_n: 512,
            mesh_nx: 10,
        },
        cells,
    }
}

fn serve_tail(seed: u64, smoke: bool) -> Workload {
    let shape = ServeShape {
        pes: if smoke { 16 } else { 256 },
        requests_per_pe: if smoke { 32 } else { 256 },
        seed,
    };
    let cell = |name: &str, group, model, skew, hot| {
        adapter::serve_cell(name, group, model, skew, hot, &shape)
    };
    let cells = vec![
        cell("uni-mp", "uni", Model::Mp, 1.0, HotShard::Off),
        cell("uni-shmem", "uni", Model::Shmem, 1.0, HotShard::Off),
        cell("uni-sas", "uni", Model::Sas, 1.0, HotShard::Off),
        cell("skew-mp", "skew", Model::Mp, 3.0, HotShard::Off),
        cell("skew-mp-steal", "skew", Model::Mp, 3.0, HotShard::Steal),
        cell(
            "skew-shmem-rep3",
            "skew",
            Model::Shmem,
            3.0,
            HotShard::Replicate(3),
        ),
        cell(
            "skew-sas-rep3",
            "skew",
            Model::Sas,
            3.0,
            HotShard::Replicate(3),
        ),
    ];
    Workload {
        name: "serve-tail",
        seeded: true,
        ambient_backend: false,
        site: ProbeSite {
            pes: shape.pes,
            fabric: true,
            nbody_n: 512,
            mesh_nx: 10,
        },
        cells,
    }
}

/// How much simulated work an N-body run does swings by several percent
/// with the body set (the octree's shape follows the outermost body), so one
/// pass runs several sets drawn from the seed and the swing averages out.
fn nbody_3model(seed: u64, smoke: bool) -> Workload {
    let (pes, n, sets) = if smoke { (8, 256, 1) } else { (32, 1_024, 5) };
    let seeds: Vec<u64> = (0..sets)
        .map(|i| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i))
        .collect();
    Workload {
        name: "nbody-3model",
        seeded: true,
        ambient_backend: false,
        site: ProbeSite {
            pes,
            fabric: false,
            nbody_n: n,
            mesh_nx: 10,
        },
        cells: Model::ALL
            .iter()
            .map(|&m| adapter::nbody_cell(m, pes, n, 2, seeds.clone()))
            .collect(),
    }
}

/// `AmrConfig::seed` is "kept for interface uniformity": the application
/// does not read it yet, so today every seed gives the same mesh.
fn amr_adapt(seed: u64, smoke: bool) -> Workload {
    let (pes, nx, steps, sweeps) = if smoke { (8, 10, 2, 2) } else { (32, 32, 4, 4) };
    Workload {
        name: "amr-adapt",
        seeded: true,
        ambient_backend: false,
        site: ProbeSite {
            pes,
            fabric: true,
            nbody_n: 512,
            mesh_nx: nx,
        },
        cells: Model::ALL
            .iter()
            .map(|&m| adapter::amr_cell(m, pes, nx, steps, sweeps, seed))
            .collect(),
    }
}
