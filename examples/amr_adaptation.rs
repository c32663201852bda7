//! Watch the AMR workload evolve: a shock sweeps the domain while the mesh
//! refines ahead of it and coarsens behind, then compare the three models
//! on the same run.
//!
//! ```text
//! cargo run --release --example amr_adaptation
//! ```

use origin2k::mesh::adaptive::AdaptiveMesh;
use origin2k::mesh::indicator::adapt_step;
use origin2k::mesh::quality::mesh_quality;
use origin2k::partition::WeightedPoint;
use origin2k::prelude::*;

fn main() {
    let cfg = AmrConfig {
        nx: 32,
        ny: 32,
        steps: 6,
        sweeps: 4,
        ..AmrConfig::default()
    };

    // Sequential replay of the adaptation the parallel runs perform.
    println!(
        "mesh evolution (shock crossing the unit square in {} steps):\n",
        cfg.steps
    );
    println!(
        "{:<5} {:>8} {:>9} {:>10} {:>11} {:>10}",
        "step", "front x", "active", "max level", "min angle°", "imbalance"
    );
    let mut mesh = AdaptiveMesh::structured(cfg.nx, cfg.ny, 1.0, 1.0);
    for step in 0..cfg.steps {
        let t = cfg.front_time(step);
        adapt_step(
            &mut mesh,
            &cfg.shock(),
            t,
            cfg.refine_band,
            cfg.coarsen_band,
            cfg.max_level,
        );
        mesh.validate().expect("mesh stays conforming");
        let q = mesh_quality(&mesh);
        let max_level = mesh
            .active_tris()
            .iter()
            .map(|&tr| mesh.level_of(tr))
            .max()
            .unwrap_or(0);
        // Imbalance a static 8-way block partition would suffer.
        let dual = origin2k::mesh::dual::dual_graph(&mesh);
        let pts: Vec<WeightedPoint> = dual
            .centroids
            .iter()
            .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
            .collect();
        let parts = origin2k::partition::rcb_partition(&pts, 8);
        let imb = origin2k::partition::imbalance(&vec![1.0; parts.len()], &parts, 8);
        println!(
            "{:<5} {:>8.2} {:>9} {:>10} {:>11.1} {:>10.3}",
            step,
            t,
            mesh.num_active(),
            max_level,
            q.min_angle_deg,
            imb
        );
    }

    // The parallel comparison on the same workload.
    println!("\nthree-model comparison at P = 16:");
    let nb = NBodyConfig::small();
    for model in Model::ALL {
        let r = run_app(Machine::origin2000(16), App::Amr, model, &nb, &cfg);
        let (b, _, rm, s) = r.breakdown().fractions();
        println!(
            "  {:<8} {:>10.2} ms   busy {:>4.1}%  remote {:>4.1}%  sync {:>4.1}%  checksum {:.6}",
            model.name(),
            r.sim_time as f64 / 1e6,
            b * 100.0,
            rm * 100.0,
            s * 100.0,
            r.checksum
        );
    }
    println!("\n(All three checksums must agree bitwise: same mesh, same Jacobi, same schedule.)");
}
