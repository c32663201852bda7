//! One adaptation pays for the mesh, not for per-triangle allocations.
//!
//! Its own test binary so it can install a counting `#[global_allocator]`,
//! as `tests/msg_path.rs` does for the serving path. Refinement,
//! coarsening, the dual graph and RCB keep their metadata in flat arrays
//! and id-hashed maps that grow by doubling, so one generation of the
//! `amr-adapt` mesh — a clone of the previous one, an `adapt_step`, its
//! dual and a P = 32 RCB — allocates a bounded number of times, and a mesh
//! with four times the triangles allocates only a few times more.

mod support;

use std::hint::black_box;

use origin2k::mesh::adaptive::AdaptiveMesh;
use origin2k::mesh::dual::dual_graph;
use origin2k::mesh::indicator::adapt_step;
use origin2k::partition::{rcb_partition, WeightedPoint};
use origin2k::prelude::*;
use support::allocs;

/// The `amr-adapt` configuration at `nx × nx` cells.
fn config(nx: usize) -> AmrConfig {
    AmrConfig {
        nx,
        ny: nx,
        steps: 4,
        ..AmrConfig::default()
    }
}

fn adapt(m: &mut AdaptiveMesh, cfg: &AmrConfig, step: usize) {
    adapt_step(
        m,
        &cfg.shock(),
        cfg.front_time(step),
        cfg.refine_band,
        cfg.coarsen_band,
        cfg.max_level,
    );
}

/// Heap allocations of one generation: from the mesh two steps in (as the
/// benchmark's probes see it), clone it, adapt it once, build its dual and
/// partition the dual's centroids 32 ways.
fn generation_allocs(nx: usize) -> (u64, usize) {
    let cfg = config(nx);
    let mut prev = AdaptiveMesh::structured(cfg.nx, cfg.ny, 1.0, 1.0);
    for step in 0..2 {
        adapt(&mut prev, &cfg, step);
    }
    let a0 = allocs();
    let mut m = prev.clone();
    adapt(&mut m, &cfg, 2);
    let dual = dual_graph(&m);
    let pts: Vec<WeightedPoint> = dual
        .centroids
        .iter()
        .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
        .collect();
    let parts = black_box(rcb_partition(&pts, 32));
    let n = allocs() - a0;
    assert_eq!(parts.len(), dual.len());
    (n, dual.len())
}

#[test]
fn one_generation_allocates_a_bounded_number_of_times() {
    let (n32, tris32) = generation_allocs(32);
    let (n16, tris16) = generation_allocs(16);
    println!("nx=16: {n16} allocations for {tris16} triangles; nx=32: {n32} for {tris32}");
    assert!(tris32 > 4 * tris16, "nx = 32 has over 4x the triangles");
    // Per-triangle allocation would cost thousands here (it did: ~12 k for
    // the adaptation and ~3.5 k for the dual).
    assert!(n32 <= 250, "nx = 32: {n32} allocations for one generation");
    // About twenty containers grow by doubling (the mesh arrays, the
    // midpoint map, the marked-edge sets, the marking lists); over 4x the
    // triangles is a little over two doublings of each.
    assert!(
        n32 <= n16 + 48,
        "nx = 16 -> 32 should add only Vec growth: {n16} -> {n32}"
    );
}
