//! The N-body tree pays per body, not per node or per walk.
//!
//! Its own test binary so it can install a counting `#[global_allocator]`
//! (see `tests/support`). `Octree::build` keeps its nodes in one arena and
//! every leaf's bodies as a run of one index permutation, so a build
//! allocates the same few buffers at any size. The force walk and the LET
//! walk keep their pending nodes on the call stack: a warmed `accel_at`
//! allocates nothing, and `essential_for` and `body_order` allocate their
//! results once each.

mod support;

use std::hint::black_box;

use origin2k::nbody::force::accel_at;
use origin2k::nbody::lett::essential_for;
use origin2k::nbody::orb::BBox;
use origin2k::nbody::plummer::plummer;
use origin2k::nbody::{Octree, Vec3};
use support::allocs;

/// `f`'s result and the heap allocations it made on this thread.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let a0 = allocs();
    let r = black_box(f());
    (r, allocs() - a0)
}

fn plummer_tree(n: usize) -> (Vec<Vec3>, (Octree, u64)) {
    let bodies = plummer(n, 11);
    let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let built = allocs_of(|| Octree::build(&pos, &mass, 4));
    (pos, built)
}

#[test]
fn a_build_allocates_a_fixed_number_of_times() {
    let (_, (small, at_1k)) = plummer_tree(1_024);
    let (_, (large, at_16k)) = plummer_tree(16_384);
    println!(
        "n = 1 024: {at_1k} allocations for {} nodes; n = 16 384: {at_16k} for {}",
        small.nodes.len(),
        large.nodes.len()
    );
    // The copied positions and masses, the order, the node arena and the
    // sort's scratch. One allocation per leaf (plus up to 8 buckets per
    // split) would cost thousands here.
    assert_eq!((at_1k, at_16k), (5, 5), "allocations at n = 1 024, 16 384");
}

#[test]
fn walks_allocate_nothing_but_their_results() {
    let (pos, (tree, _)) = plummer_tree(4_096);
    let ((), walks) = allocs_of(|| {
        for &p in pos.iter().step_by(7) {
            black_box(accel_at(&tree, p, 0.8, 0.05));
            black_box(accel_at(&tree, p, 0.0, 0.05));
        }
    });
    assert_eq!(walks, 0, "accel_at: allocations over 1 172 walks");

    let target = BBox {
        min: Vec3::new(-0.2, -0.2, -0.2),
        max: Vec3::new(0.2, 0.2, 0.2),
    };
    let (ess, n) = allocs_of(|| essential_for(&tree, &target, 0.8));
    assert!(ess.len() > 100);
    assert_eq!(n, 1, "essential_for: allocations");

    let (order, n) = allocs_of(|| tree.body_order());
    assert_eq!(
        (order.len(), n),
        (4_096, 1),
        "body_order: (length, allocations)"
    );
}
