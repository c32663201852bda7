//! The CC-SAS hit path allocates nothing.
//!
//! Its own test binary so it can install a counting `#[global_allocator]`:
//! after warm-up, costed reads that hit in the PE's cache — `read_into`
//! directly, and a whole `shared_tree_walk` over a resident tree — must
//! not touch the heap, and `read_range` must allocate exactly its result.
//! Counts are per thread, so the other PEs of a thread-backend team (and
//! the harness's own threads) never show up in a PE's figure.

mod support;

use std::sync::Arc;

use origin2k::apps::nbody_common::{flatten_tree, shared_tree_walk, NBodyConfig};
use origin2k::machine::{Machine, MachineConfig};
use origin2k::nbody::{Octree, Vec3};
use origin2k::parallel::{Ctx, Team};
use origin2k::sas::SasWorld;
use support::allocs;

/// Heap allocations and cache misses `f` causes on the calling PE.
fn cost_of(ctx: &mut Ctx, f: impl FnOnce(&mut Ctx)) -> (u64, u64) {
    let misses = |c: &Ctx| c.counters().misses_local + c.counters().misses_remote;
    let (a0, m0) = (allocs(), misses(ctx));
    f(ctx);
    (allocs() - a0, misses(ctx) - m0)
}

fn team(p: usize) -> (SasWorld, Team) {
    let m = Arc::new(Machine::new(p, MachineConfig::origin2000()));
    (SasWorld::new(Arc::clone(&m)), Team::new(m))
}

#[test]
fn read_into_hits_allocate_nothing_and_read_range_only_its_result() {
    const LEN: usize = 512;
    let (w, team) = team(4);
    let run = team.run(|ctx| {
        let s = w.alloc::<f64>(ctx, LEN);
        let mut pe = w.pe();
        let mut out = None;
        if ctx.pe() == 0 {
            for i in 0..LEN {
                s.write_raw(i, i as f64);
            }
            let mut v = [0.0; 3];
            for i in 0..LEN - 3 {
                pe.read_into(ctx, &s, i, &mut v);
            }
            let hits0 = ctx.counters().cache_hits;
            let mut sum = 0.0;
            let into = cost_of(ctx, |ctx| {
                for i in 0..10_000 {
                    pe.read_into(ctx, &s, (7 * i) % (LEN - 3), &mut v);
                    sum += v[0] + v[2];
                }
            });
            assert!(ctx.counters().cache_hits - hits0 >= 10_000);
            assert!(sum > 0.0);
            let range = cost_of(ctx, |ctx| {
                let r = pe.read_range(ctx, &s, 100, 140);
                assert_eq!(r[39], 139.0);
            });
            out = Some((into, range));
        } else {
            // Stay runnable far ahead in virtual time: under `det` PE 0's
            // hits are then yields against a real horizon, not an empty
            // heap.
            ctx.compute(1_000_000);
        }
        w.barrier(ctx);
        out
    });
    let (into, range) = run.results[0].expect("PE 0 measured");
    assert_eq!(into, (0, 0), "10 000 read_into hits: (allocations, misses)");
    assert_eq!(range, (1, 0), "read_range: (allocations, misses)");
}

#[test]
fn a_tree_walk_over_a_resident_tree_allocates_nothing() {
    let cfg = NBodyConfig::small();
    let bodies = cfg.bodies();
    let positions: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
    let masses: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let (words, leaf_ids) = flatten_tree(&Octree::build(&positions, &masses, 4));
    let n = cfg.n;

    let (w, team) = team(2);
    let run = team.run(|ctx| {
        let nodes = w.alloc::<f64>(ctx, words.len());
        let leaves = w.alloc::<u64>(ctx, leaf_ids.len());
        let pos = w.alloc::<f64>(ctx, 3 * n);
        let mass = w.alloc::<f64>(ctx, n);
        let mut pe = w.pe();
        let mut out = None;
        if ctx.pe() == 0 {
            for (i, v) in words.iter().enumerate() {
                nodes.write_raw(i, *v);
            }
            for (i, v) in leaf_ids.iter().enumerate() {
                leaves.write_raw(i, *v);
            }
            for (i, b) in bodies.iter().enumerate() {
                pos.write_raw(3 * i, b.pos.x);
                pos.write_raw(3 * i + 1, b.pos.y);
                pos.write_raw(3 * i + 2, b.pos.z);
                mass.write_raw(i, b.mass);
            }
            let mut walk = |ctx: &mut Ctx, target: Vec3, theta: f64| {
                shared_tree_walk(
                    ctx, &mut pe, &nodes, &leaves, &pos, &mass, target, theta, cfg.eps,
                )
            };
            // θ = 0 opens every cell: the warm-up brings the whole tree
            // into the PE's cache.
            let target = positions[n / 2];
            walk(ctx, target, 0.0);
            let mut interactions = 0;
            let cost = cost_of(ctx, |ctx| {
                for t in [target, positions[0], Vec3::ZERO] {
                    interactions += walk(ctx, t, cfg.theta).1;
                }
            });
            assert!(interactions > 0);
            out = Some(cost);
        }
        w.barrier(ctx);
        out
    });
    assert_eq!(
        run.results[0].expect("PE 0 measured"),
        (0, 0),
        "three full walks: (allocations, misses)"
    );
}
