//! N-body under the hybrid model: message passing between nodes, shared
//! address space within them.
//!
//! Node-granularity ORB: each SMP node owns the bodies in its box, stored
//! in per-node shared segments so all coherence stays inside the node.
//! Node leaders exchange bounding boxes and locally-essential trees with
//! explicit messages (as the pure MP version does per PE), then publish a
//! merged flattened tree in node-shared memory; every PE of the node walks
//! it through the coherence model for its slice of the node's bodies.
//! Rebalancing funnels through PE 0 at node granularity.

use std::sync::Arc;

use machine::Machine;
use mp::{MpWorld, RecvSpec};
use nbody::lett::essential_for;
use nbody::orb::{orb_partition, BBox};
use nbody::{Octree, Vec3};
use parallel::{Ctx, Team};
use sas::{SasSlice, SasWorld};

use crate::metrics::{App, Model, RunMetrics};
use crate::nbody_common::{
    flatten_tree, read_vec3, shared_tree_walk, NBodyConfig, WalkBase, NODE_WORDS,
};
use crate::workcost as W;

const TAG_BOX: u32 = 21;
const TAG_LET: u32 = 22;
const TAG_GATHER: u32 = 23;
const TAG_SCATTER: u32 = 24;

/// Run the hybrid N-body application; returns uniform metrics.
/// `opts` overrides the process defaults (see [`crate::RunOpts`]).
pub fn run_opts(machine: Arc<Machine>, cfg: &NBodyConfig, opts: crate::RunOpts) -> RunMetrics {
    assert!(
        cfg.n >= machine.topology.nodes(),
        "need bodies on every node"
    );
    let mp = MpWorld::new(Arc::clone(&machine));
    let sas = SasWorld::new(Arc::clone(&machine));
    let team = opts.configure(Team::new(Arc::clone(&machine)).seed(cfg.seed));
    let run = team.run(|ctx| pe_main(ctx, &mp, &sas, cfg));
    RunMetrics::collect(App::NBody, Model::Hybrid, &run, cfg.n)
}

/// Page-aligned per-node strides for every segment family.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Stride of 3-vector arrays (pos/vel/acc), words.
    vec3: usize,
    /// Stride of scalar arrays (mass/cost), words.
    scal: usize,
    /// Stride of merged 3-vector arrays, words.
    mvec3: usize,
    /// Stride of merged scalar arrays, words.
    mscal: usize,
    /// Stride of the flattened tree, words.
    tnodes: usize,
    /// Stride of the leaf stream, elements.
    tleaves: usize,
}

/// Per-node shared segments (sized for the worst case: one node owning
/// everything plus a full import set).
struct Segments {
    /// Own bodies: positions (3·n per node).
    pos: SasSlice<f64>,
    /// Own bodies: velocities.
    vel: SasSlice<f64>,
    /// Own bodies: masses.
    mass: SasSlice<f64>,
    /// Own bodies: accelerations.
    acc: SasSlice<f64>,
    /// Own bodies: interaction costs.
    cost: SasSlice<f64>,
    /// Merged (own + imported) positions for the walk (3·2n per node).
    mpos: SasSlice<f64>,
    /// Merged masses (2n per node).
    mmass: SasSlice<f64>,
    /// Flattened merged tree (tree_cap·NODE_WORDS per node).
    tnodes: SasSlice<f64>,
    /// Leaf body-index stream (2n per node).
    tleaves: SasSlice<u64>,
    /// Per-node body count (written by the leader).
    count: SasSlice<u64>,
}

fn pe_main(ctx: &mut Ctx, mp: &MpWorld, sas: &SasWorld, cfg: &NBodyConfig) -> f64 {
    let topo = ctx.machine().topology.clone();
    let nnodes = topo.nodes();
    let my_node = topo.node_of(ctx.pe());
    let my_node_pes: Vec<usize> = topo.pes_on_node(my_node).collect();
    let k = my_node_pes.len();
    let rank_in_node = my_node_pes
        .iter()
        .position(|&q| q == ctx.pe())
        .expect("member");
    let is_leader = rank_in_node == 0;
    let leader_of = |n: usize| topo.pes_on_node(n).next().expect("node has a PE");
    let n = cfg.n;
    let tree_cap = 6 * n + 512;
    let mut pe = sas.pe();

    // Per-node segment strides, rounded up to whole pages so no two nodes
    // ever share a page (or a cache line): the discipline that keeps every
    // coherence event node-local.
    let page_words = ctx.machine().config.page_bytes / 8;
    let pad = |words: usize| words.div_ceil(page_words) * page_words;
    // Vector strides are exactly 3x the (page-padded) scalar strides so a
    // single element offset addresses pos (at 3·e) and mass (at e) — the
    // invariant `shared_tree_walk` relies on. 3 x a whole number of pages
    // is still page-aligned.
    let lay = Layout {
        scal: pad(n),
        vec3: 3 * pad(n),
        mscal: pad(2 * n),
        mvec3: 3 * pad(2 * n),
        tnodes: pad(tree_cap * NODE_WORDS),
        tleaves: pad(2 * n),
    };

    let s = Segments {
        pos: sas.alloc(ctx, nnodes * lay.vec3),
        vel: sas.alloc(ctx, nnodes * lay.vec3),
        mass: sas.alloc(ctx, nnodes * lay.scal),
        acc: sas.alloc(ctx, nnodes * lay.vec3),
        cost: sas.alloc(ctx, nnodes * lay.scal),
        mpos: sas.alloc(ctx, nnodes * lay.mvec3),
        mmass: sas.alloc(ctx, nnodes * lay.mscal),
        tnodes: sas.alloc(ctx, nnodes * lay.tnodes),
        tleaves: sas.alloc(ctx, nnodes * lay.tleaves),
        count: sas.alloc(ctx, nnodes),
    };

    // Startup: node-level ORB, derived identically everywhere; leaders
    // initialise their node's segments (uncosted init, like the others).
    let all = cfg.bodies();
    let pos0: Vec<Vec3> = all.iter().map(|b| b.pos).collect();
    ctx.compute_units((n / ctx.npes()) as u64, W::PARTITION_PER_BODY_NS);
    let assign = orb_partition(&pos0, &vec![1.0; n], nnodes);
    if is_leader {
        let mut idx = 0usize;
        for (b, &a) in all.iter().zip(&assign) {
            if a as usize == my_node {
                write_body_raw(&s, my_node, &lay, idx, b.pos, b.vel, b.mass, 1.0);
                idx += 1;
            }
        }
        s.count.write_raw(my_node, idx as u64);
    }
    ctx.barrier();

    for _step in 0..cfg.steps {
        let my_count = s.count.read_raw(my_node) as usize;
        // (1) Leaders trade bounding boxes and locally-essential trees.
        ctx.net_phase("exchange");
        ctx.compute_units((my_count / k) as u64, W::TREE_BUILD_PER_BODY_NS);
        if is_leader {
            let (lpos, lmass) = read_node_bodies(&s, my_node, &lay, my_count);
            let bb = BBox::of(&lpos);
            let flat = [bb.min.x, bb.min.y, bb.min.z, bb.max.x, bb.max.y, bb.max.z];
            for q in (0..nnodes).filter(|&q| q != my_node) {
                mp.send(ctx, leader_of(q), TAG_BOX, &flat);
            }
            let mut boxes = vec![[0.0f64; 6]; nnodes];
            for q in (0..nnodes).filter(|&q| q != my_node) {
                let (_, _, bx) = mp.recv::<f64>(ctx, RecvSpec::from(leader_of(q), TAG_BOX));
                boxes[q].copy_from_slice(&bx);
            }
            let guarded = guard_empty(&lpos, &lmass);
            let ltree = Octree::build(&guarded.0, &guarded.1, 4);
            for q in (0..nnodes).filter(|&q| q != my_node) {
                let target = BBox {
                    min: Vec3::new(boxes[q][0], boxes[q][1], boxes[q][2]),
                    max: Vec3::new(boxes[q][3], boxes[q][4], boxes[q][5]),
                };
                let ess = essential_for(&ltree, &target, cfg.theta);
                ctx.compute_units(ess.len() as u64, W::LET_EXTRACT_PER_ITEM_NS);
                let flat: Vec<[f64; 4]> = ess
                    .iter()
                    .map(|pb| [pb.pos.x, pb.pos.y, pb.pos.z, pb.mass])
                    .collect();
                mp.send_vec(ctx, leader_of(q), TAG_LET, flat);
            }
            // Merged arrays: own bodies first, then imports.
            let mut merged_pos = lpos;
            let mut merged_mass = lmass;
            for q in (0..nnodes).filter(|&q| q != my_node) {
                let (_, _, imp) = mp.recv::<[f64; 4]>(ctx, RecvSpec::from(leader_of(q), TAG_LET));
                for it in imp {
                    merged_pos.push(Vec3::new(it[0], it[1], it[2]));
                    merged_mass.push(it[3]);
                }
            }
            assert!(merged_pos.len() <= 2 * n, "merged set exceeds segment");
            // Publish merged arrays + flattened tree in node-shared memory
            // (costed writes: the node's PEs will read them coherently).
            let mut flat_pos = Vec::with_capacity(3 * merged_pos.len());
            for p in &merged_pos {
                flat_pos.extend_from_slice(&[p.x, p.y, p.z]);
            }
            pe.write_range(ctx, &s.mpos, my_node * lay.mvec3, &flat_pos);
            pe.write_range(ctx, &s.mmass, my_node * lay.mscal, &merged_mass);
            let guarded = guard_empty(&merged_pos, &merged_mass);
            let mtree = Octree::build(&guarded.0, &guarded.1, 4);
            let (words, leaves) = flatten_tree(&mtree);
            assert!(
                words.len() <= tree_cap * NODE_WORDS,
                "tree capacity exceeded"
            );
            pe.write_range(ctx, &s.tnodes, my_node * lay.tnodes, &words);
            for (i, v) in leaves.iter().enumerate() {
                s.tleaves.write_raw(my_node * lay.tleaves + i, *v);
            }
        }
        ctx.compute_units((my_count / k) as u64, W::TREE_BUILD_PER_BODY_NS);
        ctx.node_barrier();

        // (2) Every PE walks the node's shared merged tree for its slice.
        ctx.net_phase("forces");
        let base = WalkBase {
            node_words: my_node * lay.tnodes,
            leaves: my_node * lay.tleaves,
            bodies: 0,
        };
        let lo = my_count * rank_in_node / k;
        let hi = my_count * (rank_in_node + 1) / k;
        let mut interactions = 0u64;
        // Element offset of this node's merged arrays (mpos at 3·e, mmass
        // at e — strides are constructed to share it).
        let mbase = my_node * lay.mscal;
        for i in lo..hi {
            let target = read_vec3(ctx, &mut pe, &s.mpos, mbase + i);
            let (a, cnt) = walk_at(ctx, &mut pe, &s, &base, mbase, target, cfg);
            interactions += cnt;
            pe.write_range(ctx, &s.acc, my_node * lay.vec3 + 3 * i, &[a.x, a.y, a.z]);
            pe.write(ctx, &s.cost, my_node * lay.scal + i, cnt as f64);
        }
        ctx.compute_units(interactions, W::NBODY_INTERACTION_NS);
        ctx.node_barrier();

        // (3) Integrate the slice in the node's own segments.
        for i in lo..hi {
            let seg = my_node * lay.scal; // element index: vec3 = 3 * scal
            let a = read_vec3(ctx, &mut pe, &s.acc, seg + i);
            let v = read_vec3(ctx, &mut pe, &s.vel, seg + i);
            let x = read_vec3(ctx, &mut pe, &s.pos, seg + i);
            let nv = v + a * cfg.dt;
            let nx = x + nv * cfg.dt;
            pe.write_range(ctx, &s.vel, my_node * lay.vec3 + 3 * i, &[nv.x, nv.y, nv.z]);
            pe.write_range(ctx, &s.pos, my_node * lay.vec3 + 3 * i, &[nx.x, nx.y, nx.z]);
        }
        ctx.compute_units((hi - lo) as u64, W::INTEGRATE_PER_BODY_NS);
        ctx.node_barrier();

        // (4) Rebalance at node granularity through PE 0.
        ctx.net_phase("remap");
        if is_leader {
            let mut flat = Vec::with_capacity(my_count * 8);
            for i in 0..my_count {
                flat.extend_from_slice(&read_body_raw(&s, my_node, &lay, i));
            }
            if my_node != 0 {
                mp.send_vec(ctx, 0, TAG_GATHER, flat);
            } else {
                let mut bodies = flat;
                for q in 1..nnodes {
                    let (_, _, chunk) =
                        mp.recv::<f64>(ctx, RecvSpec::from(leader_of(q), TAG_GATHER));
                    bodies.extend_from_slice(&chunk);
                }
                ctx.compute_units(n as u64, W::PARTITION_PER_BODY_NS);
                let records: Vec<&[f64]> = bodies.chunks_exact(8).collect();
                let posv: Vec<Vec3> = records
                    .iter()
                    .map(|r| Vec3::new(r[0], r[1], r[2]))
                    .collect();
                let wts: Vec<f64> = records.iter().map(|r| r[7].max(1.0)).collect();
                let new_assign = orb_partition(&posv, &wts, nnodes);
                let mut outs: Vec<Vec<f64>> = vec![Vec::new(); nnodes];
                for (r, &a) in records.iter().zip(&new_assign) {
                    outs[a as usize].extend_from_slice(r);
                }
                for (q, chunk) in outs.iter().enumerate().skip(1) {
                    mp.send_vec(ctx, leader_of(q), TAG_SCATTER, chunk.clone());
                }
                store_node_bodies(ctx, &mut pe, &s, 0, &lay, &outs[0]);
            }
            if my_node != 0 {
                let (_, _, newly) = mp.recv::<f64>(ctx, RecvSpec::from(0, TAG_SCATTER));
                store_node_bodies(ctx, &mut pe, &s, my_node, &lay, &newly);
            }
        }
        ctx.barrier();
    }

    // Checksum in node/index order at PE 0 (measurement, uncosted).
    let total = if ctx.pe() == 0 {
        let mut sum = 0.0;
        for node in 0..nnodes {
            let cnt = s.count.read_raw(node) as usize;
            for i in 0..cnt {
                let r = read_body_raw(&s, node, &lay, i);
                sum += Vec3::new(r[0], r[1], r[2]).norm();
            }
        }
        sum
    } else {
        0.0
    };
    ctx.broadcast(0, if ctx.pe() == 0 { Some(total) } else { None })
}

#[allow(clippy::too_many_arguments)]
fn write_body_raw(
    s: &Segments,
    node: usize,
    lay: &Layout,
    i: usize,
    pos: Vec3,
    vel: Vec3,
    mass: f64,
    cost: f64,
) {
    s.pos.write_raw(node * lay.vec3 + 3 * i, pos.x);
    s.pos.write_raw(node * lay.vec3 + 3 * i + 1, pos.y);
    s.pos.write_raw(node * lay.vec3 + 3 * i + 2, pos.z);
    s.vel.write_raw(node * lay.vec3 + 3 * i, vel.x);
    s.vel.write_raw(node * lay.vec3 + 3 * i + 1, vel.y);
    s.vel.write_raw(node * lay.vec3 + 3 * i + 2, vel.z);
    s.mass.write_raw(node * lay.scal + i, mass);
    s.cost.write_raw(node * lay.scal + i, cost);
}

fn read_body_raw(s: &Segments, node: usize, lay: &Layout, i: usize) -> [f64; 8] {
    [
        s.pos.read_raw(node * lay.vec3 + 3 * i),
        s.pos.read_raw(node * lay.vec3 + 3 * i + 1),
        s.pos.read_raw(node * lay.vec3 + 3 * i + 2),
        s.vel.read_raw(node * lay.vec3 + 3 * i),
        s.vel.read_raw(node * lay.vec3 + 3 * i + 1),
        s.vel.read_raw(node * lay.vec3 + 3 * i + 2),
        s.mass.read_raw(node * lay.scal + i),
        s.cost.read_raw(node * lay.scal + i),
    ]
}

fn read_node_bodies(
    s: &Segments,
    node: usize,
    lay: &Layout,
    count: usize,
) -> (Vec<Vec3>, Vec<f64>) {
    let mut pos = Vec::with_capacity(count);
    let mut mass = Vec::with_capacity(count);
    for i in 0..count {
        let r = read_body_raw(s, node, lay, i);
        pos.push(Vec3::new(r[0], r[1], r[2]));
        mass.push(r[6]);
    }
    (pos, mass)
}

/// Store a flat 8-word-per-body stream into a node's segments (leader
/// only; charged as one bulk write per array).
fn store_node_bodies(
    ctx: &mut Ctx,
    pe: &mut sas::SasPe,
    s: &Segments,
    node: usize,
    lay: &Layout,
    flat: &[f64],
) {
    let count = flat.len() / 8;
    let mut pos = Vec::with_capacity(3 * count);
    let mut vel = Vec::with_capacity(3 * count);
    let mut mass = Vec::with_capacity(count);
    let mut cost = Vec::with_capacity(count);
    for r in flat.chunks_exact(8) {
        pos.extend_from_slice(&r[0..3]);
        vel.extend_from_slice(&r[3..6]);
        mass.push(r[6]);
        cost.push(r[7]);
    }
    pe.write_range(ctx, &s.pos, node * lay.vec3, &pos);
    pe.write_range(ctx, &s.vel, node * lay.vec3, &vel);
    pe.write_range(ctx, &s.mass, node * lay.scal, &mass);
    pe.write_range(ctx, &s.cost, node * lay.scal, &cost);
    s.count.write_raw(node, count as u64);
}

fn guard_empty(pos: &[Vec3], mass: &[f64]) -> (Vec<Vec3>, Vec<f64>) {
    if pos.is_empty() {
        (vec![Vec3::ZERO], vec![0.0])
    } else {
        (pos.to_vec(), mass.to_vec())
    }
}

#[allow(clippy::too_many_arguments)]
fn walk_at(
    ctx: &mut Ctx,
    pe: &mut sas::SasPe,
    s: &Segments,
    base: &WalkBase,
    mbase: usize,
    target: Vec3,
    cfg: &NBodyConfig,
) -> (Vec3, u64) {
    // The leaf stream indexes the node's merged arrays: offset by mbase.
    let shifted = WalkBase {
        bodies: mbase,
        ..*base
    };
    shared_tree_walk(
        ctx, pe, &s.tnodes, &s.tleaves, &s.mpos, &s.mmass, &shifted, target, cfg.theta, cfg.eps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunOpts;
    use machine::MachineConfig;
    use sas::PagePolicy;

    fn machine(pes: usize) -> Arc<Machine> {
        Arc::new(Machine::new(pes, MachineConfig::origin2000()))
    }

    #[test]
    fn runs_with_mixed_traffic() {
        let cfg = NBodyConfig::small();
        let m = run_opts(machine(8), &cfg, RunOpts::default());
        assert!(m.sim_time > 0);
        assert!(
            m.counters.msgs_sent > 0,
            "leaders exchange boxes/LETs/bodies"
        );
        assert!(m.counters.cache_hits > 0, "peers walk the shared tree");
        assert_eq!(
            m.counters.misses_remote, 0,
            "hybrid discipline: no cross-node coherence"
        );
    }

    #[test]
    fn physics_close_to_other_models() {
        let cfg = NBodyConfig::small();
        let hy = run_opts(machine(8), &cfg, RunOpts::default()).checksum;
        let sas = crate::nbody_sas::run_with_opts(
            machine(8),
            &cfg,
            PagePolicy::FirstTouch,
            RunOpts::default(),
        )
        .checksum;
        let rel = (hy - sas).abs() / sas;
        assert!(rel < 0.02, "hybrid physics off by {rel}");
    }

    #[test]
    fn fewer_messages_than_pure_mp() {
        let cfg = NBodyConfig::small();
        let hy = run_opts(machine(8), &cfg, RunOpts::default());
        let mpv = crate::nbody_mp::run_opts(machine(8), &cfg, RunOpts::default());
        assert!(
            hy.counters.msgs_sent < mpv.counters.msgs_sent,
            "node-granularity exchanges must reduce message count: {} vs {}",
            hy.counters.msgs_sent,
            mpv.counters.msgs_sent
        );
    }

    #[test]
    fn speeds_up() {
        let cfg = NBodyConfig {
            n: 512,
            steps: 2,
            ..NBodyConfig::default()
        };
        let t2 = run_opts(machine(2), &cfg, RunOpts::default()).sim_time;
        let t8 = run_opts(machine(8), &cfg, RunOpts::default()).sim_time;
        assert!(t8 < t2);
    }
}
