//! N-body under one-sided communication (SHMEM-style).
//!
//! Same ORB + locally-essential-tree structure as the MP version — the
//! programmer still partitions bodies and names target PEs — but every
//! exchange is a one-sided put with the classic SHMEM idioms:
//!
//! * bounding boxes: each PE **puts** its box into everyone's table;
//! * LET trade: counts are put, receivers publish offsets, senders **get**
//!   their offset and put the payload directly into place;
//! * repartitioning: PEs reserve space in rank 0's gather buffer with a
//!   remote **fetch-add** ticket, and rank 0 puts each PE's new bodies
//!   straight into its receive buffer.
//!
//! No sends, no receives, no tag matching — and much lower per-message
//! overhead, which is exactly where SHMEM beats MPI on fine-grained
//! irregular traffic.

use std::sync::Arc;

use machine::Machine;
use nbody::force::accel_at;
use nbody::lett::essential_for;
use nbody::orb::{orb_partition, BBox};
use nbody::{Octree, Vec3};
use parallel::{Ctx, Team};
use shmem::{SymSlice, SymWorld};

use crate::metrics::{App, Model, RunMetrics};
use crate::nbody_common::{
    checksum_positions, decode_bodies_state, decode_body, encode_bodies_state, encode_body,
    BodyCost, NBodyConfig, StartupMemo, BODY_WORDS,
};
// snap:begin
use crate::snapshot::Snapshotter;
// snap:end
use crate::workcost as W;

/// Run the SHMEM N-body application; returns uniform metrics.
/// `opts` overrides the process defaults (see [`crate::RunOpts`]).
pub fn run_opts(machine: Arc<Machine>, cfg: &NBodyConfig, opts: crate::RunOpts) -> RunMetrics {
    assert!(cfg.n >= machine.pes(), "need at least one body per PE");
    let world = SymWorld::new(Arc::clone(&machine));
    // sim:begin — harness, not effort: the start-up memo (the replicated
    // decomposition is charged on every PE, computed once per run on the
    // host) and the checkpoint plumbing every model shares
    let memo = StartupMemo::default();
    let snap = Snapshotter::new(
        &opts,
        App::NBody,
        Model::Shmem,
        &machine,
        &format!("{cfg:?}"),
    );
    snap.import_world(|b| world.import_state_bytes(b));
    // sim:end
    let team = opts.configure(Team::new(machine).seed(cfg.seed));
    let run = team.run_resumed(snap.team_resume(), |ctx| {
        pe_main(ctx, &world, cfg, &memo, &snap)
    });
    RunMetrics::collect(App::NBody, Model::Shmem, &run, cfg.n)
}

struct SymState {
    /// Everyone's bounding boxes, 6 words per PE.
    boxes: SymSlice<f64>,
    /// LET import counts, indexed by source PE.
    counts: SymSlice<u64>,
    /// Byte offsets each source should put at, indexed by source PE.
    offsets: SymSlice<u64>,
    /// LET import payload (4 words per pseudo-body).
    imports: SymSlice<f64>,
    /// Rank-0 gather buffer for repartitioning (8 words per body).
    gather: SymSlice<f64>,
    /// Fetch-add cursor reserving space in `gather`.
    cursor: SymSlice<u64>,
    /// Per-PE rebalance receive buffer + its count.
    rebal: SymSlice<f64>,
    rebal_n: SymSlice<u64>,
}

fn alloc_state(ctx: &mut Ctx, w: &SymWorld, cfg: &NBodyConfig) -> SymState {
    let p = ctx.npes();
    let n = cfg.n;
    SymState {
        boxes: w.alloc(ctx, 6 * p),
        counts: w.alloc(ctx, p),
        offsets: w.alloc(ctx, p),
        imports: w.alloc(ctx, 4 * n + 4),
        gather: w.alloc(ctx, BODY_WORDS * n),
        cursor: w.alloc(ctx, 1),
        rebal: w.alloc(ctx, BODY_WORDS * n),
        rebal_n: w.alloc(ctx, 1),
    }
}

fn pe_main(
    ctx: &mut Ctx,
    w: &SymWorld,
    cfg: &NBodyConfig,
    memo: &StartupMemo,
    snap: &Snapshotter,
) -> f64 {
    let p = ctx.npes();
    let me = ctx.pe();

    let s = alloc_state(ctx, w, cfg);
    // snap:begin — warm start: `alloc_state` handed back the scratch
    // regions the heap import restored; a PE's live state is just its
    // owned bodies.
    let warm = snap.resume(me, "step", |at, r| {
        Ok((at as usize, decode_bodies_state(r)?))
    });
    // snap:end
    let (start, mut mine) = warm.unwrap_or_else(|| {
        // Startup decomposition, derived identically on every PE.
        let all = memo.bodies(cfg);
        ctx.compute_units(cfg.n as u64, W::PARTITION_PER_BODY_NS);
        let assign = memo.orb(|| {
            let pos0: Vec<Vec3> = all.iter().map(|b| b.pos).collect();
            orb_partition(&pos0, &vec![1.0; cfg.n], p)
        });
        let mine: Vec<BodyCost> = all
            .iter()
            .zip(assign)
            .filter(|(_, &a)| a as usize == me)
            .map(|(b, _)| BodyCost {
                body: *b,
                cost: 1.0,
            })
            .collect();
        (0, mine)
    });

    for step in start..cfg.steps {
        // snap:begin — zero-cost quiescence gate: the previous step ended
        // in a barrier; every PE's state is in `mine` plus the symmetric
        // scratch regions.
        snap.point(
            ctx,
            "step",
            step as u64,
            |wr| encode_bodies_state(wr, &mine),
            || w.export_state_bytes(),
        );
        // snap:end

        // (1) Publish my bounding box into everyone's table.
        ctx.net_phase("tree");
        let my_pos: Vec<Vec3> = mine.iter().map(|b| b.body.pos).collect();
        let bb = BBox::of(&my_pos);
        let flat = [bb.min.x, bb.min.y, bb.min.z, bb.max.x, bb.max.y, bb.max.z];
        s.boxes.write_local(ctx, 6 * me, &flat);
        for q in (0..p).filter(|&q| q != me) {
            s.boxes.put(ctx, q, 6 * me, &flat);
        }
        w.barrier_all(ctx);

        // (2) Local tree.
        let (lpos, lmass) = local_arrays(&mine);
        ctx.compute_units(mine.len() as u64, W::TREE_BUILD_PER_BODY_NS);
        let ltree = Octree::build(&lpos, &lmass, 4);

        // (3) LET trade: counts → offsets → payload puts.
        ctx.net_phase("exchange");
        let mut outgoing: Vec<Vec<f64>> = vec![Vec::new(); p];
        for q in (0..p).filter(|&q| q != me) {
            let bx = s.boxes.read_local(ctx, 6 * q, 6);
            let target = BBox {
                min: Vec3::new(bx[0], bx[1], bx[2]),
                max: Vec3::new(bx[3], bx[4], bx[5]),
            };
            let ess = essential_for(&ltree, &target, cfg.theta);
            ctx.compute_units(ess.len() as u64, W::LET_EXTRACT_PER_ITEM_NS);
            let mut flat = Vec::with_capacity(4 * ess.len());
            for pb in &ess {
                flat.extend_from_slice(&[pb.pos.x, pb.pos.y, pb.pos.z, pb.mass]);
            }
            s.counts.put1(ctx, q, me, (flat.len() / 4) as u64);
            outgoing[q] = flat;
        }
        s.counts.write_local(ctx, me, &[0]);
        w.barrier_all(ctx);

        // Receivers publish where each source's chunk goes.
        let my_counts = s.counts.read_local(ctx, 0, p);
        let mut off = 0u64;
        for (src, &c) in my_counts.iter().enumerate() {
            s.offsets.write_local(ctx, src, &[off]);
            off += c;
        }
        w.barrier_all(ctx);

        // Senders fetch their offset one-sidedly and put the payload.
        for q in (0..p).filter(|&q| q != me) {
            if !outgoing[q].is_empty() {
                let off = s.offsets.get1(ctx, q, me) as usize;
                s.imports.put(ctx, q, 4 * off, &outgoing[q]);
            }
        }
        w.barrier_all(ctx);

        // (4) Merged tree over own bodies + imports.
        let total_imports: usize = my_counts.iter().map(|&c| c as usize).sum();
        let imported = s.imports.read_local(ctx, 0, 4 * total_imports);
        let mut fpos = lpos;
        let mut fmass = lmass;
        for it in imported.chunks_exact(4) {
            fpos.push(Vec3::new(it[0], it[1], it[2]));
            fmass.push(it[3]);
        }
        ctx.compute_units(fpos.len() as u64, W::TREE_BUILD_PER_BODY_NS);
        let ftree = Octree::build(&fpos, &fmass, 4);

        // (5) Forces and integration.
        ctx.net_phase("forces");
        let mut interactions = 0u64;
        for bc in &mut mine {
            let (a, cnt) = accel_at(&ftree, bc.body.pos, cfg.theta, cfg.eps);
            interactions += cnt;
            bc.cost = cnt as f64;
            bc.body.vel += a * cfg.dt;
            bc.body.pos += bc.body.vel * cfg.dt;
        }
        ctx.compute_units(interactions, W::NBODY_INTERACTION_NS);
        ctx.compute_units(mine.len() as u64, W::INTEGRATE_PER_BODY_NS);

        // (6) Repartition through PE 0: fetch-add ticket, one-sided gather.
        ctx.net_phase("remap");
        if me == 0 {
            s.cursor.write_local(ctx, 0, &[0]);
        }
        w.barrier_all(ctx);
        let start = s.cursor.fadd(ctx, 0, 0, mine.len() as u64) as usize;
        let mut flat = vec![0.0; BODY_WORDS * mine.len()];
        for (i, bc) in mine.iter().enumerate() {
            encode_body(bc, &mut flat[BODY_WORDS * i..BODY_WORDS * (i + 1)]);
        }
        if me == 0 {
            s.gather.write_local(ctx, BODY_WORDS * start, &flat);
        } else {
            s.gather.put(ctx, 0, BODY_WORDS * start, &flat);
        }
        w.barrier_all(ctx);

        if me == 0 {
            let raw = s.gather.read_local(ctx, 0, BODY_WORDS * cfg.n);
            let mut bodies: Vec<BodyCost> = raw.chunks_exact(BODY_WORDS).map(decode_body).collect();
            // Ticket order depends on thread scheduling; restore a
            // deterministic order before partitioning.
            bodies.sort_by(|a, b| {
                (a.body.pos.x, a.body.pos.y, a.body.pos.z)
                    .partial_cmp(&(b.body.pos.x, b.body.pos.y, b.body.pos.z))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            ctx.compute_units(cfg.n as u64, W::PARTITION_PER_BODY_NS);
            let pos: Vec<Vec3> = bodies.iter().map(|b| b.body.pos).collect();
            let wts: Vec<f64> = bodies.iter().map(|b| b.cost.max(1.0)).collect();
            let new_assign = orb_partition(&pos, &wts, p);
            let mut outs: Vec<Vec<f64>> = vec![Vec::new(); p];
            for (b, &a) in bodies.iter().zip(&new_assign) {
                let mut w8 = [0.0; BODY_WORDS];
                encode_body(b, &mut w8);
                outs[a as usize].extend_from_slice(&w8);
            }
            for (q, chunk) in outs.iter().enumerate() {
                let cnt = (chunk.len() / BODY_WORDS) as u64;
                if q == 0 {
                    s.rebal_n.write_local(ctx, 0, &[cnt]);
                    s.rebal.write_local(ctx, 0, chunk);
                } else {
                    s.rebal_n.put1(ctx, q, 0, cnt);
                    s.rebal.put(ctx, q, 0, chunk);
                }
            }
        }
        w.barrier_all(ctx);
        let cnt = s.rebal_n.read_local1(ctx, 0) as usize;
        let raw = s.rebal.read_local(ctx, 0, BODY_WORDS * cnt);
        mine = raw.chunks_exact(BODY_WORDS).map(decode_body).collect();
    }

    // Checksum: one-sided partial-sum gather at PE 0, broadcast back.
    let my_pos: Vec<Vec3> = mine.iter().map(|b| b.body.pos).collect();
    let partial = checksum_positions(&my_pos);
    if me == 0 {
        s.gather.write_local(ctx, 0, &[partial]);
    } else {
        s.gather.put(ctx, 0, me, &[partial]);
    }
    w.barrier_all(ctx);
    let total = if me == 0 {
        s.gather.read_local(ctx, 0, p).iter().sum::<f64>()
    } else {
        0.0
    };
    ctx.broadcast(0, if me == 0 { Some(total) } else { None })
}

fn local_arrays(mine: &[BodyCost]) -> (Vec<Vec3>, Vec<f64>) {
    if mine.is_empty() {
        return (vec![Vec3::ZERO], vec![0.0]);
    }
    (
        mine.iter().map(|b| b.body.pos).collect(),
        mine.iter().map(|b| b.body.mass).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunOpts;
    use machine::MachineConfig;
    use parallel::SchedPolicy;

    fn machine(pes: usize) -> Arc<Machine> {
        Arc::new(Machine::new(pes, MachineConfig::origin2000()))
    }

    #[test]
    fn runs_with_one_sided_traffic_only() {
        let cfg = NBodyConfig::small();
        let m = run_opts(machine(4), &cfg, RunOpts::default());
        assert!(m.sim_time > 0);
        assert!(m.counters.puts > 0, "SHMEM must put");
        assert!(m.counters.amos > 0, "ticket reservation uses fetch-add");
        assert_eq!(m.counters.msgs_sent, 0, "SHMEM sends no two-sided messages");
    }

    #[test]
    fn deterministic() {
        let cfg = NBodyConfig::small();
        assert_eq!(
            run_opts(machine(2), &cfg, RunOpts::default()).checksum,
            run_opts(machine(2), &cfg, RunOpts::default()).checksum
        );
    }

    #[test]
    fn snapshot_restore_matches_straight_run() {
        use o2k_snap::{SnapPoint, SnapSpec};
        let cfg = NBodyConfig::small();
        let dir = crate::snapshot::testutil::scratch("nbody-shmem");
        let det = RunOpts::with_sched(SchedPolicy::Det);
        let straight = run_opts(machine(4), &cfg, det.clone());
        let captured = run_opts(
            machine(4),
            &cfg,
            RunOpts {
                snap: Some(SnapSpec::Capture {
                    dir: dir.clone(),
                    point: SnapPoint {
                        name: "step".into(),
                        index: 1,
                    },
                }),
                ..det.clone()
            },
        );
        let restored = run_opts(
            machine(4),
            &cfg,
            RunOpts {
                snap: Some(SnapSpec::Restore { dir: dir.clone() }),
                ..det
            },
        );
        for m in [&captured, &restored] {
            assert_eq!(m.checksum.to_bits(), straight.checksum.to_bits());
            assert_eq!(m.sim_time, straight.sim_time);
            assert_eq!(m.counters, straight.counters);
            assert_eq!(
                m.sched.as_ref().unwrap().fingerprint,
                straight.sched.as_ref().unwrap().fingerprint
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn physics_close_to_mp_version() {
        let cfg = NBodyConfig::small();
        let sh = run_opts(machine(4), &cfg, RunOpts::default()).checksum;
        let mp = crate::nbody_mp::run_opts(machine(4), &cfg, RunOpts::default()).checksum;
        let rel = (sh - mp).abs() / mp;
        assert!(rel < 1e-6, "same decomposition → same physics: {rel}");
    }

    #[test]
    fn speeds_up() {
        let cfg = NBodyConfig {
            n: 512,
            steps: 2,
            ..NBodyConfig::default()
        };
        let t1 = run_opts(machine(1), &cfg, RunOpts::default()).sim_time;
        let t4 = run_opts(machine(4), &cfg, RunOpts::default()).sim_time;
        assert!(t4 < t1);
    }
}
