//! AMR under one-sided communication (SHMEM-style).
//!
//! Structurally the MP version — replicated metadata, RCB + PLUM
//! repartitioning, explicit ghost updates — but every byte moves with
//! one-sided puts into a symmetric, triangle-id-indexed field mirror:
//!
//! * consistency before remeshing: owners put their values into PE 0's
//!   instance (fine-grained single-element puts — SHMEM's forte), then the
//!   root instance is broadcast;
//! * ghost updates per sweep: boundary values are put *directly at their
//!   id slot* in the consuming PE's instance — no tag matching, no
//!   receive-side code at all.

use std::sync::Arc;

use machine::Machine;
use parallel::{Ctx, Team};
use partition::rcb_partition;
use partition::WeightedPoint;
use shmem::{SymSlice, SymWorld};

use crate::amr_common::{
    decode_step_state, encode_step_state, AmrConfig, MeshMemo, ReplicatedMesh,
};
use crate::metrics::{App, Model, RunMetrics};
// snap:begin
use crate::snapshot::Snapshotter;
// snap:end
use crate::workcost as W;

/// Run the SHMEM AMR application; returns uniform metrics.
/// `opts` overrides the process defaults (see [`crate::RunOpts`]).
pub fn run_opts(machine: Arc<Machine>, cfg: &AmrConfig, opts: crate::RunOpts) -> RunMetrics {
    let world = SymWorld::new(Arc::clone(&machine));
    // sim:begin — harness, not effort: the mesh memo (the replicated
    // metadata is charged on every PE, computed once per run on the host)
    // and the checkpoint plumbing every model shares
    let memo = MeshMemo::new(cfg);
    let snap = Snapshotter::new(&opts, App::Amr, Model::Shmem, &machine, &format!("{cfg:?}"));
    snap.import_world(|b| world.import_state_bytes(b));
    // sim:end
    let team = opts.configure(Team::new(machine));
    let run = team.run_resumed(snap.team_resume(), |ctx| {
        pe_main(ctx, &world, cfg, &memo, &snap)
    });
    RunMetrics::collect(App::Amr, Model::Shmem, &run, memo.final_active(cfg))
}

fn pe_main(
    ctx: &mut Ctx,
    w: &SymWorld,
    cfg: &AmrConfig,
    memo: &Arc<MeshMemo>,
    snap: &Snapshotter,
) -> f64 {
    let p = ctx.npes();
    let me = ctx.pe();
    let cap = cfg.tri_capacity();

    // Symmetric field mirror, indexed by triangle id.
    let field: SymSlice<f64> = w.alloc(ctx, cap);
    // snap:begin — warm start: the alloc above handed back the imported
    // field mirror (its cells were restored bitwise); replay the
    // deterministic adaptation to rebuild the mesh, and overlay the
    // captured replica and ownership map. No virtual-time charges — the
    // restored clocks already include the prologue.
    let warm = snap.resume(me, "step", |at, r| {
        let mut state = memo.replica(cfg);
        for s in 0..at as usize {
            state.adapt(cfg, s);
        }
        let (f, owner) = decode_step_state(r, state.mesh.num_tris_total(), p)?;
        state.field = f;
        Ok((at as usize, state, owner))
    });
    // snap:end
    let (start, mut state, mut owner) = warm.unwrap_or_else(|| {
        let state = memo.replica(cfg);
        for (t, v) in state.field.iter().enumerate() {
            field.write_local(ctx, t, &[*v]);
        }

        // Initial ownership: RCB over the base mesh, replicated.
        let mut owner = vec![0u32; state.mesh.num_tris_total()];
        let dual = state.dual();
        ctx.compute_units((dual.len() / p + 1) as u64, W::PARTITION_PER_TRI_NS);
        let pts: Vec<WeightedPoint> = dual
            .centroids
            .iter()
            .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
            .collect();
        let parts = state.initial_partition(|| rcb_partition(&pts, p));
        for (i, &t) in dual.tris.iter().enumerate() {
            owner[t as usize] = parts[i];
        }
        (0, state, owner)
    });

    for step in start..cfg.steps {
        // snap:begin — zero-cost quiescence gate: the previous step ended
        // in a barrier; every PE's state is in `state`/`owner` and the
        // symmetric heap.
        snap.point(
            ctx,
            "step",
            step as u64,
            |wr| encode_step_state(wr, &state.field, &owner),
            || w.export_state_bytes(),
        );
        // snap:end

        // (1) Consistency: owners put values into PE 0's instance, the
        // root instance is broadcast, everyone refreshes its replica.
        ctx.net_phase("sync");
        sync_field(ctx, w, &field, &mut state, &owner);

        // (2) Remesh (replicated metadata, distributed charge).
        ctx.net_phase("adapt");
        let stats = state.adapt(cfg, step);
        assert!(
            state.mesh.num_tris_total() <= cap,
            "triangle capacity exceeded"
        );
        ctx.compute_units((stats.marked_scan / p + 1) as u64, W::MARK_PER_TRI_NS);
        ctx.compute_units((stats.new_tris / p + 1) as u64, W::ADAPT_PER_TRI_NS);
        for t in owner.len()..state.mesh.num_tris_total() {
            let parent = state.mesh.parent_of(t as u32).expect("has parent");
            let o = owner[parent as usize];
            owner.push(o);
        }
        // Mirror the inherited values into my instance.
        for t in state.field.len() - stats.new_tris..state.field.len() {
            field.write_local(ctx, t, &[state.field[t]]);
        }
        w.barrier_all(ctx);

        // (3) Repartition + PLUM remap; migration is just ownership
        // bookkeeping here because the sync already placed every value in
        // every instance — but the pack/unpack work is still charged.
        ctx.net_phase("remap");
        let dual = state.dual();
        ctx.compute_units((dual.len() / p + 1) as u64, W::PARTITION_PER_TRI_NS);
        let inherited: Vec<u32> = dual.tris.iter().map(|&t| owner[t as usize]).collect();
        let (parts, _mv) = state.partition(&inherited, p, cfg.use_remap);
        let moved_out = inherited
            .iter()
            .zip(parts.iter())
            .filter(|(&o, &n)| o as usize == me && n as usize != me)
            .count();
        ctx.compute_units(moved_out as u64, W::MIGRATE_PER_TRI_NS);
        for (i, &t) in dual.tris.iter().enumerate() {
            owner[t as usize] = parts[i];
        }

        // (4) Jacobi sweeps; ghosts land directly at their id slots.
        ctx.net_phase("solve");
        let my: Vec<usize> = (0..dual.len())
            .filter(|&i| parts[i] as usize == me)
            .collect();
        let mut ghost_targets: Vec<Vec<u64>> = vec![Vec::new(); p];
        for &i in &my {
            for &j in dual.neighbors(i) {
                let r = parts[j as usize] as usize;
                if r != me {
                    ghost_targets[r].push(u64::from(dual.tris[i]));
                }
            }
        }
        for l in &mut ghost_targets {
            l.sort_unstable();
            l.dedup();
        }
        for _sweep in 0..cfg.sweeps {
            for (r, ids) in ghost_targets.iter().enumerate() {
                for &id in ids {
                    let v = field.read_local1(ctx, id as usize);
                    field.put1(ctx, r, id as usize, v);
                }
            }
            w.barrier_all(ctx);
            let mut work = 0u64;
            let new_vals: Vec<f64> = my
                .iter()
                .map(|&i| {
                    let nb = dual.neighbors(i);
                    work += nb.len() as u64;
                    if nb.is_empty() {
                        field.read_local1(ctx, dual.tris[i] as usize)
                    } else {
                        let s: f64 = nb
                            .iter()
                            .map(|&j| field.read_local1(ctx, dual.tris[j as usize] as usize))
                            .sum();
                        s / nb.len() as f64
                    }
                })
                .collect();
            ctx.compute_units(work, W::SOLVER_PER_NEIGHBOR_NS);
            for (k, &i) in my.iter().enumerate() {
                field.write_local(ctx, dual.tris[i] as usize, &[new_vals[k]]);
            }
            w.barrier_all(ctx);
        }
        // Refresh the replica from my instance for the next adaptation.
        for &t in &dual.tris {
            if owner[t as usize] as usize == me {
                state.field[t as usize] = field.read_local1(ctx, t as usize);
            }
        }
    }

    // Final consistency + checksum at PE 0.
    ctx.net_phase("sync");
    sync_field(ctx, w, &field, &mut state, &owner);
    let total = if me == 0 { state.checksum() } else { 0.0 };
    ctx.broadcast(0, if me == 0 { Some(total) } else { None })
}

/// Owners put their active values into PE 0's instance; the root instance
/// is broadcast; every PE refreshes its replicated copy.
fn sync_field(
    ctx: &mut Ctx,
    w: &SymWorld,
    field: &SymSlice<f64>,
    state: &mut ReplicatedMesh,
    owner: &[u32],
) {
    let me = ctx.pe();
    for &t in state.active() {
        if owner[t as usize] as usize == me {
            let v = state.field[t as usize];
            if me == 0 {
                field.write_local(ctx, t as usize, &[v]);
            } else {
                field.put1(ctx, 0, t as usize, v);
            }
        }
    }
    w.barrier_all(ctx);
    let total = state.mesh.num_tris_total();
    field.broadcast(ctx, 0, 0, total);
    for t in 0..total {
        state.field[t] = field.read_local1(ctx, t);
    }
    w.barrier_all(ctx);
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
    fn runs_with_one_sided_traffic() {
        let cfg = AmrConfig::small();
        let m = run_opts(machine(4), &cfg, RunOpts::default());
        assert!(m.sim_time > 0);
        assert!(m.counters.puts > 0);
        assert_eq!(m.counters.msgs_sent, 0);
    }

    #[test]
    fn matches_mp_checksum_bitwise() {
        let cfg = AmrConfig::small();
        let sh = run_opts(machine(4), &cfg, RunOpts::default()).checksum;
        let mpv = crate::amr_mp::run_opts(machine(4), &cfg, RunOpts::default()).checksum;
        assert_eq!(sh, mpv);
    }

    #[test]
    fn checksum_independent_of_pe_count() {
        let cfg = AmrConfig::small();
        assert_eq!(
            run_opts(machine(1), &cfg, RunOpts::default()).checksum,
            run_opts(machine(6), &cfg, RunOpts::default()).checksum
        );
    }

    #[test]
    fn speeds_up() {
        let cfg = AmrConfig {
            nx: 16,
            ny: 16,
            steps: 3,
            sweeps: 3,
            ..AmrConfig::default()
        };
        let t1 = run_opts(machine(1), &cfg, RunOpts::default()).sim_time;
        let t8 = run_opts(machine(8), &cfg, RunOpts::default()).sim_time;
        assert!(t8 < t1);
    }

    #[test]
    fn snapshot_restore_matches_straight_run() {
        use o2k_snap::{SnapPoint, SnapSpec};
        let cfg = AmrConfig::small();
        let dir = crate::snapshot::testutil::scratch("amr-shmem");
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
}
