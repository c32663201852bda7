//! AMR under the cache-coherent shared address space (CC-SAS).
//!
//! The short version, as in the paper. The solution field lives in one
//! shared array indexed by triangle id. There is no consistency gather, no
//! repartitioner, no remapping, no migration, and no ghost machinery:
//! each PE simply takes a block of the active-triangle list each step and
//! updates its triangles, reading whatever neighbour values it needs —
//! the coherence protocol moves boundary lines automatically, and the
//! counters record that implicit traffic.

use std::sync::Arc;

use machine::Machine;
use parallel::{Ctx, Team};
use sas::{SasSlice, SasWorld};

use crate::amr_common::{AmrConfig, MeshMemo};
use crate::metrics::{App, Model, RunMetrics};
// snap:begin
use crate::snapshot::{decode_sas_state, encode_sas_state, Snapshotter};
// snap:end
use crate::workcost as W;

/// Run the CC-SAS AMR application; returns uniform metrics. Pages are
/// homed by the machine's `page_policy` (ablation A1 varies it).
/// `opts` overrides the process defaults (see [`crate::RunOpts`]).
pub fn run_opts(machine: Arc<Machine>, cfg: &AmrConfig, opts: crate::RunOpts) -> RunMetrics {
    let world = SasWorld::new(Arc::clone(&machine));
    // sim:begin — harness, not effort: the mesh memo (the replicated
    // metadata is charged on every PE, computed once per run on the host)
    // and the checkpoint plumbing every model shares
    let memo = MeshMemo::new(cfg);
    let snap = Snapshotter::new(
        &opts,
        App::Amr,
        Model::Sas,
        &machine,
        // The workload key names the page policy: page homes captured
        // under one policy never seed a run under the other, on any machine.
        &format!("{cfg:?}/{:?}", machine.config.page_policy),
    );
    snap.import_world(|b| world.import_state_bytes(b));
    // sim:end
    let team = opts.configure(Team::new(machine));
    let run = team.run_resumed(snap.team_resume(), |ctx| {
        pe_main(ctx, &world, cfg, &memo, &snap)
    });
    RunMetrics::collect(App::Amr, Model::Sas, &run, memo.final_active(cfg))
}

fn pe_main(
    ctx: &mut Ctx,
    w: &SasWorld,
    cfg: &AmrConfig,
    memo: &Arc<MeshMemo>,
    snap: &Snapshotter,
) -> f64 {
    let p = ctx.npes();
    let me = ctx.pe();
    let cap = cfg.tri_capacity();
    let mut pe = w.pe();
    const CHUNK: usize = 32;

    // The shared field, indexed by triangle id. Pages are homed by
    // genuine first touch: owners touch their own blocks first during
    // the inheritance and sweep phases, so placement follows ownership.
    let field: SasSlice<f64> = w.alloc(ctx, cap);
    // Work-claim cursors for self-scheduled sweeps (one slot per sweep
    // so no reset is ever needed).
    let cursors: SasSlice<u64> = w.alloc(ctx, cfg.steps * cfg.sweeps + 1);
    // snap:begin — warm start: the shared field, page homes, and directory
    // came back through the world import (the allocs above handed the
    // regions back); reload this PE's private cache and replay the
    // deterministic adaptation to rebuild the replicated mesh.
    let warm = snap.resume(me, "step", |at, r| {
        let mut state = memo.replica(cfg);
        for s in 0..at as usize {
            state.adapt(cfg, s);
        }
        decode_sas_state(r, &mut pe)?;
        Ok((at as usize, state))
    });
    // snap:end
    let (start, mut state) = warm.unwrap_or_else(|| {
        let state = memo.replica(cfg);
        if me == 0 {
            for (t, v) in state.field.iter().enumerate() {
                field.write_raw(t, *v);
            }
        }
        w.barrier(ctx);
        (0, state)
    });

    for step in start..cfg.steps {
        // snap:begin — zero-cost quiescence gate: the previous step ended
        // in a barrier; shared state is in the SAS world, private state in
        // `pe`'s cache.
        snap.point(
            ctx,
            "step",
            step as u64,
            |wr| encode_sas_state(wr, &pe),
            || w.export_state_bytes(),
        );
        // snap:end

        // (1) Remesh: replicated metadata, distributed charge. No field
        // synchronisation is needed — shared memory is always consistent.
        ctx.net_phase("adapt");
        let before = state.mesh.num_tris_total();
        let stats = state.adapt(cfg, step);
        assert!(
            state.mesh.num_tris_total() <= cap,
            "triangle capacity exceeded"
        );
        ctx.compute_units((stats.marked_scan / p + 1) as u64, W::MARK_PER_TRI_NS);
        ctx.compute_units((stats.new_tris / p + 1) as u64, W::ADAPT_PER_TRI_NS);
        w.barrier(ctx);

        // New triangles inherit the parent's (shared, current) value; the
        // new-id range is split across PEs.
        let after = state.mesh.num_tris_total();
        let new_lo = before + (after - before) * me / p;
        let new_hi = before + (after - before) * (me + 1) / p;
        for t in new_lo..new_hi {
            let parent = state.mesh.parent_of(t as u32).expect("has parent");
            let v = pe.read(ctx, &field, parent as usize);
            pe.write(ctx, &field, t, v);
        }
        w.barrier(ctx);

        // (2) Ownership is a block of the active list — no partitioner, no
        // remap, no migration. (Under self-scheduling the block is only
        // used for inheritance; sweep work is claimed dynamically.)
        let dual = state.dual();
        let n_active = dual.len();
        let my: Vec<usize> = (me * n_active / p..(me + 1) * n_active / p).collect();

        // (3) Jacobi sweeps: local scratch, then a write-back phase, with
        // barriers separating read and write epochs.
        ctx.net_phase("solve");
        for sweep in 0..cfg.sweeps {
            let mut mine: Vec<usize> = Vec::new();
            let mut new_vals: Vec<f64> = Vec::new();
            let mut work = 0u64;
            let mut update = |pe: &mut sas::SasPe, ctx: &mut Ctx, i: usize| {
                let nb = dual.neighbors(i);
                work += nb.len() as u64;
                if nb.is_empty() {
                    pe.read(ctx, &field, dual.tris[i] as usize)
                } else {
                    let s: f64 = nb
                        .iter()
                        .map(|&j| pe.read(ctx, &field, dual.tris[j as usize] as usize))
                        .sum();
                    s / nb.len() as f64
                }
            };
            if cfg.sas_self_schedule {
                // Genuine self-scheduling: chunks are claimed by atomic
                // fetch-add on a shared cursor (counting chunks), exactly
                // as the paper's SAS codes did. The claim *order* — and
                // hence per-PE assignment, affinity, and claim traffic —
                // follows the schedule: the virtual-time order under the
                // deterministic policy (bitwise reproducible), a seeded
                // interleaving under the exploration policies. The Jacobi
                // answer is barrier-separated and so identical under all
                // of them.
                let slot = step * cfg.sweeps + sweep;
                loop {
                    let c = pe.fadd(ctx, &cursors, slot, 1) as usize;
                    let start = c * CHUNK;
                    if start >= n_active {
                        break; // the failed claim is still charged
                    }
                    for i in start..(start + CHUNK).min(n_active) {
                        mine.push(i);
                        let v = update(&mut pe, ctx, i);
                        new_vals.push(v);
                    }
                }
            } else {
                for &i in &my {
                    mine.push(i);
                    let v = update(&mut pe, ctx, i);
                    new_vals.push(v);
                }
            }
            ctx.compute_units(work, W::SOLVER_PER_NEIGHBOR_NS);
            w.barrier(ctx);
            for (k, &i) in mine.iter().enumerate() {
                pe.write(ctx, &field, dual.tris[i] as usize, new_vals[k]);
            }
            w.barrier(ctx);
        }
    }

    // Checksum straight out of shared memory (measurement, uncosted).
    w.barrier(ctx);
    let total = if me == 0 {
        state
            .active()
            .iter()
            .map(|&t| field.read_raw(t as usize))
            .sum::<f64>()
    } else {
        0.0
    };
    ctx.broadcast(0, if me == 0 { Some(total) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunOpts;
    use machine::{MachineConfig, PagePolicy};
    use parallel::SchedPolicy;

    fn machine(pes: usize) -> Arc<Machine> {
        Arc::new(Machine::new(pes, MachineConfig::origin2000()))
    }

    #[test]
    fn runs_with_implicit_communication_only() {
        let cfg = AmrConfig::small();
        let m = run_opts(machine(4), &cfg, RunOpts::default());
        assert!(m.sim_time > 0);
        assert_eq!(m.counters.msgs_sent, 0);
        assert_eq!(m.counters.puts, 0);
        assert!(m.counters.misses_remote > 0);
        assert!(
            m.counters.invalidations > 0,
            "boundary writes must invalidate"
        );
    }

    #[test]
    fn matches_mp_checksum_bitwise() {
        // Same Jacobi, same schedule, same inheritance rules: the shared
        // array must hold exactly the values the MP version computes.
        let cfg = AmrConfig::small();
        let sas = run_opts(machine(4), &cfg, RunOpts::default()).checksum;
        let mpv = crate::amr_mp::run_opts(machine(4), &cfg, RunOpts::default()).checksum;
        assert_eq!(sas, mpv);
    }

    #[test]
    fn checksum_independent_of_pe_count() {
        let cfg = AmrConfig::small();
        assert_eq!(
            run_opts(machine(1), &cfg, RunOpts::default()).checksum,
            run_opts(machine(8), &cfg, RunOpts::default()).checksum
        );
    }

    #[test]
    fn first_touch_improves_amr_locality() {
        // AMR ownership is address-contiguous, so — unlike N-body — the
        // paging policy matters here. The first-touch CAS race is decided
        // by the schedule; the deterministic one pins page homes to
        // virtual-time order, so the margin cannot flap run to run.
        // Small pages (test_tiny) so the active field spans many pages and
        // placement has room to matter at this problem size.
        let cfg = AmrConfig::small();
        let m = |page_policy| {
            let cfg = MachineConfig {
                page_policy,
                ..MachineConfig::test_tiny()
            };
            Arc::new(Machine::new(8, cfg))
        };
        let det = || RunOpts::with_sched(SchedPolicy::Det);
        let ft = run_opts(m(PagePolicy::FirstTouch), &cfg, det());
        let rr = run_opts(m(PagePolicy::RoundRobin), &cfg, det());
        assert!(
            ft.counters.remote_miss_fraction() < rr.counters.remote_miss_fraction(),
            "first touch should reduce remote misses: {} vs {}",
            ft.counters.remote_miss_fraction(),
            rr.counters.remote_miss_fraction()
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
        // Self-scheduling on: the claim race is the most schedule-sensitive
        // code in the repo, so restoring through it is the strongest check.
        let cfg = AmrConfig {
            sas_self_schedule: true,
            ..AmrConfig::small()
        };
        let dir = crate::snapshot::testutil::scratch("amr-sas");
        let go = |snap| {
            run_opts(
                machine(4),
                &cfg,
                RunOpts {
                    sched: Some(SchedPolicy::Det),
                    snap,
                    ..RunOpts::default()
                },
            )
        };
        let straight = go(None);
        let captured = go(Some(SnapSpec::Capture {
            dir: dir.clone(),
            point: SnapPoint {
                name: "step".into(),
                index: 1,
            },
        }));
        let restored = go(Some(SnapSpec::Restore { dir: dir.clone() }));
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
    fn a_first_touch_snapshot_does_not_restore_a_round_robin_run() {
        use o2k_snap::{SnapPoint, SnapSpec};
        // Page placement is part of the workload's snapshot key: a
        // round-robin machine finds no capture of its own in a directory
        // holding a first-touch one, so it runs from scratch.
        let cfg = AmrConfig::small();
        let dir = crate::snapshot::testutil::scratch("amr-sas-paging");
        let go = |page_policy, snap| {
            let m = MachineConfig {
                page_policy,
                ..MachineConfig::origin2000()
            };
            run_opts(
                Arc::new(Machine::new(4, m)),
                &cfg,
                RunOpts {
                    sched: Some(SchedPolicy::Det),
                    snap,
                    ..RunOpts::default()
                },
            )
        };
        let point = SnapPoint {
            name: "step".into(),
            index: 1,
        };
        go(
            PagePolicy::FirstTouch,
            Some(SnapSpec::Capture {
                dir: dir.clone(),
                point,
            }),
        );
        let files = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        assert_eq!(files, 1, "the first-touch run left its capture");
        let straight = go(PagePolicy::RoundRobin, None);
        let restored = go(
            PagePolicy::RoundRobin,
            Some(SnapSpec::Restore { dir: dir.clone() }),
        );
        assert_eq!(restored.checksum.to_bits(), straight.checksum.to_bits());
        assert_eq!(restored.sim_time, straight.sim_time);
        assert_eq!(restored.counters, straight.counters);
        assert_eq!(
            restored.sched.as_ref().unwrap().fingerprint,
            straight.sched.as_ref().unwrap().fingerprint
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod self_schedule_tests {
    use super::*;
    use crate::RunOpts;
    use machine::MachineConfig;
    use parallel::SchedPolicy;

    fn machine(pes: usize) -> Arc<Machine> {
        Arc::new(Machine::new(pes, MachineConfig::origin2000()))
    }

    #[test]
    fn self_scheduling_preserves_the_answer() {
        // Jacobi values are independent of who computes which triangle
        // (claim order varies; the barrier-separated answer does not).
        let static_cfg = AmrConfig::small();
        let dyn_cfg = AmrConfig {
            sas_self_schedule: true,
            ..AmrConfig::small()
        };
        let a = run_opts(machine(6), &static_cfg, RunOpts::default()).checksum;
        let b = run_opts(machine(6), &dyn_cfg, RunOpts::default()).checksum;
        assert_eq!(a, b);
    }

    #[test]
    fn self_scheduling_costs_but_stays_sane() {
        let dyn_cfg = AmrConfig {
            sas_self_schedule: true,
            ..AmrConfig::small()
        };
        // Pin the schedule so the bound is stable run to run.
        let r = run_opts(machine(4), &dyn_cfg, RunOpts::with_sched(SchedPolicy::Det));
        let baseline = run_opts(
            machine(4),
            &AmrConfig::small(),
            RunOpts::with_sched(SchedPolicy::Det),
        );
        // Claim traffic and lost affinity make it slower, but the same
        // order of magnitude.
        assert!(r.sim_time > baseline.sim_time, "claiming is not free");
        assert!(
            (r.sim_time as f64) < 3.0 * baseline.sim_time as f64,
            "modelled self-scheduling should cost well under 3x: {} vs {}",
            r.sim_time,
            baseline.sim_time
        );
    }

    #[test]
    fn self_scheduling_is_bitwise_reproducible_under_det() {
        // The whole point of the deterministic scheduler: the claim race —
        // the most schedule-sensitive code in the repo — produces the same
        // times, counters, and schedule fingerprint every run.
        let dyn_cfg = AmrConfig {
            sas_self_schedule: true,
            ..AmrConfig::small()
        };
        let go = || run_opts(machine(4), &dyn_cfg, RunOpts::with_sched(SchedPolicy::Det));
        let (a, b) = (go(), go());
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.per_pe, b.per_pe);
        assert_eq!(a.sched, b.sched, "same policy, same interleaving");
        assert!(a.sched.expect("coop run has stats").switches > 0);
    }

    #[test]
    fn exploration_schedules_differ_but_answer_does_not() {
        let dyn_cfg = AmrConfig {
            sas_self_schedule: true,
            ..AmrConfig::small()
        };
        let det = run_opts(machine(4), &dyn_cfg, RunOpts::with_sched(SchedPolicy::Det));
        let e7 = run_opts(
            machine(4),
            &dyn_cfg,
            RunOpts::with_sched(SchedPolicy::Explore { seed: 7 }),
        );
        assert_eq!(det.checksum, e7.checksum, "answer is schedule-independent");
        assert_ne!(
            det.sched.unwrap().fingerprint,
            e7.sched.unwrap().fingerprint,
            "exploration must exercise a different interleaving"
        );
    }
}
