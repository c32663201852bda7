//! N-body under the cache-coherent shared address space (CC-SAS).
//!
//! The shortest of the three implementations, as in the paper: bodies and
//! the flattened octree live in *shared* arrays; each PE simply walks the
//! shared tree for the bodies in its costzone and writes accelerations
//! back. There is no exchange phase, no essential-tree construction, no
//! repartitioning traffic — communication happens implicitly, one cache
//! line at a time, as the coherence protocol moves tree nodes and body
//! positions to whoever touches them. Load balance is costzones: a new
//! slice of the tree-ordered cost line each step, with no data movement
//! because nothing is "owned" in the first place.

use std::sync::Arc;

use machine::Machine;
use nbody::costzones::costzones;
use nbody::{Octree, Vec3};
use parallel::{Ctx, Team};
use sas::{SasSlice, SasWorld};

use crate::metrics::{App, Model, RunMetrics};
use crate::nbody_common::{flatten_tree, read_vec3, shared_tree_walk, NBodyConfig, NODE_WORDS};
// snap:begin
use crate::snapshot::{decode_sas_state, encode_sas_state, Snapshotter};
// snap:end
use crate::workcost as W;

/// Run the CC-SAS N-body application; returns uniform metrics. Pages are
/// homed by the machine's `page_policy` (ablation A1 varies it).
/// `opts` overrides the process defaults (see [`crate::RunOpts`]).
pub fn run_opts(machine: Arc<Machine>, cfg: &NBodyConfig, opts: crate::RunOpts) -> RunMetrics {
    assert!(cfg.n >= machine.pes(), "need at least one body per PE");
    let world = SasWorld::new(Arc::clone(&machine));
    // snap:begin — checkpoint plumbing, shared by every model
    let snap = Snapshotter::new(
        &opts,
        App::NBody,
        Model::Sas,
        &machine,
        // The workload key names the page policy: page homes captured
        // under one policy never seed a run under the other, on any machine.
        &format!("{cfg:?}/{:?}", machine.config.page_policy),
    );
    snap.import_world(|b| world.import_state_bytes(b));
    // snap:end
    let team = opts.configure(Team::new(machine));
    let run = team.run_resumed(snap.team_resume(), |ctx| pe_main(ctx, &world, cfg, &snap));
    RunMetrics::collect(App::NBody, Model::Sas, &run, cfg.n)
}

struct Shared {
    pos: SasSlice<f64>,
    vel: SasSlice<f64>,
    mass: SasSlice<f64>,
    acc: SasSlice<f64>,
    cost: SasSlice<f64>,
    zone: SasSlice<u64>,
    tree_nodes: SasSlice<f64>,
    tree_leaves: SasSlice<u64>,
}

fn pe_main(ctx: &mut Ctx, w: &SasWorld, cfg: &NBodyConfig, snap: &Snapshotter) -> f64 {
    let p = ctx.npes();
    let me = ctx.pe();
    let n = cfg.n;
    let node_cap = 8 * n + 64;
    let mut pe = w.pe();

    let s = Shared {
        pos: w.alloc(ctx, 3 * n),
        vel: w.alloc(ctx, 3 * n),
        mass: w.alloc(ctx, n),
        acc: w.alloc(ctx, 3 * n),
        cost: w.alloc(ctx, n),
        zone: w.alloc(ctx, n),
        tree_nodes: w.alloc(ctx, node_cap * NODE_WORDS),
        tree_leaves: w.alloc(ctx, n),
    };
    // snap:begin — warm start: every body and tree word, page home, and
    // directory line came back through the world import (the allocs above
    // handed the regions back); reload this PE's private cache.
    let warm = snap.resume(me, "step", |at, r| {
        decode_sas_state(r, &mut pe)?;
        Ok(at as usize)
    });
    // snap:end
    let start = warm.unwrap_or_else(|| {
        // Parallel-initialisation idiom: each PE first-touches its block so
        // pages spread across nodes (a no-op under round-robin paging).
        let lo = me * n / p;
        let hi = (me + 1) * n / p;
        s.pos.home_pages(ctx, 3 * lo, 3 * hi);
        s.vel.home_pages(ctx, 3 * lo, 3 * hi);
        s.acc.home_pages(ctx, 3 * lo, 3 * hi);
        s.mass.home_pages(ctx, lo, hi);
        s.cost.home_pages(ctx, lo, hi);
        s.zone.home_pages(ctx, lo, hi);
        let tn = node_cap * NODE_WORDS;
        s.tree_nodes.home_pages(ctx, me * tn / p, (me + 1) * tn / p);
        s.tree_leaves.home_pages(ctx, lo, hi);

        if me == 0 {
            for (i, b) in cfg.bodies().iter().enumerate() {
                s.pos.write_raw(3 * i, b.pos.x);
                s.pos.write_raw(3 * i + 1, b.pos.y);
                s.pos.write_raw(3 * i + 2, b.pos.z);
                s.vel.write_raw(3 * i, b.vel.x);
                s.vel.write_raw(3 * i + 1, b.vel.y);
                s.vel.write_raw(3 * i + 2, b.vel.z);
                s.mass.write_raw(i, b.mass);
                s.cost.write_raw(i, 1.0);
            }
        }
        w.barrier(ctx);
        0
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

        // The tree is rebuilt in place each step; drop cached lines (models
        // the rebuild's invalidation storm conservatively).
        ctx.net_phase("tree");
        pe.flush_cache();

        // Tree build and costzones: charged as parallel work; PE 0 carries
        // the replicated data structure (see DESIGN.md on this modelling
        // choice — walks below are fully coherence-accurate).
        ctx.compute_units((n / p) as u64, W::TREE_BUILD_PER_BODY_NS);
        ctx.compute_units((n / p) as u64, W::PARTITION_PER_BODY_NS);
        if me == 0 {
            let positions: Vec<Vec3> = (0..n)
                .map(|i| {
                    Vec3::new(
                        s.pos.read_raw(3 * i),
                        s.pos.read_raw(3 * i + 1),
                        s.pos.read_raw(3 * i + 2),
                    )
                })
                .collect();
            let masses: Vec<f64> = (0..n).map(|i| s.mass.read_raw(i)).collect();
            let tree = Octree::build(&positions, &masses, 4);
            // sim:begin — serialising the tree into the simulator's shared
            // arrays; on real CC-SAS hardware the tree is simply built in
            // shared memory and used in place.
            let (words, leaves) = flatten_tree(&tree);
            assert!(
                words.len() <= node_cap * NODE_WORDS,
                "tree node capacity exceeded"
            );
            for (i, v) in words.iter().enumerate() {
                s.tree_nodes.write_raw(i, *v);
            }
            for (i, v) in leaves.iter().enumerate() {
                s.tree_leaves.write_raw(i, *v);
            }
            // sim:end
            let costs: Vec<f64> = (0..n).map(|i| s.cost.read_raw(i)).collect();
            let zones = costzones(&tree, &costs, p);
            for (i, z) in zones.iter().enumerate() {
                s.zone.write_raw(i, u64::from(*z));
            }
        }
        w.barrier(ctx);

        // My costzone, read through the shared zone array.
        let zones = pe.read_range(ctx, &s.zone, 0, n);
        let my: Vec<usize> = (0..n).filter(|&i| zones[i] == me as u64).collect();

        // Forces: walk the shared tree, coherence charging every line.
        ctx.net_phase("forces");
        let mut interactions = 0u64;
        for &b in &my {
            let bp = read_vec3(ctx, &mut pe, &s.pos, b);
            let (a, cnt) = shared_tree_walk(
                ctx,
                &mut pe,
                &s.tree_nodes,
                &s.tree_leaves,
                &s.pos,
                &s.mass,
                bp,
                cfg.theta,
                cfg.eps,
            );
            interactions += cnt;
            pe.write_range(ctx, &s.acc, 3 * b, &[a.x, a.y, a.z]);
            pe.write(ctx, &s.cost, b, cnt as f64);
        }
        ctx.compute_units(interactions, W::NBODY_INTERACTION_NS);
        w.barrier(ctx);

        // Integrate my bodies in place.
        for &b in &my {
            let a = read_vec3(ctx, &mut pe, &s.acc, b);
            let v = read_vec3(ctx, &mut pe, &s.vel, b);
            let x = read_vec3(ctx, &mut pe, &s.pos, b);
            let nv = v + a * cfg.dt;
            let nx = x + nv * cfg.dt;
            pe.write_range(ctx, &s.vel, 3 * b, &[nv.x, nv.y, nv.z]);
            pe.write_range(ctx, &s.pos, 3 * b, &[nx.x, nx.y, nx.z]);
        }
        ctx.compute_units(my.len() as u64, W::INTEGRATE_PER_BODY_NS);
        w.barrier(ctx);
    }

    // Checksum in body-index order at PE 0 (measurement, uncosted).
    let total = if me == 0 {
        (0..n)
            .map(|i| {
                Vec3::new(
                    s.pos.read_raw(3 * i),
                    s.pos.read_raw(3 * i + 1),
                    s.pos.read_raw(3 * i + 2),
                )
                .norm()
            })
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
        let cfg = NBodyConfig::small();
        let m = run_opts(machine(4), &cfg, RunOpts::default());
        assert!(m.sim_time > 0);
        assert_eq!(m.counters.msgs_sent, 0);
        assert_eq!(m.counters.puts, 0);
        assert!(m.counters.cache_hits > 0);
        assert!(
            m.counters.misses_remote > 0,
            "shared-tree walks must produce remote misses"
        );
    }

    #[test]
    fn checksum_independent_of_pe_count() {
        // The SAS version always walks the same global tree: physics is
        // bitwise identical at any P.
        let cfg = NBodyConfig::small();
        let c1 = run_opts(machine(1), &cfg, RunOpts::default()).checksum;
        let c4 = run_opts(machine(4), &cfg, RunOpts::default()).checksum;
        assert_eq!(c1, c4);
    }

    #[test]
    fn physics_close_to_mp() {
        let cfg = NBodyConfig::small();
        let sas = run_opts(machine(4), &cfg, RunOpts::default()).checksum;
        let mpv = crate::nbody_mp::run_opts(machine(1), &cfg, RunOpts::default()).checksum;
        let rel = (sas - mpv).abs() / mpv;
        assert!(rel < 1e-9, "global tree vs P=1 MP: {rel}");
    }

    #[test]
    fn snapshot_restore_matches_straight_run() {
        use o2k_snap::{SnapPoint, SnapSpec};
        let cfg = NBodyConfig::small();
        let dir = crate::snapshot::testutil::scratch("nbody-sas");
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
    fn paging_policy_barely_matters_for_irregular_nbody() {
        // The SPLASH-era finding this ablation reproduces: block first-touch
        // gives almost no locality for Barnes-Hut, because costzones
        // ownership is contiguous in *tree* order, not address order.
        // (Contrast with AMR, where ownership is address-contiguous and
        // the paging policy shows up clearly.)
        let cfg = NBodyConfig::small();
        let ft = run_opts(machine(8), &cfg, RunOpts::default());
        let round_robin = MachineConfig {
            page_policy: PagePolicy::RoundRobin,
            ..MachineConfig::origin2000()
        };
        let rr = run_opts(
            Arc::new(Machine::new(8, round_robin)),
            &cfg,
            RunOpts::default(),
        );
        let ft_frac = ft.counters.remote_miss_fraction();
        let rr_frac = rr.counters.remote_miss_fraction();
        assert!(
            (ft_frac - rr_frac).abs() / rr_frac < 0.10,
            "expected near-tie, got {ft_frac} vs {rr_frac}"
        );
        // Both policies produce identical physics.
        assert_eq!(ft.checksum, rr.checksum);
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
