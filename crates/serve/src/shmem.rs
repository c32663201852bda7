//! SHMEM serving: one-sided gets against symmetric shard tables.
//!
//! Every PE allocates the same-size symmetric shard (the largest shard's
//! length) and fills its own keys; a client then satisfies a lookup with
//! a single `shmem_get` from the owner's shard — no server involvement,
//! no mailbox, no polling. Latency is the get's network round trip plus
//! the local service compute, so the tail is shaped entirely by fabric
//! contention on the owner's node, not by server queueing.
//!
//! Under [`Mitigation::Replicate`] a second symmetric region holds one
//! slot per hot shard; each helper PE pulls the hot owner's shard into
//! its slot during the build (the copy traffic runs inside a `replica`
//! net phase and is gated by a `barrier_all` epoch before the warm
//! point), and clients fan hot lookups over `{owner} ∪ helpers` by the
//! plan's demand hash, issuing the same one-sided get against whichever
//! PE the hash picks.

use std::sync::Arc;

use apps::{App, Model, RunMetrics, RunOpts, Snapshotter};
use machine::Machine;
use parallel::{Ctx, Team};
use shmem::SymWorld;

use crate::clients;
use crate::plan::{MitPlan, Mitigation};
use crate::{await_arrival, finish, serve_cost, PeOut, ServeConfig, BUILD_NS_PER_WORD};

pub(crate) fn run_opts(machine: Arc<Machine>, cfg: &ServeConfig, opts: RunOpts) -> RunMetrics {
    let world = SymWorld::new(Arc::clone(&machine));
    let plan = MitPlan::build(cfg, machine.pes());
    let snap = Snapshotter::new(
        &opts,
        App::Serve,
        Model::Shmem,
        &machine,
        &format!("{cfg:?}"),
    );
    snap.import_world(|b| world.import_state_bytes(b));
    let team = opts.configure(Team::new(machine));
    let run = team.run_resumed(snap.team_resume(), |ctx| {
        rank_main(ctx, &world, cfg, &plan, &snap)
    });
    finish(Model::Shmem, cfg, &run)
}

fn rank_main(
    ctx: &mut Ctx,
    world: &SymWorld,
    cfg: &ServeConfig,
    plan: &MitPlan,
    snap: &Snapshotter,
) -> PeOut {
    let p = ctx.npes();
    let me = ctx.pe();
    let v = cfg.val_words;
    let slot = clients::max_shard_len(cfg.keys, p);
    let replicate = matches!(plan.mitigation(), Mitigation::Replicate { .. }) && !plan.is_empty();
    let resume = snap.resume(me, "warm", |_, _| Ok(())).is_some();

    // --- build: symmetric shard table, my keys written locally. On a warm
    // start the filled tables came back through the heap import and the
    // client streams are a pure function of the config. ---
    if !resume {
        ctx.net_phase("build");
    }
    let table = world.alloc::<u64>(ctx, slot * v);
    if !resume {
        let start = clients::shard_start(me, cfg.keys, p);
        let len = clients::shard_len(me, cfg.keys, p);
        let mut vals = vec![0u64; len * v];
        for k in 0..len {
            for w in 0..v {
                vals[k * v + w] = clients::value_word(cfg.seed, start + k, w);
            }
        }
        table.write_local(ctx, 0, &vals);
        ctx.compute_units((len * v) as u64, BUILD_NS_PER_WORD);
        world.barrier_all(ctx);
    }
    // Replica region: one `slot`-wide copy per hot shard, pulled by the
    // helper PEs and refreshed behind a barrier epoch gate.
    let repl = if replicate {
        if !resume {
            ctx.net_phase("replica");
        }
        let repl = world.alloc::<u64>(ctx, plan.hot_shards().len() * slot * v);
        if !resume {
            for (h, &s) in plan.hot_shards().iter().enumerate() {
                if plan.helpers(h).contains(&me) {
                    let rl = clients::shard_len(s, cfg.keys, p) * v;
                    let copy = table.get(ctx, s, 0, rl);
                    repl.write_local(ctx, h * slot * v, &copy);
                    ctx.counters_mut().replica_bytes += (rl * 8) as u64;
                }
            }
            world.barrier_all(ctx);
        }
        Some(repl)
    } else {
        None
    };
    let stream = clients::stream(cfg, me, p);

    // Warm-table quiescence point: the shard tables (and replica slots)
    // are fully built and no request has been issued yet.
    snap.point(ctx, "warm", 0, |_| {}, || world.export_state_bytes());

    // --- serve: every lookup is one one-sided get, into one buffer ---
    ctx.net_phase("serve");
    let mut log = PeOut::new();
    let mut val = vec![0u64; v];
    for req in &stream {
        await_arrival(ctx, req);
        let owner = clients::owner_of(req.key, cfg.keys, p);
        if log.admit(ctx.now(), req, owner, cfg) {
            continue;
        }
        let off = (req.key - clients::shard_start(owner, cfg.keys, p)) * v;
        let target = plan.route(owner, req.key, req.arrival);
        let val0 = if target == owner {
            if owner == me {
                table.read_local1(ctx, off)
            } else {
                table.get_into(ctx, owner, off, &mut val);
                val[0]
            }
        } else {
            let repl = repl.as_ref().expect("hot route needs the replica region");
            let roff = plan.hot_index(owner).expect("routed shard is hot") * slot * v + off;
            if target == me {
                repl.read_local1(ctx, roff)
            } else {
                repl.get_into(ctx, target, roff, &mut val);
                val[0]
            }
        };
        serve_cost(ctx, cfg, target);
        log.complete(ctx.now(), req, val0, cfg);
    }
    world.barrier_all(ctx);
    log
}
