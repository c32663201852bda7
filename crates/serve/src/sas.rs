//! CC-SAS serving: coherent reads of one shared table.
//!
//! The table is a single shared allocation; each PE writes its own shard
//! and homes those pages on its node, so a lookup is a plain
//! `read_into` through the modelled coherence protocol: hot keys stay
//! in the reader's cache, cold keys pay line-granularity fills from the
//! home node. Under a degraded fabric every fill for a hot shard queues
//! on the sick node's port — line traffic, not one message — which is
//! exactly the tail-latency contrast experiment Q1 measures.
//!
//! Under [`Mitigation::Replicate`] the mitigation is pure *placement*:
//! a hot shard's pages are striped round-robin over `{owner} ∪ helpers`
//! at build time instead of all landing on the owner's node, so the
//! coherence protocol itself fans the fill traffic out across the
//! helper nodes — no routing change, no second table, and the serve
//! loop is untouched. Page homes survive snapshots through the world
//! export like any other placement.

use std::sync::Arc;

use apps::snapshot::{decode_sas_state, encode_sas_state};
use apps::{App, Model, RunMetrics, RunOpts, Snapshotter};
use machine::Machine;
use parallel::{Ctx, Team};
use sas::{SasSlice, SasWorld};

use crate::clients;
use crate::plan::{MitPlan, Mitigation};
use crate::{await_arrival, finish, serve_cost, PeOut, ServeConfig, BUILD_NS_PER_WORD};

pub(crate) fn run_opts(machine: Arc<Machine>, cfg: &ServeConfig, opts: RunOpts) -> RunMetrics {
    let world = SasWorld::new(Arc::clone(&machine));
    let plan = MitPlan::build(cfg, machine.pes());
    let snap = Snapshotter::new(&opts, App::Serve, Model::Sas, &machine, &format!("{cfg:?}"));
    snap.import_world(|b| world.import_state_bytes(b));
    let team = opts.configure(Team::new(machine));
    let run = team.run_resumed(snap.team_resume(), |ctx| {
        rank_main(ctx, &world, cfg, &plan, &snap)
    });
    finish(Model::Sas, cfg, &run)
}

fn rank_main(
    ctx: &mut Ctx,
    world: &SasWorld,
    cfg: &ServeConfig,
    plan: &MitPlan,
    snap: &Snapshotter,
) -> PeOut {
    let p = ctx.npes();
    let me = ctx.pe();
    let v = cfg.val_words;
    let mut pe = world.pe();
    let replicate = matches!(plan.mitigation(), Mitigation::Replicate { .. }) && !plan.is_empty();

    let resume = snap
        .resume(me, "warm", |_, r| decode_sas_state(r, &mut pe))
        .is_some();
    // --- build: shared table, my shard written and homed here. On a warm
    // start the table, its page homes, and the coherence directory came
    // back through the world import; this PE's cache came back through
    // its app section. ---
    if !resume {
        ctx.net_phase("build");
    }
    let table = world.alloc::<u64>(ctx, cfg.keys * v);
    if !resume {
        let start = clients::shard_start(me, cfg.keys, p);
        let len = clients::shard_len(me, cfg.keys, p);
        // sim:begin — on real hardware this loop is the same table fill
        // every model does; write_raw/home_pages seed the cache simulator.
        for k in 0..len {
            for w in 0..v {
                table.write_raw(
                    (start + k) * v + w,
                    clients::value_word(cfg.seed, start + k, w),
                );
            }
        }
        if replicate {
            stripe_homes(ctx, &table, plan, cfg, p);
        } else {
            table.home_pages(ctx, start * v, (start + len) * v);
        }
        // sim:end
        ctx.compute_units((len * v) as u64, BUILD_NS_PER_WORD);
        ctx.barrier();
    }
    let stream = clients::stream(cfg, me, p);

    // Warm-table quiescence point: the shared table is built and homed,
    // no request has been issued yet.
    snap.point(
        ctx,
        "warm",
        0,
        |w| encode_sas_state(w, &pe),
        || world.export_state_bytes(),
    );

    // --- serve: every lookup reads the value through the coherence
    // protocol (one access per covered cache line) ---
    ctx.net_phase("serve");
    let mut log = PeOut::new();
    let mut val = vec![0u64; v];
    for req in &stream {
        await_arrival(ctx, req);
        let owner = clients::owner_of(req.key, cfg.keys, p);
        if log.admit(ctx.now(), req, owner, cfg) {
            continue;
        }
        pe.read_into(ctx, &table, req.key * v, &mut val);
        let val0 = val[0];
        serve_cost(ctx, cfg, owner);
        log.complete(ctx.now(), req, val0, cfg);
    }
    ctx.barrier();
    log
}

/// Home the pages of the shared table under the replication plan: a cold
/// shard's pages go to its owner as usual, a hot shard's pages are striped
/// round-robin over `{owner} ∪ helpers` so remote fills fan out across
/// the helper nodes. The owner counts pages striped away from it as
/// replica bytes (the re-placed data volume).
fn stripe_homes(ctx: &mut Ctx, table: &SasSlice<u64>, plan: &MitPlan, cfg: &ServeConfig, p: usize) {
    let me = ctx.pe();
    let v = cfg.val_words;
    let wpp = (ctx.machine().config.page_bytes / 8).max(1);
    let total = cfg.keys * v;
    let start = clients::shard_start(me, cfg.keys, p) * v;
    let end = start + clients::shard_len(me, cfg.keys, p) * v;
    match plan.hot_index(me) {
        None => table.home_pages(ctx, start, end),
        Some(h) => {
            for (pg, assignee) in stripe(start, end, wpp, me, plan.helpers(h)) {
                if assignee == me {
                    table.home_pages(ctx, pg * wpp, ((pg + 1) * wpp).min(total));
                } else {
                    ctx.counters_mut().replica_bytes += (wpp * 8) as u64;
                }
            }
        }
    }
    // Claim my stripes of the hot shards I help.
    for &s in &plan.victims_of(me) {
        let h = plan.hot_index(s).expect("victims are hot owners");
        let sw = clients::shard_start(s, cfg.keys, p) * v;
        let ew = sw + clients::shard_len(s, cfg.keys, p) * v;
        for (pg, assignee) in stripe(sw, ew, wpp, s, plan.helpers(h)) {
            if assignee == me {
                table.home_pages(ctx, pg * wpp, ((pg + 1) * wpp).min(total));
            }
        }
    }
}

/// The round-robin page → PE assignment of one hot shard's word range
/// over its serving set (owner first, then helpers).
fn stripe(
    start_w: usize,
    end_w: usize,
    wpp: usize,
    owner: usize,
    helpers: &[usize],
) -> Vec<(usize, usize)> {
    let pg0 = start_w / wpp;
    let pg1 = end_w.div_ceil(wpp).max(pg0 + 1);
    let set: Vec<usize> = std::iter::once(owner)
        .chain(helpers.iter().copied())
        .collect();
    (pg0..pg1)
        .map(|pg| (pg, set[(pg - pg0) % set.len()]))
        .collect()
}
