//! MP serving: request *routing* through mailboxes.
//!
//! The client PE sends the key to the shard owner and blocks for the
//! reply; the owner answers from its local shard. Because every PE is
//! both a client and a server, waiting is never idle: while blocked on
//! its own reply a PE serves any request that lands in its mailbox, and
//! while idling between its own arrivals it polls the mailbox every
//! [`crate::ServeConfig::poll_ns`]. This is the real cost of MP serving —
//! a request's latency includes the time its owner spent finishing
//! whatever it was doing first — and the reason its tail behaves
//! differently from the one-sided models under load.
//!
//! Termination uses a DONE token per ordered PE pair: mailbox matching is
//! FIFO per sender, so once a PE holds a DONE from every peer, no request
//! for its shard can still be in flight. This stays correct when the
//! admission deadline sheds requests (a shed request is never sent, so
//! counting-based termination would hang).
//!
//! ## Hot-shard mitigation
//!
//! Under [`Mitigation::Replicate`] the owner of each hot shard ships a
//! full copy to its helper PEs during the build (one `TAG_COPY` message
//! per replica, gated by a barrier before the warm point), and clients
//! fan requests for that shard over `{owner} ∪ helpers` by the plan's
//! demand hash. Replica PEs answer from the copy through the same
//! REQ/REP protocol — and because DONE tokens are already exchanged
//! between *every* ordered PE pair, termination covers the replica pair
//! set with no protocol change.
//!
//! Under [`Mitigation::Steal`] requests still go home, but helper PEs
//! claim batches out of the hot owner's mailbox ([`MpWorld::steal_batch`]
//! — the fetch-add claim idiom from `amr_sas` applied to envelopes)
//! whenever they idle between their own arrivals, pull the value, and
//! reply to the client directly. A stolen request is answered exactly
//! once (the claim removes the envelope under the mailbox lock), stealing
//! never touches REP/DONE tokens, and a stealer only sweeps while no
//! request of its own is outstanding, so the termination argument above
//! is unchanged.

use std::sync::Arc;

use apps::{App, Model, RunMetrics, RunOpts, Snapshotter};
use machine::{cost, Machine, TimeCat};
use mp::{MpWorld, RecvSpec, Tag};
use parallel::{Ctx, EventKind, Team};

use crate::clients;
use crate::plan::{MitPlan, Mitigation};
use crate::{finish, serve_cost, PeOut, ServeConfig, BUILD_NS_PER_WORD};

const TAG_REQ: Tag = 1;
const TAG_REP: Tag = 2;
const TAG_DONE: Tag = 3;
const TAG_COPY: Tag = 4;

/// Most requests a stealer claims from one victim per sweep.
const STEAL_BATCH: usize = 8;

pub(crate) fn run_opts(machine: Arc<Machine>, cfg: &ServeConfig, opts: RunOpts) -> RunMetrics {
    let world = MpWorld::new(Arc::clone(&machine));
    let plan = MitPlan::build(cfg, machine.pes());
    let snap = Snapshotter::new(&opts, App::Serve, Model::Mp, &machine, &format!("{cfg:?}"));
    let team = opts.configure(Team::new(machine));
    let run = team.run_resumed(snap.team_resume(), |ctx| {
        rank_main(ctx, &world, cfg, &plan, &snap)
    });
    assert_eq!(
        world.pending_messages(),
        0,
        "DONE termination must leave no stranded replica/stealer messages"
    );
    finish(Model::Mp, cfg, &run)
}

/// One PE's shard plus any hot-shard replica copies it serves.
struct Shard {
    start: usize,
    vals: Vec<u64>,
    /// Replica copies held under [`Mitigation::Replicate`]: `(first key,
    /// values)` per hot shard this PE helps, ascending by owner.
    replicas: Vec<(usize, Vec<u64>)>,
}

impl Shard {
    /// The `val_words`-wide value slice for `key`, from the own shard or
    /// a replica copy.
    fn lookup(&self, key: usize, v: usize) -> &[u64] {
        fn at(vals: &[u64], start: usize, key: usize, v: usize) -> Option<&[u64]> {
            let off = key.checked_sub(start)?.checked_mul(v)?;
            vals.get(off..off + v)
        }
        if let Some(s) = at(&self.vals, self.start, key, v) {
            return s;
        }
        for (start, vals) in &self.replicas {
            if let Some(s) = at(vals, *start, key, v) {
                return s;
            }
        }
        panic!("key {key} routed to a PE holding neither shard nor replica");
    }
}

fn rank_main(
    ctx: &mut Ctx,
    world: &MpWorld,
    cfg: &ServeConfig,
    plan: &MitPlan,
    snap: &Snapshotter,
) -> PeOut {
    let p = ctx.npes();
    let me = ctx.pe();
    let v = cfg.val_words;
    let replicate = matches!(plan.mitigation(), Mitigation::Replicate { .. }) && !plan.is_empty();
    let steal_victims: Vec<usize> = if matches!(plan.mitigation(), Mitigation::Steal) {
        plan.victims_of(me)
    } else {
        Vec::new()
    };

    let start = clients::shard_start(me, cfg.keys, p);
    let len = clients::shard_len(me, cfg.keys, p);
    let mut vals = vec![0u64; len * v];
    for k in 0..len {
        for w in 0..v {
            vals[k * v + w] = clients::value_word(cfg.seed, start + k, w);
        }
    }
    let mut replicas: Vec<(usize, Vec<u64>)> = Vec::new();
    if snap.resume(me, "warm", |_, _| Ok(())).is_none() {
        // --- build: materialise my shard of the table. On a warm start
        // the shard is rebuilt above with no charge (the restored clocks
        // already include the build). ---
        ctx.net_phase("build");
        ctx.compute_units((len * v) as u64, BUILD_NS_PER_WORD);
        ctx.barrier();
        if replicate {
            // Hot-shard owners ship full copies to their helpers; the
            // closing barrier is the replica epoch gate, so the warm
            // point below still sees quiescent mailboxes.
            ctx.net_phase("replica");
            for (h, &s) in plan.hot_shards().iter().enumerate() {
                if s == me {
                    for &t in plan.helpers(h) {
                        world.send(ctx, t, TAG_COPY, &vals);
                        ctx.counters_mut().replica_bytes += (vals.len() * 8) as u64;
                    }
                } else if plan.helpers(h).contains(&me) {
                    let (_src, _tag, copy) = world.recv::<u64>(
                        ctx,
                        RecvSpec {
                            src: Some(s),
                            tag: Some(TAG_COPY),
                        },
                    );
                    replicas.push((clients::shard_start(s, cfg.keys, p), copy));
                }
            }
            ctx.barrier();
        }
    } else if replicate {
        // Warm start: replica copies are rebuilt raw like the shard
        // itself — the restored clocks already include the copy traffic.
        for &s in &plan.victims_of(me) {
            let rs = clients::shard_start(s, cfg.keys, p);
            let rl = clients::shard_len(s, cfg.keys, p);
            let mut rv = vec![0u64; rl * v];
            for k in 0..rl {
                for w in 0..v {
                    rv[k * v + w] = clients::value_word(cfg.seed, rs + k, w);
                }
            }
            replicas.push((rs, rv));
        }
    }
    let shard = Shard {
        start,
        vals,
        replicas,
    };
    let stream = clients::stream(cfg, me, p);

    // Warm-table quiescence point: shards (and replica copies) are built,
    // no request sent yet.
    snap.point(
        ctx,
        "warm",
        0,
        |_| {},
        || {
            world.assert_quiescent();
            Vec::new()
        },
    );

    // --- serve: open-loop client + interleaved server ---
    ctx.net_phase("serve");
    let mut log = PeOut::new();
    let mut dones = 0usize;
    // Every message this PE receives lands in `msg`, and every request it
    // steals in `steal`: after the first few requests, serving touches no
    // allocator.
    let mut msg: Vec<u64> = Vec::new();
    let mut steal = StealBufs::default();
    for req in &stream {
        // Poll the mailbox (and sweep steal victims) while idling until
        // this request's arrival.
        while ctx.now() < req.arrival {
            drain(ctx, world, &shard, cfg, &mut dones, &mut msg);
            steal_sweep(ctx, world, cfg, &steal_victims, &mut steal);
            let now = ctx.now();
            if now >= req.arrival {
                break;
            }
            let next = (now + cfg.poll_ns).min(req.arrival);
            ctx.wait_until_traced(next, EventKind::Other, None, None);
        }
        drain(ctx, world, &shard, cfg, &mut dones, &mut msg);
        let owner = clients::owner_of(req.key, cfg.keys, p);
        if log.admit(ctx.now(), req, owner, cfg) {
            continue; // shed: no message, no work
        }
        // Replication fans hot-shard lookups over owner ∪ helpers; the
        // per-shard demand accounting above stays keyed by the true owner.
        let target = plan.route(owner, req.key, req.arrival);
        if target == me {
            let val0 = shard.lookup(req.key, v)[0];
            serve_cost(ctx, cfg, me);
            log.complete(ctx.now(), req, val0, cfg);
        } else {
            world.send(ctx, target, TAG_REQ, &[req.key as u64]);
            // Serve whatever arrives until our own reply does. Only one
            // request of ours is ever outstanding, so any REP is ours.
            let val0 = loop {
                let (src, tag) = world.recv_into(ctx, RecvSpec::ANY, &mut msg);
                match tag {
                    TAG_REQ => answer(ctx, world, &shard, cfg, src, msg[0] as usize),
                    TAG_DONE => dones += 1,
                    _ => break msg[0],
                }
            };
            log.complete(ctx.now(), req, val0, cfg);
        }
    }

    // --- drain the tail: serve until every peer has said DONE ---
    for dst in 0..p {
        if dst != me {
            world.send(ctx, dst, TAG_DONE, &[0u64]);
        }
    }
    if steal_victims.is_empty() {
        while dones < p - 1 {
            let (src, tag) = world.recv_into(ctx, RecvSpec::ANY, &mut msg);
            match tag {
                TAG_REQ => answer(ctx, world, &shard, cfg, src, msg[0] as usize),
                TAG_DONE => dones += 1,
                t => unreachable!("unexpected reply tag {t} after own stream finished"),
            }
        }
    } else {
        // A stealer keeps sweeping its victims' backlogs through the tail
        // instead of blocking: poll the own mailbox, claim from the hot
        // owners, and wait out the poll granularity between rounds.
        while dones < p - 1 {
            drain(ctx, world, &shard, cfg, &mut dones, &mut msg);
            steal_sweep(ctx, world, cfg, &steal_victims, &mut steal);
            if dones >= p - 1 {
                break;
            }
            let next = ctx.now() + cfg.poll_ns;
            ctx.wait_until_traced(next, EventKind::Other, None, None);
        }
    }
    ctx.barrier();
    log
}

/// Serve every request currently queued in the mailbox (non-blocking),
/// receiving each message into `msg`.
fn drain(
    ctx: &mut Ctx,
    world: &MpWorld,
    shard: &Shard,
    cfg: &ServeConfig,
    dones: &mut usize,
    msg: &mut Vec<u64>,
) {
    while let Some((src, tag)) = world.try_recv_into(ctx, RecvSpec::ANY, msg) {
        match tag {
            TAG_REQ => answer(ctx, world, shard, cfg, src, msg[0] as usize),
            TAG_DONE => *dones += 1,
            t => unreachable!("unexpected tag {t} while idle (no request outstanding)"),
        }
    }
}

/// A stealer's reusable buffers: the claimed `(client, key)` requests and
/// the value it replies with.
#[derive(Default)]
struct StealBufs {
    stolen: Vec<(usize, u64)>,
    vals: Vec<u64>,
}

/// Claim up to [`STEAL_BATCH`] queued requests from each victim's mailbox
/// and answer them on the victim's behalf. No-op (no probe, no charge)
/// when `victims` is empty, so `Off` and `Replicate` paths are untouched.
fn steal_sweep(
    ctx: &mut Ctx,
    world: &MpWorld,
    cfg: &ServeConfig,
    victims: &[usize],
    bufs: &mut StealBufs,
) {
    for &victim in victims {
        bufs.stolen.clear();
        world.steal_batch(ctx, victim, TAG_REQ, STEAL_BATCH, &mut bufs.stolen);
        for &(src, key) in &bufs.stolen {
            let key = key as usize;
            // The value still lives in the victim's shard: charge its
            // pull to the helper before answering from the generator.
            let bytes = cfg.val_words * 8;
            let hops = ctx.machine().hops_between(ctx.pe(), victim);
            let pull = cost::msg(&ctx.machine().config, bytes, hops).network
                + ctx.net_delay_to_pe(victim, bytes);
            ctx.advance_traced(
                pull,
                TimeCat::Remote,
                EventKind::Steal,
                bytes.min(u32::MAX as usize) as u32,
                Some(victim as u32),
            );
            bufs.vals.clear();
            bufs.vals
                .extend((0..cfg.val_words).map(|w| clients::value_word(cfg.seed, key, w)));
            serve_cost(ctx, cfg, src);
            world.send(ctx, src, TAG_REP, &bufs.vals);
        }
    }
}

/// Look up `key` (own shard or replica copy) and send the value back to
/// `src`.
fn answer(
    ctx: &mut Ctx,
    world: &MpWorld,
    shard: &Shard,
    cfg: &ServeConfig,
    src: usize,
    key: usize,
) {
    serve_cost(ctx, cfg, src);
    world.send(ctx, src, TAG_REP, shard.lookup(key, cfg.val_words));
}
