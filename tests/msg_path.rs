//! The per-request host path allocates nothing.
//!
//! Its own test binary so it can install the counting `#[global_allocator]`
//! of `tests/support`, as `tests/hit_path.rs` does for CC-SAS hits. After
//! warm-up, the operations a serving request is made of — an MP send and
//! receive, a routed transfer on a healthy or faulted fabric, a SHMEM get,
//! a scheduler hand-off — must not touch the heap. Counts are per thread:
//! on the event backend a team's PEs all run on the calling thread, so a
//! PE's figure includes whatever its peers allocated in between.

mod support;

use std::sync::Arc;

use origin2k::machine::config::ContentionMode;
use origin2k::machine::{FaultMode, Machine, MachineConfig, Topology};
use origin2k::mp::{MpWorld, RecvSpec};
use origin2k::net::NetSim;
use origin2k::parallel::{Ctx, SchedPolicy, Team};
use origin2k::shmem::SymWorld;
use support::allocs;

/// Heap allocations `f` causes on the calling thread.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let a0 = allocs();
    f();
    allocs() - a0
}

/// An Origin2000 of `pes` PEs with the full bus / hub / link fabric on.
fn fabric_machine(pes: usize) -> Arc<Machine> {
    let mut cfg = MachineConfig::origin2000();
    cfg.contention = ContentionMode::Fabric;
    Arc::new(Machine::new(pes, cfg))
}

#[test]
fn mp_ping_pongs_through_recv_into_allocate_nothing() {
    const ROUNDS: u64 = 10_000;
    let m = fabric_machine(16);
    let w = MpWorld::new(Arc::clone(&m));
    let run = Team::new(m).run(|ctx| {
        let (me, peer) = (ctx.pe(), 15 - ctx.pe());
        let mut buf: Vec<u64> = Vec::new();
        let mut round = |ctx: &mut Ctx, i: u64| {
            if me == 0 {
                w.send(ctx, peer, 1, &[i; 4]);
                w.recv_into(ctx, RecvSpec::from(peer, 2), &mut buf);
                assert_eq!(buf, [i + 1; 4]);
            } else if me == 15 {
                w.recv_into(ctx, RecvSpec::from(peer, 1), &mut buf);
                let reply = [buf[0] + 1; 4];
                w.send(ctx, peer, 2, &reply);
            }
        };
        for i in 0..8 {
            round(ctx, i);
        }
        allocs_of(|| {
            for i in 0..ROUNDS {
                round(ctx, i);
            }
        })
    });
    assert_eq!(run.reports[0].counters.msgs_sent, ROUNDS + 8);
    assert_eq!(run.results[0], 0, "10 000 ping-pongs: allocations on PE 0");
    assert_eq!(
        run.results[15], 0,
        "10 000 ping-pongs: allocations on PE 15"
    );
}

/// Routes batches of 16 transfers from node `t / 50` on a P = 256 fabric
/// under `fault`: one warm-up batch from node 0, then 1 999 measured ones,
/// most of whose pairs it has not routed before, so a per-pair memo would
/// allocate. Returns (transfers, detoured transfers, allocations) of the
/// measured batches.
fn p256_routes(fault: &str) -> (u64, u64, u64) {
    let mut cfg = MachineConfig::origin2000();
    cfg.contention = ContentionMode::Fabric;
    cfg.fault = FaultMode::parse(fault).expect("a valid fault spec");
    let topo = Topology::new(256, cfg.cpus_per_node);
    let net = NetSim::new(&topo, &cfg);
    let nodes = topo.nodes();
    let mut items = [(0usize, 128usize); 16];
    let mut route = |t: u64| {
        let src = (t as usize / 50) % nodes;
        for (i, it) in items.iter_mut().enumerate() {
            it.0 = (src + 1 + 7 * i) % nodes;
        }
        let r = net.try_route_many((src * 2) as u32, src, &items, t, true, 0);
        r.expect("no bristle port is dead, so everything routes")
            .transfers
    };
    route(0);
    let warm = net.stats().detoured_transfers;
    let mut transfers = 0;
    let n = allocs_of(|| {
        for t in 1..2_000u64 {
            transfers += route(50 * t);
        }
    });
    (transfers, net.stats().detoured_transfers - warm, n)
}

#[test]
fn a_healthy_p256_route_allocates_nothing() {
    let (transfers, _, n) = p256_routes("off");
    assert_eq!(transfers, 16 * 1_999);
    assert_eq!(n, 0, "1 999 batched routes: allocations");
}

#[test]
fn a_faulted_p256_route_allocates_nothing() {
    // A degraded link is priced on the computed e-cube path; a killed
    // router edge sends rtr0's traffic to odd routers over a BFS detour.
    // The warm-up batch detours (node 0 → node 15 on rtr7), which sizes
    // the detour buffers for every later one.
    for (fault, detours) in [
        ("plan:down0:deg8", false),
        ("plan:down0:deg8;r0d0:kill", true),
    ] {
        let (transfers, detoured, n) = p256_routes(fault);
        assert_eq!(transfers, 16 * 1_999, "{fault}");
        assert_eq!(detoured > 0, detours, "{fault}: {detoured} detoured");
        assert_eq!(n, 0, "1 999 batched routes on {fault}: allocations");
    }
}

#[test]
fn a_shmem_get_into_allocates_nothing() {
    const WORDS: usize = 64;
    let m = fabric_machine(16);
    let w = SymWorld::new(Arc::clone(&m));
    let run = Team::new(m).run(|ctx| {
        let s = w.alloc::<u64>(ctx, WORDS);
        s.write_local(ctx, 0, &[ctx.pe() as u64 + 1; WORDS]);
        w.barrier_all(ctx);
        let mut out = None;
        if ctx.pe() == 0 {
            let mut val = [0u64; 8];
            s.get_into(ctx, 15, 8, &mut val);
            let n = allocs_of(|| {
                for i in 0..1_000 {
                    s.get_into(ctx, 15, i % (WORDS - 8), &mut val);
                }
            });
            assert_eq!(val, [16; 8]);
            out = Some(n);
        }
        w.barrier_all(ctx);
        out
    });
    assert_eq!(run.reports[0].counters.gets, 1_001);
    assert_eq!(run.results[0], Some(0), "1 000 gets: allocations");
}

/// 1 000 compute-and-yield steps per PE on an 8-PE team under `policy`:
/// each PE's allocations during them, and the team's switch count.
fn hand_offs(policy: SchedPolicy) -> (Vec<u64>, u64) {
    let m = Arc::new(Machine::new(8, MachineConfig::origin2000()));
    let run = Team::new(m).sched(policy).run(|ctx| {
        for _ in 0..4 {
            ctx.compute(100);
            ctx.sched_point();
        }
        allocs_of(|| {
            for _ in 0..1_000 {
                ctx.compute(100);
                ctx.sched_point();
            }
        })
    });
    (run.results, run.sched.switches)
}

#[test]
fn a_det_hand_off_allocates_nothing() {
    // Equal steps from equal clocks: every scheduling point hands the
    // floor to the next PE in id order.
    let (allocs, switches) = hand_offs(SchedPolicy::Det);
    assert!(switches >= 8 * 1_000, "{switches} switches");
    assert!(allocs.iter().all(|&n| n == 0), "{allocs:?}");
}

#[test]
fn an_explore_pick_allocates_nothing() {
    // A seeded random pick among the runnable PEs at every scheduling
    // point: drawing one must not build a candidate list.
    let (allocs, switches) = hand_offs(SchedPolicy::Explore { seed: 1 });
    assert!(switches >= 1_000, "{switches} switches");
    assert!(allocs.iter().all(|&n| n == 0), "{allocs:?}");
}
