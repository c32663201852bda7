//! Integration tests of the model runtimes working together: multiple
//! worlds in one team, virtual-time coherence between layers, and the
//! experiment framework end to end.

use std::sync::Arc;

use origin2k::machine::{Machine, MachineConfig, TimeCat};
use origin2k::mp::{MpWorld, RecvSpec};
use origin2k::parallel::Team;
use origin2k::sas::SasWorld;
use origin2k::shmem::SymWorld;

fn machine(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(p, MachineConfig::origin2000()))
}

#[test]
fn all_three_worlds_coexist_in_one_team() {
    // A mixed program: messages, puts and shared memory in the same run —
    // everything charges the same clocks.
    let m = machine(4);
    let mp = MpWorld::new(Arc::clone(&m));
    let sh = SymWorld::new(Arc::clone(&m));
    let sas = SasWorld::new(Arc::clone(&m));
    let run = Team::new(m).run(|ctx| {
        // MP phase: ring ping.
        let next = (ctx.pe() + 1) % ctx.npes();
        let prev = (ctx.pe() + ctx.npes() - 1) % ctx.npes();
        mp.send(ctx, next, 0, &[ctx.pe() as u64]);
        let (_, _, got) = mp.recv::<u64>(ctx, RecvSpec::from(prev, 0));
        // SHMEM phase: publish what we got.
        let sym = sh.alloc::<u64>(ctx, 1);
        sym.put1(ctx, 0, 0, got[0]); // last writer wins; just traffic
        sh.barrier_all(ctx);
        // SAS phase: accumulate into shared memory.
        let acc = sas.alloc::<u64>(ctx, 1);
        let mut pe = sas.pe();
        pe.fadd(ctx, &acc, 0, got[0]);
        sas.barrier(ctx);
        pe.read(ctx, &acc, 0)
    });
    let expect: u64 = (0..4).sum();
    for r in &run.results {
        assert_eq!(*r, expect);
    }
    let c = run.merged_counters();
    assert!(c.msgs_sent >= 4, "MP traffic recorded");
    assert!(c.puts >= 4, "SHMEM traffic recorded");
    assert!(
        c.cache_hits + c.misses_local + c.misses_remote > 0,
        "SAS coherence activity recorded"
    );
}

#[test]
fn virtual_time_is_monotone_through_mixed_operations() {
    let m = machine(2);
    let mp = MpWorld::new(Arc::clone(&m));
    let run = Team::new(m).run(|ctx| {
        let mut stamps = vec![ctx.now()];
        ctx.compute(100);
        stamps.push(ctx.now());
        ctx.barrier();
        stamps.push(ctx.now());
        if ctx.pe() == 0 {
            mp.send(ctx, 1, 0, &[1u8]);
        } else {
            let _ = mp.recv::<u8>(ctx, RecvSpec::from(0, 0));
        }
        stamps.push(ctx.now());
        ctx.advance(5, TimeCat::Local);
        stamps.push(ctx.now());
        stamps
    });
    for stamps in run.results {
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "clock ran backwards: {stamps:?}"
        );
    }
}

#[test]
fn experiment_suite_runs_quick() {
    // Smoke the full reproduction path end to end (quick sizes).
    for id in ["t1", "t2", "f6", "a3"] {
        let out = o2k_bench::run_experiment(id, true);
        assert!(out.len() > 80, "{id} produced no content");
    }
}

#[test]
fn effort_table_is_stable_shape() {
    let t = origin2k::core::effort_table();
    assert_eq!(t.len(), 6);
    // AMR SAS must be the shortest AMR implementation (paper's key claim).
    let amr: Vec<_> = t
        .iter()
        .filter(|r| r.app == origin2k::apps::App::Amr)
        .collect();
    let sas = amr
        .iter()
        .find(|r| r.model == origin2k::apps::Model::Sas)
        .unwrap();
    assert!(amr.iter().all(|r| r.loc >= sas.loc));
}
