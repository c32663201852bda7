//! A guided tour of the three programming-model APIs on the simulated
//! Origin2000 — the "hello world" of each paradigm, with the virtual-time
//! price of every operation printed.
//!
//! ```text
//! cargo run --release --example models_tour
//! ```

use std::sync::Arc;

use origin2k::machine::{Machine, MachineConfig};
use origin2k::mp::{MpWorld, RecvSpec};
use origin2k::parallel::Team;
use origin2k::sas::SasWorld;
use origin2k::shmem::SymWorld;

fn main() {
    let machine = Arc::new(Machine::new(4, MachineConfig::origin2000()));

    // --- Message passing: explicit two-sided communication -------------
    println!("== MP (MPI-style) ==");
    let w = MpWorld::new(Arc::clone(&machine));
    let team = Team::new(Arc::clone(&machine));
    let run = team.run(|ctx| {
        let said = if ctx.pe() == 0 {
            w.send(ctx, 3, 7, &[1.0f64, 2.0, 3.0]);
            format!("rank 0 sent 24 B to rank 3; clock = {} ns", ctx.now())
        } else if ctx.pe() == 3 {
            let (src, _, data) = w.recv::<f64>(ctx, RecvSpec::from(0, 7));
            format!(
                "rank 3 received {:?} from {src}; clock = {} ns",
                data,
                ctx.now()
            )
        } else {
            format!("rank {} sat out the exchange", ctx.pe())
        };
        // A collective: every rank takes part.
        let total = w.allreduce_sum_u64(ctx, vec![ctx.pe() as u64])[0];
        format!("{said}; allreduce → {total}, clock = {} ns", ctx.now())
    });
    for line in &run.results {
        println!("  {line}");
    }

    // --- SHMEM: one-sided puts/gets on a symmetric heap ----------------
    println!("\n== SHMEM (one-sided) ==");
    let w = SymWorld::new(Arc::clone(&machine));
    let team = Team::new(Arc::clone(&machine));
    let run = team.run(|ctx| {
        let counter = w.alloc::<u64>(ctx, 1);
        let data = w.alloc::<f64>(ctx, 8);
        // Everyone takes a ticket at PE 0 with a remote fetch-add ...
        let ticket = counter.fadd(ctx, 0, 0, 1u64);
        // ... and puts a value into its right neighbour's instance.
        let next = (ctx.pe() + 1) % ctx.npes();
        data.put(ctx, next, 0, &[ctx.pe() as f64 * 10.0]);
        w.barrier_all(ctx);
        let got = data.read_local1(ctx, 0);
        format!(
            "PE {} drew ticket {ticket}, found {got} put by its left neighbour; clock = {} ns",
            ctx.pe(),
            ctx.now()
        )
    });
    for line in &run.results {
        println!("  {line}");
    }

    // --- CC-SAS: implicit communication through coherence --------------
    println!("\n== CC-SAS (shared address space) ==");
    let w = SasWorld::new(Arc::clone(&machine));
    let team = Team::new(machine);
    let run = team.run(|ctx| {
        let shared = w.alloc::<f64>(ctx, 1024);
        let mut pe = w.pe();
        let n = 1024 / ctx.npes();
        let lo = ctx.pe() * n;
        for i in lo..lo + n {
            pe.write(ctx, &shared, i, (i * i) as f64); // first touch homes the page
        }
        w.barrier(ctx);
        // Reading another PE's block: the coherence protocol fetches the
        // lines — no explicit communication in the program text.
        let other = ((ctx.pe() + 1) % ctx.npes()) * n;
        let sum: f64 = (other..other + n).map(|i| pe.read(ctx, &shared, i)).sum();
        let c = ctx.counters();
        let (hits, misses) = (c.cache_hits, c.misses_local + c.misses_remote);
        format!(
            "PE {} summed a remote block → {sum:.0}; cache {hits} hits / {misses} misses; clock = {} ns",
            ctx.pe(),
            ctx.now()
        )
    });
    for line in &run.results {
        println!("  {line}");
    }
    println!("\n(Same machine, same costs — only the programming model changed.)");
}
