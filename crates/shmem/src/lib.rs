//! One-sided (SHMEM) programming model.
//!
//! Models SGI SHMEM on the Origin2000: a **symmetric heap** — collectively
//! allocated arrays that exist at the same logical address on every PE —
//! with one-sided `put`/`get` data movement, remote atomic operations
//! (fetch-add, compare-swap, swap), fences, and the SHMEM collective set
//! (barrier_all, broadcast, collect, reductions). Allocation is collective:
//! the k-th [`SymWorld::alloc`] on every PE names region k, the sequence
//! [`parallel::Regions`] keeps for SHMEM and CC-SAS alike; on a world
//! restored from a snapshot the same calls hand back the imported regions,
//! uncharged.
//!
//! Cost model: a put pays initiator overhead plus one-way hop-priced
//! latency and bandwidth (fire-and-forget until a fence); a get pays a
//! round trip; remote atomics pay a round trip plus directory processing.
//! These are all markedly cheaper than two-sided messages — the reason
//! SHMEM outperformed MPI for fine-grained irregular communication in the
//! paper family — but unlike CC-SAS the programmer still partitions data
//! and names target PEs explicitly.

//!
//! ```
//! use std::sync::Arc;
//! use machine::{Machine, MachineConfig};
//! use parallel::Team;
//! use shmem::SymWorld;
//!
//! let machine = Arc::new(Machine::new(4, MachineConfig::origin2000()));
//! let world = SymWorld::new(Arc::clone(&machine));
//! let run = Team::new(machine).run(|ctx| {
//!     let counter = world.alloc::<u64>(ctx, 1);
//!     let ticket = counter.fadd(ctx, 0, 0, 1u64); // remote atomic at PE 0
//!     world.barrier_all(ctx);
//!     (ticket, counter.get1(ctx, 0, 0))           // one-sided read
//! });
//! assert!(run.results.iter().all(|&(_, total)| total == 4));
//! ```

mod heap;

pub use heap::{SymSlice, SymWorld};
pub use parallel::{Element, IntElement};
