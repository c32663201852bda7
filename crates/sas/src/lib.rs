//! Cache-coherent shared-address-space (CC-SAS) programming model.
//!
//! Models what the Origin2000's hardware gave SAS programs for free:
//! a single shared address space in which *communication is implicit* —
//! data moves between processors one cache line at a time, driven by a
//! directory-based invalidation protocol, with page-granularity placement
//! deciding which node a line's home memory is.
//!
//! Concretely:
//!
//! * [`SasWorld::alloc`] creates a shared region (one instance, unlike the
//!   per-PE instances of the symmetric heap). Allocation is collective, in
//!   the one sequence [`parallel::Regions`] keeps for SHMEM and CC-SAS
//!   alike; on a restored world the same calls hand back the imported
//!   regions, uncharged.
//! * Each PE accesses shared data through its [`SasPe`] handle, which owns a
//!   software **set-associative cache simulator** ([`cache::CacheSim`],
//!   128-byte lines as on the R10000's L2).
//!   [`SasPe::read_into`] is the costed bulk read (one coherence access per
//!   covered line, values into the caller's buffer, nothing allocated).
//! * A per-line **MSI directory** decides what each access costs: cache hits
//!   are free (folded into the application's compute calibration, identical
//!   across models); misses pay local or remote fill latency depending on
//!   the line's **first-touch page home**; writes invalidate sharers and pay
//!   per-sharer invalidation cost; reads of dirty lines pay a
//!   cache-to-cache forwarding penalty.
//! * Synchronisation is barriers ([`SasWorld::barrier`]) and atomic
//!   fetch-add ([`SasPe::fadd`]): all the CC-SAS programs here need. The
//!   paper's SAS codes also took locks; a program that needs one brings a
//!   virtual-time lock back with it.
//!
//! The payoff mirrors the paper: SAS application code contains *no explicit
//! communication at all* — no sends, no puts, no repartitioning copies —
//! which is where its programming-effort advantage comes from; its costs
//! instead appear as remote misses and invalidations measured here.

//!
//! ```
//! use std::sync::Arc;
//! use machine::{Machine, MachineConfig};
//! use parallel::Team;
//! use sas::SasWorld;
//!
//! let machine = Arc::new(Machine::new(2, MachineConfig::origin2000()));
//! let world = SasWorld::new(Arc::clone(&machine));
//! let run = Team::new(machine).run(|ctx| {
//!     let shared = world.alloc::<f64>(ctx, 64);
//!     let mut pe = world.pe();
//!     if ctx.pe() == 0 {
//!         pe.write(ctx, &shared, 5, 2.5); // plain store, coherence priced
//!     }
//!     world.barrier(ctx);
//!     pe.read(ctx, &shared, 5)            // the protocol moved the line
//! });
//! assert_eq!(run.results, vec![2.5, 2.5]);
//! ```

pub mod cache;
pub mod race;
mod world;

pub use cache::CacheSim;
pub use parallel::{Element, IntElement};
pub use race::{AccessClass, RaceKind, RaceReport};
pub use world::{SasPe, SasSlice, SasWorld};
