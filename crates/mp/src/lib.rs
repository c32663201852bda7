//! Message-passing programming model (the paper's "MPI").
//!
//! Two-sided, tag-matched, eager-protocol message passing over the simulated
//! Origin2000: every send charges sender software overhead and stamps the
//! message with its network arrival time; every receive waits (virtual
//! [`machine::TimeCat::Sync`] time) until the message has arrived, then pays
//! receiver overhead. Collectives ([`MpWorld::barrier`], broadcast,
//! reductions, all-to-all, …) are built *from* point-to-point messages using
//! the classic log-depth algorithms, so their costs emerge from the message
//! model rather than being charged analytically — mirroring how MPI was
//! layered over the Origin2000 interconnect.
//!
//! A payload is a slice of [`Payload`] values — any [`parallel::Element`],
//! arrays and pairs of payloads, or an application type with its own word
//! codec — and travels as a run of `u64` words, like a SHMEM element.
//!
//! The API shape deliberately follows MPI (ranks, tags, `send`/`recv`,
//! `MPI_ANY_SOURCE`-style wildcards) so the application ports exhibit the
//! same structure — and the same programming effort — as the paper's MPI
//! versions.

//!
//! ```
//! use std::sync::Arc;
//! use machine::{Machine, MachineConfig};
//! use mp::{MpWorld, RecvSpec};
//! use parallel::Team;
//!
//! let machine = Arc::new(Machine::new(2, MachineConfig::origin2000()));
//! let world = MpWorld::new(Arc::clone(&machine));
//! let run = Team::new(machine).run(|ctx| {
//!     if ctx.pe() == 0 {
//!         world.send(ctx, 1, 7, &[3.5f64]);
//!         0.0
//!     } else {
//!         let (_, _, data) = world.recv::<f64>(ctx, RecvSpec::from(0, 7));
//!         data[0]
//!     }
//! });
//! assert_eq!(run.results[1], 3.5);
//! ```

mod collectives;
mod payload;
mod world;

pub use parallel::Payload;
pub use world::{MpWorld, RecvSpec, Tag};
