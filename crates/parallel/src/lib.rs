//! PE-team runtime: cooperative PEs, virtual Origin2000 time.
//!
//! [`Team::run`] runs one flow of control per simulated processing element
//! (PE) — a coroutine on the event core, or an OS thread under
//! [`ExecMode::Thread`] — and its [`sched::CoopSched`] lets exactly one of
//! them hold the floor at a time. Each PE receives a [`Ctx`] holding its
//! virtual [`machine::Clock`], event [`machine::Counters`], and access to
//! team-wide synchronisation plumbing (clock-synchronising barriers and a
//! blackboard broadcast).
//!
//! The three programming-model runtimes (`mp`, `shmem`, `sas`) all build on
//! this crate: they add their own shared state (mailboxes, symmetric heap,
//! coherence directory) but reuse the team/clock/barrier substrate, exactly
//! as MPI, SHMEM and CC-SAS programs on the Origin2000 all ran on the same
//! IRIX processor sets.

//!
//! ```
//! use std::sync::Arc;
//! use machine::{Machine, MachineConfig};
//! use parallel::Team;
//!
//! let machine = Arc::new(Machine::new(4, MachineConfig::origin2000()));
//! let run = Team::new(machine).run(|ctx| {
//!     ctx.compute(1_000 * (ctx.pe() as u64 + 1)); // unequal work...
//!     ctx.barrier();                              // ...absorbed as Sync time
//!     ctx.now()
//! });
//! // The barrier aligned every virtual clock.
//! assert!(run.results.windows(2).all(|w| w[0] == w[1]));
//! ```

mod ctx;
mod element;
mod regions;
mod team;

pub use ctx::Ctx;
pub use element::{Element, IntElement, Payload};
pub use regions::Regions;
pub use team::{PeReport, Team, TeamResume, TeamRun, THREAD_PE_CAP};

// Re-export the tracing vocabulary so model runtimes built on `Ctx` can
// name event kinds and dependency edges without a separate dependency.
pub use o2k_trace::{Dep, Event, EventKind};

// Re-export the scheduler so applications and tests can pick policies
// (`Team::sched`) without a separate dependency.
pub use o2k_sched as sched;
pub use o2k_sched::{ExecMode, SchedPolicy, SchedStats};

// Re-export the interconnect contention model so applications and
// experiments can read `TeamRun::net` stats and hotspot reports without a
// separate dependency. The model activates when the machine's
// [`machine::ContentionMode`] is `Queued`.
pub use o2k_net::{LinkHot, NetSim, NetStats};
