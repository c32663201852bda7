//! # origin2k
//!
//! A full reproduction of *"A Comparison of Three Programming Models for
//! Adaptive Applications on the Origin2000"* (Shan, Singh, Oliker, Biswas —
//! SC 2000) as a Rust workspace: the machine is simulated, the three
//! programming models are real runtimes charging Origin2000-calibrated
//! costs to virtual clocks, and the paper's two adaptive applications run
//! under all three models.
//!
//! This crate is the facade: it re-exports every workspace crate under one
//! name and carries the runnable examples and cross-crate integration
//! tests. Start with:
//!
//! ```
//! use origin2k::prelude::*;
//!
//! let machine = Machine::origin2000(4);
//! let cfg = NBodyConfig::small();
//! // Pages are first-touched: `MachineConfig::page_policy`'s default.
//! let result = origin2k::apps::nbody_sas::run_opts(machine, &cfg, RunOpts::default());
//! assert!(result.sim_time > 0);
//! ```
//!
//! Layers, bottom-up:
//!
//! * [`machine`] — Origin2000 model: topology, latencies, virtual clocks;
//! * [`parallel`] — PE teams on real threads with virtual time;
//! * [`mp`] / [`shmem`] / [`sas`] — the three programming-model runtimes;
//! * [`mesh`] / [`partition`] / [`nbody`] — application substrates;
//! * [`apps`] — the two applications × three models;
//! * [`serve`] — the request-serving workload (open-loop clients,
//!   tail-latency histograms) under the same three models;
//! * [`core`] — sweeps, metrics, programming-effort, rendering.

pub use apps;
pub use machine;
pub use mesh;
pub use mp;
pub use nbody;
pub use o2k_core as core;
pub use o2k_net as net;
pub use o2k_sched as sched;
pub use o2k_serve as serve;
pub use o2k_snap as snap;
pub use parallel;
pub use partition;
pub use sas;
pub use shmem;

/// The most common imports for driving experiments.
pub mod prelude {
    pub use apps::{
        run_app, run_app_opts, AmrConfig, App, Model, NBodyConfig, RunMetrics, RunOpts, ServeStats,
    };
    pub use machine::{Machine, MachineConfig};
    pub use o2k_core::{effort_table, sweep_models};
    pub use o2k_sched::{ExecMode, SchedPolicy};
    pub use o2k_serve::ServeConfig;
    pub use parallel::Team;
}
