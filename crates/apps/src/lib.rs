//! The paper's two adaptive applications under all three programming models.
//!
//! Six implementations (2 applications × 3 models), all built on the same
//! substrates and charging the same calibrated compute costs
//! ([`workcost`]), so the only differences between models are — as in the
//! paper — the communication and synchronisation machinery:
//!
//! | | MP | SHMEM | CC-SAS |
//! |---|---|---|---|
//! | N-body | ORB + locally-essential trees exchanged via `alltoallv`; explicit body repartitioning through rank 0 | ORB + LET exchanged via one-sided puts with count/offset reservation and remote atomics | costzones over a shared tree; no explicit communication at all |
//! | AMR | RCB + PLUM remap; ghost values exchanged per sweep via `alltoallv` | RCB + PLUM remap; ghosts put one-sidedly into symmetric buffers | block ownership of shared arrays; neighbour reads through the coherence protocol |
//!
//! Every implementation returns a [`RunMetrics`] with the simulated time,
//! its breakdown, the traffic counters, and a physics checksum used by the
//! integration tests to prove the three models computed the same answer.

pub mod amr_common;
pub mod amr_mp;
pub mod amr_sas;
pub mod amr_shmem;
pub mod metrics;
pub mod nbody_common;
pub mod nbody_mp;
pub mod nbody_sas;
pub mod nbody_shmem;
pub mod snapshot;
pub mod workcost;

pub use amr_common::AmrConfig;
pub use metrics::{App, Model, RunMetrics, ServeStats};
pub use nbody_common::NBodyConfig;
pub use snapshot::Snapshotter;

use std::sync::Arc;

use machine::Machine;
use parallel::{ExecMode, SchedPolicy, Team};

/// Per-run execution options every model entry point honours. A `None`
/// scheduling policy or execution backend follows `o2k_sched`'s defaults
/// ([`parallel::sched::default_policy`] / [`parallel::sched::default_exec`]);
/// a `None` snapshot spec or trace sink means no snapshots and no tracing —
/// nothing else in the process can turn them on.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Scheduling policy (which PE runs next).
    pub sched: Option<SchedPolicy>,
    /// Execution backend (what a PE is: OS thread or coroutine).
    pub exec: Option<ExecMode>,
    /// Snapshot capture/restore for this run (see [`snapshot`]).
    pub snap: Option<o2k_snap::SnapSpec>,
    /// Trace the run's teams and collect their traces here (the run's own
    /// trace also comes back on [`RunMetrics::trace`]).
    pub trace: Option<o2k_trace::TraceSink>,
}

impl RunOpts {
    /// Only a scheduling policy.
    pub fn with_sched(sched: SchedPolicy) -> Self {
        RunOpts {
            sched: Some(sched),
            ..Self::default()
        }
    }

    /// Deterministic schedule on the single-threaded event backend: the
    /// combination the P ≥ 1024 scaling experiments require (the thread
    /// backend refuses teams past its cap).
    pub fn det_event() -> Self {
        RunOpts {
            sched: Some(SchedPolicy::Det),
            exec: Some(ExecMode::Event),
            ..Self::default()
        }
    }

    /// Apply the overrides to a team builder.
    pub fn configure(&self, mut team: Team) -> Team {
        if let Some(s) = self.sched {
            team = team.sched(s);
        }
        if let Some(e) = self.exec {
            team = team.exec(e);
        }
        if let Some(sink) = &self.trace {
            team = team.trace_into(sink.clone());
        }
        team
    }
}

/// Run an application under a model on a machine with the process-default
/// execution options. The uniform entry point the experiment driver uses.
pub fn run_app(
    machine: Arc<Machine>,
    app: App,
    model: Model,
    nbody_cfg: &NBodyConfig,
    amr_cfg: &AmrConfig,
) -> RunMetrics {
    run_app_opts(machine, app, model, nbody_cfg, amr_cfg, RunOpts::default())
}

/// [`run_app`] with explicit execution options (see [`RunOpts`]).
/// Experiments that compare timing across machine configurations pin
/// [`SchedPolicy::Det`] so the comparison is not confounded by OS thread
/// interleaving.
pub fn run_app_opts(
    machine: Arc<Machine>,
    app: App,
    model: Model,
    nbody_cfg: &NBodyConfig,
    amr_cfg: &AmrConfig,
    opts: RunOpts,
) -> RunMetrics {
    match (app, model) {
        (App::NBody, Model::Mp) => nbody_mp::run_opts(machine, nbody_cfg, opts),
        (App::NBody, Model::Shmem) => nbody_shmem::run_opts(machine, nbody_cfg, opts),
        (App::NBody, Model::Sas) => {
            nbody_sas::run_with_opts(machine, nbody_cfg, sas::PagePolicy::FirstTouch, opts)
        }
        (App::Amr, Model::Mp) => amr_mp::run_opts(machine, amr_cfg, opts),
        (App::Amr, Model::Shmem) => amr_shmem::run_opts(machine, amr_cfg, opts),
        (App::Amr, Model::Sas) => {
            amr_sas::run_with_opts(machine, amr_cfg, sas::PagePolicy::FirstTouch, opts)
        }
        // The serving workload lives above this crate (it reuses all three
        // substrates *and* these metrics), so it has its own entry point.
        (App::Serve, _) => {
            unreachable!("the serving workload is driven through o2k_serve::run_opts, not run_app")
        }
    }
}
