//! Uniform run results across applications and models.

use machine::{Counters, SimTime, TimeBreakdown};
use parallel::TeamRun;

/// The three programming models under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Two-sided message passing ("MPI").
    Mp,
    /// One-sided puts/gets ("SHMEM").
    Shmem,
    /// Cache-coherent shared address space ("CC-SAS").
    Sas,
}

impl Model {
    /// The paper's three models, in its presentation order.
    pub const ALL: [Model; 3] = [Model::Mp, Model::Shmem, Model::Sas];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Mp => "MPI",
            Model::Shmem => "SHMEM",
            Model::Sas => "CC-SAS",
        }
    }
}

/// The two adaptive applications, plus the serving-workload extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Barnes-Hut N-body.
    NBody,
    /// Adaptive mesh refinement with a moving shock.
    Amr,
    /// Extension: sharded key-value serving under open-loop client load
    /// (the `o2k-serve` crate; not part of the paper's application suite,
    /// so [`run_app`](crate::run_app) directs callers to `o2k_serve::run_opts`).
    Serve,
}

impl App {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            App::NBody => "N-body",
            App::Amr => "AMR",
            App::Serve => "KV-serve",
        }
    }
}

/// Tail-latency and throughput summary of one serving run (the
/// `o2k-serve` workload); carried in [`RunMetrics::serve`].
///
/// All latencies are virtual nanoseconds from a request's open-loop
/// arrival time to its completion at the issuing PE — queueing behind a
/// busy server or a contended link is included, which is the point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests admitted from the client streams.
    pub issued: u64,
    /// Requests that completed with their value.
    pub completed: u64,
    /// Requests shed by the admission deadline.
    pub failed: u64,
    /// Median latency (ns).
    pub p50_ns: u64,
    /// 99th-percentile latency (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile latency (ns).
    pub p999_ns: u64,
    /// Exact worst-case latency (ns).
    pub max_ns: u64,
    /// Mean latency (ns).
    pub mean_ns: u64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Requests addressed to each PE's shard (issued, including shed).
    pub shard_counts: Vec<u64>,
}

impl ServeStats {
    /// One-line rendering for experiment tables. A cell whose requests
    /// were all shed has no latency samples — report that instead of a
    /// bogus all-zero quantile line.
    pub fn render(&self) -> String {
        if self.completed == 0 {
            return format!(
                "no completed requests ({} issued, {} shed)",
                self.issued, self.failed
            );
        }
        format!(
            "p50 {:>7} ns  p99 {:>8} ns  p999 {:>8} ns  max {:>9} ns  {:>9.0} req/s  ({} ok / {} shed)",
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
            self.max_ns,
            self.throughput_rps,
            self.completed,
            self.failed
        )
    }
}

/// Result of one application run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    pub app: App,
    pub model: Model,
    /// Team size.
    pub pes: usize,
    /// Simulated wall time (max over PEs).
    pub sim_time: SimTime,
    /// Per-PE time breakdowns.
    pub per_pe: Vec<TimeBreakdown>,
    /// Sum of all PEs' counters.
    pub counters: Counters,
    /// Physics checksum for cross-model validation.
    pub checksum: f64,
    /// App-specific size indicator (bodies, or final active triangles).
    pub problem_size: usize,
    /// Recorded event trace, when the run executed with tracing enabled.
    pub trace: Option<o2k_trace::Trace>,
    /// Scheduler statistics when the run used a cooperative policy (the
    /// fingerprint identifies the interleaving that produced this result).
    pub sched: Option<parallel::SchedStats>,
    /// Interconnect contention statistics when the machine ran with
    /// [`machine::ContentionMode::Queued`] or
    /// [`machine::ContentionMode::Fabric`].
    pub net: Option<parallel::NetStats>,
    /// Rendered top-link hotspot report — whole-run table plus per-phase
    /// tables (when the app marked phases) with fault annotations — when
    /// the contention model was on.
    pub net_report: Option<String>,
    /// Tail-latency summary when the run was the serving workload.
    pub serve: Option<ServeStats>,
    /// Deepest coroutine stack of the run in KiB, when it ran on the
    /// event backend ([`TeamRun::stack_hwm_kb`]). Host-side evidence for
    /// sizing stacks; never rendered into an archive.
    pub stack_hwm_kb: Option<usize>,
}

impl RunMetrics {
    /// Assemble from a team run whose per-PE closures returned `checksum`.
    pub fn collect(app: App, model: Model, run: &TeamRun<f64>, problem_size: usize) -> RunMetrics {
        let checksum = run.results.first().copied().unwrap_or(0.0);
        Self::collect_with_checksum(app, model, run, problem_size, checksum)
    }

    /// [`RunMetrics::collect`] for runs whose per-PE closures return
    /// something richer than the checksum (the serving workload returns a
    /// per-PE histogram); the caller extracts the checksum itself.
    pub fn collect_with_checksum<R>(
        app: App,
        model: Model,
        run: &TeamRun<R>,
        problem_size: usize,
        checksum: f64,
    ) -> RunMetrics {
        RunMetrics {
            app,
            model,
            pes: run.reports.len(),
            sim_time: run.sim_time(),
            per_pe: run.reports.iter().map(|r| r.breakdown).collect(),
            counters: run.merged_counters(),
            checksum,
            problem_size,
            trace: run.is_traced().then(|| run.trace()),
            sched: run.sched,
            net: run.net.as_ref().map(|n| n.stats()),
            net_report: run.net.as_ref().map(|n| n.hotspot_report(5)),
            serve: None,
            stack_hwm_kb: run.stack_hwm_kb,
        }
    }

    /// Aggregate breakdown across PEs.
    pub fn breakdown(&self) -> TimeBreakdown {
        self.per_pe
            .iter()
            .fold(TimeBreakdown::default(), |acc, b| acc.merged(b))
    }

    /// Queueing delay broken down by resource kind — where the contended
    /// time accrued ("link 12 / bus 3 / hub 1 µs"). `None` when the
    /// contention model was off; the bus and hub components are zero
    /// outside [`machine::ContentionMode::Fabric`], which is the only mode
    /// that models node buses and router hub ports.
    pub fn net_kind_summary(&self) -> Option<String> {
        let s = self.net.as_ref()?;
        Some(format!(
            "link {} / bus {} / hub {} µs",
            s.queued_ns / 1000,
            s.bus.queued_ns / 1000,
            s.hub.queued_ns / 1000
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Model::Mp.name(), "MPI");
        assert_eq!(Model::Sas.name(), "CC-SAS");
        assert_eq!(App::Amr.name(), "AMR");
        assert_eq!(Model::ALL.len(), 3);
    }
}
