//! Machine model of an SGI Origin2000-class cache-coherent NUMA multiprocessor.
//!
//! The real Origin2000 is unavailable, so this crate provides the *timing
//! substrate* every programming-model runtime in this workspace charges its
//! costs against: a [`config::MachineConfig`] describing latencies,
//! bandwidths and cache geometry; a [`topology::Topology`] mapping processing
//! elements (PEs) to dual-CPU nodes joined by a bristled hypercube of
//! routers; [`cost`] functions translating abstract operations (message,
//! put/get, cache-line fetch, barrier) into nanoseconds; a per-PE virtual
//! [`time::Clock`] that accumulates those nanoseconds into categorised
//! buckets (busy / local memory / remote communication / synchronisation);
//! and per-PE event [`stats::Counters`].
//!
//! Nothing in this crate runs threads; it is pure bookkeeping, which keeps
//! the model deterministic and unit-testable.

//!
//! ```
//! use machine::{cost, Machine, MachineConfig};
//!
//! let m = Machine::new(16, MachineConfig::origin2000());
//! assert_eq!(m.topology.nodes(), 8);
//! // A put between adjacent nodes is far cheaper than a two-sided message.
//! let hops = m.hops_between(0, 15);
//! assert!(cost::put(&m.config, 128, hops) < cost::msg(&m.config, 128, hops).total());
//! ```

pub mod config;
pub mod cost;
pub mod fault;
pub mod stats;
pub mod time;
pub mod topology;

pub use config::{ContentionMode, MachineConfig, PagePolicy};
pub use fault::{FaultEvent, FaultKind, FaultLink, FaultMode, FaultPlan};
pub use stats::Counters;
pub use time::{Clock, SimTime, TimeBreakdown, TimeCat};
pub use topology::Topology;

use std::sync::Arc;

/// A fully-described machine: configuration plus derived topology.
///
/// Cheap to clone (shared behind [`Arc`] by the runtimes).
#[derive(Debug, Clone)]
pub struct Machine {
    /// Latency / bandwidth / cache parameters.
    pub config: MachineConfig,
    /// PE → node → router mapping and hop distances.
    pub topology: Topology,
}

impl Machine {
    /// Build a machine with `pes` processing elements under `config`.
    ///
    /// The number of nodes is `ceil(pes / cpus_per_node)`.
    pub fn new(pes: usize, config: MachineConfig) -> Self {
        let topology = Topology::new(pes, config.cpus_per_node);
        Machine { config, topology }
    }

    /// An Origin2000 preset machine with `pes` PEs.
    pub fn origin2000(pes: usize) -> Arc<Self> {
        Arc::new(Self::new(pes, MachineConfig::origin2000()))
    }

    /// Router hops between the *nodes* hosting two PEs (0 if co-resident).
    #[inline]
    pub fn hops_between(&self, pe_a: usize, pe_b: usize) -> u32 {
        self.topology
            .hops(self.topology.node_of(pe_a), self.topology.node_of(pe_b))
    }

    /// Total number of PEs.
    #[inline]
    pub fn pes(&self) -> usize {
        self.topology.pes()
    }
}

/// Check one `O2K_*` setting: `raw` parsed by `parse`, or a diagnostic
/// naming the variable, the offending value and the `accepted` forms. A
/// typo such as `O2K_EXEC=evnt` must fail loudly rather than silently
/// select the default.
fn check_setting<T>(
    var: &str,
    raw: &str,
    accepted: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, String> {
    parse(raw).ok_or_else(|| format!("{var}={raw:?} is not valid (accepted: {accepted})"))
}

/// Read setting `var` from the environment through `check_setting`:
/// `Ok(None)` when unset, `Err` when set to something `parse` rejects.
pub fn env_setting<T>(
    var: &str,
    accepted: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match std::env::var_os(var) {
        None => Ok(None),
        Some(raw) => check_setting(var, &raw.to_string_lossy(), accepted, parse).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_settings_are_diagnosed_with_variable_value_and_accepted_forms() {
        let parse = |s: &str| s.parse::<u32>().ok();
        assert_eq!(check_setting("O2K_X", "42", "a number", parse), Ok(42));
        let err = check_setting("O2K_X", "4o2", "a number", parse).unwrap_err();
        for needle in ["O2K_X", "\"4o2\"", "a number"] {
            assert!(err.contains(needle), "{err:?} must mention {needle}");
        }
        assert!(check_setting("O2K_X", "", "a number", parse).is_err());
    }

    #[test]
    fn machine_construction_matches_topology() {
        let m = Machine::new(8, MachineConfig::origin2000());
        assert_eq!(m.pes(), 8);
        assert_eq!(m.topology.nodes(), 4);
        assert_eq!(m.hops_between(0, 1), 0); // same node
        assert!(m.hops_between(0, 2) >= 1);
    }

    #[test]
    fn origin2000_preset_is_shared() {
        let m = Machine::origin2000(4);
        let m2 = Arc::clone(&m);
        assert_eq!(m2.pes(), 4);
    }
}
