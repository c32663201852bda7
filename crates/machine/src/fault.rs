//! Link fault injection: virtual-time schedules of degraded and dead links.
//!
//! A [`FaultPlan`] names interconnect links *symbolically* (bristle ports by
//! node id, router edges by router and hypercube dimension) and schedules
//! [`FaultKind`] transitions at virtual-time instants. `o2k-net` resolves the
//! symbolic links against its topology and applies the schedule
//! deterministically: a transfer's fault state is a pure function of the link
//! and the transfer's departure time, so faulted runs replay bitwise under
//! the deterministic scheduler exactly like unfaulted ones.

use crate::time::SimTime;
use std::fmt;

/// A directed link of the bristled hypercube, named without reference to a
/// concrete machine size (resolved to a link id once the topology is known).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLink {
    /// Node `n`'s up-bristle port (node → its router).
    Up(usize),
    /// Node `n`'s down-bristle port (its router → node).
    Down(usize),
    /// Router `router`'s outgoing edge along hypercube dimension `dim`.
    Router { router: usize, dim: usize },
}

impl fmt::Display for FaultLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultLink::Up(n) => write!(f, "up{n}"),
            FaultLink::Down(n) => write!(f, "down{n}"),
            FaultLink::Router { router, dim } => write!(f, "r{router}d{dim}"),
        }
    }
}

/// What happens to a faulted link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Service rate divided by `factor`: a transfer occupies the link
    /// `factor`× longer than the healthy bandwidth would charge.
    Degrade { factor: u32 },
    /// The link stops serving entirely (infinitely busy). Routing must
    /// detour around it or report the destination unreachable.
    Kill,
    /// The link recovers: full bandwidth, and routing resumes the plain
    /// e-cube path through it (detours end deterministically at the
    /// scheduled instant).
    Heal,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Degrade { factor } => write!(f, "deg{factor}"),
            FaultKind::Kill => write!(f, "kill"),
            FaultKind::Heal => write!(f, "heal"),
        }
    }
}

/// One scheduled transition: from `at` (virtual ns) onwards, `link` is in
/// state `kind` (until a later event on the same link replaces it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual-time instant the fault takes effect.
    pub at: SimTime,
    /// Which link.
    pub link: FaultLink,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A deterministic schedule of link-fault events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Events in the order written; `o2k-net` sorts per link by `at`.
    pub events: Vec<FaultEvent>,
}

/// Whether (and how) the interconnect is faulted. Carried on
/// [`crate::MachineConfig`]; only consulted when the contention model is on
/// (faults are per-link states, and links only exist under `queued`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Healthy interconnect (the historical behaviour).
    #[default]
    Off,
    /// Apply the given schedule of link faults.
    Plan(FaultPlan),
}

impl FaultMode {
    /// Parse the CLI (`repro --fault`) spelling:
    ///
    /// * `off`
    /// * `plan:<link>:<action>[@<ns>][;<link>:<action>[@<ns>]…]` where a
    ///   link is `up<N>` / `down<N>` (node `N`'s bristle ports) or
    ///   `r<R>d<D>` (router `R`'s dimension-`D` edge), and an action is
    ///   `kill`, `deg<F>` (service rate divided by `F ≥ 2`) or `heal`
    ///   (restore full service). The `@<ns>` suffix delays the event to
    ///   virtual time `ns` (default 0).
    ///
    /// Example: `plan:r0d0:kill;down0:deg8@50000;r0d0:heal@200000`.
    pub fn parse(s: &str) -> Option<Self> {
        if s == "off" {
            return Some(FaultMode::Off);
        }
        let spec = s.strip_prefix("plan:")?;
        let mut events = Vec::new();
        for part in spec.split(';') {
            events.push(parse_event(part)?);
        }
        if events.is_empty() {
            return None;
        }
        Some(FaultMode::Plan(FaultPlan { events }))
    }
}

fn parse_link(s: &str) -> Option<FaultLink> {
    if let Some(n) = s.strip_prefix("up") {
        return Some(FaultLink::Up(n.parse().ok()?));
    }
    if let Some(n) = s.strip_prefix("down") {
        return Some(FaultLink::Down(n.parse().ok()?));
    }
    let rest = s.strip_prefix('r')?;
    let (r, d) = rest.split_once('d')?;
    Some(FaultLink::Router {
        router: r.parse().ok()?,
        dim: d.parse().ok()?,
    })
}

fn parse_event(s: &str) -> Option<FaultEvent> {
    let (spec, at) = match s.split_once('@') {
        Some((spec, at)) => (spec, at.parse().ok()?),
        None => (s, 0),
    };
    let (link, action) = spec.split_once(':')?;
    let link = parse_link(link)?;
    let kind = if action == "kill" {
        FaultKind::Kill
    } else if action == "heal" {
        FaultKind::Heal
    } else {
        let factor: u32 = action.strip_prefix("deg")?.parse().ok()?;
        if factor < 2 {
            return None; // deg1 would be a no-op; reject as a likely typo
        }
        FaultKind::Degrade { factor }
    };
    Some(FaultEvent { at, link, kind })
}

impl fmt::Display for FaultMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultMode::Off => write!(f, "off"),
            FaultMode::Plan(plan) => {
                write!(f, "plan:")?;
                for (i, e) in plan.events.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{}:{}", e.link, e.kind)?;
                    if e.at != 0 {
                        write!(f, "@{}", e.at)?;
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_round_trips() {
        assert_eq!(FaultMode::parse("off"), Some(FaultMode::Off));
        assert_eq!(FaultMode::Off.to_string(), "off");
    }

    #[test]
    fn plan_round_trips() {
        let spec = "plan:r0d0:kill;down0:deg8@50000;up3:deg2";
        let m = FaultMode::parse(spec).expect("parses");
        assert_eq!(m.to_string(), spec);
        let FaultMode::Plan(plan) = &m else {
            panic!("expected a plan")
        };
        assert_eq!(plan.events.len(), 3);
        assert_eq!(
            plan.events[0],
            FaultEvent {
                at: 0,
                link: FaultLink::Router { router: 0, dim: 0 },
                kind: FaultKind::Kill,
            }
        );
        assert_eq!(plan.events[1].at, 50_000);
        assert_eq!(plan.events[1].link, FaultLink::Down(0));
        assert_eq!(plan.events[1].kind, FaultKind::Degrade { factor: 8 });
        assert_eq!(plan.events[2].link, FaultLink::Up(3));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "plan:",
            "plan:r0d0",
            "plan:r0d0:deg1", // no-op factor
            "plan:r0d0:deg0",
            "plan:rXd0:kill",
            "plan:up:kill",
            "plan:r0d0:kill@soon",
            "sometimes",
        ] {
            assert_eq!(FaultMode::parse(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn default_is_off() {
        assert_eq!(FaultMode::default(), FaultMode::Off);
    }

    #[test]
    fn heal_round_trips() {
        let spec = "plan:down0:deg8;down0:heal@50000";
        let m = FaultMode::parse(spec).expect("parses");
        assert_eq!(m.to_string(), spec);
        let FaultMode::Plan(plan) = &m else {
            panic!("expected a plan")
        };
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.events[1].kind, FaultKind::Heal);
        assert_eq!(plan.events[1].at, 50_000);
        assert_eq!(plan.events[1].link, FaultLink::Down(0));
    }

    #[test]
    fn heal_of_router_edge_parses() {
        let m = FaultMode::parse("plan:r1d2:kill;r1d2:heal@9").expect("parses");
        let FaultMode::Plan(plan) = &m else {
            panic!("expected a plan")
        };
        assert_eq!(plan.events[1].kind, FaultKind::Heal);
        assert_eq!(plan.events[1].link, FaultLink::Router { router: 1, dim: 2 });
    }

    #[test]
    fn rejects_malformed_heal() {
        // `heal8` is not an action, and a bare `heal` still needs a link.
        assert_eq!(FaultMode::parse("plan:down0:heal8"), None);
        assert_eq!(FaultMode::parse("plan:heal@50"), None);
    }
}
