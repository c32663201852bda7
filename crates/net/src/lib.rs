//! o2k-net: virtual-time interconnect contention and queueing model.
//!
//! The analytic cost functions in [`machine::cost`] price every transfer as
//! if the fabric were idle. This crate adds the missing piece: a
//! deterministic occupancy model of the Origin2000's bristled hypercube,
//! generalised into a **resource fabric**. Each contended physical resource
//! is a busy-until queue identified by a [`ResourceId`] and classified by a
//! [`ResourceKind`]:
//!
//! * [`ResourceKind::Link`] — a node's CrayLink port onto its router (both
//!   directions) and each router-to-router hypercube edge (per direction);
//! * [`ResourceKind::Bus`] — a node's shared memory bus (the Origin's
//!   SysAD), crossed by every transfer the node's PEs source or sink;
//! * [`ResourceKind::Hub`] — a router's arbitration/hub port, held for a
//!   fixed occupancy per transfer regardless of size (Holt et al.'s
//!   controller-occupancy effect).
//!
//! A transfer charges an ordered *path of resources*. Under
//! [`ContentionMode::Queued`] that path is links only — the transfer is
//! routed hop-by-hop along the deterministic e-cube path (dimension bits
//! corrected lowest-first); at each link it waits out any earlier occupant,
//! holds the link for its byte time, and moves on after one hop latency
//! (cut-through). Under [`ContentionMode::Fabric`] the path grows to
//! source bus → source hub → links → destination hub → destination bus,
//! and node-local transfers (which never enter the link fabric) still cross
//! the shared node bus once — which is what makes fat cluster-of-SMPs
//! nodes saturate. The accumulated waiting is the *queueing delay* the
//! runtimes add on top of the analytic cost; under [`ContentionMode::Off`]
//! no [`NetSim`] exists and every cost is bitwise what it was before this
//! crate.
//!
//! Because directed links are owned by their source (a router's port to a
//! node, a router's cable in one dimension), router ports are serialized
//! exactly where the hardware serializes them. Per-resource byte counters,
//! queueing totals, utilization histograms and a top-k hotspot report
//! (optionally per named phase, with the resource kind named under
//! `fabric`) come out of the same table.
//!
//! Determinism: the team's scheduler runs exactly one PE at a time, and
//! under `det` it yields in virtual-time order, so the sequence of
//! [`NetSim::route`] calls — and therefore the whole busy-until evolution —
//! is a pure function of the program (under `explore:SEED`, of the
//! program and the seed).
//!
//! **Fault injection.** A [`machine::FaultPlan`] on the config schedules
//! per-link [`machine::FaultKind`] transitions in virtual time: `deg<F>`
//! multiplies a link's occupancy per transfer by `F` (service rate ÷ F),
//! `kill` makes the link infinitely busy, and `heal` restores full service
//! (a healed link immediately resumes carrying its e-cube routes — detours
//! end at the scheduled instant). A transfer's fault state is evaluated
//! once, at its *departure* time — a pure function of `(link, depart)`, so
//! faulted runs stay bitwise reproducible under `det`. E-cube routing
//! detours around killed router edges (deterministic BFS over the
//! surviving hypercube edges, lowest dimension first); a killed bristle
//! port, or a cut that severs the router graph, has no detour and surfaces
//! as a hard [`Unreachable`] error instead of a silent hang. Faults apply
//! to links only: buses and hubs are on-node hardware the fault plan's
//! symbolic link names cannot reach.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use machine::{FaultKind, FaultLink, FaultMode, MachineConfig, SimTime, Topology};
use o2k_snap::wire::{WireReader, WireWriter};
use o2k_trace::{FaultSpan, LinkSpan};

pub use machine::config::ContentionMode;

/// Cap on recorded resource-occupancy spans (tracing only; counters are
/// exact regardless). Beyond the cap spans are dropped and counted.
const MAX_SPANS: usize = 1 << 20;

/// Longest healthy resource path: up-bristle, one router edge per
/// hypercube dimension, down-bristle, and the fabric wrap's two buses and
/// two hubs (`dims + 6` ids, and `dims` is below a `usize`'s bit count).
const MAX_HEALTHY: usize = usize::BITS as usize + 6;

/// Index into the fabric's resource table. Link ids come first and keep
/// the historical layout (see [`NetSim::new`]); bus and hub ids follow.
pub type ResourceId = usize;

/// What class of contended hardware a fabric resource models. The
/// discriminant is the kind's code in the fabric snapshot section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// A directed interconnect link (bristle port or router edge).
    Link = 0,
    /// A node's shared memory bus.
    Bus = 1,
    /// A router's arbitration/hub port.
    Hub = 2,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResourceKind::Link => "link",
            ResourceKind::Bus => "bus",
            ResourceKind::Hub => "hub",
        })
    }
}

/// Outcome of routing one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Route {
    /// Queueing delay accrued across all occupied resources (ns). This is
    /// the *extra* cost contention added; the uncontended base latency is
    /// already charged by the analytic cost functions.
    pub delay: SimTime,
    /// Portion of `delay` accrued waiting for shared node buses (ns);
    /// nonzero only under [`ContentionMode::Fabric`].
    pub bus_delay: SimTime,
    /// Portion of `delay` accrued waiting for router hub ports (ns);
    /// nonzero only under [`ContentionMode::Fabric`].
    pub hub_delay: SimTime,
    /// Resources the transfer traversed (links, plus buses/hubs under
    /// `fabric`).
    pub links: u32,
}

/// Outcome of one [`NetSim::try_route_many`] charge: the per-item
/// [`Route`]s summed, plus the evolved serialization backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchRoute {
    /// Total queueing delay across the batch (ns).
    pub delay: SimTime,
    /// Portion of `delay` accrued at shared node buses (ns).
    pub bus_delay: SimTime,
    /// Portion of `delay` accrued at router hub ports (ns).
    pub hub_delay: SimTime,
    /// Total resources crossed, summed over the batch.
    pub links: u64,
    /// Items that crossed at least one resource (what the per-PE
    /// `net_transfers` counter counts).
    pub transfers: u64,
    /// The serialization backlog after the batch: the input `pending`
    /// plus every item's delay when `serialize`, unchanged otherwise.
    pub pending: SimTime,
}

/// Per-kind aggregate statistics (buses, hubs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Transfers that crossed a resource of this kind.
    pub transfers: u64,
    /// Total queueing delay accrued at this kind (ns).
    pub queued_ns: u64,
    /// Payload bytes carried (bytes × crossings).
    pub bytes: u64,
    /// Total occupancy (ns).
    pub busy_ns: u64,
    /// Resources of this kind that carried at least one transfer.
    pub active: u64,
}

/// Aggregate network statistics for one run (deterministic under `det`).
///
/// The unprefixed fields cover **links** (the historical queued model);
/// [`NetStats::bus`] and [`NetStats::hub`] break out the fabric-only
/// resource kinds, zero under `queued`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Link crossings: a transfer counts once per link it crosses
    /// (node-local traffic excluded) — the fabric's view, not the PEs'.
    pub transfers: u64,
    /// Total queueing delay accrued on links (ns).
    pub queued_ns: u64,
    /// Bytes × links: each link a transfer crosses counts its payload.
    pub link_bytes: u64,
    /// Total link occupancy (ns × links).
    pub busy_ns: u64,
    /// Links that carried at least one transfer.
    pub active_links: u64,
    /// Worst per-link queueing total (the hotspot's queue).
    pub max_link_queued_ns: u64,
    /// Worst per-link byte total.
    pub max_link_bytes: u64,
    /// Links whose fault schedule ends in [`FaultKind::Kill`].
    pub dead_links: u64,
    /// Links whose fault schedule ends in [`FaultKind::Degrade`].
    pub degraded_links: u64,
    /// Transfers that left the e-cube path to avoid a dead link.
    pub detoured_transfers: u64,
    /// Shared-node-bus aggregates (fabric mode only).
    pub bus: KindStats,
    /// Router hub-port aggregates (fabric mode only).
    pub hub: KindStats,
}

impl NetStats {
    /// Total queueing delay across every resource kind (ns).
    pub fn total_queued_ns(&self) -> u64 {
        self.queued_ns + self.bus.queued_ns + self.hub.queued_ns
    }
}

/// A transfer could not be routed: every path to the destination crosses a
/// dead link. Returned by [`NetSim::try_route`]; [`NetSim::route`] panics
/// with the same diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unreachable {
    /// Source node of the doomed transfer.
    pub src_node: usize,
    /// Destination node.
    pub dst_node: usize,
    /// Departure time at which the routes were evaluated (ns).
    pub at: SimTime,
    /// Names of the dead links that sever every route.
    pub dead: Vec<String>,
}

impl std::fmt::Display for Unreachable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "network partition: no route from node{} to node{} at {} ns — dead link(s) {} \
             sever every path (a killed bristle port or a full router cut has no detour)",
            self.src_node,
            self.dst_node,
            self.at,
            self.dead.join(", ")
        )
    }
}

/// One resource's row in a hotspot report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkHot {
    /// Resource id (see [`NetSim::link_name`]).
    pub link: ResourceId,
    /// What class of hardware this row is.
    pub kind: ResourceKind,
    /// Human-readable endpoint description.
    pub name: String,
    /// Queueing delay accrued *at* this resource (ns).
    pub queued_ns: u64,
    /// Occupancy (ns).
    pub busy_ns: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Transfers carried.
    pub transfers: u64,
}

/// One fabric resource: its busy-until queue and cumulative counters. A
/// charge updates all five, so they share a record (and a cache line); the
/// table is a `Vec<Res>` indexed by [`ResourceId`]. A resource's kind is
/// not stored: it is a pure function of its index (see
/// [`NetSim::kind_of`]), links first, then buses, then hubs.
#[derive(Debug, Clone, Copy, Default)]
struct Res {
    busy_until: SimTime,
    bytes: u64,
    busy_ns: u64,
    queued_ns: u64,
    transfers: u64,
}

impl Res {
    /// The counters a phase boundary snapshots.
    fn snap(&self) -> LinkSnap {
        (self.queued_ns, self.bytes, self.transfers)
    }
}

/// Per-resource (queued_ns, bytes, transfers) snapshot at a phase boundary.
type LinkSnap = (u64, u64, u64);

struct Phase {
    name: String,
    at_start: Vec<LinkSnap>,
}

struct NetState {
    res: Vec<Res>,
    spans: Vec<LinkSpan>,
    spans_dropped: u64,
    phases: Vec<Phase>,
    detoured: u64,
    detour: Detour,
}

/// The buffers a detour is computed in, kept from transfer to transfer.
/// The first detour sizes each to its bound, so no later one allocates.
#[derive(Default)]
struct Detour {
    /// Per router, the edge the BFS first reached it by (`usize::MAX`:
    /// not reached yet).
    prev: Vec<usize>,
    queue: VecDeque<usize>,
    /// The detour's router edges, destination first.
    edges: Vec<usize>,
    /// The whole resource path, fabric wrap included.
    path: Vec<ResourceId>,
}

/// The interconnect simulator: one instance per team run, shared by every
/// PE of the team.
pub struct NetSim {
    cfg: MachineConfig,
    topo: Topology,
    /// Hypercube dimensions over the power-of-two-padded router count.
    dims: usize,
    nodes: usize,
    /// Number of link resources; bus/hub ids start here (fabric only).
    nlinks: usize,
    /// Whether bus/hub resources exist ([`ContentionMode::Fabric`]).
    fabric: bool,
    /// Per-link fault schedule, time-sorted (empty when healthy).
    faults: Vec<Vec<(SimTime, FaultKind)>>,
    /// Whether any link has a fault scheduled (fast-path gate).
    any_faults: bool,
    /// Total resources in the table (links, plus buses and hubs under
    /// `fabric`) — fixed at construction.
    nres: usize,
    /// Display names for hotspot rows (`link_name` plus the terminal fault
    /// tag), built once on first report: both inputs are time-independent,
    /// and per-row formatting used to dominate phase-report rendering.
    hot_names: OnceLock<Vec<String>>,
    state: Mutex<NetState>,
    record_spans: AtomicBool,
}

impl std::fmt::Debug for NetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSim")
            .field("nodes", &self.nodes)
            .field("dims", &self.dims)
            .field("links", &self.links())
            .field("fabric", &self.fabric)
            .finish()
    }
}

impl NetSim {
    /// Build the resource table for `topo` under `cfg`.
    ///
    /// Link id layout (`n` = nodes, `R` = routers padded to a power of two,
    /// `D` = log2(R)): ids `0..n` are node→router ports, `n..2n` are
    /// router→node ports, and `2n + r*D + d` is router `r`'s outgoing edge
    /// along dimension `d`. Non-power-of-two machines route through the
    /// padded cube exactly as [`Topology::hops`] prices them. When
    /// `cfg.contention` is [`ContentionMode::Fabric`] the table continues
    /// with one bus resource per node (`nlinks..nlinks+n`) and one hub
    /// resource per padded router (`nlinks+n..nlinks+n+R`); under `queued`
    /// those resources do not exist and the table is bitwise the
    /// link-array it always was.
    pub fn new(topo: &Topology, cfg: &MachineConfig) -> Self {
        let nodes = topo.nodes();
        let routers = nodes.div_ceil(2).max(1);
        let rpad = routers.next_power_of_two();
        let dims = rpad.trailing_zeros() as usize;
        let nlinks = 2 * nodes + rpad * dims;
        let fabric = cfg.contention == ContentionMode::Fabric;
        // Resolve the symbolic fault plan against this topology. Links the
        // machine doesn't have (e.g. `repro --fault` naming a high router,
        // applied to every machine size an experiment sweeps) are skipped.
        let mut faults: Vec<Vec<(SimTime, FaultKind)>> = vec![Vec::new(); nlinks];
        if let FaultMode::Plan(plan) = &cfg.fault {
            for e in &plan.events {
                let id = match e.link {
                    FaultLink::Up(node) if node < nodes => node,
                    FaultLink::Down(node) if node < nodes => nodes + node,
                    FaultLink::Router { router, dim } if router < rpad && dim < dims => {
                        2 * nodes + router * dims + dim
                    }
                    _ => continue,
                };
                faults[id].push((e.at, e.kind));
            }
            for sched in &mut faults {
                // Stable: simultaneous events keep plan order, last wins.
                sched.sort_by_key(|&(at, _)| at);
            }
        }
        let any_faults = faults.iter().any(|s| !s.is_empty());
        let nres = nlinks + if fabric { nodes + rpad } else { 0 };
        NetSim {
            cfg: cfg.clone(),
            topo: topo.clone(),
            dims,
            nodes,
            nlinks,
            fabric,
            faults,
            any_faults,
            nres,
            hot_names: OnceLock::new(),
            state: Mutex::new(NetState {
                res: vec![Res::default(); nres],
                spans: Vec::new(),
                spans_dropped: 0,
                phases: Vec::new(),
                detoured: 0,
                detour: Detour::default(),
            }),
            record_spans: AtomicBool::new(false),
        }
    }

    /// Number of resources in the table (links, plus buses and hubs under
    /// `fabric`).
    pub fn links(&self) -> usize {
        self.nres
    }

    /// The kind of resource `id`.
    fn kind_of(&self, id: ResourceId) -> ResourceKind {
        if id < self.nlinks {
            ResourceKind::Link
        } else if id < self.nlinks + self.nodes {
            ResourceKind::Bus
        } else {
            ResourceKind::Hub
        }
    }

    /// The bus resource of `node` (fabric mode only).
    fn bus_id(&self, node: usize) -> ResourceId {
        self.nlinks + node
    }

    /// The hub resource of router `r` (fabric mode only).
    fn hub_id(&self, r: usize) -> ResourceId {
        self.nlinks + self.nodes + r
    }

    /// Human-readable name of resource `id` (`node0→rtr0`, `bus:node3`,
    /// `hub:rtr2`, …).
    pub fn link_name(&self, id: ResourceId) -> String {
        let n = self.nodes;
        match self.kind_of(id) {
            ResourceKind::Link => {
                if id < n {
                    format!("node{}→rtr{}", id, self.topo.router_of(id))
                } else if id < 2 * n {
                    let node = id - n;
                    format!("rtr{}→node{}", self.topo.router_of(node), node)
                } else {
                    let rel = id - 2 * n;
                    let r = rel / self.dims.max(1);
                    let d = rel % self.dims.max(1);
                    format!("rtr{}→rtr{}", r, r ^ (1 << d))
                }
            }
            ResourceKind::Bus => format!("bus:node{}", id - self.nlinks),
            ResourceKind::Hub => format!("hub:rtr{}", id - self.nlinks - n),
        }
    }

    /// Enable or disable resource-occupancy span recording (for Perfetto
    /// export). Off by default; counters are maintained either way.
    pub fn set_record_spans(&self, on: bool) {
        self.record_spans.store(on, Ordering::SeqCst);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, NetState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The fault state of `link` for a transfer departing at `t`: the last
    /// scheduled event at or before `t`, `None` while still healthy. A pure
    /// function of `(link, t)` — the determinism hinge of the fault model.
    /// Buses and hubs (ids past the link range) are never faulted.
    fn fault_at(&self, link: usize, t: SimTime) -> Option<FaultKind> {
        self.faults
            .get(link)?
            .iter()
            .take_while(|&&(at, _)| at <= t)
            .last()
            .map(|&(_, kind)| kind)
    }

    fn is_dead(&self, link: usize, t: SimTime) -> bool {
        matches!(self.fault_at(link, t), Some(FaultKind::Kill))
    }

    /// Occupancy multiplier for `link` at `t` (1 when healthy, merely
    /// scheduled for later, or healed).
    fn degrade_factor(&self, link: usize, t: SimTime) -> u64 {
        match self.fault_at(link, t) {
            Some(FaultKind::Degrade { factor }) => u64::from(factor),
            _ => 1,
        }
    }

    /// The link's terminal fault state (last scheduled event regardless of
    /// time) — what the stats and hotspot annotations report. A schedule
    /// ending in [`FaultKind::Heal`] counts as healthy.
    fn terminal_fault(&self, link: usize) -> Option<FaultKind> {
        self.faults.get(link)?.last().map(|&(_, kind)| kind)
    }

    fn fault_tag(&self, link: usize) -> String {
        match self.terminal_fault(link) {
            Some(FaultKind::Kill) => " [dead]".to_string(),
            Some(FaultKind::Degrade { factor }) => format!(" [deg{factor}]"),
            Some(FaultKind::Heal) => " [healed]".to_string(),
            None => String::new(),
        }
    }

    /// The cached hotspot display name of resource `id`: its link name
    /// plus the terminal fault tag. Both are fixed at construction, so the
    /// table is formatted once and reports only copy the surviving rows.
    fn display_name(&self, id: ResourceId) -> &str {
        let names = self.hot_names.get_or_init(|| {
            (0..self.nres)
                .map(|id| format!("{}{}", self.link_name(id), self.fault_tag(id)))
                .collect()
        });
        &names[id]
    }

    /// Deterministic BFS over the router hypercube's surviving edges
    /// (lowest dimension expanded first): writes into `d.edges` the
    /// shortest router-edge sequence from `rsrc` to `rdst` avoiding links
    /// dead at `depart`, destination first, or returns `false` if the dead
    /// links sever the cut. The search stops when it first reaches `rdst`:
    /// a router's predecessor is fixed from then on.
    fn detour(&self, rsrc: usize, rdst: usize, depart: SimTime, d: &mut Detour) -> bool {
        let edge_base = 2 * self.nodes;
        let routers = 1 << self.dims;
        if d.prev.len() != routers {
            // A search reaches each router once, a shortest path crosses
            // at most `routers - 1` edges, and the fabric wrap adds six ids.
            *d = Detour {
                prev: vec![usize::MAX; routers],
                queue: VecDeque::with_capacity(routers),
                edges: Vec::with_capacity(routers),
                path: Vec::with_capacity(routers + 6),
            };
        }
        d.prev.fill(usize::MAX);
        d.prev[rsrc] = 0; // reached; never walked back through
        d.queue.clear();
        d.queue.push_back(rsrc);
        let mut found = rsrc == rdst;
        while !found {
            let Some(r) = d.queue.pop_front() else { break };
            for dim in 0..self.dims {
                let link = edge_base + r * self.dims + dim;
                let nr = r ^ (1 << dim);
                if d.prev[nr] != usize::MAX || self.is_dead(link, depart) {
                    continue;
                }
                d.prev[nr] = link;
                d.queue.push_back(nr);
                if nr == rdst {
                    found = true;
                    break;
                }
            }
        }
        d.edges.clear();
        let mut r = rdst;
        while found && r != rsrc {
            let link = d.prev[r];
            d.edges.push(link);
            r ^= 1 << ((link - edge_base) % self.dims);
        }
        found
    }

    /// Emit the resource path from `src_node` to `dst_node` through `push`:
    /// the wire links `wire` emits for the pair, wrapped in the non-wire
    /// resources they cross under `fabric` — source bus → source hub →
    /// links → destination hub → destination bus. A same-router pair
    /// crosses its hub once; intermediate routers on long paths are
    /// approximated by their link occupancy alone. Node-local traffic is
    /// one bus crossing (and `wire` is not called). Outside `fabric` the
    /// path is the wire links alone.
    fn wrap_fabric<P: FnMut(ResourceId)>(
        &self,
        src_node: usize,
        dst_node: usize,
        push: &mut P,
        wire: impl FnOnce(&mut P),
    ) {
        if self.fabric {
            push(self.bus_id(src_node));
        }
        if src_node == dst_node {
            return;
        }
        let rsrc = self.topo.router_of(src_node);
        let rdst = self.topo.router_of(dst_node);
        if self.fabric {
            push(self.hub_id(rsrc));
        }
        wire(push);
        if self.fabric {
            if rdst != rsrc {
                push(self.hub_id(rdst));
            }
            push(self.bus_id(dst_node));
        }
    }

    /// The fault-free resource path for `(src, dst)`, written into `buf`:
    /// the deterministic e-cube wire path (up-bristle, router edges
    /// correcting dimension bits lowest-first, down-bristle) inside the
    /// fabric wrap. A pure function of the pair, computed per transfer
    /// rather than memoised: it is at most `dims + 6` ids, and a per-pair
    /// memo (16 384 paths on a P = 256 fabric, three allocations each)
    /// routed no faster.
    fn healthy_path<'b>(
        &self,
        src_node: usize,
        dst_node: usize,
        buf: &'b mut [ResourceId; MAX_HEALTHY],
    ) -> &'b [ResourceId] {
        let mut len = 0;
        let mut push = |id: ResourceId| {
            buf[len] = id;
            len += 1;
        };
        self.wrap_fabric(src_node, dst_node, &mut push, |push| {
            let n = self.nodes;
            let mut r = self.topo.router_of(src_node);
            let mut x = r ^ self.topo.router_of(dst_node);
            push(src_node); // node → router
            while x != 0 {
                let d = x.trailing_zeros() as usize;
                push(2 * n + r * self.dims + d);
                r ^= 1 << d;
                x &= x - 1;
            }
            push(n + dst_node); // router → node
        });
        &buf[..len]
    }

    /// The resource path a transfer from `src_node` to `dst_node`
    /// departing at `depart` takes, and whether it detours. The e-cube
    /// path is written into `buf`; if a fault kills one of its links at
    /// `depart`, the BFS detour over the surviving router edges is written
    /// into `detour` instead, inside the same fabric wrap. A dead bristle
    /// port, or a cut that severs the routers, is [`Unreachable`]. Bus and
    /// hub resources are never faulted, so checking the wrapped path for
    /// dead links is checking its wire segment. Computed per transfer: the
    /// fault state is a pure function of `(link, depart)`.
    fn path<'b>(
        &self,
        src_node: usize,
        dst_node: usize,
        depart: SimTime,
        buf: &'b mut [ResourceId; MAX_HEALTHY],
        detour: &'b mut Detour,
    ) -> Result<(&'b [ResourceId], bool), Unreachable> {
        let healthy = self.healthy_path(src_node, dst_node, buf);
        if !self.any_faults || !healthy.iter().any(|&l| self.is_dead(l, depart)) {
            return Ok((healthy, false));
        }
        // A node's bristle ports are its only attachment: dead ⇒ no detour
        // can exist. Dead router edges may be routable around.
        let (rsrc, rdst) = (self.topo.router_of(src_node), self.topo.router_of(dst_node));
        if self.is_dead(src_node, depart)
            || self.is_dead(self.nodes + dst_node, depart)
            || !self.detour(rsrc, rdst, depart, detour)
        {
            return Err(self.unreachable(src_node, dst_node, depart));
        }
        let Detour { edges, path, .. } = detour;
        path.clear();
        self.wrap_fabric(src_node, dst_node, &mut |id| path.push(id), |push| {
            push(src_node); // node → router
            edges.iter().rev().for_each(|&l| push(l));
            push(self.nodes + dst_node); // router → node
        });
        Ok((path, true))
    }

    fn unreachable(&self, src_node: usize, dst_node: usize, at: SimTime) -> Unreachable {
        let dead: Vec<String> = (0..self.faults.len())
            .filter(|&l| self.is_dead(l, at))
            .map(|l| self.link_name(l))
            .collect();
        Unreachable {
            src_node,
            dst_node,
            at,
            dead,
        }
    }

    /// Route `bytes` from `src_node` to `dst_node`, departing at `depart`
    /// on behalf of `pe`. Updates every traversed resource's occupancy and
    /// returns the queueing delay the transfer accrued. Node-local traffic
    /// never enters the link fabric; under `fabric` it still crosses the
    /// node's shared bus once, under `queued` it returns a zero [`Route`].
    ///
    /// Panics with the [`Unreachable`] diagnostic if a dead link severs
    /// every path; use [`NetSim::try_route`] to handle that case.
    pub fn route(
        &self,
        pe: u32,
        src_node: usize,
        dst_node: usize,
        bytes: usize,
        depart: SimTime,
    ) -> Route {
        self.try_route(pe, src_node, dst_node, bytes, depart)
            .unwrap_or_else(|u| panic!("{u}"))
    }

    /// Fallible [`NetSim::route`]: returns [`Unreachable`] when the fault
    /// plan leaves no path from `src_node` to `dst_node` at `depart`.
    pub fn try_route(
        &self,
        pe: u32,
        src_node: usize,
        dst_node: usize,
        bytes: usize,
        depart: SimTime,
    ) -> Result<Route, Unreachable> {
        let b = self.try_route_many(pe, src_node, &[(dst_node, bytes)], depart, false, 0)?;
        Ok(Route {
            delay: b.delay,
            bus_delay: b.bus_delay,
            hub_delay: b.hub_delay,
            links: b.links as u32,
        })
    }

    /// Walk one resolved path, waiting out and extending each resource's
    /// busy-until queue. The innermost charge loop of
    /// [`NetSim::try_route_many`]; the caller holds the state lock.
    fn charge_path(
        &self,
        st: &mut NetState,
        pe: u32,
        path: &[ResourceId],
        bytes: usize,
        depart: SimTime,
        record: bool,
    ) -> Route {
        let occ_link = self.cfg.transfer_ns(bytes).max(1);
        let occ_bus = self.cfg.bus_transfer_ns(bytes).max(1);
        let occ_hub = self.cfg.hub_occ_ns.max(1);
        let mut t = depart;
        let mut route = Route::default();
        for &l in path {
            let kind = self.kind_of(l);
            // Degraded service rate multiplies a link's hold time; gated on
            // `any_faults` so healthy runs stay bitwise-identical to the
            // pre-fault model. Buses and hubs are never faulted.
            let occ_l = match kind {
                ResourceKind::Link => {
                    if self.any_faults {
                        occ_link.saturating_mul(self.degrade_factor(l, depart))
                    } else {
                        occ_link
                    }
                }
                ResourceKind::Bus => occ_bus,
                ResourceKind::Hub => occ_hub,
            };
            let res = &mut st.res[l];
            let wait = res.busy_until.saturating_sub(t);
            let start = t + wait;
            res.busy_until = start + occ_l;
            res.bytes += bytes as u64;
            res.busy_ns += occ_l;
            res.queued_ns += wait;
            res.transfers += 1;
            route.delay += wait;
            match kind {
                ResourceKind::Bus => route.bus_delay += wait,
                ResourceKind::Hub => route.hub_delay += wait,
                ResourceKind::Link => {}
            }
            if record {
                if st.spans.len() < MAX_SPANS {
                    st.spans.push(LinkSpan {
                        link: l as u32,
                        t0: start,
                        t1: start + occ_l,
                        bytes: bytes.min(u32::MAX as usize) as u32,
                        pe,
                    });
                } else {
                    st.spans_dropped += 1;
                }
            }
            // Links store-and-forward the head after one hop latency;
            // buses and hubs are pipelined arbitration stages whose base
            // latency the analytic cost already charges.
            t = start
                + match kind {
                    ResourceKind::Link => self.cfg.lat_hop,
                    ResourceKind::Bus | ResourceKind::Hub => 0,
                };
        }
        route.links = path.len() as u32;
        route
    }

    /// Charge a whole run of transfers — `(dst_node, bytes)` per item, all
    /// departing from `src_node` on behalf of `pe` — under **one**
    /// state-lock acquisition. [`NetSim::try_route`] is its one-item
    /// spelling.
    ///
    /// The arithmetic is item-for-item identical to one call per item with
    /// `pending` threaded through: items are walked in order; when
    /// `serialize` is set, each item departs at `now` plus the backlog the
    /// earlier items accrued (the `net_pending` serialization the runtimes
    /// apply between scheduling points), starting from `pending`.
    /// Node-local items outside `fabric` charge nothing: their path is
    /// empty.
    ///
    /// On [`Unreachable`] the items before the failing one stay committed
    /// — the same table state one-item calls leave behind when the N-th
    /// fails.
    pub fn try_route_many(
        &self,
        pe: u32,
        src_node: usize,
        items: &[(usize, usize)],
        now: SimTime,
        serialize: bool,
        pending: SimTime,
    ) -> Result<BatchRoute, Unreachable> {
        let record = self.record_spans.load(Ordering::Relaxed);
        let mut out = BatchRoute {
            pending,
            ..BatchRoute::default()
        };
        let mut buf = [0; MAX_HEALTHY];
        let mut st = self.lock();
        // Out of the state while a path borrows it and the charge updates
        // the table; put back after the batch (an `Unreachable` drops it).
        let mut detour = std::mem::take(&mut st.detour);
        for &(dst_node, bytes) in items {
            let depart = now + if serialize { out.pending } else { 0 };
            let (path, detoured) = self.path(src_node, dst_node, depart, &mut buf, &mut detour)?;
            st.detoured += u64::from(detoured);
            let r = self.charge_path(&mut st, pe, path, bytes, depart, record);
            out.delay += r.delay;
            out.bus_delay += r.bus_delay;
            out.hub_delay += r.hub_delay;
            if r.links > 0 {
                out.links += u64::from(r.links);
                out.transfers += 1;
            }
            if serialize {
                out.pending += r.delay;
            }
        }
        st.detour = detour;
        Ok(out)
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> NetStats {
        let st = self.lock();
        let mut s = NetStats::default();
        for (id, res) in st.res.iter().enumerate() {
            let Res {
                transfers,
                queued_ns,
                bytes,
                busy_ns,
                ..
            } = *res;
            if transfers == 0 {
                continue;
            }
            match self.kind_of(id) {
                ResourceKind::Link => {
                    s.transfers += transfers;
                    s.queued_ns += queued_ns;
                    s.link_bytes += bytes;
                    s.busy_ns += busy_ns;
                    s.active_links += 1;
                    s.max_link_queued_ns = s.max_link_queued_ns.max(queued_ns);
                    s.max_link_bytes = s.max_link_bytes.max(bytes);
                }
                ResourceKind::Bus => {
                    s.bus.transfers += transfers;
                    s.bus.queued_ns += queued_ns;
                    s.bus.bytes += bytes;
                    s.bus.busy_ns += busy_ns;
                    s.bus.active += 1;
                }
                ResourceKind::Hub => {
                    s.hub.transfers += transfers;
                    s.hub.queued_ns += queued_ns;
                    s.hub.bytes += bytes;
                    s.hub.busy_ns += busy_ns;
                    s.hub.active += 1;
                }
            }
        }
        s.detoured_transfers = st.detoured;
        for link in 0..self.faults.len() {
            match self.terminal_fault(link) {
                Some(FaultKind::Kill) => s.dead_links += 1,
                Some(FaultKind::Degrade { .. }) => s.degraded_links += 1,
                Some(FaultKind::Heal) | None => {}
            }
        }
        s
    }

    /// Mark the start of a named phase; subsequent traffic is attributed to
    /// it in [`NetSim::phase_hotspots`].
    pub fn begin_phase(&self, name: &str) {
        let mut st = self.lock();
        let at_start = st.res.iter().map(Res::snap).collect();
        st.phases.push(Phase {
            name: name.to_string(),
            at_start,
        });
    }

    /// Build the top-`k` rows between a base snapshot and the phase-end
    /// counters `end(id)` (queued, bytes, transfers; `busy_ns` is always
    /// the live total, read from `res`). Display names resolve from the
    /// cached table, and only for the rows that survive the sort and
    /// truncation.
    fn hot_rows(
        &self,
        res: &[Res],
        end: impl Fn(usize) -> LinkSnap,
        base: Option<&[LinkSnap]>,
        k: usize,
    ) -> Vec<LinkHot> {
        // (id, queued, bytes, transfers): names come after the truncate.
        let mut rows: Vec<(usize, u64, u64, u64)> = (0..res.len())
            .filter_map(|id| {
                let (q, b, t) = end(id);
                let (q0, b0, t0) = base.map_or((0, 0, 0), |s| s[id]);
                let transfers = t - t0;
                if transfers == 0 {
                    return None;
                }
                Some((id, q - q0, b - b0, transfers))
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows.into_iter()
            .map(|(id, queued_ns, bytes, transfers)| LinkHot {
                link: id,
                kind: self.kind_of(id),
                name: self.display_name(id).to_string(),
                queued_ns,
                busy_ns: res[id].busy_ns,
                bytes,
                transfers,
            })
            .collect()
    }

    /// Top-`k` resources by accrued queueing delay over the whole run.
    pub fn hotspots(&self, k: usize) -> Vec<LinkHot> {
        let st = self.lock();
        self.hot_rows(&st.res, |id| st.res[id].snap(), None, k)
    }

    /// Top-`k` resources per recorded phase (deltas between phase marks;
    /// the last phase runs to the present). Empty if no phase was marked.
    fn phase_hotspots(&self, k: usize) -> Vec<(String, Vec<LinkHot>)> {
        let st = self.lock();
        let mut out = Vec::new();
        for (i, ph) in st.phases.iter().enumerate() {
            // The phase-end counters: the next phase's start snapshot, or
            // the live table for the final phase.
            let rows = match st.phases.get(i + 1) {
                Some(next) => self.hot_rows(&st.res, |id| next.at_start[id], Some(&ph.at_start), k),
                None => self.hot_rows(&st.res, |id| st.res[id].snap(), Some(&ph.at_start), k),
            };
            out.push((ph.name.clone(), rows));
        }
        out
    }

    /// Histogram of per-resource utilization `busy_ns / now` over resources
    /// that carried traffic: ten 10%-wide buckets. A `now` of zero, or one
    /// earlier than the traffic itself (utilization > 100%), clamps into
    /// the busiest bucket rather than dividing by zero or dropping rows —
    /// every active resource is always counted exactly once.
    pub fn utilization_hist(&self, now: SimTime) -> [u64; 10] {
        let st = self.lock();
        let mut hist = [0u64; 10];
        for res in st.res.iter().filter(|r| r.transfers != 0) {
            let u = if now == 0 {
                1.0
            } else {
                (res.busy_ns as f64 / now as f64).clamp(0.0, 1.0)
            };
            hist[((u * 10.0) as usize).min(9)] += 1;
        }
        hist
    }

    /// Render the whole-run top-`k` hotspots (and per-phase tables when
    /// phases were marked) as text. Under `fabric` each row leads with the
    /// resource kind; under `queued` the format is the historical
    /// links-only table, byte-for-byte.
    pub fn hotspot_report(&self, k: usize) -> String {
        fn table(rows: &[LinkHot], fabric: bool) -> String {
            let mut out = if fabric {
                format!(
                    "{:<5} {:<16} {:>12} {:>12} {:>10}\n",
                    "kind", "resource", "queued ns", "bytes", "transfers"
                )
            } else {
                format!(
                    "{:<16} {:>12} {:>12} {:>10}\n",
                    "link", "queued ns", "bytes", "transfers"
                )
            };
            for r in rows {
                if fabric {
                    out.push_str(&format!(
                        "{:<5} {:<16} {:>12} {:>12} {:>10}\n",
                        r.kind.to_string(),
                        r.name,
                        r.queued_ns,
                        r.bytes,
                        r.transfers
                    ));
                } else {
                    out.push_str(&format!(
                        "{:<16} {:>12} {:>12} {:>10}\n",
                        r.name, r.queued_ns, r.bytes, r.transfers
                    ));
                }
            }
            out
        }
        let mut out = if self.fabric {
            format!("top-{k} resources by queueing delay:\n")
        } else {
            format!("top-{k} links by queueing delay:\n")
        };
        out.push_str(&table(&self.hotspots(k), self.fabric));
        for (name, rows) in self.phase_hotspots(k) {
            out.push_str(&format!("\nphase {name:?}:\n"));
            out.push_str(&table(&rows, self.fabric));
        }
        out
    }

    /// Recorded resource-occupancy spans plus per-resource display names,
    /// for attaching to an [`o2k_trace::Trace`]. Empty unless
    /// [`NetSim::set_record_spans`] was enabled.
    pub fn spans(&self) -> (Vec<String>, Vec<LinkSpan>) {
        let st = self.lock();
        if st.spans.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let names = (0..st.res.len()).map(|id| self.link_name(id)).collect();
        (names, st.spans.clone())
    }

    /// Spans dropped after [`MAX_SPANS`] (0 in any reasonable run).
    pub fn spans_dropped(&self) -> u64 {
        self.lock().spans_dropped
    }

    /// Fault intervals as trace spans for the Perfetto interconnect track:
    /// each scheduled event becomes a span from its onset to the next event
    /// on the same link (or `end`, the run's horizon). Empty when healthy.
    pub fn fault_spans(&self, end: SimTime) -> Vec<FaultSpan> {
        let mut out = Vec::new();
        for (link, sched) in self.faults.iter().enumerate() {
            for (i, &(at, kind)) in sched.iter().enumerate() {
                let t1 = sched.get(i + 1).map_or(end, |&(next, _)| next).min(end);
                if at >= t1 {
                    continue;
                }
                out.push(FaultSpan {
                    link: link as u32,
                    t0: at,
                    t1,
                    label: format!("fault:{kind}"),
                });
            }
        }
        out
    }

    // -- Checkpoint interface -----------------------------------------------
    //
    // The fabric's resumable state is the busy-until queue and cumulative
    // counters of every resource, the detour count, and the per-phase
    // baseline snapshots (phase hotspot reports must survive a restore).
    // Recorded trace spans are *not* exported: a restored run's trace
    // covers post-restore traffic only. The encoding is `o2k_snap::wire`,
    // versioned by the snapshot container's `FORMAT_VERSION`, which
    // treats it as an opaque blob.

    /// Serialise the resumable fabric state.
    pub fn export_state_bytes(&self) -> Vec<u8> {
        let st = self.lock();
        let mut w = WireWriter::new();
        w.u64(st.detoured);
        w.u64(st.spans_dropped);
        w.u64(st.res.len() as u64);
        for (id, res) in st.res.iter().enumerate() {
            w.u64(self.kind_of(id) as u64);
            w.u64(res.busy_until);
            w.u64(res.bytes);
            w.u64(res.busy_ns);
            w.u64(res.queued_ns);
            w.u64(res.transfers);
        }
        w.u64(st.phases.len() as u64);
        for ph in &st.phases {
            w.str(&ph.name);
            w.u64(ph.at_start.len() as u64);
            for &(q, b, t) in &ph.at_start {
                w.u64(q);
                w.u64(b);
                w.u64(t);
            }
        }
        w.into_bytes()
    }

    /// Restore state exported by [`NetSim::export_state_bytes`].
    ///
    /// # Errors
    /// Errors — leaving this fabric untouched — when the bytes are
    /// truncated, carry trailing bytes, or describe a resource table of
    /// another size or kind layout (another topology or contention mode).
    pub fn import_state_bytes(&self, bytes: &[u8]) -> Result<(), String> {
        let mut r = WireReader::new(bytes);
        let detoured = r.u64()?;
        let spans_dropped = r.u64()?;
        let n = r.count(48)?;
        let mut kinds = Vec::with_capacity(n);
        let mut res = Vec::with_capacity(n);
        for _ in 0..n {
            kinds.push(match r.u64()? {
                0 => ResourceKind::Link,
                1 => ResourceKind::Bus,
                2 => ResourceKind::Hub,
                k => return Err(format!("unknown resource kind {k}")),
            });
            res.push(Res {
                busy_until: r.u64()?,
                bytes: r.u64()?,
                busy_ns: r.u64()?,
                queued_ns: r.u64()?,
                transfers: r.u64()?,
            });
        }
        let nphases = r.count(16)?;
        let mut phases = Vec::with_capacity(nphases);
        for _ in 0..nphases {
            let name = r.str()?;
            if r.u64()? != n as u64 {
                return Err("fabric phase snapshot size mismatch".into());
            }
            let mut at_start = Vec::with_capacity(n);
            for _ in 0..n {
                at_start.push((r.u64()?, r.u64()?, r.u64()?));
            }
            phases.push(Phase { name, at_start });
        }
        r.finish()?;
        let mut st = self.lock();
        if res.len() != st.res.len()
            || kinds
                .iter()
                .enumerate()
                .any(|(id, &k)| k != self.kind_of(id))
        {
            return Err(format!(
                "fabric resource table mismatch: snapshot has {} resources, this machine {}",
                res.len(),
                st.res.len()
            ));
        }
        st.res = res;
        st.detoured = detoured;
        st.spans_dropped = spans_dropped;
        st.phases = phases;
        st.spans.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(pes: usize) -> NetSim {
        let topo = Topology::new(pes, 2);
        NetSim::new(&topo, &MachineConfig::origin2000())
    }

    fn sim_fabric(pes: usize, cpus_per_node: usize) -> NetSim {
        let topo = Topology::new(pes, cpus_per_node);
        let mut cfg = MachineConfig::origin2000();
        cfg.cpus_per_node = cpus_per_node;
        cfg.contention = ContentionMode::Fabric;
        NetSim::new(&topo, &cfg)
    }

    #[test]
    fn idle_fabric_has_no_queueing() {
        let net = sim(16);
        let r = net.route(0, 0, 7, 1024, 0);
        assert_eq!(r.delay, 0, "first transfer meets an idle fabric");
        assert!(r.links >= 2, "up-bristle + down-bristle at minimum");
    }

    #[test]
    fn node_local_traffic_never_enters_the_fabric() {
        let net = sim(8);
        let r = net.route(0, 2, 2, 4096, 0);
        assert_eq!(r, Route::default());
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    fn simultaneous_transfers_on_one_link_queue() {
        let net = sim(8);
        let occ = MachineConfig::origin2000().transfer_ns(4096);
        let a = net.route(0, 0, 3, 4096, 0);
        let b = net.route(1, 0, 3, 4096, 0);
        assert_eq!(a.delay, 0);
        assert!(
            b.delay >= occ,
            "second transfer waits at least one occupancy ({} < {occ})",
            b.delay
        );
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let net = sim(8); // 4 nodes: 0,1 on router 0; 2,3 on router 1
        let a = net.route(0, 0, 1, 65_536, 0);
        let b = net.route(1, 2, 3, 65_536, 0);
        assert_eq!((a.delay, b.delay), (0, 0));
    }

    #[test]
    fn contention_grows_with_senders() {
        // All nodes hammer node 0's down-bristle at t=0: total queueing must
        // rise monotonically with the number of senders.
        let mut prev = 0;
        for senders in [2usize, 4, 8, 16] {
            let net = sim(2 * (senders + 1));
            let mut total = 0;
            for s in 1..=senders {
                total += net.route(s as u32, s, 0, 2048, 0).delay;
            }
            assert!(
                total > prev,
                "{senders} senders queued {total} ns, not more than {prev}"
            );
            prev = total;
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let run = || {
            let net = sim(32);
            for i in 0..200u32 {
                let src = (i as usize * 7) % 16;
                let dst = (i as usize * 3 + 1) % 16;
                net.route(i, src, dst, 64 + (i as usize % 5) * 512, (i as u64) * 40);
            }
            net.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_and_hotspots_account_traffic() {
        let net = sim(16);
        for s in 1..8 {
            net.route(s as u32, s, 0, 1024, 0);
        }
        let stats = net.stats();
        assert!(stats.transfers > 0);
        assert!(stats.queued_ns > 0);
        assert!(stats.max_link_queued_ns <= stats.queued_ns);
        let hot = net.hotspots(3);
        assert!(!hot.is_empty());
        assert!(hot.windows(2).all(|w| w[0].queued_ns >= w[1].queued_ns));
        // The hotspot must be node 0's inbound port: every transfer funnels
        // through it. (16 PEs → 8 nodes; down-port of node 0 is id 8+0.)
        assert_eq!(hot[0].link, 8);
        assert_eq!(hot[0].name, "rtr0→node0");
        assert_eq!(hot[0].kind, ResourceKind::Link);
    }

    #[test]
    fn phases_attribute_traffic_separately() {
        let net = sim(8);
        net.begin_phase("east");
        net.route(0, 0, 3, 4096, 0);
        net.begin_phase("west");
        net.route(1, 3, 0, 4096, 10_000_000);
        let phases = net.phase_hotspots(4);
        assert_eq!(phases.len(), 2);
        let (ref e_name, ref east) = phases[0];
        let (ref w_name, ref west) = phases[1];
        assert_eq!((e_name.as_str(), w_name.as_str()), ("east", "west"));
        assert!(east.iter().any(|h| h.name.contains("→node3")));
        assert!(!east.iter().any(|h| h.name.contains("→node0")));
        assert!(west.iter().any(|h| h.name.contains("→node0")));
    }

    #[test]
    fn spans_only_when_enabled_and_well_formed() {
        let net = sim(8);
        net.route(0, 0, 3, 512, 0);
        assert!(net.spans().1.is_empty(), "off by default");
        net.set_record_spans(true);
        net.route(1, 3, 0, 512, 50);
        let (names, spans) = net.spans();
        assert!(!spans.is_empty());
        assert_eq!(names.len(), net.links());
        for s in &spans {
            assert!(s.t1 > s.t0);
            assert!((s.link as usize) < names.len());
        }
        assert_eq!(net.spans_dropped(), 0);
    }

    #[test]
    fn non_power_of_two_machines_route_everywhere() {
        // 10 nodes → 5 routers, padded to 8: every pair must route without
        // panicking and with plausible link counts.
        let topo = Topology::new(20, 2);
        let net = NetSim::new(&topo, &MachineConfig::origin2000());
        for a in 0..topo.nodes() {
            for b in 0..topo.nodes() {
                let r = net.route(0, a, b, 128, 0);
                if a == b {
                    assert_eq!(r.links, 0);
                } else {
                    assert_eq!(r.links, topo.hops(a, b) + 1, "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn utilization_hist_counts_active_links() {
        let net = sim(8);
        net.route(0, 0, 3, 65_536, 0);
        let stats = net.stats();
        let hist = net.utilization_hist(1_000_000);
        assert_eq!(hist.iter().sum::<u64>(), stats.active_links);
    }

    #[test]
    fn utilization_hist_zero_now_keeps_busiest_bucket() {
        // Regression: `now == 0` (or any `now` earlier than the traffic)
        // used to return all zeros, silently dropping the busiest links.
        // Saturated resources must land in the top bucket instead.
        let net = sim(8);
        net.route(0, 0, 3, 65_536, 0);
        let active = net.stats().active_links;
        assert!(active > 0);
        let at_zero = net.utilization_hist(0);
        assert_eq!(at_zero[9], active, "all active links are ≥100% utilised");
        assert_eq!(at_zero.iter().sum::<u64>(), active);
        // A `now` earlier than the occupancy end clamps the same way.
        let early = net.utilization_hist(1);
        assert_eq!(early.iter().sum::<u64>(), active);
        assert_eq!(early[9], active);
        // An idle fabric still reports nothing.
        assert_eq!(sim(8).utilization_hist(0), [0; 10]);
    }

    #[test]
    fn link_names_cover_the_table() {
        let net = sim(16); // 8 nodes, 4 routers
        for id in 0..net.links() {
            let name = net.link_name(id);
            assert!(name.contains('→'), "{name}");
        }
        assert_eq!(net.link_name(0), "node0→rtr0");
        assert_eq!(net.link_name(8), "rtr0→node0");
    }

    #[test]
    fn hotspot_report_renders() {
        let net = sim(8);
        net.begin_phase("p0");
        net.route(0, 0, 3, 1024, 0);
        net.route(1, 1, 3, 1024, 0);
        let rep = net.hotspot_report(5);
        assert!(rep.contains("top-5 links"));
        assert!(rep.contains("phase \"p0\""));
        assert!(rep.contains("queued ns"));
    }

    // --- fabric mode: buses and hubs as contended resources ---

    #[test]
    fn queued_mode_has_no_bus_or_hub_resources() {
        // The non-fabric table is bitwise the historical link array: same
        // size, and stats carry no bus/hub activity.
        let topo = Topology::new(16, 2);
        let mut cfg = MachineConfig::origin2000();
        cfg.contention = ContentionMode::Queued;
        let queued = NetSim::new(&topo, &cfg);
        let off_cfg = MachineConfig::origin2000();
        let plain = NetSim::new(&topo, &off_cfg);
        assert_eq!(queued.links(), plain.links());
        queued.route(0, 0, 7, 4096, 0);
        let s = queued.stats();
        assert_eq!(s.bus, KindStats::default());
        assert_eq!(s.hub, KindStats::default());
    }

    #[test]
    fn fabric_charges_buses_and_hubs() {
        let net = sim_fabric(16, 2);
        let r = net.route(0, 0, 7, 4096, 0);
        // bus:node0, hub, links, hub, bus:node7 — at least 4 extra
        // resources beyond the wire path when routers differ.
        assert!(r.links >= 6, "expected bus/hub wrapping, got {}", r.links);
        let s = net.stats();
        assert_eq!(s.bus.transfers, 2, "source and destination buses");
        assert!(s.hub.transfers >= 1);
        assert_eq!(s.bus.bytes, 2 * 4096);
        assert!(s.bus.busy_ns > 0);
        assert!(s.hub.busy_ns > 0);
    }

    #[test]
    fn fabric_node_local_traffic_crosses_the_bus() {
        let net = sim_fabric(8, 2);
        let a = net.route(0, 2, 2, 4096, 0);
        assert_eq!(a.links, 1, "one bus crossing, no links");
        assert_eq!(a.delay, 0);
        // A second same-time local transfer queues behind the first on the
        // shared bus.
        let b = net.route(1, 2, 2, 4096, 0);
        let occ = MachineConfig::origin2000().bus_transfer_ns(4096);
        assert!(b.delay >= occ, "bus wait {} < occupancy {occ}", b.delay);
        assert_eq!(b.bus_delay, b.delay, "all the wait is bus wait");
        let s = net.stats();
        assert_eq!(s.transfers, 0, "no link ever carried it");
        assert_eq!(s.bus.transfers, 2);
    }

    #[test]
    fn fabric_same_router_pair_charges_hub_once() {
        let net = sim_fabric(8, 2); // nodes 0,1 share router 0
        let r = net.route(0, 0, 1, 1024, 0);
        // bus, hub, up-link, down-link, bus = 5 resources.
        assert_eq!(r.links, 5);
        let s = net.stats();
        assert_eq!(s.hub.transfers, 1);
        assert_eq!(s.bus.transfers, 2);
        assert_eq!(s.transfers, 2, "up + down bristle links");
    }

    #[test]
    fn fabric_hub_occupancy_serializes_a_router() {
        // Two different-pair transfers entering the same router at t=0:
        // the second arbitrates behind the first's hub occupancy before it
        // ever reaches a shared wire.
        let net = sim_fabric(16, 2); // nodes 0,1 on rtr0; 2,3 on rtr1
        let a = net.route(0, 0, 2, 64, 0);
        let b = net.route(1, 1, 3, 64, 0);
        assert_eq!(a.delay, 0);
        assert!(b.hub_delay > 0, "second transfer arbitrates behind first");
        let hub_occ = MachineConfig::origin2000().hub_occ_ns;
        assert!(b.hub_delay >= hub_occ.min(b.delay));
    }

    #[test]
    fn fabric_bus_saturates_with_cpus_per_node() {
        // Fatter nodes funnel more same-time local traffic over one bus:
        // total bus queueing must rise monotonically with cpus_per_node at
        // fixed PE count.
        let mut prev = 0;
        for cpn in [2usize, 4, 8] {
            let net = sim_fabric(16, cpn);
            for pe in 0..16u32 {
                let node = pe as usize / cpn;
                net.route(pe, node, node, 4096, 0);
            }
            let q = net.stats().bus.queued_ns;
            assert!(q > prev, "cpus_per_node={cpn}: bus queue {q} ≤ {prev}");
            prev = q;
        }
    }

    #[test]
    fn fabric_resource_names_and_kinds() {
        let net = sim_fabric(16, 2); // 8 nodes, 4 routers
        let nlinks = 2 * 8 + 4 * 2;
        assert_eq!(net.links(), nlinks + 8 + 4);
        assert_eq!(net.kind_of(0), ResourceKind::Link);
        assert_eq!(net.kind_of(nlinks), ResourceKind::Bus);
        assert_eq!(net.link_name(nlinks), "bus:node0");
        assert_eq!(net.link_name(nlinks + 3), "bus:node3");
        assert_eq!(net.kind_of(nlinks + 8), ResourceKind::Hub);
        assert_eq!(net.link_name(nlinks + 8), "hub:rtr0");
        assert_eq!(net.link_name(nlinks + 8 + 2), "hub:rtr2");
    }

    #[test]
    fn fabric_hotspot_report_names_resource_kinds() {
        let net = sim_fabric(8, 2);
        // Hammer node 0's bus with local traffic so a bus tops the table.
        for pe in 0..8u32 {
            net.route(pe, 0, 0, 65_536, 0);
        }
        let rep = net.hotspot_report(5);
        assert!(rep.contains("top-5 resources"), "{rep}");
        assert!(rep.contains("kind"), "{rep}");
        assert!(rep.contains("bus   bus:node0"), "{rep}");
    }

    #[test]
    fn fabric_routing_is_deterministic() {
        let run = || {
            let net = sim_fabric(32, 4);
            for i in 0..200u32 {
                let src = (i as usize * 7) % 8;
                let dst = (i as usize * 3 + 1) % 8;
                net.route(i, src, dst, 64 + (i as usize % 5) * 512, (i as u64) * 40);
            }
            net.stats()
        };
        assert_eq!(run(), run());
    }

    fn sim_fault(pes: usize, spec: &str) -> NetSim {
        let topo = Topology::new(pes, 2);
        let mut cfg = MachineConfig::origin2000();
        cfg.fault = FaultMode::parse(spec).expect("valid fault spec");
        NetSim::new(&topo, &cfg)
    }

    #[test]
    fn degraded_link_slows_service() {
        // Two back-to-back transfers over node 3's inbound port: the second
        // waits out the first's occupancy. Under deg4 that occupancy (and so
        // the wait) is 4× the healthy one.
        let occ = MachineConfig::origin2000().transfer_ns(4096);
        let healthy = sim(8);
        healthy.route(0, 0, 3, 4096, 0);
        let base = healthy.route(1, 1, 3, 4096, 0).delay;
        let net = sim_fault(8, "plan:down3:deg4");
        net.route(0, 0, 3, 4096, 0);
        let slow = net.route(1, 1, 3, 4096, 0).delay;
        assert!(base >= occ);
        assert!(
            slow >= base + 3 * occ,
            "deg4 wait {slow} not ≳ 4× healthy wait {base} (occ {occ})"
        );
        let stats = net.stats();
        assert_eq!(stats.degraded_links, 1);
        assert_eq!(stats.dead_links, 0);
    }

    #[test]
    fn fault_onset_time_is_respected() {
        // A degrade scheduled in the far future must not touch earlier
        // traffic: stats match a healthy fabric bitwise.
        let healthy = sim(16);
        let net = sim_fault(16, "plan:down0:deg8@1000000000");
        for s in 1..8 {
            healthy.route(s as u32, s, 0, 1024, 0);
            net.route(s as u32, s, 0, 1024, 0);
        }
        let (mut a, mut b) = (healthy.stats(), net.stats());
        // Only the schedule bookkeeping may differ.
        b.degraded_links = 0;
        a.degraded_links = 0;
        assert_eq!(a, b);
    }

    #[test]
    fn killed_router_edge_is_detoured() {
        // 16 PEs → 8 nodes, 4 routers (dims=2). node0 (rtr0) → node4 (rtr2)
        // e-cube path uses rtr0's dim-1 edge = r0d1. Kill it: the detour
        // goes rtr0→rtr1→rtr3→rtr2, one extra router hop.
        let net = sim_fault(16, "plan:r0d1:kill");
        let r = net.route(0, 0, 4, 1024, 0);
        assert_eq!(r.links, 5, "up + 3 router edges + down");
        let stats = net.stats();
        assert_eq!(stats.detoured_transfers, 1);
        assert_eq!(stats.dead_links, 1);
        // An unaffected pair (rtr1→rtr3, a pure dim-1 hop) still takes its
        // e-cube path.
        let topo = Topology::new(16, 2);
        let r2 = net.route(1, 2, 6, 1024, 0);
        assert_eq!(r2.links, topo.hops(2, 6) + 1);
        assert_eq!(net.stats().detoured_transfers, 1);
    }

    #[test]
    fn killed_bristle_port_partitions() {
        // A node's inbound port is its only attachment — no detour exists.
        let net = sim_fault(16, "plan:down0:kill");
        let err = net.try_route(2, 1, 0, 1024, 0).unwrap_err();
        assert_eq!((err.src_node, err.dst_node), (1, 0));
        let msg = err.to_string();
        assert!(msg.contains("network partition"), "{msg}");
        assert!(msg.contains("rtr0→node0"), "{msg}");
        // Other destinations remain reachable.
        assert!(net.try_route(2, 1, 3, 1024, 0).is_ok());
    }

    #[test]
    fn router_cut_with_no_detour_partitions() {
        // 8 PEs → 4 nodes, 2 routers, dims=1: the single r0d0 edge IS the
        // cut; killing it severs rtr0 from rtr1 with nothing to detour over.
        let net = sim_fault(8, "plan:r0d0:kill");
        let err = net.try_route(0, 0, 2, 1024, 0).unwrap_err();
        assert!(err.to_string().contains("rtr0→rtr1"), "{err}");
        // Same-router traffic is untouched.
        assert!(net.try_route(0, 0, 1, 1024, 0).is_ok());
    }

    #[test]
    fn route_panics_with_partition_diagnostic() {
        let net = sim_fault(8, "plan:up0:kill");
        let msg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.route(0, 0, 3, 64, 0);
        }))
        .unwrap_err();
        let msg = msg
            .downcast_ref::<String>()
            .expect("panic payload is the Unreachable display");
        assert!(msg.contains("network partition"), "{msg}");
        assert!(msg.contains("node0→rtr0"), "{msg}");
    }

    #[test]
    fn hotspot_report_annotates_faulted_links() {
        let net = sim_fault(8, "plan:down3:deg4;r0d0:kill@1000000000");
        net.route(0, 0, 3, 4096, 0);
        net.route(1, 1, 3, 4096, 0);
        let rep = net.hotspot_report(8);
        assert!(rep.contains("[deg4]"), "{rep}");
        // The killed edge carried traffic before its onset, so it appears
        // annotated too.
        assert!(rep.contains("[dead]"), "{rep}");
    }

    #[test]
    fn fault_spans_cover_schedule_intervals() {
        let net = sim_fault(8, "plan:down3:deg4@100;down3:kill@500");
        let spans = net.fault_spans(1_000);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].t0, spans[0].t1), (100, 500));
        assert_eq!(spans[0].label, "fault:deg4");
        assert_eq!((spans[1].t0, spans[1].t1), (500, 1_000));
        assert_eq!(spans[1].label, "fault:kill");
        // A horizon before the onset yields nothing for that event.
        assert_eq!(net.fault_spans(100).len(), 0);
        assert!(sim(8).fault_spans(1_000).is_empty());
    }

    #[test]
    fn faulted_routing_is_deterministic() {
        let run = || {
            let net = sim_fault(32, "plan:r0d1:kill;down2:deg8@5000");
            let mut total = 0u64;
            for i in 0..200u32 {
                let src = (i as usize * 7) % 16;
                let dst = (i as usize * 3 + 1) % 16;
                if let Ok(r) =
                    net.try_route(i, src, dst, 64 + (i as usize % 5) * 512, u64::from(i) * 40)
                {
                    total += r.delay;
                }
            }
            (net.stats(), total)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn out_of_range_fault_links_are_skipped() {
        // 8 PEs → 4 nodes, 2 routers: down9 and r5d0 don't exist here.
        let net = sim_fault(8, "plan:down9:kill;r5d0:kill;up0:deg2");
        let stats_before = net.stats();
        assert_eq!(stats_before.dead_links, 0);
        assert_eq!(stats_before.degraded_links, 1);
        assert!(net.try_route(0, 0, 3, 64, 0).is_ok());
    }

    // --- heal: mid-run link recovery ---

    #[test]
    fn healed_degrade_restores_full_service() {
        // down3 is deg4 until t=10_000, then heals. Before: 4× occupancy;
        // after: healthy occupancy, byte-identical waits to a fresh fabric.
        let occ = MachineConfig::origin2000().transfer_ns(4096);
        let net = sim_fault(8, "plan:down3:deg4;down3:heal@10000");
        net.route(0, 0, 3, 4096, 0);
        let slow = net.route(1, 1, 3, 4096, 0).delay;
        assert!(slow >= 4 * occ, "pre-heal wait {slow} < 4×occ {}", 4 * occ);
        // Well after the heal (and after the queue drains): two fresh
        // back-to-back transfers wait exactly the healthy occupancy.
        let t = 10_000_000;
        net.route(2, 0, 3, 4096, t);
        let healed = net.route(3, 1, 3, 4096, t).delay;
        let healthy = sim(8);
        healthy.route(2, 0, 3, 4096, t);
        let base = healthy.route(3, 1, 3, 4096, t).delay;
        assert_eq!(healed, base, "healed link serves at full rate");
        // A heal-terminated schedule is neither dead nor degraded.
        let s = net.stats();
        assert_eq!((s.dead_links, s.degraded_links), (0, 0));
    }

    #[test]
    fn healed_kill_restores_ecube_route() {
        // r0d1 is dead at t=0 (detour), healed at t=50_000 (e-cube again,
        // deterministically — the route is a pure function of time).
        let net = sim_fault(16, "plan:r0d1:kill;r0d1:heal@50000");
        let topo = Topology::new(16, 2);
        let before = net.route(0, 0, 4, 1024, 0);
        assert_eq!(before.links, 5, "detour adds a router hop");
        let last = net.route(0, 0, 4, 1024, 49_999);
        assert_eq!(last.links, 5, "still dead just before the heal");
        assert_eq!(net.stats().detoured_transfers, 2);
        let after = net.route(1, 0, 4, 1024, 50_000);
        assert_eq!(after.links, topo.hops(0, 4) + 1, "e-cube path restored");
        assert_eq!(net.stats().detoured_transfers, 2, "no new detour");
    }

    #[test]
    fn healed_bristle_port_reconnects() {
        let net = sim_fault(16, "plan:down0:kill;down0:heal@1000");
        assert!(net.try_route(2, 1, 0, 1024, 0).is_err(), "dead before heal");
        assert!(net.try_route(2, 1, 0, 1024, 999).is_err(), "dead until it");
        assert!(net.try_route(2, 1, 0, 1024, 1_000).is_ok(), "alive after");
        let rep = net.hotspot_report(8);
        assert!(rep.contains("[healed]"), "{rep}");
    }

    #[test]
    fn heal_then_refault_applies_in_order() {
        let net = sim_fault(8, "plan:down3:deg4;down3:heal@100;down3:deg8@200");
        assert_eq!(net.degrade_factor(4 + 3, 0), 4);
        assert_eq!(net.degrade_factor(4 + 3, 150), 1);
        assert_eq!(net.degrade_factor(4 + 3, 250), 8);
        // Terminal state is deg8: reported as degraded.
        assert_eq!(net.stats().degraded_links, 1);
    }

    mod phase_accounting {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Per-phase hotspot tables partition the global counters: with
            /// a phase marked before any traffic and no top-k truncation,
            /// summing bytes / transfers / queueing over every phase
            /// reproduces [`NetSim::stats`] exactly — including detoured
            /// and degraded transfers and (under fabric) bus/hub rows.
            #[test]
            fn phase_totals_sum_to_global(
                seed in 0usize..256,
                fabric in 0usize..2,
                faulted in 0usize..2,
            ) {
                let topo = Topology::new(32, 4);
                let mut cfg = MachineConfig::origin2000();
                cfg.cpus_per_node = 4;
                if fabric == 1 {
                    cfg.contention = ContentionMode::Fabric;
                }
                if faulted == 1 {
                    cfg.fault = FaultMode::parse(
                        "plan:r0d1:kill;down2:deg8@5000;r0d1:heal@90000",
                    )
                    .unwrap();
                }
                let net = NetSim::new(&topo, &cfg);
                // xorshift keeps the traffic pattern a pure function of the
                // proptest-chosen seed.
                let mut x = (seed as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut step = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                net.begin_phase("p0");
                for i in 0..120u32 {
                    if i == 40 {
                        net.begin_phase("p1");
                    }
                    if i == 80 {
                        net.begin_phase("p2");
                    }
                    let src = (step() % 8) as usize;
                    let dst = (step() % 8) as usize;
                    let bytes = 64 + (step() % 4096) as usize;
                    let depart = step() % 100_000;
                    // Unreachable destinations (killed bristle plans don't
                    // occur here, but be robust) simply skip.
                    let _ = net.try_route(i, src, dst, bytes, depart);
                }
                let s = net.stats();
                let (mut bytes, mut transfers, mut queued) = (0u64, 0u64, 0u64);
                for (_, rows) in net.phase_hotspots(usize::MAX) {
                    for r in rows {
                        bytes += r.bytes;
                        transfers += r.transfers;
                        queued += r.queued_ns;
                    }
                }
                prop_assert_eq!(bytes, s.link_bytes + s.bus.bytes + s.hub.bytes);
                prop_assert_eq!(
                    transfers,
                    s.transfers + s.bus.transfers + s.hub.transfers
                );
                prop_assert_eq!(queued, s.total_queued_ns());
            }
        }
    }

    // --- one charge path ---

    /// What a window leaves behind: its sums or the partition, the
    /// statistics, the table bytes.
    type Outcome = (Result<BatchRoute, Unreachable>, NetStats, Vec<u8>);

    /// `items` charged as one window, and as one-item windows on a twin
    /// fabric with the backlog threaded through by hand. Both twins saw the
    /// same cross traffic first, so the queues the windows meet are busy.
    fn window_and_fold(
        cfg: &MachineConfig,
        items: &[(usize, usize)],
        serialize: bool,
    ) -> [Outcome; 2] {
        let (src, now, pending) = (1, 2_000, 300);
        let twin = || {
            let net = NetSim::new(&Topology::new(32, 4), cfg);
            for i in 0..40usize {
                let _ = net.try_route(9, i % 8, (i * 3 + 1) % 8, 2048, 40 * i as u64);
            }
            net
        };
        let (whole, folded) = (twin(), twin());
        let one = whole.try_route_many(4, src, items, now, serialize, pending);
        let start = BatchRoute {
            pending,
            ..BatchRoute::default()
        };
        let sum = items.iter().try_fold(start, |acc, &item| {
            let b = folded.try_route_many(4, src, &[item], now, serialize, acc.pending)?;
            Ok(BatchRoute {
                delay: acc.delay + b.delay,
                bus_delay: acc.bus_delay + b.bus_delay,
                hub_delay: acc.hub_delay + b.hub_delay,
                links: acc.links + b.links,
                transfers: acc.transfers + b.transfers,
                pending: b.pending,
            })
        });
        [(whole, one), (folded, sum)].map(|(net, r)| (r, net.stats(), net.export_state_bytes()))
    }

    mod charge_windows {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// A multi-item window is nothing but its one-item windows in
            /// order — so the runtimes' single charge path prices a CC-SAS
            /// coherence window exactly as per-transfer calls would.
            #[test]
            fn a_window_is_the_fold_of_its_items(
                items in proptest::collection::vec((0usize..8, 1usize..4097), 1..9),
                fabric in 0usize..2,
                plan in 0usize..3,
                serialize in 0usize..2,
            ) {
                let mut cfg = MachineConfig::origin2000();
                cfg.cpus_per_node = 4;
                if fabric == 1 {
                    cfg.contention = ContentionMode::Fabric;
                }
                // No plan, a degraded port, a killed router edge (detoured).
                let plans = ["off", "plan:down2:deg8", "plan:r0d1:kill"];
                cfg.fault = FaultMode::parse(plans[plan]).unwrap();
                let [whole, folded] = window_and_fold(&cfg, &items, serialize == 1);
                prop_assert!(whole.0.is_ok(), "these plans partition nothing");
                prop_assert_eq!(whole, folded);
            }
        }
    }

    #[test]
    fn a_partition_mid_window_keeps_the_items_before_it() {
        // Node 0's only attachment is dead: the third item fails, the first
        // two stay charged — whichever way the window is issued.
        let mut cfg = MachineConfig::origin2000();
        cfg.cpus_per_node = 4;
        cfg.fault = FaultMode::parse("plan:down0:kill").unwrap();
        let [whole, folded] = window_and_fold(&cfg, &[(3, 512), (5, 64), (0, 64), (6, 64)], true);
        assert_eq!(whole.0.as_ref().unwrap_err().dst_node, 0);
        assert_eq!(whole, folded);
        let [idle, _] = window_and_fold(&cfg, &[], true);
        assert!(whole.1.transfers > idle.1.transfers);
    }

    // --- healthy and faulted paths ---

    #[test]
    fn healthy_paths_are_computed_correctly() {
        // The reference: the e-cube wire path built link by link, and the
        // fabric wrap spelled out here rather than through `wrap_fabric`,
        // so the routine the healthy and detoured paths share is checked
        // too. Every (src, dst) pair's computed path matches it, on queued
        // and fabric machines, padded and P = 256 alike.
        fn path(net: &NetSim, s: usize, d: usize) -> Vec<ResourceId> {
            let mut full = Vec::new();
            if net.fabric {
                full.push(net.bus_id(s));
            }
            if s != d {
                let n = net.nodes;
                let (rs, rd) = (net.topo.router_of(s), net.topo.router_of(d));
                if net.fabric {
                    full.push(net.hub_id(rs));
                }
                full.push(s);
                let mut r = rs;
                while r != rd {
                    let dim = (r ^ rd).trailing_zeros() as usize;
                    full.push(2 * n + r * net.dims + dim);
                    r ^= 1 << dim;
                }
                full.push(n + d);
                if net.fabric {
                    if rd != rs {
                        full.push(net.hub_id(rd));
                    }
                    full.push(net.bus_id(d));
                }
            }
            full
        }
        for net in [
            sim(16),
            sim(24),
            sim(256),
            sim_fabric(16, 4),
            sim_fabric(256, 2),
        ] {
            let mut buf = [0; MAX_HEALTHY];
            for s in 0..net.nodes {
                for d in 0..net.nodes {
                    let got = net.healthy_path(s, d, &mut buf);
                    assert_eq!(got, &path(&net, s, d)[..], "path for ({s},{d})");
                    assert!(got.len() <= net.dims + 6);
                }
            }
        }
    }

    #[test]
    fn a_fabric_detour_is_wrapped_like_a_healthy_path() {
        // The same dead edge on a fabric machine: the detour's wire links
        // are the queued machine's, inside bus → hub → … → hub → bus.
        let spec = "plan:r0d0:kill";
        let queued = sim_fault(16, spec);
        let mut cfg = MachineConfig::origin2000();
        cfg.fault = FaultMode::parse(spec).expect("valid fault spec");
        cfg.contention = ContentionMode::Fabric;
        let fabric = NetSim::new(&Topology::new(16, 2), &cfg);
        let (mut buf, mut detour) = ([0; MAX_HEALTHY], Detour::default());
        let (wire, detoured) = queued
            .path(0, 2, 0, &mut buf, &mut detour)
            .expect("reachable");
        assert!(detoured);
        let (r0, r2) = (fabric.topo.router_of(0), fabric.topo.router_of(2));
        let mut want = vec![fabric.bus_id(0), fabric.hub_id(r0)];
        want.extend_from_slice(wire);
        want.extend([fabric.hub_id(r2), fabric.bus_id(2)]);
        let (full, detoured) = fabric
            .path(0, 2, 0, &mut buf, &mut detour)
            .expect("reachable");
        assert!(detoured);
        assert_eq!(full, want);
    }

    mod faulted_paths {
        use super::*;
        use proptest::prelude::*;

        /// Router-edge distance from `rs` to `rd` over the edges alive at
        /// `t`, by a plain BFS of the test's own; `None` if severed.
        fn live_distance(net: &NetSim, rs: usize, rd: usize, t: SimTime) -> Option<usize> {
            let rpad = 1usize << net.dims;
            let mut dist = vec![usize::MAX; rpad];
            dist[rs] = 0;
            let mut frontier = vec![rs];
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for r in frontier {
                    for d in 0..net.dims {
                        let nr = r ^ (1 << d);
                        let edge = 2 * net.nodes + r * net.dims + d;
                        if dist[nr] == usize::MAX && !net.is_dead(edge, t) {
                            dist[nr] = dist[r] + 1;
                            next.push(nr);
                        }
                    }
                }
                frontier = next;
            }
            (dist[rd] != usize::MAX).then_some(dist[rd])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Against random kill / degrade / heal schedules, every
            /// routed path is alive at its departure, is the e-cube path
            /// whenever that path is alive, and is otherwise a shortest
            /// live router path; `Unreachable` comes back exactly when a
            /// bristle port of the pair is dead or no live router path
            /// joins them.
            #[test]
            fn a_path_is_live_and_shortest_and_unreachable_only_when_severed(
                log_pes in 3u32..7,
                fabric in 0usize..2,
                events in proptest::collection::vec(
                    (0usize..6, 0usize..64, 0usize..6, 0u64..3, 0u64..3),
                    1..5,
                ),
                probes in proptest::collection::vec((0usize..64, 0usize..64, 0u64..5), 1..65),
            ) {
                let pes = 1usize << log_pes;
                let topo = Topology::new(pes, 2);
                let nodes = topo.nodes();
                let dims = NetSim::new(&topo, &MachineConfig::origin2000()).dims;
                // Fault events at t ∈ {0, 1000, 2000}, two in three on a
                // router edge; probes depart on, between and after them.
                let plan: Vec<String> = events
                    .iter()
                    .map(|&(which, a, b, kind, at)| {
                        let link = match which {
                            0 => format!("up{}", a % nodes),
                            1 => format!("down{}", a % nodes),
                            _ => format!("r{}d{}", a % (1 << dims), b % dims.max(1)),
                        };
                        let kind = ["kill", "deg4", "heal"][kind as usize];
                        format!("{link}:{kind}@{}", at * 1000)
                    })
                    .collect();
                let mut cfg = MachineConfig::origin2000();
                cfg.fault = FaultMode::parse(&format!("plan:{}", plan.join(";"))).unwrap();
                if fabric == 1 {
                    cfg.contention = ContentionMode::Fabric;
                }
                let net = NetSim::new(&topo, &cfg);
                // One set of detour buffers for every probe, as a batch
                // reuses them: a search must leave nothing behind.
                let mut detour = Detour::default();
                for &(s, d, t) in &probes {
                    let (s, d, t) = (s % nodes, d % nodes, t * 500);
                    let mut buf = [0; MAX_HEALTHY];
                    let ecube = net.healthy_path(s, d, &mut buf).to_vec();
                    let ecube_alive = !ecube.iter().any(|&l| net.is_dead(l, t));
                    let (rs, rd) = (topo.router_of(s), topo.router_of(d));
                    let severed = s != d
                        && (net.is_dead(s, t)
                            || net.is_dead(nodes + d, t)
                            || live_distance(&net, rs, rd, t).is_none());
                    match net.path(s, d, t, &mut buf, &mut detour) {
                        Err(u) => {
                            prop_assert!(severed, "({s},{d})@{t}: unreachable but connected");
                            prop_assert_eq!((u.src_node, u.dst_node, u.at), (s, d, t));
                        }
                        Ok((path, detoured)) => {
                            let path = path.to_vec();
                            prop_assert!(!severed, "({s},{d})@{t}: routed but severed");
                            prop_assert!(path.iter().all(|&l| !net.is_dead(l, t)));
                            prop_assert_eq!(detoured, !ecube_alive);
                            if ecube_alive {
                                prop_assert_eq!(path, ecube);
                            } else {
                                let edges = path
                                    .iter()
                                    .filter(|&&l| l >= 2 * nodes && l < net.nlinks)
                                    .count();
                                prop_assert_eq!(Some(edges), live_distance(&net, rs, rd, t));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn state_export_import_restores_busy_queues_and_stats() {
        let a = sim_fabric(8, 2);
        a.begin_phase("build");
        for pe in 0..8u32 {
            a.route(pe, pe as usize % 4, (pe as usize + 1) % 4, 4096, 10);
        }
        a.begin_phase("solve");
        a.route(0, 0, 3, 1 << 16, 50);
        let bytes = a.export_state_bytes();

        // A fresh fabric on the same machine continues identically after
        // import: same stats, same phase tables, same queueing for the
        // next transfer.
        let b = sim_fabric(8, 2);
        b.import_state_bytes(&bytes).unwrap();
        assert_eq!(format!("{:?}", b.stats()), format!("{:?}", a.stats()));
        assert_eq!(
            format!("{:?}", b.phase_hotspots(3)),
            format!("{:?}", a.phase_hotspots(3))
        );
        let ra = a.route(1, 0, 3, 512, 55);
        let rb = b.route(1, 0, 3, 512, 55);
        assert_eq!(ra, rb, "post-import routing must match the original");

        // A different topology or contention mode must refuse the bytes.
        assert!(sim_fabric(16, 2).import_state_bytes(&bytes).is_err());
        assert!(sim(8).import_state_bytes(&bytes).is_err());
        assert!(b.import_state_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn state_import_refuses_a_trailing_word() {
        let a = sim_fabric(8, 2);
        a.route(0, 0, 3, 4096, 10);
        let mut w = WireWriter::new();
        w.raw(&a.export_state_bytes());
        w.u64(0);
        let err = sim_fabric(8, 2).import_state_bytes(&w.into_bytes());
        assert_eq!(err, Err("8 trailing bytes after snapshot section".into()));
    }

    #[test]
    fn spans_keep_push_order_as_the_store_grows() {
        let net = sim(8);
        net.set_record_spans(true);
        // Enough routed spans (each route crosses several links) that the
        // store reallocates many times while filling.
        let per_route = net.route(0, 0, 3, 64, 0).links as usize;
        let routes = (1 << 14) / per_route + 10;
        for i in 1..routes {
            net.route(0, 0, 3, 64, i as SimTime * 1000);
        }
        let (_, spans) = net.spans();
        assert_eq!(spans.len(), routes * per_route);
        assert_eq!(net.spans_dropped(), 0);
        assert!(spans.windows(2).all(|w| w[0].t0 <= w[1].t0));
    }

    #[test]
    fn spans_past_the_cap_are_dropped_and_counted_but_counters_stay_exact() {
        let net = sim(8);
        net.set_record_spans(true);
        let per_route = net.route(0, 0, 3, 64, 0).links as usize;
        let routes = MAX_SPANS / per_route + 10;
        for i in 1..routes {
            net.route(0, 0, 3, 64, i as SimTime * 1000);
        }
        let total = (routes * per_route) as u64;
        assert_eq!(net.spans().1.len(), MAX_SPANS);
        assert_eq!(net.spans_dropped(), total - MAX_SPANS as u64);
        // The resource tables charge every hop, recorded or not.
        let stats = net.stats();
        assert_eq!(stats.transfers, total);
        assert_eq!(stats.link_bytes, total * 64);
    }

    /// The fabric section's layout is fixed: these bytes were produced by
    /// the hand-rolled codec `o2k_snap::wire` replaced, less the version
    /// word `o2k_snap::FORMAT_VERSION` took over (v5). A layout change
    /// bumps that version and re-pins.
    #[test]
    fn the_fabric_section_bytes_are_pinned() {
        let net = sim_fabric(16, 2);
        let mut t = 0;
        for i in 0..12usize {
            t += 25;
            net.route((i % 16) as u32, i % 8, (i * 3 + 1) % 8, 64 << (i % 4), t);
        }
        net.begin_phase("pinned");
        for i in 0..6usize {
            t += 40;
            let items = [((i + 2) % 8, 128usize), ((i + 5) % 8, 256)];
            net.try_route_many(i as u32, i % 8, &items, t, true, 0)
                .unwrap();
        }
        let bytes = net.export_state_bytes();
        assert_eq!(bytes.len(), 2646);
        assert_eq!(o2k_snap::fnv1a(&bytes), 0x47cc_f87e_63b6_5562);
    }
}
