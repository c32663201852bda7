//! Per-PE execution context.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use machine::{cost, Clock, Counters, Machine, SimTime, TimeCat};
use o2k_sched::CoopSched;
use o2k_trace::{Dep, Event, EventKind, Recorder};

use crate::team::{PeReport, TeamShared};

/// Everything one simulated PE needs during a team run: identity, virtual
/// clock, counters, event recorder, and team synchronisation plumbing.
pub struct Ctx {
    pe: usize,
    machine: Arc<Machine>,
    shared: Arc<TeamShared>,
    clock: Clock,
    counters: Counters,
    recorder: Recorder,
    /// Count of team-wide barriers this PE has passed; two accesses with
    /// different global epochs are separated by a barrier (used by the
    /// race detector's happens-before approximation).
    global_epoch: u64,
    /// Queueing delay already returned by routes whose charge the runtime
    /// has not yet applied to the clock. A runtime that issues several
    /// transfers before advancing (e.g. the CC-SAS invalidation sweep)
    /// must depart each one *after* the previous ones complete, or the
    /// same backlog is charged once per transfer. Applied under `fabric`;
    /// `queued` runs keep the original same-departure semantics so
    /// pre-fabric archives stay bitwise-identical. Reset whenever the
    /// clock is advanced.
    net_pending: SimTime,
}

impl Ctx {
    pub(crate) fn new(
        pe: usize,
        machine: Arc<Machine>,
        shared: Arc<TeamShared>,
        trace: bool,
    ) -> Self {
        Ctx {
            pe,
            machine,
            shared,
            clock: Clock::new(),
            counters: Counters::new(),
            recorder: Recorder::new(trace),
            global_epoch: 0,
            net_pending: 0,
        }
    }

    /// Capture this PE's substrate state for a checkpoint: clock,
    /// counters, barrier epochs and pending network backlog. Only valid at
    /// a quiescence point.
    pub fn export_core(&self) -> o2k_snap::PeCore {
        o2k_snap::PeCore {
            now: self.clock.now(),
            breakdown: self.clock.breakdown(),
            counters: self.counters.clone(),
            global_epoch: self.global_epoch,
            net_pending: self.net_pending,
        }
    }

    /// Restore state captured by [`Ctx::export_core`], applied right
    /// after construction when a team resumes from a snapshot.
    pub(crate) fn apply_core(&mut self, core: &o2k_snap::PeCore) {
        self.clock = Clock::restore(core.now, core.breakdown);
        self.counters = core.counters.clone();
        self.global_epoch = core.global_epoch;
        self.net_pending = core.net_pending;
    }

    /// The cooperative scheduler for this run. Model runtimes use it to
    /// block/unblock around waits; plain application code never needs it.
    #[inline]
    pub fn coop(&self) -> &Arc<CoopSched> {
        &self.shared.coop
    }

    /// The interconnect contention model, present iff the machine runs
    /// with [`machine::ContentionMode::Queued`] or
    /// [`machine::ContentionMode::Fabric`].
    #[inline]
    pub fn net(&self) -> Option<&Arc<o2k_net::NetSim>> {
        self.shared.net.as_ref()
    }

    /// Queueing delay for moving `bytes` from this PE's node to the node
    /// hosting `dst_pe`, departing now. Returns 0 (and routes nothing)
    /// under [`machine::ContentionMode::Off`]; otherwise occupies every
    /// link on the path and accounts the transfer in this PE's counters.
    /// Model runtimes add the returned delay on top of the analytic cost,
    /// so off-mode arithmetic is bitwise unchanged.
    #[inline]
    pub fn net_delay_to_pe(&mut self, dst_pe: usize, bytes: usize) -> SimTime {
        self.net_delay_to_node(self.machine.topology.node_of(dst_pe), bytes)
    }

    /// As [`Ctx::net_delay_to_pe`], but to an explicit node (cache-line
    /// homes, tree roots): the one-item spelling of
    /// [`Ctx::net_delay_many`].
    #[inline]
    pub fn net_delay_to_node(&mut self, dst_node: usize, bytes: usize) -> SimTime {
        self.net_delay_many(&[(dst_node, bytes)])
    }

    /// Queueing delay for a transfer that stays on this PE's node — a
    /// cache-line fill from local memory, an intra-node copy. Under
    /// [`machine::ContentionMode::Fabric`] it crosses the node's shared
    /// bus once and waits out any other occupant (fat nodes saturate);
    /// under `off`/`queued` local traffic is uncontended and this returns
    /// 0 without touching any counter, keeping those modes bitwise
    /// unchanged.
    #[inline]
    pub fn net_delay_local(&mut self, bytes: usize) -> SimTime {
        self.net_delay_to_node(self.node(), bytes)
    }

    /// Price the `(dst_node, bytes)` transfers this PE issues inside one
    /// scheduling window and return their summed queueing delay — the only
    /// place the runtimes talk to [`o2k_net::NetSim`]. Returns 0 (routing
    /// nothing) under [`machine::ContentionMode::Off`].
    ///
    /// Rules (what keeps `det` fingerprints and pinned archives bitwise
    /// identical):
    ///
    /// * one call covers one scheduling window — pass nothing that spans a
    ///   [`Ctx::sched_point`], a clock advance, a block point, a phase
    ///   marker or a snap gate, and charge the returned delay before the
    ///   next such point;
    /// * items are walked in order under one fabric-lock acquisition, each
    ///   departing after the backlog the earlier ones accrued wherever the
    ///   `net_pending` rule serializes;
    /// * if a fault plan has partitioned the machine (an item's every
    ///   route crosses a dead link), the items before it stay committed
    ///   and the PE cannot make progress: it parks as
    ///   [`BlockReason::DeadLink`] so the scheduler's deadlock detector
    ///   reports a *network partition*.
    ///
    /// [`BlockReason::DeadLink`]: o2k_sched::BlockReason::DeadLink
    pub fn net_delay_many(&mut self, items: &[(usize, usize)]) -> SimTime {
        let Some(net) = self.shared.net.as_ref() else {
            return 0;
        };
        if items.is_empty() {
            return 0;
        }
        let serialize = self.machine.config.contention == machine::ContentionMode::Fabric;
        let b = match net.try_route_many(
            self.pe as u32,
            self.node(),
            items,
            self.clock.now(),
            serialize,
            self.net_pending,
        ) {
            Ok(b) => b,
            Err(u) => {
                // Nothing will ever unblock a partitioned PE; the
                // scheduler classifies the resulting global stall.
                let dead = o2k_sched::BlockReason::DeadLink;
                self.shared.coop.block(self.pe, self.clock.now(), dead);
                unreachable!("woken while parked on a dead link: {u}");
            }
        };
        if b.transfers > 0 {
            self.counters.net_transfers += b.transfers;
            self.counters.net_links += b.links;
            self.counters.net_queued_ns += b.delay;
            self.counters.net_bus_queued_ns += b.bus_delay;
            self.counters.net_hub_queued_ns += b.hub_delay;
        }
        if serialize {
            self.net_pending = b.pending;
        }
        b.delay
    }

    /// Mark the start of a named network phase for per-phase hotspot
    /// attribution (see `NetSim::begin_phase`). Only PE 0's marker counts
    /// so a team-wide call sites the boundary exactly once; a no-op under
    /// [`machine::ContentionMode::Off`]. Applications call this at their
    /// algorithmic phase boundaries (adapt / remap / solve).
    pub fn net_phase(&self, name: &str) {
        if self.pe == 0 {
            if let Some(net) = self.shared.net.as_ref() {
                net.begin_phase(name);
            }
        }
    }

    /// Cooperative yield point: offer the floor at this PE's virtual
    /// clock. One compare against the scheduler's published horizon
    /// whenever this PE would be picked again (see
    /// [`CoopSched::yield_now`]) — the case for nearly every CC-SAS line
    /// access. Model runtimes call this at every shared-state access so
    /// the interleaving follows virtual time, not the host.
    #[inline]
    pub fn sched_point(&mut self) {
        if self.shared.coop.yield_now(self.pe, self.clock.now()) {
            self.counters.sched_handoffs += 1;
        }
    }

    /// Count of team-wide barriers passed — the race detector's ordering
    /// clock.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.global_epoch
    }

    /// This PE's index in `0..npes`.
    #[inline]
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// Team size.
    #[inline]
    pub fn npes(&self) -> usize {
        self.machine.pes()
    }

    /// The machine model.
    #[inline]
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Node hosting this PE.
    #[inline]
    fn node(&self) -> usize {
        self.machine.topology.node_of(self.pe)
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Mutable access to the event counters.
    #[inline]
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Read-only counters.
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Record the span from `t0` to the current clock as an event.
    /// The recorder never touches the clock, so tracing cannot perturb
    /// simulated time.
    #[inline]
    fn record_span(
        &mut self,
        t0: SimTime,
        kind: EventKind,
        cat: TimeCat,
        bytes: u32,
        peer: Option<u32>,
        dep: Option<Dep>,
    ) {
        self.recorder.record(Event {
            pe: self.pe as u32,
            t0,
            t1: self.clock.now(),
            kind,
            cat,
            bytes,
            peer,
            dep,
        });
    }

    /// Charge `ns` of CPU computation.
    #[inline]
    pub fn compute(&mut self, ns: SimTime) {
        self.advance_traced(ns, TimeCat::Busy, EventKind::Compute, 0, None);
    }

    /// Charge `units` work items at `ns_per_unit` each (rounded).
    #[inline]
    pub fn compute_units(&mut self, units: u64, ns_per_unit: f64) {
        let ns = (units as f64 * ns_per_unit).round() as u64;
        self.compute(ns);
    }

    /// Charge `ns` attributed to `cat`.
    #[inline]
    pub fn advance(&mut self, ns: SimTime, cat: TimeCat) {
        self.advance_traced(ns, cat, EventKind::Other, 0, None);
    }

    /// Charge `ns` to `cat` and record it as a `kind` trace event carrying
    /// `bytes` / `peer` — the one clock-advance rule: drop the pending
    /// network backlog, advance, record, offer the floor. Model runtimes use
    /// this instead of [`Ctx::advance`] wherever the operation has a
    /// meaningful identity in a trace.
    #[inline]
    pub fn advance_traced(
        &mut self,
        ns: SimTime,
        cat: TimeCat,
        kind: EventKind,
        bytes: u32,
        peer: Option<u32>,
    ) {
        let t0 = self.clock.now();
        self.net_pending = 0;
        self.clock.advance(ns, cat);
        if self.recorder.is_on() {
            self.record_span(t0, kind, cat, bytes, peer, None);
        }
        self.sched_point();
    }

    /// Advance the clock to absolute virtual time `t` (a synchronisation
    /// wait), recording the jump — if the clock actually moves — as a
    /// `kind` event carrying the wait edge `dep` for critical-path analysis.
    pub fn wait_until_traced(
        &mut self,
        t: SimTime,
        kind: EventKind,
        peer: Option<u32>,
        dep: Option<Dep>,
    ) {
        let t0 = self.clock.now();
        self.net_pending = 0;
        self.clock.advance_to(t, TimeCat::Sync);
        if self.recorder.is_on() && self.clock.now() > t0 {
            self.record_span(t0, kind, TimeCat::Sync, 0, peer, dep);
        }
        self.sched_point();
    }

    /// Clock-synchronising barrier: all PEs' clocks advance to the team
    /// maximum (waiting is charged as [`TimeCat::Sync`]) plus the machine
    /// barrier cost.
    pub fn barrier(&mut self) {
        self.global_epoch += 1;
        let shared = Arc::clone(&self.shared);
        shared.clock_slots[self.pe].store(self.clock.now(), Ordering::SeqCst);
        self.gate();
        // Last arriver (lowest PE on ties): the wait edge for the critical
        // path — everyone else's barrier wait ends when this PE shows up.
        let (max_pe, max) = shared
            .clock_slots
            .iter()
            .enumerate()
            .map(|(p, s)| (p, s.load(Ordering::SeqCst)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .unwrap_or((0, 0));
        self.wait_until_traced(
            max,
            EventKind::BarrierWait,
            Some(max_pe as u32),
            Some(Dep {
                pe: max_pe as u32,
                t: max,
            }),
        );
        let cost = cost::barrier(
            &self.machine.config,
            self.npes(),
            self.machine.topology.max_hops(),
        );
        self.advance_traced(cost, TimeCat::Sync, EventKind::Barrier, 0, None);
        self.counters.barriers += 1;
        self.gate();
    }

    /// A rendezvous with *no* clock synchronisation or cost: the
    /// scheduler's gate. Used by runtimes that model synchronisation costs
    /// themselves but still need a real rendezvous (e.g. to publish shared
    /// structures safely), and by [`Ctx::barrier`] itself.
    pub fn gate(&self) {
        self.shared.coop.gate_wait(self.pe, self.clock.now());
    }

    /// Blackboard broadcast of `val` from `root` to every PE.
    ///
    /// Non-root PEs pass `None`. Charges a clock-sync barrier plus a
    /// log-depth transfer of `size_of::<T>()` bytes per level.
    ///
    /// # Panics
    /// Panics if the root posted no value or types mismatch.
    pub fn broadcast<T: Clone + Send + 'static>(&mut self, root: usize, val: Option<T>) -> T {
        let shared = Arc::clone(&self.shared);
        if self.pe == root {
            *shared.slot(root) = Some(Box::new(val.expect("root must supply a broadcast value")));
        }
        self.barrier();
        let out = {
            let guard = shared.slot(root);
            guard
                .as_ref()
                .expect("broadcast slot empty")
                .downcast_ref::<T>()
                .expect("broadcast type mismatch")
                .clone()
        };
        self.charge_tree_transfer(std::mem::size_of::<T>());
        self.barrier();
        if self.pe == root {
            *shared.slot(root) = None;
        }
        out
    }

    fn charge_tree_transfer(&mut self, bytes: usize) {
        let (cfg, topo) = (&self.machine.config, &self.machine.topology);
        let price = cost::tree_step(cfg, topo.tree_depth(), bytes, topo.max_hops());
        // Under contention the blackboard tree's root (node 0) is where
        // every PE's contribution funnels; model that fan-in hotspot.
        let delay = self.net_delay_to_node(0, bytes);
        self.advance_traced(
            price + delay,
            TimeCat::Remote,
            EventKind::CollStep,
            bytes.min(u32::MAX as usize) as u32,
            None,
        );
    }

    pub(crate) fn into_report(mut self) -> PeReport {
        PeReport {
            pe: self.pe,
            finish: self.clock.now(),
            breakdown: self.clock.breakdown(),
            counters: self.counters,
            events: self.recorder.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::Team;
    use machine::MachineConfig;

    fn team(pes: usize) -> Team {
        Team::new(Arc::new(Machine::new(pes, MachineConfig::test_tiny())))
    }

    #[test]
    fn broadcast_delivers_root_value() {
        let run = team(4).run(|ctx| {
            let v = if ctx.pe() == 2 { Some(99u32) } else { None };
            ctx.broadcast(2, v)
        });
        assert_eq!(run.results, vec![99; 4]);
        // Four PEs on two nodes of one router: two barriers around one
        // step of a two-level tree whose widest distance is one hop,
        // carrying the value's 4 bytes.
        let c = MachineConfig::test_tiny();
        let (depth, hops) = (2, 1);
        let barrier = depth * (c.sync_hop + hops * c.lat_hop);
        let step = depth * ((4.0 / c.bw_bytes_per_ns).ceil() as u64 + hops * c.lat_hop);
        for rep in &run.reports {
            assert_eq!(rep.finish, 2 * barrier + step);
        }
    }

    #[test]
    fn repeated_collectives_do_not_deadlock_or_cross() {
        let run = team(3).run(|ctx| {
            (0..10u64)
                .map(|round| {
                    let root = round as usize % 3;
                    let v = (ctx.pe() == root).then_some(round * 10 + root as u64);
                    ctx.broadcast(root, v)
                })
                .collect::<Vec<_>>()
        });
        let expected: Vec<u64> = (0..10u64).map(|r| r * 10 + r % 3).collect();
        assert_eq!(run.results, vec![expected; 3]);
    }

    #[test]
    fn barrier_charges_cost_and_counts() {
        let run = team(2).run(|ctx| {
            ctx.barrier();
            ctx.barrier();
        });
        for rep in &run.reports {
            assert_eq!(rep.counters.barriers, 2);
            assert!(rep.breakdown.sync > 0);
        }
    }

    #[test]
    fn broadcast_of_heap_value() {
        let run = team(3).run(|ctx| {
            let v = if ctx.pe() == 0 {
                Some(vec![1u8, 2, 3])
            } else {
                None
            };
            ctx.broadcast(0, v)
        });
        for r in run.results {
            assert_eq!(r, vec![1, 2, 3]);
        }
    }

    #[test]
    fn compute_units_rounds() {
        let run = team(1).run(|ctx| {
            ctx.compute_units(10, 2.5);
            ctx.now()
        });
        assert_eq!(run.results[0], 25);
    }
}
