//! Mailboxes, envelopes, and point-to-point send/receive.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use machine::{cost, Machine, SimTime, TimeCat};
use parallel::{Ctx, Dep, EventKind};
use parking_lot::Mutex;

/// Message tag. User tags must stay below [`Tag::COLLECTIVE_BASE`]; the
/// collective algorithms reserve the space above it.
pub type Tag = u32;

/// Matching specification for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvSpec {
    /// Match only this source, or any source if `None`.
    pub src: Option<usize>,
    /// Match only this tag, or any tag if `None`.
    pub tag: Option<Tag>,
}

impl RecvSpec {
    /// Match a specific source and tag.
    pub fn from(src: usize, tag: Tag) -> Self {
        RecvSpec {
            src: Some(src),
            tag: Some(tag),
        }
    }

    fn matches(&self, src: usize, tag: Tag) -> bool {
        self.src.is_none_or(|s| s == src) && self.tag.is_none_or(|t| t == tag)
    }
}

/// A message in flight or queued at the receiver.
struct Envelope {
    src: usize,
    tag: Tag,
    payload: Box<dyn Any + Send>,
    bytes: usize,
    /// Virtual time at which the sender finished injecting the message —
    /// the wait edge a stalled receive points back to.
    sent_at: SimTime,
    /// Virtual time at which the message is available at the receiver.
    arrival: SimTime,
}

/// One rank's queue of unreceived envelopes. A receiver with no match
/// parks in the team's scheduler (`BlockReason::Mailbox`), never here.
type Mailbox = Mutex<VecDeque<Envelope>>;

/// The message-passing "world": one mailbox per rank, shared by reference
/// across the PE threads of a [`parallel::Team`].
pub struct MpWorld {
    machine: Arc<Machine>,
    mailboxes: Vec<Mailbox>,
    coll: crate::collectives::CollSeq,
}

impl MpWorld {
    /// Reserved tag space boundary: collectives use tags at or above this.
    pub const COLLECTIVE_BASE: Tag = 0xF000_0000;

    /// Create a world covering every PE of `machine`.
    pub fn new(machine: Arc<Machine>) -> Self {
        let pes = machine.pes();
        MpWorld {
            machine,
            mailboxes: (0..pes).map(|_| Mailbox::default()).collect(),
            coll: crate::collectives::CollSeq::new(pes),
        }
    }

    pub(crate) fn coll_seq(&self) -> &crate::collectives::CollSeq {
        &self.coll
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.mailboxes.len()
    }

    /// The machine this world charges costs against.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Blocking, eager, typed send of `data` to rank `dst` with `tag`.
    ///
    /// Charges sender overhead now; the message arrives at
    /// `now + network(bytes, hops)`. Eager protocol: the sender never waits
    /// for the receiver (send buffers are unbounded, as on the Origin2000
    /// for the message sizes these applications use).
    ///
    /// # Panics
    /// Panics if `dst` is out of range or `tag` is in the collective space.
    pub fn send<T: Clone + Send + 'static>(&self, ctx: &mut Ctx, dst: usize, tag: Tag, data: &[T]) {
        assert!(
            tag < Self::COLLECTIVE_BASE,
            "user tags must be < COLLECTIVE_BASE"
        );
        self.send_vec(ctx, dst, tag, data.to_vec());
    }

    /// As [`MpWorld::send`] but takes ownership, avoiding a copy.
    pub fn send_vec<T: Send + 'static>(&self, ctx: &mut Ctx, dst: usize, tag: Tag, data: Vec<T>) {
        self.send_impl(ctx, dst, tag, data);
    }

    pub(crate) fn send_impl<T: Send + 'static>(
        &self,
        ctx: &mut Ctx,
        dst: usize,
        tag: Tag,
        data: Vec<T>,
    ) {
        let bytes = std::mem::size_of::<T>() * data.len();
        let hops = self.machine.hops_between(ctx.pe(), dst);
        let c = cost::msg(&self.machine.config, bytes, hops);
        ctx.advance_traced(
            c.send_overhead,
            TimeCat::Remote,
            EventKind::Send,
            bytes.min(u32::MAX as usize) as u32,
            Some(dst as u32),
        );
        ctx.counters_mut().record_msg_sent(bytes);
        // Under ContentionMode::Queued the message additionally queues on
        // occupied fabric links, pushing its arrival out; under Fabric it
        // also arbitrates for the node buses and router hub ports (and a
        // node-local send still crosses the shared bus); 0 when off.
        let net_delay = ctx.net_delay_to_pe(dst, bytes);
        let env = Envelope {
            src: ctx.pe(),
            tag,
            payload: Box::new(data),
            bytes,
            sent_at: ctx.now(),
            arrival: ctx.now() + c.network + net_delay,
        };
        let arrival = env.arrival;
        self.mailboxes[dst].lock().push_back(env);
        // Wake the receiver where `wait_match` parks it, in the scheduler;
        // the arrival time is its clock hint.
        ctx.coop()
            .unblock(dst, arrival, parallel::sched::BlockReason::Mailbox);
    }

    /// Blocking typed receive matching `spec`. Returns `(src, tag, data)`.
    ///
    /// Virtual-time semantics: the receiver's clock advances to the
    /// message's arrival time if it got here early (charged as Sync), then
    /// pays receiver overhead (Remote).
    ///
    /// # Panics
    /// Panics if the matched message's payload is not a `Vec<T>`.
    pub fn recv<T: Send + 'static>(&self, ctx: &mut Ctx, spec: RecvSpec) -> (usize, Tag, Vec<T>) {
        let env = self.wait_match(ctx, spec);
        self.finish_recv(ctx, env)
    }

    /// Non-blocking receive: returns the message if one matching `spec` is
    /// already queued (regardless of virtual arrival time — probing models
    /// a queue check, and the clock still advances to the arrival).
    pub fn try_recv<T: Send + 'static>(
        &self,
        ctx: &mut Ctx,
        spec: RecvSpec,
    ) -> Option<(usize, Tag, Vec<T>)> {
        let env = {
            let mut q = self.mailboxes[ctx.pe()].lock();
            let idx = q.iter().position(|e| spec.matches(e.src, e.tag))?;
            q.remove(idx).expect("index valid under lock")
        };
        Some(self.finish_recv(ctx, env))
    }

    fn wait_match(&self, ctx: &mut Ctx, spec: RecvSpec) -> Envelope {
        let pe = ctx.pe();
        loop {
            {
                let mut q = self.mailboxes[pe].lock();
                if let Some(idx) = q.iter().position(|e| spec.matches(e.src, e.tag)) {
                    return q.remove(idx).expect("index valid under lock");
                }
            }
            // Park in the scheduler; the sender's unblock (after its push)
            // re-runs the match. The floor guarantees no send can slip in
            // between the check and the block.
            ctx.coop()
                .block(pe, ctx.now(), parallel::sched::BlockReason::Mailbox);
        }
    }

    fn finish_recv<T: Send + 'static>(&self, ctx: &mut Ctx, env: Envelope) -> (usize, Tag, Vec<T>) {
        ctx.wait_until_traced(
            env.arrival,
            EventKind::RecvWait,
            Some(env.src as u32),
            Some(Dep {
                pe: env.src as u32,
                t: env.sent_at,
            }),
        );
        ctx.advance_traced(
            self.machine.config.mp_recv_overhead,
            TimeCat::Remote,
            EventKind::Recv,
            env.bytes.min(u32::MAX as usize) as u32,
            Some(env.src as u32),
        );
        ctx.counters_mut().msgs_recvd += 1;
        let data = env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
            panic!(
                "recv type mismatch from rank {} tag {} ({} bytes)",
                env.src, env.tag, env.bytes
            )
        });
        (env.src, env.tag, *data)
    }

    /// Work-stealing claim: remove up to `max` queued envelopes carrying
    /// `tag` that have already arrived in virtual time (`arrival <= now`)
    /// from `victim`'s mailbox and deliver them to the calling PE.
    /// Returns the stolen `(src, payload)` pairs, oldest first; empty when
    /// nothing is eligible.
    ///
    /// This is the MP analogue of the `fetch_add` self-scheduling claim
    /// the CC-SAS AMR repartitioner uses (`amr_sas`): the claim is a
    /// deterministic virtual-time race — a scheduler yield point orders
    /// the stealer against the victim's own receives, then the batch is
    /// removed atomically under the mailbox lock, so under the
    /// deterministic policy the same PE always wins the same envelopes.
    /// The stealer pays a small claim round trip to the victim whether or
    /// not anything is eligible, plus the batch's payload transfer delay;
    /// per-message receive overhead and the `msgs_recvd` count land on the
    /// stealer, preserving the global send/recv balance. Never steals with
    /// a wildcard: termination tokens and replies must stay matchable at
    /// the victim, so callers name exactly the request tag.
    ///
    /// # Panics
    /// Panics if `victim` is the calling PE, the tag is in the collective
    /// space, or a matched payload is not a `Vec<T>`.
    pub fn steal_batch<T: Send + 'static>(
        &self,
        ctx: &mut Ctx,
        victim: usize,
        tag: Tag,
        max: usize,
    ) -> Vec<(usize, Vec<T>)> {
        assert_ne!(victim, ctx.pe(), "a PE cannot steal from itself");
        assert!(
            tag < Self::COLLECTIVE_BASE,
            "user tags must be < COLLECTIVE_BASE"
        );
        // The claim point: the virtual-time floor (not the host scheduler)
        // decides whether the victim's own drain or this steal sees the
        // backlog first.
        ctx.sched_point();
        let now = ctx.now();
        let stolen: Vec<Envelope> = {
            let mut q = self.mailboxes[victim].lock();
            let mut out = Vec::new();
            let mut i = 0;
            while i < q.len() && out.len() < max {
                if q[i].tag == tag && q[i].arrival <= now {
                    out.push(q.remove(i).expect("index valid under lock"));
                } else {
                    i += 1;
                }
            }
            out
        };
        // One claim round trip (8-byte CAS-sized packet) regardless of
        // yield, plus the stolen payload crossing victim -> stealer.
        let hops = self.machine.hops_between(ctx.pe(), victim);
        let claim = cost::msg(&self.machine.config, 8, hops);
        let batch_bytes: usize = stolen.iter().map(|e| e.bytes).sum();
        let transfer = if batch_bytes > 0 {
            cost::msg(&self.machine.config, batch_bytes, hops).network
                + ctx.net_delay_to_pe(victim, batch_bytes)
        } else {
            0
        };
        ctx.advance_traced(
            claim.send_overhead + claim.network + transfer,
            TimeCat::Remote,
            EventKind::Steal,
            batch_bytes.min(u32::MAX as usize) as u32,
            Some(victim as u32),
        );
        stolen
            .into_iter()
            .map(|env| {
                ctx.advance_traced(
                    self.machine.config.mp_recv_overhead,
                    TimeCat::Remote,
                    EventKind::Recv,
                    env.bytes.min(u32::MAX as usize) as u32,
                    Some(env.src as u32),
                );
                let c = ctx.counters_mut();
                c.msgs_recvd += 1;
                c.requests_stolen += 1;
                let data = env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
                    panic!(
                        "steal type mismatch from rank {} tag {} ({} bytes)",
                        env.src, env.tag, env.bytes
                    )
                });
                (env.src, *data)
            })
            .collect()
    }

    /// Messages queued across all mailboxes (sent but not yet received).
    pub fn pending_messages(&self) -> usize {
        self.mailboxes.iter().map(|mb| mb.lock().len()).sum()
    }

    /// Snapshot quiescence check: envelopes carry `Box<dyn Any>` payloads
    /// and cannot be serialised, so a checkpoint is only legal when every
    /// mailbox is empty — which the apps guarantee by matching all sends
    /// within the step that precedes a snap gate. (Collective sequence
    /// numbers are deliberately not captured: a restored world restarts
    /// them at zero on every rank consistently, and tags never affect
    /// cost.)
    ///
    /// # Panics
    /// Panics, naming the offending ranks, if any message is in flight.
    pub fn assert_quiescent(&self) {
        let stuck: Vec<String> = self
            .mailboxes
            .iter()
            .enumerate()
            .filter_map(|(rank, mb)| {
                let n = mb.lock().len();
                (n > 0).then(|| format!("rank {rank}: {n} queued"))
            })
            .collect();
        assert!(
            stuck.is_empty(),
            "MP world not quiescent at snapshot point — unreceived messages ({})",
            stuck.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::MachineConfig;
    use parallel::Team;

    fn world_and_team(pes: usize) -> (Arc<MpWorld>, Team) {
        let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
        (
            Arc::new(MpWorld::new(Arc::clone(&machine))),
            Team::new(machine),
        )
    }

    #[test]
    fn ping_pong_roundtrip() {
        let (w, t) = world_and_team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                w.send(ctx, 1, 7, &[1.5f64, 2.5]);
                let (_, _, back) = w.recv::<f64>(ctx, RecvSpec::from(1, 8));
                back
            } else {
                let (src, tag, data) = w.recv::<f64>(ctx, RecvSpec::from(0, 7));
                assert_eq!((src, tag), (0, 7));
                let doubled: Vec<f64> = data.iter().map(|x| x * 2.0).collect();
                w.send(ctx, 0, 8, &doubled);
                doubled
            }
        });
        assert_eq!(run.results[0], vec![3.0, 5.0]);
    }

    #[test]
    fn receiver_waits_for_virtual_arrival() {
        let (w, t) = world_and_team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                ctx.compute(10_000); // sender is late
                w.send(ctx, 1, 0, &[0u8; 100]);
            } else {
                let _ = w.recv::<u8>(ctx, RecvSpec::from(0, 0));
            }
            ctx.now()
        });
        // Receiver's clock must be past the sender's send time + wire time.
        assert!(run.results[1] > 10_000);
        assert!(run.reports[1].breakdown.sync >= 10_000);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let (w, t) = world_and_team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                w.send(ctx, 1, 5, &[5u32]);
                w.send(ctx, 1, 6, &[6u32]);
                0
            } else {
                // Receive tag 6 first even though tag 5 arrived first.
                let (_, _, six) = w.recv::<u32>(ctx, RecvSpec::from(0, 6));
                let (_, _, five) = w.recv::<u32>(ctx, RecvSpec::from(0, 5));
                assert_eq!(six, vec![6]);
                assert_eq!(five, vec![5]);
                1
            }
        });
        assert_eq!(run.results, vec![0, 1]);
    }

    #[test]
    fn any_source_wildcard() {
        let (w, t) = world_and_team(3);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                let mut sum = 0u64;
                for _ in 0..2 {
                    let (_, _, d) = w.recv::<u64>(
                        ctx,
                        RecvSpec {
                            src: None,
                            tag: Some(1),
                        },
                    );
                    sum += d[0];
                }
                sum
            } else {
                w.send(ctx, 0, 1, &[ctx.pe() as u64]);
                0
            }
        });
        assert_eq!(run.results[0], 3);
    }

    #[test]
    fn non_overtaking_same_src_same_tag() {
        let (w, t) = world_and_team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                for i in 0..10u32 {
                    w.send(ctx, 1, 0, &[i]);
                }
                vec![]
            } else {
                (0..10)
                    .map(|_| w.recv::<u32>(ctx, RecvSpec::from(0, 0)).2[0])
                    .collect()
            }
        });
        assert_eq!(run.results[1], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let (w, t) = world_and_team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 1 {
                let r = w.try_recv::<u8>(
                    ctx,
                    RecvSpec {
                        src: None,
                        tag: Some(0),
                    },
                );
                ctx.gate();
                r.is_none()
            } else {
                ctx.gate(); // send only after PE 1 probed
                w.send(ctx, 1, 0, &[1u8]);
                true
            }
        });
        assert!(run.results[1]);
    }

    /// A stealer claims only *arrived* envelopes bearing the requested
    /// tag, oldest first, and the victim keeps everything else.
    #[test]
    fn steal_batch_claims_arrived_matching_tags_only() {
        let (w, t) = world_and_team(3);
        let run = t.run(|ctx| match ctx.pe() {
            0 => {
                for i in 0..3u64 {
                    w.send(ctx, 1, 7, &[i]);
                }
                w.send(ctx, 1, 8, &[99u64]);
                ctx.gate(); // all four queued at PE 1
                ctx.gate(); // stealer done
                vec![]
            }
            1 => {
                ctx.gate();
                ctx.gate();
                let mut kept = vec![];
                while let Some((_, _, d)) = w.try_recv::<u64>(
                    ctx,
                    RecvSpec {
                        src: None,
                        tag: None,
                    },
                ) {
                    kept.push(d[0]);
                }
                kept
            }
            _ => {
                ctx.gate();
                ctx.compute(10_000_000); // far past every arrival time
                let stolen = w.steal_batch::<u64>(ctx, 1, 7, 2);
                ctx.gate();
                stolen
                    .into_iter()
                    .map(|(src, d)| {
                        assert_eq!(src, 0, "stolen envelopes keep their sender");
                        d[0]
                    })
                    .collect()
            }
        });
        assert_eq!(
            run.results[2],
            vec![0, 1],
            "oldest two tag-7 messages stolen"
        );
        assert_eq!(
            run.results[1],
            vec![2, 99],
            "victim keeps the rest, in order"
        );
        assert_eq!(run.reports[2].counters.requests_stolen, 2);
        assert_eq!(run.reports[2].counters.msgs_recvd, 2);
    }

    #[test]
    fn counters_track_messages() {
        let (w, t) = world_and_team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                w.send(ctx, 1, 0, &[0u64; 16]); // 128 bytes
            } else {
                let _ = w.recv::<u64>(ctx, RecvSpec::from(0, 0));
            }
        });
        assert_eq!(run.reports[0].counters.msgs_sent, 1);
        assert_eq!(run.reports[0].counters.msg_bytes, 128);
        assert_eq!(run.reports[1].counters.msgs_recvd, 1);
    }

    #[test]
    #[should_panic(expected = "COLLECTIVE_BASE")]
    fn user_tag_in_collective_space_panics() {
        let (w, t) = world_and_team(1);
        t.run(|ctx| {
            w.send(ctx, 0, MpWorld::COLLECTIVE_BASE, &[0u8]);
        });
    }

    #[test]
    fn blocking_receiver_pays_the_wait_instead() {
        let (w, t) = world_and_team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                ctx.compute(5_000);
                w.send(ctx, 1, 0, &[42u64]);
                0
            } else {
                let before = ctx.now();
                let _ = w.recv::<u64>(ctx, RecvSpec::from(0, 0));
                (ctx.now() - before) as i64
            }
        });
        assert!(
            run.results[1] >= 5_000,
            "blocking recv must absorb the head start"
        );
    }
}
