//! Mailboxes, envelopes, and point-to-point send/receive.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use machine::{cost, Machine, SimTime, TimeCat};
use parallel::{Ctx, Dep, EventKind, Payload};

use crate::payload::{decode_into, encode_into, WordPool};

/// Message tag. User tags must stay below [`MpWorld::COLLECTIVE_BASE`]; the
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
    /// Match any source and any tag.
    pub const ANY: RecvSpec = RecvSpec {
        src: None,
        tag: None,
    };

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

/// Panics unless `tag` is a user tag.
fn assert_user_tag(tag: Tag) {
    assert!(
        tag < MpWorld::COLLECTIVE_BASE,
        "user tags must be < COLLECTIVE_BASE"
    );
}

/// Panics unless `env` holds whole values of `T` (exactly `count` of them,
/// when given) — the receive-side half of the typed send.
fn check_values<T: Payload>(env: &Envelope, count: Option<usize>) {
    let values = env.words.len() / T::WORDS;
    assert!(
        env.words.len().is_multiple_of(T::WORDS)
            && env.bytes == values * std::mem::size_of::<T>()
            && count.is_none_or(|c| c == values),
        "recv type mismatch from rank {} tag {} ({} bytes)",
        env.src,
        env.tag,
        env.bytes
    );
}

/// A message in flight or queued at the receiver.
struct Envelope {
    src: usize,
    tag: Tag,
    /// The values, [`Payload::WORDS`] words each, in a buffer from the
    /// world's [`WordPool`].
    words: Vec<u64>,
    /// `size_of::<T>()` per value: what the network and the counters
    /// charge, independent of the word encoding.
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
    pool: WordPool,
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
            pool: WordPool::new(),
            coll: crate::collectives::CollSeq::new(pes),
        }
    }

    pub(crate) fn coll_seq(&self) -> &crate::collectives::CollSeq {
        &self.coll
    }

    /// Rank `pe`'s mailbox, locked: no panic leaves it half-updated, so poison is ignored.
    fn mailbox(&self, pe: usize) -> MutexGuard<'_, VecDeque<Envelope>> {
        self.mailboxes[pe].lock().unwrap_or_else(|e| e.into_inner())
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
    /// for the message sizes these applications use). The values are
    /// encoded straight into a pooled word buffer.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or `tag` is in the collective space.
    pub fn send<T: Payload>(&self, ctx: &mut Ctx, dst: usize, tag: Tag, data: &[T]) {
        assert_user_tag(tag);
        self.send_impl(ctx, dst, tag, data);
    }

    /// As [`MpWorld::send`], for a caller that holds the values in a `Vec`.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or `tag` is in the collective space.
    pub fn send_vec<T: Payload>(&self, ctx: &mut Ctx, dst: usize, tag: Tag, data: Vec<T>) {
        assert_user_tag(tag);
        self.send_impl(ctx, dst, tag, &data);
    }

    pub(crate) fn send_impl<T: Payload>(&self, ctx: &mut Ctx, dst: usize, tag: Tag, data: &[T]) {
        let bytes = std::mem::size_of_val(data);
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
        let mut words = self.pool.take(data.len() * T::WORDS);
        encode_into(data, &mut words);
        let env = Envelope {
            src: ctx.pe(),
            tag,
            words,
            bytes,
            sent_at: ctx.now(),
            arrival: ctx.now() + c.network + net_delay,
        };
        let arrival = env.arrival;
        self.mailbox(dst).push_back(env);
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
    /// Panics if the matched message's words and bytes are not a whole
    /// number of `T` values (the payload carries its shape, not its type).
    pub fn recv<T: Payload>(&self, ctx: &mut Ctx, spec: RecvSpec) -> (usize, Tag, Vec<T>) {
        let mut data = Vec::new();
        let (src, tag) = self.recv_into(ctx, spec, &mut data);
        (src, tag, data)
    }

    /// As [`MpWorld::recv`], decoding into `out` (its old contents are
    /// dropped, its capacity reused). Returns `(src, tag)`.
    ///
    /// # Panics
    /// Panics if the matched message's words and bytes are not a whole
    /// number of `T` values (the payload carries its shape, not its type).
    pub fn recv_into<T: Payload>(
        &self,
        ctx: &mut Ctx,
        spec: RecvSpec,
        out: &mut Vec<T>,
    ) -> (usize, Tag) {
        let env = self.wait_match(ctx, spec);
        self.finish_recv(ctx, env, out)
    }

    /// Non-blocking receive: if a message matching `spec` is already
    /// queued (regardless of virtual arrival time — probing models a queue
    /// check, and the clock still advances to the arrival), decode it into
    /// `out` like [`MpWorld::recv_into`] and return `(src, tag)`; `out` is
    /// untouched when nothing matches.
    pub fn try_recv_into<T: Payload>(
        &self,
        ctx: &mut Ctx,
        spec: RecvSpec,
        out: &mut Vec<T>,
    ) -> Option<(usize, Tag)> {
        let env = {
            let mut q = self.mailbox(ctx.pe());
            let idx = q.iter().position(|e| spec.matches(e.src, e.tag))?;
            q.remove(idx).expect("index valid under lock")
        };
        Some(self.finish_recv(ctx, env, out))
    }

    fn wait_match(&self, ctx: &mut Ctx, spec: RecvSpec) -> Envelope {
        let pe = ctx.pe();
        loop {
            {
                let mut q = self.mailbox(pe);
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

    fn finish_recv<T: Payload>(
        &self,
        ctx: &mut Ctx,
        env: Envelope,
        out: &mut Vec<T>,
    ) -> (usize, Tag) {
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
            cost::recv(&self.machine.config),
            TimeCat::Remote,
            EventKind::Recv,
            env.bytes.min(u32::MAX as usize) as u32,
            Some(env.src as u32),
        );
        ctx.counters_mut().msgs_recvd += 1;
        check_values::<T>(&env, None);
        decode_into(&env.words, out);
        self.pool.put(env.words);
        (env.src, env.tag)
    }

    /// Work-stealing claim: remove up to `max` queued envelopes carrying
    /// `tag` that have already arrived in virtual time (`arrival <= now`)
    /// from `victim`'s mailbox and deliver them to the calling PE. A
    /// stolen message is one request: it holds exactly one value, which is
    /// appended to `out` with its sender as `(src, value)`, oldest first.
    /// Returns how many messages were stolen (zero when nothing is
    /// eligible).
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
    /// space, or a matched message is not one value of `T`.
    pub fn steal_batch<T: Payload>(
        &self,
        ctx: &mut Ctx,
        victim: usize,
        tag: Tag,
        max: usize,
        out: &mut Vec<(usize, T)>,
    ) -> usize {
        assert_ne!(victim, ctx.pe(), "a PE cannot steal from itself");
        assert_user_tag(tag);
        // The claim point: the virtual-time floor (not the host scheduler)
        // decides whether the victim's own drain or this steal sees the
        // backlog first.
        ctx.sched_point();
        let now = ctx.now();
        let first = out.len();
        {
            let mut q = self.mailbox(victim);
            let mut i = 0;
            while i < q.len() && out.len() - first < max {
                if q[i].tag == tag && q[i].arrival <= now {
                    let env = q.remove(i).expect("index valid under lock");
                    check_values::<T>(&env, Some(1));
                    out.push((env.src, T::decode(&env.words)));
                    self.pool.put(env.words);
                } else {
                    i += 1;
                }
            }
        }
        let stolen = out.len() - first;
        let bytes = std::mem::size_of::<T>();
        // The claim is priced whatever it yields; only a stolen payload,
        // crossing victim -> stealer, queues on the fabric.
        let hops = self.machine.hops_between(ctx.pe(), victim);
        let batch_bytes = stolen * bytes;
        let net_delay = if batch_bytes > 0 {
            ctx.net_delay_to_pe(victim, batch_bytes)
        } else {
            0
        };
        ctx.advance_traced(
            cost::steal(&self.machine.config, batch_bytes, hops) + net_delay,
            TimeCat::Remote,
            EventKind::Steal,
            batch_bytes.min(u32::MAX as usize) as u32,
            Some(victim as u32),
        );
        for &(src, _) in &out[first..] {
            ctx.advance_traced(
                cost::recv(&self.machine.config),
                TimeCat::Remote,
                EventKind::Recv,
                bytes.min(u32::MAX as usize) as u32,
                Some(src as u32),
            );
            let c = ctx.counters_mut();
            c.msgs_recvd += 1;
            c.requests_stolen += 1;
        }
        stolen
    }

    /// Messages queued across all mailboxes (sent but not yet received).
    pub fn pending_messages(&self) -> usize {
        (0..self.size()).map(|pe| self.mailbox(pe).len()).sum()
    }

    /// Snapshot quiescence check: a checkpoint is only legal when every
    /// mailbox is empty — which the apps guarantee by matching all sends
    /// within the step that precedes a snap gate. Envelopes are plain
    /// words (sender, tag, times and a `Vec<u64>` payload), so queued
    /// messages could be serialised; capturing them, and lifting this
    /// requirement, is not done yet. (Collective sequence numbers are
    /// deliberately not captured: a restored world restarts them at zero
    /// on every rank consistently, and tags never affect cost.)
    ///
    /// # Panics
    /// Panics, naming the offending ranks, if any message is in flight.
    pub fn assert_quiescent(&self) {
        let stuck: Vec<String> = (0..self.size())
            .filter_map(|rank| {
                let n = self.mailbox(rank).len();
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
        // Both PEs share node 0 (no hops); each way carries two f64s. PE 1
        // finishes once its reply is sent, PE 0 once it has received it.
        let c = MachineConfig::test_tiny();
        let wire = c.mp_net_base + (16.0 / c.bw_bytes_per_ns).ceil() as u64;
        let one_way = c.mp_send_overhead + wire + c.mp_recv_overhead;
        assert_eq!(run.reports[0].finish, 2 * one_way);
        assert_eq!(run.reports[1].finish, one_way + c.mp_send_overhead);
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
                let mut data: Vec<u8> = Vec::new();
                let r = w.try_recv_into(
                    ctx,
                    RecvSpec {
                        src: None,
                        tag: Some(0),
                    },
                    &mut data,
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
        const LATE: u64 = 10_000_000; // far past every arrival time
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
                let mut d: Vec<u64> = Vec::new();
                while w.try_recv_into(ctx, RecvSpec::ANY, &mut d).is_some() {
                    kept.push(d[0]);
                }
                kept
            }
            _ => {
                ctx.gate();
                ctx.compute(LATE);
                let mut stolen = Vec::new();
                assert_eq!(w.steal_batch::<u64>(ctx, 1, 7, 2, &mut stolen), 2);
                ctx.gate();
                stolen
                    .into_iter()
                    .map(|(src, d)| {
                        assert_eq!(src, 0, "stolen envelopes keep their sender");
                        d
                    })
                    .collect()
            }
        });
        // The stealer (PE 2, node 1) is one hop from the victim (PE 1, node
        // 0): an 8-byte claim message, the 16-byte batch's wire time, and a
        // receive overhead per stolen request.
        let c = MachineConfig::test_tiny();
        let transfer = |bytes: usize| (bytes as f64 / c.bw_bytes_per_ns).ceil() as u64;
        let claim = c.mp_send_overhead + c.mp_net_base + c.lat_hop + transfer(8);
        let batch = c.mp_net_base + c.lat_hop + transfer(16);
        assert_eq!(
            run.reports[2].finish,
            LATE + claim + batch + 2 * c.mp_recv_overhead
        );
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
    #[should_panic(expected = "COLLECTIVE_BASE")]
    fn user_tag_in_collective_space_panics_for_send_vec_too() {
        let (w, t) = world_and_team(1);
        t.run(|ctx| {
            w.send_vec(ctx, 0, MpWorld::COLLECTIVE_BASE, vec![0u8]);
        });
    }

    #[test]
    #[should_panic(expected = "recv type mismatch")]
    fn receiving_the_wrong_type_panics() {
        let (w, t) = world_and_team(1);
        t.run(|ctx| {
            w.send(ctx, 0, 1, &[1.0f64, 2.0, 3.0]);
            let _ = w.recv::<(u32, f64)>(ctx, RecvSpec::from(0, 1));
        });
    }

    /// `recv_into` decodes into the caller's buffer, whatever it held;
    /// `try_recv_into` leaves it alone when nothing matches.
    #[test]
    fn recv_into_fills_the_callers_buffer() {
        let (w, t) = world_and_team(2);
        let run = t.run(|ctx| {
            if ctx.pe() == 0 {
                w.send(ctx, 1, 1, &[7u64, 8, 9]);
                w.send(ctx, 1, 2, &[(3u32, -0.5f64)]);
                w.send(ctx, 1, 3, &[4u64]);
                Default::default()
            } else {
                let mut words = vec![0u64; 16];
                let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(4);
                let (src, tag) = w.recv_into(ctx, RecvSpec::from(0, 1), &mut words);
                assert_eq!((src, tag), (0, 1));
                w.recv_into(ctx, RecvSpec::from(0, 2), &mut pairs);
                let got = words.clone();
                let miss = w.try_recv_into(ctx, RecvSpec::from(0, 9), &mut words);
                assert_eq!(
                    (miss, &words),
                    (None, &got),
                    "no match leaves out as it was"
                );
                w.try_recv_into(ctx, RecvSpec::from(0, 3), &mut words)
                    .expect("queued");
                (got, pairs, words)
            }
        });
        let (got, pairs, last) = &run.results[1];
        assert_eq!(got, &[7, 8, 9]);
        assert_eq!(pairs, &[(3u32, -0.5f64)]);
        assert_eq!(last, &[4]);
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
