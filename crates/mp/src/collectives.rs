//! Collective operations layered on point-to-point messages.
//!
//! Classic log-depth algorithms (dissemination barrier, binomial-tree
//! broadcast and reduce), so collective *cost* emerges from the message
//! model: each level pays real send/receive overheads and hop-priced
//! latencies. Each collective invocation reserves a fresh block of tags in
//! the reserved space, keyed by a per-PE sequence counter; because every PE
//! executes the same collective sequence, the blocks align.

use std::sync::atomic::{AtomicU32, Ordering};

use parallel::{Ctx, Payload};

use crate::world::{MpWorld, RecvSpec, Tag};

/// Tags per collective invocation (must exceed the deepest level count:
/// log2(max PEs) plus per-phase offsets).
const TAG_BLOCK: u32 = 64;

/// Whole tag blocks above [`MpWorld::COLLECTIVE_BASE`].
const TAG_BLOCKS: u32 = (u32::MAX - MpWorld::COLLECTIVE_BASE + 1) / TAG_BLOCK;

/// First tag of the block a PE's `seq`-th collective uses. Blocks cycle
/// through the reserved space, so every tag of every block stays at or
/// above `COLLECTIVE_BASE` however many collectives a PE runs.
fn tag_block_of(seq: u32) -> Tag {
    MpWorld::COLLECTIVE_BASE + (seq % TAG_BLOCKS) * TAG_BLOCK
}

/// Per-world collective sequencing state. Lives in a side table so
/// `world.rs` stays focused on point-to-point.
pub(crate) struct CollSeq {
    seq: Vec<AtomicU32>,
}

impl CollSeq {
    pub(crate) fn new(pes: usize) -> Self {
        CollSeq {
            seq: (0..pes).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

impl MpWorld {
    fn tag_block(&self, pe: usize) -> Tag {
        tag_block_of(self.coll_seq().seq[pe].fetch_add(1, Ordering::Relaxed))
    }

    /// Dissemination barrier: ceil(log2 P) rounds of shifted exchanges.
    /// After it completes, every PE's virtual clock is at least the maximum
    /// pre-barrier clock (information from every PE has reached every other).
    pub fn barrier(&self, ctx: &mut Ctx) {
        let p = self.size();
        if p == 1 {
            ctx.counters_mut().barriers += 1;
            return;
        }
        let base = self.tag_block(ctx.pe());
        let mut dist = 1usize;
        let mut round = 0u32;
        while dist < p {
            let dst = (ctx.pe() + dist) % p;
            let src = (ctx.pe() + p - dist) % p;
            self.send_impl::<u8>(ctx, dst, base + round, &[]);
            let _ = self.recv::<u8>(ctx, RecvSpec::from(src, base + round));
            dist <<= 1;
            round += 1;
        }
        ctx.counters_mut().barriers += 1;
    }

    /// Binomial-tree broadcast of `data` from `root`. Non-root PEs pass any
    /// (ignored) value, conventionally an empty `Vec`.
    pub fn bcast<T: Payload>(&self, ctx: &mut Ctx, root: usize, data: Vec<T>) -> Vec<T> {
        let p = self.size();
        let tag = self.tag_block(ctx.pe());
        if p == 1 {
            return data;
        }
        let rank = ctx.pe();
        let relative = (rank + p - root) % p;
        let mut buf = if relative == 0 { data } else { Vec::new() };

        // Receive phase: wait for the parent (clears the lowest set bit).
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let src = (rank + p - mask) % p;
                let (_, _, d) = self.recv::<T>(ctx, RecvSpec::from(src, tag));
                buf = d;
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below the received bit.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < p {
                let dst = (rank + mask) % p;
                self.send_impl(ctx, dst, tag, &buf);
            }
            mask >>= 1;
        }
        buf
    }

    /// Binomial-tree reduction to `root` with an element-wise combiner
    /// `op(acc, incoming)`. Returns `Some(result)` at the root, `None`
    /// elsewhere. `op` must be commutative and associative (as with
    /// MPI built-in operations).
    pub fn reduce<T, F>(&self, ctx: &mut Ctx, root: usize, data: Vec<T>, op: F) -> Option<Vec<T>>
    where
        T: Payload,
        F: Fn(&mut [T], &[T]),
    {
        let p = self.size();
        let tag = self.tag_block(ctx.pe());
        if p == 1 {
            return Some(data);
        }
        let rank = ctx.pe();
        let relative = (rank + p - root) % p;
        let mut acc = data;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < p {
                    let src = (src_rel + root) % p;
                    let (_, _, d) = self.recv::<T>(ctx, RecvSpec::from(src, tag));
                    op(&mut acc, &d);
                }
            } else {
                let dst = ((relative ^ mask) + root) % p;
                self.send_impl(ctx, dst, tag, &acc);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// All-reduce: reduce to rank 0 then broadcast. Deterministic combine
    /// order for a given team size.
    fn allreduce<T, F>(&self, ctx: &mut Ctx, data: Vec<T>, op: F) -> Vec<T>
    where
        T: Payload,
        F: Fn(&mut [T], &[T]),
    {
        let reduced = self.reduce(ctx, 0, data, op);
        self.bcast(ctx, 0, reduced.unwrap_or_default())
    }

    /// Sum all-reduce over `u64` slices.
    pub fn allreduce_sum_u64(&self, ctx: &mut Ctx, data: Vec<u64>) -> Vec<u64> {
        self.allreduce(ctx, data, |acc, d| {
            for (a, b) in acc.iter_mut().zip(d) {
                *a += b;
            }
        })
    }

    /// Gather variable-length contributions at `root`: returns
    /// `Some(chunks_by_rank)` at the root, `None` elsewhere.
    pub fn gatherv<T: Payload>(
        &self,
        ctx: &mut Ctx,
        root: usize,
        mine: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        let p = self.size();
        let tag = self.tag_block(ctx.pe());
        if ctx.pe() == root {
            let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
            out[root] = mine;
            for src in (0..p).filter(|&s| s != root) {
                let (_, _, d) = self.recv::<T>(ctx, RecvSpec::from(src, tag));
                out[src] = d;
            }
            Some(out)
        } else {
            self.send_impl(ctx, root, tag, &mine);
            None
        }
    }

    /// All-gather of variable-length contributions: gather at rank 0, then
    /// broadcast the concatenated structure. Every rank gets `size()`
    /// chunks, empty ones included.
    pub fn allgatherv<T: Payload>(&self, ctx: &mut Ctx, mine: Vec<T>) -> Vec<Vec<T>> {
        let gathered = self.gatherv(ctx, 0, mine);
        let mut out: Vec<Vec<T>> = (0..self.size()).map(|_| Vec::new()).collect();
        for (r, item) in self.bcast(ctx, 0, gathered.map(flatten_tagged).unwrap_or_default()) {
            out[r as usize].push(item);
        }
        out
    }

    /// Personalised all-to-all: `sends[d]` goes to rank `d`; returns the
    /// chunks received, indexed by source. The self-chunk moves locally for
    /// free (a memory copy, charged as Busy).
    pub fn alltoallv<T: Payload>(&self, ctx: &mut Ctx, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.size();
        assert_eq!(sends.len(), p, "alltoallv needs one chunk per rank");
        let tag = self.tag_block(ctx.pe());
        let me = ctx.pe();
        let mut recvs: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        recvs[me] = std::mem::take(&mut sends[me]);
        // Stagger destinations to avoid hot-spotting rank 0.
        for k in 1..p {
            let dst = (me + k) % p;
            let chunk = std::mem::take(&mut sends[dst]);
            self.send_impl(ctx, dst, tag, &chunk);
        }
        for k in 1..p {
            let src = (me + p - k) % p;
            let (_, _, d) = self.recv::<T>(ctx, RecvSpec::from(src, tag));
            recvs[src] = d;
        }
        recvs
    }
}

/// Encode per-rank chunks as (rank, item) pairs for transport through bcast.
fn flatten_tagged<T>(chunks: Vec<Vec<T>>) -> Vec<(u32, T)> {
    let mut out = Vec::new();
    for (r, c) in chunks.into_iter().enumerate() {
        for item in c {
            out.push((r as u32, item));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{Machine, MachineConfig};
    use parallel::Team;
    use std::sync::Arc;

    fn setup(pes: usize) -> (Arc<MpWorld>, Team) {
        let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
        (
            Arc::new(MpWorld::new(Arc::clone(&machine))),
            Team::new(machine),
        )
    }

    #[test]
    fn barrier_synchronises_clocks() {
        for pes in [2, 3, 5, 8] {
            let (w, t) = setup(pes);
            let run = t.run(|ctx| {
                ctx.compute(ctx.pe() as u64 * 1_000);
                w.barrier(ctx);
                ctx.now()
            });
            let slowest_work = (pes as u64 - 1) * 1_000;
            for &finish in &run.results {
                assert!(finish >= slowest_work, "pes={pes}: clock behind slowest PE");
            }
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for root in 0..4 {
            let (w, t) = setup(4);
            let run = t.run(|ctx| {
                let data = if ctx.pe() == root {
                    vec![root as u64, 42]
                } else {
                    Vec::new()
                };
                w.bcast(ctx, root, data)
            });
            for r in run.results {
                assert_eq!(r, vec![root as u64, 42]);
            }
        }
    }

    #[test]
    fn reduce_sums_vectors_at_root() {
        let (w, t) = setup(6);
        let run = t.run(|ctx| {
            let data = vec![ctx.pe() as u64, 1];
            w.reduce(ctx, 2, data, |acc, d| {
                for (a, b) in acc.iter_mut().zip(d) {
                    *a += b;
                }
            })
        });
        for (pe, r) in run.results.into_iter().enumerate() {
            if pe == 2 {
                assert_eq!(r, Some(vec![15, 6]));
            } else {
                assert_eq!(r, None);
            }
        }
    }

    #[test]
    fn allreduce_everywhere() {
        for pes in [1, 2, 3, 7, 8] {
            let (w, t) = setup(pes);
            let run = t.run(|ctx| w.allreduce_sum_u64(ctx, vec![1, ctx.pe() as u64]));
            let sum_pe: u64 = (0..pes as u64).sum();
            for r in run.results {
                assert_eq!(r, vec![pes as u64, sum_pe], "pes={pes}");
            }
        }
    }

    #[test]
    fn gatherv_collects_ragged() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            let mine: Vec<u32> = (0..ctx.pe() as u32).collect();
            w.gatherv(ctx, 0, mine)
        });
        let got = run.results[0].as_ref().expect("root has data");
        assert_eq!(got[0], Vec::<u32>::new());
        assert_eq!(got[2], vec![0, 1]);
        assert_eq!(got[3], vec![0, 1, 2]);
        assert!(run.results[1].is_none());
    }

    #[test]
    fn allgatherv_everyone_sees_all() {
        let (w, t) = setup(3);
        let run = t.run(|ctx| w.allgatherv(ctx, vec![ctx.pe() as u32 * 10]));
        for r in run.results {
            assert_eq!(r, vec![vec![0], vec![10], vec![20]]);
        }
        // Empty contributions keep their slot — a trailing one, a middle
        // one, and all of them: every PE sees exactly what each rank sent.
        for sent in [
            vec![vec![0u32], vec![1], vec![]],
            vec![vec![0, 0], vec![], vec![2, 2]],
            vec![vec![], vec![], vec![]],
        ] {
            let (w, t) = setup(3);
            let run = t.run(|ctx| w.allgatherv(ctx, sent[ctx.pe()].clone()));
            for r in run.results {
                assert_eq!(r, sent);
            }
        }
    }

    #[test]
    fn alltoallv_transposes() {
        let (w, t) = setup(4);
        let run = t.run(|ctx| {
            // PE i sends [i*10 + d] to PE d.
            let sends: Vec<Vec<u32>> = (0..4)
                .map(|d| vec![ctx.pe() as u32 * 10 + d as u32])
                .collect();
            w.alltoallv(ctx, sends)
        });
        for (pe, r) in run.results.into_iter().enumerate() {
            let expected: Vec<Vec<u32>> = (0..4).map(|s| vec![s as u32 * 10 + pe as u32]).collect();
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        let (w, t) = setup(2);
        let run = t.run(|ctx| {
            let a = w.allreduce_sum_u64(ctx, vec![1])[0];
            if ctx.pe() == 0 {
                w.send(ctx, 1, 9, &[a]);
            } else {
                let (_, _, d) = w.recv::<u64>(ctx, RecvSpec::from(0, 9));
                assert_eq!(d, vec![2]);
            }
            w.barrier(ctx);
            w.allreduce(ctx, vec![ctx.pe() as u64], |acc, d| {
                acc[0] = acc[0].max(d[0])
            })[0]
        });
        assert_eq!(run.results, vec![1, 1]);
    }

    /// The last blocks before the wrap, the wrap itself and the largest
    /// sequence number all stay inside the reserved space.
    #[test]
    fn tag_blocks_stay_in_the_collective_space() {
        for seq in [0, 0x3F_FFFF, 0x40_0000, u32::MAX] {
            let base = tag_block_of(seq);
            assert!(base >= MpWorld::COLLECTIVE_BASE, "seq {seq:#x}");
            let last = base.checked_add(TAG_BLOCK - 1).expect("block fits in u32");
            assert!(last >= MpWorld::COLLECTIVE_BASE, "seq {seq:#x}");
        }
        assert_eq!(tag_block_of(0x3F_FFFF), 0xFFFF_FFC0);
        assert_eq!(tag_block_of(0x40_0000), MpWorld::COLLECTIVE_BASE);
    }

    #[test]
    fn barrier_message_counts_are_logarithmic() {
        let (w, t) = setup(8);
        let run = t.run(|ctx| {
            w.barrier(ctx);
        });
        // Dissemination over 8 PEs: exactly 3 sends per PE.
        for rep in &run.reports {
            assert_eq!(rep.counters.msgs_sent, 3);
        }
    }
}

#[cfg(test)]
mod proptests {
    use machine::{Machine, MachineConfig};
    use parallel::Team;
    use std::sync::Arc;

    use crate::world::MpWorld;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// allreduce(sum) over arbitrary vectors equals the sequential sum,
        /// for arbitrary (small) team sizes.
        #[test]
        fn allreduce_matches_sequential(
            pes in 1usize..6,
            vals in proptest::collection::vec(0u64..1_000_000, 1..8),
        ) {
            let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
            let w = Arc::new(MpWorld::new(Arc::clone(&machine)));
            let vals = Arc::new(vals);
            let run = Team::new(machine).run(|ctx| {
                let mine: Vec<u64> = vals
                    .iter()
                    .map(|&v| v.wrapping_mul(ctx.pe() as u64 + 1))
                    .collect();
                w.allreduce_sum_u64(ctx, mine)
            });
            let pe_factor: u64 = (1..=pes as u64).sum();
            for r in run.results {
                for (k, &v) in vals.iter().enumerate() {
                    prop_assert_eq!(r[k], v * pe_factor);
                }
            }
        }

        /// alltoallv always delivers every chunk to the right rank with the
        /// right content (the transpose property), for ragged chunk sizes.
        #[test]
        fn alltoallv_transpose_ragged(
            pes in 2usize..6,
            sizes in proptest::collection::vec(0usize..5, 25),
        ) {
            let machine = Arc::new(Machine::new(pes, MachineConfig::test_tiny()));
            let w = Arc::new(MpWorld::new(Arc::clone(&machine)));
            let sizes = Arc::new(sizes);
            let run = Team::new(machine).run(|ctx| {
                let me = ctx.pe() as u32;
                let sends: Vec<Vec<u32>> = (0..ctx.npes())
                    .map(|d| {
                        let n = sizes[(ctx.pe() * ctx.npes() + d) % sizes.len()];
                        (0..n as u32).map(|k| me * 1000 + d as u32 * 10 + k).collect()
                    })
                    .collect();
                w.alltoallv(ctx, sends)
            });
            for (dst, r) in run.results.iter().enumerate() {
                for (src, chunk) in r.iter().enumerate() {
                    let n = sizes[(src * pes + dst) % sizes.len()];
                    prop_assert_eq!(chunk.len(), n);
                    for (k, &v) in chunk.iter().enumerate() {
                        prop_assert_eq!(v, src as u32 * 1000 + dst as u32 * 10 + k as u32);
                    }
                }
            }
        }
    }
}
