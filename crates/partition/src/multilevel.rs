//! Multilevel k-way graph partitioning (MeTiS-style, simplified).
//!
//! The paper family used MeTiS for graph-based repartitioning; this module
//! rebuilds the classic three-phase scheme:
//!
//! 1. **Coarsen** — repeatedly contract a heavy-edge matching until the
//!    graph is small;
//! 2. **Initial partition** — greedy region growing on the coarsest graph,
//!    seeded deterministically, balanced by vertex weight;
//! 3. **Uncoarsen + refine** — project the partition back up, improving it
//!    at every level with a boundary Kernighan–Lin pass that moves
//!    vertices with positive gain while respecting a balance tolerance.
//!
//! Produces lower edge cuts than geometric methods on irregular meshes at
//! a (bounded) balance cost — exactly the trade-off T3 reports.

use crate::graph::CsrGraph;

/// Balance tolerance: no part may exceed `BALANCE * mean` weight.
const BALANCE: f64 = 1.10;

/// Stop coarsening below this many vertices (or when matching stalls).
const COARSEST: usize = 64;

/// Partition `g` into `nparts` with the multilevel scheme. Returns the
/// part id per vertex.
///
/// # Panics
/// Panics if `nparts` is zero.
pub fn multilevel_partition(g: &CsrGraph, nparts: usize) -> Vec<u32> {
    assert!(nparts > 0, "need at least one part");
    if nparts == 1 || g.len() <= nparts {
        return (0..g.len()).map(|v| (v % nparts) as u32).collect();
    }
    let mut levels: Vec<Level> = Vec::new();
    let mut cur = WGraph::from_csr(g);
    while cur.n() > COARSEST.max(4 * nparts) {
        let (coarse, map) = cur.contract();
        if coarse.n() as f64 > 0.95 * cur.n() as f64 {
            break; // matching stalled (e.g. star graphs)
        }
        levels.push(Level { fine: cur, map });
        cur = coarse;
    }
    let mut parts = initial_partition(&cur, nparts);
    refine(&cur, &mut parts, nparts, 4);
    // Project back through the levels, refining at each.
    while let Some(level) = levels.pop() {
        let mut fine_parts = vec![0u32; level.fine.n()];
        for (v, &cv) in level.map.iter().enumerate() {
            fine_parts[v] = parts[cv as usize];
        }
        parts = fine_parts;
        refine(&level.fine, &mut parts, nparts, 4);
        cur = level.fine;
    }
    let _ = cur;
    parts
}

/// A weighted graph level (vertex + edge weights), adjacency as flat lists.
struct WGraph {
    xadj: Vec<usize>,
    adj: Vec<u32>,
    /// Edge weights, parallel to `adj`.
    ewgt: Vec<f64>,
    vwgt: Vec<f64>,
}

struct Level {
    fine: WGraph,
    /// fine vertex → coarse vertex.
    map: Vec<u32>,
}

impl WGraph {
    fn n(&self) -> usize {
        self.vwgt.len()
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.adj[self.xadj[v]..self.xadj[v + 1]]
            .iter()
            .copied()
            .zip(self.ewgt[self.xadj[v]..self.xadj[v + 1]].iter().copied())
    }

    fn from_csr(g: &CsrGraph) -> WGraph {
        WGraph {
            xadj: g.xadj.clone(),
            adj: g.adj.clone(),
            ewgt: vec![1.0; g.adj.len()],
            vwgt: g.vwgt.clone(),
        }
    }

    /// Heavy-edge matching contraction: returns the coarse graph and the
    /// fine→coarse map.
    fn contract(&self) -> (WGraph, Vec<u32>) {
        let n = self.n();
        const UNMATCHED: u32 = u32::MAX;
        let mut mate = vec![UNMATCHED; n];
        // Visit vertices in order; match each unmatched vertex with its
        // heaviest unmatched neighbour (deterministic).
        for v in 0..n {
            if mate[v] != UNMATCHED {
                continue;
            }
            let mut best: Option<(u32, f64)> = None;
            for (u, w) in self.neighbors(v) {
                if mate[u as usize] == UNMATCHED
                    && u as usize != v
                    && best.is_none_or(|(_, bw)| w > bw)
                {
                    best = Some((u, w));
                }
            }
            match best {
                Some((u, _)) => {
                    mate[v] = u;
                    mate[u as usize] = v as u32;
                }
                None => mate[v] = v as u32, // self-matched
            }
        }
        // Assign coarse ids (pair gets one id).
        let mut map = vec![UNMATCHED; n];
        let mut next = 0u32;
        for v in 0..n {
            if map[v] != UNMATCHED {
                continue;
            }
            map[v] = next;
            let m = mate[v] as usize;
            if m != v {
                map[m] = next;
            }
            next += 1;
        }
        // Build coarse adjacency by accumulating edge weights.
        let cn = next as usize;
        let mut cvwgt = vec![0.0f64; cn];
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); cn];
        for v in 0..n {
            let cv = map[v] as usize;
            cvwgt[cv] += self.vwgt[v];
            for (u, w) in self.neighbors(v) {
                let cu = map[u as usize];
                if cu as usize != cv {
                    accumulate(&mut rows[cv], cu, w);
                }
            }
        }
        let mut xadj = Vec::with_capacity(cn + 1);
        let mut adj = Vec::new();
        let mut ewgt = Vec::new();
        xadj.push(0);
        for mut entries in rows {
            entries.sort_unstable_by_key(|e| e.0);
            for (u, w) in entries {
                adj.push(u);
                ewgt.push(w);
            }
            xadj.push(adj.len());
        }
        (
            WGraph {
                xadj,
                adj,
                ewgt,
                vwgt: cvwgt,
            },
            map,
        )
    }
}

/// Add `w` to `key`'s entry of a short keyed list, appending the key in
/// first-seen order: a deterministic stand-in for a map of a vertex's few
/// neighbouring coarse vertices or parts.
fn accumulate(list: &mut Vec<(u32, f64)>, key: u32, w: f64) {
    match list.iter_mut().find(|(k, _)| *k == key) {
        Some((_, acc)) => *acc += w,
        None => list.push((key, w)),
    }
}

/// Greedy region growing on the coarsest graph: seed parts round-robin at
/// unassigned vertices, grow by weight budget along a BFS frontier.
fn initial_partition(g: &WGraph, nparts: usize) -> Vec<u32> {
    let n = g.n();
    let total: f64 = g.vwgt.iter().sum();
    let budget = total / nparts as f64;
    let mut parts = vec![u32::MAX; n];
    let mut seed_scan = 0usize;
    for p in 0..nparts as u32 {
        // Seed: first unassigned vertex.
        let seed = loop {
            if seed_scan >= n {
                break None;
            }
            if parts[seed_scan] == u32::MAX {
                break Some(seed_scan);
            }
            seed_scan += 1;
        };
        let Some(seed) = seed else { break };
        let mut frontier = std::collections::VecDeque::from([seed]);
        let mut grown = 0.0;
        while let Some(v) = frontier.pop_front() {
            if parts[v] != u32::MAX {
                continue;
            }
            if grown + g.vwgt[v] > budget && grown > 0.0 && p + 1 < nparts as u32 {
                continue;
            }
            parts[v] = p;
            grown += g.vwgt[v];
            for (u, _) in g.neighbors(v) {
                if parts[u as usize] == u32::MAX {
                    frontier.push_back(u as usize);
                }
            }
        }
    }
    // Mop up disconnected leftovers onto the lightest part.
    let mut loads = vec![0.0f64; nparts];
    for (v, &pt) in parts.iter().enumerate() {
        if pt != u32::MAX {
            loads[pt as usize] += g.vwgt[v];
        }
    }
    for (v, part) in parts.iter_mut().enumerate() {
        if *part == u32::MAX {
            let lightest = (0..nparts)
                .min_by(|&a, &b| loads[a].partial_cmp(&loads[b]).unwrap())
                .unwrap();
            *part = lightest as u32;
            loads[lightest] += g.vwgt[v];
        }
    }
    parts
}

/// Boundary Kernighan–Lin refinement: greedily move boundary vertices with
/// positive cut gain to their best neighbouring part, respecting balance.
fn refine(g: &WGraph, parts: &mut [u32], nparts: usize, passes: usize) {
    let total: f64 = g.vwgt.iter().sum();
    let cap = BALANCE * total / nparts as f64;
    let mut loads = vec![0.0f64; nparts];
    for (v, &p) in parts.iter().enumerate() {
        loads[p as usize] += g.vwgt[v];
    }
    let mut conn: Vec<(u32, f64)> = Vec::new();
    for _ in 0..passes {
        let mut moved = false;
        for v in 0..g.n() {
            let from = parts[v] as usize;
            // Connectivity of v to each adjacent part, in neighbour order.
            conn.clear();
            for (u, w) in g.neighbors(v) {
                accumulate(&mut conn, parts[u as usize], w);
            }
            let internal = conn
                .iter()
                .find(|&&(p, _)| p as usize == from)
                .map_or(0.0, |&(_, w)| w);
            // Best positive gain; equal gains go to the lowest part id.
            let mut best: Option<(u32, f64)> = None;
            for &(p, w) in &conn {
                if p as usize == from {
                    continue;
                }
                let gain = w - internal;
                if gain > 0.0
                    && loads[p as usize] + g.vwgt[v] <= cap
                    && best.is_none_or(|(bp, bg)| gain > bg || (gain == bg && p < bp))
                {
                    best = Some((p, gain));
                }
            }
            if let Some((to, _)) = best {
                loads[from] -= g.vwgt[v];
                loads[to as usize] += g.vwgt[v];
                parts[v] = to;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{edge_cut, imbalance};

    /// A w×h grid graph (4-neighbour).
    fn grid(w: usize, h: usize) -> CsrGraph {
        let idx = |x: usize, y: usize| (y * w + x) as u32;
        let mut lists = vec![Vec::new(); w * h];
        for y in 0..h {
            for x in 0..w {
                let mut l = Vec::new();
                if x > 0 {
                    l.push(idx(x - 1, y));
                }
                if x + 1 < w {
                    l.push(idx(x + 1, y));
                }
                if y > 0 {
                    l.push(idx(x, y - 1));
                }
                if y + 1 < h {
                    l.push(idx(x, y + 1));
                }
                lists[idx(x, y) as usize] = l;
            }
        }
        CsrGraph::from_lists(&lists, vec![1.0; w * h])
    }

    #[test]
    fn partitions_grid_with_low_cut() {
        let g = grid(16, 16);
        let parts = multilevel_partition(&g, 4);
        assert!(parts.iter().all(|&p| p < 4));
        let cut = edge_cut(&g, &parts);
        // Ideal 4-way cut of a 16×16 grid is 32 (two straight cuts);
        // accept up to 2.5× of ideal.
        assert!(cut <= 80, "cut {cut} too high");
        let imb = imbalance(&g.vwgt, &parts, 4);
        assert!(imb <= BALANCE + 0.05, "imbalance {imb}");
    }

    #[test]
    fn all_parts_nonempty() {
        let g = grid(12, 12);
        for nparts in [2, 3, 5, 8] {
            let parts = multilevel_partition(&g, nparts);
            let mut seen = vec![false; nparts];
            for &p in &parts {
                seen[p as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "nparts={nparts}: empty part");
        }
    }

    #[test]
    fn beats_naive_striping_on_cut() {
        let g = grid(16, 16);
        let naive: Vec<u32> = (0..g.len()).map(|v| (v % 4) as u32).collect();
        let ml = multilevel_partition(&g, 4);
        assert!(
            edge_cut(&g, &ml) < edge_cut(&g, &naive) / 2,
            "multilevel ({}) should crush striping ({})",
            edge_cut(&g, &ml),
            edge_cut(&g, &naive)
        );
    }

    #[test]
    fn deterministic() {
        let g = grid(10, 14);
        assert_eq!(multilevel_partition(&g, 6), multilevel_partition(&g, 6));
    }

    #[test]
    fn tiny_graphs_degenerate_gracefully() {
        let g = grid(2, 2);
        let parts = multilevel_partition(&g, 8);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|&p| p < 8));
        let single = multilevel_partition(&g, 1);
        assert!(single.iter().all(|&p| p == 0));
    }

    #[test]
    fn weighted_vertices_respected() {
        // Left column is very heavy: it should spread across parts or sit
        // alone, never breaching the balance cap grossly.
        let mut g = grid(8, 8);
        for y in 0..8 {
            g.vwgt[y * 8] = 10.0;
        }
        let parts = multilevel_partition(&g, 4);
        let imb = imbalance(&g.vwgt, &parts, 4);
        assert!(imb < 1.4, "imbalance {imb}");
    }

    #[test]
    fn equal_gains_move_to_the_lowest_part() {
        // v0 (part 0) has one edge into part 1 and one into part 2 and none
        // inside its own part: gain 1.0 either way, and both fit under the
        // balance cap. v3–v4–v5 keep part 0 heavy so nothing moves back.
        let lists = vec![vec![1, 2], vec![0], vec![0], vec![4], vec![3, 5], vec![4]];
        let g = WGraph::from_csr(&CsrGraph::from_lists(&lists, vec![1.0; 6]));
        for _ in 0..200 {
            let mut parts = vec![0, 1, 2, 0, 0, 0];
            refine(&g, &mut parts, 3, 4);
            assert_eq!(parts, vec![1, 1, 2, 0, 0, 0]);
        }
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let g = grid(10, 10);
        let wg = WGraph::from_csr(&g);
        let (coarse, map) = wg.contract();
        assert!(coarse.n() < wg.n());
        assert!(coarse.n() >= wg.n() / 2);
        let fine_total: f64 = wg.vwgt.iter().sum();
        let coarse_total: f64 = coarse.vwgt.iter().sum();
        assert!((fine_total - coarse_total).abs() < 1e-9);
        assert!(map.iter().all(|&c| (c as usize) < coarse.n()));
    }
}
