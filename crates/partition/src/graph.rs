//! CSR graphs and partition-quality metrics.

/// An undirected graph in compressed sparse row form with vertex weights.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// Row offsets, length `n + 1`.
    pub xadj: Vec<usize>,
    /// Adjacency lists (each undirected edge appears in both rows).
    pub adj: Vec<u32>,
    /// Vertex weights.
    pub vwgt: Vec<f64>,
}

impl CsrGraph {
    /// Build from per-vertex neighbour lists and weights.
    ///
    /// # Panics
    /// Panics if lengths disagree or a neighbour index is out of range.
    #[cfg(test)]
    pub(crate) fn from_lists(lists: &[Vec<u32>], vwgt: Vec<f64>) -> Self {
        assert_eq!(lists.len(), vwgt.len(), "one weight per vertex");
        let n = lists.len() as u32;
        let mut xadj = Vec::with_capacity(lists.len() + 1);
        let mut adj = Vec::new();
        xadj.push(0);
        for l in lists {
            for &v in l {
                assert!(v < n, "neighbour {v} out of range");
                adj.push(v);
            }
            xadj.push(adj.len());
        }
        CsrGraph { xadj, adj, vwgt }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vwgt.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vwgt.is_empty()
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.xadj[v]..self.xadj[v + 1]]
    }
}

/// Number of graph edges whose endpoints land in different parts.
pub fn edge_cut(g: &CsrGraph, parts: &[u32]) -> usize {
    let mut cut = 0;
    for v in 0..g.len() {
        for &u in g.neighbors(v) {
            if parts[v] != parts[u as usize] {
                cut += 1;
            }
        }
    }
    cut / 2 // each cut edge seen from both sides
}

/// Load imbalance: `max part weight / mean part weight` (1.0 is perfect).
/// Empty parts count as zero weight.
///
/// # Panics
/// Panics if `nparts` is zero.
pub fn imbalance(weights: &[f64], parts: &[u32], nparts: usize) -> f64 {
    assert!(nparts > 0);
    let mut loads = vec![0.0f64; nparts];
    for (i, &p) in parts.iter().enumerate() {
        loads[p as usize] += weights[i];
    }
    let total: f64 = loads.iter().sum();
    if total == 0.0 {
        return 1.0;
    }
    let mean = total / nparts as f64;
    loads.iter().cloned().fold(f64::MIN, f64::max) / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-cycle: 0-1-2-3-0.
    fn cycle4() -> CsrGraph {
        CsrGraph::from_lists(
            &[vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]],
            vec![1.0; 4],
        )
    }

    #[test]
    fn edge_cut_counts_cross_edges_once() {
        let g = cycle4();
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 2);
        assert_eq!(edge_cut(&g, &[0, 1, 0, 1]), 4);
    }

    #[test]
    fn imbalance_perfect_and_skewed() {
        let w = vec![1.0; 4];
        assert_eq!(imbalance(&w, &[0, 0, 1, 1], 2), 1.0);
        assert_eq!(imbalance(&w, &[0, 0, 0, 1], 2), 1.5);
        assert_eq!(imbalance(&w, &[0, 0, 0, 0], 2), 2.0);
    }

    #[test]
    fn imbalance_with_weights() {
        let w = vec![3.0, 1.0, 1.0, 1.0];
        // Part 0: 3.0, part 1: 3.0 → perfect.
        assert_eq!(imbalance(&w, &[0, 1, 1, 1], 2), 1.0);
    }

    #[test]
    fn neighbors_slices() {
        let g = cycle4();
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_neighbor_panics() {
        CsrGraph::from_lists(&[vec![9]], vec![1.0]);
    }
}
