//! Element dual graph (CSR) of the active triangles.
//!
//! Partitioners operate on the dual: one graph vertex per active triangle,
//! an edge where two triangles share a mesh edge. Weights are triangle
//! areas by default (uniform solver cost per unit area).

use std::collections::HashMap;

use crate::adaptive::AdaptiveMesh;
use crate::geom::Point2;

/// Dual graph in compressed sparse row form.
#[derive(Debug, Clone)]
pub struct DualGraph {
    /// Active triangle id of each graph vertex.
    pub tris: Vec<u32>,
    /// CSR row offsets, length `tris.len() + 1`.
    pub xadj: Vec<usize>,
    /// CSR adjacency: indices into `tris`.
    pub adj: Vec<u32>,
    /// Triangle centroids (for geometric partitioners).
    pub centroids: Vec<Point2>,
    /// Vertex weights (triangle areas).
    pub weights: Vec<f64>,
}

impl DualGraph {
    /// Number of graph vertices.
    pub fn len(&self) -> usize {
        self.tris.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.tris.is_empty()
    }

    /// Neighbours of graph vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.xadj[v]..self.xadj[v + 1]]
    }
}

/// Build the dual graph of `mesh`'s active triangles.
pub fn dual_graph(mesh: &AdaptiveMesh) -> DualGraph {
    let tris = mesh.active_tris();
    let index: HashMap<u32, u32> = tris
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u32))
        .collect();

    // Edge → adjacent active triangles (≤ 2 by conformity).
    let mut by_edge: HashMap<(u32, u32), [u32; 2]> = HashMap::new();
    let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
    for (i, &t) in tris.iter().enumerate() {
        let [a, b, c] = mesh.tri(t);
        for (x, y) in [(a, b), (b, c), (a, c)] {
            let k = if x < y { (x, y) } else { (y, x) };
            let slot = counts.entry(k).or_insert(0);
            by_edge.entry(k).or_insert([u32::MAX; 2])[*slot] = i as u32;
            *slot += 1;
        }
    }

    let n = tris.len();
    let mut neighbor_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (k, pair) in &by_edge {
        if counts[k] == 2 {
            neighbor_lists[pair[0] as usize].push(pair[1]);
            neighbor_lists[pair[1] as usize].push(pair[0]);
        }
    }
    for l in &mut neighbor_lists {
        l.sort_unstable();
    }

    let mut xadj = Vec::with_capacity(n + 1);
    let mut adj = Vec::new();
    xadj.push(0);
    for l in &neighbor_lists {
        adj.extend_from_slice(l);
        xadj.push(adj.len());
    }
    let centroids = tris.iter().map(|&t| mesh.centroid_of(t)).collect();
    let weights = tris.iter().map(|&t| mesh.area_of(t)).collect();
    let _ = index; // index retained for clarity of construction
    DualGraph {
        tris,
        xadj,
        adj,
        centroids,
        weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_of_two_triangles() {
        let m = AdaptiveMesh::structured(1, 1, 1.0, 1.0);
        let g = dual_graph(&m);
        assert_eq!(g.len(), 2);
        assert_eq!(g.adj.len() / 2, 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn dual_degrees_bounded_by_three() {
        let mut m = AdaptiveMesh::structured(4, 4, 1.0, 1.0);
        m.refine(&[0, 7, 12]);
        let g = dual_graph(&m);
        for v in 0..g.len() {
            assert!(g.neighbors(v).len() <= 3);
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let mut m = AdaptiveMesh::structured(3, 3, 1.0, 1.0);
        m.refine(&[2, 5]);
        let g = dual_graph(&m);
        for v in 0..g.len() {
            for &u in g.neighbors(v) {
                assert!(
                    g.neighbors(u as usize).contains(&(v as u32)),
                    "asymmetric edge {v} ↔ {u}"
                );
            }
        }
    }

    #[test]
    fn weights_sum_to_mesh_area() {
        let mut m = AdaptiveMesh::structured(4, 2, 2.0, 1.0);
        m.refine(&[1, 3]);
        let g = dual_graph(&m);
        let sum: f64 = g.weights.iter().sum();
        assert!((sum - 2.0).abs() < 1e-9);
    }

    #[test]
    fn interior_count_consistency() {
        // 4x4 grid: 32 triangles. Dual edges = interior mesh edges.
        let m = AdaptiveMesh::structured(4, 4, 1.0, 1.0);
        let g = dual_graph(&m);
        // Total edges 56, boundary edges 16 → interior 40.
        assert_eq!(g.adj.len() / 2, 40);
    }
}
