//! Element dual graph (CSR) of the active triangles.
//!
//! Partitioners operate on the dual: one graph vertex per active triangle,
//! an edge where two triangles share a mesh edge. Every partition weighs
//! each triangle as one unit of work, so the dual carries no weights.

use crate::adaptive::{tri_edges, AdaptiveMesh, Incidence};
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
///
/// Linear in the active triangles: each triangle finds the neighbour across
/// each of its edges among the triangles around one endpoint, through a
/// vertex → triangle incidence built by counting sort. Rows are ascending.
///
/// # Panics
/// Panics if an edge borders more than two active triangles.
pub fn dual_graph(mesh: &AdaptiveMesh) -> DualGraph {
    let tris = mesh.active_tris();
    let corners: Vec<[u32; 3]> = tris.iter().map(|&t| mesh.tri(t)).collect();
    let around = Incidence::new(mesh.verts.len(), &corners);
    let n = tris.len();
    let mut xadj = Vec::with_capacity(n + 1);
    let mut adj = Vec::with_capacity(3 * n);
    xadj.push(0);
    for (i, &tri) in corners.iter().enumerate() {
        let mut row = [u32::MAX; 3];
        let mut deg = 0;
        for (x, y) in tri_edges(tri) {
            let mut across = around
                .around(x)
                .iter()
                .filter(|&&j| j as usize != i && corners[j as usize].contains(&y));
            if let Some(&j) = across.next() {
                assert!(
                    across.next().is_none(),
                    "edge {:?} borders more than two active triangles",
                    (x, y)
                );
                row[deg] = j;
                deg += 1;
            }
        }
        let row = &mut row[..deg];
        row.sort_unstable();
        adj.extend_from_slice(row);
        xadj.push(adj.len());
    }
    let centroids = tris.iter().map(|&t| mesh.centroid_of(t)).collect();
    DualGraph {
        tris,
        xadj,
        adj,
        centroids,
    }
}

/// The straightforward construction, kept as the equivalence oracle: edge
/// → bordering triangles in a map, then each row sorted (so the map's
/// order never shows).
#[cfg(test)]
fn dual_graph_oracle(mesh: &AdaptiveMesh) -> DualGraph {
    use std::collections::BTreeMap;
    let tris = mesh.active_tris();
    // Edge → adjacent active triangles (≤ 2 by conformity).
    let mut by_edge: BTreeMap<(u32, u32), [u32; 2]> = BTreeMap::new();
    let mut counts: BTreeMap<(u32, u32), usize> = BTreeMap::new();
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
    DualGraph {
        tris,
        xadj,
        adj,
        centroids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "edge (0, 1) borders more than two active triangles")]
    fn an_edge_of_three_triangles_is_a_named_panic() {
        let verts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0)]
            .map(|(x, y)| Point2::new(x, y))
            .to_vec();
        let m = AdaptiveMesh::from_base(verts, vec![[0, 1, 2], [1, 0, 3], [0, 1, 4]]);
        dual_graph(&m);
    }

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
    fn interior_count_consistency() {
        // 4x4 grid: 32 triangles. Dual edges = interior mesh edges.
        let m = AdaptiveMesh::structured(4, 4, 1.0, 1.0);
        let g = dual_graph(&m);
        // Total edges 56, boundary edges 16 → interior 40.
        assert_eq!(g.adj.len() / 2, 40);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::indicator::{adapt_step, Shock};
    use proptest::prelude::*;

    /// Field-for-field equality, floats by bits.
    fn assert_same(got: &DualGraph, want: &DualGraph) {
        assert_eq!(got.tris, want.tris);
        assert_eq!(got.xadj, want.xadj);
        assert_eq!(got.adj, want.adj);
        let bits = |g: &DualGraph| -> Vec<(u64, u64)> {
            g.centroids
                .iter()
                .map(|c| (c.x.to_bits(), c.y.to_bits()))
                .collect()
        };
        assert_eq!(bits(got), bits(want));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The incidence-matched dual equals the map-based oracle on
        /// structured meshes adapted by a moving planar or circular shock.
        #[test]
        fn dual_graph_matches_the_oracle(
            nx in 1usize..12,
            ny in 1usize..12,
            circular in any::<bool>(),
            shock_at in (0.0f64..1.0, 0.0f64..1.0, 0.05f64..0.4),
            adapt in (0.03f64..0.2, 1usize..5, 1u8..4),
        ) {
            let ((a, b, speed), (band, steps, max_level)) = (shock_at, adapt);
            let mut m = AdaptiveMesh::structured(nx, ny, 1.0, 1.0);
            let shock = if circular {
                Shock::Circular { cx: a, cy: b, r0: 0.1, speed }
            } else {
                Shock::Planar { x0: a - 0.5, speed }
            };
            for step in 0..steps {
                adapt_step(&mut m, &shock, step as f64, band, 2.0 * band, max_level);
                assert_same(&dual_graph(&m), &dual_graph_oracle(&m));
            }
        }
    }
}
