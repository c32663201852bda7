//! Arena-allocated octree with centre-of-mass summaries.
//!
//! The nodes live in one arena and the bodies in one permutation: a leaf
//! names its bodies as a run of that permutation, so a build allocates the
//! same handful of buffers at any size, and a walk keeps its pending nodes
//! in a [`WalkStack`] on the call stack.

use crate::vec3::Vec3;

/// Sentinel: node has no children (it is a leaf).
pub const NO_CHILD: u32 = u32::MAX;

/// Depth cap guarding against coincident points: a node this deep stays a
/// leaf whatever its body count.
const MAX_DEPTH: u32 = 48;

/// Capacity of a depth-first walk's pending-node stack. Only nodes above
/// the depth cap have children, and a walk that opens a node pushes all 8
/// of them, so it holds at most 7 unvisited siblings per level above the
/// node it opens plus the 8 children it just pushed.
pub const WALK_STACK: usize = 7 * MAX_DEPTH as usize + 8;

/// One octree node. Children, when present, are 8 contiguous arena slots
/// starting at `first_child`, in octant order (x minor, y, z major).
#[derive(Debug, Clone)]
pub struct Node {
    /// Cell centre.
    pub center: Vec3,
    /// Half the cell edge length.
    pub half: f64,
    /// Total mass below this node.
    pub mass: f64,
    /// Centre of mass below this node.
    pub com: Vec3,
    /// Arena index of the first of 8 children, or [`NO_CHILD`].
    pub first_child: u32,
    /// A leaf's bodies are `order[body_start..][..body_len]` of its tree
    /// (see [`Octree::bodies`]); an internal node has none.
    body_start: u32,
    body_len: u32,
}

impl Node {
    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.first_child == NO_CHILD
    }

    /// Cell edge length.
    pub fn width(&self) -> f64 {
        2.0 * self.half
    }
}

/// An octree over a set of point masses. The tree copies the positions and
/// masses it was built from so force traversals are self-contained.
#[derive(Debug, Clone)]
pub struct Octree {
    /// Arena of nodes; index 0 is the root.
    pub nodes: Vec<Node>,
    /// Positions of the bodies the tree indexes.
    pub pos: Vec<Vec3>,
    /// Masses of the bodies the tree indexes.
    pub mass: Vec<f64>,
    /// Every body index once, in tree order: each leaf's bodies are one
    /// contiguous run, and the runs follow the depth-first, octant-order
    /// walk of the leaves.
    order: Vec<u32>,
}

impl Octree {
    /// Build an octree over `positions`/`masses` with at most `leaf_cap`
    /// bodies per leaf (coincident points may exceed the cap at the depth
    /// limit).
    ///
    /// # Panics
    /// Panics if inputs are empty, lengths differ, or there are more than
    /// `u32::MAX` bodies.
    pub fn build(positions: &[Vec3], masses: &[f64], leaf_cap: usize) -> Octree {
        assert!(!positions.is_empty(), "octree needs at least one body");
        assert_eq!(positions.len(), masses.len());
        let n = u32::try_from(positions.len()).expect("an octree indexes bodies with u32");
        let leaf_cap = leaf_cap.max(1);

        // Bounding cube, slightly padded.
        let mut lo = positions[0];
        let mut hi = positions[0];
        for p in positions {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        let center = (lo + hi) * 0.5;
        let half = {
            let d = hi - lo;
            (d.x.max(d.y).max(d.z) * 0.5 * 1.0001).max(f64::MIN_POSITIVE)
        };

        let mut tree = Octree {
            nodes: Vec::with_capacity(positions.len() * 2),
            pos: positions.to_vec(),
            mass: masses.to_vec(),
            order: (0..n).collect(),
        };
        tree.nodes.push(Node {
            center,
            half,
            mass: 0.0,
            com: Vec3::ZERO,
            first_child: NO_CHILD,
            body_start: 0,
            body_len: n,
        });
        let mut scratch = vec![0u32; positions.len()];
        tree.subdivide(0, leaf_cap, 0, &mut scratch);
        tree.summarize(0);
        tree
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Number of bodies indexed.
    pub fn num_bodies(&self) -> usize {
        self.pos.len()
    }

    /// The body indices of leaf `node`, a run of the tree order (empty for
    /// an internal node).
    pub fn bodies(&self, node: &Node) -> &[u32] {
        let start = node.body_start as usize;
        &self.order[start..start + node.body_len as usize]
    }

    /// Split `node`'s run of the order into its 8 octants with a stable
    /// counting sort through `scratch`, push the 8 children, and recurse
    /// into each in octant order — the run stays a leaf if it fits
    /// `leaf_cap` or the depth cap is reached.
    fn subdivide(&mut self, node: u32, leaf_cap: usize, depth: u32, scratch: &mut [u32]) {
        let Node {
            center,
            half,
            body_start,
            body_len,
            ..
        } = self.nodes[node as usize];
        let len = body_len as usize;
        if len <= leaf_cap || depth >= MAX_DEPTH {
            return;
        }
        let pos = &self.pos;
        let octant = |i: u32| {
            let p = pos[i as usize];
            usize::from(p.x >= center.x)
                | (usize::from(p.y >= center.y) << 1)
                | (usize::from(p.z >= center.z) << 2)
        };
        let run = &mut self.order[body_start as usize..][..len];
        let mut counts = [0u32; 8];
        for &i in run.iter() {
            counts[octant(i)] += 1;
        }
        let mut next = [0usize; 8];
        for oct in 1..8 {
            next[oct] = next[oct - 1] + counts[oct - 1] as usize;
        }
        let sorted = &mut scratch[..len];
        for &i in run.iter() {
            let oct = octant(i);
            sorted[next[oct]] = i;
            next[oct] += 1;
        }
        run.copy_from_slice(sorted);

        let first = self.nodes.len() as u32;
        let parent = &mut self.nodes[node as usize];
        parent.first_child = first;
        parent.body_len = 0;
        let qh = half * 0.5;
        let mut child_start = body_start;
        for (oct, &count) in counts.iter().enumerate() {
            let off = Vec3::new(
                if oct & 1 != 0 { qh } else { -qh },
                if oct & 2 != 0 { qh } else { -qh },
                if oct & 4 != 0 { qh } else { -qh },
            );
            self.nodes.push(Node {
                center: center + off,
                half: qh,
                mass: 0.0,
                com: Vec3::ZERO,
                first_child: NO_CHILD,
                body_start: child_start,
                body_len: count,
            });
            child_start += count;
        }
        for child in first..first + 8 {
            self.subdivide(child, leaf_cap, depth + 1, scratch);
        }
    }

    /// Upward pass computing mass and centre of mass. Returns (mass, com·mass).
    fn summarize(&mut self, node: u32) -> (f64, Vec3) {
        let first = self.nodes[node as usize].first_child;
        let (mass, weighted) = if first == NO_CHILD {
            let mut m = 0.0;
            let mut w = Vec3::ZERO;
            for &b in self.bodies(&self.nodes[node as usize]) {
                m += self.mass[b as usize];
                w += self.pos[b as usize] * self.mass[b as usize];
            }
            (m, w)
        } else {
            let mut m = 0.0;
            let mut w = Vec3::ZERO;
            for c in first..first + 8 {
                let (cm, cw) = self.summarize(c);
                m += cm;
                w += cw;
            }
            (m, w)
        };
        let n = &mut self.nodes[node as usize];
        n.mass = mass;
        n.com = if mass > 0.0 {
            weighted / mass
        } else {
            n.center
        };
        (mass, weighted)
    }

    /// Body indices in canonical (depth-first, octant-order) tree order —
    /// the traversal order costzones partitioning slices.
    pub fn body_order(&self) -> Vec<u32> {
        self.order.clone()
    }
}

/// The pending nodes of a depth-first walk over a tree from
/// [`Octree::build`], held on the call stack: the depth cap bounds them by
/// [`WALK_STACK`].
pub struct WalkStack {
    slots: [u32; WALK_STACK],
    len: usize,
}

impl WalkStack {
    /// A walk that starts at the root.
    pub fn root() -> Self {
        WalkStack {
            slots: [0; WALK_STACK],
            len: 1,
        }
    }

    /// The next node to visit, if any.
    pub fn pop(&mut self) -> Option<u32> {
        self.len = self.len.checked_sub(1)?;
        Some(self.slots[self.len])
    }

    /// Push the 8 children starting at `first`; the last octant pops first.
    pub fn push_children(&mut self, first: u32) {
        for (slot, child) in self.slots[self.len..self.len + 8].iter_mut().zip(first..) {
            *slot = child;
        }
        self.len += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plummer::plummer;

    fn build_plummer(n: usize) -> Octree {
        let bodies = plummer(n, 11);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        Octree::build(&pos, &mass, 4)
    }

    #[test]
    fn root_summarises_everything() {
        let t = build_plummer(500);
        assert!((t.root().mass - 1.0).abs() < 1e-12);
        // COM near origin for a centred Plummer sphere.
        assert!(t.root().com.norm() < 1e-9);
    }

    #[test]
    fn every_body_in_exactly_one_leaf() {
        let t = build_plummer(300);
        let mut seen = vec![0u32; 300];
        for n in &t.nodes {
            if n.is_leaf() {
                for &b in t.bodies(n) {
                    seen[b as usize] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "bodies must appear exactly once"
        );
    }

    #[test]
    fn bodies_lie_within_their_leaf_cell() {
        let t = build_plummer(200);
        for n in &t.nodes {
            if n.is_leaf() {
                for &b in t.bodies(n) {
                    let p = t.pos[b as usize];
                    let d = p - n.center;
                    let tol = n.half * 1.0001 + 1e-12;
                    assert!(
                        d.x.abs() <= tol && d.y.abs() <= tol && d.z.abs() <= tol,
                        "body {b} outside its cell"
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_cap_respected() {
        let t = build_plummer(400);
        for n in &t.nodes {
            if n.is_leaf() {
                assert!(t.bodies(n).len() <= 4);
            }
        }
    }

    #[test]
    fn children_mass_sums_to_parent() {
        let t = build_plummer(300);
        for n in &t.nodes {
            if !n.is_leaf() {
                let s: f64 = (n.first_child..n.first_child + 8)
                    .map(|c| t.nodes[c as usize].mass)
                    .sum();
                assert!((s - n.mass).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn body_order_is_a_permutation() {
        let t = build_plummer(250);
        let mut order = t.body_order();
        assert_eq!(order.len(), 250);
        order.sort_unstable();
        for (i, &b) in order.iter().enumerate() {
            assert_eq!(b as usize, i);
        }
    }

    #[test]
    fn coincident_points_terminate() {
        let pos = vec![Vec3::new(0.5, 0.5, 0.5); 10];
        let mass = vec![0.1; 10];
        let t = Octree::build(&pos, &mass, 2);
        assert!((t.root().mass - 1.0).abs() < 1e-12);
        // One chain of splits down to the depth cap, 8 children a level;
        // the last leaf (octant 7 throughout) keeps all ten, over the cap.
        assert_eq!(t.nodes.len(), 1 + 8 * MAX_DEPTH as usize);
        assert_eq!(t.bodies(t.nodes.last().unwrap()).len(), 10);
        // θ = 0 opens every cell: the walk holds 7 siblings a level.
        let (a, n) = crate::force::accel_at(&t, Vec3::ZERO, 0.0, 0.05);
        assert_eq!(n, 10);
        assert!(a.x > 0.0);
    }

    #[test]
    fn single_body_tree() {
        let t = Octree::build(&[Vec3::new(1.0, 2.0, 3.0)], &[5.0], 4);
        assert_eq!(t.root().mass, 5.0);
        assert_eq!(t.root().com, Vec3::new(1.0, 2.0, 3.0));
        assert!(t.root().is_leaf());
    }
}

/// The builder and walks the arena replaced, kept as the oracle the arena
/// tree is held to: every leaf owns a `Vec` of its bodies, every split fills
/// 8 bucket `Vec`s, and every walk grows a `Vec` stack.
#[cfg(test)]
mod reference {
    use super::{MAX_DEPTH, NO_CHILD};
    use crate::force::pair_accel;
    use crate::lett::{box_dist, PseudoBody};
    use crate::orb::BBox;
    use crate::vec3::Vec3;

    pub struct Node {
        pub center: Vec3,
        pub half: f64,
        pub mass: f64,
        pub com: Vec3,
        pub first_child: u32,
        pub bodies: Vec<u32>,
    }

    pub struct Tree {
        pub nodes: Vec<Node>,
        pos: Vec<Vec3>,
        mass: Vec<f64>,
    }

    impl Tree {
        pub fn build(positions: &[Vec3], masses: &[f64], leaf_cap: usize) -> Tree {
            let mut lo = positions[0];
            let mut hi = positions[0];
            for p in positions {
                lo = lo.min(p);
                hi = hi.max(p);
            }
            let d = hi - lo;
            let half = (d.x.max(d.y).max(d.z) * 0.5 * 1.0001).max(f64::MIN_POSITIVE);
            let mut tree = Tree {
                nodes: vec![Node {
                    center: (lo + hi) * 0.5,
                    half,
                    mass: 0.0,
                    com: Vec3::ZERO,
                    first_child: NO_CHILD,
                    bodies: Vec::new(),
                }],
                pos: positions.to_vec(),
                mass: masses.to_vec(),
            };
            let all: Vec<u32> = (0..positions.len() as u32).collect();
            tree.subdivide(0, all, leaf_cap.max(1), 0);
            tree.summarize(0);
            tree
        }

        fn subdivide(&mut self, node: u32, idxs: Vec<u32>, leaf_cap: usize, depth: u32) {
            if idxs.len() <= leaf_cap || depth >= MAX_DEPTH {
                self.nodes[node as usize].bodies = idxs;
                return;
            }
            let (center, half) = (
                self.nodes[node as usize].center,
                self.nodes[node as usize].half,
            );
            let mut buckets: [Vec<u32>; 8] = Default::default();
            for i in idxs {
                let p = self.pos[i as usize];
                let oct = usize::from(p.x >= center.x)
                    | (usize::from(p.y >= center.y) << 1)
                    | (usize::from(p.z >= center.z) << 2);
                buckets[oct].push(i);
            }
            let first = self.nodes.len() as u32;
            self.nodes[node as usize].first_child = first;
            let qh = half * 0.5;
            for oct in 0..8 {
                let off = Vec3::new(
                    if oct & 1 != 0 { qh } else { -qh },
                    if oct & 2 != 0 { qh } else { -qh },
                    if oct & 4 != 0 { qh } else { -qh },
                );
                self.nodes.push(Node {
                    center: center + off,
                    half: qh,
                    mass: 0.0,
                    com: Vec3::ZERO,
                    first_child: NO_CHILD,
                    bodies: Vec::new(),
                });
            }
            for (oct, bucket) in buckets.into_iter().enumerate() {
                if !bucket.is_empty() {
                    self.subdivide(first + oct as u32, bucket, leaf_cap, depth + 1);
                }
            }
        }

        fn summarize(&mut self, node: u32) -> (f64, Vec3) {
            let first = self.nodes[node as usize].first_child;
            let mut m = 0.0;
            let mut w = Vec3::ZERO;
            if first == NO_CHILD {
                for &b in &self.nodes[node as usize].bodies {
                    m += self.mass[b as usize];
                    w += self.pos[b as usize] * self.mass[b as usize];
                }
            } else {
                for c in first..first + 8 {
                    let (cm, cw) = self.summarize(c);
                    m += cm;
                    w += cw;
                }
            }
            let n = &mut self.nodes[node as usize];
            n.mass = m;
            n.com = if m > 0.0 { w / m } else { n.center };
            (m, w)
        }

        pub fn body_order(&self) -> Vec<u32> {
            let mut order = Vec::new();
            let mut stack = vec![0u32];
            while let Some(n) = stack.pop() {
                let node = &self.nodes[n as usize];
                if node.is_leaf() {
                    order.extend_from_slice(&node.bodies);
                } else {
                    stack.extend((node.first_child..node.first_child + 8).rev());
                }
            }
            order
        }

        pub fn accel_at(&self, target: Vec3, theta: f64, eps: f64) -> (Vec3, u64) {
            let mut acc = Vec3::ZERO;
            let mut interactions = 0u64;
            let mut stack = vec![0u32];
            while let Some(ni) = stack.pop() {
                let node = &self.nodes[ni as usize];
                if node.mass == 0.0 {
                    continue;
                }
                if node.is_leaf() {
                    for &b in &node.bodies {
                        acc += pair_accel(target, self.pos[b as usize], self.mass[b as usize], eps);
                        interactions += 1;
                    }
                } else if node.width() < theta * node.com.dist(&target) {
                    acc += pair_accel(target, node.com, node.mass, eps);
                    interactions += 1;
                } else {
                    stack.extend(node.first_child..node.first_child + 8);
                }
            }
            (acc, interactions)
        }

        pub fn essential_for(&self, target: &BBox, theta: f64) -> Vec<PseudoBody> {
            let mut out = Vec::new();
            let mut stack = vec![0u32];
            while let Some(ni) = stack.pop() {
                let node = &self.nodes[ni as usize];
                if node.mass == 0.0 {
                    continue;
                }
                let h = Vec3::new(node.half, node.half, node.half);
                let cell = BBox {
                    min: node.center - h,
                    max: node.center + h,
                };
                let d = box_dist(target, &cell);
                if d > 0.0 && node.width() < theta * d {
                    out.push(PseudoBody {
                        pos: node.com,
                        mass: node.mass,
                    });
                } else if node.is_leaf() {
                    out.extend(node.bodies.iter().map(|&b| PseudoBody {
                        pos: self.pos[b as usize],
                        mass: self.mass[b as usize],
                    }));
                } else {
                    stack.extend(node.first_child..node.first_child + 8);
                }
            }
            out
        }
    }

    impl Node {
        fn is_leaf(&self) -> bool {
            self.first_child == NO_CHILD
        }

        fn width(&self) -> f64 {
            2.0 * self.half
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::reference;
    use super::*;
    use crate::force::accel_at;
    use crate::lett::essential_for;
    use crate::orb::BBox;
    use crate::plummer::plummer;
    use proptest::prelude::*;

    /// A Plummer cloud of `n` bodies with uneven masses. `dups` makes
    /// every run of `dups` consecutive bodies coincide (1: none); with
    /// `dups == n` every body sits on one point and a split never
    /// separates them, so the tree reaches the depth cap.
    fn cloud(n: usize, dups: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let bodies = plummer(n, seed);
        let pos = (0..n).map(|i| bodies[i / dups * dups].pos).collect();
        let mass = (0..n)
            .map(|i| bodies[i].mass * (1.0 + (i % 7) as f64))
            .collect();
        (pos, mass)
    }

    fn bits(v: Vec3) -> [u64; 3] {
        [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The arena tree has the reference's nodes, bit for bit, and each
        /// leaf's bodies in the same order; its body order, LET exports
        /// and force walks (θ = 0 opens every cell) are the reference's.
        #[test]
        fn the_arena_tree_matches_the_reference(
            n in 1usize..600,
            leaf_cap in 1usize..8,
            dups in 0usize..6,
            seed in 0u64..1000,
        ) {
            // dups = 0: every body on one point.
            let dups = if dups == 0 { n } else { dups.min(n) };
            let (pos, mass) = cloud(n, dups, seed);
            let tree = Octree::build(&pos, &mass, leaf_cap);
            let oracle = reference::Tree::build(&pos, &mass, leaf_cap);
            prop_assert_eq!(tree.nodes.len(), oracle.nodes.len());
            for (k, (a, b)) in tree.nodes.iter().zip(&oracle.nodes).enumerate() {
                prop_assert_eq!(bits(a.center), bits(b.center), "node {}", k);
                prop_assert_eq!(a.half.to_bits(), b.half.to_bits(), "node {}", k);
                prop_assert_eq!(a.mass.to_bits(), b.mass.to_bits(), "node {}", k);
                prop_assert_eq!(bits(a.com), bits(b.com), "node {}", k);
                prop_assert_eq!(a.first_child, b.first_child, "node {}", k);
                prop_assert_eq!(tree.bodies(a), &b.bodies[..], "node {}", k);
            }
            prop_assert_eq!(tree.body_order(), oracle.body_order());
            let boxes = [
                BBox { min: pos[0], max: pos[0] + Vec3::new(0.2, 0.2, 0.2) },
                BBox { min: Vec3::new(5.0, 5.0, 5.0), max: Vec3::new(6.0, 6.0, 6.0) },
            ];
            for target in &boxes {
                for theta in [0.0, 0.8] {
                    prop_assert_eq!(
                        essential_for(&tree, target, theta),
                        oracle.essential_for(target, theta)
                    );
                }
            }
            for target in [pos[0], pos[n / 2], Vec3::ZERO] {
                for theta in [0.0, 0.8] {
                    let (a, ka) = accel_at(&tree, target, theta, 0.05);
                    let (b, kb) = oracle.accel_at(target, theta, 0.05);
                    prop_assert_eq!((bits(a), ka), (bits(b), kb));
                }
            }
        }
    }
}
