//! Recursive coordinate bisection, in any number of dimensions.
//!
//! [`rcb_partition`] splits 2-D weighted points (the AMR dual's
//! centroids); [`rcb_partition_by`] is the same bisection over `D`
//! coordinates, which `nbody::orb` runs at `D = 3` as ORB.

use crate::WeightedPoint;

/// Partition `points` into `nparts` parts by recursive coordinate
/// bisection: at each level, split along the longer extent at the weighted
/// median, dividing the part budget proportionally (so non-power-of-two
/// part counts balance too). Returns the part id of each point.
///
/// # Panics
/// Panics if `nparts` is zero.
pub fn rcb_partition(points: &[WeightedPoint], nparts: usize) -> Vec<u32> {
    rcb_partition_by(
        points.len(),
        |i| [points[i].x, points[i].y],
        |i| points[i].w,
        nparts,
    )
}

/// Partition points `0..n` into `nparts` parts by recursive bisection in
/// `D` dimensions: point `i` sits at `coords(i)` with work `weight(i)`.
/// Each level cuts along the first axis of largest extent, where the
/// weight before the cut first reaches the share of the left half of the
/// part budget (both sides kept non-empty when possible). Returns the
/// part id of each point.
///
/// Points are ordered by `(coordinate, index)` along each axis once; each
/// level splits the chosen axis' order in place and stable-partitions the
/// other orders by side, so a level costs O(D·n), the whole O(D·n log n),
/// and nothing is allocated below the top.
///
/// # Panics
/// Panics if `nparts` is zero.
pub fn rcb_partition_by<const D: usize>(
    n: usize,
    coords: impl Fn(usize) -> [f64; D],
    weight: impl Fn(usize) -> f64,
    nparts: usize,
) -> Vec<u32> {
    assert!(nparts > 0, "need at least one part");
    let mut assignment = vec![0u32; n];
    let mut sorted: [Vec<u32>; D] = std::array::from_fn(|a| sorted_by(n, |i| coords(i)[a]));
    let mut split = Split {
        coords,
        weight,
        left: vec![false; n],
        spill: Vec::with_capacity(n),
        out: &mut assignment,
    };
    split.bisect(
        sorted.each_mut().map(|v| v.as_mut_slice()),
        0,
        nparts as u32,
    );
    assignment
}

/// Indices `0..n` ascending by `(key, index)`: the order a per-subset
/// `partial_cmp` sort with ties on index gives. Keys are compared through
/// their order-preserving integer image, with `-0.0` folded into `0.0`
/// (which `partial_cmp` calls equal); for non-NaN keys this is a total
/// order, so the order of any subset is this order restricted to it.
fn sorted_by(n: usize, key: impl Fn(usize) -> f64) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = (0..n).map(|i| (ordered_bits(key(i)), i as u32)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// An integer whose order is `x`'s numeric order (`-0.0 == 0.0`).
#[inline]
fn ordered_bits(x: f64) -> u64 {
    let b = (x + 0.0).to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// The state one bisection shares with its recursive calls.
struct Split<'a, C, W> {
    coords: C,
    weight: W,
    /// Side of each point at the current level (true = left).
    left: Vec<bool>,
    /// Scratch for the right side of a stable partition.
    spill: Vec<u32>,
    out: &'a mut [u32],
}

impl<const D: usize, C, W> Split<'_, C, W>
where
    C: Fn(usize) -> [f64; D],
    W: Fn(usize) -> f64,
{
    /// Bisect the subset `orders` (the same points in each axis' order)
    /// into parts `first_part..first_part + nparts`.
    fn bisect(&mut self, mut orders: [&mut [u32]; D], first_part: u32, nparts: u32) {
        if nparts == 1 || orders[0].is_empty() {
            for &i in orders[0].iter() {
                self.out[i as usize] = first_part;
            }
            return;
        }
        // Choose the first axis of largest extent: the ends of each order,
        // clamped as a fold of `min` from `f64::MAX` / `max` from `f64::MIN`
        // over the subset would be.
        let extent = |a: usize| {
            let order = &orders[a];
            let lo = (self.coords)(order[0] as usize)[a];
            let hi = (self.coords)(order[order.len() - 1] as usize)[a];
            f64::MIN.max(hi) - f64::MAX.min(lo)
        };
        let mut axis = 0;
        let mut widest = extent(0);
        for a in 1..D {
            let e = extent(a);
            if e > widest {
                (axis, widest) = (a, e);
            }
        }

        // Split the part budget, then find the weighted split position that
        // matches the budget ratio.
        let order = &orders[axis];
        let left_parts = nparts / 2;
        let right_parts = nparts - left_parts;
        let total_w: f64 = order.iter().map(|&i| (self.weight)(i as usize)).sum();
        let target = total_w * left_parts as f64 / nparts as f64;
        let mut acc = 0.0;
        let mut split = 0;
        for (k, &i) in order.iter().enumerate() {
            if acc >= target && k > 0 {
                break;
            }
            acc += (self.weight)(i as usize);
            split = k + 1;
        }
        // Keep both sides non-empty when possible.
        split = split.clamp(
            usize::from(order.len() > 1),
            order.len() - usize::from(order.len() > 1),
        );

        // Carry the split over to the other axes' orders, keeping each
        // sorted.
        for (k, &i) in order.iter().enumerate() {
            self.left[i as usize] = k < split;
        }
        for (a, other) in orders.iter_mut().enumerate() {
            if a == axis {
                continue;
            }
            self.spill.clear();
            let mut kept = 0;
            for k in 0..other.len() {
                let i = other[k];
                if self.left[i as usize] {
                    other[kept] = i;
                    kept += 1;
                } else {
                    self.spill.push(i);
                }
            }
            other[kept..].copy_from_slice(&self.spill);
        }

        let mut right: [&mut [u32]; D] = std::array::from_fn(|_| Default::default());
        for (l, r) in orders.iter_mut().zip(&mut right) {
            (*l, *r) = std::mem::take(l).split_at_mut(split);
        }
        self.bisect(orders, first_part, left_parts);
        self.bisect(right, first_part + left_parts, right_parts);
    }
}

/// The straightforward bisection that sorts each subset afresh at every
/// level, kept as the equivalence oracle: the longest axis is the first
/// whose extent is at least every other's.
#[cfg(test)]
fn rcb_oracle<const D: usize>(
    n: usize,
    coords: impl Fn(usize) -> [f64; D],
    weight: impl Fn(usize) -> f64,
    nparts: usize,
) -> Vec<u32> {
    fn bisect<const D: usize>(
        coords: &dyn Fn(usize) -> [f64; D],
        weight: &dyn Fn(usize) -> f64,
        idx: &mut [u32],
        first_part: u32,
        nparts: u32,
        out: &mut [u32],
    ) {
        if nparts == 1 || idx.is_empty() {
            for &i in idx.iter() {
                out[i as usize] = first_part;
            }
            return;
        }
        let (mut min, mut max) = ([f64::MAX; D], [f64::MIN; D]);
        for &i in idx.iter() {
            let p = coords(i as usize);
            for a in 0..D {
                min[a] = min[a].min(p[a]);
                max[a] = max[a].max(p[a]);
            }
        }
        let ext: [f64; D] = std::array::from_fn(|a| max[a] - min[a]);
        let axis = (0..D)
            .find(|&a| ext.iter().all(|&e| ext[a] >= e))
            .expect("extents are never NaN");
        let key = |i: u32| coords(i as usize)[axis];
        idx.sort_unstable_by(|&a, &b| {
            key(a)
                .partial_cmp(&key(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let left_parts = nparts / 2;
        let right_parts = nparts - left_parts;
        let total_w: f64 = idx.iter().map(|&i| weight(i as usize)).sum();
        let target = total_w * left_parts as f64 / nparts as f64;
        let mut acc = 0.0;
        let mut split = 0;
        for (k, &i) in idx.iter().enumerate() {
            if acc >= target && k > 0 {
                break;
            }
            acc += weight(i as usize);
            split = k + 1;
        }
        split = split.clamp(
            usize::from(idx.len() > 1),
            idx.len() - usize::from(idx.len() > 1),
        );
        let (left, right) = idx.split_at_mut(split);
        bisect(coords, weight, left, first_part, left_parts, out);
        bisect(
            coords,
            weight,
            right,
            first_part + left_parts,
            right_parts,
            out,
        );
    }
    let mut assignment = vec![0u32; n];
    let mut idx: Vec<u32> = (0..n as u32).collect();
    bisect(
        &coords,
        &weight,
        &mut idx,
        0,
        nparts as u32,
        &mut assignment,
    );
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<WeightedPoint> {
        let mut pts = Vec::new();
        for j in 0..n {
            for i in 0..n {
                pts.push(WeightedPoint::new(i as f64, j as f64, 1.0));
            }
        }
        pts
    }

    fn loads(assign: &[u32], pts: &[WeightedPoint], nparts: usize) -> Vec<f64> {
        let mut l = vec![0.0; nparts];
        for (i, &p) in assign.iter().enumerate() {
            l[p as usize] += pts[i].w;
        }
        l
    }

    #[test]
    fn uniform_grid_splits_evenly() {
        let pts = grid(8); // 64 points
        for nparts in [1, 2, 4, 8] {
            let a = rcb_partition(&pts, nparts);
            let l = loads(&a, &pts, nparts);
            for w in &l {
                assert_eq!(*w, 64.0 / nparts as f64, "nparts={nparts}: {l:?}");
            }
        }
    }

    #[test]
    fn non_power_of_two_parts_balance() {
        let pts = grid(9); // 81 points
        let a = rcb_partition(&pts, 3);
        let l = loads(&a, &pts, 3);
        assert_eq!(l, vec![27.0, 27.0, 27.0]);
    }

    #[test]
    fn all_parts_used() {
        let pts = grid(6);
        for nparts in [2, 3, 5, 7] {
            let a = rcb_partition(&pts, nparts);
            let mut used: Vec<u32> = a.clone();
            used.sort_unstable();
            used.dedup();
            assert_eq!(used.len(), nparts, "nparts={nparts}");
            assert!(a.iter().all(|&p| (p as usize) < nparts));
        }
    }

    #[test]
    fn weighted_median_respects_weights() {
        // One very heavy point on the left: with 2 parts, the heavy point
        // should sit alone (or nearly) in its part.
        let mut pts = grid(4);
        pts[0].w = 100.0;
        let a = rcb_partition(&pts, 2);
        let l = loads(&a, &pts, 2);
        let ratio = l[0].max(l[1]) / (l[0] + l[1]);
        assert!(ratio < 0.95, "heavy point dominates one side: {l:?}");
    }

    #[test]
    fn partition_is_geometric() {
        // RCB parts are contiguous in space: for 2 parts split on x, every
        // left-part point is left of every right-part point.
        let pts = grid(8);
        let a = rcb_partition(&pts, 2);
        let max0 = pts
            .iter()
            .zip(&a)
            .filter(|(_, &p)| p == 0)
            .map(|(pt, _)| pt.x)
            .fold(f64::MIN, f64::max);
        let min1 = pts
            .iter()
            .zip(&a)
            .filter(|(_, &p)| p == 1)
            .map(|(pt, _)| pt.x)
            .fold(f64::MAX, f64::min);
        assert!(max0 <= min1);
    }

    #[test]
    fn single_point() {
        let pts = vec![WeightedPoint::new(0.5, 0.5, 2.0)];
        let a = rcb_partition(&pts, 4);
        assert_eq!(a.len(), 1);
        assert!(a[0] < 4);
    }

    #[test]
    fn deterministic() {
        let pts = grid(7);
        assert_eq!(rcb_partition(&pts, 5), rcb_partition(&pts, 5));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every point is assigned a valid part, and with unit weights no
        /// part exceeds twice its fair share (RCB's worst case is far
        /// better, but this guards regressions cheaply).
        #[test]
        fn rcb_assignment_valid(
            xs in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 8..200),
            nparts in 1usize..9,
        ) {
            let pts: Vec<WeightedPoint> =
                xs.iter().map(|&(x, y)| WeightedPoint::new(x, y, 1.0)).collect();
            let a = rcb_partition(&pts, nparts);
            prop_assert_eq!(a.len(), pts.len());
            prop_assert!(a.iter().all(|&p| (p as usize) < nparts));
            if pts.len() >= nparts * 4 {
                let mut loads = vec![0.0f64; nparts];
                for (i, &p) in a.iter().enumerate() {
                    loads[p as usize] += pts[i].w;
                }
                let fair = pts.len() as f64 / nparts as f64;
                for l in loads {
                    prop_assert!(l <= 2.0 * fair + 1.0, "load {l} vs fair {fair}");
                }
            }
        }
    }

    /// A coarse lattice around 0, so coordinates collide often, with
    /// `-0.0` beside `0.0` where `negative_zero` says.
    fn lattice(v: u32, negative_zero: bool, stretch: f64) -> f64 {
        if v == 6 && negative_zero {
            -0.0
        } else {
            (f64::from(v) - 6.0) * stretch
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sort-once bisection assigns every point exactly as the
        /// per-level-sort oracle does in 2-D: duplicated coordinates, zero
        /// and unequal weights, any part count.
        #[test]
        fn rcb_matches_the_per_level_sort_oracle(
            cells in proptest::collection::vec(
                (0u32..12, 0u32..12, 0u32..4, any::<bool>()),
                0..400,
            ),
            nparts in 1usize..41,
            stretch in 0.1f64..10.0,
        ) {
            // Weight 0 is one in four.
            let pts: Vec<WeightedPoint> = cells
                .iter()
                .map(|&(x, y, w, nz)| {
                    WeightedPoint::new(
                        lattice(x, nz, stretch),
                        lattice(y, !nz, stretch),
                        f64::from(w) * 0.75,
                    )
                })
                .collect();
            let oracle = rcb_oracle(pts.len(), |i| [pts[i].x, pts[i].y], |i| pts[i].w, nparts);
            prop_assert_eq!(rcb_partition(&pts, nparts), oracle);
        }

        /// The same in 3-D, the dimension ORB cuts in.
        #[test]
        fn rcb_matches_the_per_level_sort_oracle_in_3d(
            cells in proptest::collection::vec(
                (0u32..12, 0u32..12, 0u32..12, 0u32..4, 0u8..8),
                0..400,
            ),
            nparts in 1usize..41,
            stretch in 0.1f64..10.0,
        ) {
            let pts: Vec<([f64; 3], f64)> = cells
                .iter()
                .map(|&(x, y, z, w, nz)| {
                    let c = [x, y, z];
                    (
                        std::array::from_fn(|a| lattice(c[a], nz >> a & 1 == 1, stretch)),
                        f64::from(w) * 0.75,
                    )
                })
                .collect();
            let (coords, weight) = (|i: usize| pts[i].0, |i: usize| pts[i].1);
            prop_assert_eq!(
                rcb_partition_by(pts.len(), coords, weight, nparts),
                rcb_oracle(pts.len(), coords, weight, nparts)
            );
        }
    }
}
