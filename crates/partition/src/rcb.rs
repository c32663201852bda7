//! Recursive coordinate bisection.

use crate::WeightedPoint;

/// Partition `points` into `nparts` parts by recursive coordinate
/// bisection: at each level, split along the longer extent at the weighted
/// median, dividing the part budget proportionally (so non-power-of-two
/// part counts balance too). Returns the part id of each point.
///
/// Points are ordered by `(x, index)` and by `(y, index)` once; each level
/// splits the chosen axis' order in place and stable-partitions the other
/// axis' order by side, so a level costs O(n) and the whole O(n log n).
///
/// # Panics
/// Panics if `nparts` is zero.
pub fn rcb_partition(points: &[WeightedPoint], nparts: usize) -> Vec<u32> {
    assert!(nparts > 0, "need at least one part");
    let mut assignment = vec![0u32; points.len()];
    let mut by_x = sorted_by(points, |p| p.x);
    let mut by_y = sorted_by(points, |p| p.y);
    let mut split = Split {
        points,
        left: vec![false; points.len()],
        spill: Vec::with_capacity(points.len()),
        out: &mut assignment,
    };
    split.bisect(&mut by_x, &mut by_y, 0, nparts as u32);
    assignment
}

/// Point indices ascending by `(key, index)`: the order a per-subset
/// `partial_cmp` sort with ties on index gives. Keys are compared through
/// their order-preserving integer image, with `-0.0` folded into `0.0`
/// (which `partial_cmp` calls equal); for non-NaN keys this is a total
/// order, so the order of any subset is this order restricted to it.
fn sorted_by(points: &[WeightedPoint], key: impl Fn(&WeightedPoint) -> f64) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (ordered_bits(key(p)), i as u32))
        .collect();
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
struct Split<'a> {
    points: &'a [WeightedPoint],
    /// Side of each point at the current level (true = left).
    left: Vec<bool>,
    /// Scratch for the right side of a stable partition.
    spill: Vec<u32>,
    out: &'a mut [u32],
}

impl Split<'_> {
    /// Bisect the subset `by_x` / `by_y` (the same points in x and in y
    /// order) into parts `first_part..first_part + nparts`.
    fn bisect(&mut self, by_x: &mut [u32], by_y: &mut [u32], first_part: u32, nparts: u32) {
        if nparts == 1 || by_x.is_empty() {
            for &i in by_x.iter() {
                self.out[i as usize] = first_part;
            }
            return;
        }
        // Choose the axis with the larger extent: the ends of each order,
        // clamped as a fold of `min` from `f64::MAX` / `max` from `f64::MIN`
        // over the subset would be.
        let ends = |order: &[u32]| {
            let (lo, hi) = (order[0], order[order.len() - 1]);
            (self.points[lo as usize], self.points[hi as usize])
        };
        let ((x_lo, x_hi), (y_lo, y_hi)) = (ends(by_x), ends(by_y));
        let along_x = (f64::MIN.max(x_hi.x) - f64::MAX.min(x_lo.x))
            >= (f64::MIN.max(y_hi.y) - f64::MAX.min(y_lo.y));
        let (order, other) = if along_x { (by_x, by_y) } else { (by_y, by_x) };

        // Split the part budget, then find the weighted split position that
        // matches the budget ratio.
        let left_parts = nparts / 2;
        let right_parts = nparts - left_parts;
        let total_w: f64 = order.iter().map(|&i| self.points[i as usize].w).sum();
        let target = total_w * left_parts as f64 / nparts as f64;
        let mut acc = 0.0;
        let mut split = 0;
        for (k, &i) in order.iter().enumerate() {
            if acc >= target && k > 0 {
                break;
            }
            acc += self.points[i as usize].w;
            split = k + 1;
        }
        // Keep both sides non-empty when possible.
        split = split.clamp(
            usize::from(order.len() > 1),
            order.len() - usize::from(order.len() > 1),
        );

        // Carry the split over to the other axis' order, keeping it sorted.
        for (k, &i) in order.iter().enumerate() {
            self.left[i as usize] = k < split;
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

        let (order_l, order_r) = order.split_at_mut(split);
        let (other_l, other_r) = other.split_at_mut(split);
        let (x_l, y_l, x_r, y_r) = if along_x {
            (order_l, other_l, order_r, other_r)
        } else {
            (other_l, order_l, other_r, order_r)
        };
        self.bisect(x_l, y_l, first_part, left_parts);
        self.bisect(x_r, y_r, first_part + left_parts, right_parts);
    }
}

/// The straightforward bisection that sorts each subset afresh at every
/// level, kept as the equivalence oracle.
#[cfg(test)]
fn rcb_partition_oracle(points: &[WeightedPoint], nparts: usize) -> Vec<u32> {
    fn bisect(
        points: &[WeightedPoint],
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
        let (mut min_x, mut max_x) = (f64::MAX, f64::MIN);
        let (mut min_y, mut max_y) = (f64::MAX, f64::MIN);
        for &i in idx.iter() {
            let p = &points[i as usize];
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let along_x = (max_x - min_x) >= (max_y - min_y);
        let key = |i: u32| {
            let p = &points[i as usize];
            if along_x {
                p.x
            } else {
                p.y
            }
        };
        idx.sort_unstable_by(|&a, &b| {
            key(a)
                .partial_cmp(&key(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let left_parts = nparts / 2;
        let right_parts = nparts - left_parts;
        let total_w: f64 = idx.iter().map(|&i| points[i as usize].w).sum();
        let target = total_w * left_parts as f64 / nparts as f64;
        let mut acc = 0.0;
        let mut split = 0;
        for (k, &i) in idx.iter().enumerate() {
            if acc >= target && k > 0 {
                break;
            }
            acc += points[i as usize].w;
            split = k + 1;
        }
        split = split.clamp(
            usize::from(idx.len() > 1),
            idx.len() - usize::from(idx.len() > 1),
        );
        let (left, right) = idx.split_at_mut(split);
        bisect(points, left, first_part, left_parts, out);
        bisect(points, right, first_part + left_parts, right_parts, out);
    }
    let mut assignment = vec![0u32; points.len()];
    let mut idx: Vec<u32> = (0..points.len() as u32).collect();
    bisect(points, &mut idx, 0, nparts as u32, &mut assignment);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sort-once bisection assigns every point exactly as the
        /// per-level-sort oracle does: duplicated coordinates, zero and
        /// unequal weights, any part count.
        #[test]
        fn rcb_matches_the_per_level_sort_oracle(
            cells in proptest::collection::vec(
                (0u32..12, 0u32..12, 0u32..4, any::<bool>()),
                0..400,
            ),
            nparts in 1usize..34,
            stretch in 0.1f64..10.0,
        ) {
            // Coordinates on a coarse lattice around 0 collide often, with
            // `-0.0` and `0.0` both present; weight 0 is one in four.
            let coord = |v: u32, negative_zero: bool| {
                if v == 6 && negative_zero {
                    -0.0
                } else {
                    (f64::from(v) - 6.0) * stretch
                }
            };
            let pts: Vec<WeightedPoint> = cells
                .iter()
                .map(|&(x, y, w, nz)| {
                    WeightedPoint::new(coord(x, nz), coord(y, !nz), f64::from(w) * 0.75)
                })
                .collect();
            prop_assert_eq!(rcb_partition(&pts, nparts), rcb_partition_oracle(&pts, nparts));
        }
    }
}
