//! Space-filling-curve partitioning (Morton and Hilbert).
//!
//! Points are quantised onto a 2^16 × 2^16 grid, ordered along the curve,
//! and the ordered sequence is cut into `nparts` contiguous, weight-balanced
//! chunks. SFC partitions are cheap to compute and incrementally stable —
//! the property the PLUM papers exploit for adaptive meshes.

use crate::WeightedPoint;

/// Bits of resolution per dimension.
const BITS: u32 = 16;

/// Interleave the low 16 bits of `x` and `y` (Morton / Z-order key).
fn morton_key(x: u16, y: u16) -> u32 {
    part1by1(u32::from(x)) | (part1by1(u32::from(y)) << 1)
}

fn part1by1(mut v: u32) -> u32 {
    v &= 0x0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333;
    v = (v | (v << 1)) & 0x5555_5555;
    v
}

/// Hilbert curve distance of cell `(x, y)` on the 2^16 grid (Butz/Lam-Shapiro
/// iterative rotation algorithm).
fn hilbert_key(x: u16, y: u16) -> u32 {
    let n: u32 = 1 << BITS;
    let (mut x, mut y) = (u32::from(x), u32::from(y));
    let mut d: u32 = 0;
    let mut s: u32 = n / 2;
    while s > 0 {
        let rx = u32::from((x & s) > 0);
        let ry = u32::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate the quadrant so the sub-curve is oriented canonically.
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

fn quantise(points: &[WeightedPoint]) -> Vec<(u16, u16)> {
    let (mut min_x, mut max_x) = (f64::MAX, f64::MIN);
    let (mut min_y, mut max_y) = (f64::MAX, f64::MIN);
    for p in points {
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    let scale = f64::from((1u32 << BITS) - 1);
    let sx = if max_x > min_x {
        scale / (max_x - min_x)
    } else {
        0.0
    };
    let sy = if max_y > min_y {
        scale / (max_y - min_y)
    } else {
        0.0
    };
    points
        .iter()
        .map(|p| (((p.x - min_x) * sx) as u16, ((p.y - min_y) * sy) as u16))
        .collect()
}

fn curve_partition<K: Fn(u16, u16) -> u32>(
    points: &[WeightedPoint],
    nparts: usize,
    key: K,
) -> Vec<u32> {
    let cells = quantise(points);
    let mut order: Vec<u32> = (0..points.len() as u32).collect();
    order.sort_unstable_by_key(|&i| {
        let (x, y) = cells[i as usize];
        (key(x, y), i)
    });
    cut_order(&order, |i| points[i].w, nparts)
}

/// Cut `order`, a permutation of `0..order.len()`, into `nparts`
/// contiguous chunks of about equal weight; returns the part of each
/// index. Each chunk closes once it holds its share of the weight not yet
/// assigned; when the total weight is not positive, the chunks hold equal
/// counts instead. This is the cut of both curve partitioners and of
/// `nbody`'s costzones (on the octree's body order).
///
/// # Panics
/// Panics if `nparts` is zero.
pub fn cut_order(order: &[u32], weight: impl Fn(usize) -> f64, nparts: usize) -> Vec<u32> {
    assert!(nparts > 0, "need at least one part");
    let n = order.len();
    let total: f64 = (0..n).map(&weight).sum();
    let mut assignment = vec![0u32; n];
    if total <= 0.0 {
        for (k, &i) in order.iter().enumerate() {
            assignment[i as usize] = (k * nparts / n) as u32;
        }
        return assignment;
    }
    let mut acc = 0.0;
    let mut part = 0u32;
    let mut budget = total / nparts as f64;
    let mut spent_before = 0.0;
    for &i in order {
        if part + 1 < nparts as u32 && acc - spent_before >= budget {
            spent_before = acc;
            part += 1;
            budget = (total - acc) / (nparts as u32 - part) as f64;
        }
        assignment[i as usize] = part;
        acc += weight(i as usize);
    }
    assignment
}

/// Morton (Z-order) partition of weighted points into `nparts`.
pub fn morton_partition(points: &[WeightedPoint], nparts: usize) -> Vec<u32> {
    curve_partition(points, nparts, morton_key)
}

/// Hilbert-curve partition of weighted points into `nparts`.
pub fn hilbert_partition(points: &[WeightedPoint], nparts: usize) -> Vec<u32> {
    curve_partition(points, nparts, hilbert_key)
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

    #[test]
    fn morton_key_interleaves() {
        assert_eq!(morton_key(0, 0), 0);
        assert_eq!(morton_key(1, 0), 1);
        assert_eq!(morton_key(0, 1), 2);
        assert_eq!(morton_key(1, 1), 3);
        assert_eq!(morton_key(2, 0), 4);
        assert_eq!(morton_key(0xFFFF, 0xFFFF), u32::MAX);
    }

    #[test]
    fn hilbert_visits_each_cell_once_4x4() {
        // On a 4x4 subgrid scaled to the full resolution, keys of distinct
        // cells are distinct.
        let mut keys = Vec::new();
        for y in 0..4u16 {
            for x in 0..4u16 {
                keys.push(hilbert_key(x << 14, y << 14));
            }
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 16);
    }

    #[test]
    fn hilbert_neighbours_are_adjacent_cells() {
        // Consecutive Hilbert indices on a 2^k grid are grid neighbours —
        // the locality property Morton lacks. Spot-check on an 8x8 grid.
        let k = 13; // scale 8 cells across 16 bits
        let mut by_key: Vec<((u16, u16), u32)> = Vec::new();
        for y in 0..8u16 {
            for x in 0..8u16 {
                by_key.push(((x, y), hilbert_key(x << k, y << k)));
            }
        }
        by_key.sort_by_key(|&(_, d)| d);
        for w in by_key.windows(2) {
            let ((x0, y0), _) = w[0];
            let ((x1, y1), _) = w[1];
            let manhattan =
                (i32::from(x0) - i32::from(x1)).abs() + (i32::from(y0) - i32::from(y1)).abs();
            assert_eq!(manhattan, 1, "cells {:?} {:?} not adjacent", w[0], w[1]);
        }
    }

    #[test]
    fn partitions_balance_unit_weights() {
        let pts = grid(16); // 256 points
        for nparts in [2, 4, 7] {
            for part_fn in [morton_partition, hilbert_partition] {
                let a = part_fn(&pts, nparts);
                let mut loads = vec![0usize; nparts];
                for &p in &a {
                    loads[p as usize] += 1;
                }
                let fair = 256 / nparts;
                for &l in &loads {
                    assert!(
                        l.abs_diff(fair) <= fair / 2 + 2,
                        "nparts={nparts}: {loads:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_chunks_are_contiguous_on_curve() {
        let pts = grid(8);
        let a = hilbert_partition(&pts, 4);
        // Walk the curve order: part ids must be non-decreasing.
        let cells = quantise(&pts);
        let mut order: Vec<u32> = (0..pts.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let (x, y) = cells[i as usize];
            (hilbert_key(x, y), i)
        });
        let parts: Vec<u32> = order.iter().map(|&i| a[i as usize]).collect();
        assert!(parts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn weighted_cuts_respect_weights() {
        let mut pts = grid(8);
        for p in pts.iter_mut().take(8) {
            p.w = 10.0;
        }
        let a = morton_partition(&pts, 2);
        let mut loads = [0.0f64; 2];
        for (i, &p) in a.iter().enumerate() {
            loads[p as usize] += pts[i].w;
        }
        let total: f64 = pts.iter().map(|p| p.w).sum();
        assert!((loads[0] / total - 0.5).abs() < 0.2, "{loads:?}");
    }

    #[test]
    fn zero_weights_use_every_part() {
        // No weight to balance: the cut falls back to equal counts, so no
        // part is left empty while there are points for it.
        let mut pts = grid(4);
        for p in &mut pts {
            p.w = 0.0;
        }
        for part_fn in [morton_partition, hilbert_partition] {
            for (n, nparts) in [(10, 4), (16, 16), (16, 3)] {
                let mut counts = vec![0usize; nparts];
                for &p in &part_fn(&pts[..n], nparts) {
                    counts[p as usize] += 1;
                }
                let fair = n / nparts;
                assert!(
                    counts.iter().all(|&c| c == fair || c == fair + 1),
                    "n={n} nparts={nparts}: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_identical_points() {
        let pts = vec![WeightedPoint::new(1.0, 1.0, 1.0); 10];
        let a = hilbert_partition(&pts, 3);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&p| p < 3));
    }
}
