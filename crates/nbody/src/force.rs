//! Barnes-Hut force evaluation and the direct-sum reference.

use crate::octree::{Octree, WalkStack, NO_CHILD};
use crate::vec3::Vec3;

/// Acceleration on a test position from a point mass at `src` with
/// Plummer softening `eps` (zero self-contribution at `d == 0`).
#[inline]
pub fn pair_accel(target: Vec3, src: Vec3, mass: f64, eps: f64) -> Vec3 {
    let d = src - target;
    let r2 = d.norm2() + eps * eps;
    if r2 == 0.0 {
        return Vec3::ZERO;
    }
    d * (mass / (r2 * r2.sqrt()))
}

/// Barnes-Hut acceleration at `target` using opening angle `theta`.
/// Returns the acceleration and the number of interactions evaluated
/// (the per-body work measure costzones feeds on).
pub fn accel_at(tree: &Octree, target: Vec3, theta: f64, eps: f64) -> (Vec3, u64) {
    let mut acc = Vec3::ZERO;
    let mut interactions = 0u64;
    let mut stack = WalkStack::root();
    while let Some(ni) = stack.pop() {
        let node = &tree.nodes[ni as usize];
        if node.mass == 0.0 {
            continue;
        }
        if node.is_leaf() {
            for &b in tree.bodies(node) {
                acc += pair_accel(target, tree.pos[b as usize], tree.mass[b as usize], eps);
                interactions += 1;
            }
            continue;
        }
        let d = node.com.dist(&target);
        if node.width() < theta * d {
            acc += pair_accel(target, node.com, node.mass, eps);
            interactions += 1;
        } else {
            debug_assert_ne!(node.first_child, NO_CHILD);
            stack.push_children(node.first_child);
        }
    }
    (acc, interactions)
}

/// Direct O(N²) accelerations — the accuracy reference.
pub fn direct_accels(positions: &[Vec3], masses: &[f64], eps: f64) -> Vec<Vec3> {
    let n = positions.len();
    let mut acc = vec![Vec3::ZERO; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                acc[i] += pair_accel(positions[i], positions[j], masses[j], eps);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plummer::plummer;

    fn setup(n: usize) -> (Vec<Vec3>, Vec<f64>, Octree) {
        let bodies = plummer(n, 5);
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = Octree::build(&pos, &mass, 4);
        (pos, mass, tree)
    }

    fn rel_err(a: &[Vec3], b: &[Vec3]) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (x, y) in a.iter().zip(b) {
            num += (*x - *y).norm2();
            den += y.norm2();
        }
        (num / den).sqrt()
    }

    #[test]
    fn two_bodies_inverse_square() {
        let pos = vec![Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)];
        let mass = vec![1.0, 1.0];
        let tree = Octree::build(&pos, &mass, 1);
        let (a, _) = accel_at(&tree, pos[0], 0.5, 0.0);
        assert!((a.x - 0.25).abs() < 1e-12, "1/r² at r=2: {a:?}");
        assert!(a.y.abs() < 1e-12 && a.z.abs() < 1e-12);
    }

    #[test]
    fn small_theta_matches_direct() {
        let (pos, mass, tree) = setup(300);
        let direct = direct_accels(&pos, &mass, 0.05);
        let bh: Vec<Vec3> = pos
            .iter()
            .map(|p| accel_at(&tree, *p, 0.2, 0.05).0)
            .collect();
        let err = rel_err(&bh, &direct);
        assert!(err < 0.01, "theta=0.2 relative error {err}");
    }

    #[test]
    fn accuracy_degrades_monotonically_with_theta() {
        let (pos, mass, tree) = setup(300);
        let direct = direct_accels(&pos, &mass, 0.05);
        let err_at = |theta: f64| {
            let bh: Vec<Vec3> = pos
                .iter()
                .map(|p| accel_at(&tree, *p, theta, 0.05).0)
                .collect();
            rel_err(&bh, &direct)
        };
        let (e_small, e_big) = (err_at(0.3), err_at(1.2));
        assert!(e_small < e_big, "{e_small} !< {e_big}");
        assert!(e_big < 0.2, "even theta=1.2 stays in the ballpark: {e_big}");
    }

    #[test]
    fn interactions_shrink_with_larger_theta() {
        let (pos, _, tree) = setup(500);
        let count =
            |theta: f64| -> u64 { pos.iter().map(|p| accel_at(&tree, *p, theta, 0.05).1).sum() };
        let (tight, loose) = (count(0.3), count(1.0));
        assert!(loose < tight, "{loose} !< {tight}");
        // And far fewer than direct N².
        assert!(loose < 500 * 500 / 2);
    }

    #[test]
    fn self_contribution_is_zero() {
        let pos = vec![Vec3::new(1.0, 1.0, 1.0)];
        let mass = vec![3.0];
        let tree = Octree::build(&pos, &mass, 1);
        let (a, _) = accel_at(&tree, pos[0], 0.5, 0.1);
        assert_eq!(a, Vec3::ZERO);
    }
}
