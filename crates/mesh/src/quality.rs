//! Element-quality metrics.
//!
//! The paper family tracks how repeated adaptation affects mesh quality
//! (red splits preserve shape; green splits degrade it), so the harness
//! reports these numbers alongside performance.

use crate::adaptive::AdaptiveMesh;
use crate::geom::{self, Point2};

/// Ratio of longest to shortest edge of a triangle (1 is equilateral-ish).
fn aspect_ratio(a: &Point2, b: &Point2, c: &Point2) -> f64 {
    let e = [a.dist(b), b.dist(c), a.dist(c)];
    let longest = e.iter().cloned().fold(f64::MIN, f64::max);
    let shortest = e.iter().cloned().fold(f64::MAX, f64::min);
    longest / shortest.max(f64::MIN_POSITIVE)
}

/// Aggregate quality over a mesh's active triangles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityStats {
    /// Smallest interior angle anywhere, degrees.
    pub min_angle_deg: f64,
    /// Largest interior angle anywhere, degrees.
    pub max_angle_deg: f64,
    /// Mean over triangles of each triangle's smallest angle, degrees.
    pub mean_min_angle_deg: f64,
    /// Worst (largest) edge-length aspect ratio.
    pub worst_aspect: f64,
}

/// Compute [`QualityStats`] for `mesh`.
///
/// # Panics
/// Panics if the mesh has no active triangles.
pub fn mesh_quality(mesh: &AdaptiveMesh) -> QualityStats {
    let active = mesh.active_tris();
    assert!(!active.is_empty(), "quality of an empty mesh is undefined");
    let mut min_angle = f64::MAX;
    let mut max_angle = f64::MIN;
    let mut sum_min = 0.0;
    let mut worst_aspect: f64 = 0.0;
    for &t in &active {
        let [a, b, c] = mesh.tri_points(t);
        let angs = geom::angles(&a, &b, &c);
        let tri_min = angs.iter().cloned().fold(f64::MAX, f64::min);
        let tri_max = angs.iter().cloned().fold(f64::MIN, f64::max);
        min_angle = min_angle.min(tri_min);
        max_angle = max_angle.max(tri_max);
        sum_min += tri_min;
        worst_aspect = worst_aspect.max(aspect_ratio(&a, &b, &c));
    }
    let deg = 180.0 / std::f64::consts::PI;
    QualityStats {
        min_angle_deg: min_angle * deg,
        max_angle_deg: max_angle * deg,
        mean_min_angle_deg: sum_min * deg / active.len() as f64,
        worst_aspect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_mesh_is_right_isoceles() {
        let m = AdaptiveMesh::structured(4, 4, 1.0, 1.0);
        let q = mesh_quality(&m);
        assert!((q.min_angle_deg - 45.0).abs() < 1e-9);
        assert!((q.max_angle_deg - 90.0).abs() < 1e-9);
        assert!((q.worst_aspect - 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn red_refinement_preserves_quality() {
        let mut m = AdaptiveMesh::structured(4, 4, 1.0, 1.0);
        let q0 = mesh_quality(&m);
        let all = m.active_tris();
        m.refine(&all); // uniform refinement: all red, self-similar children
        let q1 = mesh_quality(&m);
        assert!((q0.min_angle_deg - q1.min_angle_deg).abs() < 1e-9);
        assert!((q0.worst_aspect - q1.worst_aspect).abs() < 1e-9);
    }

    #[test]
    fn green_refinement_degrades_quality() {
        let mut m = AdaptiveMesh::structured(4, 4, 1.0, 1.0);
        let q0 = mesh_quality(&m);
        m.refine(&[0]); // creates greens around the red triangle
        let q1 = mesh_quality(&m);
        assert!(
            q1.min_angle_deg < q0.min_angle_deg,
            "green bisection must produce a worse angle: {q1:?} vs {q0:?}"
        );
    }

    #[test]
    fn aspect_ratio_of_equilateral_is_one() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.5, 3f64.sqrt() / 2.0);
        assert!((aspect_ratio(&a, &b, &c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aspect_ratio_grows_with_stretch() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 0.0);
        let c = Point2::new(5.0, 0.5);
        assert!(aspect_ratio(&a, &b, &c) > 1.9);
    }
}
