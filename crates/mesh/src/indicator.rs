//! Moving-shock refinement indicator.
//!
//! The paper family drives mesh adaptation with a simulated shock wave
//! propagating through the domain: triangles near the front refine (up to a
//! level cap), triangles the front has left behind coarsen. This module
//! provides planar and circular fronts and the marking rule.

use crate::adaptive::AdaptiveMesh;
use crate::geom::Point2;

/// A moving shock front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shock {
    /// Vertical front at `x = x0 + speed * t`.
    Planar { x0: f64, speed: f64 },
    /// Circular front of radius `r0 + speed * t` centred at `(cx, cy)`.
    Circular {
        cx: f64,
        cy: f64,
        r0: f64,
        speed: f64,
    },
}

impl Shock {
    /// Unsigned distance from `p` to the front at time `t`.
    fn distance(&self, p: &Point2, t: f64) -> f64 {
        match *self {
            Shock::Planar { x0, speed } => (p.x - (x0 + speed * t)).abs(),
            Shock::Circular { cx, cy, r0, speed } => {
                let r = r0 + speed * t;
                (p.dist(&Point2::new(cx, cy)) - r).abs()
            }
        }
    }
}

/// Marking produced by [`mark`]: triangles to refine and to coarsen.
#[derive(Debug, Clone, Default)]
pub struct Marking {
    /// Active triangles within the refinement band, below the level cap.
    pub refine: Vec<u32>,
    /// Active refined triangles that have fallen outside the coarsen band.
    pub coarsen: Vec<u32>,
}

/// Classify every active triangle against the front at time `t`:
/// `distance < refine_band` and `level < max_level` → refine;
/// `distance > coarsen_band` and `level > 0` → coarsen.
///
/// # Panics
/// Panics if `coarsen_band <= refine_band` (the bands must not overlap,
/// or triangles would oscillate).
pub fn mark(
    mesh: &AdaptiveMesh,
    shock: &Shock,
    t: f64,
    refine_band: f64,
    coarsen_band: f64,
    max_level: u8,
) -> Marking {
    assert!(
        coarsen_band > refine_band,
        "coarsen band must lie strictly outside the refine band"
    );
    let mut marking = Marking::default();
    for tri in mesh.active_tris() {
        let d = shock.distance(&mesh.centroid_of(tri), t);
        let level = mesh.level_of(tri);
        if d < refine_band && level < max_level {
            marking.refine.push(tri);
        } else if d > coarsen_band && level > 0 {
            marking.coarsen.push(tri);
        }
    }
    marking
}

/// Run one full adaptation step (mark, refine, coarsen) and return the
/// marking that was applied. The standard driver loop of the AMR codes.
pub fn adapt_step(
    mesh: &mut AdaptiveMesh,
    shock: &Shock,
    t: f64,
    refine_band: f64,
    coarsen_band: f64,
    max_level: u8,
) -> Marking {
    let marking = mark(mesh, shock, t, refine_band, coarsen_band, max_level);
    mesh.refine(&marking.refine);
    mesh.coarsen(&marking.coarsen);
    marking
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planar_distance_moves_with_time() {
        let s = Shock::Planar {
            x0: 0.0,
            speed: 1.0,
        };
        let p = Point2::new(0.5, 0.3);
        assert!((s.distance(&p, 0.0) - 0.5).abs() < 1e-12);
        assert!((s.distance(&p, 0.5) - 0.0).abs() < 1e-12);
        assert!((s.distance(&p, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn circular_distance() {
        let s = Shock::Circular {
            cx: 0.0,
            cy: 0.0,
            r0: 1.0,
            speed: 0.5,
        };
        let p = Point2::new(2.0, 0.0);
        assert!((s.distance(&p, 0.0) - 1.0).abs() < 1e-12);
        assert!((s.distance(&p, 2.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn marking_respects_bands_and_levels() {
        let mut mesh = AdaptiveMesh::structured(8, 8, 1.0, 1.0);
        let shock = Shock::Planar {
            x0: 0.25,
            speed: 0.0,
        };
        let m = mark(&mesh, &shock, 0.0, 0.1, 0.3, 2);
        assert!(!m.refine.is_empty());
        // Base mesh: nothing to coarsen.
        assert!(m.coarsen.is_empty());
        for &t in &m.refine {
            assert!(shock.distance(&mesh.centroid_of(t), 0.0) < 0.1);
        }
        mesh.refine(&m.refine);
        // At the level cap nothing new is marked.
        let m2 = mark(&mesh, &shock, 0.0, 0.1, 0.3, 1);
        for &t in &m2.refine {
            assert!(mesh.level_of(t) < 1);
        }
    }

    #[test]
    fn moving_shock_refines_ahead_and_coarsens_behind() {
        let mut mesh = AdaptiveMesh::structured(8, 8, 1.0, 1.0);
        let shock = Shock::Planar {
            x0: 0.0,
            speed: 1.0,
        };
        adapt_step(&mut mesh, &shock, 0.1, 0.12, 0.3, 2);
        let after_first = mesh.num_active();
        assert!(after_first > 128);
        // Sweep the shock across and past the domain; refinement follows it
        // and the region behind coarsens (with a lag of a few steps while
        // multi-level staircase transitions collapse bottom-up).
        for step in 1..=14 {
            adapt_step(&mut mesh, &shock, 0.1 * step as f64, 0.12, 0.3, 2);
            mesh.validate().expect("valid during sweep");
        }
        let left_fine = mesh
            .active_tris()
            .into_iter()
            .filter(|&t| mesh.centroid_of(t).x < 0.2 && mesh.level_of(t) > 0)
            .count();
        assert_eq!(left_fine, 0, "region behind the shock fully coarsened");
        // Once the shock has left the domain the mesh heads back to base.
        assert!(
            mesh.num_active() < 400,
            "mesh should shrink once the front exits: {} active",
            mesh.num_active()
        );
    }

    #[test]
    #[should_panic(expected = "coarsen band")]
    fn overlapping_bands_panic() {
        let mesh = AdaptiveMesh::structured(2, 2, 1.0, 1.0);
        let shock = Shock::Planar {
            x0: 0.0,
            speed: 0.0,
        };
        mark(&mesh, &shock, 0.0, 0.3, 0.2, 2);
    }
}
