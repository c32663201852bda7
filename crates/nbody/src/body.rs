//! Bodies.

use crate::vec3::Vec3;

/// A point mass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Body {
    pub pos: Vec3,
    pub vel: Vec3,
    pub mass: f64,
}

impl Body {
    /// A stationary body.
    pub fn at(pos: Vec3, mass: f64) -> Self {
        Body {
            pos,
            vel: Vec3::ZERO,
            mass,
        }
    }
}

/// Centre of mass of a body set.
#[cfg(test)]
pub(crate) fn center_of_mass(bodies: &[Body]) -> Vec3 {
    let m: f64 = bodies.iter().map(|b| b.mass).sum();
    let mut c = Vec3::ZERO;
    for b in bodies {
        c += b.pos * b.mass;
    }
    c / m.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn com_weighted() {
        let bodies = vec![
            Body::at(Vec3::ZERO, 3.0),
            Body::at(Vec3::new(4.0, 0.0, 0.0), 1.0),
        ];
        assert_eq!(center_of_mass(&bodies), Vec3::new(1.0, 0.0, 0.0));
    }
}
