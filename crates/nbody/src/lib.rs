//! Barnes-Hut N-body substrate.
//!
//! The paper family's adaptive N-body application: a hierarchical
//! (octree) gravity solver whose work distribution shifts every timestep
//! as bodies move — the canonical "adaptive application" of the SPLASH
//! lineage (Singh et al.), ported by the paper to MPI, SHMEM and CC-SAS.
//!
//! * [`vec3`] / [`body`] — 3-D vectors and bodies;
//! * [`plummer`] — the Plummer-sphere initial condition generator;
//! * [`octree`] — arena-allocated octree with centre-of-mass summaries;
//! * [`force`] — θ-MAC Barnes-Hut traversal with interaction counting,
//!   plus a direct O(N²) reference;
//! * [`orb`] — orthogonal recursive bisection of bodies (the MP/SHMEM
//!   decomposition): `partition`'s RCB in three dimensions, O(n log n),
//!   plus the per-part bounding boxes;
//! * [`costzones`] — Singh's costzones partitioning: the tree order cut
//!   by `partition::cut_order` (the CC-SAS decomposition);
//! * [`lett`] — locally-essential-tree extraction (what an MP rank must
//!   import from remote domains to compute its forces alone).

//!
//! ```
//! use nbody::force::{accel_at, direct_accels};
//! use nbody::plummer::plummer;
//! use nbody::{Octree, Vec3};
//!
//! let bodies = plummer(200, 1);
//! let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
//! let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
//! let tree = Octree::build(&pos, &mass, 4);
//! let (bh, n) = accel_at(&tree, pos[0], 0.5, 0.05);
//! let exact = direct_accels(&pos, &mass, 0.05)[0];
//! assert!((bh - exact).norm() < 0.05 * exact.norm());
//! assert!(n < 200, "tree walk beats the direct sum");
//! ```

pub mod body;
pub mod costzones;
pub mod force;
pub mod lett;
pub mod octree;
pub mod orb;
pub mod plummer;
pub mod vec3;

pub use body::Body;
pub use octree::Octree;
pub use vec3::Vec3;
