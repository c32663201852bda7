//! 2-D unstructured adaptive triangular mesh substrate.
//!
//! Reimplements the dynamic-remeshing machinery of the paper family
//! (Biswas & Strawn's edge-based adaptation, as used in Oliker & Biswas'
//! three-paradigm comparison): a triangular mesh over which a simulated
//! shock front sweeps, repeatedly driving local refinement ahead of the
//! front and coarsening behind it.
//!
//! * [`AdaptiveMesh`] — the mesh with red/green hierarchical refinement and
//!   conformity-preserving coarsening.
//! * [`indicator`] — the moving-shock error indicator that selects
//!   triangles to refine/coarsen each step.
//! * [`quality`] — element-quality metrics (min angle, aspect ratio).
//! * [`dual`] — element dual graph in CSR form, for the partitioners.
//! * [`export`] — SVG snapshots of adapted meshes.

//!
//! ```
//! use mesh::adaptive::AdaptiveMesh;
//! use mesh::indicator::{adapt_step, Shock};
//!
//! let mut m = AdaptiveMesh::structured(8, 8, 1.0, 1.0);
//! let shock = Shock::Planar { x0: 0.0, speed: 1.0 };
//! adapt_step(&mut m, &shock, 0.3, 0.1, 0.3, 2);
//! assert!(m.num_active() > 128);        // refined near the front
//! m.validate().unwrap();                // and still conforming
//! ```

pub mod adaptive;
pub mod dual;
pub mod export;
pub mod geom;
mod hash;
pub mod indicator;
pub mod quality;

pub use adaptive::{AdaptiveMesh, RefineReport};
pub use geom::Point2;
