//! Partitioners and dynamic load balancing.
//!
//! Rebuilds the partitioning toolbox the paper family's adaptive codes rely
//! on (the PLUM load balancer of Oliker & Biswas, and the geometric
//! partitioners used to decompose meshes and particle sets):
//!
//! * [`rcb`] — recursive coordinate bisection of weighted points in any
//!   dimension (2-D for the meshes; `nbody`'s ORB is the 3-D case);
//! * [`sfc`] — Morton- and Hilbert-curve partitioning, and [`cut_order`],
//!   the weight-balanced cut of an ordering that `nbody`'s costzones also
//!   uses;
//! * [`graph`] — CSR graphs with edge-cut and imbalance metrics;
//! * [`multilevel`] — MeTiS-style multilevel k-way partitioning (coarsen /
//!   grow / KL-refine), the graph partitioner the paper family used;
//! * [`diffusion`] — local diffusive rebalancing of an existing partition;
//! * [`remap`] — PLUM-style processor reassignment: after repartitioning an
//!   adapted mesh, relabel the new parts to maximise data kept in place,
//!   and report the `TotalV`/`MaxV` movement metrics the PLUM papers use.

//!
//! ```
//! use partition::{imbalance, rcb_partition, remap_labels, WeightedPoint};
//!
//! let pts: Vec<WeightedPoint> = (0..64)
//!     .map(|i| WeightedPoint::new((i % 8) as f64, (i / 8) as f64, 1.0))
//!     .collect();
//! let old = rcb_partition(&pts, 4);
//! // A fresh partition with permuted labels remaps to zero movement.
//! let mut new = old.iter().map(|&p| (p + 1) % 4).collect::<Vec<_>>();
//! let stats = remap_labels(&old, &mut new, &vec![1.0; 64], 4);
//! assert_eq!(stats.total_v, 0.0);
//! assert_eq!(imbalance(&vec![1.0; 64], &new, 4), 1.0);
//! ```

pub mod diffusion;
pub mod graph;
pub mod multilevel;
pub mod rcb;
pub mod remap;
pub mod sfc;

pub use graph::{edge_cut, imbalance, CsrGraph};
pub use multilevel::multilevel_partition;
pub use rcb::{rcb_partition, rcb_partition_by};
pub use remap::{remap_labels, MoveStats};
pub use sfc::{cut_order, hilbert_partition, morton_partition};

/// A point with a work weight, the common input to geometric partitioners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPoint {
    pub x: f64,
    pub y: f64,
    /// Non-negative work weight.
    pub w: f64,
}

impl WeightedPoint {
    /// Construct from coordinates and weight.
    pub fn new(x: f64, y: f64, w: f64) -> Self {
        WeightedPoint { x, y, w }
    }
}
