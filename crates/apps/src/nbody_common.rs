//! Shared configuration and helpers for the three N-body implementations.

use std::sync::OnceLock;

use nbody::force::pair_accel;
use nbody::plummer::plummer;
use nbody::{Body, Octree, Vec3};
use parallel::Ctx;
use sas::{SasPe, SasSlice};

/// N-body run parameters.
#[derive(Debug, Clone)]
pub struct NBodyConfig {
    /// Number of bodies.
    pub n: usize,
    /// Opening angle.
    pub theta: f64,
    /// Plummer softening.
    pub eps: f64,
    /// Timestep.
    pub dt: f64,
    /// Number of timesteps.
    pub steps: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for NBodyConfig {
    fn default() -> Self {
        NBodyConfig {
            n: 2048,
            theta: 0.8,
            eps: 0.05,
            dt: 0.01,
            steps: 3,
            seed: 42,
        }
    }
}

impl NBodyConfig {
    /// A small configuration for fast tests.
    pub fn small() -> Self {
        NBodyConfig {
            n: 256,
            steps: 2,
            ..Self::default()
        }
    }

    /// The deterministic initial body set for this configuration.
    pub fn bodies(&self) -> Vec<Body> {
        plummer(self.n, self.seed)
    }
}

/// The start-up data of one MP or SHMEM run, computed once on the host.
///
/// Those models replicate the start-up decomposition: every rank *derives*
/// the body set and the startup ORB — and is charged for it — but both are
/// pure functions of the configuration and the team size, so the host
/// needs one copy (the first rank to ask computes it behind a `OnceLock`).
/// Passed beside the configuration, exactly as
/// [`crate::amr_common::MeshMemo`] is.
///
/// Priced before it was built (ROADMAP item 7(ii)): at P = 32, n = 1 024
/// a rank's `plummer` + `orb_partition` cost 0.58 ms on the host, 32
/// identical calls per run, ≈ 40 % of an MP or SHMEM N-body cell.
#[derive(Debug, Default)]
pub(crate) struct StartupMemo {
    bodies: OnceLock<Vec<Body>>,
    orb: OnceLock<Vec<u32>>,
}

impl StartupMemo {
    /// [`NBodyConfig::bodies`], generated once per run.
    pub(crate) fn bodies(&self, cfg: &NBodyConfig) -> &[Body] {
        self.bodies.get_or_init(|| cfg.bodies())
    }

    /// The startup decomposition, computed by the first caller's `orb`
    /// (the closure keeps the partitioner call spelled in the MP / SHMEM
    /// sources).
    pub(crate) fn orb(&self, orb: impl FnOnce() -> Vec<u32>) -> &[u32] {
        self.orb.get_or_init(orb)
    }
}

/// A body plus its carried work cost, as migrated between ranks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BodyCost {
    pub body: Body,
    pub cost: f64,
}

/// Words per body in flat f64 encodings (pos 3, vel 3, mass, cost).
pub const BODY_WORDS: usize = 8;

/// Encode a [`BodyCost`] into `out[..8]`.
pub fn encode_body(b: &BodyCost, out: &mut [f64]) {
    out[0] = b.body.pos.x;
    out[1] = b.body.pos.y;
    out[2] = b.body.pos.z;
    out[3] = b.body.vel.x;
    out[4] = b.body.vel.y;
    out[5] = b.body.vel.z;
    out[6] = b.body.mass;
    out[7] = b.cost;
}

/// Decode a [`BodyCost`] from `w[..8]`.
pub fn decode_body(w: &[f64]) -> BodyCost {
    BodyCost {
        body: Body {
            pos: Vec3::new(w[0], w[1], w[2]),
            vel: Vec3::new(w[3], w[4], w[5]),
            mass: w[6],
        },
        cost: w[7],
    }
}

/// Serialise one rank's owned bodies at a step boundary (snapshot app
/// payload): everything else in the N-body step — trees, essential sets,
/// partitions — is rebuilt from these each iteration.
pub(crate) fn encode_bodies_state(step: u64, mine: &[BodyCost]) -> Vec<u8> {
    let mut w = o2k_snap::wire::WireWriter::new();
    w.u64(step);
    let mut flat = vec![0.0; BODY_WORDS * mine.len()];
    for (i, b) in mine.iter().enumerate() {
        encode_body(b, &mut flat[BODY_WORDS * i..BODY_WORDS * (i + 1)]);
    }
    w.f64s(&flat);
    w.into_bytes()
}

/// Inverse of [`encode_bodies_state`].
pub(crate) fn decode_bodies_state(bytes: &[u8], step: u64) -> Vec<BodyCost> {
    let mut r = o2k_snap::wire::WireReader::new(bytes);
    let got = r.u64().expect("snapshot app payload: step");
    assert_eq!(got, step, "snapshot payload is for a different step");
    let flat = r.f64s().expect("snapshot app payload: bodies");
    r.finish().expect("snapshot app payload: trailing bytes");
    assert_eq!(flat.len() % BODY_WORDS, 0, "snapshot body payload shape");
    flat.chunks_exact(BODY_WORDS).map(decode_body).collect()
}

/// Position checksum: Σ |pos| over bodies — the cross-model agreement
/// figure (models approximate forces slightly differently through their
/// different tree decompositions, so compare with a small tolerance).
pub fn checksum_positions(pos: &[Vec3]) -> f64 {
    pos.iter().map(|p| p.norm()).sum()
}

/// Flattened octree for shared-memory traversal: 12 words per node
/// (center xyz, half, mass, com xyz, first_child, leaf_off, leaf_len, pad),
/// plus the leaf body-index stream.
pub const NODE_WORDS: usize = 12;

/// Flatten `tree` into node words and a leaf body-index stream.
pub fn flatten_tree(tree: &Octree) -> (Vec<f64>, Vec<u64>) {
    let mut words = Vec::with_capacity(tree.nodes.len() * NODE_WORDS);
    let mut leaves: Vec<u64> = Vec::new();
    for n in &tree.nodes {
        let (off, len) = if n.is_leaf() {
            let off = leaves.len();
            leaves.extend(n.bodies.iter().map(|&b| u64::from(b)));
            (off, n.bodies.len())
        } else {
            (0, 0)
        };
        let first = if n.is_leaf() {
            -1.0
        } else {
            n.first_child as f64
        };
        words.extend_from_slice(&[
            n.center.x, n.center.y, n.center.z, n.half, n.mass, n.com.x, n.com.y, n.com.z, first,
            off as f64, len as f64, 0.0,
        ]);
    }
    (words, leaves)
}

// sim:begin — cache-simulator access shims for the CC-SAS walker: on real
// hardware these are ordinary loads/stores and the walk is
// `nbody::force::accel_at` verbatim, so they do not count toward
// programming effort (see `o2k_core::effort`).

/// Read a 3-vector at element index `i` of a flat xyz array, through the
/// coherence model.
pub fn read_vec3(ctx: &mut Ctx, pe: &mut SasPe, s: &SasSlice<f64>, i: usize) -> Vec3 {
    let mut v = [0.0; 3];
    pe.read_into(ctx, s, 3 * i, &mut v);
    Vec3::new(v[0], v[1], v[2])
}

/// Barnes-Hut walk over a flattened shared tree (see [`flatten_tree`]),
/// mirroring `nbody::force::accel_at` exactly (same traversal, same float
/// order).
#[allow(clippy::too_many_arguments)]
pub fn shared_tree_walk(
    ctx: &mut Ctx,
    pe: &mut SasPe,
    nodes: &SasSlice<f64>,
    leaves: &SasSlice<u64>,
    pos: &SasSlice<f64>,
    mass: &SasSlice<f64>,
    target: Vec3,
    theta: f64,
    eps: f64,
) -> (Vec3, u64) {
    let mut acc = Vec3::ZERO;
    let mut interactions = 0u64;
    let mut rec = [0.0; NODE_WORDS];
    let mut stack = pe.take_index_stack();
    stack.push(0);
    while let Some(ni) = stack.pop() {
        pe.read_into(ctx, nodes, ni * NODE_WORDS, &mut rec);
        let m = rec[4];
        if m == 0.0 {
            continue;
        }
        let first = rec[8];
        if first < 0.0 {
            let loff = rec[9] as usize;
            let len = rec[10] as usize;
            for k in 0..len {
                let b = pe.read(ctx, leaves, loff + k) as usize;
                let bp = read_vec3(ctx, pe, pos, b);
                let bm = pe.read(ctx, mass, b);
                acc += pair_accel(target, bp, bm, eps);
                interactions += 1;
            }
            continue;
        }
        let com = Vec3::new(rec[5], rec[6], rec[7]);
        let width = 2.0 * rec[3];
        let d = com.dist(&target);
        if width < theta * d {
            acc += pair_accel(target, com, m, eps);
            interactions += 1;
        } else {
            let fc = first as usize;
            for c in fc..fc + 8 {
                stack.push(c);
            }
        }
    }
    pe.put_index_stack(stack);
    (acc, interactions)
}
// sim:end

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_roundtrip() {
        let b = BodyCost {
            body: Body {
                pos: Vec3::new(1.0, -2.0, 3.0),
                vel: Vec3::new(0.1, 0.2, -0.3),
                mass: 0.5,
            },
            cost: 17.0,
        };
        let mut w = [0.0; BODY_WORDS];
        encode_body(&b, &mut w);
        assert_eq!(decode_body(&w), b);
    }

    #[test]
    fn flatten_preserves_structure() {
        let cfg = NBodyConfig::small();
        let bodies = cfg.bodies();
        let pos: Vec<Vec3> = bodies.iter().map(|b| b.pos).collect();
        let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = Octree::build(&pos, &mass, 4);
        let (words, leaves) = flatten_tree(&tree);
        assert_eq!(words.len(), tree.nodes.len() * NODE_WORDS);
        // Every body appears exactly once in the leaf stream.
        let mut seen = leaves.clone();
        seen.sort_unstable();
        assert_eq!(seen.len(), cfg.n);
        assert!(seen.iter().enumerate().all(|(i, &b)| b as usize == i));
        // Root mass matches.
        assert!((words[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_run_derives_its_startup_data_once() {
        // 32 ranks ask; the host runs one `plummer` and one ORB, and every
        // rank reads the same copy.
        let cfg = NBodyConfig::small();
        let memo = StartupMemo::default();
        let first = memo.bodies(&cfg).as_ptr();
        let mut orbs = 0;
        for _rank in 0..32 {
            assert_eq!(memo.bodies(&cfg).as_ptr(), first);
            let assign = memo.orb(|| {
                orbs += 1;
                vec![3, 1, 2]
            });
            assert_eq!(assign, [3, 1, 2]);
        }
        assert_eq!(orbs, 1);
        assert_eq!(memo.bodies(&cfg), cfg.bodies());
    }

    #[test]
    fn default_config_deterministic() {
        let c = NBodyConfig::default();
        assert_eq!(c.bodies(), c.bodies());
    }
}
