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

/// One run's view of its [`NBodyConfig`] for the models that replicate the
/// start-up decomposition (MP, SHMEM): every rank *derives* the body set
/// and the startup ORB — and is charged for it — but they are pure
/// functions of the configuration and the team size, so the host computes
/// each once per run (the first rank to ask, behind a `OnceLock`; under
/// free-running `os` threads late arrivers wait for it) and hands every
/// rank its own copy. Derefs to the configuration, so a rank reads
/// `cfg.n`, `cfg.theta`, … as before; built by `run_opts` *after* the
/// snapshot digest (`format!("{cfg:?}")`) is taken from the plain config.
///
/// Priced before it was built (ROADMAP item 7(ii)): at P = 32, n = 1 024
/// a rank's `plummer` + `orb_partition` cost 0.58 ms on the host, 32
/// identical calls per run, ≈ 40 % of an MP or SHMEM N-body cell.
#[derive(Debug)]
pub struct NBodyRun<'a> {
    cfg: &'a NBodyConfig,
    bodies: OnceLock<Vec<Body>>,
    startup_orb: OnceLock<Vec<u32>>,
}

impl<'a> NBodyRun<'a> {
    /// A run of `cfg` with nothing derived yet.
    pub fn new(cfg: &'a NBodyConfig) -> Self {
        NBodyRun {
            cfg,
            bodies: OnceLock::new(),
            startup_orb: OnceLock::new(),
        }
    }

    /// [`NBodyConfig::bodies`], generated once per run.
    pub fn bodies(&self) -> Vec<Body> {
        self.bodies.get_or_init(|| self.cfg.bodies()).clone()
    }

    /// The startup decomposition, computed by the first caller's `orb`
    /// (the closure keeps the partitioner call spelled in the MP / SHMEM
    /// sources).
    pub fn startup_orb(&self, orb: impl FnOnce() -> Vec<u32>) -> Vec<u32> {
        self.startup_orb.get_or_init(orb).clone()
    }
}

impl std::ops::Deref for NBodyRun<'_> {
    type Target = NBodyConfig;

    fn deref(&self) -> &NBodyConfig {
        self.cfg
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
/// order). `base` offsets all tree/body indices, so callers can walk a
/// segment of a larger shared array.
#[allow(clippy::too_many_arguments)]
pub fn shared_tree_walk(
    ctx: &mut Ctx,
    pe: &mut SasPe,
    nodes: &SasSlice<f64>,
    leaves: &SasSlice<u64>,
    pos: &SasSlice<f64>,
    mass: &SasSlice<f64>,
    base: &WalkBase,
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
        let off = base.node_words + ni * NODE_WORDS;
        pe.read_into(ctx, nodes, off, &mut rec);
        let m = rec[4];
        if m == 0.0 {
            continue;
        }
        let first = rec[8];
        if first < 0.0 {
            let loff = rec[9] as usize;
            let len = rec[10] as usize;
            for k in 0..len {
                let b = pe.read(ctx, leaves, base.leaves + loff + k) as usize;
                let bp = read_vec3(ctx, pe, pos, base.bodies + b);
                let bm = pe.read(ctx, mass, base.bodies + b);
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

/// Segment offsets for [`shared_tree_walk`]: where this walker's tree
/// words, leaf stream and body arrays start inside the shared slices
/// (zeros for the single-segment layout `nbody_sas` uses).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkBase {
    /// Word offset of the flattened node records.
    pub node_words: usize,
    /// Element offset of the leaf body-index stream.
    pub leaves: usize,
    /// Body-index offset applied to leaf entries (pos is indexed at
    /// `3 * (bodies + b)`, mass at `bodies + b`).
    pub bodies: usize,
}

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
        let cfg = NBodyConfig::small();
        let run = NBodyRun::new(&cfg);
        assert_eq!(run.bodies(), cfg.bodies());
        let first = run.startup_orb(|| vec![3, 1, 2]);
        assert_eq!(first, [3, 1, 2]);
        assert_eq!(run.startup_orb(|| unreachable!("computed once")), first);
        assert_eq!((run.n, run.seed), (cfg.n, cfg.seed));
    }

    #[test]
    fn default_config_deterministic() {
        let c = NBodyConfig::default();
        assert_eq!(c.bodies(), c.bodies());
    }
}
