//! Shared configuration, replicated-mesh driver, and balance analysis for
//! the three AMR implementations.
//!
//! All three models run the *same* deterministic adaptation sequence (the
//! mesh metadata is replicated, as in many paper-era remeshing codes; the
//! surgery cost is charged as parallel work). What differs — and what the
//! experiments measure — is how the solution field moves: explicit
//! messages, one-sided puts, or hardware coherence.

use std::sync::{Arc, OnceLock};

use mesh::adaptive::AdaptiveMesh;
use mesh::dual::{dual_graph, DualGraph};
use mesh::indicator::{mark, Marking, Shock};
use o2k_snap::wire::{WireReader, WireWriter};
use partition::{imbalance, rcb_partition, remap_labels, MoveStats, WeightedPoint};

/// AMR run parameters.
#[derive(Debug, Clone)]
pub struct AmrConfig {
    /// Base mesh cells in x.
    pub nx: usize,
    /// Base mesh cells in y.
    pub ny: usize,
    /// Adaptation steps (the shock crosses the unit domain over all steps).
    pub steps: usize,
    /// Jacobi sweeps between adaptations.
    pub sweeps: usize,
    /// Refinement band half-width around the front.
    pub refine_band: f64,
    /// Coarsening distance from the front.
    pub coarsen_band: f64,
    /// Maximum refinement level.
    pub max_level: u8,
    /// Apply PLUM remapping after each repartition (ablation A2).
    pub use_remap: bool,
    /// Drive adaptation with an expanding circular front instead of the
    /// default planar shock.
    pub circular: bool,
    /// CC-SAS only: claim sweep work dynamically in chunks from a shared
    /// counter (self-scheduling) instead of static blocks (ablation A6).
    pub sas_self_schedule: bool,
    /// Read by nothing: the AMR workload draws no random numbers. Kept
    /// because the `benchmark` package's `amr-adapt` cell sets it; it goes
    /// in the next `benchmark` change.
    pub seed: u64,
}

impl Default for AmrConfig {
    fn default() -> Self {
        AmrConfig {
            nx: 24,
            ny: 24,
            steps: 4,
            sweeps: 4,
            refine_band: 0.08,
            coarsen_band: 0.22,
            max_level: 2,
            use_remap: true,
            circular: false,
            sas_self_schedule: false,
            seed: 42,
        }
    }
}

impl AmrConfig {
    /// A small configuration for fast tests.
    pub fn small() -> Self {
        AmrConfig {
            nx: 10,
            ny: 10,
            steps: 3,
            sweeps: 2,
            ..Self::default()
        }
    }

    /// The moving front: by default a planar shock crossing the unit domain
    /// over the configured number of steps; with [`AmrConfig::circular`], an
    /// expanding circular front centred on the domain.
    pub fn shock(&self) -> Shock {
        if self.circular {
            Shock::Circular {
                cx: 0.5,
                cy: 0.5,
                r0: 0.05,
                speed: 0.6,
            }
        } else {
            Shock::Planar {
                x0: 0.0,
                speed: 1.0,
            }
        }
    }

    /// Front time at adaptation step `step`.
    pub fn front_time(&self, step: usize) -> f64 {
        (step as f64 + 1.0) / self.steps as f64
    }

    /// Capacity of triangle-id-indexed shared/symmetric arrays.
    pub fn tri_capacity(&self) -> usize {
        2 * self.nx * self.ny * 64
    }
}

/// What one adaptation step did (for cost charging).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptStats {
    /// Triangles examined by the indicator.
    pub marked_scan: usize,
    /// New triangles created (refine + conformity restoration).
    pub new_tris: usize,
    /// Sibling groups coarsened.
    pub coarsened_groups: usize,
}

/// One generation of the replicated metadata: the mesh after that many
/// adaptation steps (0 = base), its dual graph and the partition of it.
#[derive(Debug, Default)]
struct Generation {
    mesh: OnceLock<(Arc<AdaptiveMesh>, AdaptStats)>,
    dual: OnceLock<Arc<DualGraph>>,
    parts: OnceLock<StepParts>,
}

/// A memoised [`partition_active`] result and the question it answers.
#[derive(Debug)]
struct StepParts {
    parts: Arc<Vec<u32>>,
    stats: MoveStats,
    inherited: Vec<u32>,
}

/// The replicated mesh metadata of one run, computed once on the host.
///
/// The model replicates the metadata on every PE and *charges* each PE its
/// share of the work; the charges are functions of [`AdaptStats`] and the
/// dual graph's size, never of host time, so the host needs one copy. Each
/// generation is computed by the first replica that asks and shared by the
/// rest. `OnceLock::get_or_init` is the whole synchronisation: the
/// initialisers are pure host compute (no scheduling point), so nobody
/// else runs meanwhile.
#[derive(Debug)]
pub struct MeshMemo {
    gens: Vec<Generation>,
    base_parts: OnceLock<Arc<Vec<u32>>>,
}

impl MeshMemo {
    /// An empty memo for a run of `cfg`.
    pub fn new(cfg: &AmrConfig) -> Arc<Self> {
        Arc::new(MeshMemo {
            gens: (0..=cfg.steps).map(|_| Generation::default()).collect(),
            base_parts: OnceLock::new(),
        })
    }

    /// A replica at generation 0: the base mesh over the unit square with
    /// the initial field (centroid x).
    pub fn replica(self: &Arc<Self>, cfg: &AmrConfig) -> ReplicatedMesh {
        let mesh = Arc::clone(&self.mesh_at(cfg, 0).0);
        let field = (0..mesh.num_tris_total() as u32)
            .map(|t| mesh.centroid_of(t).x)
            .collect();
        ReplicatedMesh {
            mesh,
            field,
            memo: Arc::clone(self),
            generation: 0,
        }
    }

    /// Active triangles after the last adaptation step (the problem size
    /// the tables print).
    pub fn final_active(&self, cfg: &AmrConfig) -> usize {
        self.mesh_at(cfg, cfg.steps).0.num_active()
    }

    /// Generation `g` of the mesh: mark against the front, refine, coarsen
    /// a copy of generation `g - 1`. Deterministic.
    fn mesh_at(&self, cfg: &AmrConfig, g: usize) -> &(Arc<AdaptiveMesh>, AdaptStats) {
        self.gens[g].mesh.get_or_init(|| {
            if g == 0 {
                let base = AdaptiveMesh::structured(cfg.nx, cfg.ny, 1.0, 1.0);
                return (Arc::new(base), AdaptStats::default());
            }
            let mut mesh = AdaptiveMesh::clone(&self.mesh_at(cfg, g - 1).0);
            let marking: Marking = mark(
                &mesh,
                &cfg.shock(),
                cfg.front_time(g - 1),
                cfg.refine_band,
                cfg.coarsen_band,
                cfg.max_level,
            );
            let scanned = mesh.num_active();
            let before = mesh.num_tris_total();
            mesh.refine(&marking.refine);
            let groups = mesh.coarsen(&marking.coarsen);
            let stats = AdaptStats {
                marked_scan: scanned,
                new_tris: mesh.num_tris_total() - before,
                coarsened_groups: groups,
            };
            (Arc::new(mesh), stats)
        })
    }
}

/// The replicated mesh + field state every PE carries: a view onto the
/// run's [`MeshMemo`] plus this PE's own copy of the field.
#[derive(Debug, Clone)]
pub struct ReplicatedMesh {
    /// The adaptive mesh (identical on every PE by determinism, so shared).
    pub mesh: Arc<AdaptiveMesh>,
    /// Solution value per triangle id (authoritative only at the owner for
    /// MP/SHMEM; those models synchronise before adaptation).
    pub field: Vec<f64>,
    memo: Arc<MeshMemo>,
    generation: usize,
}

impl ReplicatedMesh {
    /// A stand-alone replica: a memo with one client.
    pub fn new(cfg: &AmrConfig) -> Self {
        MeshMemo::new(cfg).replica(cfg)
    }

    /// One adaptation step: move to the next generation of the mesh and
    /// extend the field (children inherit the parent value; reactivated
    /// parents keep their pre-refinement value). Deterministic.
    pub fn adapt(&mut self, cfg: &AmrConfig, step: usize) -> AdaptStats {
        assert_eq!(
            step, self.generation,
            "adaptation steps apply in order: this replica is at generation {}",
            self.generation
        );
        self.generation = step + 1;
        let (mesh, stats) = self.memo.mesh_at(cfg, self.generation);
        self.mesh = Arc::clone(mesh);
        for t in self.field.len()..self.mesh.num_tris_total() {
            let parent = self
                .mesh
                .parent_of(t as u32)
                .expect("new triangles have parents");
            self.field.push(self.field[parent as usize]);
        }
        *stats
    }

    /// Dual graph of the active triangles at this generation.
    pub fn dual(&self) -> Arc<DualGraph> {
        Arc::clone(self.dual_slot())
    }

    fn dual_slot(&self) -> &Arc<DualGraph> {
        let slot = &self.memo.gens[self.generation].dual;
        slot.get_or_init(|| Arc::new(dual_graph(&self.mesh)))
    }

    /// Active triangle ids at this generation, ascending: the memoised
    /// dual graph's vertex list, i.e. `mesh.active_tris()` without a fresh
    /// `Vec` per call (13 µs × every PE × every step on the benchmark's
    /// mesh).
    pub(crate) fn active(&self) -> &[u32] {
        &self.dual_slot().tris
    }

    /// The start-up partition of the base mesh, computed by the first
    /// caller's `rcb`.
    pub fn initial_partition(&self, rcb: impl FnOnce() -> Vec<u32>) -> Arc<Vec<u32>> {
        Arc::clone(self.memo.base_parts.get_or_init(|| Arc::new(rcb())))
    }

    /// `partition_active` on this generation's dual graph. `inherited`
    /// is identical on every PE by determinism; a replica that asks a
    /// different question than the one answered fails here by name.
    pub fn partition(
        &self,
        inherited: &[u32],
        nparts: usize,
        use_remap: bool,
    ) -> (Arc<Vec<u32>>, MoveStats) {
        let memo = self.memo.gens[self.generation].parts.get_or_init(|| {
            let (parts, stats) = partition_active(&self.dual(), inherited, nparts, use_remap);
            StepParts {
                parts: Arc::new(parts),
                stats,
                inherited: inherited.to_vec(),
            }
        });
        debug_assert_eq!(
            memo.inherited, inherited,
            "replicas diverged: generation {} was partitioned from other owners",
            self.generation
        );
        (Arc::clone(&memo.parts), memo.stats)
    }

    /// Checksum: sum of field over active triangles in ascending id order.
    pub fn checksum(&self) -> f64 {
        self.active().iter().map(|&t| self.field[t as usize]).sum()
    }
}

/// Unit-weight points at the dual graph's centroids (RCB input).
fn unit_points(dual: &DualGraph) -> Vec<WeightedPoint> {
    dual.centroids
        .iter()
        .map(|c| WeightedPoint::new(c.x, c.y, 1.0))
        .collect()
}

/// Partition the active triangles: RCB over centroids (unit weights), then
/// optionally PLUM-remap against the inherited owners. Returns the parts
/// by *active index* and the movement statistics.
fn partition_active(
    dual: &DualGraph,
    inherited: &[u32],
    nparts: usize,
    use_remap: bool,
) -> (Vec<u32>, MoveStats) {
    let mut parts = rcb_partition(&unit_points(dual), nparts);
    let w = vec![1.0; parts.len()];
    let stats = if use_remap {
        remap_labels(inherited, &mut parts, &w, nparts)
    } else {
        partition::remap::movement(inherited, &parts, &w, nparts)
    };
    (parts, stats)
}

/// Load imbalance / movement series for experiment F6: replays the
/// deterministic adaptation + partitioning sequence without running the
/// parallel code. Returns, per step, `(imbalance_before_partitioning,
/// imbalance_after, total_v, max_v)`.
pub fn balance_series(cfg: &AmrConfig, nparts: usize) -> Vec<(f64, f64, f64, f64)> {
    let mut state = ReplicatedMesh::new(cfg);
    let mut owner: Vec<u32> = {
        let dual = state.dual();
        let parts = state.initial_partition(|| rcb_partition(&unit_points(&dual), nparts));
        let mut owner = vec![0u32; state.mesh.num_tris_total()];
        for (i, &t) in dual.tris.iter().enumerate() {
            owner[t as usize] = parts[i];
        }
        owner
    };
    let mut out = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        state.adapt(cfg, step);
        // Inherit owners for new triangles.
        for t in owner.len()..state.mesh.num_tris_total() {
            let p = state.mesh.parent_of(t as u32).expect("has parent");
            let o = owner[p as usize];
            owner.push(o);
        }
        let dual = state.dual();
        let inherited: Vec<u32> = dual.tris.iter().map(|&t| owner[t as usize]).collect();
        let w = vec![1.0; inherited.len()];
        let before = imbalance(&w, &inherited, nparts);
        let (parts, stats) = state.partition(&inherited, nparts, cfg.use_remap);
        let after = imbalance(&w, &parts, nparts);
        for (i, &t) in dual.tris.iter().enumerate() {
            owner[t as usize] = parts[i];
        }
        out.push((before, after, stats.total_v, stats.max_v));
    }
    out
}

/// Write one PE's replicated AMR locals at a step gate — the solution
/// field and the ownership map. The mesh itself is *not* stored:
/// adaptation is a pure function of the config and the step count, so a
/// restore rebuilds it by replaying [`ReplicatedMesh::adapt`].
pub(crate) fn encode_step_state(w: &mut WireWriter, field: &[f64], owner: &[u32]) {
    w.f64s(field);
    let owner64: Vec<u64> = owner.iter().map(|&o| u64::from(o)).collect();
    w.u64s(&owner64);
}

/// Inverse of [`encode_step_state`]. Both vectors are indexed by triangle
/// id, so each must cover the `tris` triangles of the replayed mesh, and
/// every owner must be one of the run's `pes` PEs: a section from another
/// config, or an edited one, is an error here, not an index panic later.
pub(crate) fn decode_step_state(
    r: &mut WireReader,
    tris: usize,
    pes: usize,
) -> Result<(Vec<f64>, Vec<u32>), String> {
    let field = r.f64s()?;
    let owner = r.u64s()?;
    for (what, len) in [("field", field.len()), ("owner map", owner.len())] {
        if len != tris {
            return Err(format!(
                "{what} covers {len} triangles, the replayed mesh has {tris}"
            ));
        }
    }
    let owner = owner
        .into_iter()
        .enumerate()
        .map(|(t, o)| {
            u32::try_from(o)
                .ok()
                .filter(|&o| (o as usize) < pes)
                .ok_or_else(|| format!("triangle {t} is owned by PE {o}, the run has {pes}"))
        })
        .collect::<Result<_, _>>()?;
    Ok((field, owner))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_mesh_is_deterministic() {
        let cfg = AmrConfig::small();
        let mut a = ReplicatedMesh::new(&cfg);
        let mut b = ReplicatedMesh::new(&cfg);
        for step in 0..cfg.steps {
            a.adapt(&cfg, step);
            b.adapt(&cfg, step);
        }
        assert_eq!(a.mesh.num_active(), b.mesh.num_active());
        assert_eq!(a.field, b.field);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn adaptation_grows_near_front() {
        let cfg = AmrConfig::default();
        let mut s = ReplicatedMesh::new(&cfg);
        let base = s.mesh.num_active();
        let stats = s.adapt(&cfg, 0);
        assert!(stats.new_tris > 0);
        assert!(s.mesh.num_active() > base);
        s.mesh.validate().expect("valid after adapt");
    }

    #[test]
    fn borrowed_active_list_is_the_mesh_active_list_at_every_generation() {
        let cfg = AmrConfig::small();
        let mut s = ReplicatedMesh::new(&cfg);
        assert_eq!(s.active(), s.mesh.active_tris());
        for step in 0..cfg.steps {
            s.adapt(&cfg, step);
            assert_eq!(s.active(), s.mesh.active_tris(), "generation {}", step + 1);
        }
    }

    #[test]
    fn field_extension_covers_all_tris() {
        let cfg = AmrConfig::small();
        let mut s = ReplicatedMesh::new(&cfg);
        for step in 0..cfg.steps {
            s.adapt(&cfg, step);
            assert_eq!(s.field.len(), s.mesh.num_tris_total());
        }
    }

    #[test]
    fn remap_reduces_movement() {
        let cfg = AmrConfig {
            use_remap: true,
            ..AmrConfig::default()
        };
        let cfg_no = AmrConfig {
            use_remap: false,
            ..AmrConfig::default()
        };
        let with: f64 = balance_series(&cfg, 8).iter().map(|r| r.2).sum();
        let without: f64 = balance_series(&cfg_no, 8).iter().map(|r| r.2).sum();
        assert!(
            with <= without,
            "PLUM remap must not increase movement: {with} vs {without}"
        );
        assert!(with < 0.95 * without, "remap should help substantially");
    }

    #[test]
    fn partitioning_restores_balance() {
        let cfg = AmrConfig::default();
        for (before, after, _, _) in balance_series(&cfg, 8) {
            assert!(after <= before + 1e-9);
            assert!(after < 1.5, "post-partition imbalance too high: {after}");
        }
    }

    #[test]
    fn replicas_of_one_run_share_every_generation() {
        let cfg = AmrConfig::small();
        let memo = MeshMemo::new(&cfg);
        let (mut a, mut b) = (memo.replica(&cfg), memo.replica(&cfg));
        let base = a.initial_partition(|| vec![0; a.mesh.num_active()]);
        let again = b.initial_partition(|| unreachable!("the base partition is computed once"));
        assert!(Arc::ptr_eq(&base, &again));
        for step in 0..cfg.steps {
            a.adapt(&cfg, step);
            b.adapt(&cfg, step);
            assert!(Arc::ptr_eq(&a.mesh, &b.mesh));
            assert!(Arc::ptr_eq(&a.dual(), &b.dual()));
            let inherited = vec![0; a.mesh.num_active()];
            let (pa, _) = a.partition(&inherited, 4, cfg.use_remap);
            let (pb, _) = b.partition(&inherited, 4, cfg.use_remap);
            assert!(Arc::ptr_eq(&pa, &pb));
        }
        // A second run has its own memo and shares nothing with the first.
        assert!(!Arc::ptr_eq(
            &ReplicatedMesh::new(&cfg).mesh,
            &memo.replica(&cfg).mesh
        ));
    }

    #[test]
    fn racing_threads_compute_a_generation_once() {
        // Under `ExecMode::Thread` the memo is called from distinct OS
        // threads. Hold it to the stronger contract: eight threads reach
        // `adapt` together; exactly one computes, the rest wait and share.
        let cfg = AmrConfig::small();
        let memo = MeshMemo::new(&cfg);
        let gate = std::sync::Barrier::new(8);
        let meshes: Vec<Arc<AdaptiveMesh>> = std::thread::scope(|s| {
            let pes: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let mut state = memo.replica(&cfg);
                        gate.wait();
                        state.adapt(&cfg, 0);
                        state.mesh
                    })
                })
                .collect();
            pes.into_iter()
                .map(|pe| pe.join().expect("PE thread"))
                .collect()
        });
        assert!(meshes.iter().all(|m| Arc::ptr_eq(m, &meshes[0])));
    }

    #[test]
    #[should_panic(expected = "adaptation steps apply in order")]
    fn out_of_order_adapt_panics_by_name() {
        let cfg = AmrConfig::small();
        ReplicatedMesh::new(&cfg).adapt(&cfg, 1);
    }

    /// `encode_step_state`'s bytes run back through `decode_step_state`
    /// for a `tris`-triangle mesh on `pes` PEs.
    fn step_state_round_trip(
        field: &[f64],
        owner: &[u32],
        tris: usize,
        pes: usize,
    ) -> Result<(Vec<f64>, Vec<u32>), String> {
        let mut w = WireWriter::new();
        encode_step_state(&mut w, field, owner);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let state = decode_step_state(&mut r, tris, pes)?;
        r.finish()?;
        Ok(state)
    }

    #[test]
    fn restore_rejects_a_short_field() {
        let err = step_state_round_trip(&[0.0; 7], &[0; 8], 8, 2).unwrap_err();
        assert_eq!(err, "field covers 7 triangles, the replayed mesh has 8");
    }

    #[test]
    fn restore_rejects_a_short_owner() {
        let err = step_state_round_trip(&[0.0; 8], &[0; 7], 8, 2).unwrap_err();
        assert_eq!(err, "owner map covers 7 triangles, the replayed mesh has 8");
    }

    #[test]
    fn restore_rejects_an_owner_that_is_not_a_pe() {
        let (field, owner) = step_state_round_trip(&[0.5; 3], &[0, 1, 1], 3, 2).unwrap();
        assert_eq!((field, owner), (vec![0.5; 3], vec![0, 1, 1]));
        let err = step_state_round_trip(&[0.0; 3], &[0, 2, 1], 3, 2).unwrap_err();
        assert_eq!(err, "triangle 1 is owned by PE 2, the run has 2");
        // A word past `u32::MAX` is refused whole, never truncated to a
        // PE that exists (2³² + 1 would truncate to PE 1).
        let mut w = WireWriter::new();
        w.f64s(&[0.0]);
        w.u64s(&[(1 << 32) + 1]);
        let bytes = w.into_bytes();
        let err = decode_step_state(&mut WireReader::new(&bytes), 1, 2).unwrap_err();
        assert_eq!(err, "triangle 0 is owned by PE 4294967297, the run has 2");
    }

    #[test]
    fn problem_size_is_the_replayed_final_mesh() {
        use crate::{App, Model, NBodyConfig, RunOpts};
        let cfg = AmrConfig::small();
        let mut replay = ReplicatedMesh::new(&cfg);
        for step in 0..cfg.steps {
            replay.adapt(&cfg, step);
        }
        for pes in [1, 4] {
            for model in Model::ALL {
                let machine = Arc::new(machine::Machine::new(
                    pes,
                    machine::MachineConfig::origin2000(),
                ));
                let nbody = NBodyConfig::small();
                let m =
                    crate::run_app_opts(machine, App::Amr, model, &nbody, &cfg, RunOpts::default());
                assert_eq!(
                    m.problem_size,
                    replay.mesh.num_active(),
                    "{model:?} P={pes}"
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Everything a PE can observe of the replicated metadata after a step.
    #[derive(Debug, PartialEq)]
    struct Seen {
        tris_total: usize,
        active: Vec<u32>,
        new_parents: Vec<Option<u32>>,
        field: Vec<f64>,
        dual: (Vec<u32>, Vec<usize>, Vec<u32>),
        parts: Vec<u32>,
    }

    /// One step of the MP / SHMEM driver loop on `state`, host side only.
    fn step(
        state: &mut ReplicatedMesh,
        owner: &mut Vec<u32>,
        cfg: &AmrConfig,
        s: usize,
        nparts: usize,
    ) -> Seen {
        let before = state.mesh.num_tris_total();
        state.adapt(cfg, s);
        let new_parents: Vec<_> = (before..state.mesh.num_tris_total())
            .map(|t| state.mesh.parent_of(t as u32))
            .collect();
        for p in &new_parents {
            owner.push(owner[p.expect("has parent") as usize]);
        }
        let dual = state.dual();
        let inherited: Vec<u32> = dual.tris.iter().map(|&t| owner[t as usize]).collect();
        let (parts, _) = state.partition(&inherited, nparts, cfg.use_remap);
        for (i, &t) in dual.tris.iter().enumerate() {
            owner[t as usize] = parts[i];
        }
        Seen {
            tris_total: state.mesh.num_tris_total(),
            active: state.mesh.active_tris(),
            new_parents,
            field: state.field.clone(),
            dual: (dual.tris.clone(), dual.xadj.clone(), dual.adj.clone()),
            parts: parts.to_vec(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Sharing is invisible: replicas on one memo see, at every step,
        /// exactly what a stand-alone replica computes for itself,
        /// whichever of them asks first.
        #[test]
        fn shared_replicas_agree_with_stand_alone_ones(
            nx in 4usize..12,
            ny in 4usize..12,
            steps in 1usize..4,
            circular in any::<bool>(),
            use_remap in any::<bool>(),
            nparts_ix in 0usize..3,
        ) {
            let nparts = [1, 3, 8][nparts_ix];
            let cfg = AmrConfig { nx, ny, steps, circular, use_remap, ..AmrConfig::default() };
            let memo = MeshMemo::new(&cfg);
            let mut states = [memo.replica(&cfg), memo.replica(&cfg), ReplicatedMesh::new(&cfg)];
            let mut owners = states.clone().map(|st| vec![0u32; st.mesh.num_tris_total()]);
            for s in 0..steps {
                // Alternate which shared replica computes the generation.
                let order = if s % 2 == 0 { [0, 1, 2] } else { [1, 0, 2] };
                let mut seen = Vec::new();
                for i in order {
                    seen.push(step(&mut states[i], &mut owners[i], &cfg, s, nparts));
                }
                prop_assert_eq!(&seen[0], &seen[1]);
                prop_assert_eq!(&seen[0], &seen[2]);
            }
        }
    }
}
