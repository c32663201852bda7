//! The snap-gate coordinator: capture and restore of application runs.
//!
//! A [`Snapshotter`] is created once per run from the run's
//! [`RunOpts`](crate::RunOpts) and drives the whole checkpoint protocol
//! from inside the team closure:
//!
//! * **Off** (no `--snapshot`/`--restore`, or no matching snapshot file):
//!   every [`Snapshotter::point`] is a zero-virtual-cost team rendezvous
//!   ([`parallel::Ctx::gate`]). The gates exist in *every* run so
//!   that a capturing run is bitwise identical to a straight run.
//! * **Capture**: at the requested gate, each PE deposits its core state
//!   and its `app/<pe>` section (the gate's index, then the app's locals)
//!   host-side, passes the gate, and the first PE the scheduler resumes
//!   claims the write: it exports the scheduler (whose fingerprint
//!   already includes the gate-release pick), the fabric queues, and the
//!   model world, and writes one snapshot file. None of that touches a
//!   clock, a counter, or the scheduler, so the run's own results are
//!   unperturbed.
//! * **Resume**: the run skips its prologue (its allocations hand back
//!   the imported world's regions, uncharged), overlays each PE's core
//!   state and app state (the latter through [`Snapshotter::resume`],
//!   the one reader of `app/<pe>`), and
//!   *skips the gate at the resume point* — the straight run's gate
//!   release is already accounted inside the restored scheduler state —
//!   then replays the tail of the straight run bitwise. A machine
//!   variant's file resumes on a cold fabric, by rule. A snapshot that
//!   cannot be used panics, naming the file, the section and the cause:
//!   no error falls back to a from-scratch run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use machine::{ContentionMode, Machine, MachineConfig};
use o2k_snap::wire::{WireReader, WireWriter};
use o2k_snap::{
    decode_sched, encode_sched, fnv1a, run_tag, run_tag_prefix, snapshot_path, PeCore, SnapMeta,
    SnapPoint, SnapSpec, Snapshot,
};
use parallel::{Ctx, TeamResume};

use crate::metrics::{App, Model};

/// Filename slug for an application.
fn app_slug(app: App) -> &'static str {
    match app {
        App::NBody => "nbody",
        App::Amr => "amr",
        App::Serve => "serve",
    }
}

/// Filename slug for a model.
fn model_slug(model: Model) -> &'static str {
    match model {
        Model::Mp => "mp",
        Model::Shmem => "shmem",
        Model::Sas => "sas",
    }
}

/// The machine half of a snapshot's file name: the digest of the
/// config's `Debug` text, so any change to `MachineConfig`'s fields or
/// presets renames every capture (see the pin in this module's tests).
fn machine_digest(config: &MachineConfig) -> u64 {
    fnv1a(format!("{config:?}").as_bytes())
}

/// One PE's gate deposit: its core state plus its `app/<pe>` section.
type Deposit = (PeCore, Vec<u8>);

struct CaptureState {
    path: PathBuf,
    point: SnapPoint,
    meta: SnapMeta,
    deposits: Mutex<Vec<Option<Deposit>>>,
    claimed: AtomicBool,
}

impl CaptureState {
    /// `deposits`, locked: no panic leaves it half-updated, so poison is ignored.
    fn deposits(&self) -> MutexGuard<'_, Vec<Option<Deposit>>> {
        self.deposits.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct ResumeState {
    path: PathBuf,
    point: SnapPoint,
    apps: Vec<Vec<u8>>,
    world: Vec<u8>,
    team: Mutex<Option<TeamResume>>,
}

impl ResumeState {
    /// `team`, locked: no panic leaves it half-updated, so poison is ignored.
    fn team(&self) -> MutexGuard<'_, Option<TeamResume>> {
        self.team.lock().unwrap_or_else(|e| e.into_inner())
    }
}

enum Mode {
    Off,
    Capture(CaptureState),
    Resume(ResumeState),
}

/// Per-run snapshot coordinator. See the module docs for the protocol.
pub struct Snapshotter {
    mode: Mode,
}

impl Snapshotter {
    /// Decide this run's snapshot behaviour from `opts.snap` and nothing
    /// else (no spec, no snapshots). `cfg_debug` is
    /// a canonical rendering of the app config — its digest keys the
    /// snapshot filename, so a restore under a different problem size
    /// finds no file and runs from scratch. The machine config keys the
    /// filename too (scenario sweeps capture side by side without
    /// clobbering each other); restore prefers the exact machine's file
    /// and otherwise takes the first machine variant of the same workload.
    ///
    /// # Panics
    /// Panics when a restore's directory is unreadable or its snapshot for
    /// this run unusable.
    pub fn new(
        opts: &crate::RunOpts,
        app: App,
        model: Model,
        machine: &Machine,
        cfg_debug: &str,
    ) -> Self {
        let pes = machine.pes();
        let mach = machine_digest(&machine.config);
        let digest = fnv1a(cfg_debug.as_bytes());
        let (app_s, model_s) = (app_slug(app), model_slug(model));
        let mode = match opts.snap.clone() {
            None => Mode::Off,
            Some(SnapSpec::Capture { dir, point }) => Mode::Capture(CaptureState {
                path: snapshot_path(&dir, &run_tag(app_s, model_s, pes, digest, mach)),
                meta: SnapMeta {
                    app: app_s.into(),
                    model: model_s.into(),
                    pes: pes as u64,
                    point: point.clone(),
                    cfg_digest: digest,
                },
                point,
                deposits: Mutex::new(vec![None; pes]),
                claimed: AtomicBool::new(false),
            }),
            Some(SnapSpec::Restore { dir }) => {
                let exact = snapshot_path(&dir, &run_tag(app_s, model_s, pes, digest, mach));
                // Only the exact machine's file carries fabric state this
                // machine can continue from; the fabric is modelled iff
                // contention is on.
                let (path, fabric) = if exact.exists() {
                    (
                        exact,
                        Some(machine.config.contention != ContentionMode::Off),
                    )
                } else {
                    // No capture from this exact machine: take the
                    // lexicographically first snapshot of the same
                    // workload taken on any machine (deterministic pick).
                    let prefix = run_tag_prefix(app_s, model_s, pes, digest);
                    let ext = format!(".{}", o2k_snap::EXT);
                    let variant = std::fs::read_dir(&dir)
                        .and_then(|rd| {
                            rd.map(|e| e.map(|e| e.path()))
                                .collect::<Result<Vec<_>, _>>()
                        })
                        .unwrap_or_else(|e| panic!("cannot restore from {}: {e}", dir.display()))
                        .into_iter()
                        .filter(|p| {
                            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                            name.starts_with(&prefix) && name.ends_with(&ext)
                        })
                        .min();
                    let Some(variant) = variant else {
                        return Snapshotter { mode: Mode::Off };
                    };
                    (variant, None)
                };
                Mode::Resume(
                    Self::load_resume(path.clone(), app_s, model_s, pes, digest, fabric)
                        .unwrap_or_else(|e| panic!("cannot restore {}: {e}", path.display())),
                )
            }
        };
        Snapshotter { mode }
    }

    /// Read and check the snapshot at `path`. `fabric` is `None` for a
    /// machine variant's file, whose fabric section stays unread, and
    /// otherwise whether this machine models a fabric.
    fn load_resume(
        path: PathBuf,
        app: &str,
        model: &str,
        pes: usize,
        digest: u64,
        fabric: Option<bool>,
    ) -> Result<ResumeState, String> {
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        let snap = Snapshot::from_bytes(&bytes)?;
        let section = |name: &str| snap.require(name);
        let meta = SnapMeta::decode(section("meta")?).map_err(|e| format!("section meta: {e}"))?;
        if meta.app != app
            || meta.model != model
            || meta.pes != pes as u64
            || meta.cfg_digest != digest
        {
            return Err(format!(
                "section meta: snapshot is for {}-{}-p{} digest {:016x}, this run is {app}-{model}-p{pes} digest {digest:016x}",
                meta.app, meta.model, meta.pes, meta.cfg_digest,
            ));
        }
        let sched = decode_sched(section("sched")?).map_err(|e| format!("section sched: {e}"))?;
        if sched.clocks.len() != pes {
            return Err(format!(
                "section sched: covers {} PEs, run has {pes}",
                sched.clocks.len()
            ));
        }
        let mut cores = Vec::with_capacity(pes);
        let mut apps = Vec::with_capacity(pes);
        for pe in 0..pes {
            let name = format!("core/{pe}");
            let mut r = WireReader::new(section(&name)?);
            let core = PeCore::decode(&mut r).and_then(|c| r.finish().map(|()| c));
            cores.push(core.map_err(|e| format!("section {name}: {e}"))?);
            apps.push(section(&format!("app/{pe}"))?.to_vec());
        }
        let world = section("world")?.to_vec();
        let fabric = match (fabric, snap.get("fabric")) {
            (Some(false), Some(_)) => {
                return Err("section fabric: present, and this machine models none".into())
            }
            (Some(true), _) => Some(section("fabric")?.to_vec()),
            _ => None,
        };
        Ok(ResumeState {
            path,
            point: meta.point,
            apps,
            world,
            team: Mutex::new(Some(TeamResume {
                sched,
                cores,
                fabric,
            })),
        })
    }

    /// When resuming at a gate of family `name`: this PE's app state, read
    /// by `decode` from its `app/<pe>` section after the gate's index word,
    /// which `decode` gets too (the app jumps its outer loop straight to
    /// that iteration). `None` when the run resumes nowhere or elsewhere.
    ///
    /// # Panics
    /// Panics `cannot restore <file>: section app/<pe>: <cause>` when the
    /// index word is not `meta`'s, `decode` fails, or bytes are left over.
    pub fn resume<T>(
        &self,
        pe: usize,
        name: &str,
        decode: impl FnOnce(u64, &mut WireReader) -> Result<T, String>,
    ) -> Option<T> {
        let r = match &self.mode {
            Mode::Resume(r) if r.point.name == name => r,
            _ => return None,
        };
        let (at, mut rd) = (r.point.index, WireReader::new(&r.apps[pe]));
        let state = match rd.u64() {
            Ok(got) if got == at => decode(at, &mut rd).and_then(|s| rd.finish().map(|()| s)),
            Ok(got) => Err(format!("gate index {got}, but meta's point is {name}:{at}")),
            Err(e) => Err(e),
        };
        match state {
            Ok(state) => Some(state),
            Err(e) => panic!("cannot restore {}: section app/{pe}: {e}", r.path.display()),
        }
    }

    /// Feed the snapshot's model-world blob to `import` (e.g.
    /// `SymWorld::import_state_bytes`) before the team starts.
    ///
    /// # Panics
    /// Panics, naming the file, when the import fails: a run on a
    /// partially restored world would be silently wrong.
    pub fn import_world(&self, import: impl FnOnce(&[u8]) -> Result<(), String>) {
        if let Mode::Resume(r) = &self.mode {
            if let Err(e) = import(&r.world) {
                panic!(
                    "cannot restore {}: section world: import failed: {e}",
                    r.path.display()
                );
            }
        }
    }

    /// The substrate resume bundle for [`parallel::Team::run_resumed`].
    /// Yields `Some` exactly once per resuming run.
    pub fn team_resume(&self) -> Option<TeamResume> {
        match &self.mode {
            Mode::Resume(r) => r.team().take(),
            _ => None,
        }
    }

    /// A snap gate. Always a zero-virtual-cost team rendezvous; at the
    /// capture point it additionally writes the snapshot, and at the
    /// resume point of a resuming run it is skipped entirely (the
    /// restored scheduler state already contains the gate release).
    ///
    /// `state` writes this PE's app locals after the gate's index word;
    /// `world` serialises the model world (called on one PE only, after
    /// the gate) — both only ever invoked at the capture point.
    ///
    /// # Panics
    /// Panics if the snapshot file cannot be written.
    pub fn point(
        &self,
        ctx: &mut Ctx,
        name: &str,
        index: u64,
        state: impl FnOnce(&mut WireWriter),
        world: impl FnOnce() -> Vec<u8>,
    ) {
        match &self.mode {
            Mode::Off => ctx.gate(),
            Mode::Resume(r) => {
                if !(r.point.name == name && r.point.index == index) {
                    ctx.gate();
                }
            }
            Mode::Capture(c) => {
                if !(c.point.name == name && c.point.index == index) {
                    ctx.gate();
                    return;
                }
                let mut app = WireWriter::new();
                app.u64(index);
                state(&mut app);
                c.deposits()[ctx.pe()] = Some((ctx.export_core(), app.into_bytes()));
                ctx.gate();
                // The first PE the scheduler resumes after the gate holds
                // the floor: it assembles and writes the snapshot without a
                // single clock, counter, or scheduler interaction, so the
                // capturing run stays bitwise identical to a straight run.
                if !c.claimed.swap(true, Ordering::SeqCst) {
                    let sched = ctx.coop().export_resume();
                    let fabric = ctx.net().map(|n| n.export_state_bytes());
                    let mut snap = Snapshot::new();
                    snap.put("meta", c.meta.encode());
                    snap.put("sched", encode_sched(&sched));
                    for (pe, d) in c.deposits().iter().enumerate() {
                        let (core, app_bytes) =
                            d.as_ref().expect("every PE deposits before the gate");
                        let mut w = WireWriter::new();
                        core.encode(&mut w);
                        snap.put(&format!("core/{pe}"), w.into_bytes());
                        snap.put(&format!("app/{pe}"), app_bytes.clone());
                    }
                    snap.put("world", world());
                    if let Some(f) = fabric {
                        snap.put("fabric", f);
                    }
                    snap.save(&c.path).unwrap_or_else(|e| {
                        panic!("failed to write snapshot {}: {e}", c.path.display())
                    });
                }
            }
        }
    }
}

/// Write one CC-SAS PE's locals at a gate: just its private cache.
/// Everything else a SAS program holds is shared and travels in the
/// snapshot's world section (N-body: bodies and tree; AMR: the field,
/// directory and page homes — its replicated mesh is replayed from the
/// config on restore; serve: the table).
pub fn encode_sas_state(w: &mut WireWriter, pe: &sas::SasPe) {
    w.u64s(&pe.export_cache_words());
}

/// Inverse of [`encode_sas_state`]: reload `pe`'s private cache.
pub fn decode_sas_state(r: &mut WireReader, pe: &mut sas::SasPe) -> Result<(), String> {
    pe.import_cache_words(&r.u64s()?)
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;

    /// Fresh per-process scratch directory for a snapshot round-trip test.
    pub(crate) fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("o2ksnap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create snapshot scratch dir");
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A restore looks for its exact machine's file by
    /// [`machine_digest`]; when that digest moves, an old capture stops
    /// matching and is taken as a machine variant, resuming on a cold
    /// fabric. Moving the format version with it makes the old file fail
    /// the restore by name instead.
    #[test]
    fn the_machine_digest_moves_only_with_the_format_version() {
        assert_eq!(
            (
                o2k_snap::FORMAT_VERSION,
                machine_digest(&MachineConfig::origin2000())
            ),
            (8, 0x0214_f4ef_907a_e45a),
            "MachineConfig's Debug text changed, which renames every snapshot file: \
             bump o2k_snap::FORMAT_VERSION and re-pin both values, so an old capture \
             fails its restore by name (`snapshot format vN unsupported`) instead of \
             resuming as a machine variant on a cold fabric"
        );
    }
}
