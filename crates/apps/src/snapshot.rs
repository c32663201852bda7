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
//!   and serialised app locals host-side, passes the gate, and the first
//!   PE the scheduler resumes claims the write: it exports the scheduler
//!   (whose fingerprint already includes the gate-release pick), the
//!   fabric queues, and the model world, and writes one snapshot file.
//!   None of that touches a clock, a counter, or the scheduler, so the
//!   run's own results are unperturbed.
//! * **Resume**: the run skips its prologue, attaches to the imported
//!   world, overlays each PE's core + app state, and *skips the gate at
//!   the resume point* — the straight run's gate release is already
//!   accounted inside the restored scheduler state — then replays the
//!   tail of the straight run bitwise.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use machine::Machine;
use o2k_snap::wire::{WireReader, WireWriter};
use o2k_snap::{
    decode_sched, encode_sched, fnv1a, run_tag, run_tag_prefix, snapshot_path, PeCore, SnapMeta,
    SnapPoint, SnapSpec, Snapshot,
};
use parallel::{Ctx, TeamResume};
use parking_lot::Mutex;

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

/// One PE's gate deposit: its core state plus serialised app locals.
type Deposit = (PeCore, Vec<u8>);

struct CaptureState {
    path: PathBuf,
    point: SnapPoint,
    meta: SnapMeta,
    deposits: Mutex<Vec<Option<Deposit>>>,
    claimed: AtomicBool,
}

struct ResumeState {
    point: SnapPoint,
    payloads: Vec<Vec<u8>>,
    world: Vec<u8>,
    team: Mutex<Option<TeamResume>>,
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
    /// cleanly misses and runs from scratch. The machine config keys the
    /// filename too (scenario sweeps capture side by side without
    /// clobbering each other); restore prefers the exact machine's file
    /// and falls back to any machine variant of the same workload.
    pub fn new(
        opts: &crate::RunOpts,
        app: App,
        model: Model,
        machine: &Machine,
        cfg_debug: &str,
    ) -> Self {
        let pes = machine.pes();
        let mach = fnv1a(format!("{:?}", machine.config).as_bytes());
        let mode = match opts.snap.clone() {
            None => Mode::Off,
            Some(SnapSpec::Capture { dir, point }) => {
                let digest = fnv1a(cfg_debug.as_bytes());
                let tag = run_tag(app_slug(app), model_slug(model), pes, digest, mach);
                Mode::Capture(CaptureState {
                    path: snapshot_path(&dir, &tag),
                    meta: SnapMeta {
                        app: app_slug(app).into(),
                        model: model_slug(model).into(),
                        pes: pes as u64,
                        point: point.clone(),
                        cfg_digest: digest,
                    },
                    point,
                    deposits: Mutex::new(vec![None; pes]),
                    claimed: AtomicBool::new(false),
                })
            }
            Some(SnapSpec::Restore { dir }) => {
                let digest = fnv1a(cfg_debug.as_bytes());
                let exact = snapshot_path(
                    &dir,
                    &run_tag(app_slug(app), model_slug(model), pes, digest, mach),
                );
                let path = if exact.exists() {
                    Some(exact)
                } else {
                    // No capture from this exact machine: fall back to the
                    // lexicographically first snapshot of the same workload
                    // taken on any machine (deterministic pick).
                    let prefix = run_tag_prefix(app_slug(app), model_slug(model), pes, digest);
                    let mut candidates: Vec<PathBuf> = std::fs::read_dir(&dir)
                        .map(|rd| {
                            rd.filter_map(|e| e.ok().map(|e| e.path()))
                                .filter(|p| {
                                    p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                                        n.starts_with(&prefix)
                                            && n.ends_with(&format!(".{}", o2k_snap::EXT))
                                    })
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    candidates.sort();
                    candidates.into_iter().next()
                };
                let Some(path) = path else {
                    return Snapshotter { mode: Mode::Off };
                };
                match Self::load_resume(&path, app, model, pes, digest) {
                    Ok(r) => Mode::Resume(r),
                    Err(e) => {
                        eprintln!(
                            "warning: ignoring snapshot {} ({e}); running from scratch",
                            path.display()
                        );
                        Mode::Off
                    }
                }
            }
        };
        Snapshotter { mode }
    }

    fn load_resume(
        path: &std::path::Path,
        app: App,
        model: Model,
        pes: usize,
        digest: u64,
    ) -> Result<ResumeState, String> {
        let snap = Snapshot::load(path)?;
        let meta = SnapMeta::decode(snap.require("meta")?)?;
        if meta.app != app_slug(app)
            || meta.model != model_slug(model)
            || meta.pes != pes as u64
            || meta.cfg_digest != digest
        {
            return Err(format!(
                "snapshot is for {}-{}-p{} digest {:016x}, this run is {}-{}-p{pes} digest {digest:016x}",
                meta.app, meta.model, meta.pes, meta.cfg_digest,
                app_slug(app), model_slug(model)
            ));
        }
        let sched = decode_sched(snap.require("sched")?)?;
        if sched.clocks.len() != pes {
            return Err(format!(
                "snapshot sched covers {} PEs, run has {pes}",
                sched.clocks.len()
            ));
        }
        let mut cores = Vec::with_capacity(pes);
        let mut payloads = Vec::with_capacity(pes);
        for pe in 0..pes {
            let mut r = WireReader::new(snap.require(&format!("core/{pe}"))?);
            cores.push(PeCore::decode(&mut r)?);
            r.finish()?;
            payloads.push(snap.require(&format!("app/{pe}"))?.to_vec());
        }
        let world = snap.require("world")?.to_vec();
        let fabric = snap.get("fabric").map(|b| b.to_vec());
        Ok(ResumeState {
            point: meta.point,
            payloads,
            world,
            team: Mutex::new(Some(TeamResume {
                sched,
                cores,
                fabric,
            })),
        })
    }

    /// When resuming at a gate of family `name`, its index — the app jumps
    /// its outer loop straight to this iteration.
    pub fn resume_index(&self, name: &str) -> Option<u64> {
        match &self.mode {
            Mode::Resume(r) if r.point.name == name => Some(r.point.index),
            _ => None,
        }
    }

    /// This PE's serialised app locals from the snapshot, when resuming.
    pub fn payload(&self, pe: usize) -> Option<&[u8]> {
        match &self.mode {
            Mode::Resume(r) => Some(&r.payloads[pe]),
            _ => None,
        }
    }

    /// Feed the snapshot's model-world blob to `import` (e.g.
    /// `SymWorld::import_state_bytes`) before the team starts. On import
    /// failure the whole run falls back to from-scratch — a partially
    /// restored world would be silently wrong.
    pub fn import_world(&mut self, import: impl FnOnce(&[u8]) -> Result<(), String>) {
        if let Mode::Resume(r) = &self.mode {
            if let Err(e) = import(&r.world) {
                eprintln!("warning: snapshot world import failed ({e}); running from scratch");
                self.mode = Mode::Off;
            }
        }
    }

    /// The substrate resume bundle for [`parallel::Team::run_resumed`].
    /// Yields `Some` exactly once per resuming run.
    pub fn team_resume(&self) -> Option<TeamResume> {
        match &self.mode {
            Mode::Resume(r) => r.team.lock().take(),
            _ => None,
        }
    }

    /// A snap gate. Always a zero-virtual-cost team rendezvous; at the
    /// capture point it additionally writes the snapshot, and at the
    /// resume point of a resuming run it is skipped entirely (the
    /// restored scheduler state already contains the gate release).
    ///
    /// `payload` serialises this PE's app locals; `world` serialises the
    /// model world (called on one PE only, after the gate) — both only
    /// ever invoked at the capture point.
    ///
    /// # Panics
    /// Panics if the snapshot file cannot be written.
    pub fn point(
        &self,
        ctx: &mut Ctx,
        name: &str,
        index: u64,
        payload: impl FnOnce() -> Vec<u8>,
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
                c.deposits.lock()[ctx.pe()] = Some((ctx.export_core(), payload()));
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
                    for (pe, d) in c.deposits.lock().iter().enumerate() {
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

/// Serialise one CC-SAS PE's locals at a step boundary: just its private
/// cache. Everything else a SAS program holds is shared and travels in the
/// snapshot's world section (N-body: bodies and tree; AMR: the field,
/// directory and page homes — its replicated mesh is replayed from the
/// config on restore).
pub(crate) fn encode_sas_state(step: u64, pe: &sas::SasPe) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(step);
    w.u64s(&pe.export_cache_words());
    w.into_bytes()
}

/// Inverse of [`encode_sas_state`].
pub(crate) fn decode_sas_state(bytes: &[u8], step: u64) -> Vec<u64> {
    let mut r = WireReader::new(bytes);
    let got = r.u64().expect("snapshot app payload: step");
    assert_eq!(got, step, "snapshot payload is for a different step");
    let cache = r.u64s().expect("snapshot app payload: cache");
    r.finish().expect("snapshot app payload: trailing bytes");
    cache
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
