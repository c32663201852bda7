//! # o2k-snap — checkpoint / snapshot-restore of full simulation state
//!
//! Every study in this repository pays an expensive prologue — building
//! the octree, converging the AMR mesh, warming the KV shards — before
//! the phase actually being measured, and the scenario sweeps (fault ×
//! contention × policy) re-pay it on every cell. This crate captures the
//! *complete* simulation state at a **virtual-time quiescence point** and
//! restores it later, so a sweep warm-starts once and fans out.
//!
//! ## Quiescence points
//!
//! A snapshot can only be taken where every PE's state lives in
//! model-visible data, not mid-coroutine-stack: a **named team-wide
//! barrier** (a zero-cost snap gate the apps place at their phase
//! boundaries). At such a gate:
//!
//! * every PE's virtual clock, counters and epochs are in its `Ctx`
//!   (captured as a [`PeCore`]);
//! * the scheduler's pick-sequence state is an
//!   [`o2k_sched::SchedResume`] — exported by the floor holder right
//!   *after* the gate released, so the release pick is already accounted;
//! * all mailboxes are empty (asserted), symmetric-heap / shared-region
//!   contents are quiescent bytes, and the fabric's busy-until queues are
//!   a plain table.
//!
//! The snap gates are present in **every** run (they cost zero virtual
//! time and touch no counters), so a capturing run is bitwise identical
//! to a straight run, and a restored run provably replays the straight
//! run's tail: same schedule fingerprint, same checksums, same stats.
//!
//! ## Container format
//!
//! One snapshot is one file: magic `O2KSNAP1`, a format version, and a
//! list of named byte sections (`sched`, `core/<pe>`, `app/<pe>`,
//! `world`, `fabric`, `meta`). All integers are u64 little-endian via
//! [`wire`]; sections owned by other crates (fabric, heap regions) are
//! opaque byte blobs to the container. [`FORMAT_VERSION`] is the one
//! version of the whole file, every section included: no section carries
//! a version word of its own. Every decoder reads its bytes to the end
//! and refuses trailing ones. Snapshots are keyed by a [`run_tag`] — app,
//! model, PE count and a config digest — so one directory holds a whole
//! suite's checkpoints. A run with no snapshot for its tag runs from
//! scratch; a snapshot that exists but cannot be used fails the run.

use std::path::{Path, PathBuf};

use machine::stats::Counters;
use machine::{SimTime, TimeBreakdown};
use o2k_sched::{SchedPolicy, SchedResume};

pub mod wire;

use wire::{WireReader, WireWriter};

/// Format version of the container and of every section in it; bump on
/// any layout change, the section codecs of other crates included.
///
/// v4: a CC-SAS PE's cache words (`CacheSim::export_words`) carry no
/// hit / miss statistics. v5: the fabric, CC-SAS and SHMEM sections lose
/// their own leading version words. v6: every `app/<pe>` section starts
/// with its gate's index word (the serving workload's had none). v7:
/// `core/<pe>` has no RNG word (PEs carry no RNG stream), and the machine
/// digest moves because `MachineConfig` lost its lock-cost field.
pub const FORMAT_VERSION: u64 = 7;

/// File magic: 8 bytes at offset zero.
pub const MAGIC: &[u8; 8] = b"O2KSNAP1";

/// Extension snapshots are written with.
pub const EXT: &str = "o2ksnap";

// ---------------------------------------------------------------------------
// Snapshot spec (what the CLI / RunOpts ask for)
// ---------------------------------------------------------------------------

/// A named snap gate: `"step:8"` captures at the gate named `step` with
/// index 8; `"warm"` captures at the first `warm` gate (index 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapPoint {
    /// Gate family name (`step`, `warm`, …).
    pub name: String,
    /// Which occurrence of the gate to capture at.
    pub index: u64,
}

impl SnapPoint {
    /// Parse `name[:index]`; a missing index means the first occurrence.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, index) = match s.split_once(':') {
            Some((n, i)) => (
                n,
                i.parse::<u64>()
                    .map_err(|e| format!("bad snap index {i:?}: {e}"))?,
            ),
            None => (s, 0),
        };
        if name.is_empty() {
            return Err("empty snap gate name".into());
        }
        Ok(SnapPoint {
            name: name.to_string(),
            index,
        })
    }
}

impl std::fmt::Display for SnapPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.name, self.index)
    }
}

/// What a run should do about snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapSpec {
    /// Write a snapshot into `dir` when execution reaches `point`, then
    /// keep running (the capturing run still produces its full result).
    Capture { dir: PathBuf, point: SnapPoint },
    /// Start from the snapshot in `dir` matching this run's [`run_tag`]
    /// (or, failing that, its [`run_tag_prefix`]). A run with no such
    /// file runs from scratch; a file that exists but cannot be used
    /// fails the run, naming the file, the section and the cause.
    Restore { dir: PathBuf },
}

impl SnapSpec {
    /// Parse the `--snapshot` argument: `dir@name[:index]`.
    pub fn parse_capture(s: &str) -> Result<Self, String> {
        let (dir, point) = s
            .split_once('@')
            .ok_or_else(|| format!("--snapshot wants <dir>@<gate>[:index], got {s:?}"))?;
        if dir.is_empty() {
            return Err("empty snapshot directory".into());
        }
        Ok(SnapSpec::Capture {
            dir: PathBuf::from(dir),
            point: SnapPoint::parse(point)?,
        })
    }

    /// The `--restore` argument: a directory of snapshots.
    pub fn parse_restore(s: &str) -> Result<Self, String> {
        if s.is_empty() {
            return Err("empty restore directory".into());
        }
        Ok(SnapSpec::Restore {
            dir: PathBuf::from(s),
        })
    }
}

// ---------------------------------------------------------------------------
// Run tags
// ---------------------------------------------------------------------------

/// FNV-1a over a byte string; the digest configs are keyed by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The filename stem identifying one run's snapshot:
/// `{app}-{model}-p{pes}-{config digest}-m{machine digest}`. The machine
/// digest (topology, contention mode, fault plan) keeps captures taken
/// under different scenarios from overwriting each other inside one
/// snapshot directory. Restore looks for the exact machine first — that
/// path replays bitwise, interconnect state included — and then takes
/// any machine variant of the same workload via [`run_tag_prefix`]:
/// application physics is machine-invariant, so a warm start under a new
/// fault plan or contention mode is still exact where it matters
/// (checksums). A variant restore starts from a cold fabric, by rule: the
/// captured fabric state belongs to another machine.
pub fn run_tag(app: &str, model: &str, pes: usize, cfg_digest: u64, mach_digest: u64) -> String {
    format!("{app}-{model}-p{pes}-{cfg_digest:016x}-m{mach_digest:016x}")
}

/// The machine-agnostic prefix of [`run_tag`] — everything up to and
/// including the `-m` separator. Restore scans the snapshot directory
/// for files with this prefix when the exact machine's file is absent.
pub fn run_tag_prefix(app: &str, model: &str, pes: usize, cfg_digest: u64) -> String {
    format!("{app}-{model}-p{pes}-{cfg_digest:016x}-m")
}

/// The snapshot path for `tag` inside `dir`.
pub fn snapshot_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("{tag}.{EXT}"))
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

/// An in-memory snapshot: named byte sections under one format version.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a section.
    pub fn put(&mut self, name: &str, bytes: Vec<u8>) {
        if let Some(s) = self.sections.iter_mut().find(|(n, _)| n == name) {
            s.1 = bytes;
        } else {
            self.sections.push((name.to_string(), bytes));
        }
    }

    /// A section's bytes, if present.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// A section's bytes, or an error naming the missing section.
    pub fn require(&self, name: &str) -> Result<&[u8], String> {
        self.get(name)
            .ok_or_else(|| format!("snapshot missing section {name:?}"))
    }

    /// Serialise to the container byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.raw(MAGIC);
        w.u64(FORMAT_VERSION);
        w.u64(self.sections.len() as u64);
        for (name, bytes) in &self.sections {
            w.str(name);
            w.bytes(bytes);
        }
        w.into_bytes()
    }

    /// Parse the container byte format; errors on a bad magic, another
    /// format version, truncation or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = WireReader::new(bytes);
        let magic = r.raw(MAGIC.len())?;
        if magic != MAGIC {
            return Err("not an o2k snapshot (bad magic)".into());
        }
        let version = r.u64()?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "snapshot format v{version} unsupported (this build reads v{FORMAT_VERSION})"
            ));
        }
        // A section is at least its two length prefixes.
        let n = r.count(16)?;
        let mut sections = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let bytes = r.bytes()?.to_vec();
            sections.push((name, bytes));
        }
        r.finish()?;
        Ok(Snapshot { sections })
    }

    /// Write the snapshot to `path`, creating parent directories.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_bytes())
    }
}

// ---------------------------------------------------------------------------
// Per-PE core state
// ---------------------------------------------------------------------------

/// The substrate-level state of one PE at a quiescence point: everything
/// its `Ctx` holds besides references to shared structures. Model and app
/// state ride in separate sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeCore {
    /// Virtual clock.
    pub now: SimTime,
    /// Categorised time accounting (sums to `now`).
    pub breakdown: TimeBreakdown,
    /// Event counters.
    pub counters: Counters,
    /// Barrier epoch (team-wide).
    pub global_epoch: u64,
    /// Queueing delay routed but not yet charged (`Ctx`'s `net_pending`).
    pub net_pending: SimTime,
}

impl PeCore {
    /// Serialise into `w`: the clock, its breakdown, every counter in
    /// [`Counters`]' declaration order (scalars, then histogram buckets),
    /// then the epoch and pending backlog.
    pub fn encode(&self, w: &mut WireWriter) {
        w.u64(self.now);
        w.u64(self.breakdown.busy);
        w.u64(self.breakdown.local);
        w.u64(self.breakdown.remote);
        w.u64(self.breakdown.sync);
        let c = &self.counters;
        for v in c.scalars().into_iter().chain(c.msg_size_hist) {
            w.u64(v);
        }
        w.u64(self.global_epoch);
        w.u64(self.net_pending);
    }

    /// Inverse of [`PeCore::encode`]. Refuses a clock whose breakdown
    /// does not sum to it: every advance of a clock is categorised.
    pub fn decode(r: &mut WireReader) -> Result<Self, String> {
        let now = r.u64()?;
        let breakdown = TimeBreakdown {
            busy: r.u64()?,
            local: r.u64()?,
            remote: r.u64()?,
            sync: r.u64()?,
        };
        let sum = [breakdown.local, breakdown.remote, breakdown.sync]
            .into_iter()
            .try_fold(breakdown.busy, u64::checked_add);
        if sum != Some(now) {
            return Err(format!(
                "clock {now} ns, but its breakdown sums to {}",
                sum.map_or("more than u64::MAX".into(), |s| format!("{s} ns"))
            ));
        }
        let mut c = Counters::new();
        for f in c.scalars_mut() {
            *f = r.u64()?;
        }
        for f in &mut c.msg_size_hist {
            *f = r.u64()?;
        }
        Ok(PeCore {
            now,
            breakdown,
            counters: c,
            global_epoch: r.u64()?,
            net_pending: r.u64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Scheduler section
// ---------------------------------------------------------------------------

/// Serialise a [`SchedResume`] (the `sched` section).
pub fn encode_sched(r: &SchedResume) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.str(&r.policy.to_string());
    w.u64s(&r.clocks);
    w.u64(r.fingerprint);
    w.u64(r.switches);
    w.u64(r.current as u64);
    w.u64(r.rng_state);
    w.into_bytes()
}

/// Inverse of [`encode_sched`].
///
/// # Errors
/// Errors on truncation, trailing bytes, or a current PE past the last
/// clock.
pub fn decode_sched(bytes: &[u8]) -> Result<SchedResume, String> {
    let mut r = WireReader::new(bytes);
    let policy = SchedPolicy::parse(&r.str()?)?;
    let clocks = r.u64s()?;
    let resume = SchedResume {
        policy,
        clocks,
        fingerprint: r.u64()?,
        switches: r.u64()?,
        current: r.u64()? as usize,
        rng_state: r.u64()?,
    };
    r.finish()?;
    if resume.current >= resume.clocks.len() {
        return Err(format!(
            "sched section: current PE {} is past the last of {} PEs",
            resume.current,
            resume.clocks.len()
        ));
    }
    Ok(resume)
}

// ---------------------------------------------------------------------------
// Meta section
// ---------------------------------------------------------------------------

/// The `meta` section: what run this snapshot came from and where in it
/// the state stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapMeta {
    /// App name (`nbody`, `amr`, `serve`).
    pub app: String,
    /// Model name (`mp`, `shmem`, `sas`).
    pub model: String,
    /// PE count.
    pub pes: u64,
    /// The gate the snapshot was taken at.
    pub point: SnapPoint,
    /// Config digest the [`run_tag`] was built from.
    pub cfg_digest: u64,
}

impl SnapMeta {
    /// Serialise the `meta` section.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.str(&self.app);
        w.str(&self.model);
        w.u64(self.pes);
        w.str(&self.point.name);
        w.u64(self.point.index);
        w.u64(self.cfg_digest);
        w.into_bytes()
    }

    /// Inverse of [`SnapMeta::encode`]; errors on truncation or trailing
    /// bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = WireReader::new(bytes);
        let meta = SnapMeta {
            app: r.str()?,
            model: r.str()?,
            pes: r.u64()?,
            point: SnapPoint {
                name: r.str()?,
                index: r.u64()?,
            },
            cfg_digest: r.u64()?,
        };
        r.finish().map(|()| meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        assert_eq!(
            SnapSpec::parse_capture("snaps@step:8").unwrap(),
            SnapSpec::Capture {
                dir: PathBuf::from("snaps"),
                point: SnapPoint {
                    name: "step".into(),
                    index: 8
                }
            }
        );
        assert_eq!(
            SnapSpec::parse_capture("d@warm").unwrap(),
            SnapSpec::Capture {
                dir: PathBuf::from("d"),
                point: SnapPoint {
                    name: "warm".into(),
                    index: 0
                }
            }
        );
        assert!(SnapSpec::parse_capture("no-gate").is_err());
        assert!(SnapSpec::parse_capture("d@step:x").is_err());
        assert!(SnapSpec::parse_capture("@step").is_err());
        assert!(SnapSpec::parse_restore("").is_err());
    }

    #[test]
    fn container_roundtrip() {
        let mut s = Snapshot::new();
        s.put("sched", vec![1, 2, 3]);
        s.put("core/0", vec![]);
        s.put("app/0", vec![0xff; 100]);
        s.put("sched", vec![9]); // replace
        let back = Snapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back.get("sched"), Some(&[9u8][..]));
        assert_eq!(back.get("core/0"), Some(&[][..]));
        assert_eq!(back.get("app/0").unwrap().len(), 100);
        assert!(back.get("missing").is_none());
        assert!(back.require("missing").is_err());
    }

    #[test]
    fn container_rejects_foreign_bytes() {
        assert!(Snapshot::from_bytes(b"GARBAGE!").is_err());
        let mut ok = Snapshot::new().to_bytes();
        ok[7] ^= 1; // corrupt the magic
        assert!(Snapshot::from_bytes(&ok).is_err());
    }

    #[test]
    fn container_refuses_a_trailing_byte() {
        let mut s = Snapshot::new();
        s.put("sched", vec![1, 2, 3]);
        let bytes = [s.to_bytes(), vec![0]].concat();
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, "1 trailing bytes after snapshot section");
    }

    /// A `PeCore` whose every counter holds a distinct value, set through
    /// the one counter list.
    fn distinct_core() -> PeCore {
        let mut counters = Counters::new();
        for (i, f) in counters.scalars_mut().into_iter().enumerate() {
            *f = 1 + i as u64 * 0x1_0001;
        }
        for (i, b) in counters.msg_size_hist.iter_mut().enumerate() {
            *b = 1000 + i as u64;
        }
        PeCore {
            now: 1234,
            breakdown: TimeBreakdown {
                busy: 1000,
                local: 200,
                remote: 30,
                sync: 4,
            },
            counters,
            global_epoch: 5,
            net_pending: 99,
        }
    }

    fn encoded(core: &PeCore) -> Vec<u8> {
        let mut w = WireWriter::new();
        core.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn every_counter_survives_merge_diff_and_the_snapshot_codec() {
        let core = distinct_core();
        let c = &core.counters;
        // The struct is the list plus the five histogram buckets, nothing
        // else: a field declared outside the list fails here.
        assert_eq!(
            std::mem::size_of::<Counters>(),
            8 * (Counters::NAMES.len() + 5)
        );
        let mut doubled = c.clone();
        doubled.merge(c);
        let twice = |v: u64| 2 * v;
        assert_eq!(doubled.scalars(), c.scalars().map(twice));
        assert_eq!(doubled.msg_size_hist, c.msg_size_hist.map(twice));
        assert_eq!(doubled.diff(c), *c);
        let bytes = encoded(&core);
        let back = PeCore::decode(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(back, core);
    }

    /// The `core/<pe>` layout is fixed: clock, breakdown, counters, epoch,
    /// backlog. A new counter changes the layout, so it bumps
    /// [`FORMAT_VERSION`] and re-pins.
    #[test]
    fn the_core_section_bytes_are_pinned() {
        let bytes = encoded(&distinct_core());
        assert_eq!(bytes.len(), 8 * (5 + 24 + 5 + 2));
        assert_eq!(fnv1a(&bytes), 0x3131_34f7_5db1_630b);
    }

    #[test]
    fn a_core_whose_breakdown_misses_its_clock_is_refused() {
        let decode = |core: &PeCore| PeCore::decode(&mut WireReader::new(&encoded(core)));
        let late = PeCore {
            now: 1235,
            ..distinct_core()
        };
        assert_eq!(
            decode(&late).unwrap_err(),
            "clock 1235 ns, but its breakdown sums to 1234 ns"
        );
        // A breakdown past `u64::MAX` is refused, not wrapped onto `now`.
        let mut wrapped = distinct_core();
        wrapped.breakdown.sync = u64::MAX - 1229;
        wrapped.now = 4;
        assert_eq!(
            decode(&wrapped).unwrap_err(),
            "clock 4 ns, but its breakdown sums to more than u64::MAX"
        );
    }

    #[test]
    fn sched_section_roundtrip() {
        let r = SchedResume {
            policy: SchedPolicy::Explore { seed: 3 },
            clocks: vec![10, 20, 30],
            fingerprint: 0xfeed,
            switches: 42,
            current: 1,
            rng_state: 77,
        };
        assert_eq!(decode_sched(&encode_sched(&r)).unwrap(), r);
    }

    #[test]
    fn sched_section_refuses_a_current_past_the_last_pe() {
        let r = SchedResume {
            policy: SchedPolicy::Det,
            clocks: vec![10, 20, 30],
            fingerprint: 0xfeed,
            switches: 42,
            current: 3,
            rng_state: 77,
        };
        let err = decode_sched(&encode_sched(&r)).unwrap_err();
        assert_eq!(err, "sched section: current PE 3 is past the last of 3 PEs");
        let far = SchedResume {
            current: usize::MAX,
            ..r
        };
        assert!(decode_sched(&encode_sched(&far)).is_err());
    }

    #[test]
    fn sched_section_refuses_a_trailing_word() {
        let r = SchedResume {
            policy: SchedPolicy::Det,
            clocks: vec![10, 20],
            fingerprint: 1,
            switches: 2,
            current: 1,
            rng_state: 3,
        };
        let mut w = WireWriter::new();
        w.raw(&encode_sched(&r));
        w.u64(0);
        let err = decode_sched(&w.into_bytes()).unwrap_err();
        assert_eq!(err, "8 trailing bytes after snapshot section");
    }

    #[test]
    fn meta_refuses_a_trailing_word() {
        let m = SnapMeta {
            app: "nbody".into(),
            model: "mp".into(),
            pes: 2,
            point: SnapPoint::parse("warm").unwrap(),
            cfg_digest: 7,
        };
        let err = SnapMeta::decode(&[m.encode(), vec![0; 8]].concat()).unwrap_err();
        assert_eq!(err, "8 trailing bytes after snapshot section");
    }

    #[test]
    fn meta_roundtrip_and_tag() {
        let m = SnapMeta {
            app: "amr".into(),
            model: "shmem".into(),
            pes: 8,
            point: SnapPoint {
                name: "step".into(),
                index: 3,
            },
            cfg_digest: fnv1a(b"cfg"),
        };
        assert_eq!(SnapMeta::decode(&m.encode()).unwrap(), m);
        let tag = run_tag(
            &m.app,
            &m.model,
            m.pes as usize,
            m.cfg_digest,
            fnv1a(b"mach"),
        );
        assert!(tag.starts_with(&run_tag_prefix(
            &m.app,
            &m.model,
            m.pes as usize,
            m.cfg_digest
        )));
        assert_eq!(
            snapshot_path(Path::new("snaps"), &tag),
            PathBuf::from(format!("snaps/{tag}.o2ksnap"))
        );
    }
}
