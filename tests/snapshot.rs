//! Snapshot / restore acceptance tests (DESIGN.md §4g).
//!
//! The contract under test: a snapshot captured at a virtual-time
//! quiescence point, restored into a fresh process, replays the
//! uninterrupted run's tail **bitwise** — same physics checksum bits, same
//! simulated times, same merged counters, same per-link NetStats, same
//! schedule fingerprint. And the capturing run itself is indistinguishable
//! from a plain run: snap gates cost zero virtual time.
//!
//! Two layers of evidence:
//!
//! * **Golden round-trips** — one MP, one SHMEM, and one CC-SAS workload,
//!   each captured at a mid-run step barrier and restored, on BOTH the
//!   thread and event execution backends, on a contended (queued) machine
//!   so NetStats is live and compared.
//! * **Property tests** — random (app, model, backend, P ∈ {2,4,8}, gate
//!   index) round-trips; the invariant never depends on which barrier the
//!   snapshot lands on.
//!
//! And the other half of the contract: a snapshot that exists but cannot
//! be used fails the run by name — never a from-scratch run in its place
//! — while a snapshot taken on another machine variant restores onto a
//! cold fabric and keeps the physics of its from-scratch twin.

use std::path::PathBuf;
use std::sync::Arc;

use origin2k::machine::ContentionMode;
use origin2k::prelude::*;
use origin2k::snap::{SnapPoint, SnapSpec, Snapshot};

/// A machine with the queued contention model on, so runs carry NetStats
/// and the snapshot round-trip exercises the fabric export/import path.
fn contended(p: usize) -> Arc<Machine> {
    Arc::new(Machine::new(
        p,
        MachineConfig {
            contention: ContentionMode::Queued,
            ..MachineConfig::origin2000()
        },
    ))
}

/// Fresh scratch directory for one round-trip.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "o2ksnap-accept-{}-{}",
        tag.replace('/', "-"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create snapshot scratch dir");
    dir
}

fn det(exec: ExecMode, snap: Option<SnapSpec>) -> RunOpts {
    RunOpts {
        sched: Some(SchedPolicy::Det),
        exec: Some(exec),
        snap,
        ..RunOpts::default()
    }
}

/// Byte-level equivalence of two runs: everything the goldens derive from.
fn assert_same_run(tag: &str, a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{tag}: checksum bits"
    );
    assert_eq!(a.sim_time, b.sim_time, "{tag}: sim time");
    assert_eq!(a.counters, b.counters, "{tag}: merged counters");
    assert_eq!(a.per_pe, b.per_pe, "{tag}: per-PE breakdowns");
    assert_eq!(a.net, b.net, "{tag}: NetStats");
    let (fa, fb) = (a.sched.as_ref().unwrap(), b.sched.as_ref().unwrap());
    assert_eq!(fa.fingerprint, fb.fingerprint, "{tag}: pick sequence");
    assert_eq!(fa.switches, fb.switches, "{tag}: handoff count");
}

/// Straight run, capture run, restored run — all three must agree on every
/// observable. Returns nothing; panics with `tag` context on divergence.
fn round_trip(
    tag: &str,
    machine: impl Fn() -> Arc<Machine>,
    app: App,
    model: Model,
    exec: ExecMode,
    gate_index: u64,
) {
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    let dir = scratch(tag);
    let gate = SnapPoint {
        name: "step".into(),
        index: gate_index,
    };
    let straight = run_app_opts(machine(), app, model, &nb, &am, det(exec, None));
    let captured = run_app_opts(
        machine(),
        app,
        model,
        &nb,
        &am,
        det(
            exec,
            Some(SnapSpec::Capture {
                dir: dir.clone(),
                point: gate,
            }),
        ),
    );
    let restored = run_app_opts(
        machine(),
        app,
        model,
        &nb,
        &am,
        det(exec, Some(SnapSpec::Restore { dir: dir.clone() })),
    );
    assert_same_run(
        &format!("{tag}: capture run vs straight"),
        &captured,
        &straight,
    );
    assert_same_run(
        &format!("{tag}: restored run vs straight"),
        &restored,
        &straight,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- golden round-trips

/// The acceptance matrix: one workload per model, restored at a mid-run
/// step barrier, on both execution backends, with the contention model on.
#[test]
fn mid_run_restore_replays_the_tail_bitwise_per_model_and_backend() {
    let cases = [
        (App::Amr, Model::Mp),
        (App::NBody, Model::Shmem),
        (App::Amr, Model::Sas),
    ];
    for exec in [ExecMode::Thread, ExecMode::Event] {
        for (app, model) in cases {
            let tag = format!("{}/{}/{exec:?}", app.name(), model.name());
            round_trip(&tag, || contended(4), app, model, exec, 1);
        }
    }
}

/// Restoring a snapshot captured on the thread backend into the event
/// backend (and vice versa) is also exact: the snapshot speaks virtual
/// time, not host threads.
#[test]
fn snapshots_are_portable_across_execution_backends() {
    let nb = NBodyConfig::small();
    let am = AmrConfig::small();
    let dir = scratch("cross-backend");
    let gate = SnapPoint {
        name: "step".into(),
        index: 1,
    };
    let straight = run_app_opts(
        contended(4),
        App::Amr,
        Model::Shmem,
        &nb,
        &am,
        det(ExecMode::Event, None),
    );
    // Capture on the thread backend...
    run_app_opts(
        contended(4),
        App::Amr,
        Model::Shmem,
        &nb,
        &am,
        det(
            ExecMode::Thread,
            Some(SnapSpec::Capture {
                dir: dir.clone(),
                point: gate,
            }),
        ),
    );
    // ...restore on the event backend.
    let restored = run_app_opts(
        contended(4),
        App::Amr,
        Model::Shmem,
        &nb,
        &am,
        det(
            ExecMode::Event,
            Some(SnapSpec::Restore { dir: dir.clone() }),
        ),
    );
    assert_same_run(
        "thread-captured snapshot on event core",
        &restored,
        &straight,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fabric's structure-of-arrays resource table must round-trip
/// through the snapshot codec exactly: drive mid-run traffic (scalar
/// routes, a vectored charge run, a phase boundary), export, import into
/// a fresh fabric, and the restored table must re-export byte-identical
/// and answer every read-side query (stats, hotspots, per-phase reports)
/// identically.
#[test]
fn soa_fabric_state_round_trips_bitwise_mid_run() {
    use origin2k::machine::Topology;
    use origin2k::parallel::NetSim;
    let topo = Topology::new(16, 2);
    let cfg = MachineConfig::origin2000();
    let net = NetSim::new(&topo, &cfg);
    let mut t = 0u64;
    net.begin_phase("warm");
    for i in 0..200usize {
        t += 40;
        let src = i % 8;
        let dst = (src + 3) % 8;
        net.route((src * 2) as u32, src, dst, 256, t);
    }
    net.begin_phase("hot");
    for i in 0..100usize {
        t += 40;
        let src = i % 8;
        // A fill + invalidation-sweep shaped vectored charge.
        let items: Vec<(usize, usize)> = (1..5).map(|d| ((src + d) % 8, 64)).collect();
        net.try_route_many((src * 2) as u32, src, &items, t, true, 0)
            .expect("healthy fabric");
    }
    let bytes = net.export_state_bytes();
    let fresh = NetSim::new(&topo, &cfg);
    fresh
        .import_state_bytes(&bytes)
        .expect("same-shape fabric import");
    assert_eq!(
        fresh.export_state_bytes(),
        bytes,
        "import → export must be the identity on the SoA table"
    );
    assert_eq!(fresh.stats(), net.stats(), "restored NetStats");
    assert_eq!(fresh.hotspots(8), net.hotspots(8), "restored hotspot rows");
    // And the restored fabric keeps evolving identically: one more
    // vectored charge on each must agree delay-for-delay.
    let items = [(5usize, 128usize), (6, 128), (7, 128)];
    let a = net.try_route_many(2, 1, &items, t + 40, true, 0).unwrap();
    let b = fresh.try_route_many(2, 1, &items, t + 40, true, 0).unwrap();
    assert_eq!(a, b, "post-restore charging must continue bitwise");
}

/// A snapshot's length prefixes come from the file. A count the bytes
/// after it cannot hold — `u64::MAX / 64` overflows `Vec`'s capacity, 2³⁴
/// asks for hundreds of GiB — must be an `Err` from every decoder (so
/// `Snapshotter` can fail the run naming the file and the cause), never
/// an unnamed panic or an allocator abort; and cutting a valid file short
/// still says so.
#[test]
fn hostile_length_prefixes_are_errors_in_every_decoder() {
    use origin2k::sched::SchedResume;
    use origin2k::snap::{decode_sched, encode_sched};
    let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
    let m = Machine::origin2000(2);
    let sas = origin2k::sas::SasWorld::new(Arc::clone(&m));
    let sym = origin2k::shmem::SymWorld::new(Arc::clone(&m));
    let net = origin2k::parallel::NetSim::new(&m.topology, &m.config);
    let fabric = net.export_state_bytes();
    let sched = encode_sched(&SchedResume {
        policy: SchedPolicy::Det,
        clocks: vec![1, 2],
        fingerprint: 3,
        switches: 4,
        current: 0,
        rng_state: 5,
    });
    let mut snap = Snapshot::new();
    snap.put("sched", sched.clone());
    snap.put("fabric", fabric.clone());
    let container = snap.to_bytes();

    for n in [u64::MAX / 64, 1 << 34] {
        // Container: magic, format version, section count.
        let c = [&container[..16], &words(&[n])].concat();
        assert!(Snapshot::from_bytes(&c).is_err(), "container count {n}");
        // `sched`: the clock count follows the 8 + 3 bytes of "det".
        let s = [&sched[..11], &words(&[n]), &sched[19..]].concat();
        assert!(decode_sched(&s).is_err(), "sched clocks {n}");
        // CC-SAS: PEs, paging policy, region count, region length.
        assert!(sas.import_state_bytes(&words(&[2, 0, n])).is_err());
        assert!(sas.import_state_bytes(&words(&[2, 0, 1, n])).is_err());
        // SHMEM: PEs, region count, region length.
        assert!(sym.import_state_bytes(&words(&[2, n])).is_err());
        assert!(sym.import_state_bytes(&words(&[2, 1, n])).is_err());
        // Fabric: detoured, spans dropped, resource count; the phase
        // count is the last word of a phase-less export.
        assert!(net.import_state_bytes(&words(&[0, 0, n])).is_err());
        let f = [&fabric[..fabric.len() - 8], &words(&[n])].concat();
        assert!(net.import_state_bytes(&f).is_err(), "fabric phases {n}");
    }

    // A container carrying another format version is refused by name,
    // never mis-decoded.
    let v7 = [&container[..8], &words(&[7]), &container[16..]].concat();
    let err = Snapshot::from_bytes(&v7).unwrap_err();
    assert_eq!(err, "snapshot format v7 unsupported (this build reads v8)");

    net.import_state_bytes(&fabric).expect("untouched export");
    for cut in [1, 9, container.len() / 2] {
        let err = Snapshot::from_bytes(&container[..container.len() - cut]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }
    let err = decode_sched(&sched[..sched.len() - 8]).unwrap_err();
    assert!(err.contains("truncated"), "{err}");
    let err = net.import_state_bytes(&fabric[..fabric.len() - 8]);
    assert!(err.unwrap_err().contains("truncated"));
}

// ------------------------------------------------- restore or fail by name

/// Run `app`/`model` on `machine` under `snap`: N-body and AMR at their
/// small configs, the serving workload in Q1's shape (uniform keys,
/// 256 B values, Q1's gaps and poll) on a smaller table.
fn run_under(machine: Arc<Machine>, app: App, model: Model, snap: SnapSpec) {
    let opts = det(ExecMode::Event, Some(snap));
    if app == App::Serve {
        let q1 = ServeConfig {
            keys: 1_024,
            requests: 2_000,
            mean_gap_ns: 25_000,
            skew: 1.0,
            val_words: 32,
            service_ns: 1_500,
            poll_ns: 4_000,
            seed: 0x00C0_FFEE,
            ..ServeConfig::default()
        };
        origin2k::serve::run_opts(machine, model, &q1, opts);
    } else {
        let (nb, am) = (NBodyConfig::small(), AmrConfig::small());
        run_app_opts(machine, app, model, &nb, &am, opts);
    }
}

/// Capture `app`/`model` on `machine` at its first gate (`step:0`; the
/// serving workload's is `warm`) into `dir` and return the one snapshot
/// file written.
fn capture_one(dir: &std::path::Path, machine: Arc<Machine>, app: App, model: Model) -> PathBuf {
    let gate = if app == App::Serve { "warm" } else { "step:0" };
    let capture = SnapSpec::Capture {
        dir: dir.to_path_buf(),
        point: SnapPoint::parse(gate).unwrap(),
    };
    run_under(machine, app, model, capture);
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "one capture, one file");
    files.pop().unwrap()
}

/// The restore of `app`/`model` on `machine` from `dir`, which must
/// panic; returns the panic's message.
fn restore_panics(dir: &std::path::Path, machine: Arc<Machine>, app: App, model: Model) -> String {
    let restore = SnapSpec::Restore {
        dir: dir.to_path_buf(),
    };
    let run = std::panic::AssertUnwindSafe(|| run_under(machine, app, model, restore));
    let payload = std::panic::catch_unwind(run).expect_err("the restore must fail, not run");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
    }
}

/// `path`'s snapshot with section `name` passed through `edit`.
fn edit_section(path: &std::path::Path, name: &str, edit: impl FnOnce(&mut Vec<u8>)) {
    let mut snap = Snapshot::from_bytes(&std::fs::read(path).unwrap()).unwrap();
    let mut bytes = snap.require(name).unwrap().to_vec();
    edit(&mut bytes);
    snap.put(name, bytes);
    snap.save(path).unwrap();
}

#[test]
fn a_truncated_or_foreign_version_file_fails_the_run_naming_it() {
    let dir = scratch("unusable-file");
    let m = || Machine::origin2000(2);
    let path = capture_one(&dir, m(), App::NBody, Model::Mp);
    let good = std::fs::read(&path).unwrap();

    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let msg = restore_panics(&dir, m(), App::NBody, Model::Mp);
    assert!(msg.contains(&path.display().to_string()), "{msg}");
    assert!(msg.contains("truncated snapshot"), "{msg}");

    let v7 = [&good[..8], &7u64.to_le_bytes(), &good[16..]].concat();
    std::fs::write(&path, v7).unwrap();
    let msg = restore_panics(&dir, m(), App::NBody, Model::Mp);
    assert!(msg.contains(&path.display().to_string()), "{msg}");
    assert!(
        msg.ends_with("snapshot format v7 unsupported (this build reads v8)"),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_edited_world_section_fails_the_world_import_by_name() {
    let dir = scratch("edited-world");
    let m = || Machine::origin2000(2);
    let path = capture_one(&dir, m(), App::NBody, Model::Shmem);
    // The SHMEM section's first word is its PE count.
    edit_section(&path, "world", |b| b[0] = 3);
    let msg = restore_panics(&dir, m(), App::NBody, Model::Shmem);
    assert!(msg.contains(&path.display().to_string()), "{msg}");
    assert!(
        msg.contains("section world: import failed: shmem snapshot has 3 PEs, world has 2"),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_exact_restore_with_an_edited_fabric_section_fails_by_name() {
    let dir = scratch("edited-fabric");
    let path = capture_one(&dir, contended(4), App::Amr, Model::Mp);
    edit_section(&path, "fabric", |b| b.extend_from_slice(&[0; 8]));
    let msg = restore_panics(&dir, contended(4), App::Amr, Model::Mp);
    assert_eq!(
        msg,
        "snapshot section fabric: 8 trailing bytes after snapshot section"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A file from a machine that models no fabric must not carry one.
    let dir = scratch("extra-fabric");
    let m = || Machine::origin2000(2);
    let path = capture_one(&dir, m(), App::NBody, Model::Mp);
    let mut snap = Snapshot::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
    snap.put("fabric", Vec::new());
    snap.save(&path).unwrap();
    let msg = restore_panics(&dir, m(), App::NBody, Model::Mp);
    assert!(msg.contains(&path.display().to_string()), "{msg}");
    assert!(
        msg.ends_with("section fabric: present, and this machine models none"),
        "{msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clock edited in a `core/<pe>` section no longer matches its time
/// breakdown: the restore fails naming the file and the section, instead
/// of archiving a second of virtual time nobody spent.
#[test]
fn an_edited_core_clock_fails_the_restore_by_name() {
    let dir = scratch("edited-core");
    let m = || Machine::origin2000(2);
    let path = capture_one(&dir, m(), App::Amr, Model::Mp);
    // The section's first word is the PE's clock.
    edit_section(&path, "core/0", |b| {
        let now = u64::from_le_bytes(b[..8].try_into().unwrap());
        b[..8].copy_from_slice(&(now + 1_000_000_000).to_le_bytes());
    });
    let msg = restore_panics(&dir, m(), App::Amr, Model::Mp);
    let head = format!("cannot restore {}: section core/0: clock ", path.display());
    assert!(msg.starts_with(&head), "{msg}");
    assert!(msg.contains("but its breakdown sums to"), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every app codec reads its `app/<pe>` section through
/// `Snapshotter::resume`, so an edited section fails the restore naming
/// the file, the section and the cause: N-body bodies (MP), AMR step
/// state (MP), the one CC-SAS cache codec (AMR, N-body and serving) and
/// the serving workload's MP section, which holds only its index word.
#[test]
fn an_edited_app_section_fails_the_restore_naming_the_file_and_the_pe() {
    let cases = [
        (App::NBody, Model::Mp, "step:0"),
        (App::Amr, Model::Mp, "step:0"),
        (App::Amr, Model::Sas, "step:0"),
        (App::NBody, Model::Sas, "step:0"),
        (App::Serve, Model::Sas, "warm:0"),
        (App::Serve, Model::Mp, "warm:0"),
    ];
    for (app, model, point) in cases {
        let tag = format!("{}/{}", app.name(), model.name());
        let dir = scratch(&format!("edited-app-{tag}"));
        let m = || contended(2);
        let path = capture_one(&dir, m(), app, model);
        let head = format!("cannot restore {}: section app/0: ", path.display());
        let good = std::fs::read(&path).unwrap();

        edit_section(&path, "app/0", |b| b.extend_from_slice(&[0; 8]));
        let msg = restore_panics(&dir, m(), app, model);
        assert!(msg.starts_with(&head), "{tag}: {msg}");
        assert!(
            msg.ends_with("8 trailing bytes after snapshot section"),
            "{tag}: {msg}"
        );

        std::fs::write(&path, &good).unwrap();
        edit_section(&path, "app/0", |b| {
            b[..8].copy_from_slice(&7u64.to_le_bytes())
        });
        let msg = restore_panics(&dir, m(), app, model);
        let want = format!("{head}gate index 7, but meta's point is {point}");
        assert_eq!(msg, want, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An AMR ownership map naming a PE the run does not have is refused at
/// the door, not used to route a triangle to nobody.
#[test]
fn an_amr_owner_past_the_last_pe_fails_the_restore_by_name() {
    let dir = scratch("amr-owner");
    let m = || Machine::origin2000(2);
    let path = capture_one(&dir, m(), App::Amr, Model::Mp);
    // Index word, field (length + words), owner map (length + words).
    edit_section(&path, "app/0", |b| {
        let field = u64::from_le_bytes(b[8..16].try_into().unwrap()) as usize;
        let first_owner = 8 * (3 + field);
        b[first_owner..first_owner + 8].copy_from_slice(&2u64.to_le_bytes());
    });
    let msg = restore_panics(&dir, m(), App::Amr, Model::Mp);
    assert_eq!(
        msg,
        format!(
            "cannot restore {}: section app/0: triangle 0 is owned by PE 2, the run has 2",
            path.display()
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A healthy `queued` capture restored under a faulted `queued` machine
/// and under the `fabric` contention mode: another machine, so a cold
/// fabric by rule, and the physics of the from-scratch twin.
#[test]
fn a_machine_variant_restore_keeps_its_from_scratch_twins_checksum() {
    use origin2k::machine::FaultMode;
    let dir = scratch("variant");
    let machine = |cont: ContentionMode, fault: &str| {
        Arc::new(Machine::new(
            4,
            MachineConfig {
                contention: cont,
                fault: FaultMode::parse(fault).unwrap(),
                ..MachineConfig::origin2000()
            },
        ))
    };
    let (app, model) = (App::Amr, Model::Shmem);
    let path = capture_one(&dir, machine(ContentionMode::Queued, "off"), app, model);
    let (nb, am) = (NBodyConfig::small(), AmrConfig::small());
    for (cont, fault) in [
        (ContentionMode::Queued, "plan:down0:deg8"),
        (ContentionMode::Fabric, "off"),
    ] {
        let run = |snap| {
            run_app_opts(
                machine(cont, fault),
                app,
                model,
                &nb,
                &am,
                det(ExecMode::Event, snap),
            )
        };
        let scratch = run(None);
        let warm = run(Some(SnapSpec::Restore { dir: dir.clone() }));
        assert_eq!(
            warm.checksum.to_bits(),
            scratch.checksum.to_bits(),
            "{cont:?} / {fault}: a variant restore changed the physics"
        );
    }
    // The variant runs did read that file: cut short, it fails them.
    let good = std::fs::read(&path).unwrap();
    std::fs::write(&path, &good[..good.len() - 1]).unwrap();
    let msg = restore_panics(&dir, machine(ContentionMode::Fabric, "off"), app, model);
    assert!(msg.contains(&path.display().to_string()), "{msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- property tests

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// snapshot → restore → run ≡ straight run, whatever the model,
        /// team size, backend, or gate the snapshot lands on.
        #[test]
        fn restore_is_exact_everywhere(
            p_idx in 0usize..3,
            model_idx in 0usize..3,
            app_is_amr in 0usize..2,
            event in 0usize..2,
            gate in 0u64..3,
        ) {
            let p = [2usize, 4, 8][p_idx];
            let model = Model::ALL[model_idx];
            let app = if app_is_amr == 1 { App::Amr } else { App::NBody };
            let exec = if event == 1 { ExecMode::Event } else { ExecMode::Thread };
            let tag = format!("prop-{}-{}-p{p}-{exec:?}-g{gate}", app.name(), model.name());
            round_trip(&tag, || Machine::origin2000(p), app, model, exec, gate);
        }
    }
}
