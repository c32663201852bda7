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

use std::path::PathBuf;
use std::sync::Arc;

use origin2k::machine::ContentionMode;
use origin2k::prelude::*;
use origin2k::snap::{SnapPoint, SnapSpec};

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
/// `Snapshotter` can warn and run from scratch), never a panic or an
/// allocator abort; and cutting a valid file short still says so.
#[test]
fn hostile_length_prefixes_are_errors_in_every_decoder() {
    use origin2k::sched::SchedResume;
    use origin2k::snap::{decode_sched, encode_sched, Snapshot};
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
        // CC-SAS: version, PEs, paging policy, region count, region length.
        assert!(sas.import_state_bytes(&words(&[2, 2, 0, n])).is_err());
        assert!(sas.import_state_bytes(&words(&[2, 2, 0, 1, n])).is_err());
        // SHMEM: version, PEs, region count, region length.
        assert!(sym.import_state_bytes(&words(&[1, 2, n])).is_err());
        assert!(sym.import_state_bytes(&words(&[1, 2, 1, n])).is_err());
        // Fabric: version, detoured, spans dropped, resource count; the
        // phase count is the last word of a phase-less export.
        assert!(net.import_state_bytes(&words(&[1, 0, 0, n])).is_err());
        let f = [&fabric[..fabric.len() - 8], &words(&[n])].concat();
        assert!(net.import_state_bytes(&f).is_err(), "fabric phases {n}");
    }

    // A container carrying another format version is refused by name,
    // never mis-decoded.
    let v3 = [&container[..8], &words(&[3]), &container[16..]].concat();
    let err = Snapshot::from_bytes(&v3).unwrap_err();
    assert_eq!(err, "snapshot format v3 unsupported (this build reads v4)");

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
