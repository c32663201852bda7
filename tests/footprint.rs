//! A large team pays for what it touches.
//!
//! Its own test binary (like `hit_path.rs`) so it can install a counting
//! `#[global_allocator]`: a P = 256 CC-SAS serving run must fit in 64 MiB
//! of live heap — each PE's cache simulator used to be a dense 1 MiB
//! table, 256 MiB for the team, whatever the PE touched. Live bytes are
//! counted per thread; the event core runs every PE on the calling
//! thread, so the other tests in this binary never show up in the figure.
//! A symmetric SHMEM region is held to the same rule: the hot-shard
//! replica region is allocated by all 256 PEs and written by three helpers
//! per hot shard, and how many shards are hot follows the seed — dense, it
//! was 8 MiB of heap per hot shard and the run's peak moved with the seed.
//! So is a latency histogram, which holds only the buckets its samples
//! reached.

mod support;

use std::sync::Arc;

use origin2k::machine::{ContentionMode, Machine, MachineConfig};
use origin2k::prelude::*;
use origin2k::serve::hist::LatencyHist;
use origin2k::serve::Mitigation;
use support::peak_live_bytes;

/// The benchmark's `serve-tail` shape (Origin2000 parameters on the full
/// fabric, 64 keys per shard, 64-word values), at a request count a debug
/// build finishes quickly.
fn serve(pes: usize, model: Model, opts: RunOpts) -> RunMetrics {
    serve_cfg(pes, model, opts, ServeConfig::default())
}

/// [`serve`] with the fields the shape leaves alone (skew, mitigation)
/// taken from `rest`.
fn serve_cfg(pes: usize, model: Model, opts: RunOpts, rest: ServeConfig) -> RunMetrics {
    let machine = Arc::new(Machine::new(
        pes,
        MachineConfig {
            contention: ContentionMode::Fabric,
            ..MachineConfig::origin2000()
        },
    ));
    let cfg = ServeConfig {
        keys: 64 * pes,
        requests: 32 * pes as u64,
        mean_gap_ns: 15_000,
        val_words: 64,
        start_ns: 600_000,
        seed: 0x00C0_FFEE,
        ..rest
    };
    let run = origin2k::serve::run_opts(machine, model, &cfg, opts);
    let s = run.serve.as_ref().expect("serving runs carry ServeStats");
    assert_eq!(s.issued, cfg.requests, "every request issued");
    assert_eq!(s.completed, s.issued, "no deadline, so nothing is shed");
    run
}

#[test]
fn a_p256_sas_serve_run_fits_in_64_mib_of_heap() {
    const MIB: usize = 1 << 20;
    let (run, peak) = peak_live_bytes(|| serve(256, Model::Sas, RunOpts::det_event()));
    assert!(run.counters.cache_hits > 0, "the caches were in use");
    assert!(
        peak < 64 * MIB,
        "P = 256 CC-SAS serve held {} MiB of heap at once",
        peak / MIB
    );
}

#[test]
fn a_p256_shmem_replica_region_costs_what_its_helpers_hold() {
    const MIB: usize = 1 << 20;
    let hot = ServeConfig {
        skew: 3.0,
        mitigation: Mitigation::Replicate { replicas: 3 },
        ..ServeConfig::default()
    };
    let (run, peak) = peak_live_bytes(|| serve_cfg(256, Model::Shmem, RunOpts::det_event(), hot));
    assert!(run.counters.replica_bytes > 0, "replicas were placed");
    assert!(
        peak < 64 * MIB,
        "P = 256 SHMEM replicated serve held {} MiB of heap at once",
        peak / MIB
    );
}

/// `samples` latencies, each in a bucket of its own — the most list
/// entries that many samples can make: 64–127 µs-ish sub-buckets,
/// doubling every 64 samples.
fn distinct_latencies(samples: u64) -> impl Iterator<Item = u64> {
    (0..samples).map(|i| (64 + i % 64) << (10 + i / 64))
}

/// A latency histogram costs what its samples reach. Q2's P = 1 024
/// clients record about two latencies each, and a `serve-tail` client at
/// P = 256 records 256. Held here: at most 64 B of live heap at 2 samples
/// and under 7 552 B (a quarter of the 3 776-bucket table) at 256, with
/// every sample in a bucket of its own; the bucket list holds 64 B and
/// 4 096 B. The raw-list-then-dense-table histogram it replaced held 32 B
/// at 2 samples and 31 232 B at 256 (its 30 208 B table beside the
/// 1 024 B raw list it spilled from).
#[test]
fn a_latency_histogram_costs_what_its_samples_reach() {
    for (samples, bound) in [(2, 65), (256, 7_552)] {
        let (count, peak) = peak_live_bytes(|| {
            let mut h = LatencyHist::new();
            distinct_latencies(samples).for_each(|v| h.record(v));
            h.count()
        });
        assert_eq!(count, samples);
        assert!(
            peak < bound,
            "{samples} samples held {peak} B of heap at once"
        );
    }
}
