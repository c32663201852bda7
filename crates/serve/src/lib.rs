//! # o2k-serve — a request-serving workload for the three models
//!
//! The paper's applications are batch SPMD solves; this crate asks the
//! serving question its 64-CPU hardware never could: *which programming
//! model holds up under open-loop client traffic, tail-latency pressure,
//! and a contended fabric?*
//!
//! The workload is a sharded key-value lookup service. Keys are block-
//! distributed over the server PEs ([`clients::owner_of`]); every PE owns
//! one shard of the table **and** fronts one open-loop client stream
//! ([`clients::stream`]) — a deterministic, pre-drawn schedule of
//! `(arrival, key)` events, so clients are virtual-time event sources,
//! not PEs, and a million requests cost a million lookups, not a million
//! threads. The same service is implemented three ways:
//!
//! * **MP** ([`mp`]): the client PE sends the key to the shard owner's
//!   mailbox and the owner replies with the value — request *routing*,
//!   with real server queueing: an owner busy with its own stream answers
//!   when it next polls. A DONE token per PE pair drains the tail.
//! * **SHMEM** ([`shmem`]): the client issues a one-sided `get` against
//!   the owner's symmetric shard table; no server involvement at all.
//! * **CC-SAS** ([`sas`]): the client reads the shared table through the
//!   coherence protocol; hot keys stay in cache, cold ones pay
//!   line-granularity remote fills to the home node.
//!
//! Per-request virtual-clock latency (completion − arrival, queueing
//! included) lands in an HDR-style histogram ([`hist::LatencyHist`]);
//! p50/p99/p999, throughput and per-shard request counts are threaded
//! into [`apps::RunMetrics`] as [`apps::ServeStats`]. Each served lookup
//! is traced as an [`parallel::EventKind::Request`] span, so request
//! service is visible in the exported Perfetto timeline, and shard
//! hotspots show up in the fabric's `NetStats` link tables.

pub mod clients;
pub mod hist;
pub mod mp;
pub mod plan;
pub mod sas;
pub mod shmem;

use std::sync::Arc;

use apps::{App, Model, RunMetrics, ServeStats};
use machine::{Machine, SimTime, TimeCat};
use parallel::{Ctx, EventKind, TeamRun};

use clients::Request;
use hist::LatencyHist;
pub use plan::{MitPlan, Mitigation};

/// Configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Keyspace size; keys are block-distributed over the server PEs.
    pub keys: usize,
    /// Total client requests across all streams.
    pub requests: u64,
    /// Mean inter-arrival gap of each PE's open-loop stream (ns).
    pub mean_gap_ns: u64,
    /// Key-skew exponent: 1.0 is uniform; larger concentrates traffic on
    /// the low keys (and so on shard 0's node).
    pub skew: f64,
    /// Value size in 64-bit words.
    pub val_words: usize,
    /// Server-side service compute per lookup (ns).
    pub service_ns: u64,
    /// Admission-control deadline: a request found more than this late at
    /// admission is shed (counted `failed`, no work done). `None` never
    /// sheds.
    pub deadline_ns: Option<u64>,
    /// MP mailbox poll granularity while a server idles between its own
    /// arrivals (bounds the added queueing delay of interleaved serving).
    pub poll_ns: u64,
    /// Seed for the client streams and table contents.
    pub seed: u64,
    /// Hot-shard mitigation ([`Mitigation::Off`] keeps every pre-existing
    /// run bitwise identical; see [`plan`] for the modes).
    pub mitigation: Mitigation,
    /// Virtual time of the earliest possible client arrival (ns). The
    /// default 0 starts clients at time zero, which counts the table
    /// build (and any replica-copy phase) against the first requests'
    /// latencies; experiments that want a clean measurement window set
    /// this past the warmup.
    pub start_ns: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            keys: 65_536,
            requests: 100_000,
            mean_gap_ns: 25_000,
            skew: 1.0,
            val_words: 32,
            service_ns: 1_500,
            deadline_ns: None,
            poll_ns: 4_000,
            seed: 0x0BAD_CAFE,
            mitigation: Mitigation::Off,
            start_ns: 0,
        }
    }
}

impl ServeConfig {
    /// A small, fast configuration for unit tests.
    pub fn small() -> Self {
        ServeConfig {
            keys: 2_048,
            requests: 2_000,
            mean_gap_ns: 15_000,
            val_words: 16,
            service_ns: 1_000,
            poll_ns: 5_000,
            ..ServeConfig::default()
        }
    }
}

/// Charged per table word during the (untimed-phase) shard build.
const BUILD_NS_PER_WORD: f64 = 2.0;

/// One PE's serving outcome, merged into [`apps::ServeStats`] by the
/// driver: the client-side bookkeeping the three implementations share.
///
/// `shard_counts` is sparse — `(shard, count)` pairs in first-hit order.
/// A client touches at most `min(P, its requests)` distinct shards, a
/// handful at P = 1024, where a dense per-PE vector would cost O(P²)
/// zeroing and merging across the team for a few requests each.
#[derive(Debug, Clone)]
pub struct PeOut {
    checksum: u64,
    issued: u64,
    completed: u64,
    failed: u64,
    shard_counts: Vec<(u32, u64)>,
    hist: LatencyHist,
}

impl PeOut {
    pub(crate) fn new() -> Self {
        PeOut {
            checksum: 0,
            issued: 0,
            completed: 0,
            failed: 0,
            shard_counts: Vec::new(),
            hist: LatencyHist::new(),
        }
    }

    /// Admit `req` targeting shard `owner`. Returns `true` when the
    /// request is shed by the admission deadline (no work must be done).
    pub(crate) fn admit(
        &mut self,
        now: SimTime,
        req: &Request,
        owner: usize,
        cfg: &ServeConfig,
    ) -> bool {
        self.issued += 1;
        match self
            .shard_counts
            .iter_mut()
            .find(|entry| entry.0 == owner as u32)
        {
            Some(entry) => entry.1 += 1,
            None => self.shard_counts.push((owner as u32, 1)),
        }
        if let Some(d) = cfg.deadline_ns {
            if now.saturating_sub(req.arrival) > d {
                self.failed += 1;
                return true;
            }
        }
        false
    }

    /// Record a completed lookup that returned first value word `val0`.
    pub(crate) fn complete(&mut self, now: SimTime, req: &Request, val0: u64, cfg: &ServeConfig) {
        debug_assert_eq!(
            val0,
            clients::value_word(cfg.seed, req.key, 0),
            "lookup returned the wrong value for key {}",
            req.key
        );
        self.completed += 1;
        self.checksum = self.checksum.wrapping_add(val0);
        self.hist.record(now - req.arrival);
    }
}

/// Advance the PE's clock to `req.arrival` if it is still early — the
/// open-loop client's idle gap (charged as synchronisation wait).
#[inline]
pub(crate) fn await_arrival(ctx: &mut Ctx, req: &Request) {
    if ctx.now() < req.arrival {
        ctx.wait_until_traced(req.arrival, EventKind::Other, None, None);
    }
}

/// Charge one lookup's service compute as a traced request span carrying
/// the value payload size and the shard owner, and bump the served
/// counter.
#[inline]
pub(crate) fn serve_cost(ctx: &mut Ctx, cfg: &ServeConfig, owner: usize) {
    ctx.advance_traced(
        cfg.service_ns,
        TimeCat::Busy,
        EventKind::Request,
        (cfg.val_words * 8).min(u32::MAX as usize) as u32,
        Some(owner as u32),
    );
    ctx.counters_mut().requests_served += 1;
}

/// Run the serving workload under `model` (see [`apps::RunOpts`]).
/// Experiments pin [`parallel::SchedPolicy::Det`] so latency comparisons
/// replay bitwise; the event backend is how serving scales past the
/// thread cap to P = 1024 shards.
pub fn run_opts(
    machine: Arc<Machine>,
    model: Model,
    cfg: &ServeConfig,
    opts: apps::RunOpts,
) -> RunMetrics {
    assert!(cfg.keys >= machine.pes(), "need at least one key per shard");
    assert!(cfg.val_words > 0, "values must have at least one word");
    match model {
        Model::Mp => mp::run_opts(machine, cfg, opts),
        Model::Shmem => shmem::run_opts(machine, cfg, opts),
        Model::Sas => sas::run_opts(machine, cfg, opts),
    }
}

/// Assemble [`RunMetrics`] (with [`ServeStats`]) from a finished team
/// run. The checksum is an order-independent wrapping sum, so it is
/// bitwise comparable across models and schedules.
pub(crate) fn finish(model: Model, cfg: &ServeConfig, run: &TeamRun<PeOut>) -> RunMetrics {
    let pes = run.results.len();
    let mut hist = LatencyHist::new();
    let mut shard_counts = vec![0u64; pes];
    let (mut issued, mut completed, mut failed, mut checksum) = (0u64, 0u64, 0u64, 0u64);
    for r in &run.results {
        hist.merge(&r.hist);
        issued += r.issued;
        completed += r.completed;
        failed += r.failed;
        checksum = checksum.wrapping_add(r.checksum);
        for &(shard, n) in &r.shard_counts {
            shard_counts[shard as usize] += n;
        }
    }
    debug_assert_eq!(issued, completed + failed, "request conservation");
    debug_assert_eq!(issued, cfg.requests, "every generated request admitted");
    let sim = run.sim_time();
    let stats = ServeStats {
        issued,
        completed,
        failed,
        p50_ns: hist.quantile(0.50),
        p99_ns: hist.quantile(0.99),
        p999_ns: hist.quantile(0.999),
        max_ns: hist.max(),
        mean_ns: hist.mean(),
        throughput_rps: completed as f64 * 1e9 / sim.max(1) as f64,
        shard_counts,
    };
    let mut m = RunMetrics::collect_with_checksum(
        App::Serve,
        model,
        run,
        cfg.requests as usize,
        checksum as f64,
    );
    m.serve = Some(stats);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{ContentionMode, MachineConfig};
    use parallel::SchedPolicy;
    use proptest::prelude::*;

    fn queued_machine(p: usize) -> Arc<Machine> {
        Arc::new(Machine::new(
            p,
            MachineConfig {
                contention: ContentionMode::Queued,
                ..MachineConfig::origin2000()
            },
        ))
    }

    fn det() -> apps::RunOpts {
        apps::RunOpts::with_sched(SchedPolicy::Det)
    }

    #[test]
    fn three_models_agree_on_the_data() {
        let cfg = ServeConfig::small();
        let runs: Vec<RunMetrics> = Model::ALL
            .iter()
            .map(|&m| run_opts(queued_machine(8), m, &cfg, det()))
            .collect();
        for m in &runs {
            let s = m.serve.as_ref().expect("serve stats present");
            assert_eq!(s.issued, cfg.requests);
            assert_eq!(s.completed, cfg.requests, "no shedding by default");
            assert_eq!(s.failed, 0);
            assert_eq!(s.shard_counts.iter().sum::<u64>(), cfg.requests);
            assert_eq!(m.counters.requests_served, s.completed);
            assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns && s.p999_ns <= s.max_ns);
            assert!(s.throughput_rps > 0.0);
            assert!(m.net.is_some(), "queued machine reports NetStats");
        }
        assert_eq!(runs[0].checksum, runs[1].checksum, "MP vs SHMEM data");
        assert_eq!(runs[1].checksum, runs[2].checksum, "SHMEM vs CC-SAS data");
        // Same streams → identical per-shard demand under every model.
        let counts = |m: &RunMetrics| m.serve.as_ref().unwrap().shard_counts.clone();
        assert_eq!(counts(&runs[0]), counts(&runs[1]));
        assert_eq!(counts(&runs[1]), counts(&runs[2]));
    }

    #[test]
    fn mp_replays_bitwise_under_det() {
        let cfg = ServeConfig::small();
        let a = run_opts(queued_machine(8), Model::Mp, &cfg, det());
        let b = run_opts(queued_machine(8), Model::Mp, &cfg, det());
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.counters, b.counters);
        assert_eq!(
            a.serve.as_ref().unwrap().p999_ns,
            b.serve.as_ref().unwrap().p999_ns
        );
        assert_eq!(
            a.sched.as_ref().map(|s| s.fingerprint),
            b.sched.as_ref().map(|s| s.fingerprint),
            "identical interleaving"
        );
    }

    #[test]
    fn warm_snapshot_restore_matches_straight_run_all_models() {
        use o2k_snap::{SnapPoint, SnapSpec};
        let cfg = ServeConfig::small();
        for model in [Model::Mp, Model::Shmem, Model::Sas] {
            let dir = std::env::temp_dir()
                .join(format!("o2ksnap-serve-{model:?}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let go = |snap| {
                run_opts(
                    queued_machine(8),
                    model,
                    &cfg,
                    apps::RunOpts { snap, ..det() },
                )
            };
            let straight = go(None);
            let captured = go(Some(SnapSpec::Capture {
                dir: dir.clone(),
                point: SnapPoint {
                    name: "warm".into(),
                    index: 0,
                },
            }));
            let restored = go(Some(SnapSpec::Restore { dir: dir.clone() }));
            for m in [&captured, &restored] {
                assert_eq!(m.checksum, straight.checksum, "{model:?}");
                assert_eq!(m.sim_time, straight.sim_time, "{model:?}");
                assert_eq!(m.counters, straight.counters, "{model:?}");
                assert_eq!(m.net, straight.net, "{model:?}");
                assert_eq!(
                    m.serve.as_ref().unwrap().p999_ns,
                    straight.serve.as_ref().unwrap().p999_ns,
                    "{model:?}"
                );
                assert_eq!(
                    m.sched.as_ref().unwrap().fingerprint,
                    straight.sched.as_ref().unwrap().fingerprint,
                    "{model:?}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn overload_sheds_but_conserves_requests() {
        // A brutal arrival rate with a tight deadline: the MP servers
        // cannot keep up, so admission control must shed — and issued
        // still equals completed + failed.
        let cfg = ServeConfig {
            mean_gap_ns: 800,
            deadline_ns: Some(20_000),
            requests: 1_500,
            ..ServeConfig::small()
        };
        let m = run_opts(queued_machine(4), Model::Mp, &cfg, det());
        let s = m.serve.as_ref().unwrap();
        assert_eq!(s.issued, cfg.requests);
        assert_eq!(s.issued, s.completed + s.failed, "conservation");
        assert!(s.failed > 0, "overload must shed ({} failed)", s.failed);
        assert!(s.completed > 0, "but not everything");
    }

    #[test]
    fn skew_concentrates_shard_demand() {
        let cfg = ServeConfig {
            skew: 3.0,
            ..ServeConfig::small()
        };
        let m = run_opts(queued_machine(8), Model::Shmem, &cfg, det());
        let counts = m.serve.unwrap().shard_counts;
        let hot = counts[0];
        let mean = cfg.requests / counts.len() as u64;
        assert!(
            hot > 2 * mean,
            "skew 3.0 must overload shard 0 ({hot} vs mean {mean})"
        );
    }

    /// Every mitigation mode serves exactly the same data: checksums and
    /// per-shard demand are invariant across models *and* across
    /// `Off`/`Replicate`/`Steal`, and the mitigated runs actually move
    /// work (replica bytes placed, requests stolen).
    #[test]
    fn mitigation_modes_agree_on_data_across_models() {
        // Tight gaps overload the skew-3 hot shard at P = 8 so the
        // stealers actually find queued work to claim.
        let cfg_with = |mitigation| ServeConfig {
            skew: 3.0,
            mean_gap_ns: 3_000,
            requests: 1_200,
            mitigation,
            ..ServeConfig::small()
        };
        let baseline = run_opts(
            queued_machine(8),
            Model::Mp,
            &cfg_with(Mitigation::Off),
            det(),
        );
        let base_counts = baseline.serve.as_ref().unwrap().shard_counts.clone();
        for model in [Model::Mp, Model::Shmem, Model::Sas] {
            for mitigation in [
                Mitigation::Off,
                Mitigation::Replicate { replicas: 2 },
                Mitigation::Steal,
            ] {
                let m = run_opts(queued_machine(8), model, &cfg_with(mitigation), det());
                let s = m.serve.as_ref().unwrap();
                assert_eq!(s.issued, s.completed + s.failed, "{model:?} {mitigation:?}");
                assert_eq!(m.checksum, baseline.checksum, "{model:?} {mitigation:?}");
                assert_eq!(s.shard_counts, base_counts, "{model:?} {mitigation:?}");
                match mitigation {
                    Mitigation::Replicate { .. } => assert!(
                        m.counters.replica_bytes > 0,
                        "{model:?} replicate must place replica data"
                    ),
                    Mitigation::Steal if model == Model::Mp => assert!(
                        m.counters.requests_stolen > 0,
                        "MP stealers must claim from the overloaded owner"
                    ),
                    _ => assert_eq!(
                        m.counters.replica_bytes + m.counters.requests_stolen,
                        0,
                        "{model:?} {mitigation:?} must not move mitigation work"
                    ),
                }
            }
        }
    }

    /// Warm capture/restore equality with mitigation *on*: the replica
    /// regions (SHMEM), copy messages (MP), striped page homes (CC-SAS),
    /// and steal plans all survive the snapshot boundary.
    #[test]
    fn warm_snapshot_restore_matches_with_mitigation_on() {
        use o2k_snap::{SnapPoint, SnapSpec};
        let cases = [
            (Model::Mp, Mitigation::Replicate { replicas: 2 }),
            (Model::Mp, Mitigation::Steal),
            (Model::Shmem, Mitigation::Replicate { replicas: 2 }),
            (Model::Sas, Mitigation::Replicate { replicas: 2 }),
        ];
        for (i, (model, mitigation)) in cases.into_iter().enumerate() {
            let cfg = ServeConfig {
                skew: 3.0,
                mean_gap_ns: 3_000,
                requests: 1_000,
                mitigation,
                ..ServeConfig::small()
            };
            let dir = std::env::temp_dir().join(format!(
                "o2ksnap-serve-mit{i}-{model:?}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let go = |snap| {
                run_opts(
                    queued_machine(8),
                    model,
                    &cfg,
                    apps::RunOpts { snap, ..det() },
                )
            };
            let straight = go(None);
            let captured = go(Some(SnapSpec::Capture {
                dir: dir.clone(),
                point: SnapPoint {
                    name: "warm".into(),
                    index: 0,
                },
            }));
            let restored = go(Some(SnapSpec::Restore { dir: dir.clone() }));
            for m in [&captured, &restored] {
                assert_eq!(m.checksum, straight.checksum, "{model:?} {mitigation:?}");
                assert_eq!(m.sim_time, straight.sim_time, "{model:?} {mitigation:?}");
                assert_eq!(
                    m.sched.as_ref().unwrap().fingerprint,
                    straight.sched.as_ref().unwrap().fingerprint,
                    "{model:?} {mitigation:?}"
                );
            }
            // Counters come back through the snapshot, so even the replica
            // copy traffic must match the straight run exactly.
            assert_eq!(
                restored.counters, straight.counters,
                "{model:?} {mitigation:?}"
            );
            assert_eq!(
                restored.serve.as_ref().unwrap().p999_ns,
                straight.serve.as_ref().unwrap().p999_ns,
                "{model:?} {mitigation:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// End-to-end request conservation and quantile ordering across
        /// random small configurations (all under SHMEM, the fastest
        /// substrate, with deadlines sometimes shedding).
        #[test]
        fn conservation_and_monotone_quantiles(
            seed in 0u64..1_000,
            gap in 1_200u64..20_000,
            deadline in 0usize..3,
        ) {
            let cfg = ServeConfig {
                requests: 600,
                keys: 512,
                mean_gap_ns: gap,
                deadline_ns: [None, Some(5_000), Some(50_000)][deadline],
                seed,
                ..ServeConfig::small()
            };
            let m = run_opts(queued_machine(4), Model::Shmem, &cfg, det());
            let s = m.serve.as_ref().unwrap();
            prop_assert_eq!(s.issued, cfg.requests);
            prop_assert_eq!(s.issued, s.completed + s.failed);
            prop_assert!(s.p50_ns <= s.p99_ns);
            prop_assert!(s.p99_ns <= s.p999_ns);
            prop_assert!(s.p999_ns <= s.max_ns);
        }

        /// DONE-token termination for MP serving survives every corner at
        /// once: shedding deadlines, key skew, and all three mitigation
        /// modes — requests are conserved, no replica or stealer PE
        /// strands a message (asserted inside `mp::run_opts`), and the
        /// deterministic fingerprint is identical on the thread and event
        /// backends.
        #[test]
        fn mp_done_termination_under_shedding_skew_and_mitigation(
            seed in 0u64..500,
            skew_i in 0usize..3,
            dl in 0usize..3,
            mit in 0usize..3,
        ) {
            let cfg = ServeConfig {
                requests: 500,
                keys: 512,
                mean_gap_ns: 2_500,
                skew: [1.0, 2.0, 3.0][skew_i],
                deadline_ns: [None, Some(8_000), Some(60_000)][dl],
                mitigation: [
                    Mitigation::Off,
                    Mitigation::Replicate { replicas: 2 },
                    Mitigation::Steal,
                ][mit],
                seed,
                ..ServeConfig::small()
            };
            let thread = run_opts(
                queued_machine(4), Model::Mp, &cfg,
                det(),
            );
            let event = run_opts(
                queued_machine(4), Model::Mp, &cfg,
                apps::RunOpts::det_event(),
            );
            for m in [&thread, &event] {
                let s = m.serve.as_ref().unwrap();
                prop_assert_eq!(s.issued, cfg.requests);
                prop_assert_eq!(s.issued, s.completed + s.failed, "conservation");
            }
            prop_assert_eq!(thread.checksum, event.checksum);
            prop_assert_eq!(&thread.counters, &event.counters);
            prop_assert_eq!(
                thread.sched.as_ref().map(|s| s.fingerprint),
                event.sched.as_ref().map(|s| s.fingerprint),
                "thread and event backends must interleave identically"
            );
        }
    }
}
