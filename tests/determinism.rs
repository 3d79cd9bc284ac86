//! Whole-system determinism: every experiment in the reproduction is
//! seed-stable, so EXPERIMENTS.md numbers are exactly regenerable.

use aorta::{Aorta, EngineConfig};
use aorta_device::PervasiveLab;
use aorta_sim::SimDuration;

fn run_lab(seed: u64, sync: bool) -> aorta_core::EngineStats {
    let lab =
        PervasiveLab::standard().with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let config = if sync {
        EngineConfig::seeded(seed)
    } else {
        EngineConfig::seeded(seed).without_sync()
    };
    let mut aorta = Aorta::with_lab(config, lab);
    for i in 0..10 {
        aorta
            .execute_sql(&format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .unwrap();
    }
    aorta.run_for(SimDuration::from_mins(5));
    aorta.run_for(SimDuration::from_secs(30));
    aorta.stats()
}

#[test]
fn engine_runs_are_bit_identical_per_seed() {
    for sync in [true, false] {
        let a = run_lab(77, sync);
        let b = run_lab(77, sync);
        assert_eq!(a, b, "sync={sync}: same seed must replay identically");
    }
}

#[test]
fn different_seeds_produce_different_stochastic_outcomes() {
    // Without sync the interference pattern is seed-dependent.
    let a = run_lab(1, false);
    let b = run_lab(2, false);
    assert_ne!(
        (a.photos_blurred, a.photos_wrong, a.busy_rejections),
        (b.photos_blurred, b.photos_wrong, b.busy_rejections),
        "distinct seeds should explore distinct interleavings"
    );
}

/// A sharded cluster run with a crash storm over every device: the whole
/// multi-engine trace (per-shard engine lines plus the gateway ledger) is
/// the determinism witness.
fn run_cluster(seed: u64, shards: usize, storm: bool) -> String {
    use aorta::cluster::{ClusterConfig, ShardManager};
    use aorta_device::DeviceId;
    use aorta_sim::{FaultConfig, FaultPlan};

    let lab = PervasiveLab::with_sizes(12, 16, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let mut cluster = ShardManager::new(ClusterConfig::seeded(seed, shards), lab);
    for i in 0..10 {
        cluster
            .execute_sql(&format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .unwrap();
    }
    if storm {
        let devices: Vec<DeviceId> = (0..12)
            .map(DeviceId::camera)
            .chain((0..16).map(DeviceId::sensor))
            .collect();
        let config = FaultConfig {
            crash_rate: 0.25,
            loss_burst_rate: 0.3,
            extra_loss: 0.5,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(seed ^ 0xFA17, SimDuration::from_mins(3), &devices, &config);
        assert!(!plan.is_empty(), "fault generation produced nothing");
        cluster.inject_faults(plan);
    }
    cluster.run_for(SimDuration::from_mins(3));
    cluster.run_for(SimDuration::from_secs(30));
    cluster.render_trace()
}

#[test]
fn cluster_traces_are_byte_identical_per_seed() {
    for shards in [2usize, 8] {
        for storm in [false, true] {
            let a = run_cluster(99, shards, storm);
            let b = run_cluster(99, shards, storm);
            assert!(!a.is_empty(), "shards={shards} storm={storm}: empty trace");
            assert_eq!(
                a, b,
                "shards={shards} storm={storm}: same seed must replay byte-identically"
            );
        }
    }
}

/// A 4-shard cluster driven into overload — fast event cadence, tight
/// deadlines, an aggressive admission gate, breakers, and a crash storm —
/// so sheds, expiries, brownouts and breaker trips all occur. The trace
/// plus the full stats snapshot is the determinism witness.
fn run_overloaded_cluster(seed: u64) -> (String, String) {
    use aorta::cluster::{ClusterConfig, ShardManager};
    use aorta::engine::AdmissionConfig;
    use aorta::net::BreakerConfig;
    use aorta_device::DeviceId;
    use aorta_sim::{FaultConfig, FaultPlan};

    let lab = PervasiveLab::with_sizes(12, 16, 0)
        .with_periodic_events(SimDuration::from_secs(15), SimDuration::from_secs(1));
    let mut config = ClusterConfig::seeded(seed, 4);
    config.engine = config
        .engine
        .with_deadline(SimDuration::from_secs(3))
        .with_admission(AdmissionConfig {
            rate_per_sec: 0.5,
            burst: 3.0,
            slo: SimDuration::from_secs(2),
            brownout_multiple: 0.5,
            shed_multiple: 2.0,
            protected_queries: 2,
        })
        .with_breakers(BreakerConfig::default());
    let mut cluster = ShardManager::new(config, lab);
    for i in 0..10 {
        cluster
            .execute_sql(&format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .unwrap();
    }
    let devices: Vec<DeviceId> = (0..12)
        .map(DeviceId::camera)
        .chain((0..16).map(DeviceId::sensor))
        .collect();
    let storm = FaultConfig {
        crash_rate: 0.3,
        loss_burst_rate: 0.2,
        extra_loss: 0.4,
        ..FaultConfig::default()
    };
    let plan = FaultPlan::generate(seed ^ 0x0E9, SimDuration::from_mins(3), &devices, &storm);
    assert!(!plan.is_empty(), "fault generation produced nothing");
    cluster.inject_faults(plan);
    cluster.run_for(SimDuration::from_mins(3));
    cluster.run_for(SimDuration::from_secs(30));

    let stats = cluster.stats();
    stats.check_conservation().expect("overload conservation");
    // The overload machinery genuinely engaged — this is not a quiet run.
    assert!(stats.shed() > 0, "no sheds under saturation: {stats:?}");
    let trips: u64 = stats.per_shard.iter().map(|s| s.breaker_trips).sum();
    assert!(
        trips > 0,
        "no breaker tripped under the crash storm: {stats:?}"
    );
    (cluster.render_trace(), format!("{stats:?}"))
}

#[test]
fn overloaded_cluster_runs_are_byte_identical_per_seed() {
    let a = run_overloaded_cluster(41);
    let b = run_overloaded_cluster(41);
    assert!(!a.0.is_empty());
    assert_eq!(
        a, b,
        "same seed must replay the overload run byte-identically"
    );
    let c = run_overloaded_cluster(42);
    assert_ne!(a.0, c.0, "distinct seeds should diverge");
}

/// The observability exports themselves are deterministic artifacts: same
/// seed, byte-identical JSON *and* Prometheus text. Everything in them is
/// virtual-clock timestamps and integer microseconds, so this holds across
/// platforms too.
#[test]
fn metrics_exports_are_byte_identical_per_seed() {
    let (json_a, prom_a) = aorta::cluster::metrics_demo(2718);
    let (json_b, prom_b) = aorta::cluster::metrics_demo(2718);
    assert!(!json_a.is_empty() && !prom_a.is_empty());
    assert_eq!(json_a, json_b, "JSON export must replay byte-identically");
    assert_eq!(
        prom_a, prom_b,
        "Prometheus export must replay byte-identically"
    );
    let (json_c, _) = aorta::cluster::metrics_demo(2719);
    assert_ne!(json_a, json_c, "distinct seeds should diverge");
}

/// Observability is write-only: the same seeded run with recording on and
/// off must produce identical engine statistics (the recorded registry is
/// extra output, never an input to any decision).
#[test]
fn observability_does_not_perturb_the_engine() {
    let run = |observability: bool| {
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let mut config = aorta::engine::EngineConfig::seeded(77);
        if observability {
            config = config.with_observability();
        }
        let mut aorta = aorta::engine::Aorta::with_lab(config, lab);
        aorta
            .execute_sql(
                r#"CREATE AQ obs AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#,
            )
            .unwrap();
        aorta.run_for(SimDuration::from_mins(5));
        (aorta.stats(), aorta.trace().render())
    };
    let on = run(true);
    let off = run(false);
    assert!(on.0.requests > 0, "the run must actually do work");
    assert_eq!(on, off, "recording must never influence behavior");
}

/// A 4-shard WAL-logged cluster where TWO shards process-crash at seeded
/// points and are rebuilt from their logs mid-run. The witness is the full
/// gateway + per-shard trace: recovery must be invisible to it, so two
/// repetitions are byte-identical, and the run matches a crash-immune
/// reference run record for record.
fn run_kill_and_recover_cluster(seed: u64, immune: bool) -> (String, String, u64) {
    use aorta::cluster::{ClusterConfig, ShardManager};
    use aorta_device::DeviceId;
    use aorta_sim::{FaultEvent, FaultPlan, SimTime};

    let lab = PervasiveLab::with_sizes(12, 16, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let mut config = ClusterConfig::seeded(seed, 4).with_imbalance_threshold(u64::MAX);
    if !immune {
        config = config.with_wal(256);
    }
    let mut cluster = ShardManager::new(config, lab);
    for i in 0..10 {
        cluster
            .execute_sql(&format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .unwrap();
    }
    // Pick victim cameras on two distinct shards, deterministically.
    let mut victims: Vec<(usize, DeviceId)> = Vec::new();
    for c in 0..12u32 {
        let id = DeviceId::camera(c);
        let owner = cluster.shard_owning(id).expect("camera owned");
        if !victims.iter().any(|(s, _)| *s == owner) {
            victims.push((owner, id));
        }
        if victims.len() == 2 {
            break;
        }
    }
    assert_eq!(victims.len(), 2, "need victims on two distinct shards");
    let mut plan = FaultPlan::new();
    for (i, (owner, id)) in victims.iter().enumerate() {
        if immune {
            cluster.shard_mut(*owner).grant_crash_immunity(1);
        }
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(100 + 37 * i as u64),
            FaultEvent::ProcessCrash(*id),
        );
    }
    cluster.inject_faults(plan);
    cluster.run_for(SimDuration::from_mins(5));
    cluster.run_for(SimDuration::from_secs(30));
    let stats = cluster.stats();
    stats.check_conservation().expect("kill-and-recover ledger");
    (
        cluster.render_trace(),
        format!("{stats:?}"),
        cluster.recoveries(),
    )
}

#[test]
fn kill_and_recover_runs_are_byte_identical_per_seed() {
    let a = run_kill_and_recover_cluster(4242, false);
    let b = run_kill_and_recover_cluster(4242, false);
    assert_eq!(a.2, 2, "both crashed shards must recover from their logs");
    assert!(!a.0.is_empty());
    assert_eq!(
        (&a.0, &a.1),
        (&b.0, &b.1),
        "same seed must replay the kill-and-recover run byte-identically"
    );
    // Recovery is invisible: the logged run matches a run where the same
    // crashes were absorbed by immunity instead of ever halting a shard.
    let reference = run_kill_and_recover_cluster(4242, true);
    assert_eq!(reference.2, 0);
    assert_eq!(
        (&a.0, &a.1),
        (&reference.0, &reference.1),
        "recovered run must be indistinguishable from the uninterrupted one"
    );
}

/// A 4-shard WAL-logged cluster where one shard process-crashes *inside*
/// an asymmetric partition window and fails over to a brand-new host from
/// a shipped snapshot image. The witness is the full trace plus the stats
/// snapshot; `obs` toggles span/metric recording, which must be write-only,
/// and `threads` sets the worker-pool size, which must also be write-only:
/// any thread count must reproduce the 1-thread bytes exactly.
fn run_partitioned_failover_cluster(seed: u64, obs: bool, threads: usize) -> (String, String) {
    use aorta::cluster::{ClusterConfig, FailoverConfig, ShardManager};
    use aorta_device::DeviceId;
    use aorta_sim::{FaultEvent, FaultPlan, SimTime};

    let lab = PervasiveLab::with_sizes(12, 16, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let mut config = ClusterConfig::seeded(seed, 4)
        .with_imbalance_threshold(u64::MAX)
        .with_wal(256)
        .with_threads(threads)
        .with_failover(FailoverConfig::default());
    if obs {
        config.engine = config.engine.with_observability();
    }
    let mut cluster = ShardManager::new(config, lab);
    for i in 0..10 {
        cluster
            .execute_sql(&format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .unwrap();
    }
    let victim = DeviceId::camera(0);
    let owner = cluster.shard_owning(victim).expect("victim owned");
    let sibling = ((owner + 1) % 4) as u32;
    let crash_at = SimTime::ZERO + SimDuration::from_secs(150);
    let window = SimDuration::from_secs(40);
    let mut plan = FaultPlan::new();
    plan.schedule(
        crash_at - SimDuration::from_secs(5),
        FaultEvent::Partition {
            a: owner as u32,
            b: sibling,
            window,
        },
    );
    plan.schedule(
        crash_at - SimDuration::from_secs(5),
        FaultEvent::Partition {
            a: sibling,
            b: owner as u32,
            window,
        },
    );
    plan.schedule(crash_at, FaultEvent::ProcessCrash(victim));
    cluster.inject_faults(plan);
    cluster.run_for(SimDuration::from_mins(5));
    cluster.run_for(SimDuration::from_secs(30));

    let stats = cluster.stats();
    stats.check_conservation().expect("failover ledger");
    let events = cluster.failover_report();
    assert_eq!(events.len(), 1, "exactly one failover expected");
    assert_eq!(events[0].new_host, 4, "rebuild must land on a fresh host");
    assert_eq!(cluster.shard_epoch(owner), 2, "epoch must have bumped");
    assert_eq!(stats.late_successes(), 0, "no zombie completion may apply");
    (cluster.render_trace(), format!("{stats:?}"))
}

#[test]
fn partitioned_failover_runs_are_byte_identical_per_seed() {
    let a = run_partitioned_failover_cluster(515, false, 1);
    let b = run_partitioned_failover_cluster(515, false, 1);
    assert!(!a.0.is_empty());
    assert_eq!(
        a, b,
        "same seed must replay the mid-partition failover byte-identically"
    );
    // Observability is write-only even across a cross-host failover: spans
    // and metrics are extra output, never an input to any decision.
    let observed = run_partitioned_failover_cluster(515, true, 1);
    assert_eq!(
        a, observed,
        "recording must never influence the failover run"
    );
}

/// Mid-wave cross-host failover under every pool size: `with_threads(n)`
/// must be a pure no-op on its bytes — trace and stats match the 1-thread
/// run exactly. This fleet is small enough that every window runs inline;
/// the arms below bring fleets large enough for windows to fan out over
/// the pool.
#[test]
fn failover_runs_are_invariant_across_thread_counts() {
    let one = run_partitioned_failover_cluster(515, false, 1);
    assert!(!one.0.is_empty());
    for threads in [2usize, 4, 8] {
        let arm = run_partitioned_failover_cluster(515, false, threads);
        assert_eq!(
            one, arm,
            "threads={threads}: a failover run drifted from the 1-thread run"
        );
    }
}

/// A durable cluster with the rebalancer on at a threshold low enough to
/// migrate, over a fleet large enough (above the cluster's fan-out floor of
/// 512 devices) that its sample windows run on the worker pool.
fn run_durable_rebalanced_cluster(threads: usize) -> (String, String) {
    use aorta::cluster::{ClusterConfig, ShardManager};

    let lab = PervasiveLab::with_sizes(24, 600, 0)
        .with_periodic_events(SimDuration::from_secs(20), SimDuration::ZERO);
    let config = ClusterConfig::seeded(808, 4)
        .with_imbalance_threshold(1)
        .with_wal(256)
        .with_threads(threads);
    let mut cluster = ShardManager::new(config, lab);
    for i in 0..10 {
        cluster
            .execute_sql(&format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .unwrap();
    }
    cluster.run_for(SimDuration::from_mins(3));
    let stats = cluster.stats();
    stats.check_conservation().expect("rebalanced ledger");
    assert!(stats.migrations > 0, "the rebalancer never migrated");
    let logs: Vec<String> = (0..cluster.shard_count())
        .map(|s| {
            let wal = cluster.shard(s).wal().expect("wal on");
            format!("{:?}", wal.records().expect("readable log"))
        })
        .collect();
    (cluster.render_trace(), format!("{stats:?} {logs:?}"))
}

/// WAL and rebalancer on, every window that holds a sample epoch on the
/// pool: trace, stats and every shard's log match the 1-thread run.
#[test]
fn durable_rebalanced_runs_are_invariant_across_thread_counts() {
    let one = run_durable_rebalanced_cluster(1);
    for threads in [2usize, 4] {
        assert!(
            run_durable_rebalanced_cluster(threads) == one,
            "threads={threads}: a durable rebalanced run drifted from the 1-thread run"
        );
    }
}

/// A cluster under a combined device-crash + loss storm with an asymmetric
/// mid-wave partition window, over a fleet large enough (above the fan-out
/// floor of 512 devices) that sample windows run on the worker pool.
/// Returns the full trace plus the stats snapshot so a single flipped byte
/// anywhere in the run fails the comparison.
fn run_threaded_storm_cluster(
    seed: u64,
    shards: usize,
    threads: usize,
    crash_rate: f64,
    loss_burst_rate: f64,
    extra_loss: f64,
) -> (String, String) {
    use aorta::cluster::{ClusterConfig, ShardManager};
    use aorta_device::DeviceId;
    use aorta_sim::{FaultConfig, FaultEvent, FaultPlan, SimTime};

    let lab = PervasiveLab::with_sizes(12, 520, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let config = ClusterConfig::seeded(seed, shards)
        .with_imbalance_threshold(u64::MAX)
        .with_threads(threads);
    let mut cluster = ShardManager::new(config, lab);
    for i in 0..10 {
        cluster
            .execute_sql(&format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .unwrap();
    }
    let devices: Vec<DeviceId> = (0..12)
        .map(DeviceId::camera)
        .chain((0..16).map(DeviceId::sensor))
        .collect();
    let storm = FaultConfig {
        crash_rate,
        loss_burst_rate,
        extra_loss,
        ..FaultConfig::default()
    };
    let mut plan =
        FaultPlan::generate(seed ^ 0x9A11E7, SimDuration::from_mins(3), &devices, &storm);
    // One asymmetric inter-shard blackout mid-wave: the gateway refuses
    // crossings a→b while the window is open, so parked routing decisions
    // land inside the parallel windows too.
    let a = (seed % shards as u64) as u32;
    let b = ((seed + 1) % shards as u64) as u32;
    plan.schedule(
        SimTime::ZERO + SimDuration::from_secs(80),
        FaultEvent::Partition {
            a,
            b,
            window: SimDuration::from_secs(45),
        },
    );
    cluster.inject_faults(plan);
    cluster.run_for(SimDuration::from_mins(3));
    cluster.run_for(SimDuration::from_secs(30));

    let stats = cluster.stats();
    stats.check_conservation().expect("threaded storm ledger");
    (cluster.render_trace(), format!("{stats:?}"))
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// The window runner's contract as a property: under any seed, shard
    /// count and random crash + partition + loss mix, stepping shards on
    /// 2, 4, or 8 worker threads reproduces the 1-thread run's trace and
    /// stats byte for byte.
    #[test]
    fn threaded_stepping_matches_the_sequential_oracle_under_random_storms(
        seed in 0u64..1_000_000,
        shards in 2usize..=8,
        crash_rate in 0.0f64..0.4,
        loss_burst_rate in 0.0f64..0.4,
        extra_loss in 0.0f64..0.6,
    ) {
        let one = run_threaded_storm_cluster(
            seed, shards, 1, crash_rate, loss_burst_rate, extra_loss,
        );
        proptest::prop_assert!(!one.0.is_empty(), "the 1-thread run produced no trace");
        for threads in [2usize, 4, 8] {
            let arm = run_threaded_storm_cluster(
                seed, shards, threads, crash_rate, loss_burst_rate, extra_loss,
            );
            if arm != one {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "seed={seed} shards={shards} threads={threads}: \
                     threaded stepping diverged from the 1-thread run"
                )));
            }
        }
    }
}

#[test]
fn cluster_traces_diverge_across_seeds() {
    let a = run_cluster(99, 2, true);
    let b = run_cluster(100, 2, true);
    assert_ne!(a, b, "distinct seeds should explore distinct interleavings");
}

#[test]
fn experiment_tables_are_regenerable() {
    use aorta_bench_shim::*;
    // The fig5 rows (the most calibration-sensitive table) replay exactly.
    let a = fig5_row_fingerprint();
    let b = fig5_row_fingerprint();
    assert_eq!(a, b);
}

/// Minimal inline shim so the root tests crate does not depend on
/// aorta-bench: reproduce the fig5 measurement inline.
mod aorta_bench_shim {
    use aorta::sched::{run_algorithm, workload, Algorithm};
    use aorta_sim::{CpuModel, SimRng};

    pub fn fig5_row_fingerprint() -> Vec<(String, u64, u64)> {
        let cpu = CpuModel::paper_notebook();
        Algorithm::paper_lineup()
            .iter()
            .map(|alg| {
                let (inst, model) = workload::uniform_targets(20, 10, &mut SimRng::seed(2000));
                let mut rng = SimRng::seed(2000 ^ 0xA0A0_A0A0);
                let r = run_algorithm(alg, &inst, &model, &cpu, &mut rng);
                (
                    alg.name().to_string(),
                    r.sched_time.as_micros(),
                    r.service_makespan.as_micros(),
                )
            })
            .collect()
    }
}
