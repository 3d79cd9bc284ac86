//! End-to-end fault injection: devices crash and recover, the network loses
//! message bursts, and the engine must neither wedge nor silently lose work.
//!
//! Three system-level guarantees are checked here:
//!
//! 1. **Conservation** — every admitted request ends in exactly one terminal
//!    counter (executed or a named failure reason, crash-orphaning included)
//!    or is still visibly pending. Nothing vanishes.
//! 2. **Failover** — when an assigned device crashes before its action runs,
//!    the engine re-runs device selection over the survivors, observable in
//!    the trace.
//! 3. **Determinism** — the same seed replays the same faults and yields a
//!    byte-identical trace; a different seed does not.

use aorta::{Aorta, EngineConfig};
use aorta_device::{DeviceId, DeviceKind, PervasiveLab};
use aorta_sim::{FaultConfig, FaultPlan, SimDuration};

const RUN: SimDuration = SimDuration::from_mins(10);

/// A fault schedule with ≥ 20% crash rate per device per period, plus
/// message-loss bursts, over every camera and mote in the lab.
fn heavy_faults(aorta: &Aorta, seed: u64) -> FaultPlan<DeviceId> {
    let devices: Vec<DeviceId> = aorta
        .registry()
        .ids_of_kind(DeviceKind::Camera)
        .into_iter()
        .chain(aorta.registry().ids_of_kind(DeviceKind::Sensor))
        .collect();
    let config = FaultConfig {
        crash_rate: 0.25,
        loss_burst_rate: 0.3,
        extra_loss: 0.5,
        ..FaultConfig::default()
    };
    FaultPlan::generate(seed, RUN, &devices, &config)
}

fn faulted_run(seed: u64) -> Aorta {
    let lab =
        PervasiveLab::standard().with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(seed), lab);
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
    let plan = heavy_faults(&aorta, seed.wrapping_mul(0x9E37));
    assert!(!plan.is_empty(), "fault generation produced nothing");
    aorta.inject_faults(plan);
    aorta.run_for(RUN);
    aorta
}

#[test]
fn no_request_is_silently_lost_under_heavy_faults() {
    let aorta = faulted_run(101);
    let stats = aorta.stats();
    assert!(
        stats.requests >= 10,
        "the fault storm starved the workload: {stats:?}"
    );
    // Conservation: admitted == terminally resolved + visibly pending. The
    // overload outcomes (degraded/shed/expired) are part of the identity
    // even though they stay zero with the overload knobs off.
    let accounted = stats.terminal() + aorta.pending_requests();
    assert_eq!(
        stats.requests,
        accounted,
        "requests leaked: {stats:?}, pending={}",
        aorta.pending_requests()
    );
    // The faults actually fired and were recorded.
    assert!(aorta.trace().any("fault", "crashed"), "no crash was traced");
    assert!(
        aorta.trace().any("fault", "recovered"),
        "no recovery was traced"
    );
}

#[test]
fn failover_reselection_engages_on_crash() {
    let aorta = faulted_run(303);
    assert!(aorta.trace().any("fault", "crashed"));
    // A crash landed between assignment and execution: the orphaned action
    // was detected and device selection re-ran over the survivors.
    assert!(
        aorta
            .trace()
            .any("failover", "offline at execution, re-selecting"),
        "no orphaned action was detected"
    );
    assert!(
        aorta
            .trace()
            .any("failover", "re-running device selection over"),
        "re-selection never ran"
    );
    let stats = aorta.stats();
    assert!(stats.retries > 0, "failover retries not counted: {stats:?}");
}

#[test]
fn identical_seeds_yield_byte_identical_traces() {
    let a = faulted_run(777);
    let b = faulted_run(777);
    assert!(!a.trace().render().is_empty());
    assert_eq!(
        a.trace().render(),
        b.trace().render(),
        "same seed must replay the exact same fault/execution history"
    );
    assert_eq!(a.stats(), b.stats());

    let c = faulted_run(778);
    assert_ne!(
        a.trace().render(),
        c.trace().render(),
        "different seeds should diverge"
    );
}

/// Builds a 4-shard failover cluster over the standard small lab with the
/// given snapshot-shipping network knobs, admits the stock 10-query
/// workload, and returns it ready for fault injection.
fn failover_cluster(
    seed: u64,
    loss: f64,
    dup_rate: f64,
    reorder_rate: f64,
) -> aorta::cluster::ShardManager {
    use aorta::cluster::{ClusterConfig, FailoverConfig, ShardManager};
    use aorta::net::ShipConfig;

    let lab = PervasiveLab::with_sizes(12, 16, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let config = ClusterConfig::seeded(seed, 4)
        .with_imbalance_threshold(u64::MAX)
        .with_wal(128)
        .with_failover(FailoverConfig {
            ship: ShipConfig {
                loss,
                dup_rate,
                reorder_rate,
                ..ShipConfig::default()
            },
        });
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
    cluster
}

/// A minimal escalation payload for fencing tests — the epoch fence
/// inspects the stamp, not the request body.
fn stale_probe() -> aorta::engine::ActionRequest {
    use aorta_sim::SimTime;

    aorta::engine::ActionRequest {
        query_id: u32::MAX,
        action: "photo".into(),
        event_tuple: aorta::data::Tuple::empty(),
        event_binding: "s".into(),
        event_kind: DeviceKind::Sensor,
        device_binding: None,
        args: Vec::new(),
        candidates: Default::default(),
        created_at: SimTime::ZERO,
        deadline: SimTime::MAX,
        degraded: false,
        attempts: 0,
        hops: 0,
    }
}

/// Zombie-fencing regression: after a shard fails over to a fresh host, a
/// late completion arriving under the *previous* incarnation's epoch must
/// be rejected and counted — never re-applied. Two otherwise identical
/// runs, one with the stale injection, must agree on every per-shard
/// counter; only the rejection counter may differ.
#[test]
fn stale_epoch_completions_are_rejected_and_counted() {
    use aorta_sim::{FaultEvent, FaultPlan, SimTime};

    let run = |inject: bool| {
        let mut cluster = failover_cluster(4242, 0.05, 0.05, 0.05);
        let victim = DeviceId::camera(0);
        let owner = cluster.shard_owning(victim).expect("victim is owned");
        let mut plan = FaultPlan::new();
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(150),
            FaultEvent::ProcessCrash(victim),
        );
        cluster.inject_faults(plan);
        cluster.run_for(SimDuration::from_mins(5));

        let events = cluster.failover_report();
        assert_eq!(events.len(), 1, "exactly one failover expected");
        assert_eq!(events[0].shard, owner);
        assert_eq!(cluster.shard_epoch(owner), 2, "epoch must have bumped");
        if inject {
            let admitted = cluster.inject_escalation(owner, 1, stale_probe());
            assert!(!admitted, "stale-epoch escalation was admitted");
        }
        cluster.run_for(SimDuration::from_secs(30));
        cluster
    };

    let clean = run(false);
    let probed = run(true);
    assert_eq!(clean.zombie_rejects(), 0);
    assert_eq!(
        probed.zombie_rejects(),
        1,
        "the stale probe must be counted as a rejection"
    );
    // Zero engine footprint: the zombie changed nothing a shard can see.
    assert_eq!(
        clean.stats().per_shard,
        probed.stats().per_shard,
        "a fenced zombie must not perturb any shard"
    );
    probed.stats().check_conservation().unwrap();
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Cluster-wide conservation is a property, not a fixture: under any
    /// seed, shard count and random fault mix, every admitted request is
    /// accounted for exactly once (terminal, pending, or dropped at the
    /// gateway) and the gateway's escalation ledger balances.
    #[test]
    fn cluster_conservation_survives_random_fault_plans(
        seed in 0u64..1_000_000,
        shards in 1usize..=4,
        crash_rate in 0.0f64..0.5,
        loss_burst_rate in 0.0f64..0.5,
        extra_loss in 0.0f64..0.8,
    ) {
        use aorta::cluster::{ClusterConfig, ShardManager};
        use aorta_sim::FaultConfig;

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
        let devices: Vec<DeviceId> = (0..12)
            .map(DeviceId::camera)
            .chain((0..16).map(DeviceId::sensor))
            .collect();
        let config = FaultConfig {
            crash_rate,
            loss_burst_rate,
            extra_loss,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(
            seed ^ 0xC0_FFEE,
            SimDuration::from_mins(3),
            &devices,
            &config,
        );
        cluster.inject_faults(plan);
        cluster.run_for(SimDuration::from_mins(3));
        cluster.run_for(SimDuration::from_secs(30));

        let stats = cluster.stats();
        proptest::prop_assert!(
            stats.requests() > 0,
            "workload starved entirely: {stats:?}"
        );
        if let Err(e) = stats.check_conservation() {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "seed={seed} shards={shards}: {e}"
            )));
        }
    }

    /// Partition windows, duplicated/reordered snapshot chunks, and a
    /// mid-window process crash are noise the ledger must absorb: under any
    /// seed, window placement and network misbehaviour mix, the cluster
    /// fails over without losing or double-executing a single request, and
    /// the rebuilt incarnation's fence holds.
    #[test]
    fn partitions_and_lossy_shipping_never_violate_conservation(
        seed in 0u64..1_000_000,
        crash_secs in 80u64..200,
        lead_secs in 1u64..30,
        window_secs in 10u64..90,
        loss in 0.0f64..0.3,
        dup_rate in 0.0f64..0.5,
        reorder_rate in 0.0f64..0.5,
    ) {
        use aorta_sim::{FaultEvent, FaultPlan, SimTime};

        let mut cluster = failover_cluster(seed, loss, dup_rate, reorder_rate);
        let victim = DeviceId::camera(0);
        let owner = cluster.shard_owning(victim).expect("victim is owned");
        let sibling = ((owner + 1) % 4) as u32;
        let crash_at = SimTime::ZERO + SimDuration::from_secs(crash_secs);
        let window_at = crash_at - SimDuration::from_secs(lead_secs);
        let window = SimDuration::from_secs(window_secs);
        let mut plan = FaultPlan::new();
        // An asymmetric partition bracketing the crash: the dead shard's
        // stripe cannot reach its preferred sibling in either direction.
        plan.schedule(
            window_at,
            FaultEvent::Partition { a: owner as u32, b: sibling, window },
        );
        plan.schedule(
            window_at,
            FaultEvent::Partition { a: sibling, b: owner as u32, window },
        );
        plan.schedule(crash_at, FaultEvent::ProcessCrash(victim));
        cluster.inject_faults(plan);
        cluster.run_for(SimDuration::from_mins(5));
        cluster.run_for(SimDuration::from_secs(30));

        let stats = cluster.stats();
        proptest::prop_assert!(stats.requests() > 0, "workload starved: {stats:?}");
        proptest::prop_assert_eq!(
            cluster.failover_report().len(),
            1,
            "exactly one failover expected (seed={})", seed
        );
        proptest::prop_assert_eq!(cluster.shard_epoch(owner), 2);
        proptest::prop_assert_eq!(stats.late_successes(), 0u64);
        if let Err(e) = stats.check_conservation() {
            return Err(proptest::test_runner::TestCaseError::fail(format!(
                "seed={seed} crash@{crash_secs}s window={window_secs}s: {e}"
            )));
        }
        // The previous incarnation stays fenced off after the storm.
        let mut probed = cluster;
        proptest::prop_assert!(!probed.inject_escalation(owner, 1, stale_probe()));
        proptest::prop_assert_eq!(probed.zombie_rejects(), 1u64);
    }

    /// A healthy device is never permanently quarantined: a breaker opened
    /// by a finite crash burst must return to Closed within bounded
    /// probation probes once the faults stop — regardless of seed, which
    /// camera crashed, or how long the burst lasted.
    #[test]
    fn breaker_reopens_healthy_devices_after_finite_fault_bursts(
        seed in 0u64..1_000_000,
        cam_idx in 0u32..2,
        burst_secs in 5u64..120,
    ) {
        use aorta::net::{BreakerConfig, BreakerState};
        use aorta_sim::{FaultEvent, SimTime};

        // Reliable cameras so crashes are the *only* failure source: once
        // the burst ends, nothing else can legitimately re-trip the breaker.
        let lab = PervasiveLab::standard()
            .with_reliable_cameras()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let config = EngineConfig::seeded(seed).with_breakers(BreakerConfig::default());
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
        let cam = DeviceId::camera(cam_idx);
        let crash_at = SimTime::ZERO + SimDuration::from_secs(60);
        let recover_at = crash_at + SimDuration::from_secs(burst_secs);
        let mut plan = FaultPlan::new();
        plan.schedule(crash_at, FaultEvent::Crash(cam));
        plan.schedule(recover_at, FaultEvent::Recover(cam));
        aorta.inject_faults(plan);
        // Run well past recovery + cooldown so at least two dispatch epochs
        // (one probation probe each, at most) see the healthy device.
        aorta.run_until(recover_at + SimDuration::from_mins(3));

        proptest::prop_assert!(
            aorta.trace().any("breaker", "opened on crash"),
            "the crash never tripped the breaker:\n{}",
            aorta.trace().render()
        );
        proptest::prop_assert_eq!(
            aorta.breaker_state(cam),
            Some(BreakerState::Closed),
            "device still quarantined {}s after the burst ended", 180
        );
        proptest::prop_assert!(
            aorta.trace().any("breaker", "closed after probation success"),
            "re-admission never traced:\n{}",
            aorta.trace().render()
        );
        let stats = aorta.stats();
        proptest::prop_assert!(stats.breaker_trips >= 1, "{:?}", stats);
        proptest::prop_assert!(stats.breaker_closes >= 1, "{:?}", stats);
    }
}
