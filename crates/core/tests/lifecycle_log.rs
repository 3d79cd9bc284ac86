//! The log agrees with the counters: with a WAL attached, every terminal
//! `Lifecycle` record matches one terminal counter bump, stage by stage, and
//! every admitted request is settled, pending, or parked for a gateway.
//!
//! The arms between them reach every terminal stage (and `Retried`), and
//! the test asserts that they do, so a fate that stops logging — or logs
//! without counting — cannot hide in an arm that never produces it.

use aorta_core::{AdmissionConfig, Aorta, EngineConfig, EngineStats};
use aorta_device::{DeviceId, DeviceKind, PervasiveLab};
use aorta_sim::{FaultConfig, FaultEvent, FaultPlan, SimDuration, SimTime};
use aorta_wal::{LifecycleStage, MemStore, WalHandle, WalRecord};

const TWIN_SHOT: &str = r#"CREATE AQ twin AS
    SELECT photo(c.ip, s.loc, "photos/a"), photo(c.ip, s.loc, "photos/b")
    FROM sensor s, camera c
    WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#;

const SNAPSHOT: &str = r#"CREATE AQ snapshot AS
    SELECT photo(c.ip, s.loc, "photos/admin")
    FROM sensor s, camera c
    WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#;

/// Every stage a request can leave this engine by, plus `Retried`.
const CHECKED: [LifecycleStage; 9] = [
    LifecycleStage::Completed,
    LifecycleStage::Failed,
    LifecycleStage::Shed,
    LifecycleStage::NoCandidate,
    LifecycleStage::TimedOut,
    LifecycleStage::Orphaned,
    LifecycleStage::Expired,
    LifecycleStage::Escalated,
    LifecycleStage::Retried,
];

/// One engine with an in-memory WAL attached, run for `run`.
struct Logged {
    stats: EngineStats,
    pending: u64,
    records: Vec<WalRecord>,
}

fn logged_run(
    config: EngineConfig,
    lab: PervasiveLab,
    sql: &[String],
    plan: impl FnOnce(&Aorta) -> FaultPlan<DeviceId>,
    run: SimDuration,
) -> Logged {
    let mut aorta = Aorta::with_lab(config, lab);
    let wal = WalHandle::new(Box::new(MemStore::new()));
    aorta.attach_wal(wal.clone());
    for statement in sql {
        aorta.execute_sql(statement).unwrap();
    }
    let plan = plan(&aorta);
    aorta.inject_faults(plan);
    aorta.run_for(run);
    Logged {
        stats: aorta.stats(),
        pending: aorta.pending_requests(),
        records: wal.records().expect("readable log"),
    }
}

fn logged(records: &[WalRecord], stage: LifecycleStage) -> u64 {
    records
        .iter()
        .filter(|r| matches!(r, WalRecord::Lifecycle { stage: s, .. } if *s == stage))
        .count() as u64
}

/// The counters a stage's records must add up to.
fn counted(s: &EngineStats, stage: LifecycleStage) -> u64 {
    match stage {
        LifecycleStage::Completed => s.executed + s.degraded,
        LifecycleStage::Failed => {
            s.connect_failures + s.busy_rejections + s.out_of_range + s.action_errors
        }
        LifecycleStage::Shed => s.shed,
        LifecycleStage::NoCandidate => s.no_candidate,
        LifecycleStage::TimedOut => s.timed_out,
        LifecycleStage::Orphaned => s.orphaned,
        LifecycleStage::Expired => s.expired,
        LifecycleStage::Escalated => s.escalated_out,
        LifecycleStage::Retried => s.retries,
        other => unreachable!("{other:?} is not checked"),
    }
}

/// Asserts the log against the counters and conservation; returns the
/// checked stages this run reached.
fn check(arm: &str, run: &Logged) -> Vec<LifecycleStage> {
    let s = &run.stats;
    for stage in CHECKED {
        assert_eq!(
            logged(&run.records, stage),
            counted(s, stage),
            "{arm}: {stage:?} records disagree with the counters: {s:?}"
        );
    }
    assert_eq!(
        s.requests,
        s.terminal() + run.pending + s.escalated_out,
        "{arm}: a request was lost: {s:?}, pending {}",
        run.pending
    );
    CHECKED
        .into_iter()
        .filter(|&stage| counted(s, stage) > 0)
        .collect()
}

fn per_mote_queries(motes: u32) -> Vec<String> {
    (0..motes)
        .map(|i| {
            format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            )
        })
        .collect()
}

fn camera_crashes(seed: u64) -> impl FnOnce(&Aorta) -> FaultPlan<DeviceId> {
    move |aorta: &Aorta| {
        let cameras = aorta.registry().ids_of_kind(DeviceKind::Camera);
        let config = FaultConfig {
            crash_rate: 0.3,
            ..FaultConfig::default()
        };
        FaultPlan::generate(seed, SimDuration::from_mins(5), &cameras, &config)
    }
}

/// Every logged terminal stage matches its counters, and across the arms
/// every terminal stage is reached.
#[test]
fn lifecycle_records_agree_with_the_counters() {
    let mut reached = Vec::new();

    // Overload and crashes: deadline, admission and breakers on over a
    // crash-prone fleet — completions, failures, sheds, no-candidates and
    // failover re-selections.
    for seed in 1..=5 {
        let lab = PervasiveLab::with_sizes(4, 12, 0)
            .with_periodic_events(SimDuration::from_secs(20), SimDuration::ZERO);
        let config = EngineConfig::seeded(seed)
            .with_deadline(SimDuration::from_secs(4))
            .with_admission(AdmissionConfig {
                rate_per_sec: 2.0,
                ..AdmissionConfig::default()
            })
            .with_breakers(aorta_net::BreakerConfig::default());
        let run = logged_run(
            config,
            lab,
            &per_mote_queries(12),
            camera_crashes(seed * 31 + 7),
            SimDuration::from_mins(6),
        );
        reached.extend(check(&format!("overload seed {seed}"), &run));
    }

    // The same storm on a shard that escalates instead of failing.
    let lab = PervasiveLab::with_sizes(4, 12, 0)
        .with_periodic_events(SimDuration::from_secs(20), SimDuration::ZERO);
    let mut config = EngineConfig::seeded(3);
    config.escalate_exhausted = true;
    let run = logged_run(
        config,
        lab,
        &per_mote_queries(12),
        camera_crashes(100),
        SimDuration::from_mins(6),
    );
    reached.extend(check("escalating shard", &run));

    // Sixty simultaneous events on one camera: the tail of its queue
    // cannot start within the request timeout.
    let lab = PervasiveLab::with_sizes(1, 60, 0)
        .with_reliable_cameras()
        .with_periodic_events(SimDuration::from_mins(10), SimDuration::ZERO);
    let run = logged_run(
        EngineConfig::seeded(1),
        lab,
        &[SNAPSHOT.to_string()],
        |_| FaultPlan::new(),
        SimDuration::from_mins(2),
    );
    reached.extend(check("timeout", &run));

    // One camera with a queue behind it crashes and stays down past the
    // queued starts: nothing is left to re-select, so they are orphaned.
    let lab = PervasiveLab::with_sizes(1, 3, 0)
        .with_reliable_cameras()
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let crash = |_: &Aorta| {
        let mut plan = FaultPlan::new();
        let at = SimTime::ZERO + SimDuration::from_millis(2_000);
        plan.schedule(at, FaultEvent::Crash(DeviceId::camera(0)));
        let back = SimTime::ZERO + SimDuration::from_secs(30);
        plan.schedule(back, FaultEvent::Recover(DeviceId::camera(0)));
        plan
    };
    let run = logged_run(
        EngineConfig::seeded(3),
        lab,
        &[TWIN_SHOT.to_string()],
        crash,
        SimDuration::from_secs(150),
    );
    reached.extend(check("orphan", &run));

    // A deadline between the predicted and the real finish of the second
    // photo in a lane: dispatch accepts it, execution cancels it.
    let twin_lab = || {
        PervasiveLab::with_sizes(1, 1, 0)
            .with_reliable_cameras()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO)
    };
    let mut calibration = Aorta::with_lab(EngineConfig::seeded(11), twin_lab());
    calibration.execute_sql(TWIN_SHOT).unwrap();
    calibration.run_for(SimDuration::from_secs(150));
    let slowest = calibration.latency_stats().max().expect("photos completed");
    let config = EngineConfig::seeded(11).with_deadline(slowest - SimDuration::from_millis(3));
    let run = logged_run(
        config,
        twin_lab(),
        &[TWIN_SHOT.to_string()],
        |_| FaultPlan::new(),
        SimDuration::from_secs(150),
    );
    reached.extend(check("expiry", &run));

    for stage in CHECKED {
        assert!(
            reached.contains(&stage),
            "no arm reached {stage:?}; reached {reached:?}"
        );
    }
}
