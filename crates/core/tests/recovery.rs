//! Crash-recovery integration tests for the WAL subsystem (single engine).
//!
//! The contract under test: attaching a WAL never perturbs a run, and a
//! process crash mid-run recovers — by snapshot or by full replay from
//! genesis — to a state *byte-identical* to an uninterrupted reference run
//! over the same inputs (same stats, same trace, same RNG position, same
//! lock table; the `state_digest` covers all of it).

use aorta_core::{
    genesis_fingerprint, recover_engine, recover_from_log, Aorta, EngineConfig, GenesisSpec,
};
use aorta_device::{DeviceId, PervasiveLab};
use aorta_net::DeviceRegistry;
use aorta_sim::{FaultEvent, FaultPlan, SimDuration, SimTime};
use aorta_wal::{MemStore, WalHandle, WalManager, WalRecord};

const SNAPSHOT_AQ: &str = r#"CREATE AQ snapshot AS
    SELECT photo(c.ip, s.loc, "photos/admin")
    FROM sensor s, camera c
    WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#;

const WINDOWED_AQ: &str = r#"CREATE AQ smoothed AS
    SELECT photo(c.ip, s.loc, "photos/smoothed")
    FROM sensor s, camera c
    WHERE AVG(s.accel_x) OVER LAST 4 > 300 AND coverage(c.id, s.loc)"#;

fn t(secs: u64) -> SimTime {
    SimTime::from_micros(secs * 1_000_000)
}

fn lab() -> PervasiveLab {
    PervasiveLab::with_sizes(4, 6, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO)
}

fn genesis(seed: u64) -> (GenesisSpec, u64) {
    let spec = GenesisSpec {
        config: EngineConfig::seeded(seed),
        registry: DeviceRegistry::from_lab(lab()),
        handlers: Vec::new(),
    };
    (spec, genesis_fingerprint(seed, 0))
}

/// Camera crash/recover plus a process crash at 150.01s (mid-slice, between
/// the 120s and 180s event epochs).
fn plan_with_process_crash() -> FaultPlan<DeviceId> {
    let mut plan = FaultPlan::new();
    plan.schedule(t(90), FaultEvent::Crash(DeviceId::camera(1)));
    plan.schedule(
        t(150) + SimDuration::from_millis(10),
        FaultEvent::ProcessCrash(DeviceId::camera(0)),
    );
    plan.schedule(t(200), FaultEvent::Recover(DeviceId::camera(1)));
    plan
}

fn drive_slices(engine: &mut Aorta, from: u64, to: u64) {
    for i in from..=to {
        engine.run_until(t(30 * i));
        if engine.is_crashed() {
            return;
        }
    }
}

/// Attaching a WAL is a separate channel: a logged run is byte-identical
/// to an unlogged one over the same inputs.
#[test]
fn wal_attach_never_perturbs_the_run() {
    let (spec, fp) = genesis(7);

    let mut silent = spec.build();
    silent.execute_sql(SNAPSHOT_AQ).unwrap();
    silent.inject_faults(plan_with_process_crash());
    silent.grant_crash_immunity(1);
    drive_slices(&mut silent, 1, 10);

    let mut logged = spec.build();
    let handle = WalHandle::new(Box::new(MemStore::new()));
    handle.append(WalRecord::Genesis { fingerprint: fp });
    logged.attach_wal(handle.clone());
    logged.execute_sql(SNAPSHOT_AQ).unwrap();
    logged.inject_faults(plan_with_process_crash());
    logged.grant_crash_immunity(1);
    drive_slices(&mut logged, 1, 10);

    assert_eq!(silent.stats(), logged.stats());
    assert_eq!(silent.trace().render(), logged.trace().render());
    assert_eq!(silent.state_digest(), logged.state_digest());
    // …and the log actually recorded the run.
    let records = handle.records().unwrap();
    assert!(records.len() > 4, "only {} records", records.len());
    assert!(records
        .iter()
        .any(|r| matches!(r, WalRecord::CrashApplied { .. })));
}

/// A process crash mid-run, recovered by full replay from genesis, resumes
/// at the exact virtual-clock point and finishes byte-identical to an
/// uninterrupted reference run.
#[test]
fn genesis_replay_recovery_matches_uninterrupted_run() {
    let (spec, fp) = genesis(7);

    // Reference: same inputs, crash absorbed (never halts).
    let mut reference = spec.build();
    reference.grant_crash_immunity(1);
    reference.execute_sql(SNAPSHOT_AQ).unwrap();
    reference.inject_faults(plan_with_process_crash());
    drive_slices(&mut reference, 1, 10);
    assert!(!reference.is_crashed());

    // Live run: same inputs, logged; the crash halts it mid-slice 6.
    let mut live = spec.build();
    let handle = WalHandle::new(Box::new(MemStore::new()));
    handle.append(WalRecord::Genesis { fingerprint: fp });
    live.attach_wal(handle.clone());
    live.execute_sql(SNAPSHOT_AQ).unwrap();
    live.inject_faults(plan_with_process_crash());
    drive_slices(&mut live, 1, 10);
    assert!(live.is_crashed(), "process crash must halt the engine");
    assert!(live.now() < t(180), "halted mid-slice, not at its end");

    // Recover: replay the log from genesis. The final logged RunUntil(180)
    // replays *through* the crash instant, so the replay emits records past
    // the log's end — the re-derived crash-truncated tail.
    let records = handle.records().unwrap();
    let recovered = recover_from_log(&spec, records, fp).expect("recovery");
    assert!(
        !recovered.appended.is_empty(),
        "replaying past the crash must extend the log"
    );
    let mut engine = recovered.engine;
    assert_eq!(engine.now(), t(180), "resume at the logged slice deadline");
    assert!(!engine.is_crashed());

    // Finish the timeline and compare everything.
    drive_slices(&mut engine, 7, 10);
    assert_eq!(engine.now(), reference.now());
    assert_eq!(engine.stats(), reference.stats());
    assert_eq!(engine.trace().render(), reference.trace().render());
    assert_eq!(engine.state_digest(), reference.state_digest());
}

/// Snapshot-based recovery (snapshot + suffix replay) lands in exactly the
/// same state as full replay from genesis and as the uninterrupted engine.
/// The windowed AQ puts sliding-window
/// buffers into that state: the digest covers them, snapshots clone them
/// and replay refills them from the same samples.
#[test]
fn snapshot_replay_equals_genesis_replay() {
    let (spec, fp) = genesis(11);

    let mut live = spec.build();
    let handle = WalHandle::new(Box::new(MemStore::new()));
    handle.append(WalRecord::Genesis { fingerprint: fp });
    let mut manager: WalManager<Box<Aorta>> = WalManager::new(handle.clone(), 1_000_000, true);
    live.attach_wal(handle.clone());
    live.execute_sql(SNAPSHOT_AQ).unwrap();
    live.execute_sql(WINDOWED_AQ).unwrap();
    live.inject_faults({
        let mut plan = FaultPlan::new();
        plan.schedule(t(90), FaultEvent::Crash(DeviceId::camera(1)));
        plan.schedule(t(200), FaultEvent::Recover(DeviceId::camera(1)));
        plan
    });
    drive_slices(&mut live, 1, 4);
    manager.force_snapshot(|| live.fork_snapshot());
    drive_slices(&mut live, 5, 8);
    let target = live.state_digest();
    assert!(live.window_entries() > 0, "the windowed AQ never sampled");

    // Full replay from genesis.
    let records = manager.records().unwrap();
    let from_genesis = recover_from_log(&spec, records.clone(), fp).expect("genesis replay");
    assert_eq!(from_genesis.engine.state_digest(), target);
    assert_eq!(from_genesis.engine.window_entries(), live.window_entries());

    // Snapshot + suffix replay.
    let (at, image) = manager.latest_snapshot().expect("snapshot taken");
    let image = image.expect("a forced snapshot keeps its image");
    let suffix = records[at as usize..].to_vec();
    let from_snapshot =
        recover_engine(Some(image.fork_snapshot()), &spec, suffix, fp).expect("suffix replay");
    assert_eq!(from_snapshot.engine.state_digest(), target);
    assert!(
        from_snapshot.replayed < from_genesis.replayed,
        "the snapshot must shorten the replay"
    );
}

/// The digest covers the predicate index's rising-edge state: two engines
/// that agree on clock, counters, trace, RNG and queue but disagree on
/// whether one group's edge is high have different futures (one fires on
/// the next match, the other does not) and must not digest equal.
#[test]
fn digest_distinguishes_engines_differing_only_in_a_group_edge() {
    use aorta_data::{Tuple, Value};
    use aorta_device::DeviceKind;

    let (spec, _) = genesis(13);
    let sensor_batch = |engine: &Aorta, accel: i64| {
        let schema = engine.registry().schema(DeviceKind::Sensor);
        let mut values = vec![Value::Null; schema.len()];
        values[schema.index_of("id").unwrap()] = Value::Int(2);
        values[schema.index_of("accel_x").unwrap()] = Value::Int(accel);
        vec![Tuple::new(values)]
    };
    let run = |second_accel: i64| {
        let mut engine = spec.build();
        engine.execute_sql(SNAPSHOT_AQ).unwrap();
        // Both engines fire once on mote 2 ...
        let batch = sensor_batch(&engine, 600);
        engine.detect_on_batch(DeviceKind::Sensor, batch);
        // ... then see a sample that fires nothing: the edge either stays
        // high (still above the threshold) or falls.
        let batch = sensor_batch(&engine, second_accel);
        engine.detect_on_batch(DeviceKind::Sensor, batch);
        engine
    };
    let high = run(600);
    let low = run(0);
    assert_eq!(high.stats(), low.stats());
    assert_eq!(high.trace().render(), low.trace().render());
    assert_eq!(high.stats().events_detected, 1);
    assert_ne!(high.state_digest(), low.state_digest());
    assert_eq!(high.state_digest(), run(600).state_digest());
}

/// A log from one lineage refuses to replay against another genesis, and a
/// truncated command stream surfaces as leftover records, never silently.
#[test]
fn recovery_refuses_foreign_or_truncated_logs() {
    let (spec, fp) = genesis(7);
    let mut live = spec.build();
    let handle = WalHandle::new(Box::new(MemStore::new()));
    handle.append(WalRecord::Genesis { fingerprint: fp });
    live.attach_wal(handle.clone());
    live.execute_sql(SNAPSHOT_AQ).unwrap();
    drive_slices(&mut live, 1, 3);
    let records = handle.records().unwrap();

    // Wrong genesis fingerprint.
    let err = recover_from_log(&spec, records.clone(), fp ^ 1)
        .err()
        .expect("foreign log must be refused");
    assert!(
        matches!(err, aorta_wal::RecoveryError::GenesisMismatch { .. }),
        "{err}"
    );

    // Drop the final command: its effects are left unconsumed in the log.
    let mut truncated = records.clone();
    let last_command = truncated
        .iter()
        .rposition(|r| r.is_command())
        .expect("log has commands");
    truncated.remove(last_command);
    let err = recover_from_log(&spec, truncated, fp)
        .err()
        .expect("truncated log must be refused");
    assert!(
        matches!(
            err,
            aorta_wal::RecoveryError::Leftover { .. } | aorta_wal::RecoveryError::Divergence { .. }
        ),
        "{err}"
    );
}

/// A forked image shares the two diagnostic rings' text with its donor by
/// reference count, and sharing costs no isolation: the donor running on
/// until it has evicted every trace line the two share leaves the image's
/// trace, metrics and digest byte-for-byte what they were at the fork.
#[test]
fn fork_shares_ring_text_and_stays_isolated() {
    use std::sync::Arc;

    let mut spec = genesis(5).0;
    spec.config = spec.config.with_observability();
    let mut donor = spec.build();
    donor.execute_sql(SNAPSHOT_AQ).unwrap();
    let mut slice = 0;
    while donor.trace().dropped() == 0 {
        slice += 1;
        donor.run_until(t(30 * slice));
    }

    let image = donor.fork_snapshot();
    let metrics = |e: &Aorta| e.metrics().expect("observability on");
    assert!(metrics(&image).span_len() > 1000);
    assert!(donor
        .trace()
        .iter()
        .zip(image.trace().iter())
        .all(|(d, i)| Arc::ptr_eq(&d.message, &i.message)));
    assert!(metrics(&donor)
        .spans()
        .zip(metrics(&image).spans())
        .all(|(d, i)| Arc::ptr_eq(&d.label, &i.label)));

    let (trace, json, digest) = (
        image.trace().render(),
        image.metrics_json(),
        image.state_digest(),
    );
    assert_eq!(trace, donor.trace().render());
    assert_eq!(digest, donor.state_digest());
    // The donor overwrites every trace entry the image shares with it.
    let wrapped = donor.trace().dropped() + donor.trace().len() as u64;
    while donor.trace().dropped() < wrapped {
        slice += 1;
        donor.run_until(t(30 * slice));
    }
    assert_ne!(donor.state_digest(), digest);
    assert_eq!(image.trace().render(), trace);
    assert_eq!(image.metrics_json(), json);
    assert_eq!(image.state_digest(), digest);
}
