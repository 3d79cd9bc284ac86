//! End-to-end integration: SQL → engine → communication layer → simulated
//! devices, verifying the paper's §6.2 behaviour at the system boundary.

use aorta::{Aorta, EngineConfig};
use aorta_device::{DeviceId, DeviceKind, PervasiveLab, PhotoOutcome};
use aorta_sim::SimDuration;

fn eventful_lab() -> PervasiveLab {
    PervasiveLab::standard().with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO)
}

fn ten_queries(aorta: &mut Aorta) {
    for i in 0..10 {
        aorta
            .execute_sql(&format!(
                r#"CREATE AQ snapshot_{i} AS
                   SELECT photo(c.ip, s.loc, "photos/admin")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .expect("valid §6.2 query");
    }
}

#[test]
fn synchronized_run_has_no_interference_outcomes() {
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(1), eventful_lab());
    ten_queries(&mut aorta);
    aorta.run_for(SimDuration::from_mins(5));
    aorta.run_for(SimDuration::from_secs(30));
    let stats = aorta.stats();
    // Locking makes concurrent interference impossible: no photo may be
    // blurred or taken at a wrong position.
    assert_eq!(stats.photos_blurred, 0, "{stats:?}");
    assert_eq!(stats.photos_wrong, 0, "{stats:?}");
    assert_eq!(stats.busy_rejections, 0, "{stats:?}");
    assert!(stats.photos_ok > 30, "{stats:?}");
    assert!(stats.lock_acquisitions > 0);
}

#[test]
fn unsynchronized_run_shows_the_papers_interference() {
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(2).without_sync(), eventful_lab());
    ten_queries(&mut aorta);
    aorta.run_for(SimDuration::from_mins(5));
    aorta.run_for(SimDuration::from_secs(30));
    let stats = aorta.stats();
    // "More than half of the action requests failed …, resulted in blurred
    // photos, or took photos at wrong positions" (§6.2).
    let rate = stats.failure_rate().expect("requests were made");
    assert!(
        rate > 0.5,
        "expected >50% failures, got {:.1}%",
        rate * 100.0
    );
    assert!(
        stats.photos_blurred + stats.photos_wrong + stats.busy_rejections > 0,
        "interference must be visible: {stats:?}"
    );
}

#[test]
fn photos_point_at_the_triggering_motes() {
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(3), eventful_lab());
    aorta
        .execute_sql(
            r#"CREATE AQ one AS
               SELECT photo(c.ip, s.loc, "photos")
               FROM sensor s, camera c
               WHERE s.accel_x > 500 AND s.id = 4 AND coverage(c.id, s.loc)"#,
        )
        .unwrap();
    aorta.run_for(SimDuration::from_mins(2));
    aorta.run_for(SimDuration::from_secs(30));

    let mote_loc = aorta
        .registry()
        .get(DeviceId::sensor(4))
        .unwrap()
        .sim
        .location()
        .unwrap();
    let mut photos = 0;
    for i in 0..2 {
        let entry = aorta
            .registry()
            .get(DeviceId::new(DeviceKind::Camera, i))
            .unwrap();
        let cam = entry.sim.as_camera().unwrap();
        for photo in cam.photos() {
            photos += 1;
            assert_eq!(photo.outcome, PhotoOutcome::Ok);
            // The photo's head target equals the camera's aim at the mote.
            let expected = cam.spec().clamp(cam.aim_at(&mote_loc));
            assert!(
                (photo.target.pan - expected.pan).abs() < 1e-6,
                "photo aimed at {} but mote is at {}",
                photo.target,
                expected
            );
        }
    }
    assert!(photos >= 2, "two minutes of events should yield photos");
}

#[test]
fn device_leave_and_rejoin_is_handled() {
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(4), eventful_lab());
    ten_queries(&mut aorta);
    aorta.run_for(SimDuration::from_secs(90));
    let mid_stats = aorta.stats();
    assert!(mid_stats.executed > 0);

    // Camera 1 leaves the network; camera 0 still covers every mote.
    aorta.registry_mut().set_online(DeviceId::camera(1), false);
    aorta.run_for(SimDuration::from_mins(2));
    let one_cam = aorta.stats();
    assert!(
        one_cam.executed > mid_stats.executed,
        "the remaining camera keeps servicing requests"
    );

    // It rejoins; probes see it again.
    aorta.registry_mut().set_online(DeviceId::camera(1), true);
    aorta.run_for(SimDuration::from_mins(2));
    let back = aorta.stats();
    assert!(back.executed > one_cam.executed);
}

#[test]
fn shared_operator_spans_queries() {
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(5), eventful_lab());
    ten_queries(&mut aorta);
    aorta.run_for(SimDuration::from_mins(2));
    let op = aorta.shared_operator("photo").expect("photo is shared");
    assert_eq!(
        op.subscriber_count(),
        10,
        "all ten queries share one operator"
    );
    assert!(op.total_enqueued() >= 10);
}

#[test]
fn dropping_a_query_stops_its_requests() {
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(6), eventful_lab());
    aorta
        .execute_sql(
            r#"CREATE AQ short_lived AS
               SELECT photo(c.ip, s.loc, "p")
               FROM sensor s, camera c
               WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#,
        )
        .unwrap();
    aorta.run_for(SimDuration::from_mins(2));
    let before = aorta.stats().requests;
    assert!(before > 0);
    aorta.execute_sql("DROP AQ short_lived").unwrap();
    aorta.run_for(SimDuration::from_mins(3));
    assert_eq!(aorta.stats().requests, before, "no new requests after DROP");
}

#[test]
fn every_dispatch_probes_its_candidates() {
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(8), eventful_lab());
    ten_queries(&mut aorta);
    aorta.run_for(SimDuration::from_mins(3));
    let stats = aorta.stats();
    assert!(stats.executed > 0);
    assert!(stats.probes > 0, "candidates are probed before costing");
    assert!(stats.probe_timeouts <= stats.probes);
}
