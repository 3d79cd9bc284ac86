//! Behavioural tests of the continuous executor: event edge detection,
//! request deadlines, dispatch policies and latency accounting.

use aorta_core::{Aorta, DispatchPolicy, EngineConfig};
use aorta_data::Location;
use aorta_device::{Camera, CameraFailureModel, CameraSpec, Mote, PervasiveLab, SpikeModel};
use aorta_net::DeviceRegistry;
use aorta_sim::{SimDuration, SimTime};

const SNAPSHOT_ALL: &str = r#"CREATE AQ q AS
    SELECT photo(c.ip, s.loc, "p")
    FROM sensor s, camera c
    WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#;

/// A spike lasting several sampling epochs fires exactly one request —
/// detection is edge-triggered, not level-triggered.
#[test]
fn one_physical_event_fires_one_request() {
    let mut registry = DeviceRegistry::new();
    registry.register(
        Camera::new(
            0,
            CameraSpec::axis_2130(),
            Location::new(4.0, 3.0, 3.0),
            90.0,
            CameraFailureModel::reliable(),
        )
        .into(),
        SimTime::ZERO,
    );
    registry.register(
        Mote::new(0, Location::new(5.0, 4.0, 1.0), 1)
            .with_per_hop_loss(0.0)
            .with_spikes(SpikeModel::Periodic {
                period: SimDuration::from_mins(10),
                offset: SimDuration::from_secs(5),
                // Spike spans ~8 sampling epochs.
                width: SimDuration::from_secs(8),
            })
            .into(),
        SimTime::ZERO,
    );
    let mut aorta = Aorta::with_registry(EngineConfig::seeded(1), registry);
    aorta.execute_sql(SNAPSHOT_ALL).unwrap();
    aorta.run_for(SimDuration::from_mins(2));
    let stats = aorta.stats();
    assert_eq!(stats.events_detected, 1, "{stats:?}");
    assert_eq!(stats.requests, 1, "{stats:?}");
}

/// Requests that cannot start within the request timeout fail rather than
/// queueing forever (events are transient).
#[test]
fn stale_requests_time_out() {
    // One camera and a burst of a hundred simultaneous events: the camera works
    // through the queue a photo at a time, and the photos whose turn comes
    // more than 30 s after their event time out.
    const MOTES: u32 = 100;
    let mut registry = DeviceRegistry::new();
    registry.register(
        Camera::new(
            0,
            CameraSpec::axis_2130(),
            Location::new(4.0, 3.0, 3.0),
            90.0,
            CameraFailureModel::reliable(),
        )
        .into(),
        SimTime::ZERO,
    );
    for i in 0..MOTES {
        let at = Location::new(3.0 + 0.1 * f64::from(i % 20), 4.0 + f64::from(i / 20), 1.0);
        registry.register(
            Mote::new(i, at, 1)
                .with_per_hop_loss(0.0)
                .with_spikes(SpikeModel::Periodic {
                    period: SimDuration::from_mins(10),
                    offset: SimDuration::ZERO,
                    width: SimDuration::from_secs(2),
                })
                .into(),
            SimTime::ZERO,
        );
    }
    let mut aorta = Aorta::with_registry(EngineConfig::seeded(2), registry);
    aorta.execute_sql(SNAPSHOT_ALL).unwrap();
    aorta.run_for(SimDuration::from_mins(2));
    let stats = aorta.stats();
    assert_eq!(stats.requests, u64::from(MOTES), "{stats:?}");
    assert!(stats.timed_out >= 5, "{stats:?}");
    assert!(stats.executed >= 1, "{stats:?}");
    assert_eq!(
        stats.executed + stats.timed_out + stats.connect_failures,
        u64::from(MOTES),
        "{stats:?}"
    );
}

/// Scheduled dispatch (LERFA + SRFE) achieves lower event-to-completion
/// latency than independent min-cost dispatch on bursty workloads.
#[test]
fn scheduled_dispatch_lowers_latency() {
    let run = |policy: DispatchPolicy| {
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO)
            .with_reliable_cameras();
        let mut aorta = Aorta::with_lab(EngineConfig::seeded(3).with_dispatch(policy), lab);
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
        aorta.run_for(SimDuration::from_mins(10));
        aorta.run_for(SimDuration::from_secs(30));
        aorta.stats()
    };
    let scheduled = run(DispatchPolicy::Scheduled);
    let min_cost = run(DispatchPolicy::MinCost);
    let sched_latency = scheduled.mean_action_latency.expect("executed requests");
    let mc_latency = min_cost.mean_action_latency.expect("executed requests");
    assert!(
        sched_latency < mc_latency,
        "scheduled {sched_latency} should beat min-cost {mc_latency}"
    );
    // Both completed everything (reliable cameras, generous timeout).
    assert_eq!(scheduled.executed, scheduled.requests, "{scheduled:?}");
    assert_eq!(min_cost.executed, min_cost.requests, "{min_cost:?}");
}

/// Latency accounting is plausible: mean latency at least the minimum photo
/// time and bounded by the request timeout plus the longest action.
#[test]
fn latency_accounting_bounds() {
    let lab = PervasiveLab::standard()
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO)
        .with_reliable_cameras();
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(4), lab);
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
    aorta.run_for(SimDuration::from_secs(40));
    let stats = aorta.stats();
    let latency = stats.mean_action_latency.expect("requests executed");
    assert!(latency >= SimDuration::from_millis(360), "{latency}");
    assert!(
        latency <= SimDuration::from_secs(36),
        "latency {latency} exceeds timeout + max action"
    );
}

/// A lock conflict surfaces in the stats when two queries contend for one
/// device across sampling epochs.
#[test]
fn stats_expose_locking_activity() {
    let lab = PervasiveLab::with_sizes(1, 10, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO)
        .with_reliable_cameras();
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(5), lab);
    aorta.execute_sql(SNAPSHOT_ALL).unwrap();
    aorta.run_for(SimDuration::from_mins(3));
    let stats = aorta.stats();
    assert!(stats.lock_acquisitions > 0, "{stats:?}");
    assert_eq!(stats.photos_blurred + stats.photos_wrong, 0, "{stats:?}");
}

/// The execution trace records why things happened: events, dispatch
/// decisions, probe exclusions.
#[test]
fn trace_records_the_execution_story() {
    let lab =
        PervasiveLab::standard().with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(9), lab);
    aorta.execute_sql(SNAPSHOT_ALL).unwrap();
    // Camera 1 stays registered (so it remains a candidate) but never
    // answers connections: probing must exclude it, visibly.
    let flaky = Camera::new(
        1,
        CameraSpec::axis_2130(),
        Location::new(6.0, 3.0, 3.0),
        90.0,
        CameraFailureModel {
            connect_loss: 1.0,
            ..CameraFailureModel::reliable()
        },
    );
    aorta.registry_mut().register(flaky.into(), SimTime::ZERO);
    aorta.run_for(SimDuration::from_mins(2));
    let trace = aorta.trace();
    assert!(trace.count("event") > 0, "events traced");
    assert!(trace.count("dispatch") > 0, "dispatch traced");
    assert!(
        trace.any("probe", "camera-1 unavailable"),
        "offline camera's probe exclusion traced"
    );
    assert!(trace.any("dispatch", "assigned to camera-0"));
}

/// Tracing can be disabled for benchmark runs.
#[test]
fn trace_can_be_disabled() {
    let lab =
        PervasiveLab::standard().with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(10), lab);
    aorta.disable_trace();
    aorta.execute_sql(SNAPSHOT_ALL).unwrap();
    aorta.run_for(SimDuration::from_mins(2));
    assert!(aorta.trace().is_empty());
    assert!(aorta.stats().requests > 0, "engine still works untraced");
}

/// The dumped catalog script recreates the same plans on a fresh engine.
#[test]
fn dump_queries_restores_the_catalog() {
    let lab = PervasiveLab::standard();
    let mut original = Aorta::with_lab(EngineConfig::seeded(13), lab.clone());
    original.execute_sql(SNAPSHOT_ALL).unwrap();
    original
        .execute_sql(
            r#"CREATE AQ notify AS
               SELECT sendphoto(p.number, "photos/x.jpg")
               FROM sensor s, phone p
               WHERE s.accel_x > 500 AND p.in_coverage = TRUE"#,
        )
        .unwrap();
    let script = original.dump_queries();
    assert!(script.contains("CREATE AQ q AS"), "{script}");
    assert!(script.contains("CREATE AQ notify AS"), "{script}");

    let mut restored = Aorta::with_lab(EngineConfig::seeded(13), lab);
    restored.execute_sql(&script).unwrap();
    assert_eq!(restored.catalog().query_count(), 2);
    // Same structure: event/device bindings and conjunct counts agree.
    for name in ["q", "notify"] {
        let a = original.catalog().query(name).unwrap();
        let b = restored.catalog().query(name).unwrap();
        assert_eq!(a.event_binding, b.event_binding, "{name}");
        assert_eq!(a.event_conjuncts, b.event_conjuncts, "{name}");
        assert_eq!(a.device, b.device, "{name}");
        assert_eq!(a.actions, b.actions, "{name}");
    }
}

/// Engine state is transferable across threads (the paper's engine serves
/// many applications; embedding it behind a work queue must be possible).
#[test]
fn engine_and_devices_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Aorta>();
    assert_send::<DeviceRegistry>();
    assert_send::<Camera>();
    assert_send::<aorta_core::EngineStats>();
    assert_send::<aorta_sched::Instance>();
}

/// Lossy sensor radios degrade event detection gracefully: NULL readings
/// never fire predicates and never crash evaluation.
#[test]
fn lossy_radios_suppress_rather_than_corrupt_events() {
    let mut registry = DeviceRegistry::new();
    registry.register(
        Camera::new(
            0,
            CameraSpec::axis_2130(),
            Location::new(4.0, 3.0, 3.0),
            90.0,
            CameraFailureModel::reliable(),
        )
        .into(),
        SimTime::ZERO,
    );
    // A mote that is always spiking, but whose 5-hop radio at 40% loss per
    // hop almost never delivers a reading.
    registry.register(
        Mote::new(0, Location::new(5.0, 4.0, 1.0), 5)
            .with_per_hop_loss(0.4)
            .with_spikes(SpikeModel::Periodic {
                period: SimDuration::from_secs(10),
                offset: SimDuration::ZERO,
                width: SimDuration::from_secs(10),
            })
            .into(),
        SimTime::ZERO,
    );
    let mut aorta = Aorta::with_registry(EngineConfig::seeded(14), registry);
    aorta.execute_sql(SNAPSHOT_ALL).unwrap();
    aorta.run_for(SimDuration::from_mins(3));
    let stats = aorta.stats();
    // Acquisition succeeds occasionally (retries help), but many sampling
    // epochs observe only NULLs: far fewer events than epochs.
    assert!(stats.events_detected < 60, "{stats:?}");
    // When readings do get through, the pipeline works.
    assert!(stats.events_detected >= 1, "{stats:?}");
    assert_eq!(stats.action_errors, 0, "{stats:?}");
}
