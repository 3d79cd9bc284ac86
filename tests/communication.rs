//! Wire-level integration of the uniform data communication layer: the
//! basic communication methods (§3.3), per-device-type link asymmetries,
//! and the network-data-independence property — the engine sees identical
//! tuples regardless of which protocol carried them.

use aorta::net::{Channel, DeviceRegistry, Message, ScanOperator};
use aorta_data::Value;
use aorta_device::{DeviceKind, PervasiveLab};
use aorta_sim::{LinkModel, SimDuration, SimRng, SimTime};

#[test]
fn per_kind_links_have_the_expected_asymmetry() {
    let registry = DeviceRegistry::new();
    // The mote radio is slower and lossier than camera Ethernet; the cell
    // link has the highest base latency.
    let camera = registry.link(DeviceKind::Camera);
    let sensor = registry.link(DeviceKind::Sensor);
    let phone = registry.link(DeviceKind::Phone);
    assert!(sensor.loss_prob() > camera.loss_prob());
    assert!(phone.base_latency() > sensor.base_latency());
    assert!(sensor.base_latency() > camera.base_latency());
}

#[test]
fn connect_send_receive_close_over_every_kind() {
    let registry = DeviceRegistry::new();
    let mut rng = SimRng::seed(1);
    for kind in DeviceKind::ALL {
        let channel = Channel::new(registry.link(kind).clone());
        // Retry the handshake a few times; only per-message loss can fail it.
        let mut connected = false;
        for _ in 0..20 {
            if channel.connect(&mut rng).is_some() {
                connected = true;
                break;
            }
        }
        assert!(connected, "{kind}: connect never succeeded in 20 tries");
        channel.close(&mut rng);
    }
}

#[test]
fn bigger_payloads_cost_more_on_slow_links() {
    let registry = DeviceRegistry::new();
    let channel = Channel::new(registry.link(DeviceKind::Sensor).clone());
    let small = Message::ReadAttrs {
        names: vec!["temp".into()],
    };
    let big = Message::ReadAttrs {
        names: (0..40).map(|i| format!("attribute_number_{i}")).collect(),
    };
    // Compare expected serialization cost through wire_len (the link charges
    // per byte at the MICA2 radio's ~4.8 kB/s).
    assert!(big.wire_len() > small.wire_len() * 10);
    let mut rng = SimRng::seed(2);
    let mut small_sum = SimDuration::ZERO;
    let mut big_sum = SimDuration::ZERO;
    let mut pairs = 0;
    for _ in 0..200 {
        if let (Some(a), Some(b)) = (channel.send(&small, &mut rng), channel.send(&big, &mut rng)) {
            small_sum += a;
            big_sum += b;
            pairs += 1;
        }
    }
    assert!(pairs > 100, "loss should be rare enough to sample");
    assert!(
        big_sum > small_sum + SimDuration::from_millis(10) * pairs,
        "per-byte cost must dominate: {small_sum} vs {big_sum}"
    );
}

#[test]
fn network_data_independence_across_protocols() {
    // The same logical view — one tuple per device, same schema discipline —
    // regardless of whether the wire is Ethernet, a mesh radio or a cell
    // link with wildly different parameters.
    let mut registry = DeviceRegistry::from_lab(PervasiveLab::standard());
    // Make every link ideal: the *content* must not change, only timing.
    for kind in DeviceKind::ALL {
        registry.set_link(kind, LinkModel::ideal());
    }
    let mut rng = SimRng::seed(3);
    for kind in [DeviceKind::Camera, DeviceKind::Sensor, DeviceKind::Phone] {
        let tuples = ScanOperator::new(kind).run(&mut registry, SimTime::ZERO, &mut rng);
        let schema = registry.schema(kind).clone();
        for t in &tuples {
            assert_eq!(schema.check(t), Ok(()), "{kind}");
            // The id attribute is always first and non-null.
            assert!(matches!(t.get(0), Some(Value::Int(_))), "{kind}");
        }
    }
}

#[test]
fn devices_joining_mid_run_become_eligible_for_selection() {
    use aorta::{Aorta, EngineConfig};
    use aorta_data::Location;
    use aorta_device::{Camera, CameraFailureModel, CameraSpec, Mote, SpikeModel};

    // Start with a single, distant camera and a mote spiking once a minute.
    let mut registry = DeviceRegistry::new();
    registry.register(
        Camera::new(
            0,
            CameraSpec::axis_2130(),
            Location::new(1.0, 1.0, 3.0),
            90.0,
            CameraFailureModel::reliable(),
        )
        .into(),
        SimTime::ZERO,
    );
    registry.register(
        Mote::new(0, Location::new(8.0, 5.0, 1.0), 1)
            .with_per_hop_loss(0.0)
            .with_spikes(SpikeModel::Periodic {
                period: SimDuration::from_mins(1),
                offset: SimDuration::from_secs(5),
                width: SimDuration::from_secs(8),
            })
            .into(),
        SimTime::ZERO,
    );
    let mut aorta = Aorta::with_registry(EngineConfig::seeded(41), registry);
    aorta
        .execute_sql(
            r#"CREATE AQ q AS
               SELECT photo(c.ip, s.loc, "p")
               FROM sensor s, camera c
               WHERE s.accel_x > 500"#,
        )
        .unwrap();
    aorta.run_for(SimDuration::from_mins(3));
    assert!(
        aorta.trace().any("dispatch", "assigned to camera-0"),
        "the founding camera should be serving requests before the join"
    );
    assert!(
        !aorta.trace().any("dispatch", "camera-1"),
        "camera-1 does not exist yet"
    );

    // A new camera joins mid-run while the founding one goes dark: device
    // selection must pick the newcomer up on the very next sampling scans
    // rather than serving from a membership snapshot taken at engine start.
    let now = aorta.now();
    aorta.registry_mut().register(
        Camera::new(
            1,
            CameraSpec::axis_2130(),
            Location::new(8.0, 4.5, 3.0),
            90.0,
            CameraFailureModel::reliable(),
        )
        .into(),
        now,
    );
    aorta
        .registry_mut()
        .set_online(aorta_device::DeviceId::camera(0), false);
    let before = aorta.stats();
    aorta.run_for(SimDuration::from_mins(3));
    let after = aorta.stats();
    assert!(
        aorta.trace().any("dispatch", "assigned to camera-1"),
        "the newcomer is the only live camera and must win assignments \
         once registered:\n{}",
        aorta.trace().render()
    );
    assert!(
        after.executed > before.executed,
        "requests after the join must actually execute: {after:?}"
    );
    assert_eq!(
        after.no_candidate, before.no_candidate,
        "no event should go unserved while the newcomer is online"
    );
}

#[test]
fn probe_messages_round_trip_device_status() {
    use aorta::net::endpoint;
    use aorta_device::{PhysicalStatus, PtzPosition};

    // The probe reply crosses the wire as flat floats and reconstructs.
    let status = PhysicalStatus::CameraHead(PtzPosition::new(-33.0, 5.0, 0.75));
    let reply = endpoint::probe_reply(&status);
    let bytes = reply.encode();
    let decoded = Message::decode(&bytes).expect("probe replies decode");
    let Message::ProbeReply { fields } = decoded else {
        panic!("expected a probe reply");
    };
    let back = endpoint::camera_status_from_fields(&fields).expect("3 fields");
    assert_eq!(back, status);
}
