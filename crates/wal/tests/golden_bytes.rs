//! Golden bytes: the WAL frame layout and the snapshot image layout are
//! on-disk and on-the-wire formats, so a fixed record set must encode to
//! the same bytes in every revision. The set covers every record variant,
//! every fault event, every value tag, a tagged tuple, both arms of a
//! request's device binding and all thirteen lifecycle stages. A change
//! to any encoder that moves one byte moves the length or the FNV-1a
//! fingerprint pinned below.

use aorta_data::{Location, Tuple, Value};
use aorta_device::{DeviceId, DeviceKind};
use aorta_sim::{FaultEvent, SimDuration, SimTime};
use aorta_wal::{
    decode_frame, encode_frame, LifecycleStage, SnapshotImage, WalRecord, WireRequest,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn every_value() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(true),
        Value::Bool(false),
        Value::Int(-42),
        Value::Int(i64::MAX),
        Value::Float(-0.5),
        Value::Float(f64::from_bits(0x7FF8_0000_0000_0001)),
        Value::Str(String::new()),
        Value::Str("警报 — hall".into()),
        Value::Location(Location::new(1.5, -2.25, 3.0)),
    ]
}

fn request(device_binding: Option<(String, DeviceKind)>) -> WireRequest {
    WireRequest {
        query_id: 17,
        action: "photo".into(),
        event_tuple: Tuple::new(every_value()).tagged(3).tagged(9),
        event_binding: "s".into(),
        event_kind: DeviceKind::Sensor,
        device_binding,
        args: vec!["c.id".into(), String::new(), "'medium'".into()],
        candidates: vec![
            (
                DeviceId::new(DeviceKind::Camera, 2),
                Tuple::new(vec![Value::Int(2), Value::Float(0.75)]).tagged(17),
            ),
            (DeviceId::new(DeviceKind::Phone, 0), Tuple::empty()),
        ],
        created_at: SimTime::from_micros(1_000_001),
        deadline: SimTime::from_micros(31_000_001),
        degraded: true,
        attempts: 2,
        hops: 1,
    }
}

fn records() -> Vec<WalRecord> {
    let camera = DeviceId::new(DeviceKind::Camera, 7);
    let rfid = DeviceId::new(DeviceKind::Rfid, 70_000);
    let mut out = vec![
        WalRecord::Genesis {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        },
        WalRecord::SqlExec {
            sql: "CREATE AQ hot AS SELECT photo(c.id) FROM sensor s, camera c WHERE s.temp > 30"
                .into(),
        },
        WalRecord::FaultsInjected {
            events: vec![
                (SimTime::from_micros(10), FaultEvent::Crash(camera)),
                (SimTime::from_micros(20), FaultEvent::Recover(camera)),
                (
                    SimTime::from_micros(30),
                    FaultEvent::LossBurstStart { extra_loss: 0.25 },
                ),
                (SimTime::from_micros(40), FaultEvent::LossBurstEnd),
                (
                    SimTime::from_micros(50),
                    FaultEvent::LatencySpikeStart { factor: 8.0 },
                ),
                (SimTime::from_micros(60), FaultEvent::LatencySpikeEnd),
                (SimTime::from_micros(70), FaultEvent::ProcessCrash(rfid)),
                (
                    SimTime::from_micros(80),
                    FaultEvent::Partition {
                        a: 1,
                        b: 3,
                        window: SimDuration::from_secs(20),
                    },
                ),
            ],
        },
        WalRecord::RunUntil {
            deadline: SimTime::from_micros(5_000_000),
        },
        WalRecord::RequestInjected {
            request: request(Some(("c".into(), DeviceKind::Camera))),
        },
        WalRecord::RouteProbe {
            request: request(None),
        },
        WalRecord::DrainEscalated,
        WalRecord::MigrateOut { device: camera },
        WalRecord::MigrateIn { device: rfid },
        WalRecord::AqRegistered {
            query_id: 4,
            name: "hot".into(),
        },
        WalRecord::AqDropped {
            query_id: 4,
            name: "hot".into(),
        },
        WalRecord::EdgeCommit {
            query_id: 4,
            source: -9,
        },
        WalRecord::Breaker {
            device: DeviceId::new(DeviceKind::Sensor, 12),
            state: 2,
            at: SimTime::from_micros(77),
        },
        WalRecord::CrashApplied {
            at: SimTime::from_micros(88),
        },
    ];
    let stages = [
        LifecycleStage::Admitted,
        LifecycleStage::Degraded,
        LifecycleStage::Shed,
        LifecycleStage::Dispatched,
        LifecycleStage::Executing,
        LifecycleStage::Completed,
        LifecycleStage::Failed,
        LifecycleStage::Expired,
        LifecycleStage::NoCandidate,
        LifecycleStage::TimedOut,
        LifecycleStage::Escalated,
        LifecycleStage::Orphaned,
        LifecycleStage::Retried,
    ];
    out.extend(
        stages
            .into_iter()
            .enumerate()
            .map(|(i, stage)| WalRecord::Lifecycle {
                query_id: i as u32,
                stage,
                at: SimTime::from_micros(1_000 * i as u64),
            }),
    );
    out
}

#[test]
fn frames_keep_their_golden_bytes() {
    let records = records();
    let log: Vec<u8> = records
        .iter()
        .enumerate()
        .flat_map(|(lsn, r)| encode_frame(r, lsn as u64))
        .collect();
    let mut off = 0;
    for (lsn, r) in records.iter().enumerate() {
        let (got_lsn, got) = decode_frame(&log, &mut off).expect("golden frame decodes");
        assert_eq!(got_lsn, lsn as u64);
        // NaN payloads compare unequal; compare through the debug form.
        assert_eq!(format!("{got:?}"), format!("{r:?}"));
    }
    assert_eq!(off, log.len());
    assert_eq!(
        (log.len(), format!("{:016x}", fnv1a(&log))),
        (1600, "e7180d461f71232f".to_string())
    );
}

#[test]
fn image_keeps_its_golden_bytes() {
    let mut prefix = records();
    let suffix = prefix.split_off(9);
    let image = SnapshotImage {
        shard: 3,
        epoch: 5,
        fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        prefix,
        suffix,
    };
    let bytes = image.encode();
    let back = SnapshotImage::decode(&bytes).expect("golden image decodes");
    assert_eq!(format!("{back:?}"), format!("{image:?}"));
    assert_eq!(
        (bytes.len(), format!("{:016x}", fnv1a(&bytes))),
        (1652, "d2b587d8ab295b17".to_string())
    );
}
