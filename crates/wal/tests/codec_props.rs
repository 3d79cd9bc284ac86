//! Property tests for the WAL frame codec (satellite of the durability
//! work): every record round-trips exactly, and damage — a flipped byte
//! anywhere in the frame, or a truncated tail — surfaces as an explicit
//! [`WalError`], never as a silently shorter or different log.

use aorta_data::{Location, Tuple, Value};
use aorta_device::{DeviceId, DeviceKind};
use aorta_sim::{FaultEvent, SimTime};
use aorta_wal::{
    decode_frame, encode_frame, FileStore, LogStore, WalError, WalRecord, WireRequest,
    FRAME_HEADER_LEN,
};
use proptest::prelude::*;

fn arb_time() -> impl Strategy<Value = SimTime> {
    (0u64..=u64::MAX / 2).prop_map(SimTime::from_micros)
}

fn arb_kind() -> impl Strategy<Value = DeviceKind> {
    prop_oneof![
        Just(DeviceKind::Camera),
        Just(DeviceKind::Sensor),
        Just(DeviceKind::Phone),
        Just(DeviceKind::Rfid),
    ]
}

fn arb_device() -> impl Strategy<Value = DeviceId> {
    (arb_kind(), 0u32..10_000).prop_map(|(k, i)| DeviceId::new(k, i))
}

// Floats are restricted to non-NaN so `PartialEq` equality is meaningful;
// the codec itself carries raw bits, so the restriction loses no coverage.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        ".{0,24}".prop_map(Value::Str),
        (-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6)
            .prop_map(|(x, y, z)| Value::Location(Location { x, y, z })),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (
        proptest::collection::vec(arb_value(), 0..5),
        proptest::collection::vec(any::<u32>(), 0..3),
    )
        .prop_map(|(values, tags)| {
            let mut t = Tuple::new(values);
            for tag in tags {
                t.add_tag(tag);
            }
            t
        })
}

fn arb_fault() -> impl Strategy<Value = FaultEvent<DeviceId>> {
    prop_oneof![
        arb_device().prop_map(FaultEvent::Crash),
        arb_device().prop_map(FaultEvent::Recover),
        arb_device().prop_map(FaultEvent::ProcessCrash),
        (0.0f64..1.0).prop_map(|extra_loss| FaultEvent::LossBurstStart { extra_loss }),
        Just(FaultEvent::LossBurstEnd),
        (1.0f64..20.0).prop_map(|factor| FaultEvent::LatencySpikeStart { factor }),
        Just(FaultEvent::LatencySpikeEnd),
    ]
}

fn arb_request() -> impl Strategy<Value = WireRequest> {
    (
        (
            any::<u32>(),
            "[a-z]{1,10}",
            arb_tuple(),
            "[a-z]{1,4}",
            arb_kind(),
            proptest::option::of(("[a-z]{1,4}", arb_kind())),
        ),
        (
            proptest::collection::vec("[a-z0-9.]{0,16}", 0..4),
            proptest::collection::vec((arb_device(), arb_tuple()), 0..4),
            arb_time(),
            arb_time(),
            any::<bool>(),
            (0u32..10, 0u32..10),
        ),
    )
        .prop_map(
            |(
                (query_id, action, event_tuple, event_binding, event_kind, device_binding),
                (args, candidates, created_at, deadline, degraded, (attempts, hops)),
            )| WireRequest {
                query_id,
                action,
                event_tuple,
                event_binding,
                event_kind,
                device_binding,
                args,
                candidates,
                created_at,
                deadline,
                degraded,
                attempts,
                hops,
            },
        )
}

fn arb_stage() -> impl Strategy<Value = WalRecord> {
    use aorta_wal::LifecycleStage as L;
    let stages = [
        L::Admitted,
        L::Degraded,
        L::Shed,
        L::Dispatched,
        L::Executing,
        L::Completed,
        L::Failed,
        L::Expired,
        L::NoCandidate,
        L::TimedOut,
        L::Escalated,
        L::Orphaned,
        L::Retried,
    ];
    (any::<u32>(), 0usize..stages.len(), arb_time()).prop_map(move |(query_id, i, at)| {
        WalRecord::Lifecycle {
            query_id,
            stage: stages[i],
            at,
        }
    })
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        any::<u64>().prop_map(|fingerprint| WalRecord::Genesis { fingerprint }),
        ".{0,80}".prop_map(|sql| WalRecord::SqlExec { sql }),
        proptest::collection::vec((arb_time(), arb_fault()), 0..6)
            .prop_map(|events| WalRecord::FaultsInjected { events }),
        arb_time().prop_map(|deadline| WalRecord::RunUntil { deadline }),
        arb_request().prop_map(|request| WalRecord::RequestInjected { request }),
        arb_request().prop_map(|request| WalRecord::RouteProbe { request }),
        Just(WalRecord::DrainEscalated),
        arb_device().prop_map(|device| WalRecord::MigrateOut { device }),
        arb_device().prop_map(|device| WalRecord::MigrateIn { device }),
        (any::<u32>(), "[a-z]{1,12}")
            .prop_map(|(query_id, name)| WalRecord::AqRegistered { query_id, name }),
        (any::<u32>(), "[a-z]{1,12}")
            .prop_map(|(query_id, name)| WalRecord::AqDropped { query_id, name }),
        (any::<u32>(), any::<i64>())
            .prop_map(|(query_id, source)| WalRecord::EdgeCommit { query_id, source }),
        arb_stage(),
        (arb_device(), 0u8..3, arb_time()).prop_map(|(device, state, at)| WalRecord::Breaker {
            device,
            state,
            at
        }),
        arb_time().prop_map(|at| WalRecord::CrashApplied { at }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every record round-trips exactly through one frame: same record,
    /// same LSN, cursor advanced to the frame's end.
    #[test]
    fn prop_frame_roundtrip(record in arb_record(), lsn in any::<u64>()) {
        let frame = encode_frame(&record, lsn);
        let mut off = 0;
        let (got_lsn, got) = decode_frame(&frame, &mut off)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(got_lsn, lsn);
        prop_assert_eq!(got, record);
        prop_assert_eq!(off, frame.len());
    }

    /// Flipping any single byte anywhere in the frame — magic, length, LSN,
    /// checksum, or payload — is detected. A decode after damage never
    /// succeeds, and in particular never yields a *different* record.
    #[test]
    fn prop_any_byte_flip_is_detected(
        record in arb_record(),
        lsn in any::<u64>(),
        pos in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut frame = encode_frame(&record, lsn);
        let pos = (pos % frame.len() as u64) as usize;
        frame[pos] ^= flip;
        let mut off = 0;
        let result = decode_frame(&frame, &mut off);
        prop_assert!(result.is_err(), "corruption at byte {pos} went undetected");
        prop_assert_eq!(off, 0, "cursor must not advance past damage");
    }

    /// Every strict prefix of a frame is a torn append — an explicit
    /// [`WalError::TornFrame`], never a silently shorter log.
    #[test]
    fn prop_truncation_is_torn_never_silent(
        record in arb_record(),
        lsn in any::<u64>(),
        keep in any::<u64>(),
    ) {
        let frame = encode_frame(&record, lsn);
        let keep = (keep % frame.len() as u64) as usize; // always a strict prefix
        let mut off = 0;
        let result = decode_frame(&frame[..keep], &mut off);
        prop_assert!(
            matches!(result, Err(WalError::TornFrame { .. })),
            "truncation to {keep}/{} bytes gave {result:?}",
            frame.len()
        );
    }

    /// Back-to-back frames decode independently: damage confined to the
    /// second frame still leaves the first fully readable.
    #[test]
    fn prop_damage_is_localized(a in arb_record(), b in arb_record()) {
        let mut buf = encode_frame(&a, 0);
        let first_len = buf.len();
        buf.extend_from_slice(&encode_frame(&b, 1));
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let mut off = 0;
        let (lsn, got) = decode_frame(&buf, &mut off).expect("first frame intact");
        prop_assert_eq!(lsn, 0);
        prop_assert_eq!(got, a);
        prop_assert_eq!(off, first_len);
        prop_assert!(decode_frame(&buf, &mut off).is_err());
    }
}

/// A torn tail on disk (the classic crash-during-append) surfaces when the
/// file is reopened — the intact prefix is not silently accepted.
#[test]
fn file_store_reports_torn_tail_on_reopen() {
    let path = std::env::temp_dir().join(format!("aorta-wal-torn-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut store = FileStore::create(&path).unwrap();
        store
            .append(encode_frame(&WalRecord::DrainEscalated, 0))
            .unwrap();
        store
            .append(encode_frame(
                &WalRecord::RunUntil {
                    deadline: SimTime::from_micros(5),
                },
                1,
            ))
            .unwrap();
    }
    // Cut the file mid-way through the second frame.
    let bytes = std::fs::read(&path).unwrap();
    let first = encode_frame(&WalRecord::DrainEscalated, 0).len();
    std::fs::write(&path, &bytes[..first + FRAME_HEADER_LEN / 2]).unwrap();

    let result = FileStore::open(&path).and_then(|mut s| s.read_all());
    assert!(
        matches!(result, Err(WalError::TornFrame { .. })),
        "torn tail must be loud: {result:?}"
    );
    let _ = std::fs::remove_file(&path);
}
