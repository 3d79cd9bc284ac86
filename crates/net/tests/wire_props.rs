//! Wire-format properties: encode∘decode is the identity on arbitrary
//! messages, and decode never panics on arbitrary bytes. Plus properties of
//! the single-attempt prober: a probe takes at most one TIMEOUT, and the
//! four failure counters partition the failed probes.

use proptest::prelude::*;

use aorta_data::{Location, Value};
use aorta_device::{DeviceId, DeviceKind, PervasiveLab, PhotoSize, PtzPosition};
use aorta_net::{DeviceRegistry, Message, ProbeOutcome, Prober};
use aorta_sim::{LinkModel, SimDuration, SimRng, SimTime};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks PartialEq-based round-trip checks.
        (-1e12..1e12f64).prop_map(Value::Float),
        ".{0,24}".prop_map(Value::Str),
        (-1e6..1e6f64, -1e6..1e6f64, -1e3..1e3f64)
            .prop_map(|(x, y, z)| Value::Location(Location::new(x, y, z))),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::Connect),
        Just(Message::ConnectAck),
        Just(Message::Probe),
        proptest::collection::vec(-1e9..1e9f64, 0..6)
            .prop_map(|fields| Message::ProbeReply { fields }),
        proptest::collection::vec("[a-z_]{1,12}", 0..6)
            .prop_map(|names| Message::ReadAttrs { names }),
        proptest::collection::vec(arb_value(), 0..6)
            .prop_map(|values| Message::AttrReply { values }),
        (
            -170.0..170.0f64,
            -90.0..10.0f64,
            0.0..1.0f64,
            prop_oneof![
                Just(PhotoSize::Small),
                Just(PhotoSize::Medium),
                Just(PhotoSize::Large)
            ],
        )
            .prop_map(|(pan, tilt, zoom, size)| Message::Photo {
                target: PtzPosition::new(pan, tilt, zoom),
                size,
            }),
        any::<u64>().prop_map(|duration_us| Message::PhotoAck { duration_us }),
        (any::<bool>(), ".{0,40}").prop_map(|(mms, body)| Message::SendMessage { mms, body }),
        Just(Message::MessageAck),
        Just(Message::Close),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_encode_decode_identity(msg in arb_message()) {
        let bytes = msg.encode();
        prop_assert_eq!(msg.wire_len(), bytes.len());
        let back = Message::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    /// Truncating a valid encoding yields an error (never panics, never a
    /// silent partial decode that equals the original).
    #[test]
    fn prop_truncation_detected(msg in arb_message(), cut_frac in 0.0..1.0f64) {
        let bytes = msg.encode();
        if bytes.len() > 1 {
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            let cut = cut.clamp(0, bytes.len() - 1);
            let truncated = &bytes[..cut];
            match Message::decode(truncated) {
                Err(_) => {} // expected
                Ok(partial) => prop_assert_ne!(partial, msg, "truncated decode equal?!"),
            }
        }
    }
}

// --- probe properties ---------------------------------------------------------

/// A registry with reliable cameras over a deterministic wire; `loss` is the
/// per-message loss on the camera link.
fn camera_registry(loss: f64) -> DeviceRegistry {
    let mut reg = DeviceRegistry::from_lab(PervasiveLab::standard().with_reliable_cameras());
    reg.set_link(
        DeviceKind::Camera,
        LinkModel::new(SimDuration::ZERO, SimDuration::ZERO, loss),
    );
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A probe consumes at most one TIMEOUT of virtual time, and exactly
    /// one when it fails.
    #[test]
    fn prop_total_probe_time_bounded(loss in 0.0..=1.0f64, seed in 1u64..10_000) {
        let mut reg = camera_registry(loss);
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(seed);
        let (out, elapsed) =
            prober.probe_timed(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng);
        let timeout = reg.probe_timeout(DeviceKind::Camera);
        prop_assert!(elapsed <= timeout, "elapsed {elapsed} exceeds TIMEOUT {timeout}");
        if out == ProbeOutcome::TimedOut {
            prop_assert_eq!(elapsed, timeout);
        }
    }

    /// Probe accounting across a batch: every probe is sent once,
    /// `timeouts` counts exactly the probes that returned TimedOut, and the
    /// four failure counters partition them.
    #[test]
    fn prop_attempt_accounting(
        loss in 0.0..0.9f64,
        seed in 1u64..10_000,
        n in 1u64..40,
    ) {
        let mut reg = camera_registry(loss);
        let mut prober = Prober::new();
        let mut rng = SimRng::seed(seed);
        let mut available = 0u64;
        for _ in 0..n {
            if prober
                .probe(&mut reg, DeviceId::camera(0), SimTime::ZERO, &mut rng)
                .is_available()
            {
                available += 1;
            }
        }
        prop_assert_eq!(prober.probes_sent(), n);
        prop_assert_eq!(prober.timeouts(), n - available);
        let classified = prober.offline_failures()
            + prober.unreachable_failures()
            + prober.wire_lost()
            + prober.slow_replies();
        prop_assert_eq!(classified, prober.timeouts());
    }
}
