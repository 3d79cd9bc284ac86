//! Device-side request handlers — the per-type "communication modules".
//!
//! Each function services one wire [`Message`] against a simulated device
//! and produces the reply the channel carries back. The scan operator, the
//! prober and the engine's action operators all go through these, so every
//! interaction crosses the same (lossy, latency-charged) path a real
//! deployment would.

use aorta_data::Value;
use aorta_device::{Mote, MoteReading, Phone, PhysicalStatus};
use aorta_sim::{SimRng, SimTime};

use crate::Message;

/// Services a `ReadAttrs` request on a mote, sampling its sensors.
///
/// Unknown attribute names yield `Value::Null` (the engine surfaces them as
/// SQL NULLs rather than failing the whole scan).
pub fn mote_read_attrs(mote: &Mote, names: &[String], now: SimTime, rng: &mut SimRng) -> Message {
    let reading = mote.sample(now, rng);
    Message::AttrReply {
        values: names.iter().map(|name| mote_attr(&reading, name)).collect(),
    }
}

/// One attribute of a mote's reading as a `ReadAttrs` reply carries it:
/// `Value::Null` for a name the sensor board does not have.
pub fn mote_attr(reading: &MoteReading, name: &str) -> Value {
    match name {
        "accel_x" => Value::Int(reading.accel_x),
        "accel_y" => Value::Int(reading.accel_y),
        "temp" => Value::Float(reading.temp),
        "light" => Value::Int(reading.light),
        "battery" => Value::Float(reading.battery_volts),
        _ => Value::Null,
    }
}

/// Services a `Probe` on any device status, flattening the status into the
/// wire format's numeric fields.
pub fn probe_reply(status: &PhysicalStatus) -> Message {
    let fields = match status {
        PhysicalStatus::CameraHead(p) => vec![p.pan, p.tilt, p.zoom],
        PhysicalStatus::SensorLink {
            depth,
            battery_volts,
        } => vec![f64::from(*depth), *battery_volts],
        PhysicalStatus::PhoneCoverage { in_coverage } => {
            vec![if *in_coverage { 1.0 } else { 0.0 }]
        }
        PhysicalStatus::RfidField { tags_in_range } => vec![f64::from(*tags_in_range)],
    };
    Message::ProbeReply { fields }
}

/// Reconstructs a camera status from probe-reply fields.
///
/// Returns `None` when the field count does not match.
pub fn camera_status_from_fields(fields: &[f64]) -> Option<PhysicalStatus> {
    match fields {
        [pan, tilt, zoom] => Some(PhysicalStatus::CameraHead(aorta_device::PtzPosition::new(
            *pan, *tilt, *zoom,
        ))),
        _ => None,
    }
}

/// Services a `SendMessage` on a phone.
///
/// Returns `MessageAck` on delivery, or `None` when the phone is out of
/// coverage (the caller times out).
pub fn phone_deliver(
    phone: &mut Phone,
    mms: bool,
    body: &str,
    now: SimTime,
    rng: &mut SimRng,
) -> Option<Message> {
    let kind = if mms {
        aorta_device::MessageKind::Mms
    } else {
        aorta_device::MessageKind::Sms
    };
    phone
        .deliver(now, kind, body, rng)
        .map(|_| Message::MessageAck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_data::Location;
    use aorta_device::{PtzPosition, SpikeModel};
    use aorta_sim::SimDuration;

    #[test]
    fn mote_answers_known_attrs_and_nulls_unknown() {
        let mote = Mote::new(0, Location::ORIGIN, 1);
        let mut rng = SimRng::seed(1);
        let names = vec!["accel_x".into(), "nope".into(), "battery".into()];
        let reply = mote_read_attrs(&mote, &names, SimTime::ZERO, &mut rng);
        match reply {
            Message::AttrReply { values } => {
                assert!(matches!(values[0], Value::Int(_)));
                assert_eq!(values[1], Value::Null);
                assert!(matches!(values[2], Value::Float(_)));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn spiking_mote_reports_high_accel_over_the_wire() {
        let mote = Mote::new(0, Location::ORIGIN, 1).with_spikes(SpikeModel::Periodic {
            period: SimDuration::from_mins(1),
            offset: SimDuration::ZERO,
            width: SimDuration::from_secs(2),
        });
        let mut rng = SimRng::seed(2);
        let reply = mote_read_attrs(&mote, &["accel_x".into()], SimTime::ZERO, &mut rng);
        match reply {
            Message::AttrReply { values } => {
                assert!(values[0].as_i64().unwrap() > 500);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn probe_reply_field_shapes() {
        let cam = PhysicalStatus::CameraHead(PtzPosition::new(10.0, -20.0, 0.5));
        match probe_reply(&cam) {
            Message::ProbeReply { fields } => {
                assert_eq!(fields, vec![10.0, -20.0, 0.5]);
                let back = camera_status_from_fields(&fields).unwrap();
                assert_eq!(
                    back.as_camera_head(),
                    Some(PtzPosition::new(10.0, -20.0, 0.5))
                );
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let sensor = PhysicalStatus::SensorLink {
            depth: 3,
            battery_volts: 2.8,
        };
        match probe_reply(&sensor) {
            Message::ProbeReply { fields } => assert_eq!(fields, vec![3.0, 2.8]),
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(camera_status_from_fields(&[1.0]).is_none());
    }

    #[test]
    fn phone_delivery_acks_or_times_out() {
        let mut phone = Phone::new(0, "x");
        let mut rng = SimRng::seed(3);
        let ack = phone_deliver(&mut phone, true, "photo.jpg", SimTime::ZERO, &mut rng);
        assert_eq!(ack, Some(Message::MessageAck));
        assert_eq!(phone.inbox().len(), 1);

        let mut off = Phone::new(1, "y").with_coverage(aorta_device::CoverageModel {
            p_drop: 1.0,
            p_regain: 0.0,
            epoch: SimDuration::from_secs(1),
        });
        let res = phone_deliver(
            &mut off,
            false,
            "hi",
            SimTime::ZERO + SimDuration::from_secs(5),
            &mut rng,
        );
        assert_eq!(res, None);
    }
}
