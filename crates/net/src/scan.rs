//! Scan operators over virtual device tables (§3.2).
//!
//! "The communication layer abstracts each type of devices into a virtual
//! relational table … Each tuple of a virtual device table is from a
//! specific device of the corresponding type; it is generated on-the-fly
//! when requested by the query engine." Sensory attributes are acquired
//! over the wire (lossy — failed acquisitions surface as NULLs after
//! retries); non-sensory attributes come from registry metadata.

use aorta_data::codec::value_len;
use aorta_data::{AttrKind, Schema, Tuple, Value};
use aorta_device::{DeviceId, DeviceKind, MoteReading, PtzPosition};
use aorta_sim::{SimRng, SimTime};

use crate::channel::Channel;
use crate::endpoint;
use crate::{DeviceRegistry, DeviceSim, Message};

/// How many times a sensory acquisition is retried before yielding NULL.
const ACQUIRE_RETRIES: u32 = 2;

/// A scan operator for one device kind's virtual table.
///
/// # Example
///
/// ```
/// use aorta_net::{DeviceRegistry, ScanOperator};
/// use aorta_device::{DeviceKind, PervasiveLab};
/// use aorta_sim::{SimRng, SimTime};
///
/// let mut registry = DeviceRegistry::from_lab(PervasiveLab::standard());
/// let scan = ScanOperator::new(DeviceKind::Camera);
/// let mut rng = SimRng::seed(1);
/// let tuples = scan.run(&mut registry, SimTime::ZERO, &mut rng);
/// assert_eq!(tuples.len(), 2);
/// // camera(id, ip, loc, pan, tilt, zoom)
/// assert_eq!(tuples[0].len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct ScanOperator {
    kind: DeviceKind,
}

impl ScanOperator {
    /// A scan over the given kind's table.
    pub fn new(kind: DeviceKind) -> Self {
        ScanOperator { kind }
    }

    /// The device kind scanned.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Produces one tuple per online device of the kind, in ID order.
    pub fn run(&self, registry: &mut DeviceRegistry, now: SimTime, rng: &mut SimRng) -> Vec<Tuple> {
        let kind = KindScan::new(registry, self.kind);
        let ids: Vec<DeviceId> = registry.ids_of_kind(self.kind);
        ids.into_iter()
            .filter_map(|id| kind.scan_device(registry, id, now, rng))
            .collect()
    }

    /// The wire cost, in bytes, of shipping one scanned tuple's sensory
    /// payload from its device: the [`Message::AttrReply`] the scan
    /// exchange carries. Non-sensory attributes come from registry
    /// metadata and never travel, so they are excluded. Used by the
    /// engine's pushdown accounting to compare shipped payloads against
    /// the one-byte [`Message::Suppressed`] marker.
    pub fn reply_wire_len(schema: &aorta_data::Schema, tuple: &Tuple) -> usize {
        let values: usize = schema
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind() == AttrKind::Sensory)
            .map(|(i, _)| tuple.get(i).map_or(value_len(&Value::Null), value_len))
            .sum();
        empty_reply_len() + values
    }

    /// The wire cost of a suppressed sample: the bare marker message.
    pub fn suppressed_wire_len() -> usize {
        Message::Suppressed.wire_len()
    }

    /// Produces the tuple for a single device (`None` when offline/unknown).
    pub fn scan_device(
        &self,
        registry: &mut DeviceRegistry,
        id: DeviceId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<Tuple> {
        KindScan::new(registry, self.kind).scan_device(registry, id, now, rng)
    }
}

/// The length of an [`Message::AttrReply`] carrying no values.
fn empty_reply_len() -> usize {
    Message::AttrReply { values: Vec::new() }.wire_len()
}

/// What every device of one kind shares in a scan, built once per scan:
/// the schema, the channel over the kind's link, the positions of the
/// sensory attributes and the wire length of the `ReadAttrs` request
/// naming them.
struct KindScan {
    schema: Schema,
    channel: Channel,
    sensory: Vec<usize>,
    request_len: usize,
}

impl KindScan {
    fn new(registry: &DeviceRegistry, kind: DeviceKind) -> KindScan {
        let schema = registry.schema(kind).clone();
        let sensory = (schema.iter().enumerate())
            .filter(|(_, a)| a.kind() == AttrKind::Sensory)
            .map(|(i, _)| i)
            .collect();
        let names = schema.sensory().map(|a| a.name().to_string()).collect();
        KindScan {
            channel: Channel::new(registry.link(kind).clone()),
            request_len: Message::ReadAttrs { names }.wire_len(),
            sensory,
            schema,
        }
    }

    fn name(&self, i: usize) -> &str {
        self.schema.attr(i).map_or("", |a| a.name())
    }

    /// One device's tuple, built in place: non-sensory attributes from
    /// registry metadata, sensory ones acquired over the wire with bounded
    /// retries — a device whose radio loses every attempt yields NULLs.
    /// Each attempt takes the reading first, then sends the request and
    /// the reply by their wire lengths; the reply's values are already in
    /// the tuple, so nothing is built to cross the channel.
    fn scan_device(
        &self,
        registry: &mut DeviceRegistry,
        id: DeviceId,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<Tuple> {
        let entry = registry.get_mut(id)?;
        if !entry.online() {
            return None;
        }
        let sim = &mut entry.sim;
        let mut values: Vec<Value> = self
            .schema
            .iter()
            .map(|attr| match attr.kind() {
                AttrKind::Sensory => Value::Null,
                AttrKind::NonSensory => non_sensory_value(sim, attr.name()),
            })
            .collect();
        let acquired = !self.sensory.is_empty()
            && (0..=ACQUIRE_RETRIES).any(|_| {
                if let DeviceSim::Mote(m) = sim {
                    // Both the request and the reply must survive the
                    // multi-hop radio path (the base-station link is
                    // modelled separately by the channel).
                    let p_round_trip = m.delivery_prob() * m.delivery_prob();
                    if rng.chance(1.0 - p_round_trip) {
                        return false;
                    }
                }
                let reading = Reading::take(sim, now, rng);
                let mut reply_len = empty_reply_len();
                for &i in &self.sensory {
                    let v = reading.value(self.name(i));
                    reply_len += value_len(&v);
                    values[i] = v;
                }
                self.channel
                    .exchange_len(self.request_len, reply_len, rng)
                    .is_some()
            });
        if !acquired {
            for &i in &self.sensory {
                values[i] = Value::Null;
            }
        }
        let tuple = Tuple::new(values);
        debug_assert_eq!(
            self.schema.check(&tuple),
            Ok(()),
            "scan produced ill-typed tuple"
        );
        Some(tuple)
    }
}

/// What a device's endpoint reads when a `ReadAttrs` reaches it, before
/// the reply travels back.
enum Reading {
    Mote(MoteReading),
    Camera(PtzPosition),
    Phone { reachable: bool },
    Rfid { count: i64, last: Option<String> },
}

impl Reading {
    fn take(sim: &mut DeviceSim, now: SimTime, rng: &mut SimRng) -> Reading {
        match sim {
            DeviceSim::Mote(m) => Reading::Mote(m.sample(now, rng)),
            DeviceSim::Camera(c) => Reading::Camera(c.position_at(now)),
            DeviceSim::Phone(p) => Reading::Phone {
                reachable: p.is_reachable(now, rng),
            },
            DeviceSim::Rfid(r) => Reading::Rfid {
                count: r.tag_count(now, rng),
                last: r.last_tag(now),
            },
        }
    }

    /// The reply's value for attribute `name`: NULL for a name this kind
    /// of device does not answer.
    fn value(&self, name: &str) -> Value {
        match (self, name) {
            (Reading::Mote(r), _) => endpoint::mote_attr(r, name),
            (Reading::Camera(pos), "pan") => Value::Float(pos.pan),
            (Reading::Camera(pos), "tilt") => Value::Float(pos.tilt),
            (Reading::Camera(pos), "zoom") => Value::Float(pos.zoom),
            (Reading::Phone { reachable }, "in_coverage") => Value::Bool(*reachable),
            (Reading::Rfid { count, .. }, "tag_count") => Value::Int(*count),
            (Reading::Rfid { last, .. }, "last_tag") => {
                last.clone().map_or(Value::Null, Value::Str)
            }
            _ => Value::Null,
        }
    }
}

fn non_sensory_value(sim: &DeviceSim, attr: &str) -> Value {
    match (sim, attr) {
        (_, "id") => Value::Int(i64::from(sim.id().index())),
        (_, "loc") => sim.location().map(Value::Location).unwrap_or(Value::Null),
        (DeviceSim::Mote(m), "depth") => Value::Int(i64::from(m.depth())),
        (DeviceSim::Camera(c), "ip") => Value::Str(format!("192.168.0.{}", 100 + c.id().index())),
        (DeviceSim::Phone(p), "number") => Value::Str(p.number().to_string()),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_data::Location;
    use aorta_device::{Mote, PervasiveLab, SpikeModel};
    use aorta_sim::{LinkModel, SimDuration};

    fn registry() -> DeviceRegistry {
        let mut reg = DeviceRegistry::from_lab(PervasiveLab::standard());
        reg.set_link(DeviceKind::Sensor, LinkModel::ideal());
        reg.set_link(DeviceKind::Camera, LinkModel::ideal());
        reg.set_link(DeviceKind::Phone, LinkModel::ideal());
        reg
    }

    #[test]
    fn sensor_scan_produces_typed_tuples() {
        let mut reg = registry();
        let scan = ScanOperator::new(DeviceKind::Sensor);
        let mut rng = SimRng::seed(1);
        let tuples = scan.run(&mut reg, SimTime::ZERO, &mut rng);
        assert_eq!(tuples.len(), 10);
        let schema = reg.schema(DeviceKind::Sensor).clone();
        for t in &tuples {
            assert_eq!(schema.check(t), Ok(()));
        }
        // IDs come out in order.
        let ids: Vec<i64> = tuples
            .iter()
            .map(|t| t.get(0).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn spiking_mote_visible_through_scan() {
        let mut reg = registry();
        let loc = Location::new(1.0, 1.0, 1.0);
        reg.register(
            Mote::new(20, loc, 1)
                .with_per_hop_loss(0.0)
                .with_spikes(SpikeModel::Periodic {
                    period: SimDuration::from_mins(1),
                    offset: SimDuration::ZERO,
                    width: SimDuration::from_secs(2),
                })
                .into(),
            SimTime::ZERO,
        );
        let scan = ScanOperator::new(DeviceKind::Sensor);
        let mut rng = SimRng::seed(2);
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let accel_idx = schema.index_of("accel_x").unwrap();
        let t = scan
            .scan_device(&mut reg, DeviceId::sensor(20), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(t.get(accel_idx).unwrap().as_i64().unwrap() > 500);
    }

    #[test]
    fn offline_devices_are_skipped() {
        let mut reg = registry();
        reg.set_online(DeviceId::sensor(3), false);
        let scan = ScanOperator::new(DeviceKind::Sensor);
        let mut rng = SimRng::seed(3);
        let tuples = scan.run(&mut reg, SimTime::ZERO, &mut rng);
        assert_eq!(tuples.len(), 9);
    }

    #[test]
    fn camera_scan_exposes_head_position_and_ip() {
        let mut reg = registry();
        let scan = ScanOperator::new(DeviceKind::Camera);
        let mut rng = SimRng::seed(4);
        let tuples = scan.run(&mut reg, SimTime::ZERO, &mut rng);
        let schema = reg.schema(DeviceKind::Camera).clone();
        let ip_idx = schema.index_of("ip").unwrap();
        let pan_idx = schema.index_of("pan").unwrap();
        assert_eq!(
            tuples[0].get(ip_idx).unwrap().as_str(),
            Some("192.168.0.100")
        );
        assert_eq!(tuples[0].get(pan_idx), Some(&Value::Float(0.0)));
    }

    #[test]
    fn phone_scan_reports_coverage() {
        let mut reg = registry();
        let scan = ScanOperator::new(DeviceKind::Phone);
        let mut rng = SimRng::seed(5);
        let tuples = scan.run(&mut reg, SimTime::ZERO, &mut rng);
        let schema = reg.schema(DeviceKind::Phone).clone();
        let cov_idx = schema.index_of("in_coverage").unwrap();
        assert_eq!(tuples[0].get(cov_idx), Some(&Value::Bool(true)));
    }

    #[test]
    fn reply_wire_len_counts_only_sensory_payload() {
        let mut reg = registry();
        let scan = ScanOperator::new(DeviceKind::Sensor);
        let mut rng = SimRng::seed(9);
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let t = scan
            .scan_device(&mut reg, DeviceId::sensor(0), SimTime::ZERO, &mut rng)
            .unwrap();
        let len = ScanOperator::reply_wire_len(&schema, &t);
        // Tag + count + one tagged value per sensory attribute, at least.
        let sensory = schema.sensory().count();
        assert!(len >= 5 + sensory, "{len} bytes for {sensory} attrs");
        // Suppression must always be cheaper than shipping.
        assert!(ScanOperator::suppressed_wire_len() < len);
    }

    /// The ledger's byte count is the length of the reply the scan would
    /// have shipped, whatever the kind and however many values are NULL.
    #[test]
    fn reply_wire_len_is_the_attr_replys_encoded_length() {
        let mut reg = registry();
        let mut rng = SimRng::seed(10);
        for kind in [DeviceKind::Sensor, DeviceKind::Camera, DeviceKind::Phone] {
            let schema = reg.schema(kind).clone();
            let tuples = ScanOperator::new(kind).run(&mut reg, SimTime::ZERO, &mut rng);
            assert!(!tuples.is_empty(), "{kind}");
            // Each tuple as scanned, with every sensory value NULL, and with
            // the trailing attributes missing altogether.
            let variants = tuples.iter().flat_map(|t| {
                let nulls = schema
                    .iter()
                    .zip(t.values())
                    .map(|(a, v)| match a.kind() {
                        AttrKind::Sensory => Value::Null,
                        AttrKind::NonSensory => v.clone(),
                    })
                    .collect();
                let short = t.values()[..1].to_vec();
                [t.clone(), Tuple::new(nulls), Tuple::new(short)]
            });
            for tuple in variants {
                let values = schema
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.kind() == AttrKind::Sensory)
                    .map(|(i, _)| tuple.get(i).cloned().unwrap_or(Value::Null))
                    .collect();
                let reply = Message::AttrReply { values };
                assert_eq!(
                    ScanOperator::reply_wire_len(&schema, &tuple),
                    reply.wire_len(),
                    "{kind} {tuple:?}"
                );
                assert_eq!(reply.wire_len(), reply.encode().len());
            }
        }
    }

    #[test]
    fn totally_lossy_link_yields_null_sensory_but_keeps_non_sensory() {
        let mut reg = registry();
        reg.set_link(
            DeviceKind::Sensor,
            LinkModel::new(SimDuration::ZERO, SimDuration::ZERO, 1.0),
        );
        let scan = ScanOperator::new(DeviceKind::Sensor);
        let mut rng = SimRng::seed(6);
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let t = scan
            .scan_device(&mut reg, DeviceId::sensor(0), SimTime::ZERO, &mut rng)
            .unwrap();
        let accel = schema.index_of("accel_x").unwrap();
        let loc = schema.index_of("loc").unwrap();
        assert_eq!(t.get(accel), Some(&Value::Null), "sensory lost");
        assert!(
            matches!(t.get(loc), Some(Value::Location(_))),
            "non-sensory static"
        );
    }
}
