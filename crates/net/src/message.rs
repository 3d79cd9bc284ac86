//! The wire format of the basic communication methods.
//!
//! Every interaction with a device — probes, attribute reads, action
//! commands — is a length-delimited binary [`Message`]. The encoding is a
//! one-byte tag followed by fields in the layout of [`aorta_data::codec`].
//! Serialized size matters: the link models charge per byte.

use aorta_data::codec::{
    put_bool, put_f64, put_str, put_u64, put_u8, put_value, put_vec, str_len, value_len,
    DecodeError, Reader,
};
use aorta_data::Value;
use aorta_device::{PhotoSize, PtzPosition};

/// A message exchanged between the communication layer and a device.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Open a connection.
    Connect,
    /// Connection accepted.
    ConnectAck,
    /// Availability + physical status probe (§4).
    Probe,
    /// Probe answer: an opaque status rendering plus raw numeric fields.
    ProbeReply {
        /// pan/tilt/zoom or depth/battery etc., device-specific.
        fields: Vec<f64>,
    },
    /// Read the named sensory attributes.
    ReadAttrs {
        /// Attribute names to acquire.
        names: Vec<String>,
    },
    /// Attribute values, in request order.
    AttrReply {
        /// One value per requested name.
        values: Vec<Value>,
    },
    /// Command a PTZ camera to move and take a photo.
    Photo {
        /// Target head position.
        target: PtzPosition,
        /// Requested photo size.
        size: PhotoSize,
    },
    /// Photo accepted; completion expected after `duration_us`.
    PhotoAck {
        /// Expected execution time in microseconds.
        duration_us: u64,
    },
    /// Deliver a text/media message to a phone.
    SendMessage {
        /// True for MMS, false for SMS.
        mms: bool,
        /// The body (e.g. a photo path).
        body: String,
    },
    /// Message delivered.
    MessageAck,
    /// Close the connection.
    Close,
    /// In-network pushdown marker: the device's reply when its pushed
    /// filter program suppressed the sample. Carries no payload — its
    /// one-byte cost is what suppressed samples pay on the wire instead of
    /// a full [`Message::AttrReply`].
    Suppressed,
}

const TAG_CONNECT: u8 = 1;
const TAG_CONNECT_ACK: u8 = 2;
const TAG_PROBE: u8 = 3;
const TAG_PROBE_REPLY: u8 = 4;
const TAG_READ_ATTRS: u8 = 5;
const TAG_ATTR_REPLY: u8 = 6;
const TAG_PHOTO: u8 = 7;
const TAG_PHOTO_ACK: u8 = 8;
const TAG_SEND_MESSAGE: u8 = 9;
const TAG_MESSAGE_ACK: u8 = 10;
const TAG_CLOSE: u8 = 11;
const TAG_SUPPRESSED: u8 = 12;

impl Message {
    /// Serializes to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        match self {
            Message::Connect => put_u8(&mut out, TAG_CONNECT),
            Message::ConnectAck => put_u8(&mut out, TAG_CONNECT_ACK),
            Message::Probe => put_u8(&mut out, TAG_PROBE),
            Message::ProbeReply { fields } => {
                put_u8(&mut out, TAG_PROBE_REPLY);
                put_vec(&mut out, fields, |out, f| put_f64(out, *f));
            }
            Message::ReadAttrs { names } => {
                put_u8(&mut out, TAG_READ_ATTRS);
                put_vec(&mut out, names, |out, n| put_str(out, n));
            }
            Message::AttrReply { values } => {
                put_u8(&mut out, TAG_ATTR_REPLY);
                put_vec(&mut out, values, put_value);
            }
            Message::Photo { target, size } => {
                put_u8(&mut out, TAG_PHOTO);
                put_f64(&mut out, target.pan);
                put_f64(&mut out, target.tilt);
                put_f64(&mut out, target.zoom);
                put_u8(
                    &mut out,
                    match size {
                        PhotoSize::Small => 0,
                        PhotoSize::Medium => 1,
                        PhotoSize::Large => 2,
                    },
                );
            }
            Message::PhotoAck { duration_us } => {
                put_u8(&mut out, TAG_PHOTO_ACK);
                put_u64(&mut out, *duration_us);
            }
            Message::SendMessage { mms, body } => {
                put_u8(&mut out, TAG_SEND_MESSAGE);
                put_bool(&mut out, *mms);
                put_str(&mut out, body);
            }
            Message::MessageAck => put_u8(&mut out, TAG_MESSAGE_ACK),
            Message::Close => put_u8(&mut out, TAG_CLOSE),
            Message::Suppressed => put_u8(&mut out, TAG_SUPPRESSED),
        }
        out
    }

    /// Deserializes from bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, unknown tags, invalid UTF-8, or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_CONNECT => Message::Connect,
            TAG_CONNECT_ACK => Message::ConnectAck,
            TAG_PROBE => Message::Probe,
            TAG_PROBE_REPLY => Message::ProbeReply {
                fields: r.vec(Reader::f64)?,
            },
            TAG_READ_ATTRS => Message::ReadAttrs {
                names: r.vec(Reader::str)?,
            },
            TAG_ATTR_REPLY => Message::AttrReply {
                values: r.vec(Reader::value)?,
            },
            TAG_PHOTO => Message::Photo {
                target: PtzPosition::new(r.f64()?, r.f64()?, r.f64()?),
                size: match r.u8()? {
                    0 => PhotoSize::Small,
                    1 => PhotoSize::Medium,
                    2 => PhotoSize::Large,
                    s => return Err(r.bad_tag("photo size", s)),
                },
            },
            TAG_PHOTO_ACK => Message::PhotoAck {
                duration_us: r.u64()?,
            },
            TAG_SEND_MESSAGE => Message::SendMessage {
                mms: r.bool()?,
                body: r.str()?,
            },
            TAG_MESSAGE_ACK => Message::MessageAck,
            TAG_CLOSE => Message::Close,
            TAG_SUPPRESSED => Message::Suppressed,
            t => return Err(r.bad_tag("message", t)),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Serialized size in bytes (drives per-byte link latency): the length
    /// [`Message::encode`] produces, computed from the same layout without
    /// building the buffer.
    pub fn wire_len(&self) -> usize {
        1 + match self {
            Message::Connect
            | Message::ConnectAck
            | Message::Probe
            | Message::MessageAck
            | Message::Close
            | Message::Suppressed => 0,
            Message::ProbeReply { fields } => 4 + 8 * fields.len(),
            Message::ReadAttrs { names } => 4 + names.iter().map(|n| str_len(n)).sum::<usize>(),
            Message::AttrReply { values } => 4 + values.iter().map(value_len).sum::<usize>(),
            Message::Photo { .. } => 3 * 8 + 1,
            Message::PhotoAck { .. } => 8,
            Message::SendMessage { body, .. } => 1 + str_len(body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_data::codec::put_u32;
    use aorta_data::Location;

    fn round_trip(msg: Message) {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Message::Connect);
        round_trip(Message::ConnectAck);
        round_trip(Message::Probe);
        round_trip(Message::ProbeReply {
            fields: vec![1.5, -2.0, 0.25],
        });
        round_trip(Message::ReadAttrs {
            names: vec!["accel_x".into(), "temp".into()],
        });
        round_trip(Message::AttrReply {
            values: vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-42),
                Value::Float(3.75),
                Value::Str("hello".into()),
                Value::Location(Location::new(1.0, 2.0, 3.0)),
            ],
        });
        round_trip(Message::Photo {
            target: PtzPosition::new(45.0, -30.0, 0.5),
            size: PhotoSize::Large,
        });
        round_trip(Message::PhotoAck { duration_us: 1234 });
        round_trip(Message::SendMessage {
            mms: true,
            body: "photos/admin/door.jpg".into(),
        });
        round_trip(Message::MessageAck);
        round_trip(Message::Close);
        round_trip(Message::Suppressed);
    }

    #[test]
    fn suppressed_marker_is_one_byte() {
        // The pushdown accounting depends on the marker being strictly
        // smaller than any attribute reply: the whole point of suppression
        // is paying one byte per hop instead of the payload.
        assert_eq!(Message::Suppressed.wire_len(), 1);
        let reply = Message::AttrReply { values: vec![] };
        assert!(Message::Suppressed.wire_len() <= reply.wire_len());
    }

    #[test]
    fn unicode_strings_round_trip() {
        round_trip(Message::SendMessage {
            mms: false,
            body: "警报 — movement detected".into(),
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[99]).is_err());
        // Truncated photo.
        assert!(Message::decode(&[TAG_PHOTO, 0, 0]).is_err());
        // Bad photo size.
        let mut good = Vec::new();
        put_u8(&mut good, TAG_PHOTO);
        put_f64(&mut good, 0.0);
        put_f64(&mut good, 0.0);
        put_f64(&mut good, 0.0);
        put_u8(&mut good, 7);
        assert!(Message::decode(&good).is_err());
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = Message::Close.encode();
        put_u8(&mut bytes, 0);
        let e = Message::decode(&bytes).unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
    }

    #[test]
    fn wire_len_tracks_payload() {
        let small = Message::SendMessage {
            mms: false,
            body: "x".into(),
        };
        let big = Message::SendMessage {
            mms: false,
            body: "x".repeat(1000),
        };
        assert!(big.wire_len() > small.wire_len() + 900);
        assert_eq!(Message::Close.wire_len(), 1);
    }

    #[test]
    fn wire_len_is_the_encoded_length_of_every_variant() {
        let all_values = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Float(-0.5),
            Value::Str(String::new()),
            Value::Str("警报 — ünïcode".into()),
            Value::Location(Location::new(1.0, 2.0, 3.0)),
        ];
        let messages = [
            Message::Connect,
            Message::ConnectAck,
            Message::Probe,
            Message::ProbeReply { fields: vec![] },
            Message::ProbeReply {
                fields: vec![1.5; 9],
            },
            Message::ReadAttrs { names: vec![] },
            Message::ReadAttrs {
                names: (0..40).map(|i| format!("attr_{i}_温度")).collect(),
            },
            Message::AttrReply { values: vec![] },
            Message::AttrReply {
                values: (0..5).flat_map(|_| all_values.clone()).collect(),
            },
            Message::Photo {
                target: PtzPosition::new(45.0, -30.0, 0.5),
                size: PhotoSize::Medium,
            },
            Message::PhotoAck { duration_us: 7 },
            Message::SendMessage {
                mms: false,
                body: String::new(),
            },
            Message::SendMessage {
                mms: true,
                body: "📷 photos/admin/door.jpg".repeat(50),
            },
            Message::MessageAck,
            Message::Close,
            Message::Suppressed,
        ];
        for msg in messages {
            assert_eq!(msg.wire_len(), msg.encode().len(), "{msg:?}");
        }
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let mut buf = Vec::new();
        put_u8(&mut buf, TAG_SEND_MESSAGE);
        put_u8(&mut buf, 0);
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Message::decode(&buf).is_err());
    }
}
