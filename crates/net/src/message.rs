//! The wire format of the basic communication methods.
//!
//! Every interaction with a device — probes, attribute reads, action
//! commands — is a length-delimited binary [`Message`]. The encoding is a
//! one-byte tag followed by fields; strings are length-prefixed UTF-8.
//! Serialized size matters: the link models charge per byte.

use bytes::{Buf, BufMut, Bytes, BytesMut};

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

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
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

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_LOC: u8 = 5;

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, WireError> {
    if buf.remaining() < 4 {
        return Err(err("truncated string length"));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(err("truncated string body"));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| err("invalid UTF-8 in string"))
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(VAL_NULL),
        Value::Bool(b) => {
            buf.put_u8(VAL_BOOL);
            buf.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            buf.put_u8(VAL_INT);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(VAL_FLOAT);
            buf.put_f64(*f);
        }
        Value::Str(s) => {
            buf.put_u8(VAL_STR);
            put_str(buf, s);
        }
        Value::Location(l) => {
            buf.put_u8(VAL_LOC);
            buf.put_f64(l.x);
            buf.put_f64(l.y);
            buf.put_f64(l.z);
        }
    }
}

fn get_value(buf: &mut Bytes) -> Result<Value, WireError> {
    if buf.remaining() < 1 {
        return Err(err("truncated value tag"));
    }
    match buf.get_u8() {
        VAL_NULL => Ok(Value::Null),
        VAL_BOOL => {
            if buf.remaining() < 1 {
                return Err(err("truncated bool"));
            }
            Ok(Value::Bool(buf.get_u8() != 0))
        }
        VAL_INT => {
            if buf.remaining() < 8 {
                return Err(err("truncated int"));
            }
            Ok(Value::Int(buf.get_i64()))
        }
        VAL_FLOAT => {
            if buf.remaining() < 8 {
                return Err(err("truncated float"));
            }
            Ok(Value::Float(buf.get_f64()))
        }
        VAL_STR => Ok(Value::Str(get_str(buf)?)),
        VAL_LOC => {
            if buf.remaining() < 24 {
                return Err(err("truncated location"));
            }
            Ok(Value::Location(aorta_data::Location::new(
                buf.get_f64(),
                buf.get_f64(),
                buf.get_f64(),
            )))
        }
        t => Err(err(format!("unknown value tag {t}"))),
    }
}

impl Message {
    /// Serializes to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16);
        match self {
            Message::Connect => buf.put_u8(TAG_CONNECT),
            Message::ConnectAck => buf.put_u8(TAG_CONNECT_ACK),
            Message::Probe => buf.put_u8(TAG_PROBE),
            Message::ProbeReply { fields } => {
                buf.put_u8(TAG_PROBE_REPLY);
                buf.put_u32(fields.len() as u32);
                for f in fields {
                    buf.put_f64(*f);
                }
            }
            Message::ReadAttrs { names } => {
                buf.put_u8(TAG_READ_ATTRS);
                buf.put_u32(names.len() as u32);
                for n in names {
                    put_str(&mut buf, n);
                }
            }
            Message::AttrReply { values } => {
                buf.put_u8(TAG_ATTR_REPLY);
                buf.put_u32(values.len() as u32);
                for v in values {
                    put_value(&mut buf, v);
                }
            }
            Message::Photo { target, size } => {
                buf.put_u8(TAG_PHOTO);
                buf.put_f64(target.pan);
                buf.put_f64(target.tilt);
                buf.put_f64(target.zoom);
                buf.put_u8(match size {
                    PhotoSize::Small => 0,
                    PhotoSize::Medium => 1,
                    PhotoSize::Large => 2,
                });
            }
            Message::PhotoAck { duration_us } => {
                buf.put_u8(TAG_PHOTO_ACK);
                buf.put_u64(*duration_us);
            }
            Message::SendMessage { mms, body } => {
                buf.put_u8(TAG_SEND_MESSAGE);
                buf.put_u8(u8::from(*mms));
                put_str(&mut buf, body);
            }
            Message::MessageAck => buf.put_u8(TAG_MESSAGE_ACK),
            Message::Close => buf.put_u8(TAG_CLOSE),
            Message::Suppressed => buf.put_u8(TAG_SUPPRESSED),
        }
        buf.freeze()
    }

    /// Deserializes from bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, unknown tags, invalid UTF-8, or
    /// trailing bytes.
    pub fn decode(mut buf: Bytes) -> Result<Message, WireError> {
        if buf.remaining() < 1 {
            return Err(err("empty message"));
        }
        let msg = match buf.get_u8() {
            TAG_CONNECT => Message::Connect,
            TAG_CONNECT_ACK => Message::ConnectAck,
            TAG_PROBE => Message::Probe,
            TAG_PROBE_REPLY => {
                if buf.remaining() < 4 {
                    return Err(err("truncated field count"));
                }
                let n = buf.get_u32() as usize;
                if buf.remaining() < n * 8 {
                    return Err(err("truncated probe fields"));
                }
                let fields = (0..n).map(|_| buf.get_f64()).collect();
                Message::ProbeReply { fields }
            }
            TAG_READ_ATTRS => {
                if buf.remaining() < 4 {
                    return Err(err("truncated name count"));
                }
                let n = buf.get_u32() as usize;
                let mut names = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    names.push(get_str(&mut buf)?);
                }
                Message::ReadAttrs { names }
            }
            TAG_ATTR_REPLY => {
                if buf.remaining() < 4 {
                    return Err(err("truncated value count"));
                }
                let n = buf.get_u32() as usize;
                let mut values = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    values.push(get_value(&mut buf)?);
                }
                Message::AttrReply { values }
            }
            TAG_PHOTO => {
                if buf.remaining() < 25 {
                    return Err(err("truncated photo command"));
                }
                let target = PtzPosition::new(buf.get_f64(), buf.get_f64(), buf.get_f64());
                let size = match buf.get_u8() {
                    0 => PhotoSize::Small,
                    1 => PhotoSize::Medium,
                    2 => PhotoSize::Large,
                    s => return Err(err(format!("unknown photo size {s}"))),
                };
                Message::Photo { target, size }
            }
            TAG_PHOTO_ACK => {
                if buf.remaining() < 8 {
                    return Err(err("truncated photo ack"));
                }
                Message::PhotoAck {
                    duration_us: buf.get_u64(),
                }
            }
            TAG_SEND_MESSAGE => {
                if buf.remaining() < 1 {
                    return Err(err("truncated message kind"));
                }
                let mms = buf.get_u8() != 0;
                Message::SendMessage {
                    mms,
                    body: get_str(&mut buf)?,
                }
            }
            TAG_MESSAGE_ACK => Message::MessageAck,
            TAG_CLOSE => Message::Close,
            TAG_SUPPRESSED => Message::Suppressed,
            t => return Err(err(format!("unknown message tag {t}"))),
        };
        if buf.has_remaining() {
            return Err(err(format!("{} trailing bytes", buf.remaining())));
        }
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

/// Encoded size of a string written by `put_str`.
fn str_len(s: &str) -> usize {
    4 + s.len()
}

/// Encoded size of a value written by `put_value`.
fn value_len(v: &Value) -> usize {
    1 + match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => str_len(s),
        Value::Location(_) => 3 * 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_data::Location;

    fn round_trip(msg: Message) {
        let bytes = msg.encode();
        let back = Message::decode(bytes).unwrap();
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
        assert!(Message::decode(Bytes::new()).is_err());
        assert!(Message::decode(Bytes::from_static(&[99])).is_err());
        // Truncated photo.
        assert!(Message::decode(Bytes::from_static(&[TAG_PHOTO, 0, 0])).is_err());
        // Bad photo size.
        let mut good = BytesMut::new();
        good.put_u8(TAG_PHOTO);
        good.put_f64(0.0);
        good.put_f64(0.0);
        good.put_f64(0.0);
        good.put_u8(7);
        assert!(Message::decode(good.freeze()).is_err());
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = BytesMut::from(&Message::Close.encode()[..]);
        bytes.put_u8(0);
        let e = Message::decode(bytes.freeze()).unwrap_err();
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
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SEND_MESSAGE);
        buf.put_u8(0);
        buf.put_u32(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(Message::decode(buf.freeze()).is_err());
    }
}
