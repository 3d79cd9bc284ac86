//! Binary framing and record codec.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic "AWAL" (4) | payload_len u32 | lsn u64 | crc64 u64 | payload
//! ```
//!
//! The payload is a one-byte record kind followed by the record's fields in
//! the layout of [`aorta_data::codec`]. The CRC64 (ECMA-182 polynomial,
//! hand-rolled — no dependencies) covers the LSN bytes followed by the
//! payload, so a frame whose checksum passes vouches for both its position
//! and its content. Readers are strict: a bad magic, a short frame, a
//! checksum mismatch or a payload that does not decode exactly is an
//! explicit [`WalError`], never a silently shortened log.

use aorta_data::codec::{
    put_bool, put_f64, put_i64, put_str, put_tuple, put_u32, put_u64, put_u8, put_vec, DecodeError,
    Reader,
};
use aorta_device::{DeviceId, DeviceKind};
use aorta_sim::{FaultEvent, SimDuration, SimTime};

use crate::error::WalError;
use crate::record::{LifecycleStage, WalRecord, WireRequest};

/// Frame magic: "AWAL".
pub const WAL_MAGIC: [u8; 4] = *b"AWAL";
/// Bytes before the payload: magic + len + lsn + crc.
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 8 + 8;

// --- CRC64 (ECMA-182), table generated at compile time -----------------------

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42; // ECMA-182, reflected

const fn build_crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = build_crc64_table();

/// CRC64-ECMA over `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    crc64_of(&[bytes])
}

/// CRC64-ECMA over the concatenation of `parts`, without building it.
pub(crate) fn crc64_of(parts: &[&[u8]]) -> u64 {
    let mut crc = !0u64;
    for part in parts {
        for &b in *part {
            crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

// --- WAL-only fields over the shared codec ----------------------------------

fn put_time(out: &mut Vec<u8>, t: SimTime) {
    put_u64(out, t.as_micros());
}
/// A device kind's tag is its position in [`DeviceKind::ALL`].
fn put_kind(out: &mut Vec<u8>, k: DeviceKind) {
    put_u8(out, k as u8);
}
fn put_device(out: &mut Vec<u8>, d: DeviceId) {
    put_kind(out, d.kind());
    put_u32(out, d.index());
}
fn put_fault(out: &mut Vec<u8>, f: &FaultEvent<DeviceId>) {
    match f {
        FaultEvent::Crash(d) => {
            put_u8(out, 0);
            put_device(out, *d);
        }
        FaultEvent::Recover(d) => {
            put_u8(out, 1);
            put_device(out, *d);
        }
        FaultEvent::LossBurstStart { extra_loss } => {
            put_u8(out, 2);
            put_f64(out, *extra_loss);
        }
        FaultEvent::LossBurstEnd => put_u8(out, 3),
        FaultEvent::LatencySpikeStart { factor } => {
            put_u8(out, 4);
            put_f64(out, *factor);
        }
        FaultEvent::LatencySpikeEnd => put_u8(out, 5),
        FaultEvent::ProcessCrash(d) => {
            put_u8(out, 6);
            put_device(out, *d);
        }
        FaultEvent::Partition { a, b, window } => {
            put_u8(out, 7);
            put_u32(out, *a);
            put_u32(out, *b);
            put_u64(out, window.as_micros());
        }
    }
}
fn put_request(out: &mut Vec<u8>, r: &WireRequest) {
    put_u32(out, r.query_id);
    put_str(out, &r.action);
    put_tuple(out, &r.event_tuple);
    put_str(out, &r.event_binding);
    put_kind(out, r.event_kind);
    match &r.device_binding {
        None => put_u8(out, 0),
        Some((binding, kind)) => {
            put_u8(out, 1);
            put_str(out, binding);
            put_kind(out, *kind);
        }
    }
    put_vec(out, &r.args, |out, a| put_str(out, a));
    put_vec(out, &r.candidates, |out, (d, t)| {
        put_device(out, *d);
        put_tuple(out, t);
    });
    put_time(out, r.created_at);
    put_time(out, r.deadline);
    put_bool(out, r.degraded);
    put_u32(out, r.attempts);
    put_u32(out, r.hops);
}

fn time(r: &mut Reader<'_>) -> Result<SimTime, DecodeError> {
    r.u64().map(SimTime::from_micros)
}
fn kind(r: &mut Reader<'_>) -> Result<DeviceKind, DecodeError> {
    let tag = r.u8()?;
    DeviceKind::ALL
        .get(usize::from(tag))
        .copied()
        .ok_or_else(|| r.bad_tag("device kind", tag))
}
fn device(r: &mut Reader<'_>) -> Result<DeviceId, DecodeError> {
    Ok(DeviceId::new(kind(r)?, r.u32()?))
}
fn fault(r: &mut Reader<'_>) -> Result<FaultEvent<DeviceId>, DecodeError> {
    Ok(match r.u8()? {
        0 => FaultEvent::Crash(device(r)?),
        1 => FaultEvent::Recover(device(r)?),
        2 => FaultEvent::LossBurstStart {
            extra_loss: r.f64()?,
        },
        3 => FaultEvent::LossBurstEnd,
        4 => FaultEvent::LatencySpikeStart { factor: r.f64()? },
        5 => FaultEvent::LatencySpikeEnd,
        6 => FaultEvent::ProcessCrash(device(r)?),
        7 => FaultEvent::Partition {
            a: r.u32()?,
            b: r.u32()?,
            window: SimDuration::from_micros(r.u64()?),
        },
        t => return Err(r.bad_tag("fault", t)),
    })
}
fn request(r: &mut Reader<'_>) -> Result<WireRequest, DecodeError> {
    Ok(WireRequest {
        query_id: r.u32()?,
        action: r.str()?,
        event_tuple: r.tuple()?,
        event_binding: r.str()?,
        event_kind: kind(r)?,
        device_binding: match r.u8()? {
            0 => None,
            1 => Some((r.str()?, kind(r)?)),
            t => return Err(r.bad_tag("device binding", t)),
        },
        args: r.vec(Reader::str)?,
        candidates: r.vec(|r| Ok((device(r)?, r.tuple()?)))?,
        created_at: time(r)?,
        deadline: time(r)?,
        degraded: r.bool()?,
        attempts: r.u32()?,
        hops: r.u32()?,
    })
}

// --- record payload codec ----------------------------------------------------

const K_GENESIS: u8 = 0x01;
const K_SQL_EXEC: u8 = 0x02;
const K_FAULTS: u8 = 0x03;
const K_RUN_UNTIL: u8 = 0x04;
const K_REQ_INJECTED: u8 = 0x05;
const K_ROUTE_PROBE: u8 = 0x06;
const K_DRAIN: u8 = 0x07;
const K_MIGRATE_OUT: u8 = 0x08;
const K_MIGRATE_IN: u8 = 0x09;
const K_AQ_REGISTERED: u8 = 0x41;
const K_AQ_DROPPED: u8 = 0x42;
const K_EDGE_COMMIT: u8 = 0x43;
const K_LIFECYCLE: u8 = 0x44;
const K_BREAKER: u8 = 0x45;
const K_CRASH_APPLIED: u8 = 0x46;

fn encode_payload(r: &WalRecord, out: &mut Vec<u8>) {
    match r {
        WalRecord::Genesis { fingerprint } => {
            put_u8(out, K_GENESIS);
            put_u64(out, *fingerprint);
        }
        WalRecord::SqlExec { sql } => {
            put_u8(out, K_SQL_EXEC);
            put_str(out, sql);
        }
        WalRecord::FaultsInjected { events } => {
            put_u8(out, K_FAULTS);
            put_vec(out, events, |out, (t, f)| {
                put_time(out, *t);
                put_fault(out, f);
            });
        }
        WalRecord::RunUntil { deadline } => {
            put_u8(out, K_RUN_UNTIL);
            put_time(out, *deadline);
        }
        WalRecord::RequestInjected { request } => {
            put_u8(out, K_REQ_INJECTED);
            put_request(out, request);
        }
        WalRecord::RouteProbe { request } => {
            put_u8(out, K_ROUTE_PROBE);
            put_request(out, request);
        }
        WalRecord::DrainEscalated => put_u8(out, K_DRAIN),
        WalRecord::MigrateOut { device } => {
            put_u8(out, K_MIGRATE_OUT);
            put_device(out, *device);
        }
        WalRecord::MigrateIn { device } => {
            put_u8(out, K_MIGRATE_IN);
            put_device(out, *device);
        }
        WalRecord::AqRegistered { query_id, name } => {
            put_u8(out, K_AQ_REGISTERED);
            put_u32(out, *query_id);
            put_str(out, name);
        }
        WalRecord::AqDropped { query_id, name } => {
            put_u8(out, K_AQ_DROPPED);
            put_u32(out, *query_id);
            put_str(out, name);
        }
        WalRecord::EdgeCommit { query_id, source } => {
            put_u8(out, K_EDGE_COMMIT);
            put_u32(out, *query_id);
            put_i64(out, *source);
        }
        WalRecord::Lifecycle {
            query_id,
            stage,
            at,
        } => {
            put_u8(out, K_LIFECYCLE);
            put_u32(out, *query_id);
            put_u8(out, stage.tag());
            put_time(out, *at);
        }
        WalRecord::Breaker { device, state, at } => {
            put_u8(out, K_BREAKER);
            put_device(out, *device);
            put_u8(out, *state);
            put_time(out, *at);
        }
        WalRecord::CrashApplied { at } => {
            put_u8(out, K_CRASH_APPLIED);
            put_time(out, *at);
        }
    }
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, DecodeError> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        K_GENESIS => WalRecord::Genesis {
            fingerprint: r.u64()?,
        },
        K_SQL_EXEC => WalRecord::SqlExec { sql: r.str()? },
        K_FAULTS => WalRecord::FaultsInjected {
            events: r.vec(|r| Ok((time(r)?, fault(r)?)))?,
        },
        K_RUN_UNTIL => WalRecord::RunUntil {
            deadline: time(&mut r)?,
        },
        K_REQ_INJECTED => WalRecord::RequestInjected {
            request: request(&mut r)?,
        },
        K_ROUTE_PROBE => WalRecord::RouteProbe {
            request: request(&mut r)?,
        },
        K_DRAIN => WalRecord::DrainEscalated,
        K_MIGRATE_OUT => WalRecord::MigrateOut {
            device: device(&mut r)?,
        },
        K_MIGRATE_IN => WalRecord::MigrateIn {
            device: device(&mut r)?,
        },
        K_AQ_REGISTERED => WalRecord::AqRegistered {
            query_id: r.u32()?,
            name: r.str()?,
        },
        K_AQ_DROPPED => WalRecord::AqDropped {
            query_id: r.u32()?,
            name: r.str()?,
        },
        K_EDGE_COMMIT => WalRecord::EdgeCommit {
            query_id: r.u32()?,
            source: r.i64()?,
        },
        K_LIFECYCLE => {
            let query_id = r.u32()?;
            let tag = r.u8()?;
            let stage = *LifecycleStage::ALL
                .iter()
                .find(|s| s.tag() == tag)
                .ok_or_else(|| r.bad_tag("lifecycle stage", tag))?;
            WalRecord::Lifecycle {
                query_id,
                stage,
                at: time(&mut r)?,
            }
        }
        K_BREAKER => WalRecord::Breaker {
            device: device(&mut r)?,
            state: r.u8()?,
            at: time(&mut r)?,
        },
        K_CRASH_APPLIED => WalRecord::CrashApplied { at: time(&mut r)? },
        other => return Err(r.bad_tag("record kind", other)),
    };
    r.finish()?;
    Ok(record)
}

/// Appends `record` to `out` as one checksummed frame. The payload is
/// encoded in place and the CRC read over the frame's own LSN and payload
/// bytes, so nothing is copied.
pub(crate) fn encode_frame_into(out: &mut Vec<u8>, record: &WalRecord, lsn: u64) {
    let start = out.len();
    out.extend_from_slice(&WAL_MAGIC);
    put_u32(out, 0); // payload length, patched below
    put_u64(out, lsn);
    put_u64(out, 0); // CRC, patched below
    encode_payload(record, out);
    let frame = &mut out[start..];
    let payload_len = (frame.len() - FRAME_HEADER_LEN) as u32;
    let crc = crc64_of(&[&frame[8..16], &frame[FRAME_HEADER_LEN..]]);
    frame[4..8].copy_from_slice(&payload_len.to_le_bytes());
    frame[16..24].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes `record` as one checksummed frame.
pub fn encode_frame(record: &WalRecord, lsn: u64) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + 64);
    encode_frame_into(&mut frame, record, lsn);
    frame
}

/// Decodes one frame starting at `*offset`, advancing it past the frame.
///
/// # Errors
///
/// [`WalError::TornFrame`] when the buffer ends mid-frame,
/// [`WalError::Corrupt`] on magic/checksum/payload damage.
pub fn decode_frame(buf: &[u8], offset: &mut usize) -> Result<(u64, WalRecord), WalError> {
    let start = *offset;
    let torn = WalError::TornFrame {
        offset: start as u64,
    };
    if buf.len() - start < FRAME_HEADER_LEN {
        return Err(torn);
    }
    let mut r = Reader::new(&buf[start..]);
    if r.bytes(4)? != WAL_MAGIC {
        return Err(WalError::Corrupt {
            lsn: 0,
            detail: format!("bad magic at byte {start}"),
        });
    }
    let payload_len = r.u32()? as usize;
    let lsn = r.u64()?;
    let crc_stored = r.u64()?;
    let payload = r.bytes(payload_len).map_err(|_| torn)?;
    if crc64_of(&[&lsn.to_le_bytes(), payload]) != crc_stored {
        return Err(WalError::Corrupt {
            lsn,
            detail: "checksum mismatch".into(),
        });
    }
    let record = decode_payload(payload).map_err(|e| WalError::Corrupt {
        lsn,
        detail: e.to_string(),
    })?;
    *offset = start + FRAME_HEADER_LEN + payload_len;
    Ok((lsn, record))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_known_vector() {
        // ECMA-182 check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn frame_roundtrip() {
        let r = WalRecord::Lifecycle {
            query_id: 7,
            stage: LifecycleStage::Completed,
            at: SimTime::from_micros(1_234_567),
        };
        let frame = encode_frame(&r, 42);
        let mut off = 0;
        let (lsn, decoded) = decode_frame(&frame, &mut off).unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(decoded, r);
        assert_eq!(off, frame.len());
    }

    #[test]
    fn every_fault_variant_roundtrips() {
        let d = DeviceId::new(DeviceKind::Camera, 3);
        let faults = vec![
            FaultEvent::Crash(d),
            FaultEvent::Recover(d),
            FaultEvent::LossBurstStart { extra_loss: 0.25 },
            FaultEvent::LossBurstEnd,
            FaultEvent::LatencySpikeStart { factor: 8.0 },
            FaultEvent::LatencySpikeEnd,
            FaultEvent::ProcessCrash(d),
            FaultEvent::Partition {
                a: 1,
                b: 3,
                window: SimDuration::from_secs(20),
            },
        ];
        let r = WalRecord::FaultsInjected {
            events: faults
                .into_iter()
                .enumerate()
                .map(|(i, f)| (SimTime::from_micros(i as u64 * 10), f))
                .collect(),
        };
        let frame = encode_frame(&r, 5);
        let mut off = 0;
        let (lsn, decoded) = decode_frame(&frame, &mut off).unwrap();
        assert_eq!(lsn, 5);
        assert_eq!(decoded, r);
    }

    #[test]
    fn corruption_is_loud() {
        let r = WalRecord::SqlExec {
            sql: "CREATE AQ x AS SELECT beep(s.id) FROM sensor s".into(),
        };
        let mut frame = encode_frame(&r, 3);
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let mut off = 0;
        assert!(matches!(
            decode_frame(&frame, &mut off),
            Err(WalError::Corrupt { lsn: 3, .. })
        ));
    }

    #[test]
    fn truncation_is_torn_not_shorter() {
        let r = WalRecord::DrainEscalated;
        let frame = encode_frame(&r, 9);
        let mut off = 0;
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 1], &mut off),
            Err(WalError::TornFrame { .. })
        ));
    }
}
