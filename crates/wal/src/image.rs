//! The snapshot image wire format: a shard's full command-sourced state as
//! one shippable, checksummed blob.
//!
//! A live engine snapshot (`fork_snapshot`) is a deep in-memory clone — it
//! cannot cross a host boundary because custom action handlers are code.
//! What *can* cross is the engine's command history: the Aorta engine is
//! deterministic between external inputs, so genesis + the full sealed log
//! rebuilds the exact state on any host that has the same [`GenesisSpec`]
//! (config, fleet, staged handlers). A [`SnapshotImage`] is therefore the
//! sealed log itself, split at the donor's latest snapshot barrier into a
//! `prefix` (up to the barrier) and `suffix` (the tail past it), wrapped in
//! a manifest that pins the shard identity, the incarnation epoch the image
//! was cut at, and the genesis fingerprint.
//!
//! Integrity follows the WAL's fail-loudly rule twice over: every embedded
//! record is a CRC64 frame exactly as it would sit in the log, and the
//! manifest carries a whole-image CRC64 over every byte of the blob.
//! Flipping *any* bit of a shipped image — manifest or payload — makes
//! [`SnapshotImage::decode`] return a typed [`WalError`]; a receiver can
//! adopt a verified image or refuse the transfer, never install a silently
//! stale or damaged shard.
//!
//! `GenesisSpec` lives in the engine crate; the format here only promises
//! that the embedded records replay against *some* genesis whose
//! fingerprint matches the manifest.

use aorta_data::codec::{put_u32, put_u64, Reader};

use crate::codec::{crc64_of, decode_frame, encode_frame_into, FRAME_HEADER_LEN};
use crate::error::WalError;
use crate::record::WalRecord;

/// Image magic: "ASIM" (Aorta Snapshot IMage).
pub const IMAGE_MAGIC: [u8; 4] = *b"ASIM";
/// Current image format version.
pub const IMAGE_VERSION: u32 = 1;
/// Manifest length in bytes (magic through whole-image CRC).
pub const IMAGE_HEADER_LEN: usize = 52;

/// A shippable image of one shard: manifest + the shard's complete sealed
/// log, split at the donor's snapshot barrier.
///
/// Valid only while the donor log is free of `MigrateIn` records — a loud
/// error at replay time, not silent staleness.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotImage {
    /// The shard this image reconstructs.
    pub shard: u32,
    /// The incarnation epoch the image was cut at. The adopting host runs
    /// at `epoch + 1`; anything still stamped `epoch` is a zombie.
    pub epoch: u64,
    /// Genesis fingerprint the embedded log applies to.
    pub fingerprint: u64,
    /// Log records up to the donor's latest snapshot barrier.
    pub prefix: Vec<WalRecord>,
    /// The sealed log suffix past the barrier.
    pub suffix: Vec<WalRecord>,
}

impl SnapshotImage {
    /// Serializes the image: manifest, then every record as a CRC64 frame
    /// with LSNs numbered from zero, then the payload length and the
    /// whole-image CRC patched into the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&IMAGE_MAGIC);
        put_u32(&mut out, IMAGE_VERSION);
        put_u32(&mut out, self.shard);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.fingerprint);
        put_u32(&mut out, self.prefix.len() as u32);
        put_u32(&mut out, self.suffix.len() as u32);
        put_u64(&mut out, 0); // payload length, patched below
        put_u64(&mut out, 0); // CRC slot, patched below
        for (i, record) in self.prefix.iter().chain(&self.suffix).enumerate() {
            encode_frame_into(&mut out, record, i as u64);
        }
        let payload_len = (out.len() - IMAGE_HEADER_LEN) as u64;
        out[36..44].copy_from_slice(&payload_len.to_le_bytes());
        let crc = image_crc(&out);
        out[44..52].copy_from_slice(&crc.to_le_bytes());
        // The image is held until it is shipped: keep no growth slack.
        out.shrink_to_fit();
        out
    }

    /// Verifies and decodes a shipped image.
    ///
    /// # Errors
    ///
    /// - [`WalError::TornFrame`] — the blob is shorter than the manifest
    ///   claims (a truncated transfer).
    /// - [`WalError::Corrupt`] — bad magic, unknown version, whole-image
    ///   CRC mismatch, per-frame damage, non-sequential LSNs, frame-count
    ///   mismatch, or trailing bytes. Any single flipped bit lands here or
    ///   in `TornFrame`; no damaged image ever decodes.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotImage, WalError> {
        let corrupt = |detail: String| WalError::Corrupt { lsn: 0, detail };
        if bytes.len() < IMAGE_HEADER_LEN {
            return Err(WalError::TornFrame {
                offset: bytes.len() as u64,
            });
        }
        let mut r = Reader::new(bytes);
        let magic = r.bytes(4)?;
        let version = r.u32()?;
        let shard = r.u32()?;
        let epoch = r.u64()?;
        let fingerprint = r.u64()?;
        let prefix = r.u32()?;
        let suffix = r.u32()?;
        let payload_len = r.u64()?;
        let stored_crc = r.u64()?;
        if magic != IMAGE_MAGIC {
            return Err(corrupt("bad image magic".into()));
        }
        if version != IMAGE_VERSION {
            return Err(corrupt(format!("unknown image version {version}")));
        }
        let payload = &bytes[IMAGE_HEADER_LEN..];
        if (payload.len() as u64) < payload_len {
            return Err(WalError::TornFrame {
                offset: bytes.len() as u64,
            });
        }
        if payload.len() as u64 > payload_len {
            return Err(corrupt(format!(
                "{} trailing bytes after image payload",
                payload.len() as u64 - payload_len
            )));
        }
        let computed = image_crc(bytes);
        if computed != stored_crc {
            return Err(corrupt(format!(
                "image crc mismatch: stored {stored_crc:#018x}, computed {computed:#018x}"
            )));
        }
        // A frame is at least a header and a kind byte, so the payload
        // bounds the record count whatever the manifest claims.
        let frames = u64::from(prefix) + u64::from(suffix);
        let fit = payload.len() / (FRAME_HEADER_LEN + 1);
        let mut records = Vec::with_capacity(frames.min(fit as u64) as usize);
        let mut off = 0usize;
        while off < payload.len() {
            let (lsn, record) = decode_frame(payload, &mut off)?;
            if lsn != records.len() as u64 {
                return Err(WalError::Corrupt {
                    lsn,
                    detail: format!("image frame {} carries lsn {lsn}", records.len()),
                });
            }
            records.push(record);
        }
        if records.len() as u64 != frames {
            return Err(corrupt(format!(
                "image manifest claims {frames} frames, payload holds {}",
                records.len()
            )));
        }
        let suffix = records.split_off(prefix as usize);
        Ok(SnapshotImage {
            shard,
            epoch,
            fingerprint,
            prefix: records,
            suffix,
        })
    }

    /// The full record sequence, prefix then suffix — what the adopting
    /// host replays from genesis.
    pub fn records(&self) -> Vec<WalRecord> {
        let mut all = self.prefix.clone();
        all.extend(self.suffix.iter().cloned());
        all
    }
}

/// CRC64 over every byte of an encoded image, with the CRC slot (bytes
/// 44..52) read as zeros.
fn image_crc(bytes: &[u8]) -> u64 {
    crc64_of(&[&bytes[..44], &[0; 8], &bytes[IMAGE_HEADER_LEN..]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_sim::SimTime;

    fn image() -> SnapshotImage {
        SnapshotImage {
            shard: 2,
            epoch: 3,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            prefix: vec![
                WalRecord::Genesis {
                    fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                },
                WalRecord::SqlExec {
                    sql: "CREATE ACTION beep(id)".into(),
                },
            ],
            suffix: vec![
                WalRecord::RunUntil {
                    deadline: SimTime::from_micros(5_000_000),
                },
                WalRecord::DrainEscalated,
            ],
        }
    }

    #[test]
    fn image_roundtrips() {
        let img = image();
        let bytes = img.encode();
        assert_eq!(SnapshotImage::decode(&bytes).unwrap(), img);
        assert_eq!(img.records().len(), 4);
    }

    #[test]
    fn empty_sections_roundtrip() {
        let img = SnapshotImage {
            shard: 0,
            epoch: 1,
            fingerprint: 7,
            prefix: Vec::new(),
            suffix: Vec::new(),
        };
        let bytes = img.encode();
        assert_eq!(bytes.len(), IMAGE_HEADER_LEN);
        assert_eq!(SnapshotImage::decode(&bytes).unwrap(), img);
    }

    #[test]
    fn flipping_any_single_byte_is_detected() {
        let bytes = image().encode();
        for i in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x01;
            assert!(
                SnapshotImage::decode(&damaged).is_err(),
                "flip at byte {i} of {} went undetected",
                bytes.len()
            );
        }
    }

    #[test]
    fn truncation_is_torn() {
        let bytes = image().encode();
        for cut in [
            0,
            3,
            IMAGE_HEADER_LEN - 1,
            IMAGE_HEADER_LEN + 5,
            bytes.len() - 1,
        ] {
            assert!(
                matches!(
                    SnapshotImage::decode(&bytes[..cut]),
                    Err(WalError::TornFrame { .. })
                ),
                "truncation to {cut} bytes was not reported torn"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut bytes = image().encode();
        bytes.push(0);
        assert!(matches!(
            SnapshotImage::decode(&bytes),
            Err(WalError::Corrupt { .. })
        ));
    }
}
