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

use crate::codec::{crc64, decode_frame, encode_frame};
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
    /// with LSNs numbered from zero, then the whole-image CRC patched into
    /// the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        for (i, record) in self.prefix.iter().chain(self.suffix.iter()).enumerate() {
            payload.extend_from_slice(&encode_frame(record, i as u64));
        }
        let mut out = Vec::with_capacity(IMAGE_HEADER_LEN + payload.len());
        out.extend_from_slice(&IMAGE_MAGIC);
        out.extend_from_slice(&IMAGE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.prefix.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.suffix.len() as u32).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // CRC slot, patched below
        out.extend_from_slice(&payload);
        let crc = crc64(&out);
        out[44..52].copy_from_slice(&crc.to_le_bytes());
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
        if bytes.len() < IMAGE_HEADER_LEN {
            return Err(WalError::TornFrame {
                offset: bytes.len() as u64,
            });
        }
        let u32_at = |off: usize| {
            u32::from_le_bytes(bytes[off..off + 4].try_into().expect("bounds checked"))
        };
        let u64_at = |off: usize| {
            u64::from_le_bytes(bytes[off..off + 8].try_into().expect("bounds checked"))
        };
        if bytes[0..4] != IMAGE_MAGIC {
            return Err(WalError::Corrupt {
                lsn: 0,
                detail: "bad image magic".into(),
            });
        }
        let version = u32_at(4);
        if version != IMAGE_VERSION {
            return Err(WalError::Corrupt {
                lsn: 0,
                detail: format!("unknown image version {version}"),
            });
        }
        let shard = u32_at(8);
        let epoch = u64_at(12);
        let fingerprint = u64_at(20);
        let prefix_frames = u32_at(28) as usize;
        let suffix_frames = u32_at(32) as usize;
        let payload_len = u64_at(36) as usize;
        let stored_crc = u64_at(44);
        if bytes.len() < IMAGE_HEADER_LEN + payload_len {
            return Err(WalError::TornFrame {
                offset: bytes.len() as u64,
            });
        }
        if bytes.len() > IMAGE_HEADER_LEN + payload_len {
            return Err(WalError::Corrupt {
                lsn: 0,
                detail: format!(
                    "{} trailing bytes after image payload",
                    bytes.len() - IMAGE_HEADER_LEN - payload_len
                ),
            });
        }
        // Whole-image CRC: computed with the CRC slot zeroed, covering
        // every byte of manifest and payload.
        let mut check = bytes.to_vec();
        check[44..52].fill(0);
        let computed = crc64(&check);
        if computed != stored_crc {
            return Err(WalError::Corrupt {
                lsn: 0,
                detail: format!(
                    "image crc mismatch: stored {stored_crc:#018x}, computed {computed:#018x}"
                ),
            });
        }
        let payload = &bytes[IMAGE_HEADER_LEN..];
        let mut records = Vec::with_capacity(prefix_frames + suffix_frames);
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
        if records.len() != prefix_frames + suffix_frames {
            return Err(WalError::Corrupt {
                lsn: 0,
                detail: format!(
                    "image manifest claims {} frames, payload holds {}",
                    prefix_frames + suffix_frames,
                    records.len()
                ),
            });
        }
        let suffix = records.split_off(prefix_frames);
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

    /// Encoded size in bytes (what a transfer ships).
    pub fn byte_len(&self) -> usize {
        self.encode().len()
    }
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
        assert_eq!(img.byte_len(), bytes.len());
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
