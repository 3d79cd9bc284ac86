//! Crafted inputs whose checksums are valid but whose counts or lengths
//! lie. A decoder must never trust such a field for an allocation or an
//! unchecked addition: each input below gives a typed [`WalError`], never
//! an abort or a panic.

use aorta_sim::SimTime;
use aorta_wal::{crc64, FileStore, SnapshotImage, WalError, WalRecord, WAL_MAGIC};

/// One frame around `payload`, with a valid CRC over `lsn ++ payload`.
fn frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut covered = lsn.to_le_bytes().to_vec();
    covered.extend_from_slice(payload);
    let mut out = WAL_MAGIC.to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&crc64(&covered).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A small valid image with the manifest bytes `at..at + patch.len()`
/// replaced and the whole-image CRC (bytes 44..52, computed with that
/// slot zeroed) recomputed, so only the patched field is wrong.
fn patched_image(at: usize, patch: &[u8]) -> Vec<u8> {
    let image = SnapshotImage {
        shard: 1,
        epoch: 2,
        fingerprint: 3,
        prefix: vec![WalRecord::Genesis { fingerprint: 3 }],
        suffix: vec![WalRecord::RunUntil {
            deadline: SimTime::from_micros(9),
        }],
    };
    let mut bytes = image.encode();
    bytes[at..at + patch.len()].copy_from_slice(patch);
    bytes[44..52].fill(0);
    let crc = crc64(&bytes);
    bytes[44..52].copy_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn a_frame_claiming_u32_max_faults_is_corrupt_when_a_file_store_opens() {
    // Record kind 0x03 (FaultsInjected) followed by an event count of
    // u32::MAX and no events.
    let mut payload = vec![0x03];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let path = std::env::temp_dir().join(format!(
        "aorta-wal-crafted-count-{}.wal",
        std::process::id()
    ));
    std::fs::write(&path, frame(0, &payload)).unwrap();
    let result = FileStore::open(&path);
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(result, Err(WalError::Corrupt { lsn: 0, .. })),
        "a lying count must be a typed error: {:?}",
        result.err()
    );
}

#[test]
fn an_image_claiming_u32_max_frames_twice_is_corrupt() {
    let mut counts = u32::MAX.to_le_bytes().to_vec();
    counts.extend_from_slice(&u32::MAX.to_le_bytes());
    let result = SnapshotImage::decode(&patched_image(28, &counts));
    assert!(
        matches!(result, Err(WalError::Corrupt { .. })),
        "lying frame counts must be a typed error: {result:?}"
    );
}

#[test]
fn an_image_claiming_u64_max_payload_bytes_is_torn() {
    let result = SnapshotImage::decode(&patched_image(36, &u64::MAX.to_le_bytes()));
    assert!(
        matches!(result, Err(WalError::TornFrame { .. })),
        "a lying payload length must be a typed error: {result:?}"
    );
}
