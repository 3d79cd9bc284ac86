//! # aorta-wal — durable control plane for the Aorta engine
//!
//! A deterministic, append-only, checksummed write-ahead log plus a
//! snapshot/recovery manager, in the fail-loudly style of AeroDB: every
//! frame carries a CRC64 over its LSN and payload, readers refuse to
//! interpret damage as data, and recovery *cross-checks* the replayed run
//! against the logged one record-by-record instead of trusting either side.
//!
//! ## Design: command-sourced log with effect verification
//!
//! The Aorta engine is fully deterministic between external inputs (the
//! virtual clock, the seeded RNG, the seeded fault plan), so the log does
//! not need to capture state deltas. It records two interleaved record
//! classes:
//!
//! - **Commands** — the external inputs that drive the engine: SQL batches,
//!   fault-plan injection, clock advances, gateway re-injections and route
//!   probes, device migrations. Replay re-invokes exactly these.
//! - **Effects** — the durable control-plane transitions the engine derives
//!   from those inputs: catalog mutations, rising-edge commits, request
//!   lifecycle transitions, breaker state changes, applied process crashes.
//!   During replay the engine re-emits them and the [`WalHandle`] in verify
//!   mode checks each one against the log; any mismatch is a
//!   [`RecoveryError::Divergence`], never a silent acceptance.
//!
//! Recovery = clone the latest snapshot (a full in-memory state image),
//! replay the log suffix through the engine's own public entry points, and
//! resume at the exact virtual-clock point. Because a simulated process
//! crash has zero observable footprint (no trace or stat change), a
//! crashed-and-recovered run is byte-identical to an uninterrupted one —
//! which is exactly what experiment E11 asserts.

mod codec;
mod error;
mod image;
mod manager;
mod record;
mod sink;
mod store;

pub use codec::{crc64, decode_frame, encode_frame, FRAME_HEADER_LEN, WAL_MAGIC};
pub use error::{RecoveryError, WalError};
pub use image::{SnapshotImage, IMAGE_HEADER_LEN, IMAGE_MAGIC, IMAGE_VERSION};
pub use manager::WalManager;
pub use record::{LifecycleStage, WalRecord, WireRequest};
pub use sink::{WalHandle, WalStats};
pub use store::{FileStore, LogStore, MemStore};
