//! WAL and recovery error types. Every failure is explicit: a torn or
//! corrupt log is an error to surface, never a shorter log to accept.

use std::fmt;

use aorta_data::codec::DecodeError;

/// A log-layer failure: I/O, framing, or checksum damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The store could not be read or written.
    Io(String),
    /// A frame's checksum does not match its payload, or its payload does
    /// not decode (an unknown tag, a short field, trailing bytes) — the
    /// record at this LSN (and everything after it) cannot be trusted.
    Corrupt {
        /// LSN claimed by the damaged frame.
        lsn: u64,
        /// What specifically failed.
        detail: String,
    },
    /// The log ends mid-frame: an append was cut short. The byte offset is
    /// where the partial frame begins.
    TornFrame {
        /// Byte offset of the torn frame.
        offset: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal i/o error: {msg}"),
            WalError::Corrupt { lsn, detail } => {
                write!(f, "wal frame lsn={lsn} is corrupt: {detail}")
            }
            WalError::TornFrame { offset } => {
                write!(f, "wal ends mid-frame at byte {offset} (torn append)")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<DecodeError> for WalError {
    /// A manifest or header field that does not decode is corruption with
    /// no LSN; `decode_frame` maps a payload's error with the frame's LSN.
    fn from(e: DecodeError) -> Self {
        WalError::Corrupt {
            lsn: 0,
            detail: e.to_string(),
        }
    }
}

/// A recovery failure: the log could not be replayed into a state that
/// matches what the log itself claims happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The underlying log could not be read.
    Wal(WalError),
    /// The replayed engine emitted a record that differs from the logged
    /// one at the same position — the log and the replay disagree about
    /// history, so neither can be trusted.
    Divergence {
        /// Index (within the replayed suffix) of the first disagreement.
        at: usize,
        /// The record the log expected.
        expected: String,
        /// The record the replay emitted.
        emitted: String,
    },
    /// Replay consumed every command but logged records remain — the
    /// engine did strictly less than the log says it did.
    Leftover {
        /// Number of unconsumed records.
        remaining: usize,
    },
    /// The log's genesis fingerprint does not match the genesis image the
    /// recovery was given — this log belongs to a different run.
    GenesisMismatch {
        /// Fingerprint recorded in the log.
        logged: u64,
        /// Fingerprint of the supplied genesis image.
        supplied: u64,
    },
    /// The replay suffix crosses a device migration *into* this shard.
    /// Adopted device state is a live image, not a loggable record, so the
    /// snapshot barrier taken at migration time is required; without it the
    /// shard is honestly unrecoverable from this log alone.
    UnreplayableMigration {
        /// The migrated device.
        device: String,
    },
    /// A logged request could not be decoded back into an executable one.
    BadRequest(String),
}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "recovery failed reading the log: {e}"),
            RecoveryError::Divergence {
                at,
                expected,
                emitted,
            } => write!(
                f,
                "replay diverged from the log at record {at}: log says {expected}, \
                 replay produced {emitted}"
            ),
            RecoveryError::Leftover { remaining } => write!(
                f,
                "replay finished with {remaining} logged record(s) unconsumed"
            ),
            RecoveryError::GenesisMismatch { logged, supplied } => write!(
                f,
                "log genesis fingerprint {logged:#018x} does not match supplied \
                 genesis {supplied:#018x}"
            ),
            RecoveryError::UnreplayableMigration { device } => write!(
                f,
                "replay suffix crosses a migration-in of {device}; recovery requires \
                 the post-migration snapshot barrier"
            ),
            RecoveryError::BadRequest(msg) => {
                write!(f, "logged request failed to decode: {msg}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}
