//! The sink the engine writes records through. One handle, two modes:
//!
//! - **Record**: encode + append every record to a [`LogStore`], with
//!   `RunUntil` tail-coalescing.
//! - **Verify**: recovery mode. The replaying engine's records are checked
//!   one-by-one against the logged suffix; the first disagreement is
//!   remembered as a divergence and surfaces as a loud
//!   [`RecoveryError`](crate::RecoveryError). Records emitted past the end
//!   of the log (the re-execution of the crash-truncated tail) accumulate
//!   as `appended`, to be written back to the store after recovery.

use std::sync::{Arc, Mutex};

use aorta_obs::SharedMetrics;

use crate::codec::encode_frame;
use crate::error::WalError;
use crate::record::WalRecord;
use crate::store::LogStore;

/// Counters describing one log stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended (coalesced tail rewrites count once).
    pub appends: u64,
    /// Bytes in the store.
    pub bytes: u64,
    /// Frames in the store.
    pub frames: u64,
}

enum SinkState {
    Record {
        store: Box<dyn LogStore>,
        next_lsn: u64,
        /// True when the tail frame is a `RunUntil` (the only coalescible
        /// record — anything else logged in between blocks coalescing and
        /// thereby preserves record order).
        tail_is_run_until: bool,
        appends: u64,
    },
    Verify {
        expected: Vec<WalRecord>,
        cursor: usize,
        appended: Vec<WalRecord>,
        divergence: Option<(usize, String, String)>,
    },
}

/// A cheaply clonable handle to one shard's log stream.
///
/// The engine, the cluster gateway, and the snapshot manager each hold a
/// clone; all record traffic funnels through the same state. One thread
/// writes a shard's log at a time — a pool worker while the shard runs a
/// window, the gateway at the barrier — so the mutex is uncontended; it
/// keeps the handle `Send + Sync`.
#[derive(Clone)]
pub struct WalHandle(Arc<Mutex<SinkState>>);

impl std::fmt::Debug for WalHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.0.lock().expect("wal lock") {
            SinkState::Record { next_lsn, .. } => {
                write!(f, "WalHandle::Record(next_lsn={next_lsn})")
            }
            SinkState::Verify {
                cursor, expected, ..
            } => write!(f, "WalHandle::Verify({cursor}/{})", expected.len()),
        }
    }
}

impl WalHandle {
    /// A recording handle over `store`. A reader of the stream counters
    /// takes them from [`Self::stats`]; nothing is published per append.
    pub fn new(store: Box<dyn LogStore>) -> Self {
        let next_lsn = store.frame_count() as u64;
        WalHandle(Arc::new(Mutex::new(SinkState::Record {
            store,
            next_lsn,
            tail_is_run_until: false,
            appends: 0,
        })))
    }

    /// [`Self::new`] under its old signature: the registry and label are
    /// ignored. The benchmark package under `perf/` still calls it this
    /// way; it goes when that package moves to [`Self::new`].
    pub fn record(
        store: Box<dyn LogStore>,
        _obs: Option<SharedMetrics>,
        _obs_label: impl Into<String>,
    ) -> Self {
        Self::new(store)
    }

    /// A verify-mode handle over the replay suffix.
    pub fn verify(expected: Vec<WalRecord>) -> Self {
        WalHandle(Arc::new(Mutex::new(SinkState::Verify {
            expected,
            cursor: 0,
            appended: Vec::new(),
            divergence: None,
        })))
    }

    /// Appends (record mode) or cross-checks (verify mode) one record.
    pub fn append(&self, record: WalRecord) {
        let mut state = self.0.lock().expect("wal lock");
        match &mut *state {
            SinkState::Record {
                store,
                next_lsn,
                tail_is_run_until,
                appends,
            } => {
                let is_run_until = matches!(record, WalRecord::RunUntil { .. });
                let result = if is_run_until && *tail_is_run_until {
                    // Coalesce: run_until(a); run_until(b) with nothing
                    // logged between is equivalent to run_until(b), so the
                    // tail frame is rewritten in place (same LSN).
                    store.replace_tail(encode_frame(&record, *next_lsn - 1))
                } else {
                    let r = store.append(encode_frame(&record, *next_lsn));
                    if r.is_ok() {
                        *next_lsn += 1;
                        *appends += 1;
                    }
                    r
                };
                // An unwritable log is a hard fault: continuing would let
                // the engine run ahead of its durability point.
                result.unwrap_or_else(|e| panic!("wal append failed: {e}"));
                *tail_is_run_until = is_run_until;
            }
            SinkState::Verify {
                expected,
                cursor,
                appended,
                divergence,
            } => {
                if divergence.is_some() {
                    return; // first disagreement wins; the rest is noise
                }
                if *cursor < expected.len() {
                    if expected[*cursor] == record {
                        *cursor += 1;
                    } else {
                        *divergence =
                            Some((*cursor, expected[*cursor].describe(), record.describe()));
                    }
                } else {
                    // Past the log's end: the replay of the crash-truncated
                    // final clock slice produces genuinely new history.
                    appended.push(record);
                }
            }
        }
    }

    /// Breaks `RunUntil` tail-coalescing (record mode): the next `RunUntil`
    /// appends a fresh frame instead of rewriting the tail in place. The
    /// snapshot manager calls this at every snapshot, image or not,
    /// because the snapshot's position (the frame count at snapshot time)
    /// promises every earlier frame is immutable — a coalescing rewrite of
    /// the tail would change a frame the snapshot's replay suffix excludes.
    pub fn seal_tail(&self) {
        if let SinkState::Record {
            tail_is_run_until, ..
        } = &mut *self.0.lock().expect("wal lock")
        {
            *tail_is_run_until = false;
        }
    }

    /// Record mode: decodes the full log.
    ///
    /// # Errors
    ///
    /// [`WalError`] on damage, or if called on a verify-mode handle.
    pub fn records(&self) -> Result<Vec<WalRecord>, WalError> {
        match &mut *self.0.lock().expect("wal lock") {
            SinkState::Record { store, .. } => {
                Ok(store.read_all()?.into_iter().map(|(_, r)| r).collect())
            }
            SinkState::Verify { .. } => {
                Err(WalError::Io("records() on a verify-mode handle".into()))
            }
        }
    }

    /// Frame count (record mode; 0 in verify mode).
    pub fn frame_count(&self) -> usize {
        match &*self.0.lock().expect("wal lock") {
            SinkState::Record { store, .. } => store.frame_count(),
            SinkState::Verify { .. } => 0,
        }
    }

    /// Stream counters (record mode).
    pub fn stats(&self) -> WalStats {
        match &*self.0.lock().expect("wal lock") {
            SinkState::Record { store, appends, .. } => WalStats {
                appends: *appends,
                bytes: store.byte_len(),
                frames: store.frame_count() as u64,
            },
            SinkState::Verify { .. } => WalStats::default(),
        }
    }

    /// Verify mode: the first disagreement, if any, as
    /// `(index, expected, emitted)`.
    pub fn divergence(&self) -> Option<(usize, String, String)> {
        match &*self.0.lock().expect("wal lock") {
            SinkState::Verify { divergence, .. } => divergence.clone(),
            SinkState::Record { .. } => None,
        }
    }

    /// Verify mode: how many expected records have been consumed.
    pub fn verified(&self) -> usize {
        match &*self.0.lock().expect("wal lock") {
            SinkState::Verify { cursor, .. } => *cursor,
            SinkState::Record { .. } => 0,
        }
    }

    /// Verify mode: how many expected records remain unconsumed.
    pub fn remaining(&self) -> usize {
        match &*self.0.lock().expect("wal lock") {
            SinkState::Verify {
                cursor, expected, ..
            } => expected.len() - cursor,
            SinkState::Record { .. } => 0,
        }
    }

    /// Verify mode: takes the records emitted past the log's end.
    pub fn take_appended(&self) -> Vec<WalRecord> {
        match &mut *self.0.lock().expect("wal lock") {
            SinkState::Verify { appended, .. } => std::mem::take(appended),
            SinkState::Record { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use aorta_sim::SimTime;

    fn t(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    #[test]
    fn run_until_coalesces_only_at_the_tail() {
        let h = WalHandle::new(Box::new(MemStore::new()));
        h.append(WalRecord::RunUntil { deadline: t(1) });
        h.append(WalRecord::RunUntil { deadline: t(2) });
        h.append(WalRecord::DrainEscalated);
        h.append(WalRecord::RunUntil { deadline: t(3) });
        h.append(WalRecord::RunUntil { deadline: t(4) });
        let records = h.records().unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::RunUntil { deadline: t(2) },
                WalRecord::DrainEscalated,
                WalRecord::RunUntil { deadline: t(4) },
            ]
        );
    }

    #[test]
    fn verify_checks_then_appends() {
        let expected = vec![
            WalRecord::RunUntil { deadline: t(5) },
            WalRecord::DrainEscalated,
        ];
        let h = WalHandle::verify(expected);
        h.append(WalRecord::RunUntil { deadline: t(5) });
        h.append(WalRecord::DrainEscalated);
        assert_eq!(h.divergence(), None);
        assert_eq!(h.remaining(), 0);
        h.append(WalRecord::CrashApplied { at: t(6) });
        assert_eq!(
            h.take_appended(),
            vec![WalRecord::CrashApplied { at: t(6) }]
        );
    }

    #[test]
    fn verify_reports_first_divergence() {
        let h = WalHandle::verify(vec![WalRecord::DrainEscalated]);
        h.append(WalRecord::RunUntil { deadline: t(1) });
        let (at, expected, emitted) = h.divergence().unwrap();
        assert_eq!(at, 0);
        assert!(expected.contains("DrainEscalated"), "{expected}");
        assert!(emitted.contains("RunUntil"), "{emitted}");
    }
}
