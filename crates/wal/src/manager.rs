//! The snapshot/recovery manager: owns one shard's log handle plus a
//! one-slot vault — the latest state-image snapshot, keyed by log position.
//! Every reader wants the newest image only, so each snapshot replaces
//! the previous one: a shard holds one image however long it runs.
//!
//! Snapshots are taken *between* host commands — always a safe point: no
//! record is ever emitted mid-snapshot, so the vault key (the frame count)
//! exactly partitions the log into "already reflected in the snapshot" and
//! "replay this".
//!
//! Two snapshot triggers:
//! - **cadence** — every `snapshot_every` appended frames;
//! - **migration barrier** — forced immediately after a device migration,
//!   because a `MigrateIn` record cannot be replayed from bytes alone
//!   (adopted device state is a live image). The barrier guarantees no
//!   replay suffix ever crosses one.

use crate::error::WalError;
use crate::record::WalRecord;
use crate::sink::{WalHandle, WalStats};

/// Snapshot vault + log handle for one shard. `S` is the snapshot type
/// (the cluster instantiates it with a boxed engine image).
pub struct WalManager<S> {
    handle: WalHandle,
    /// (frame index, state image) of the latest snapshot.
    vault: Option<(u64, S)>,
    snapshot_every: usize,
    /// Frame index at the last snapshot (or genesis).
    last_snapshot_at: u64,
    snapshots_taken: u64,
}

impl<S> WalManager<S> {
    /// A manager over `handle`, snapshotting every `snapshot_every` frames.
    pub fn new(handle: WalHandle, snapshot_every: usize) -> Self {
        let last_snapshot_at = handle.frame_count() as u64;
        WalManager {
            handle,
            vault: None,
            snapshot_every: snapshot_every.max(1),
            last_snapshot_at,
            snapshots_taken: 0,
        }
    }

    /// A clone of the log handle (for attaching to an engine).
    pub fn handle(&self) -> WalHandle {
        self.handle.clone()
    }

    /// Frame position of the log tail.
    pub fn position(&self) -> u64 {
        self.handle.frame_count() as u64
    }

    /// Takes a snapshot now if the cadence says one is due.
    pub fn maybe_snapshot(&mut self, image: impl FnOnce() -> S) {
        if self.position() - self.last_snapshot_at >= self.snapshot_every as u64 {
            self.force_snapshot(image);
        }
    }

    /// Takes a snapshot unconditionally (the migration barrier).
    pub fn force_snapshot(&mut self, image: impl FnOnce() -> S) {
        // The vault key promises every frame below it is immutable, so a
        // later `RunUntil` must not coalesce into the current tail frame.
        self.handle.seal_tail();
        let at = self.position();
        // The old image goes before its replacement is built, so the
        // allocator reuses its blocks. One at the same position was the
        // same snapshot — the newer image reflects the same log prefix.
        let retaken = self.vault.take().is_some_and(|(old, _)| old == at);
        self.vault = Some((at, image()));
        if !retaken {
            self.last_snapshot_at = at;
            self.snapshots_taken += 1;
        }
    }

    /// The most recent snapshot and its frame position.
    pub fn latest_snapshot(&self) -> Option<(u64, &S)> {
        self.vault.as_ref().map(|(at, s)| (*at, s))
    }

    /// Snapshots taken so far.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Decodes the full log.
    ///
    /// # Errors
    ///
    /// [`WalError`] on any frame damage.
    pub fn records(&self) -> Result<Vec<WalRecord>, WalError> {
        self.handle.records()
    }

    /// Appends records produced by replaying past the log's end (the
    /// crash-truncated tail re-derived during recovery).
    pub fn append_all(&self, records: Vec<WalRecord>) {
        for r in records {
            self.handle.append(r);
        }
    }

    /// Stream counters.
    pub fn stats(&self) -> WalStats {
        self.handle.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use aorta_sim::SimTime;

    #[test]
    fn cadence_and_barrier_snapshots() {
        let h = WalHandle::record(Box::new(MemStore::new()), None, "t");
        let mut m: WalManager<u64> = WalManager::new(h.clone(), 3);
        for i in 0..7 {
            h.append(WalRecord::EdgeCommit {
                query_id: i,
                source: 0,
            });
            m.maybe_snapshot(|| u64::from(i));
        }
        // Snapshots at frame 3 and frame 6.
        assert_eq!(m.snapshots_taken(), 2);
        assert_eq!(m.latest_snapshot().map(|(at, s)| (at, *s)), Some((6, 5)));
        m.force_snapshot(|| 99);
        assert_eq!(m.latest_snapshot().map(|(at, s)| (at, *s)), Some((7, 99)));
    }

    #[test]
    fn vault_holds_one_image() {
        use std::sync::Arc;
        // Every image holds one strong count on `alive`.
        let alive = Arc::new(());
        let h = WalHandle::record(Box::new(MemStore::new()), None, "t");
        let mut m: WalManager<(u64, Arc<()>)> = WalManager::new(h.clone(), 3);
        for i in 0..7 {
            h.append(WalRecord::EdgeCommit {
                query_id: i,
                source: 0,
            });
            m.maybe_snapshot(|| {
                // The old image is released before its replacement is built.
                assert_eq!(Arc::strong_count(&alive), 1);
                (u64::from(i), alive.clone())
            });
            assert!(Arc::strong_count(&alive) <= 2);
        }
        assert_eq!(m.snapshots_taken(), 2);
        assert_eq!(m.latest_snapshot().map(|(at, s)| (at, s.0)), Some((6, 5)));
        m.force_snapshot(|| (99, alive.clone()));
        assert_eq!(m.snapshots_taken(), 3);
        assert_eq!(m.latest_snapshot().map(|(at, s)| (at, s.0)), Some((7, 99)));
        // Retaking at the same position replaces the image, not the count.
        m.force_snapshot(|| (100, alive.clone()));
        assert_eq!(m.snapshots_taken(), 3);
        assert_eq!(m.latest_snapshot().map(|(at, s)| (at, s.0)), Some((7, 100)));
        assert_eq!(Arc::strong_count(&alive), 2, "exactly one image alive");
        drop(m);
        assert_eq!(Arc::strong_count(&alive), 1);
    }

    #[test]
    fn snapshot_seals_the_tail_against_coalescing() {
        let h = WalHandle::record(Box::new(MemStore::new()), None, "t");
        let mut m: WalManager<u64> = WalManager::new(h.clone(), 100);
        h.append(WalRecord::RunUntil {
            deadline: SimTime::from_micros(1),
        });
        m.force_snapshot(|| 7);
        let (at, _) = m.latest_snapshot().unwrap();
        assert_eq!(at, 1);
        // A later advance must append a new frame, not rewrite frame 0 —
        // frame 0 is below the vault key and excluded from the snapshot's
        // replay suffix.
        h.append(WalRecord::RunUntil {
            deadline: SimTime::from_micros(2),
        });
        let records = m.records().unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::RunUntil {
                    deadline: SimTime::from_micros(1),
                },
                WalRecord::RunUntil {
                    deadline: SimTime::from_micros(2),
                },
            ]
        );
    }
}
