//! The snapshot/recovery manager: owns one shard's log handle plus a
//! one-slot vault — the latest snapshot, keyed by log position. Every
//! reader wants the newest snapshot only, so each one replaces the
//! previous one: a shard holds at most one image however long it runs.
//!
//! A snapshot is a *position*: the frame count at which it was taken,
//! which partitions the log into "already reflected" and "replay this".
//! Snapshots are taken *between* host commands — always a safe point: no
//! record is ever emitted mid-snapshot, so the position partitions the
//! log exactly. A snapshot carries a state *image* only where in-place
//! recovery can read one.
//!
//! Two snapshot triggers:
//! - **cadence** — every `snapshot_every` appended frames;
//! - **migration barrier** — forced immediately after a device migration,
//!   because a `MigrateIn` record cannot be replayed from bytes alone
//!   (adopted device state is a live image). The barrier guarantees no
//!   replay suffix ever crosses one, so it always takes an image.
//!
//! A manager built without cadence images marks positions only until its
//! first barrier, and keeps images on cadence from then on. The cluster
//! builds its managers that way under failover: there a log without a
//! `MigrateIn` is rebuilt from genesis on another host, and only a log
//! holding one — a log that passed a barrier — is recovered in place.

use crate::error::WalError;
use crate::record::WalRecord;
use crate::sink::{WalHandle, WalStats};

/// Snapshot vault + log handle for one shard. `S` is the image type
/// (the cluster instantiates it with a boxed engine image).
pub struct WalManager<S> {
    handle: WalHandle,
    /// (frame position, state image) of the latest snapshot. The image is
    /// `None` for a cadence mark taken before this manager keeps images.
    vault: Option<(u64, Option<S>)>,
    snapshot_every: usize,
    /// Whether a cadence snapshot builds an image: set at construction,
    /// or by the first barrier.
    cadence_images: bool,
    /// Frame index at the last snapshot (or genesis).
    last_snapshot_at: u64,
    snapshots_taken: u64,
}

impl<S> WalManager<S> {
    /// A manager over `handle`, snapshotting every `snapshot_every` frames.
    /// Without `cadence_images`, a cadence snapshot marks its position
    /// and builds no image until the first [`Self::force_snapshot`].
    pub fn new(handle: WalHandle, snapshot_every: usize, cadence_images: bool) -> Self {
        let last_snapshot_at = handle.frame_count() as u64;
        WalManager {
            handle,
            vault: None,
            snapshot_every: snapshot_every.max(1),
            cadence_images,
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

    /// Takes a snapshot now if the cadence says one is due; `image` runs
    /// only if this manager keeps cadence images.
    pub fn maybe_snapshot(&mut self, image: impl FnOnce() -> S) {
        if self.position() - self.last_snapshot_at >= self.snapshot_every as u64 {
            self.snapshot(self.cadence_images.then_some(image));
        }
    }

    /// Takes a snapshot with an image unconditionally (the migration
    /// barrier). Cadence snapshots keep images from then on.
    pub fn force_snapshot(&mut self, image: impl FnOnce() -> S) {
        self.cadence_images = true;
        self.snapshot(Some(image));
    }

    fn snapshot(&mut self, image: Option<impl FnOnce() -> S>) {
        // The position promises every frame below it is immutable, so a
        // later `RunUntil` must not coalesce into the current tail frame.
        self.handle.seal_tail();
        let at = self.position();
        // The old image goes before its replacement is built, so the
        // allocator reuses its blocks. One at the same position was the
        // same snapshot — the newer image reflects the same log prefix.
        let retaken = self.vault.take().is_some_and(|(old, _)| old == at);
        self.vault = Some((at, image.map(|build| build())));
        if !retaken {
            self.last_snapshot_at = at;
            self.snapshots_taken += 1;
        }
    }

    /// The most recent snapshot's frame position and its image, if it
    /// has one.
    pub fn latest_snapshot(&self) -> Option<(u64, Option<&S>)> {
        self.vault.as_ref().map(|(at, s)| (*at, s.as_ref()))
    }

    /// Snapshots taken so far, with or without an image.
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

    fn edge(i: u32) -> WalRecord {
        WalRecord::EdgeCommit {
            query_id: i,
            source: 0,
        }
    }

    #[test]
    fn cadence_and_barrier_snapshots() {
        let h = WalHandle::new(Box::new(MemStore::new()));
        let mut m: WalManager<u64> = WalManager::new(h.clone(), 3, true);
        for i in 0..7 {
            h.append(edge(i));
            m.maybe_snapshot(|| u64::from(i));
        }
        // Snapshots at frame 3 and frame 6.
        assert_eq!(m.snapshots_taken(), 2);
        assert_eq!(m.latest_snapshot(), Some((6, Some(&5))));
        m.force_snapshot(|| 99);
        assert_eq!(m.latest_snapshot(), Some((7, Some(&99))));
    }

    #[test]
    fn a_cadence_mark_without_images_is_a_position() {
        let h = WalHandle::new(Box::new(MemStore::new()));
        let mut m: WalManager<u64> = WalManager::new(h.clone(), 3, false);
        for i in 0..5 {
            h.append(edge(i));
            m.maybe_snapshot(|| unreachable!("no reader for a cadence image"));
        }
        h.append(WalRecord::RunUntil {
            deadline: SimTime::from_micros(1),
        });
        m.maybe_snapshot(|| unreachable!("no reader for a cadence image"));
        assert_eq!(m.snapshots_taken(), 2);
        assert_eq!(m.latest_snapshot(), Some((6, None)));
        // The mark sealed the tail like an imaged snapshot: the next
        // advance is a frame of its own, above the mark's position.
        h.append(WalRecord::RunUntil {
            deadline: SimTime::from_micros(2),
        });
        assert_eq!(m.position(), 7);
    }

    #[test]
    fn a_barrier_at_a_mark_replaces_it_and_counts_once() {
        let h = WalHandle::new(Box::new(MemStore::new()));
        let mut m: WalManager<u64> = WalManager::new(h.clone(), 3, false);
        for i in 0..3 {
            h.append(edge(i));
            m.maybe_snapshot(|| unreachable!("no reader for a cadence image"));
        }
        assert_eq!(m.latest_snapshot(), Some((3, None)));
        assert_eq!(m.snapshots_taken(), 1);
        m.force_snapshot(|| 42);
        assert_eq!(m.latest_snapshot(), Some((3, Some(&42))));
        assert_eq!(m.snapshots_taken(), 1, "same position, same snapshot");
    }

    #[test]
    fn after_a_barrier_the_cadence_keeps_images() {
        let h = WalHandle::new(Box::new(MemStore::new()));
        let mut m: WalManager<u64> = WalManager::new(h.clone(), 3, false);
        h.append(edge(0));
        m.force_snapshot(|| 7);
        assert_eq!(m.latest_snapshot(), Some((1, Some(&7))));
        let mut built = 0;
        for i in 1..7 {
            h.append(edge(i));
            m.maybe_snapshot(|| {
                built += 1;
                u64::from(i)
            });
        }
        assert_eq!(built, 2, "cadence snapshots at frames 4 and 7");
        assert_eq!(m.snapshots_taken(), 3);
        assert_eq!(m.latest_snapshot(), Some((7, Some(&6))));
    }

    #[test]
    fn vault_holds_one_image() {
        use std::sync::Arc;
        // Every image holds one strong count on `alive`.
        let alive = Arc::new(());
        let h = WalHandle::new(Box::new(MemStore::new()));
        let mut m: WalManager<(u64, Arc<()>)> = WalManager::new(h.clone(), 3, true);
        for i in 0..7 {
            h.append(edge(i));
            m.maybe_snapshot(|| {
                // The old image is released before its replacement is built.
                assert_eq!(Arc::strong_count(&alive), 1);
                (u64::from(i), alive.clone())
            });
            assert!(Arc::strong_count(&alive) <= 2);
        }
        let image = |m: &WalManager<(u64, Arc<()>)>| {
            m.latest_snapshot().map(|(at, s)| (at, s.map(|s| s.0)))
        };
        assert_eq!(m.snapshots_taken(), 2);
        assert_eq!(image(&m), Some((6, Some(5))));
        m.force_snapshot(|| (99, alive.clone()));
        assert_eq!(m.snapshots_taken(), 3);
        assert_eq!(image(&m), Some((7, Some(99))));
        // Retaking at the same position replaces the image, not the count.
        m.force_snapshot(|| (100, alive.clone()));
        assert_eq!(m.snapshots_taken(), 3);
        assert_eq!(image(&m), Some((7, Some(100))));
        assert_eq!(Arc::strong_count(&alive), 2, "exactly one image alive");
        drop(m);
        assert_eq!(Arc::strong_count(&alive), 1);
    }

    #[test]
    fn snapshot_seals_the_tail_against_coalescing() {
        let h = WalHandle::new(Box::new(MemStore::new()));
        let mut m: WalManager<u64> = WalManager::new(h.clone(), 100, true);
        h.append(WalRecord::RunUntil {
            deadline: SimTime::from_micros(1),
        });
        m.force_snapshot(|| 7);
        let (at, _) = m.latest_snapshot().unwrap();
        assert_eq!(at, 1);
        // A later advance must append a new frame, not rewrite frame 0 —
        // frame 0 is below the snapshot's position and excluded from its
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
