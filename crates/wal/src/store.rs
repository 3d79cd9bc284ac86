//! Log storage backends: a deterministic in-memory store for simulation and
//! tests, and a real file-backed store that flushes every append.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::decode_frame;
use crate::error::WalError;
use crate::record::WalRecord;

/// Where encoded frames live. The sink talks to stores in whole frames;
/// `replace_tail` exists solely for `RunUntil` tail-coalescing (rewriting
/// the final frame in place bounds log volume under per-event stepping).
pub trait LogStore: Send {
    /// Appends one encoded frame.
    fn append(&mut self, frame: &[u8]) -> Result<(), WalError>;
    /// Replaces the final frame with `frame`. Errors when the log is empty.
    fn replace_tail(&mut self, frame: &[u8]) -> Result<(), WalError>;
    /// Decodes every stored frame, in order. Fails loudly on any damage.
    fn read_all(&mut self) -> Result<Vec<(u64, WalRecord)>, WalError>;
    /// Number of stored frames.
    fn frame_count(&self) -> usize;
    /// Total stored bytes.
    fn byte_len(&self) -> u64;
}

/// Deterministic in-memory store: frames in a vector.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    frames: Vec<Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl LogStore for MemStore {
    fn append(&mut self, frame: &[u8]) -> Result<(), WalError> {
        self.frames.push(frame.to_vec());
        Ok(())
    }

    fn replace_tail(&mut self, frame: &[u8]) -> Result<(), WalError> {
        let tail = self
            .frames
            .last_mut()
            .ok_or_else(|| WalError::Io("replace_tail on empty log".into()))?;
        *tail = frame.to_vec();
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<(u64, WalRecord)>, WalError> {
        let mut out = Vec::with_capacity(self.frames.len());
        for frame in &self.frames {
            let mut off = 0;
            out.push(decode_frame(frame, &mut off)?);
        }
        Ok(out)
    }

    fn frame_count(&self) -> usize {
        self.frames.len()
    }

    fn byte_len(&self) -> u64 {
        self.frames.iter().map(|f| f.len() as u64).sum()
    }
}

/// File-backed store: every append is written and flushed immediately, so
/// the durability point is the return of `append` itself.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    path: PathBuf,
    /// Byte offset where each frame starts, in frame order.
    offsets: Vec<u64>,
    /// End of the written bytes.
    end: u64,
}

impl FileStore {
    /// Creates (truncating) a fresh log file.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| WalError::Io(format!("create {}: {e}", path.display())))?;
        Ok(FileStore {
            file,
            path,
            offsets: Vec::new(),
            end: 0,
        })
    }

    /// Opens an existing log file, scanning and validating every frame.
    ///
    /// # Errors
    ///
    /// [`WalError`] on I/O failure or any frame damage — an unreadable log
    /// is reported, never silently shortened.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| WalError::Io(format!("open {}: {e}", path.display())))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| WalError::Io(format!("read {}: {e}", path.display())))?;
        let mut offsets = Vec::new();
        let mut off = 0usize;
        while off < buf.len() {
            offsets.push(off as u64);
            decode_frame(&buf, &mut off)?;
        }
        Ok(FileStore {
            file,
            path,
            offsets,
            end: buf.len() as u64,
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_at(&mut self, pos: u64, bytes: &[u8]) -> Result<(), WalError> {
        self.file
            .seek(SeekFrom::Start(pos))
            .and_then(|_| self.file.write_all(bytes))
            .and_then(|_| self.file.flush())
            .map_err(|e| WalError::Io(format!("write {}: {e}", self.path.display())))
    }
}

impl LogStore for FileStore {
    fn append(&mut self, frame: &[u8]) -> Result<(), WalError> {
        self.write_at(self.end, frame)?;
        self.offsets.push(self.end);
        self.end += frame.len() as u64;
        Ok(())
    }

    fn replace_tail(&mut self, frame: &[u8]) -> Result<(), WalError> {
        let &pos = self
            .offsets
            .last()
            .ok_or_else(|| WalError::Io("replace_tail on empty log".into()))?;
        self.file
            .set_len(pos)
            .map_err(|e| WalError::Io(format!("truncate {}: {e}", self.path.display())))?;
        self.write_at(pos, frame)?;
        self.end = pos + frame.len() as u64;
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<(u64, WalRecord)>, WalError> {
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| WalError::Io(format!("seek {}: {e}", self.path.display())))?;
        let mut buf = Vec::new();
        self.file
            .read_to_end(&mut buf)
            .map_err(|e| WalError::Io(format!("read {}: {e}", self.path.display())))?;
        let mut out = Vec::with_capacity(self.offsets.len());
        let mut off = 0usize;
        while off < buf.len() {
            out.push(decode_frame(&buf, &mut off)?);
        }
        Ok(out)
    }

    fn frame_count(&self) -> usize {
        self.offsets.len()
    }

    fn byte_len(&self) -> u64 {
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_frame;
    use aorta_sim::SimTime;

    fn rec(n: u64) -> WalRecord {
        WalRecord::RunUntil {
            deadline: SimTime::from_micros(n),
        }
    }

    #[test]
    fn mem_store_roundtrip() {
        let mut s = MemStore::new();
        for i in 0..5 {
            s.append(&encode_frame(&rec(i), i)).unwrap();
        }
        assert_eq!(s.frame_count(), 5);
        let all = s.read_all().unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all[3], (3, rec(3)));
    }

    #[test]
    fn file_store_survives_reopen() {
        let path = std::env::temp_dir().join(format!("aorta_wal_test_{}.wal", std::process::id()));
        {
            let mut s = FileStore::create(&path).unwrap();
            for i in 0..4 {
                s.append(&encode_frame(&rec(i), i)).unwrap();
            }
            s.replace_tail(&encode_frame(&rec(99), 3)).unwrap();
        }
        let mut s = FileStore::open(&path).unwrap();
        let all = s.read_all().unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all[3], (3, rec(99)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_write_is_torn_never_a_corrupt_prefix() {
        let path = std::env::temp_dir().join(format!("aorta_wal_torn_{}.wal", std::process::id()));
        {
            let mut s = FileStore::create(&path).unwrap();
            for i in 0..3 {
                s.append(&encode_frame(&rec(i), i)).unwrap();
            }
        }
        // Simulate a crash mid-way through the next append's write: half a
        // frame makes it to disk.
        let torn = encode_frame(&rec(3), 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let written_len = bytes.len();
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        // The damage is reported as a torn frame — typed, at the frame
        // boundary — never as corruption of the written prefix.
        match FileStore::open(&path) {
            Err(WalError::TornFrame { offset }) => assert_eq!(offset, written_len as u64),
            other => panic!("expected TornFrame, got {other:?}"),
        }
        // And the written prefix itself still decodes completely.
        let mut off = 0usize;
        let mut survivors = 0;
        while off < written_len {
            decode_frame(&bytes[..written_len], &mut off).unwrap();
            survivors += 1;
        }
        assert_eq!(survivors, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_reopen_rejects_corruption() {
        let path =
            std::env::temp_dir().join(format!("aorta_wal_corrupt_{}.wal", std::process::id()));
        {
            let mut s = FileStore::create(&path).unwrap();
            s.append(&encode_frame(&rec(0), 0)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(WalError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
