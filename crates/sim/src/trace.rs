//! A bounded trace buffer for debugging simulations.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::SimTime;

/// One traced occurrence: a timestamp, a subsystem label and a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened on the virtual clock.
    pub time: SimTime,
    /// Which subsystem emitted it (e.g. `"lock"`, `"probe"`, `"camera"`).
    pub subsystem: &'static str,
    /// Human-readable description (cloning a buffer shares the text).
    pub message: Arc<str>,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.time, self.subsystem, self.message)
    }
}

/// A fixed-capacity ring buffer of [`TraceEvent`]s.
///
/// When full, the oldest events are dropped. Tests assert on traces to verify
/// *why* the system behaved a certain way (e.g. that a probe timed out before
/// a device was excluded from optimization).
///
/// # Example
///
/// ```
/// use aorta_sim::{SimTime, TraceBuffer};
///
/// let mut trace = TraceBuffer::with_capacity(100);
/// trace.emit(SimTime::ZERO, "probe", "camera-1 timed out");
/// assert!(trace.any("probe", "timed out"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
            enabled: true,
        }
    }

    /// A disabled buffer that records nothing (zero overhead in benches).
    pub fn disabled() -> Self {
        TraceBuffer {
            events: VecDeque::new(),
            capacity: 0,
            dropped: 0,
            enabled: false,
        }
    }

    /// Whether this buffer records events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event, evicting the oldest if at capacity.
    pub fn emit(&mut self, time: SimTime, subsystem: &'static str, message: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            time,
            subsystem,
            message: Arc::from(message.into()),
        });
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events have been evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// True if any retained event from `subsystem` contains `needle`.
    pub fn any(&self, subsystem: &str, needle: &str) -> bool {
        self.events
            .iter()
            .any(|e| e.subsystem == subsystem && e.message.contains(needle))
    }

    /// Counts retained events from `subsystem`.
    pub fn count(&self, subsystem: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.subsystem == subsystem)
            .count()
    }

    /// Discards all retained events (keeps the drop counter).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Renders every retained event as one line each, oldest first.
    ///
    /// Determinism tests compare two runs' renderings byte for byte.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_finds() {
        let mut t = TraceBuffer::with_capacity(10);
        t.emit(SimTime::ZERO, "lock", "camera-0 locked by query 3");
        t.emit(SimTime::from_micros(5), "lock", "camera-0 unlocked");
        assert_eq!(t.len(), 2);
        assert!(t.any("lock", "unlocked"));
        assert!(!t.any("probe", "unlocked"));
        assert_eq!(t.count("lock"), 2);
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut t = TraceBuffer::with_capacity(3);
        for i in 0..5 {
            t.emit(SimTime::from_micros(i), "s", format!("event {i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.iter().next().unwrap();
        assert_eq!(&*first.message, "event 2");
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut t = TraceBuffer::disabled();
        t.emit(SimTime::ZERO, "s", "x");
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn display_format() {
        let e = TraceEvent {
            time: SimTime::from_micros(1_500_000),
            subsystem: "probe",
            message: "ok".into(),
        };
        assert_eq!(e.to_string(), "[1.500s] probe: ok");
    }

    #[test]
    fn clear_keeps_drop_count() {
        let mut t = TraceBuffer::with_capacity(1);
        t.emit(SimTime::ZERO, "a", "1");
        t.emit(SimTime::ZERO, "a", "2");
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }
}
