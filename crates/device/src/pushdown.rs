//! Device-resident state and vocabulary of in-network operator pushdown.
//!
//! The paper's in-network processing argument (§2, §3.2) is that a mote can
//! evaluate simple predicates and keep small amounts of aggregate state
//! locally, so a sample whose predicates cannot possibly trigger any
//! registered query never pays the multi-hop radio cost of shipping its
//! full payload — only a one-byte suppression marker travels.
//!
//! The pushed conjuncts themselves are evaluated in exactly one place, the
//! engine's predicate index (`aorta_core::PredicateIndex::plan_epoch`):
//! a query's pushed prefix is the leading comparison and windowed slots of
//! its group, and the ship/suppress decision is a fold over the walk that
//! detection performs anyway. This module holds what that walk shares with
//! the planner:
//!
//! * [`PushOp`]/[`PushAgg`] — the comparison operators and partial
//!   aggregates a windowed conjunct is planned into,
//! * [`SampleRing`]/[`WindowFold`] — the device-resident sliding windows
//!   backing `AGG(attr) OVER LAST n` aggregates: one stamped ring per
//!   (kind, column, n, source), shared by every query that reads it,
//! * [`WindowState`]/[`WindowBank`] — one window per query, the reference
//!   the shared rings are checked against,
//! * [`numeric_sample`] — which sampled values a window aggregates.

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

use aorta_data::Value;

/// Comparison operator of a pushed conjunct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PushOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl PushOp {
    /// Whether an ordering between operand and constant satisfies the op.
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            PushOp::Eq => ord == Ordering::Equal,
            PushOp::Ne => ord != Ordering::Equal,
            PushOp::Lt => ord == Ordering::Less,
            PushOp::Le => ord != Ordering::Greater,
            PushOp::Gt => ord == Ordering::Greater,
            PushOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with its operands swapped: `500 < AVG(x) OVER LAST n`
    /// is the same comparison as `AVG(x) OVER LAST n > 500`.
    pub fn flipped(self) -> PushOp {
        match self {
            PushOp::Eq => PushOp::Eq,
            PushOp::Ne => PushOp::Ne,
            PushOp::Lt => PushOp::Gt,
            PushOp::Le => PushOp::Ge,
            PushOp::Gt => PushOp::Lt,
            PushOp::Ge => PushOp::Le,
        }
    }
}

impl std::fmt::Display for PushOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PushOp::Eq => "=",
            PushOp::Ne => "<>",
            PushOp::Lt => "<",
            PushOp::Le => "<=",
            PushOp::Gt => ">",
            PushOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Partial-aggregate function of a pushed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PushAgg {
    /// Arithmetic mean of the numeric samples in the window.
    Avg,
    /// Largest numeric sample in the window.
    Max,
    /// Smallest numeric sample in the window.
    Min,
    /// Number of numeric samples in the window.
    Count,
}

impl std::fmt::Display for PushAgg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PushAgg::Avg => "AVG",
            PushAgg::Max => "MAX",
            PushAgg::Min => "MIN",
            PushAgg::Count => "COUNT",
        };
        write!(f, "{s}")
    }
}

/// The numeric view of one sampled attribute value: `Int` and `Float`
/// convert, everything else (NULL, strings, booleans, locations) occupies a
/// window slot but contributes no numeric sample.
pub fn numeric_sample(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Int(i)) => Some(*i as f64),
        Some(Value::Float(f)) => Some(*f),
        _ => None,
    }
}

/// One device-resident sliding window: the last `cap` samples of one
/// attribute for one (query, conjunct) pair. Every sample occupies a slot;
/// non-numeric samples (`None`) are excluded from the aggregate but still
/// age out older samples, so "LAST n" always means the last n *samples*,
/// not the last n numeric ones.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowState {
    cap: usize,
    samples: VecDeque<Option<f64>>,
}

impl WindowState {
    /// An empty window holding at most `cap` samples (`cap >= 1`).
    pub fn new(cap: u32) -> WindowState {
        WindowState {
            cap: cap.max(1) as usize,
            samples: VecDeque::new(),
        }
    }

    /// Appends a sample, evicting the oldest once full.
    pub fn push(&mut self, sample: Option<f64>) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Number of occupied slots (numeric or not).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The aggregate over the current window. `COUNT` always yields a
    /// value (zero included); `AVG`/`MAX`/`MIN` yield `None` when the
    /// window holds no numeric sample — the conjunct then evaluates false,
    /// like a NULL comparison.
    pub fn aggregate(&self, agg: PushAgg) -> Option<Value> {
        let mut count = 0u64;
        let mut sum = 0.0f64;
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for s in self.samples.iter().copied().flatten() {
            count += 1;
            sum += s;
            max = max.max(s);
            min = min.min(s);
        }
        match agg {
            PushAgg::Count => Some(Value::Int(count as i64)),
            _ if count == 0 => None,
            PushAgg::Avg => Some(Value::Float(sum / count as f64)),
            PushAgg::Max => Some(Value::Float(max)),
            PushAgg::Min => Some(Value::Float(min)),
        }
    }
}

/// The running fold of a window's numeric samples, oldest first: what every
/// [`PushAgg`] reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowFold {
    count: u64,
    sum: f64,
    max: f64,
    min: f64,
}

impl Default for WindowFold {
    fn default() -> WindowFold {
        WindowFold {
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
        }
    }
}

impl WindowFold {
    /// Folds one more sample in; a non-numeric one (`None`) changes nothing.
    fn add(&mut self, sample: Option<f64>) {
        if let Some(s) = sample {
            self.count += 1;
            self.sum += s;
            self.max = self.max.max(s);
            self.min = self.min.min(s);
        }
    }

    /// The aggregate over the folded samples, with the same `None` rules as
    /// [`WindowState::aggregate`].
    pub fn aggregate(&self, agg: PushAgg) -> Option<Value> {
        match agg {
            PushAgg::Count => Some(Value::Int(self.count as i64)),
            _ if self.count == 0 => None,
            PushAgg::Avg => Some(Value::Float(self.sum / self.count as f64)),
            PushAgg::Max => Some(Value::Float(self.max)),
            PushAgg::Min => Some(Value::Float(self.min)),
        }
    }
}

/// One source's shared window: the last `cap` samples of one attribute, each
/// stamped with its arrival order. Every query aggregating that attribute
/// over `LAST cap` reads the same ring; one registered at mark `m` folds only
/// the samples stamped after `m` — exactly the samples, in the same order,
/// a [`WindowState`] of its own opened at `m` would hold.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRing {
    cap: usize,
    samples: VecDeque<(u64, Option<f64>)>,
}

impl SampleRing {
    /// An empty ring holding at most `cap` samples (`cap >= 1`).
    pub fn new(cap: u32) -> SampleRing {
        SampleRing {
            cap: cap.max(1) as usize,
            samples: VecDeque::new(),
        }
    }

    /// Appends a sample stamped `stamp` (stamps must increase), evicting the
    /// oldest once full.
    pub fn push(&mut self, stamp: u64, sample: Option<f64>) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back((stamp, sample));
    }

    /// The stamp of the oldest sample held; `None` when empty.
    pub fn oldest(&self) -> Option<u64> {
        self.samples.front().map(|&(stamp, _)| stamp)
    }

    /// Folds the samples stamped after `mark`, oldest first. They are a
    /// suffix of the ring, since stamps increase.
    pub fn fold_since(&self, mark: u64) -> WindowFold {
        let older = self.samples.partition_point(|&(stamp, _)| stamp <= mark);
        let mut fold = WindowFold::default();
        for &(_, sample) in self.samples.range(older..) {
            fold.add(sample);
        }
        fold
    }

    /// True when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Feeds the ring to a digest: its occupied slots with their stamps,
    /// length-prefixed so runs cannot alias.
    pub fn digest(&self, mut feed: impl FnMut(&[u8])) {
        feed(&self.samples.len().to_le_bytes());
        for &(stamp, sample) in &self.samples {
            feed(&stamp.to_le_bytes());
            feed(&[u8::from(sample.is_some())]);
            if let Some(v) = sample {
                feed(&v.to_bits().to_le_bytes());
            }
        }
    }
}

/// Per-query windows, keyed by (query id, conjunct index, source device id):
/// the layout [`SampleRing`]s replaced, kept as the independent reference
/// the differential tests check the shared rings against. A window advances
/// on every sample its device takes, whether or not the sample ships.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowBank {
    states: BTreeMap<(u32, usize, i64), WindowState>,
}

impl WindowBank {
    /// An empty bank.
    pub fn new() -> WindowBank {
        WindowBank::default()
    }

    /// Appends a sample to the window for `(query, slot, source)`,
    /// creating it with capacity `cap` on first use.
    pub fn advance(&mut self, query: u32, slot: usize, source: i64, cap: u32, sample: Option<f64>) {
        self.states
            .entry((query, slot, source))
            .or_insert_with(|| WindowState::new(cap))
            .push(sample);
    }

    /// The current aggregate for `(query, slot, source)`; an absent window
    /// aggregates like an empty one.
    pub fn aggregate(&self, query: u32, slot: usize, source: i64, agg: PushAgg) -> Option<Value> {
        match self.states.get(&(query, slot, source)) {
            Some(w) => w.aggregate(agg),
            None => WindowState::new(1).aggregate(agg),
        }
    }

    /// Drops every window owned by `query` (the `DROP AQ` path). The map
    /// orders by query first, so the query's windows are one key range and
    /// its siblings' are never visited.
    pub fn drop_query(&mut self, query: u32) {
        let owned = (query, 0, i64::MIN)..=(query, usize::MAX, i64::MAX);
        self.states.extract_if(owned, |_, _| true).for_each(drop);
    }

    /// Number of live windows.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no window is tracked.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_aggregates_over_numeric_samples() {
        let mut w = WindowState::new(3);
        assert_eq!(w.aggregate(PushAgg::Count), Some(Value::Int(0)));
        assert_eq!(w.aggregate(PushAgg::Avg), None);
        w.push(Some(10.0));
        w.push(None); // NULL occupies a slot
        w.push(Some(20.0));
        assert_eq!(w.aggregate(PushAgg::Count), Some(Value::Int(2)));
        assert_eq!(w.aggregate(PushAgg::Avg), Some(Value::Float(15.0)));
        assert_eq!(w.aggregate(PushAgg::Max), Some(Value::Float(20.0)));
        assert_eq!(w.aggregate(PushAgg::Min), Some(Value::Float(10.0)));
        // A fourth push evicts the oldest (10.0).
        w.push(Some(40.0));
        assert_eq!(w.aggregate(PushAgg::Avg), Some(Value::Float(30.0)));
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn bank_keys_windows_per_query_conjunct_source() {
        let mut bank = WindowBank::new();
        bank.advance(1, 0, 7, 2, Some(5.0));
        bank.advance(1, 0, 8, 2, Some(50.0));
        bank.advance(2, 0, 7, 2, Some(500.0));
        assert_eq!(
            bank.aggregate(1, 0, 7, PushAgg::Max),
            Some(Value::Float(5.0))
        );
        assert_eq!(
            bank.aggregate(2, 0, 7, PushAgg::Max),
            Some(Value::Float(500.0))
        );
        assert_eq!(bank.aggregate(3, 0, 7, PushAgg::Count), Some(Value::Int(0)));
        assert_eq!(bank.len(), 3);
        bank.drop_query(1);
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn digest_separates_rings_that_differ_in_one_sample() {
        let bytes = |ring: &SampleRing| {
            let mut out = Vec::new();
            ring.digest(|b| out.extend_from_slice(b));
            out
        };
        let ring = |samples: &[(u64, Option<f64>)]| {
            let mut ring = SampleRing::new(2);
            for &(stamp, sample) in samples {
                ring.push(stamp, sample);
            }
            ring
        };
        let a = ring(&[(1, Some(5.0)), (3, Some(6.0))]);
        assert_eq!(bytes(&a), bytes(&ring(&[(1, Some(5.0)), (3, Some(6.0))])));
        // An evicted sample leaves no trace.
        let evicted = ring(&[(0, Some(9.0)), (1, Some(5.0)), (3, Some(6.0))]);
        assert_eq!(bytes(&a), bytes(&evicted));
        for other in [
            ring(&[(1, Some(5.0)), (3, Some(7.0))]),
            ring(&[(1, Some(5.0)), (3, None)]),
            ring(&[(1, None), (3, Some(6.0))]),
            ring(&[(1, Some(5.0)), (4, Some(6.0))]),
            ring(&[(2, Some(5.0)), (3, Some(6.0))]),
            ring(&[(3, Some(6.0))]),
            SampleRing::new(2),
        ] {
            assert_ne!(bytes(&a), bytes(&other), "{other:?}");
        }
        assert_ne!(
            bytes(&ring(&[(1, None)])),
            bytes(&SampleRing::new(2)),
            "a NULL sample is not an empty ring"
        );
        // Without the NULL flags these two would feed the same words: a
        // NULL's absent value against a value that spells the next stamp.
        assert_ne!(
            bytes(&ring(&[(1, None), (3, Some(6.0))])),
            bytes(&ring(&[
                (1, Some(f64::from_bits(3))),
                (6f64.to_bits(), None)
            ])),
        );
    }

    #[test]
    fn drop_query_removes_exactly_the_dropped_querys_windows() {
        let mut bank = WindowBank::new();
        for query in [0, 4, 5, 6, u32::MAX] {
            for slot in 0..2 {
                for source in [i64::MIN, -1, 0, 9, i64::MAX] {
                    bank.advance(query, slot, source, 2, Some(query as f64));
                }
            }
        }
        assert_eq!(bank.len(), 50);
        bank.drop_query(5);
        assert_eq!(bank.len(), 40, "exactly query 5's ten windows go");
        bank.drop_query(7); // owns nothing
        assert_eq!(bank.len(), 40);
        for query in [0, 4, 6, u32::MAX] {
            for source in [i64::MIN, i64::MAX] {
                assert_eq!(
                    bank.aggregate(query, 1, source, PushAgg::Max),
                    Some(Value::Float(query as f64)),
                    "sibling {query} must survive"
                );
            }
        }
        assert_eq!(bank.aggregate(5, 0, 0, PushAgg::Max), None);
        bank.drop_query(u32::MAX);
        bank.drop_query(0);
        assert_eq!(bank.len(), 20);
    }
}
