//! Device-side operator pushdown programs.
//!
//! The paper's in-network processing argument (§2, §3.2) is that a mote can
//! evaluate simple predicates and keep small amounts of aggregate state
//! locally, so a sample whose predicates cannot possibly trigger any
//! registered query never pays the multi-hop radio cost of shipping its
//! full payload — only a one-byte suppression marker travels.
//!
//! This module holds the *program* representation and its evaluation
//! semantics, shared between the engine's placement pass (which compiles
//! registered queries into per-kind programs) and the accounting layer
//! (which decides ship-vs-suppress per scanned sample):
//!
//! * [`PushStep`] — one pushed conjunct: a comparison over the current
//!   sample's attribute ([`PushTerm::Attr`]) or over a windowed aggregate of
//!   the device's recent samples ([`PushTerm::Window`]),
//! * [`PushPrefix`] — the pushable *prefix* of one query's conjunct list,
//!   evaluated in order with short-circuit AND exactly like the engine,
//! * [`PushProgram`] — all prefixes per device kind plus the set of kinds
//!   eligible for suppression at all,
//! * [`WindowState`]/[`WindowBank`] — the device-resident sliding windows
//!   backing `AGG(attr) OVER LAST n` aggregates.
//!
//! The safety property is *preservation by construction*: a sample is
//! suppressed only when **every** query watching its kind fails within its
//! pushed prefix — and since the prefix is a prefix of the query's AND
//! chain, the engine's own evaluation would have short-circuited to false
//! on the same conjunct. Anything uncertain (evaluation error, id-less
//! tuple, empty prefix) ships.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use aorta_data::{Schema, Tuple, Value};

use crate::DeviceKind;

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
        Self::fold(self.samples.iter().copied(), agg)
    }

    /// The aggregate the window *would* produce after pushing `extra` —
    /// a read-only preview used by the ship/suppress decision, which runs
    /// before the engine's own window advance.
    pub fn aggregate_with(&self, agg: PushAgg, extra: Option<f64>) -> Option<Value> {
        let skip = if self.samples.len() == self.cap { 1 } else { 0 };
        Self::fold(
            self.samples
                .iter()
                .copied()
                .skip(skip)
                .chain(std::iter::once(extra)),
            agg,
        )
    }

    fn fold(samples: impl Iterator<Item = Option<f64>>, agg: PushAgg) -> Option<Value> {
        let mut count = 0u64;
        let mut sum = 0.0f64;
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for s in samples.flatten() {
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

/// All device-resident windows, keyed by (query id, conjunct index, source
/// device id). The bank models per-device buffers: a window advances on
/// every sample its device takes, whether or not the sample ships.
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

    /// The aggregate `(query, slot, source)` would hold after pushing
    /// `extra` — read-only, for the pre-advance ship/suppress decision.
    pub fn peek(
        &self,
        query: u32,
        slot: usize,
        source: i64,
        cap: u32,
        agg: PushAgg,
        extra: Option<f64>,
    ) -> Option<Value> {
        match self.states.get(&(query, slot, source)) {
            Some(w) => w.aggregate_with(agg, extra),
            None => WindowState::new(cap).aggregate_with(agg, extra),
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

/// The operand of a pushed comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum PushTerm {
    /// The current sample's value of the named attribute.
    Attr(String),
    /// A windowed aggregate of the device's recent samples.
    Window {
        /// The aggregate function.
        agg: PushAgg,
        /// The aggregated attribute.
        attr: String,
        /// Window length in samples.
        window: u32,
        /// The owning conjunct's index — the [`WindowBank`] key slot.
        slot: usize,
    },
}

/// Marker error: a pushed step could not be decided at the device (type
/// mismatch, unknown attribute). The only sound response is to ship the
/// sample — mirroring the engine's error-is-not-false rule — so the error
/// carries no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Undecidable;

/// One pushed conjunct: `term op constant`.
#[derive(Debug, Clone, PartialEq)]
pub struct PushStep {
    /// Left operand.
    pub term: PushTerm,
    /// Comparison operator.
    pub op: PushOp,
    /// Right operand (a literal constant).
    pub constant: Value,
}

impl PushStep {
    /// Evaluates the step against one sample. `Err(Undecidable)` means the
    /// comparison could not be decided (type mismatch, unknown attribute)
    /// — the caller must ship, mirroring the engine's error-is-not-false
    /// rule.
    pub fn eval(
        &self,
        schema: &Schema,
        tuple: &Tuple,
        query: u32,
        source: i64,
        bank: &WindowBank,
    ) -> Result<bool, Undecidable> {
        match &self.term {
            PushTerm::Attr(attr) => {
                let idx = schema.index_of(attr).ok_or(Undecidable)?;
                match tuple.get(idx) {
                    // NULL never matches and never errors, like the
                    // engine's NULL-comparison path.
                    None | Some(Value::Null) => Ok(false),
                    Some(v) => match v.compare(&self.constant) {
                        Ok(ord) => Ok(self.op.matches(ord)),
                        Err(_) => Err(Undecidable),
                    },
                }
            }
            PushTerm::Window {
                agg,
                attr,
                window,
                slot,
            } => {
                let idx = schema.index_of(attr).ok_or(Undecidable)?;
                let sample = numeric_sample(tuple.get(idx));
                match bank.peek(query, *slot, source, *window, *agg, sample) {
                    // No numeric sample in the window: the aggregate is
                    // undefined and the conjunct evaluates false.
                    None => Ok(false),
                    Some(v) => match v.compare(&self.constant) {
                        Ok(ord) => Ok(self.op.matches(ord)),
                        Err(_) => Err(Undecidable),
                    },
                }
            }
        }
    }
}

/// The pushable prefix of one query's event-conjunct list.
#[derive(Debug, Clone, PartialEq)]
pub struct PushPrefix {
    /// The owning query.
    pub query_id: u32,
    /// Pushed conjuncts, in the query's AND order.
    pub steps: Vec<PushStep>,
}

impl PushPrefix {
    /// Short-circuit AND over the steps. `Ok(true)` = prefix holds (ship),
    /// `Ok(false)` = some step failed cleanly (this query cannot fire),
    /// `Err(Undecidable)` = undecidable (ship).
    pub fn eval(
        &self,
        schema: &Schema,
        tuple: &Tuple,
        source: i64,
        bank: &WindowBank,
    ) -> Result<bool, Undecidable> {
        for step in &self.steps {
            if !step.eval(schema, tuple, self.query_id, source, bank)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The compiled per-kind pushdown program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PushProgram {
    /// One prefix per registered query, grouped by the query's event kind.
    pub prefixes: BTreeMap<DeviceKind, Vec<PushPrefix>>,
    /// Kinds whose samples may be suppressed at all: event kinds that are
    /// not any query's action-target (device) kind — device-part tuples
    /// feed the candidate join and must always ship.
    pub suppressible: BTreeSet<DeviceKind>,
}

impl PushProgram {
    /// True when no query contributes a prefix.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Decides whether a device of `kind` ships this sample's full payload.
    ///
    /// Ships when the kind is not suppressible, the tuple has no usable id
    /// (the engine must still observe and count it), any watching query has
    /// an empty prefix, or any prefix passes or errors. Suppresses only
    /// when every watching query's prefix fails cleanly.
    pub fn ships(
        &self,
        kind: DeviceKind,
        schema: &Schema,
        tuple: &Tuple,
        bank: &WindowBank,
    ) -> bool {
        if !self.suppressible.contains(&kind) {
            return true;
        }
        let Some(prefixes) = self.prefixes.get(&kind) else {
            return true;
        };
        let source = match schema.index_of("id").and_then(|i| tuple.get(i)) {
            Some(Value::Int(i)) => *i,
            _ => return true, // id-less samples always ship
        };
        for prefix in prefixes {
            if prefix.steps.is_empty() {
                return true;
            }
            match prefix.eval(schema, tuple, source, bank) {
                Ok(true) | Err(Undecidable) => return true,
                Ok(false) => {}
            }
        }
        false
    }

    /// Advances every pushed window with this sample, ship or suppress: the
    /// device took the sample either way, and window slots are device-resident
    /// state that must track the samples the device observed — exactly how the
    /// engine advances `plan.windowed` unconditionally before the conjunct
    /// walk. Id-less samples carry no per-source window and are skipped, again
    /// matching the engine.
    pub fn advance_windows(
        &self,
        kind: DeviceKind,
        schema: &Schema,
        tuple: &Tuple,
        bank: &mut WindowBank,
    ) {
        let Some(prefixes) = self.prefixes.get(&kind) else {
            return;
        };
        let source = match schema.index_of("id").and_then(|i| tuple.get(i)) {
            Some(Value::Int(i)) => *i,
            _ => return,
        };
        for prefix in prefixes {
            for step in &prefix.steps {
                if let PushTerm::Window {
                    attr, window, slot, ..
                } = &step.term
                {
                    let sample = numeric_sample(schema.index_of(attr).and_then(|i| tuple.get(i)));
                    bank.advance(prefix.query_id, *slot, source, *window, sample);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_data::{AttrKind, ValueType};

    fn schema() -> Schema {
        Schema::builder("sensor")
            .attr("id", ValueType::Int, AttrKind::NonSensory)
            .attr("accel_x", ValueType::Int, AttrKind::Sensory)
            .attr("label", ValueType::Str, AttrKind::Sensory)
            .build()
    }

    fn tuple(id: i64, accel: Value) -> Tuple {
        Tuple::new(vec![Value::Int(id), accel, Value::Null])
    }

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
    fn aggregate_with_previews_the_next_push() {
        let mut w = WindowState::new(2);
        w.push(Some(10.0));
        w.push(Some(20.0));
        // Preview: pushing 30 evicts 10, window = [20, 30].
        assert_eq!(
            w.aggregate_with(PushAgg::Avg, Some(30.0)),
            Some(Value::Float(25.0))
        );
        // The preview did not mutate.
        assert_eq!(w.aggregate(PushAgg::Avg), Some(Value::Float(15.0)));
        w.push(Some(30.0));
        assert_eq!(w.aggregate(PushAgg::Avg), Some(Value::Float(25.0)));
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

    #[test]
    fn attr_step_matches_null_and_mismatch_semantics() {
        let s = schema();
        let bank = WindowBank::new();
        let step = PushStep {
            term: PushTerm::Attr("accel_x".into()),
            op: PushOp::Gt,
            constant: Value::Int(500),
        };
        let hit = tuple(0, Value::Int(600));
        let miss = tuple(0, Value::Int(400));
        let null = tuple(0, Value::Null);
        assert_eq!(step.eval(&s, &hit, 0, 0, &bank), Ok(true));
        assert_eq!(step.eval(&s, &miss, 0, 0, &bank), Ok(false));
        assert_eq!(step.eval(&s, &null, 0, 0, &bank), Ok(false));
        // Type mismatch is an error, never false.
        let mismatch = PushStep {
            term: PushTerm::Attr("accel_x".into()),
            op: PushOp::Gt,
            constant: Value::Str("high".into()),
        };
        assert_eq!(mismatch.eval(&s, &hit, 0, 0, &bank), Err(Undecidable));
    }

    #[test]
    fn program_suppresses_only_when_every_prefix_fails() {
        let s = schema();
        let mut bank = WindowBank::new();
        let mut program = PushProgram::default();
        program.suppressible.insert(DeviceKind::Sensor);
        program.prefixes.insert(
            DeviceKind::Sensor,
            vec![
                PushPrefix {
                    query_id: 0,
                    steps: vec![PushStep {
                        term: PushTerm::Attr("accel_x".into()),
                        op: PushOp::Gt,
                        constant: Value::Int(500),
                    }],
                },
                PushPrefix {
                    query_id: 1,
                    steps: vec![PushStep {
                        term: PushTerm::Window {
                            agg: PushAgg::Avg,
                            attr: "accel_x".into(),
                            window: 2,
                            slot: 0,
                        },
                        op: PushOp::Ge,
                        constant: Value::Int(100),
                    }],
                },
            ],
        );
        // Both prefixes fail (20 <= 500; avg-with-current 20 < 100).
        assert!(!program.ships(DeviceKind::Sensor, &s, &tuple(3, Value::Int(20)), &bank));
        // The direct comparison passes.
        assert!(program.ships(DeviceKind::Sensor, &s, &tuple(3, Value::Int(600)), &bank));
        // The window fills with large samples: the aggregate prefix passes
        // even though the current sample fails the direct comparison.
        bank.advance(1, 0, 3, 2, Some(400.0));
        bank.advance(1, 0, 3, 2, Some(400.0));
        assert!(program.ships(DeviceKind::Sensor, &s, &tuple(3, Value::Int(20)), &bank));
        // Id-less samples always ship.
        let idless = Tuple::new(vec![Value::Null, Value::Int(0), Value::Null]);
        assert!(program.ships(DeviceKind::Sensor, &s, &idless, &bank));
        // Non-suppressible kinds always ship.
        assert!(program.ships(DeviceKind::Camera, &s, &tuple(3, Value::Int(20)), &bank));
    }

    #[test]
    fn empty_prefix_forces_shipping() {
        let s = schema();
        let bank = WindowBank::new();
        let mut program = PushProgram::default();
        program.suppressible.insert(DeviceKind::Sensor);
        program.prefixes.insert(
            DeviceKind::Sensor,
            vec![
                PushPrefix {
                    query_id: 0,
                    steps: vec![PushStep {
                        term: PushTerm::Attr("accel_x".into()),
                        op: PushOp::Gt,
                        constant: Value::Int(500),
                    }],
                },
                // A query the placement pass could not push at all.
                PushPrefix {
                    query_id: 1,
                    steps: Vec::new(),
                },
            ],
        );
        assert!(program.ships(DeviceKind::Sensor, &s, &tuple(3, Value::Int(20)), &bank));
    }
}
