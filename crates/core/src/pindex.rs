//! The shared predicate index powering vectorized event detection.
//!
//! The paper's §2 multi-query sharing argument is that many concurrent AQs
//! watch the *same* sensor streams with heavily overlapping predicates, so
//! detection cost should follow the number of *distinct* predicates and
//! event sources, not the number of registered queries. This module
//! supplies that machinery:
//!
//! * every registered AQ's event-part WHERE clause is decomposed into
//!   conjuncts; each conjunct either maps to a **distinct comparison**
//!   (`attribute op constant`) or is a **fallback conjunct** the scalar
//!   evaluator decides. Both are interned and refcounted across queries —
//!   a fallback keyed on (kind, event binding, `Debug` rendering) — so a
//!   fallback shared by many groups is evaluated at most once per tuple
//!   per epoch, and only when some group's walk reaches it,
//! * comparisons are grouped by attribute into lanes; a lane reads its
//!   column once per batch, and each integer threshold compares 64 tuples
//!   per word, branch-free,
//! * queries with identical conjunct lists share one **query group** with a
//!   single rising-edge state, so a firing group fans out to its members
//!   instead of being recomputed per query. That state is two bitsets over
//!   the kind's **source slots**: each event source gets a dense slot the
//!   first time an epoch commits it, in first-seen order, never reused, and
//!   phase A maps a batch tuple to its slot once per kind, then finds the
//!   sources whose state a group may change with word operations over the
//!   batch's slot mask,
//! * a conjunct comparing a **windowed aggregate** (`AGG(attr) OVER LAST n`)
//!   reads a **window family** — one ring of stamped samples per (kind,
//!   column, n, source), shared by every query that aggregates it — from the
//!   **mark** its slot took at registration: the query's aggregate folds the
//!   last ≤ n samples stamped after the mark. Each distinct windowed
//!   comparison (family, aggregate, operator, constant) is interned and
//!   evaluated once per batch over the whole ring views; a slot whose mark
//!   is older than a tuple's view reads that shared verdict, and only the
//!   few cold (query, source) pairs — at most n samples after registration —
//!   fold on their own. A plan with a windowed conjunct is still a group of
//!   its own: two queries registered at different times can disagree while
//!   one of them is cold,
//! * a group's leading comparison and windowed slots are its **pushed
//!   prefix** — what a mote can decide on its own. The walk that detects
//!   events also settles in-network pushdown: a sample is suppressed when
//!   every group watching its kind stopped cleanly inside that prefix.
//!
//! Detection runs in three phases (see `exec.rs`): a batch phase here
//! ([`PredicateIndex::plan_epoch`]) that walks groups over 64-tuple words
//! and touches no engine state beyond advancing the window rings, a
//! per-plan replay phase in the engine that emits the traces and counters
//! of the few *affected* plans (reading the committed edge bits through
//! the same slots), and a commit phase ([`PredicateIndex::commit_epoch`])
//! that assigns new source slots and sets the edge bits that changed.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use aorta_data::{Schema, Tuple, Value};
use aorta_device::pushdown::{numeric_sample, PushAgg, PushOp, SampleRing, WindowFold};
use aorta_device::DeviceKind;
use aorta_sql::ast::Expr;

use crate::expr::{eval_predicate, extract_comparison, CmpOp, Env, EvalContext, VectorizableCmp};
use crate::plan::{AqPlan, WindowedCmp};

/// Canonical, orderable key form of a comparison constant, indexed or
/// windowed (only a windowed one can be `Null`: `extract_comparison` never
/// yields a NULL constant). Floats are keyed by bit pattern: two spellings that compare equal but
/// differ in bits (e.g. `-0.0` vs `0.0`) get separate comparisons — one
/// redundant evaluation, never a wrong answer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ConstKey {
    Null,
    Bool(bool),
    Int(i64),
    FloatBits(u64),
    Str(String),
}

impl ConstKey {
    fn of(v: &Value) -> Option<ConstKey> {
        match v {
            Value::Null => Some(ConstKey::Null),
            Value::Bool(b) => Some(ConstKey::Bool(*b)),
            Value::Int(i) => Some(ConstKey::Int(*i)),
            Value::Float(f) => Some(ConstKey::FloatBits(f.to_bits())),
            Value::Str(s) => Some(ConstKey::Str(s.clone())),
            _ => None,
        }
    }
}

/// Dedup key of one distinct comparison: same kind, attribute, operator and
/// constant ⇒ same interned comparison, whatever query it came from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CmpKey {
    kind: DeviceKind,
    attr: String,
    op: CmpOp,
    constant: ConstKey,
}

/// Dedup key of one fallback conjunct: same kind, event binding and
/// `Debug` rendering ⇒ same interned conjunct, whatever group it came
/// from. `Debug`, never `Display`: `>= 1` and `>= 1.0` display alike but
/// compare differently.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct FallbackKey {
    kind: DeviceKind,
    binding: String,
    rendering: String,
}

/// Dedup key of one window family: slots aggregating the same column of the
/// same kind over the same window length read the same rings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct FamilyKey {
    kind: DeviceKind,
    /// Column of the aggregated attribute in the kind's schema.
    col: usize,
    /// Window length in samples.
    window: u32,
}

/// The shared state of one window family: a ring per source slot of its
/// kind, and the marks of the windowed slots reading it.
#[derive(Debug, Clone, Default)]
struct WindowFamily {
    /// Ring per source slot; empty until the family's first sample of that
    /// source.
    rings: Vec<SampleRing>,
    /// Registration mark → windowed slots holding it.
    marks: BTreeMap<u64, usize>,
}

/// Dedup key of one distinct windowed comparison: same family, aggregate,
/// operator and constant ⇒ same verdict for every warm slot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct WindowedKey {
    family: usize,
    agg: PushAgg,
    op: PushOp,
    constant: ConstKey,
}

/// One live entry of an [`Interner`].
#[derive(Debug, Clone)]
struct Interned<K, V> {
    key: K,
    value: V,
    /// References held: conjunct slots for comparisons and fallbacks,
    /// member queries for groups.
    refs: usize,
}

/// Deduplicated, refcounted entries with stable ids. Interning a live key
/// takes another reference to its id; releasing the last reference frees
/// the id for reuse, so `DROP AQ` churn cannot grow the table.
#[derive(Debug, Clone)]
struct Interner<K, V> {
    /// Entry per id; `None` marks a freed id awaiting reuse.
    entries: Vec<Option<Interned<K, V>>>,
    free: Vec<usize>,
    by_key: BTreeMap<K, usize>,
}

impl<K, V> Default for Interner<K, V> {
    fn default() -> Self {
        Interner {
            entries: Vec::new(),
            free: Vec::new(),
            by_key: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone, V> Interner<K, V> {
    /// Takes one more reference to `key`'s id when the key is live.
    fn acquire(&mut self, key: &K) -> Option<usize> {
        let id = *self.by_key.get(key)?;
        self.get_mut(id).refs += 1;
        Some(id)
    }

    /// Interns an absent key with one reference.
    fn insert(&mut self, key: K, value: V) -> usize {
        let entry = Some(Interned {
            key: key.clone(),
            value,
            refs: 1,
        });
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id] = entry;
                id
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        self.by_key.insert(key, id);
        id
    }

    /// Drops one reference to `id`; returns the entry when it was the last.
    fn release(&mut self, id: usize) -> Option<Interned<K, V>> {
        let entry = self.get_mut(id);
        entry.refs -= 1;
        if entry.refs > 0 {
            return None;
        }
        let entry = self.entries[id].take().expect("live");
        self.by_key.remove(&entry.key);
        self.free.push(id);
        Some(entry)
    }

    fn get(&self, id: usize) -> &Interned<K, V> {
        self.entries[id].as_ref().expect("ids in use are live")
    }

    fn get_mut(&mut self, id: usize) -> &mut Interned<K, V> {
        self.entries[id].as_mut().expect("ids in use are live")
    }

    /// Live entries with their ids, in key order.
    fn iter(&self) -> impl Iterator<Item = (usize, &Interned<K, V>)> {
        self.by_key.values().map(|&id| (id, self.get(id)))
    }

    fn len(&self) -> usize {
        self.by_key.len()
    }

    fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// One past the largest id handed out: the row count of a per-id bitset.
    fn id_bound(&self) -> usize {
        self.entries.len()
    }
}

/// How one conjunct of a query group is evaluated per batch.
#[derive(Debug, Clone)]
enum ConjunctSlot {
    /// Shared comparison: read the batch bitset for this interned id.
    Indexed(usize),
    /// Non-indexable conjunct, interned in the fallback table: the scalar
    /// evaluator decides it the first time a group's walk reaches it for a
    /// tuple; every later walk reads the batch memo.
    Fallback(usize),
    /// Windowed aggregate comparison, interned in the windowed table: a
    /// tuple whose ring view is all newer than `mark` reads the batch
    /// verdict; an older view is folded from the mark on.
    Windowed {
        /// Interned windowed-comparison id.
        cmp: usize,
        /// The arrival counter when the query registered: the query's
        /// window holds only samples stamped after it.
        mark: u64,
    },
}

/// Identity of a query group: queries agree on event kind, event binding and
/// the exact conjunct list (signature = `Debug`-rendered conjuncts, which
/// distinguishes `> 1` from `> 1.0` where `Display` would not). A plan with
/// windowed conjuncts also keys on its query id — while it is cold its
/// windows hold only the samples taken since *it* registered, so it shares
/// no edge state with anybody.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct GroupKey {
    kind: DeviceKind,
    binding: String,
    signature: String,
    windowed_query: Option<u32>,
}

impl GroupKey {
    fn of(plan: &AqPlan) -> GroupKey {
        let mut signature = String::new();
        for (i, c) in plan.event_conjuncts.iter().enumerate() {
            if i > 0 {
                signature.push('\u{1f}');
            }
            signature.push_str(&format!("{c:?}"));
        }
        GroupKey {
            kind: plan.event_kind,
            binding: plan.event_binding.clone(),
            signature,
            windowed_query: (!plan.windowed.is_empty()).then_some(plan.query_id),
        }
    }
}

/// One member query of a group.
#[derive(Debug, Clone)]
struct Member {
    /// Catalog name — phase B iterates affected plans in name order, the
    /// same order the scalar loop visits them.
    name: String,
    /// Sources whose shared edge state was TRUE when this member joined and
    /// which the member has not yet observed in a batch. For these the
    /// member's own edge state is still "absent" (= false), so the shared
    /// state must not be consulted on its behalf; the set shrinks as the
    /// sources reappear in batches and is empty for members that joined a
    /// fresh group.
    pending: BTreeSet<i64>,
}

/// A set of queries with identical detection behaviour, evaluated once per
/// batch and fanned out to every member.
#[derive(Debug, Clone)]
struct QueryGroup {
    slots: Vec<ConjunctSlot>,
    /// `indexed_prefix[i]` = number of `Indexed` slots among the first `i`.
    indexed_prefix: Vec<u32>,
    /// Length of the pushed prefix: the leading non-`Fallback` slots, the
    /// conjuncts a device can decide without the engine. A walk that stops
    /// cleanly at a slot below this cannot fire the group, whatever follows.
    pushed_len: usize,
    /// Member queries by id.
    members: BTreeMap<u32, Member>,
    /// Union of all members' pending sets (fast emptiness check per epoch).
    pending_union: BTreeSet<i64>,
    /// Shared rising-edge state over the kind's source slots: bit `s` of
    /// `observed` is set once the group has seen slot `s`'s source, and bit
    /// `s` of `high` while that source's last observation matched
    /// (`high ⊆ observed`; a never-observed source reads low).
    observed: Vec<u64>,
    high: Vec<u64>,
}

impl QueryGroup {
    /// Committed state of the source in `slot`; `None` when never observed.
    fn edge(&self, slot: u32) -> Option<bool> {
        bit(&self.observed, slot).then(|| bit(&self.high, slot))
    }

    fn observed_count(&self) -> usize {
        popcount(&self.observed) as usize
    }
}

/// Bit `i` of a word-packed set; bits past the end read clear.
fn bit(words: &[u64], i: u32) -> bool {
    words
        .get(i as usize / 64)
        .is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// Sets or clears bit `i` of a word-packed set, growing it as needed.
fn set_bit(words: &mut Vec<u64>, i: u32, on: bool) {
    let w = i as usize / 64;
    if w >= words.len() {
        if !on {
            return;
        }
        words.resize(w + 1, 0);
    }
    let mask = 1u64 << (i % 64);
    if on {
        words[w] |= mask;
    } else {
        words[w] &= !mask;
    }
}

/// One kind's event sources, each with the dense slot its groups' edge bits
/// are addressed by. A slot is assigned when an epoch first commits the
/// source, in first-seen order, and never reused, so the table is bounded
/// by the fleet.
#[derive(Debug, Clone, Default)]
struct SourceSlots {
    /// Source id → slot, in id order (the order the digest walks).
    slot_of: BTreeMap<i64, u32>,
    /// Slot → source id.
    source_of: Vec<i64>,
}

/// The slot number of the `index`-th source of a kind.
fn slot_number(index: usize) -> u32 {
    u32::try_from(index).expect("a kind has fewer than 2^32 event sources")
}

/// A batch tuple's event source: its id and its slot in the kind's source
/// table — for a source first seen this epoch, the slot the commit gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Source {
    pub id: i64,
    pub slot: u32,
}

/// Per-tuple walk outcome of a group's conjunct list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TupleOutcome {
    /// Tuple had no usable id; skipped (counted per member in phase B).
    Idless,
    /// Walk stopped at conjunct `idx`: it evaluated false, or errored.
    Stop {
        /// Index of the stopping conjunct.
        idx: usize,
        /// True when the conjunct errored rather than evaluating false.
        error: bool,
    },
    /// Every conjunct held — the tuple matches.
    Matched,
}

/// Conjunct-evaluation bookkeeping for one epoch, in *logical* (per-member)
/// units so the totals line up with what the scalar loop would have done.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EvalTally {
    /// Evaluations served by interned comparisons.
    pub indexed: u64,
    /// Evaluations served by scalar-fallback slots.
    pub fallback: u64,
    /// Total conjunct evaluations (short-circuit aware).
    pub total: u64,
}

/// Phase-A record for one *affected* group.
#[derive(Debug, Clone)]
pub(crate) struct GroupEpoch {
    /// The group's id: phase B reads its committed edge through it
    /// ([`PredicateIndex::committed_high`]) — phase C runs after phase B.
    pub group: usize,
    /// One outcome per tuple of the group's kind, in batch order.
    pub stops: Vec<TupleOutcome>,
    /// Conjunct index → message of the first windowed-slot error there this
    /// epoch. The window has moved on by replay time, so the text the trace
    /// needs cannot be recovered by re-evaluating.
    pub window_errors: BTreeMap<usize, String>,
}

/// What phase C writes, computed by phase A.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochCommit {
    /// Per kind: sources first seen this epoch, in batch order — they take
    /// the next slots of the kind's table.
    new_sources: Vec<(DeviceKind, Vec<i64>)>,
    /// Per group with anything to write: (source slot, matched) in batch
    /// order — the states that changed, and every observed source while
    /// members are pending.
    edges: Vec<(usize, Vec<(u32, bool)>)>,
}

/// Everything phase A computed: replay instructions for affected plans and
/// commit instructions for every group.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochOutcomes {
    /// Affected plans as (name, query id), sorted by name — the order the
    /// scalar loop would visit them.
    pub affected: Vec<(String, u32)>,
    /// Affected query id → index into `groups`.
    pub by_query: BTreeMap<u32, usize>,
    /// Per-affected-group walk outcomes.
    pub groups: Vec<GroupEpoch>,
    /// Pending-source sets for affected members that have any (see
    /// [`Member`]); absent means the member shares the group edge fully.
    pub pending: BTreeMap<u32, BTreeSet<i64>>,
    /// Per kind some group watches: each batch tuple's source (`None` =
    /// id-less).
    pub sources: BTreeMap<DeviceKind, Vec<Option<Source>>>,
    /// New source slots and changed edge bits.
    pub commit: EpochCommit,
    /// Logical conjunct-evaluation counts for the obs counters.
    pub tally: EvalTally,
    /// Per suppressible kind watched by at least one group: whether each
    /// batch tuple is suppressed at its device — it has an id and every
    /// group of the kind stopped cleanly inside its pushed prefix.
    pub suppress: BTreeMap<DeviceKind, Vec<bool>>,
}

/// Packed bit matrix over one scan batch: per interned id, one row of
/// 64-tuple words. Phase A reads it a word at a time, never a bit.
struct BitRows {
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, tuples: usize) -> BitRows {
        let words_per_row = tuples.div_ceil(64);
        BitRows {
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }

    fn set(&mut self, row: usize, t: usize) {
        self.words[row * self.words_per_row + t / 64] |= 1 << (t % 64);
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.words[row * self.words_per_row..][..self.words_per_row]
    }

    fn row_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.words[row * self.words_per_row..][..self.words_per_row]
    }
}

/// Set bits across a run of words.
fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Calls `f` with the index of every set bit of a word-packed set, in
/// ascending order.
fn for_each_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// ORs into `row` the tuples of `mask` whose value in `col` (zero-padded to
/// whole words) satisfies `op` against `c`.
fn pack_matches<T: PartialOrd + Copy>(row: &mut [u64], col: &[T], mask: &[u64], op: CmpOp, c: T) {
    match op {
        CmpOp::Eq => pack(row, col, mask, |v| v == c),
        CmpOp::Ne => pack(row, col, mask, |v| v != c),
        CmpOp::Lt => pack(row, col, mask, |v| v < c),
        CmpOp::Le => pack(row, col, mask, |v| v <= c),
        CmpOp::Gt => pack(row, col, mask, |v| v > c),
        CmpOp::Ge => pack(row, col, mask, |v| v >= c),
    }
}

/// One branch-free loop per word, so 64 comparisons of a threshold
/// vectorise; a word with no such value is skipped.
fn pack<T: Copy>(row: &mut [u64], column: &[T], mask: &[u64], holds: impl Fn(T) -> bool) {
    for ((word, values), &mask) in row.iter_mut().zip(column.chunks_exact(64)).zip(mask) {
        if mask == 0 {
            continue;
        }
        let mut bits = 0u64;
        for (i, &v) in values.iter().enumerate() {
            bits |= u64::from(holds(v)) << i;
        }
        *word |= bits & mask;
    }
}

/// Match and error bits of one table's interned ids over a scan batch.
struct SlotBits {
    matched: BitRows,
    errored: BitRows,
}

impl SlotBits {
    fn new(rows: usize, tuples: usize) -> SlotBits {
        SlotBits {
            matched: BitRows::new(rows, tuples),
            errored: BitRows::new(rows, tuples),
        }
    }
}

/// One window family's view of a scan batch, taken as its rings advanced.
struct FamilyBatch {
    /// Per tuple: the fold of its source's ring right after its own sample
    /// (empty for id-less tuples).
    folds: Vec<WindowFold>,
    /// Per mark some tuple's view holds a sample stamped at or before: those
    /// tuples (one bit each) and their folds from the mark on. A slot whose
    /// mark is absent reads the batch verdicts on every tuple.
    cold: BTreeMap<u64, (Vec<u64>, Vec<WindowFold>)>,
}

/// A windowed comparison's verdict on one fold: `None` when the window has
/// no aggregate (an all-NULL or empty window is false, not an error).
fn window_verdict(
    fold: &WindowFold,
    key: &WindowedKey,
    constant: &Value,
) -> Option<Result<bool, aorta_data::DataError>> {
    let value = fold.aggregate(key.agg)?;
    Some(value.compare(constant).map(|ord| key.op.matches(ord)))
}

/// Advances the rings of every window family of `kind` over a scan batch,
/// in batch order — each tuple with an id stamps one sample — and folds
/// each tuple's view: its source's ring right after its own sample, before
/// any later one. The windowed comparisons over those views are decided on
/// first reach, in the walk.
fn advance_families(
    families: &mut Interner<FamilyKey, WindowFamily>,
    stamps: &mut u64,
    kind: DeviceKind,
    tuples: &[Tuple],
    sources: &[Option<Source>],
) -> BTreeMap<usize, FamilyBatch> {
    let mut views = BTreeMap::new();
    let lo = FamilyKey {
        kind,
        col: 0,
        window: 0,
    };
    let ids: Vec<usize> = families
        .by_key
        .range(lo..)
        .take_while(|(key, _)| key.kind == kind)
        .map(|(_, &id)| id)
        .collect();
    if ids.is_empty() {
        return views;
    }
    let first = *stamps;
    *stamps += sources.iter().flatten().count() as u64;
    for id in ids {
        let entry = families.get_mut(id);
        let (key, family) = (&entry.key, &mut entry.value);
        let mut view = FamilyBatch {
            folds: vec![WindowFold::default(); tuples.len()],
            cold: BTreeMap::new(),
        };
        let mut stamp = first;
        for (t, source) in sources.iter().enumerate() {
            let Some(source) = source else {
                continue;
            };
            stamp += 1;
            let slot = source.slot as usize;
            if family.rings.len() <= slot {
                family
                    .rings
                    .resize_with(slot + 1, || SampleRing::new(key.window));
            }
            let ring = &mut family.rings[slot];
            ring.push(stamp, numeric_sample(tuples[t].get(key.col)));
            let oldest = ring.oldest().expect("just pushed");
            view.folds[t] = ring.fold_since(0);
            for &mark in family.marks.range(oldest..).map(|(mark, _)| mark) {
                let (mask, folds) = view.cold.entry(mark).or_insert_with(|| {
                    (
                        vec![0; tuples.len().div_ceil(64)],
                        vec![WindowFold::default(); tuples.len()],
                    )
                });
                mask[t / 64] |= 1 << (t % 64);
                folds[t] = ring.fold_since(mark);
            }
        }
        views.insert(id, view);
    }
    views
}

/// Phase A's view of one scanned kind.
struct KindBatch {
    /// Every interned comparison of the kind, evaluated up front.
    cmps: SlotBits,
    /// Interned windowed comparisons over each tuple's whole ring view,
    /// decided on first reach like fallbacks; `windowed_done` marks the
    /// (id, tuple) pairs already decided.
    windowed: SlotBits,
    windowed_done: BitRows,
    /// Per window family of the kind, by id.
    families: BTreeMap<usize, FamilyBatch>,
    /// Fallback conjuncts, evaluated on first reach; `fallback_done` marks
    /// the (id, tuple) pairs already decided.
    fallbacks: SlotBits,
    fallback_done: BitRows,
    /// Tuples with a usable id, one bit per tuple.
    with_id: Vec<u64>,
    /// The source slots the batch's tuples occupy, one bit per slot.
    slot_mask: Vec<u64>,
    /// For a suppressible kind: tuples every group so far rejected cleanly
    /// inside its pushed prefix (id-less tuples start, and stay, clear).
    suppress: Option<Vec<u64>>,
}

/// Phase A's buffers, reused across groups and epochs; nothing in them
/// outlives the use that fills it. Per conjunct slot `si`, `stops` holds
/// the tuples whose walk stopped there on a false (row `2 * si`) or an
/// error (`2 * si + 1`).
#[derive(Debug, Clone, Default)]
struct Walk {
    live: Vec<u64>,
    stops: Vec<u64>,
    /// Source slots whose rising-edge state this batch may change.
    interest: Vec<u64>,
    /// A lane's column: `Int` values, non-NaN `Float` values, and which
    /// tuples hold each (the `Int` mask first).
    ints: Vec<i64>,
    floats: Vec<f64>,
    masks: Vec<u64>,
}

impl Walk {
    /// Records slot `si`'s verdict on one word of the live tuples.
    fn settle(&mut self, si: usize, w: usize, matched: u64, errored: u64) {
        let words = self.live.len();
        let live = self.live[w];
        self.stops[2 * si * words + w] = live & !errored & !matched;
        self.stops[(2 * si + 1) * words + w] = live & errored;
        self.live[w] = live & matched & !errored;
    }

    /// Slot `si`'s clean-false and error stops, split.
    fn stopped(&self, si: usize) -> (&[u64], &[u64]) {
        let words = self.live.len();
        self.stops[2 * si * words..][..2 * words].split_at(words)
    }

    /// Per-tuple outcomes in batch order, derived from the stop words.
    fn outcomes(&self, sources: &[Option<Source>], slots: usize) -> Vec<TupleOutcome> {
        let mut stops: Vec<TupleOutcome> = sources
            .iter()
            .map(|s| s.map_or(TupleOutcome::Idless, |_| TupleOutcome::Matched))
            .collect();
        for idx in 0..slots {
            let (clean, error) = self.stopped(idx);
            for (words, error) in [(clean, false), (error, true)] {
                for_each_bit(words, |t| stops[t] = TupleOutcome::Stop { idx, error });
            }
        }
        stops
    }
}

/// Attribute lane: all interned comparisons on one (kind, attribute),
/// split so integer thresholds resolve over buffered column words.
#[derive(Debug, Clone, Default)]
struct AttrLane {
    /// Int-constant comparisons.
    ints: Vec<(i64, CmpOp, usize)>,
    /// Comparisons with non-Int constants: per-comparison `compare()`.
    general: Vec<usize>,
}

/// The shared predicate index: interned comparisons and fallback
/// conjuncts, attribute lanes, query groups with their rising-edge bits,
/// and the per-kind source slots those bits are addressed by.
///
/// Registration mirrors the catalog exactly — [`crate::Aorta`] registers a
/// plan's event conjuncts on `CREATE AQ` and releases them on `DROP AQ`, so
/// the index is empty precisely when no queries are registered.
#[derive(Debug, Clone, Default)]
pub struct PredicateIndex {
    /// Interned comparisons, each holding its constant.
    cmps: Interner<CmpKey, Value>,
    /// Evaluation lanes per (kind, attribute), rebuilt when the interned
    /// set for that attribute changes.
    lanes: BTreeMap<DeviceKind, BTreeMap<String, AttrLane>>,
    /// Interned fallback conjuncts.
    fallbacks: Interner<FallbackKey, Expr>,
    /// Query groups by identity; a group's references are its members.
    groups: Interner<GroupKey, QueryGroup>,
    /// Per kind: the source slots group edge bits and window rings are
    /// addressed by.
    sources: BTreeMap<DeviceKind, SourceSlots>,
    /// Window families, refcounted by the windowed slots reading them.
    families: Interner<FamilyKey, WindowFamily>,
    /// Interned windowed comparisons, each holding its constant.
    windowed: Interner<WindowedKey, Value>,
    /// The arrival counter: the stamp of the latest sample any ring took
    /// (stamps start at 1, so mark 0 precedes every sample).
    stamps: u64,
    /// Phase A's reusable buffers.
    scratch: Walk,
}

impl PredicateIndex {
    /// An empty index.
    pub fn new() -> PredicateIndex {
        PredicateIndex::default()
    }

    /// Number of live distinct comparisons.
    pub fn cmp_count(&self) -> usize {
        self.cmps.len()
    }

    /// Number of query groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of member queries across all groups (= registered AQs).
    pub fn member_count(&self) -> usize {
        self.groups.iter().map(|(_, g)| g.value.members.len()).sum()
    }

    /// True when no queries are registered: no comparisons, no fallback
    /// conjuncts, no window families, no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
            && self.cmps.is_empty()
            && self.fallbacks.is_empty()
            && self.families.is_empty()
    }

    /// Window rings holding samples: one per (window family, source) the
    /// family has sampled.
    pub(crate) fn window_entries(&self) -> usize {
        self.families
            .iter()
            .map(|(_, f)| f.value.rings.iter().filter(|r| !r.is_empty()).count())
            .sum()
    }

    /// Feeds the window state [`crate::Aorta::state_digest`] folds in: the
    /// arrival counter, each family's non-empty rings in family-key and
    /// source-id order, and every windowed slot's mark in group-key order,
    /// length-prefixed so runs cannot alias.
    pub(crate) fn digest_window_state(&self, mut feed: impl FnMut(&[u8])) {
        feed(&self.stamps.to_le_bytes());
        feed(&self.families.len().to_le_bytes());
        for (_, entry) in self.families.iter() {
            let (key, family) = (&entry.key, &entry.value);
            feed(key.kind.table_name().as_bytes());
            feed(&key.col.to_le_bytes());
            feed(&key.window.to_le_bytes());
            let sampled = family.rings.iter().filter(|r| !r.is_empty()).count();
            feed(&sampled.to_le_bytes());
            if sampled == 0 {
                continue;
            }
            for (source, &slot) in &self.sources[&key.kind].slot_of {
                if let Some(ring) = family.rings.get(slot as usize).filter(|r| !r.is_empty()) {
                    feed(&source.to_le_bytes());
                    ring.digest(&mut feed);
                }
            }
        }
        for (_, entry) in self.groups.iter() {
            for slot in &entry.value.slots {
                if let ConjunctSlot::Windowed { mark, .. } = slot {
                    feed(&mark.to_le_bytes());
                }
            }
        }
    }

    /// Rising-edge entries tracked, in per-query units: each group's
    /// observed sources count once per member (one per live (query,
    /// source) pair).
    pub(crate) fn edge_entries(&self) -> usize {
        self.groups
            .iter()
            .map(|(_, g)| g.value.observed_count() * g.value.members.len())
            .sum()
    }

    /// Feeds the rising-edge state [`crate::Aorta::state_digest`] folds in,
    /// in group-key order: each group's observed sources in id order with
    /// their states, then its members' non-empty pending sets,
    /// length-prefixed so runs cannot alias.
    pub(crate) fn digest_edge_state(&self, mut feed: impl FnMut(&[u8])) {
        for (_, entry) in self.groups.iter() {
            let group = &entry.value;
            let observed = group.observed_count();
            feed(&observed.to_le_bytes());
            if observed > 0 {
                for (source, &slot) in &self.sources[&entry.key.kind].slot_of {
                    if let Some(high) = group.edge(slot) {
                        feed(&source.to_le_bytes());
                        feed(&[u8::from(high)]);
                    }
                }
            }
            for (query, member) in &group.members {
                if !member.pending.is_empty() {
                    feed(&query.to_le_bytes());
                    feed(&member.pending.len().to_le_bytes());
                    for source in &member.pending {
                        feed(&source.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Registers a planned query's event conjuncts. Joins an existing group
    /// when an identical conjunct list is already indexed; otherwise interns
    /// the query's comparisons and fallbacks and creates a new group.
    pub(crate) fn register(&mut self, plan: &AqPlan, schema: &Schema) {
        let key = GroupKey::of(plan);
        if let Some(id) = self.groups.acquire(&key) {
            // Sources the shared state already remembers as TRUE would fake
            // a pre-existing edge for the newcomer; defer those (Member).
            let pending = self.high_sources(id);
            let group = &mut self.groups.get_mut(id).value;
            group.pending_union.extend(pending.iter().copied());
            group.members.insert(
                plan.query_id,
                Member {
                    name: plan.name.clone(),
                    pending,
                },
            );
            return;
        }
        let slots: Vec<ConjunctSlot> = plan
            .event_conjuncts
            .iter()
            .enumerate()
            .map(|(idx, conjunct)| {
                if let Some(w) = plan.windowed.iter().find(|w| w.idx == idx) {
                    let col = schema
                        .index_of(&w.attr)
                        .expect("windowed attrs are validated at plan time");
                    ConjunctSlot::Windowed {
                        cmp: self.intern_windowed(plan.event_kind, col, w),
                        mark: self.stamps,
                    }
                } else if let Some(cmp) = extract_comparison(conjunct, &plan.event_binding, schema)
                {
                    ConjunctSlot::Indexed(self.intern_cmp(plan.event_kind, cmp))
                } else {
                    ConjunctSlot::Fallback(self.intern_fallback(plan, conjunct))
                }
            })
            .collect();
        let mut indexed_prefix = Vec::with_capacity(slots.len() + 1);
        indexed_prefix.push(0u32);
        for slot in &slots {
            let prev = *indexed_prefix.last().expect("seeded");
            indexed_prefix.push(prev + u32::from(matches!(slot, ConjunctSlot::Indexed(_))));
        }
        let pushed_len = slots
            .iter()
            .take_while(|s| !matches!(s, ConjunctSlot::Fallback(_)))
            .count();
        let member = Member {
            name: plan.name.clone(),
            pending: BTreeSet::new(),
        };
        self.groups.insert(
            key,
            QueryGroup {
                slots,
                indexed_prefix,
                pushed_len,
                members: BTreeMap::from([(plan.query_id, member)]),
                pending_union: BTreeSet::new(),
                observed: Vec::new(),
                high: Vec::new(),
            },
        );
    }

    /// Releases a dropped query: leaves its group, and when the group
    /// empties, drops its edge state and releases its interned conjuncts.
    pub(crate) fn unregister(&mut self, plan: &AqPlan) {
        let Some(&id) = self.groups.by_key.get(&GroupKey::of(plan)) else {
            return;
        };
        let group = &mut self.groups.get_mut(id).value;
        if group.members.remove(&plan.query_id).is_none() {
            return;
        }
        if !group.pending_union.is_empty() {
            // Recompute the union so it doesn't retain the leaver's sources.
            group.pending_union = group
                .members
                .values()
                .flat_map(|m| m.pending.iter().copied())
                .collect();
        }
        let Some(gone) = self.groups.release(id) else {
            return;
        };
        for slot in &gone.value.slots {
            match slot {
                ConjunctSlot::Indexed(cmp) => self.release_cmp(*cmp),
                ConjunctSlot::Fallback(fallback) => {
                    self.fallbacks.release(*fallback);
                }
                ConjunctSlot::Windowed { cmp, mark } => self.release_windowed(*cmp, *mark),
            }
        }
    }

    /// The sources a group's committed state holds high, read off its
    /// `observed & high` words.
    fn high_sources(&self, group: usize) -> BTreeSet<i64> {
        let entry = self.groups.get(group);
        let mut high = BTreeSet::new();
        let Some(table) = self.sources.get(&entry.key.kind) else {
            return high;
        };
        let words = entry.value.observed.iter().zip(&entry.value.high);
        for (w, (&observed, &is_high)) in words.enumerate() {
            for_each_bit(&[observed & is_high], |i| {
                high.insert(table.source_of[w * 64 + i]);
            });
        }
        high
    }

    fn intern_cmp(&mut self, kind: DeviceKind, cmp: VectorizableCmp) -> usize {
        let key = CmpKey {
            kind,
            attr: cmp.attr,
            op: cmp.op,
            constant: ConstKey::of(&cmp.constant).expect("extraction checked the constant"),
        };
        if let Some(id) = self.cmps.acquire(&key) {
            return id;
        }
        let attr = key.attr.clone();
        let id = self.cmps.insert(key, cmp.constant);
        self.rebuild_lane(kind, &attr);
        id
    }

    fn release_cmp(&mut self, id: usize) {
        if let Some(gone) = self.cmps.release(id) {
            self.rebuild_lane(gone.key.kind, &gone.key.attr);
        }
    }

    /// Interns a windowed comparison, taking one more reference to its
    /// window family (created empty when new) and recording the slot's mark
    /// — the arrival counter now — with the family.
    fn intern_windowed(&mut self, kind: DeviceKind, col: usize, w: &WindowedCmp) -> usize {
        let family_key = FamilyKey {
            kind,
            col,
            window: w.window,
        };
        let family = match self.families.acquire(&family_key) {
            Some(id) => id,
            None => self.families.insert(family_key, WindowFamily::default()),
        };
        *self
            .families
            .get_mut(family)
            .value
            .marks
            .entry(self.stamps)
            .or_default() += 1;
        let key = WindowedKey {
            family,
            agg: w.agg,
            op: w.op,
            constant: ConstKey::of(&w.constant).expect("literals have a key"),
        };
        match self.windowed.acquire(&key) {
            Some(id) => id,
            None => self.windowed.insert(key, w.constant.clone()),
        }
    }

    /// Releases a windowed slot: its comparison, its mark, and its family's
    /// reference — the last one frees the family's rings.
    fn release_windowed(&mut self, cmp: usize, mark: u64) {
        let family = self.windowed.get(cmp).key.family;
        self.windowed.release(cmp);
        let marks = &mut self.families.get_mut(family).value.marks;
        let held = marks.get_mut(&mark).expect("a slot's mark is recorded");
        *held -= 1;
        if *held == 0 {
            marks.remove(&mark);
        }
        self.families.release(family);
    }

    fn intern_fallback(&mut self, plan: &AqPlan, conjunct: &Expr) -> usize {
        let key = FallbackKey {
            kind: plan.event_kind,
            binding: plan.event_binding.clone(),
            rendering: format!("{conjunct:?}"),
        };
        match self.fallbacks.acquire(&key) {
            Some(id) => id,
            None => self.fallbacks.insert(key, conjunct.clone()),
        }
    }

    fn rebuild_lane(&mut self, kind: DeviceKind, attr: &str) {
        let mut lane = AttrLane::default();
        let lo = CmpKey {
            kind,
            attr: attr.to_string(),
            op: CmpOp::Eq,
            constant: ConstKey::Null,
        };
        for (key, &id) in self.cmps.by_key.range(lo..) {
            if key.kind != kind || key.attr != attr {
                break;
            }
            match &key.constant {
                ConstKey::Int(c) => lane.ints.push((*c, key.op, id)),
                _ => lane.general.push(id),
            }
        }
        let by_attr = self.lanes.entry(kind).or_default();
        if lane.ints.is_empty() && lane.general.is_empty() {
            by_attr.remove(attr);
            if by_attr.is_empty() {
                self.lanes.remove(&kind);
            }
        } else {
            by_attr.insert(attr.to_string(), lane);
        }
    }

    /// Maps each batch tuple to its source (`None` without a usable id),
    /// and returns the sources the kind's table does not know yet in
    /// first-seen order: those take the next slots, here and at commit.
    fn map_sources(
        &self,
        kind: DeviceKind,
        tuples: &[Tuple],
        schema: &Schema,
    ) -> (Vec<Option<Source>>, Vec<i64>) {
        let id_idx = schema.index_of("id").expect("catalogs define id");
        let known = self.sources.get(&kind);
        let next = known.map_or(0, |s| s.source_of.len());
        let mut fresh: Vec<i64> = Vec::new();
        let mut fresh_slots: BTreeMap<i64, u32> = BTreeMap::new();
        let mut sources = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            let source = tuple.get(id_idx).and_then(Value::as_i64).map(|id| {
                let slot = match known.and_then(|s| s.slot_of.get(&id)) {
                    Some(&slot) => slot,
                    None => *fresh_slots.entry(id).or_insert_with(|| {
                        fresh.push(id);
                        slot_number(next + fresh.len() - 1)
                    }),
                };
                Source { id, slot }
            });
            sources.push(source);
        }
        (sources, fresh)
    }

    /// Evaluates every interned comparison of `kind` over a scan batch.
    /// Per lane, the column is read once: `Int` and non-NaN `Float` values
    /// into buffers each integer threshold then compares 64 tuples per word
    /// (a float against `c as f64`, which is what `compare()` does), every
    /// other non-NULL value through `compare()` per comparison.
    fn eval_cmps(
        &self,
        kind: DeviceKind,
        tuples: &[Tuple],
        schema: &Schema,
        walk: &mut Walk,
    ) -> SlotBits {
        let mut bits = SlotBits::new(self.cmps.id_bound(), tuples.len());
        let Some(lanes) = self.lanes.get(&kind) else {
            return bits;
        };
        let words = tuples.len().div_ceil(64);
        walk.ints.resize(words * 64, 0);
        walk.floats.resize(words * 64, 0.0);
        let (ints, floats, masks) = (&mut walk.ints, &mut walk.floats, &mut walk.masks);
        for (attr, lane) in lanes {
            let Some(col) = schema.index_of(attr) else {
                continue; // registration checked the schema; defensive only
            };
            masks.clear();
            masks.resize(2 * words, 0);
            let (is_int, is_float) = masks.split_at_mut(words);
            for (t, tuple) in tuples.iter().enumerate() {
                let bit = 1 << (t % 64);
                // NULL (or missing) never matches and never errors, exactly
                // like the scalar NULL-comparison path.
                let Some(v) = tuple.get(col).filter(|v| !v.is_null()) else {
                    continue;
                };
                match v {
                    Value::Int(n) => (ints[t], is_int[t / 64]) = (*n, is_int[t / 64] | bit),
                    Value::Float(x) if !x.is_nan() => {
                        (floats[t], is_float[t / 64]) = (*x, is_float[t / 64] | bit);
                    }
                    // Anything else (a NaN, string, bool, location) goes
                    // through `compare()`, which reproduces the scalar
                    // mixed-type semantics — including its errors.
                    _ => {
                        for &(_, _, id) in &lane.ints {
                            self.eval_general(id, v, &mut bits, t);
                        }
                    }
                }
                for &id in &lane.general {
                    self.eval_general(id, v, &mut bits, t);
                }
            }
            for &(c, op, id) in &lane.ints {
                let row = bits.matched.row_mut(id);
                pack_matches(row, ints, is_int, op, c);
                pack_matches(row, floats, is_float, op, c as f64);
            }
        }
        bits
    }

    fn eval_general(&self, id: usize, value: &Value, bits: &mut SlotBits, t: usize) {
        let entry = self.cmps.get(id);
        match value.compare(&entry.value) {
            Ok(ord) => {
                if entry.key.op.matches(ord) {
                    bits.matched.set(id, t);
                }
            }
            Err(_) => bits.errored.set(id, t),
        }
    }

    /// Phase A: evaluates each distinct comparison once per batch, walks
    /// every group's conjunct list over the batch 64 tuples per word —
    /// deciding a fallback conjunct the first time any walk reaches it for
    /// a tuple — and computes which plans need side effects replayed. The
    /// only state it moves is the window rings and their arrival counter:
    /// every tuple with an id advances its source's ring in each family of
    /// its kind, and a windowed slot reads a tuple's aggregate right after
    /// its own sample — `LAST n` is the last n samples taken, a lossy scan's
    /// NULL included.
    ///
    /// For each kind in `suppressible` the same walk folds the in-network
    /// ship/suppress decision into [`EpochOutcomes::suppress`]: anything
    /// uncertain — an id-less tuple, an erroring conjunct, a group with no
    /// pushed prefix, a kind no group watches — ships.
    pub(crate) fn plan_epoch(
        &mut self,
        cache: &BTreeMap<DeviceKind, Arc<Vec<Tuple>>>,
        ctx: &EvalContext<'_>,
        suppressible: &BTreeSet<DeviceKind>,
    ) -> EpochOutcomes {
        let mut out = EpochOutcomes::default();
        // Per scanned kind, prepared when its first group comes up — so a
        // kind no group watches costs nothing and gets no source slots.
        let mut batches: BTreeMap<DeviceKind, KindBatch> = BTreeMap::new();
        // Scratch reused across groups: the walk's words, and the source
        // slots the current group recorded this batch with the state it
        // recorded last.
        let mut walk = std::mem::take(&mut self.scratch);
        let mut recorded: Vec<u64> = Vec::new();
        let mut recorded_high: Vec<u64> = Vec::new();
        for (gid, entry) in self.groups.iter() {
            let (key, group) = (&entry.key, &entry.value);
            let Some(tuples) = cache.get(&key.kind) else {
                continue; // kind not scanned this epoch: state untouched
            };
            let schema = ctx.registry.schema(key.kind);
            let batch = match batches.entry(key.kind) {
                Entry::Occupied(prepared) => prepared.into_mut(),
                Entry::Vacant(slot) => {
                    let (sources, fresh) = self.map_sources(key.kind, tuples, schema);
                    let known = self.sources.get(&key.kind).map_or(0, |s| s.source_of.len());
                    let mut with_id = vec![0u64; tuples.len().div_ceil(64)];
                    let mut slot_mask = vec![0u64; (known + fresh.len()).div_ceil(64)];
                    for (t, source) in sources.iter().enumerate() {
                        if let Some(source) = source {
                            with_id[t / 64] |= 1 << (t % 64);
                            slot_mask[source.slot as usize / 64] |= 1 << (source.slot % 64);
                        }
                    }
                    let families = advance_families(
                        &mut self.families,
                        &mut self.stamps,
                        key.kind,
                        tuples,
                        &sources,
                    );
                    let fallbacks = self.fallbacks.id_bound();
                    let windowed = self.windowed.id_bound();
                    out.sources.insert(key.kind, sources);
                    if !fresh.is_empty() {
                        out.commit.new_sources.push((key.kind, fresh));
                    }
                    slot.insert(KindBatch {
                        cmps: self.eval_cmps(key.kind, tuples, schema, &mut walk),
                        windowed: SlotBits::new(windowed, tuples.len()),
                        windowed_done: BitRows::new(windowed, tuples.len()),
                        families,
                        fallbacks: SlotBits::new(fallbacks, tuples.len()),
                        fallback_done: BitRows::new(fallbacks, tuples.len()),
                        suppress: suppressible.contains(&key.kind).then(|| with_id.clone()),
                        with_id,
                        slot_mask,
                    })
                }
            };
            let sources = &out.sources[&key.kind];

            // The walk: `live` starts at the tuples with an id and loses,
            // slot by slot, those the conjunct stops.
            let words = batch.with_id.len();
            walk.live.clone_from(&batch.with_id);
            walk.stops.clear();
            walk.stops.resize(2 * group.slots.len() * words, 0);
            let mut window_errors: BTreeMap<usize, String> = BTreeMap::new();
            for (si, slot) in group.slots.iter().enumerate() {
                let any_live = walk.live.iter().any(|&w| w != 0);
                match slot {
                    _ if !any_live => {}
                    ConjunctSlot::Indexed(id) => {
                        for w in 0..words {
                            let matched = batch.cmps.matched.row(*id)[w];
                            walk.settle(si, w, matched, batch.cmps.errored.row(*id)[w]);
                        }
                    }
                    ConjunctSlot::Fallback(id) => {
                        let fallback = self.fallbacks.get(*id);
                        for w in 0..words {
                            let done = &mut batch.fallback_done.row_mut(*id)[w];
                            let todo = walk.live[w] & !*done;
                            *done |= todo;
                            for_each_bit(&[todo], |i| {
                                let t = w * 64 + i;
                                let env =
                                    Env::new().bind(&fallback.key.binding, schema, &tuples[t]);
                                match eval_predicate(&fallback.value, &env, ctx) {
                                    Ok(true) => batch.fallbacks.matched.set(*id, t),
                                    Ok(false) => {}
                                    Err(_) => batch.fallbacks.errored.set(*id, t),
                                }
                            });
                            let matched = batch.fallbacks.matched.row(*id)[w];
                            walk.settle(si, w, matched, batch.fallbacks.errored.row(*id)[w]);
                        }
                    }
                    ConjunctSlot::Windowed { cmp, mark } => {
                        // Where the tuple's view is all newer than the
                        // mark, the query's window is the ring's: read the
                        // batch verdict, deciding it on first reach.
                        // Elsewhere fold from the mark.
                        let entry = self.windowed.get(*cmp);
                        let view = &batch.families[&entry.key.family];
                        let cold = view.cold.get(mark);
                        let verdict = |t: usize| {
                            let fold = match cold {
                                Some((mask, folds)) if bit(mask, t as u32) => &folds[t],
                                _ => &view.folds[t],
                            };
                            window_verdict(fold, &entry.key, &entry.value)
                        };
                        for w in 0..words {
                            let live = walk.live[w];
                            let cold_word = cold.map_or(0, |(mask, _)| mask[w]);
                            let done = &mut batch.windowed_done.row_mut(*cmp)[w];
                            let todo = live & !cold_word & !*done;
                            *done |= todo;
                            for_each_bit(&[todo], |i| {
                                let t = w * 64 + i;
                                match window_verdict(&view.folds[t], &entry.key, &entry.value) {
                                    None | Some(Ok(false)) => {}
                                    Some(Ok(true)) => batch.windowed.matched.set(*cmp, t),
                                    Some(Err(_)) => batch.windowed.errored.set(*cmp, t),
                                }
                            });
                            let mut matched = batch.windowed.matched.row(*cmp)[w];
                            let mut errored = batch.windowed.errored.row(*cmp)[w];
                            if let Some((mask, _)) = cold {
                                matched &= !mask[w];
                                errored &= !mask[w];
                                for_each_bit(&[mask[w] & live], |i| match verdict(w * 64 + i) {
                                    None | Some(Ok(false)) => {}
                                    Some(Ok(true)) => matched |= 1 << i,
                                    Some(Err(_)) => errored |= 1 << i,
                                });
                            }
                            let first_error = errored & live;
                            if first_error != 0 && !window_errors.contains_key(&si) {
                                let t = w * 64 + first_error.trailing_zeros() as usize;
                                if let Some(Err(e)) = verdict(t) {
                                    let message = crate::EngineError::Eval(e.to_string());
                                    window_errors.insert(si, message.to_string());
                                }
                            }
                            walk.settle(si, w, matched, errored);
                        }
                    }
                }
            }

            // Logical tallies from popcounts: a walk that stopped at slot
            // `si` evaluated the first `si + 1` conjuncts, a match all.
            let mut reached_indexed = 0u64;
            let mut reached_fallback = 0u64;
            let mut tally = |tuples: u64, reached: usize| {
                let indexed = u64::from(group.indexed_prefix[reached]);
                reached_indexed += tuples * indexed;
                reached_fallback += tuples * (reached as u64 - indexed);
            };
            for si in 0..group.slots.len() {
                let (clean, error) = walk.stopped(si);
                tally(popcount(clean) + popcount(error), si + 1);
            }
            tally(popcount(&walk.live), group.slots.len());
            let member_count = group.members.len() as u64;
            out.tally.indexed += reached_indexed * member_count;
            out.tally.fallback += reached_fallback * member_count;
            out.tally.total += (reached_indexed + reached_fallback) * member_count;

            let any_error = (0..group.slots.len()).any(|si| popcount(walk.stopped(si).1) > 0);
            if let Some(suppress) = &mut batch.suppress {
                for (w, suppressed) in suppress.iter_mut().enumerate() {
                    *suppressed &= (0..group.pushed_len)
                        .fold(0, |rejected, si| rejected | walk.stopped(si).0[w]);
                }
            }

            // Edge comparison in slot space: with no member pending, only a
            // source held high or never observed, or one that matched, can
            // change state. Only what the commit must write is recorded: a
            // changed (or new) state, any later sample of a source already
            // recorded, and with members pending every observed source.
            let has_pending = !group.pending_union.is_empty();
            walk.interest.clone_from(&batch.slot_mask);
            if !has_pending {
                for (w, interest) in walk.interest.iter_mut().enumerate() {
                    let observed = group.observed.get(w).copied().unwrap_or(0);
                    *interest &= group.high.get(w).copied().unwrap_or(0) | !observed;
                }
                for_each_bit(&walk.live, |t| {
                    let slot = sources[t].expect("matched tuples have a source").slot;
                    walk.interest[slot as usize / 64] |= 1 << (slot % 64);
                });
            }
            let mut changes: Vec<(u32, bool)> = Vec::new();
            let mut rising_shared = false;
            let mut pending_rising = false;
            if popcount(&walk.interest) > 0 {
                for (t, source) in sources.iter().enumerate() {
                    let Some(source) = source.filter(|s| bit(&walk.interest, s.slot)) else {
                        continue;
                    };
                    let matched = walk.live[t / 64] >> (t % 64) & 1 == 1;
                    let committed = group.edge(source.slot);
                    let seen = bit(&recorded, source.slot);
                    let in_batch = if has_pending || committed != Some(matched) || seen {
                        let before = seen.then(|| bit(&recorded_high, source.slot));
                        set_bit(&mut recorded, source.slot, true);
                        set_bit(&mut recorded_high, source.slot, matched);
                        changes.push((source.slot, matched));
                        before
                    } else {
                        None
                    };
                    // Audited fold: `unwrap_or(false)` is the edge state's
                    // "never observed ⇒ low" encoding, not a swallowed
                    // failure.
                    let was = in_batch.unwrap_or(committed.unwrap_or(false));
                    if matched && !was {
                        rising_shared = true;
                    }
                    if matched && in_batch.is_none() && group.pending_union.contains(&source.id) {
                        // A member still pending on this source sees
                        // was=false where the shared state says true.
                        pending_rising = true;
                    }
                }
            }

            let has_idless = popcount(&batch.with_id) < tuples.len() as u64;
            let affected = any_error || has_idless || rising_shared || pending_rising;
            if !changes.is_empty() {
                recorded.fill(0);
                out.commit.edges.push((gid, changes));
            }
            if affected {
                let gi = out.groups.len();
                for (qid, member) in &group.members {
                    out.by_query.insert(*qid, gi);
                    out.affected.push((member.name.clone(), *qid));
                    if !member.pending.is_empty() {
                        out.pending.insert(*qid, member.pending.clone());
                    }
                }
                out.groups.push(GroupEpoch {
                    group: gid,
                    stops: walk.outcomes(sources, group.slots.len()),
                    window_errors,
                });
            }
        }
        for (kind, batch) in batches {
            if let Some(words) = batch.suppress {
                let tuples = 0..cache[&kind].len() as u32;
                out.suppress
                    .insert(kind, tuples.map(|t| bit(&words, t)).collect());
            }
        }
        out.affected.sort();
        self.scratch = walk;
        out
    }

    /// Phase B's read of a group's committed edge: whether the source in
    /// `slot` was high when the epoch began (phase C has not run yet; a
    /// source first seen this epoch reads low).
    pub(crate) fn committed_high(&self, group: usize, slot: u32) -> bool {
        bit(&self.groups.get(group).value.high, slot)
    }

    /// Phase C: gives this epoch's new sources their slots, commits the
    /// per-source match states computed by [`PredicateIndex::plan_epoch`]
    /// and retires observed pending sources.
    pub(crate) fn commit_epoch(&mut self, commit: EpochCommit) {
        for (kind, fresh) in commit.new_sources {
            let table = self.sources.entry(kind).or_default();
            for source in fresh {
                table
                    .slot_of
                    .insert(source, slot_number(table.source_of.len()));
                table.source_of.push(source);
            }
        }
        for (id, changes) in commit.edges {
            let entry = self.groups.get_mut(id);
            let group = &mut entry.value;
            if !group.pending_union.is_empty() {
                let table = &self.sources[&entry.key.kind];
                for &(slot, _) in &changes {
                    let source = table.source_of[slot as usize];
                    for member in group.members.values_mut() {
                        member.pending.remove(&source);
                    }
                    group.pending_union.remove(&source);
                }
            }
            for (slot, matched) in changes {
                set_bit(&mut group.observed, slot, true);
                set_bit(&mut group.high, slot, matched);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_device::PervasiveLab;
    use aorta_net::DeviceRegistry;
    use aorta_sql::ast::Statement;

    fn registry() -> DeviceRegistry {
        DeviceRegistry::from_lab(PervasiveLab::standard())
    }

    /// Plans `WHERE <pred>` over the sensor table with a unique name/id.
    fn sensor_plan(name: &str, id: u32, pred: &str) -> AqPlan {
        let sql = format!("SELECT beep(t.id) FROM sensor t, sensor s WHERE {pred}");
        let stmts = aorta_sql::parse(&sql).unwrap();
        let Statement::Select(select) = stmts.into_iter().next().unwrap() else {
            panic!("expected SELECT");
        };
        let catalog = crate::Catalog::with_builtins();
        let mut plan = AqPlan::plan(name, &select, &catalog).unwrap();
        plan.query_id = id;
        plan
    }

    fn sensor_tuple(reg: &DeviceRegistry, id: Option<i64>, accel_x: Value) -> Tuple {
        let schema = reg.schema(DeviceKind::Sensor);
        let mut values = vec![Value::Null; schema.len()];
        if let Some(id) = id {
            values[schema.index_of("id").unwrap()] = Value::Int(id);
        }
        values[schema.index_of("accel_x").unwrap()] = accel_x;
        Tuple::new(values)
    }

    /// Phase A over one sensor batch, without committing.
    fn plan_only(
        index: &mut PredicateIndex,
        reg: &DeviceRegistry,
        tuples: Vec<Tuple>,
    ) -> EpochOutcomes {
        let ctx = EvalContext { registry: reg };
        let mut cache = BTreeMap::new();
        cache.insert(DeviceKind::Sensor, Arc::new(tuples));
        index.plan_epoch(&cache, &ctx, &BTreeSet::new())
    }

    fn outcome_for(
        index: &mut PredicateIndex,
        reg: &DeviceRegistry,
        qid: u32,
        tuples: Vec<Tuple>,
    ) -> Vec<TupleOutcome> {
        let out = plan_only(index, reg, tuples);
        out.groups[out.by_query[&qid]].stops.clone()
    }

    /// Runs one full epoch (plan + commit) over a sensor batch and returns
    /// the names of the affected plans.
    fn run_epoch(
        index: &mut PredicateIndex,
        reg: &DeviceRegistry,
        tuples: Vec<Tuple>,
    ) -> Vec<String> {
        let ctx = EvalContext { registry: reg };
        let mut cache = BTreeMap::new();
        cache.insert(DeviceKind::Sensor, Arc::new(tuples));
        let out = index.plan_epoch(&cache, &ctx, &BTreeSet::new());
        index.commit_epoch(out.commit);
        out.affected.into_iter().map(|(name, _)| name).collect()
    }

    #[test]
    fn identical_queries_share_one_comparison_and_one_group() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        let a = sensor_plan("a", 0, "s.accel_x > 500");
        let b = sensor_plan("b", 1, "s.accel_x > 500");
        index.register(&a, &schema);
        index.register(&b, &schema);
        assert_eq!(index.cmp_count(), 1);
        assert_eq!(index.group_count(), 1);
        assert_eq!(index.member_count(), 2);
        // Dropping one member keeps the shared comparison alive.
        index.unregister(&a);
        assert_eq!(index.cmp_count(), 1);
        assert_eq!(index.member_count(), 1);
        index.unregister(&b);
        assert!(index.is_empty(), "index must empty with the catalog");
    }

    #[test]
    fn interleaved_register_drop_is_symmetric() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        let plans: Vec<AqPlan> = (0..8)
            .map(|i| {
                sensor_plan(
                    &format!("q{i}"),
                    i,
                    &format!("s.accel_x > {}", 100 * (i % 3)),
                )
            })
            .collect();
        for p in &plans {
            index.register(p, &schema);
        }
        assert_eq!(index.cmp_count(), 3);
        // Drop evens, re-register them, drop everything: empty again.
        for p in plans.iter().step_by(2) {
            index.unregister(p);
        }
        for p in plans.iter().step_by(2) {
            index.register(p, &schema);
        }
        for p in &plans {
            index.unregister(p);
        }
        assert!(index.is_empty());
        assert_eq!(index.edge_entries(), 0);
    }

    #[test]
    fn threshold_boundaries_resolve_exactly() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        // Six operators on the same constant share one attribute lane.
        let preds = [
            ("eq", "s.accel_x = 500"),
            ("ne", "s.accel_x <> 500"),
            ("lt", "s.accel_x < 500"),
            ("le", "s.accel_x <= 500"),
            ("gt", "s.accel_x > 500"),
            ("ge", "s.accel_x >= 500"),
        ];
        let plans: Vec<AqPlan> = preds
            .iter()
            .enumerate()
            .map(|(i, (n, p))| sensor_plan(n, i as u32, p))
            .collect();
        for p in &plans {
            index.register(p, &schema);
        }
        let tuples: Vec<Tuple> = [499, 500, 501]
            .into_iter()
            .map(|v| sensor_tuple(&reg, Some(0), Value::Int(v)))
            .collect();
        // expected[op] = matches for values [499, 500, 501]
        let expected = [
            [false, true, false], // =
            [true, false, true],  // <>
            [true, false, false], // <
            [true, true, false],  // <=
            [false, false, true], // >
            [false, true, true],  // >=
        ];
        for (plan, want) in plans.iter().zip(expected) {
            let stops = outcome_for(&mut index, &reg, plan.query_id, tuples.clone());
            for (t, want_match) in want.into_iter().enumerate() {
                let got = stops[t] == TupleOutcome::Matched;
                assert_eq!(got, want_match, "{} on tuple {t}", plan.name);
            }
        }
    }

    #[test]
    fn idless_tuples_are_skipped_like_the_scalar_path() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        let plan = sensor_plan("q", 0, "s.accel_x > 500");
        index.register(&plan, &schema);
        let tuples = vec![
            sensor_tuple(&reg, None, Value::Int(600)),
            sensor_tuple(&reg, Some(3), Value::Int(600)),
        ];
        let stops = outcome_for(&mut index, &reg, 0, tuples);
        assert_eq!(stops[0], TupleOutcome::Idless);
        assert_eq!(stops[1], TupleOutcome::Matched);
    }

    #[test]
    fn type_mismatch_is_an_error_outcome_not_false() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        // `s.loc > 500` indexes (loc exists, 500 is a constant) but every
        // evaluation is a type error, exactly like the scalar path.
        let plan = sensor_plan("q", 0, "s.loc > 500");
        index.register(&plan, &schema);
        let mut tuple = sensor_tuple(&reg, Some(1), Value::Int(0));
        let loc_idx = schema.index_of("loc").unwrap();
        let mut values = tuple.values().to_vec();
        values[loc_idx] = Value::Location(aorta_data::Location::ORIGIN);
        tuple = Tuple::new(values);
        let stops = outcome_for(&mut index, &reg, 0, vec![tuple]);
        assert_eq!(
            stops[0],
            TupleOutcome::Stop {
                idx: 0,
                error: true
            }
        );
    }

    #[test]
    fn late_joiner_does_not_inherit_the_shared_edge() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let ctx = EvalContext { registry: &reg };
        let mut index = PredicateIndex::new();
        let a = sensor_plan("a", 0, "s.accel_x > 500");
        index.register(&a, &schema);
        // Epoch 1: source 7 matches — shared edge goes TRUE for query a.
        let mut cache = BTreeMap::new();
        cache.insert(
            DeviceKind::Sensor,
            Arc::new(vec![sensor_tuple(&reg, Some(7), Value::Int(600))]),
        );
        let out = index.plan_epoch(&cache, &ctx, &BTreeSet::new());
        assert_eq!(out.affected.len(), 1, "a rises");
        index.commit_epoch(out.commit);
        // Query b joins the group after the edge is already TRUE.
        let b = sensor_plan("b", 1, "s.accel_x > 500");
        index.register(&b, &schema);
        // Epoch 2: source 7 still matches. For a this is a steady state (no
        // rising edge); for b it is b's FIRST observation, so b must fire.
        let out = index.plan_epoch(&cache, &ctx, &BTreeSet::new());
        assert!(
            out.affected.iter().any(|(n, _)| n == "b"),
            "late joiner must be replayed: {:?}",
            out.affected
        );
        assert!(
            out.pending.contains_key(&1),
            "b's pending set must reach phase B"
        );
        index.commit_epoch(out.commit);
        // Epoch 3: b is synced now; steady state affects nobody.
        let out = index.plan_epoch(&cache, &ctx, &BTreeSet::new());
        assert!(out.affected.is_empty(), "{:?}", out.affected);
    }

    /// Window state is per query: an identical windowed plan registered
    /// later must not join the earlier one's group (it would inherit three
    /// samples it never took, and fire at once as a late joiner).
    #[test]
    fn identical_windowed_plans_keep_separate_windows_and_edges() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        let pred = "COUNT(s.accel_x) OVER LAST 3 >= 3";
        let sample = || vec![sensor_tuple(&reg, Some(7), Value::Int(1))];
        let a = sensor_plan("a", 0, pred);
        index.register(&a, &schema);
        let mut fired = Vec::new();
        for _ in 0..5 {
            fired.push(run_epoch(&mut index, &reg, sample()));
        }
        assert_eq!(
            fired,
            [vec![], vec![], vec!["a".to_string()], vec![], vec![]]
        );
        let b = sensor_plan("b", 1, pred);
        index.register(&b, &schema);
        assert_eq!(index.group_count(), 2, "windowed groups are singletons");
        assert_eq!(index.cmp_count(), 0, "a windowed slot interns nothing");
        // b warms up over its own three samples; a's edge stays high.
        let mut fired = Vec::new();
        for _ in 0..4 {
            fired.push(run_epoch(&mut index, &reg, sample()));
        }
        assert_eq!(fired, [vec![], vec![], vec!["b".to_string()], vec![]]);
        assert_eq!(index.window_entries(), 1, "one ring per (family, source)");
        assert_eq!(index.edge_entries(), 2);
        index.unregister(&a);
        index.unregister(&b);
        assert!(index.is_empty());
    }

    /// An id-less tuple has no source: it is skipped before any window
    /// advances, so it cannot age a real source's samples out.
    #[test]
    fn idless_tuples_advance_no_window() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        let plan = sensor_plan("q", 0, "MAX(s.accel_x) OVER LAST 2 > 500");
        index.register(&plan, &schema);
        let idless = sensor_tuple(&reg, None, Value::Int(900));
        run_epoch(&mut index, &reg, vec![idless.clone()]);
        assert_eq!(index.window_entries(), 0, "no source, no window");
        let batch = vec![
            sensor_tuple(&reg, Some(3), Value::Int(900)),
            idless.clone(),
            idless,
            sensor_tuple(&reg, Some(3), Value::Int(0)),
        ];
        let stops = {
            let ctx = EvalContext { registry: &reg };
            let mut cache = BTreeMap::new();
            cache.insert(DeviceKind::Sensor, Arc::new(batch));
            let out = index.plan_epoch(&cache, &ctx, &BTreeSet::new());
            out.groups[out.by_query[&0]].stops.clone()
        };
        // Had the id-less pair advanced source 3's window, the 900 would
        // have aged out of `LAST 2` before the fourth tuple read it.
        assert_eq!(
            stops,
            [
                TupleOutcome::Matched,
                TupleOutcome::Idless,
                TupleOutcome::Idless,
                TupleOutcome::Matched
            ]
        );
        assert_eq!(index.window_entries(), 1);
    }

    /// `DROP AQ` on a windowed query releases everything it held: its
    /// singleton group, its rising edges and its windows.
    #[test]
    fn dropping_a_windowed_query_releases_group_edges_and_windows() {
        use aorta_sim::SimDuration;
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let mut aorta = crate::Aorta::with_lab(crate::EngineConfig::seeded(36), lab);
        aorta
            .execute_sql(
                "CREATE AQ plain AS SELECT beep(t.id) FROM sensor t, sensor s \
                 WHERE s.accel_x > 500",
            )
            .unwrap();
        aorta.run_for(SimDuration::from_secs(3));
        let before = (
            aorta.predicate_index().group_count(),
            aorta.rising_edge_entries(),
            aorta.window_entries(),
        );
        aorta
            .execute_sql(
                "CREATE AQ smooth AS SELECT beep(t.id) FROM sensor t, sensor s \
                 WHERE AVG(s.accel_x) OVER LAST 3 > 300",
            )
            .unwrap();
        aorta.run_for(SimDuration::from_secs(3));
        assert_eq!(aorta.predicate_index().group_count(), before.0 + 1);
        assert!(aorta.rising_edge_entries() > before.1);
        assert!(aorta.window_entries() > before.2);
        aorta.execute_sql("DROP AQ smooth").unwrap();
        let after = (
            aorta.predicate_index().group_count(),
            aorta.rising_edge_entries(),
            aorta.window_entries(),
        );
        assert_eq!(after, before);
    }

    /// Windowed (query, source) pairs whose query is still cold: the
    /// source's ring holds a sample stamped at or before the slot's mark.
    fn cold_pairs(index: &PredicateIndex) -> usize {
        let mut cold = 0;
        for (_, group) in index.groups.iter() {
            for slot in &group.value.slots {
                if let ConjunctSlot::Windowed { cmp, mark } = slot {
                    let family = index.windowed.get(*cmp).key.family;
                    let rings = &index.families.get(family).value.rings;
                    cold += rings
                        .iter()
                        .filter(|r| r.oldest().is_some_and(|o| o <= *mark))
                        .count();
                }
            }
        }
        cold
    }

    /// Fifty windowed AQs on one (kind, column, n) share one ring per
    /// source, whatever their constants, and leave nothing once dropped.
    #[test]
    fn fifty_windowed_aqs_on_one_family_hold_one_ring_per_source() {
        use aorta_sim::SimDuration;
        let mut aorta =
            crate::Aorta::with_lab(crate::EngineConfig::seeded(40), PervasiveLab::standard());
        for k in 0..50 {
            aorta
                .execute_sql(&format!(
                    "CREATE AQ w{k} AS SELECT beep(t.id) FROM sensor t, sensor s \
                     WHERE AVG(s.temp) OVER LAST 4 > {}",
                    1_000 + k
                ))
                .unwrap();
        }
        aorta.run_for(SimDuration::from_secs(6));
        let index = aorta.predicate_index();
        let sampled = index.sources[&DeviceKind::Sensor].source_of.len();
        assert!(sampled > 0, "the lab's motes were scanned");
        assert_eq!(index.families.len(), 1);
        assert_eq!(aorta.window_entries(), sampled);
        for k in 0..50 {
            aorta.execute_sql(&format!("DROP AQ w{k}")).unwrap();
        }
        assert_eq!(aorta.window_entries(), 0);
        assert!(aorta.predicate_index().is_empty());
    }

    /// `aq_churn`'s shape — 200 motes, a few hundred `AVG(s.temp) OVER LAST
    /// 8 > k` AQs over 64 distinct `k`, registered and dropped in rounds —
    /// keeps one ring per mote, not one per (query, mote).
    #[test]
    fn churned_windowed_aqs_keep_at_most_one_ring_per_mote() {
        use aorta_sim::SimDuration;
        let lab = PervasiveLab::with_sizes(2, 200, 1);
        let mut aorta = crate::Aorta::with_lab(crate::EngineConfig::seeded(7), lab);
        let create = |aorta: &mut crate::Aorta, i: usize| {
            aorta
                .execute_sql(&format!(
                    "CREATE AQ w{i:04} AS SELECT photo(c.ip, s.loc, \"p\") \
                     FROM sensor s, camera c \
                     WHERE AVG(s.temp) OVER LAST 8 > {} AND coverage(c.id, s.loc)",
                    1_000 + i % 64
                ))
                .unwrap();
        };
        for i in 0..430 {
            create(&mut aorta, i);
        }
        aorta.run_for(SimDuration::from_secs(4));
        for round in 0..3 {
            for i in 0..100 {
                create(&mut aorta, 430 + 100 * round + i);
                aorta
                    .execute_sql(&format!("DROP AQ w{:04}", 100 * round + i))
                    .unwrap();
            }
            aorta.run_for(SimDuration::from_secs(4));
        }
        assert_eq!(aorta.catalog.query_count(), 430);
        assert!(aorta.window_entries() <= 200, "{}", aorta.window_entries());
        assert_eq!(aorta.window_entries(), 200, "every mote was sampled");
    }

    /// A snapshot forked while a windowed query is still cold (its marks
    /// postdate samples its sources' rings hold) carries the counter, rings
    /// and marks: it runs on to the live engine's digest and trace.
    #[test]
    fn a_fork_taken_while_a_query_is_cold_runs_on_to_the_live_digest() {
        use aorta_sim::SimDuration;
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_secs(20), SimDuration::ZERO);
        let mut live = crate::Aorta::with_lab(crate::EngineConfig::seeded(41), lab);
        let smooth = "AS SELECT beep(t.id) FROM sensor t, sensor s \
                      WHERE AVG(s.accel_x) OVER LAST 6 > 300";
        live.execute_sql(&format!("CREATE AQ warm {smooth}"))
            .unwrap();
        live.run_for(SimDuration::from_secs(10));
        assert_eq!(
            cold_pairs(live.predicate_index()),
            0,
            "warm after 10 samples"
        );
        live.execute_sql(&format!("CREATE AQ cold {smooth}"))
            .unwrap();
        live.run_for(SimDuration::from_secs(2));
        assert!(cold_pairs(live.predicate_index()) > 0, "cold at the fork");
        let mut fork = live.fork_snapshot();
        assert_eq!(fork.state_digest(), live.state_digest());
        live.run_for(SimDuration::from_secs(40));
        fork.run_for(SimDuration::from_secs(40));
        assert_eq!(cold_pairs(live.predicate_index()), 0, "warm again");
        assert!(live.stats().events_detected > 0, "the run must fire");
        assert_eq!(fork.state_digest(), live.state_digest());
        assert_eq!(fork.trace().render(), live.trace().render());
    }

    fn window_digest(index: &PredicateIndex) -> Vec<u8> {
        let mut out = Vec::new();
        index.digest_window_state(|b| out.extend_from_slice(b));
        out
    }

    /// The window digest tells apart indexes whose rings agree but whose
    /// marks or arrival counters differ: recovery and fork equivalence
    /// compare nothing else of the window state.
    #[test]
    fn window_digest_separates_marks_and_the_arrival_counter() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let pred = "AVG(s.accel_x) OVER LAST 2 > 300";
        let (a, b) = (sensor_plan("a", 0, pred), sensor_plan("b", 1, pred));
        let sample = || vec![sensor_tuple(&reg, Some(7), Value::Int(400))];
        // b registers after the sample in one index and before it in the
        // other: same counter, same ring, b's mark 1 against 0.
        let mut late = PredicateIndex::new();
        late.register(&a, &schema);
        run_epoch(&mut late, &reg, sample());
        late.register(&b, &schema);
        let mut early = PredicateIndex::new();
        early.register(&a, &schema);
        early.register(&b, &schema);
        run_epoch(&mut early, &reg, sample());
        assert_eq!(late.stamps, early.stamps);
        assert_eq!(late.window_entries(), early.window_entries());
        assert_ne!(window_digest(&late), window_digest(&early), "b's mark");
        let mut again = PredicateIndex::new();
        again.register(&a, &schema);
        run_epoch(&mut again, &reg, sample());
        again.register(&b, &schema);
        assert_eq!(window_digest(&late), window_digest(&again));
        let mut counter = again.clone();
        counter.stamps += 1;
        assert_ne!(window_digest(&again), window_digest(&counter), "counter");
        // A sample of another value changes the ring's bytes.
        let mut value = PredicateIndex::new();
        value.register(&a, &schema);
        run_epoch(
            &mut value,
            &reg,
            vec![sensor_tuple(&reg, Some(7), Value::Int(401))],
        );
        value.register(&b, &schema);
        assert_ne!(window_digest(&late), window_digest(&value), "sample");
    }

    #[test]
    fn groups_sharing_a_fallback_conjunct_hold_one_entry() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        // The same call conjunct first in one group, second (behind an
        // indexed partner) in another.
        let a = sensor_plan("a", 0, "distance(s.loc, s.loc) < 1.0 AND s.accel_x > 1");
        let b = sensor_plan("b", 1, "s.accel_x > 2 AND distance(s.loc, s.loc) < 1.0");
        index.register(&a, &schema);
        index.register(&b, &schema);
        assert_eq!(index.group_count(), 2);
        assert_eq!(index.cmp_count(), 2);
        assert_eq!(index.fallbacks.len(), 1);
        index.unregister(&a);
        assert_eq!(index.fallbacks.len(), 1, "b still references it");
        index.unregister(&b);
        assert_eq!(index.fallbacks.len(), 0);
        assert!(index.is_empty());
    }

    #[test]
    fn fallback_conjuncts_are_keyed_by_debug_not_display() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        let int = sensor_plan("int", 0, "distance(s.loc, s.loc) >= 1");
        let float = sensor_plan("float", 1, "distance(s.loc, s.loc) >= 1.0");
        assert_eq!(
            int.event_conjuncts[0].to_string(),
            float.event_conjuncts[0].to_string(),
            "the two spellings display alike"
        );
        index.register(&int, &schema);
        index.register(&float, &schema);
        assert_eq!(index.fallbacks.len(), 2);
    }

    /// A shared fallback that errors stops every group reaching it at that
    /// group's own conjunct index, and a group whose walk stops before it
    /// never sees the error.
    #[test]
    fn an_erroring_fallback_stops_each_group_at_its_own_index() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        // `s.loc > 500` errors on a location; inside an OR it is a
        // fallback, not an interned comparison.
        let broken = "(s.loc > 500 OR s.accel_x > 0)";
        let first = sensor_plan("first", 0, broken);
        let second = sensor_plan("second", 1, &format!("s.accel_x > 0 AND {broken}"));
        let short = sensor_plan("short", 2, &format!("s.accel_x > 100 AND {broken}"));
        for plan in [&first, &second, &short] {
            index.register(plan, &schema);
        }
        assert_eq!(index.fallbacks.len(), 1);
        let loc = schema.index_of("loc").unwrap();
        let mut values = sensor_tuple(&reg, Some(1), Value::Int(5)).values().to_vec();
        values[loc] = Value::Location(aorta_data::Location::ORIGIN);
        let out = plan_only(&mut index, &reg, vec![Tuple::new(values)]);
        let stops = |qid: u32| out.groups[out.by_query[&qid]].stops.clone();
        assert_eq!(
            stops(0),
            [TupleOutcome::Stop {
                idx: 0,
                error: true
            }]
        );
        assert_eq!(
            stops(1),
            [TupleOutcome::Stop {
                idx: 1,
                error: true
            }]
        );
        assert!(
            !out.by_query.contains_key(&2),
            "stopped cleanly before the fallback"
        );
        // Logical units: each group that reached the fallback counts it.
        assert_eq!(out.tally.fallback, 2);
        assert_eq!(out.tally.indexed, 2);
    }

    /// Slots follow first-seen order, not id order; the digest still walks
    /// sources in id order and feeds the bytes a `BTreeMap<i64, bool>` edge
    /// map would.
    #[test]
    fn digest_matches_a_btreemap_reference_whatever_the_slot_order() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        index.register(&sensor_plan("q", 0, "s.accel_x > 500"), &schema);
        let epochs: [&[(i64, i64)]; 4] = [
            &[(9, 600), (7, 0), (4, 600), (2, 0)], // descending first sight
            &[(9, 0), (4, 600), (2, 600)],         // 7 absent
            &[(7, 600), (12, 0), (9, 600), (0, 0)], // 7 back, two new sources
            &[(70, 600), (12, 600), (7, 0)],
        ];
        let mut reference: BTreeMap<i64, bool> = BTreeMap::new();
        for batch in epochs {
            let tuples = batch
                .iter()
                .map(|&(id, accel)| sensor_tuple(&reg, Some(id), Value::Int(accel)))
                .collect();
            run_epoch(&mut index, &reg, tuples);
            for &(id, accel) in batch {
                reference.insert(id, accel > 500);
            }
            let mut want = reference.len().to_le_bytes().to_vec();
            for (source, high) in &reference {
                want.extend(source.to_le_bytes());
                want.push(u8::from(*high));
            }
            let mut got = Vec::new();
            index.digest_edge_state(|bytes| got.extend_from_slice(bytes));
            assert_eq!(got, want);
        }
        assert_eq!(
            index.sources[&DeviceKind::Sensor].source_of,
            [9, 7, 4, 2, 12, 0, 70]
        );
        assert_eq!(index.edge_entries(), reference.len());
    }

    /// A late joiner's pending set is exactly the sources the group holds
    /// high, across several bitset words.
    #[test]
    fn late_joiner_pending_set_is_the_high_sources() {
        let reg = registry();
        let schema = reg.schema(DeviceKind::Sensor).clone();
        let mut index = PredicateIndex::new();
        let a = sensor_plan("a", 0, "s.accel_x > 500");
        index.register(&a, &schema);
        let tuples = (0..150i64)
            .rev()
            .map(|id| {
                sensor_tuple(
                    &reg,
                    Some(id),
                    Value::Int(if id % 3 == 0 { 600 } else { 0 }),
                )
            })
            .collect();
        run_epoch(&mut index, &reg, tuples);
        let b = sensor_plan("b", 1, "s.accel_x > 500");
        index.register(&b, &schema);
        let group = &index
            .groups
            .get(index.groups.by_key[&GroupKey::of(&b)])
            .value;
        let want: BTreeSet<i64> = (0..150).filter(|id| id % 3 == 0).collect();
        assert_eq!(group.members[&1].pending, want);
        assert!(group.members[&0].pending.is_empty());
        assert_eq!(group.pending_union, want);
    }
}
