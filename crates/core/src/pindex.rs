//! The shared predicate index powering vectorized event detection.
//!
//! The paper's §2 multi-query sharing argument is that many concurrent AQs
//! watch the *same* sensor streams with heavily overlapping predicates, so
//! detection cost should follow the number of *distinct* comparisons, not
//! the number of registered queries. This module supplies that machinery:
//!
//! * every registered AQ's event-part WHERE clause is decomposed into
//!   conjuncts; each conjunct either maps to a **distinct comparison**
//!   (`attribute op constant`, interned and refcounted across queries) or is
//!   kept verbatim as a **scalar fallback** slot,
//! * comparisons are grouped by attribute into lanes; integer thresholds on
//!   one attribute are kept sorted so a batch value resolves all of them
//!   with two binary searches per tuple (one pass over the lane sets the
//!   match bit of every threshold),
//! * queries with identical conjunct lists share one **query group** with a
//!   single per-source rising-edge state, so a firing group fans out to its
//!   members instead of being recomputed per query,
//! * a conjunct comparing a **windowed aggregate** (`AGG(attr) OVER LAST n`)
//!   is a stateful slot reading the query's own device-resident window, so a
//!   plan with one is a group of its own: window state is per query and two
//!   queries registered at different times hold different samples,
//! * a group's leading comparison and windowed slots are its **pushed
//!   prefix** — what a mote can decide on its own. The walk that detects
//!   events also settles in-network pushdown: a sample is suppressed when
//!   every group watching its kind stopped cleanly inside that prefix.
//!
//! Detection runs in three phases (see `exec.rs`): a batch phase here
//! ([`PredicateIndex::plan_epoch`]) that touches no engine state beyond
//! advancing the window bank, a per-plan replay phase in the engine that
//! emits the traces and counters of the few *affected* plans, and a commit
//! phase ([`PredicateIndex::commit_epoch`]) that advances the shared edge
//! state.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use aorta_data::{Schema, Tuple, Value};
use aorta_device::pushdown::{numeric_sample, WindowBank};
use aorta_device::DeviceKind;
use aorta_sql::ast::Expr;

use crate::expr::{eval_predicate, extract_comparison, CmpOp, Env, EvalContext};
use crate::plan::{AqPlan, WindowedCmp};

/// Canonical, orderable key form of an indexable comparison constant.
/// Floats are keyed by bit pattern: two spellings that compare equal but
/// differ in bits (e.g. `-0.0` vs `0.0`) get separate comparisons — one
/// redundant evaluation, never a wrong answer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ConstKey {
    Bool(bool),
    Int(i64),
    FloatBits(u64),
    Str(String),
}

impl ConstKey {
    fn of(v: &Value) -> Option<ConstKey> {
        match v {
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

/// One interned comparison with its cross-query reference count.
#[derive(Debug, Clone)]
struct CmpEntry {
    kind: DeviceKind,
    attr: String,
    op: CmpOp,
    constant: Value,
    /// Number of group conjunct slots referencing this comparison.
    refs: usize,
}

/// How one conjunct of a query group is evaluated per batch.
#[derive(Debug, Clone)]
enum ConjunctSlot {
    /// Shared comparison: read the batch bitset for this interned id.
    Indexed(usize),
    /// Non-indexable conjunct: evaluate the expression per tuple (still
    /// only once per *group*, not once per member query).
    Fallback(Expr),
    /// Windowed aggregate comparison: read the owning query's window for
    /// the tuple's source from the [`WindowBank`] and compare the aggregate.
    Windowed {
        cmp: WindowedCmp,
        /// Column of the aggregated attribute in the event schema.
        col: usize,
    },
}

/// Identity of a query group: queries agree on event kind, event binding and
/// the exact conjunct list (signature = `Debug`-rendered conjuncts, which
/// distinguishes `> 1` from `> 1.0` where `Display` would not). A plan with
/// windowed conjuncts also keys on its query id — its windows hold the
/// samples taken since *it* registered, so it shares with nobody.
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
    /// Shared per-source rising-edge state (last epoch's match outcome).
    edge: BTreeMap<i64, bool>,
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
    /// One outcome per tuple of the group's kind, in batch order.
    pub stops: Vec<TupleOutcome>,
    /// The group's shared edge state as of the start of the epoch.
    pub pre_edge: BTreeMap<i64, bool>,
    /// Conjunct index → message of the first windowed-slot error there this
    /// epoch. The window has moved on by replay time, so the text the trace
    /// needs cannot be recovered by re-evaluating.
    pub window_errors: BTreeMap<usize, String>,
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
    /// Per kind: the id of each batch tuple (`None` = id-less).
    pub sources: BTreeMap<DeviceKind, Vec<Option<i64>>>,
    /// Per group with anything to write: the per-source match states that
    /// changed this epoch (every observed source while members are pending).
    pub commits: Vec<(GroupKey, BTreeMap<i64, bool>)>,
    /// Logical conjunct-evaluation counts for the obs counters.
    pub tally: EvalTally,
    /// Per suppressible kind watched by at least one group: whether each
    /// batch tuple is suppressed at its device — it has an id and every
    /// group of the kind stopped cleanly inside its pushed prefix.
    pub suppress: BTreeMap<DeviceKind, Vec<bool>>,
}

/// Packed per-comparison match/error bitsets over one scan batch.
struct CmpBatch {
    blocks_per_cmp: usize,
    matched: Vec<u64>,
    errored: Vec<u64>,
}

impl CmpBatch {
    fn new(cmps: usize, tuples: usize) -> CmpBatch {
        let blocks_per_cmp = tuples.div_ceil(64);
        CmpBatch {
            blocks_per_cmp,
            matched: vec![0; cmps * blocks_per_cmp],
            errored: vec![0; cmps * blocks_per_cmp],
        }
    }

    fn set_matched(&mut self, cmp: usize, t: usize) {
        self.matched[cmp * self.blocks_per_cmp + t / 64] |= 1 << (t % 64);
    }

    fn set_errored(&mut self, cmp: usize, t: usize) {
        self.errored[cmp * self.blocks_per_cmp + t / 64] |= 1 << (t % 64);
    }

    fn is_matched(&self, cmp: usize, t: usize) -> bool {
        self.matched[cmp * self.blocks_per_cmp + t / 64] >> (t % 64) & 1 == 1
    }

    fn is_errored(&self, cmp: usize, t: usize) -> bool {
        self.errored[cmp * self.blocks_per_cmp + t / 64] >> (t % 64) & 1 == 1
    }
}

/// Attribute lane: all interned comparisons on one (kind, attribute),
/// split so integer thresholds resolve in one sorted pass.
#[derive(Debug, Clone, Default)]
struct AttrLane {
    /// Int-constant comparisons sorted by constant.
    ints: Vec<(i64, CmpOp, usize)>,
    /// Comparisons with non-Int constants: per-comparison `compare()`.
    general: Vec<usize>,
}

/// The shared predicate index: interned comparisons, attribute lanes, and
/// query groups with their rising-edge state.
///
/// Registration mirrors the catalog exactly — [`crate::Aorta`] registers a
/// plan's event conjuncts on `CREATE AQ` and releases them on `DROP AQ`, so
/// the index is empty precisely when no queries are registered.
#[derive(Debug, Clone, Default)]
pub struct PredicateIndex {
    /// Interned comparisons; `None` marks a freed slot awaiting reuse.
    cmps: Vec<Option<CmpEntry>>,
    /// Freed slots of `cmps`.
    free: Vec<usize>,
    /// Dedup map: comparison key → slot in `cmps`.
    by_key: BTreeMap<CmpKey, usize>,
    /// Evaluation lanes per (kind, attribute), rebuilt when the interned
    /// set for that attribute changes.
    lanes: BTreeMap<DeviceKind, BTreeMap<String, AttrLane>>,
    /// Query groups by identity.
    groups: BTreeMap<GroupKey, QueryGroup>,
}

impl PredicateIndex {
    /// An empty index.
    pub fn new() -> PredicateIndex {
        PredicateIndex::default()
    }

    /// Number of live distinct comparisons.
    pub fn cmp_count(&self) -> usize {
        self.by_key.len()
    }

    /// Number of query groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of member queries across all groups (= registered AQs).
    pub fn member_count(&self) -> usize {
        self.groups.values().map(|g| g.members.len()).sum()
    }

    /// True when no queries are registered: no comparisons, no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty() && self.by_key.is_empty()
    }

    /// Rising-edge entries tracked, in per-query units: each group's edge
    /// map counts once per member (one per live (query, source) pair).
    pub(crate) fn edge_entries(&self) -> usize {
        self.groups
            .values()
            .map(|g| g.edge.len() * g.members.len())
            .sum()
    }

    /// Feeds the rising-edge state [`crate::Aorta::state_digest`] folds in:
    /// every group's shared edge map and its members' non-empty pending
    /// sets, in group-key order, length-prefixed so runs cannot alias.
    pub(crate) fn digest_edge_state(&self, mut feed: impl FnMut(&[u8])) {
        for group in self.groups.values() {
            feed(&group.edge.len().to_le_bytes());
            for (source, high) in &group.edge {
                feed(&source.to_le_bytes());
                feed(&[u8::from(*high)]);
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
    /// the query's comparisons and creates a new group.
    pub(crate) fn register(&mut self, plan: &AqPlan, schema: &Schema) {
        let key = GroupKey::of(plan);
        if let Some(group) = self.groups.get_mut(&key) {
            // Sources the shared state already remembers as TRUE would fake
            // a pre-existing edge for the newcomer; defer those (Member).
            let pending: BTreeSet<i64> = group
                .edge
                .iter()
                .filter(|(_, m)| **m)
                .map(|(s, _)| *s)
                .collect();
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
        let mut slots = Vec::with_capacity(plan.event_conjuncts.len());
        let mut indexed_prefix = Vec::with_capacity(plan.event_conjuncts.len() + 1);
        indexed_prefix.push(0u32);
        for (idx, conjunct) in plan.event_conjuncts.iter().enumerate() {
            let slot = if let Some(w) = plan.windowed.iter().find(|w| w.idx == idx) {
                ConjunctSlot::Windowed {
                    cmp: w.clone(),
                    col: schema
                        .index_of(&w.attr)
                        .expect("windowed attrs are validated at plan time"),
                }
            } else if let Some(cmp) = extract_comparison(conjunct, &plan.event_binding, schema) {
                ConjunctSlot::Indexed(self.intern(plan.event_kind, cmp))
            } else {
                ConjunctSlot::Fallback(conjunct.clone())
            };
            let prev = *indexed_prefix.last().expect("seeded");
            indexed_prefix.push(prev + matches!(slot, ConjunctSlot::Indexed(_)) as u32);
            slots.push(slot);
        }
        let mut members = BTreeMap::new();
        members.insert(
            plan.query_id,
            Member {
                name: plan.name.clone(),
                pending: BTreeSet::new(),
            },
        );
        let pushed_len = slots
            .iter()
            .take_while(|s| !matches!(s, ConjunctSlot::Fallback(_)))
            .count();
        self.groups.insert(
            key,
            QueryGroup {
                slots,
                indexed_prefix,
                pushed_len,
                members,
                pending_union: BTreeSet::new(),
                edge: BTreeMap::new(),
            },
        );
    }

    /// Releases a dropped query: leaves its group, and when the group
    /// empties, drops its edge state and releases its interned comparisons.
    pub(crate) fn unregister(&mut self, plan: &AqPlan) {
        let key = GroupKey::of(plan);
        let Some(group) = self.groups.get_mut(&key) else {
            return;
        };
        group.members.remove(&plan.query_id);
        if group.members.is_empty() {
            let group = self.groups.remove(&key).expect("present");
            for slot in &group.slots {
                if let ConjunctSlot::Indexed(id) = slot {
                    self.release(*id);
                }
            }
        } else if !group.pending_union.is_empty() {
            // Recompute the union so it doesn't retain the leaver's sources.
            group.pending_union = group
                .members
                .values()
                .flat_map(|m| m.pending.iter().copied())
                .collect();
        }
    }

    fn intern(&mut self, kind: DeviceKind, cmp: crate::expr::VectorizableCmp) -> usize {
        let key = CmpKey {
            kind,
            attr: cmp.attr.clone(),
            op: cmp.op,
            constant: ConstKey::of(&cmp.constant).expect("extraction checked the constant"),
        };
        if let Some(&id) = self.by_key.get(&key) {
            self.cmps[id].as_mut().expect("live").refs += 1;
            return id;
        }
        let entry = CmpEntry {
            kind,
            attr: cmp.attr,
            op: cmp.op,
            constant: cmp.constant,
            refs: 1,
        };
        let id = match self.free.pop() {
            Some(slot) => {
                self.cmps[slot] = Some(entry);
                slot
            }
            None => {
                self.cmps.push(Some(entry));
                self.cmps.len() - 1
            }
        };
        let (kind, attr) = {
            let e = self.cmps[id].as_ref().expect("just set");
            (e.kind, e.attr.clone())
        };
        self.by_key.insert(key, id);
        self.rebuild_lane(kind, &attr);
        id
    }

    fn release(&mut self, id: usize) {
        let entry = self.cmps[id].as_mut().expect("live");
        entry.refs -= 1;
        if entry.refs > 0 {
            return;
        }
        let entry = self.cmps[id].take().expect("live");
        let key = CmpKey {
            kind: entry.kind,
            attr: entry.attr.clone(),
            op: entry.op,
            constant: ConstKey::of(&entry.constant).expect("was interned"),
        };
        self.by_key.remove(&key);
        self.free.push(id);
        self.rebuild_lane(entry.kind, &entry.attr);
    }

    fn rebuild_lane(&mut self, kind: DeviceKind, attr: &str) {
        let mut lane = AttrLane::default();
        let lo = CmpKey {
            kind,
            attr: attr.to_string(),
            op: CmpOp::Eq,
            constant: ConstKey::Bool(false),
        };
        for (key, &id) in self.by_key.range(lo..) {
            if key.kind != kind || key.attr != attr {
                break;
            }
            match &key.constant {
                ConstKey::Int(c) => lane.ints.push((*c, key.op, id)),
                _ => lane.general.push(id),
            }
        }
        lane.ints.sort_by_key(|(c, _, _)| *c);
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

    /// Evaluates every interned comparison of `kind` over a scan batch.
    fn eval_cmps(&self, kind: DeviceKind, tuples: &[Tuple], schema: &Schema) -> CmpBatch {
        let mut batch = CmpBatch::new(self.cmps.len(), tuples.len());
        let Some(lanes) = self.lanes.get(&kind) else {
            return batch;
        };
        for (attr, lane) in lanes {
            let Some(col) = schema.index_of(attr) else {
                continue; // registration checked the schema; defensive only
            };
            for (t, tuple) in tuples.iter().enumerate() {
                match tuple.get(col) {
                    // NULL (or missing) never matches and never errors,
                    // exactly like the scalar NULL-comparison path.
                    None | Some(Value::Null) => {}
                    Some(v @ Value::Int(n)) => {
                        // One pass over the sorted thresholds: two binary
                        // searches classify every threshold against `n`.
                        let lt = lane.ints.partition_point(|(c, _, _)| c < n);
                        let le = lane.ints.partition_point(|(c, _, _)| c <= n);
                        for (i, (_, op, id)) in lane.ints.iter().enumerate() {
                            let ord = match i {
                                i if i < lt => Ordering::Greater,
                                i if i < le => Ordering::Equal,
                                _ => Ordering::Less,
                            };
                            if op.matches(ord) {
                                batch.set_matched(*id, t);
                            }
                        }
                        for &id in &lane.general {
                            self.eval_general(id, v, &mut batch, t);
                        }
                    }
                    Some(v) => {
                        // Non-Int value (float, string, bool, location):
                        // every comparison goes through `compare()`, which
                        // reproduces the scalar mixed-type semantics —
                        // including its errors.
                        for &(_, _, id) in &lane.ints {
                            self.eval_general(id, v, &mut batch, t);
                        }
                        for &id in &lane.general {
                            self.eval_general(id, v, &mut batch, t);
                        }
                    }
                }
            }
        }
        batch
    }

    fn eval_general(&self, id: usize, value: &Value, batch: &mut CmpBatch, t: usize) {
        let entry = self.cmps[id].as_ref().expect("lanes index live cmps");
        match value.compare(&entry.constant) {
            Ok(ord) => {
                if entry.op.matches(ord) {
                    batch.set_matched(id, t);
                }
            }
            Err(_) => batch.set_errored(id, t),
        }
    }

    /// Phase A: evaluates each distinct comparison once per batch, walks
    /// every group's conjunct list per tuple, and computes which plans need
    /// side effects replayed. The only state it moves is `windows`: a
    /// windowed group's windows advance on every tuple that has an id,
    /// before the walk, so a windowed slot sees the window including the
    /// current sample — `LAST n` is the last n samples taken, and a
    /// non-numeric one (a lossy scan's NULL) still occupies a slot.
    ///
    /// For each kind in `suppressible` the same walk folds the in-network
    /// ship/suppress decision into [`EpochOutcomes::suppress`]: anything
    /// uncertain — an id-less tuple, an erroring conjunct, a group with no
    /// pushed prefix, a kind no group watches — ships.
    pub(crate) fn plan_epoch(
        &self,
        cache: &BTreeMap<DeviceKind, Vec<Tuple>>,
        ctx: &EvalContext<'_>,
        windows: &mut WindowBank,
        suppressible: &BTreeSet<DeviceKind>,
    ) -> EpochOutcomes {
        let mut out = EpochOutcomes::default();
        let mut batches: BTreeMap<DeviceKind, CmpBatch> = BTreeMap::new();
        let mut idless: BTreeMap<DeviceKind, bool> = BTreeMap::new();
        for (&kind, tuples) in cache {
            let schema = ctx.registry.schema(kind);
            let id_idx = schema.index_of("id").expect("catalogs define id");
            let sources: Vec<Option<i64>> = tuples
                .iter()
                .map(|t| t.get(id_idx).and_then(Value::as_i64))
                .collect();
            idless.insert(kind, sources.iter().any(Option::is_none));
            out.sources.insert(kind, sources);
            batches.insert(kind, self.eval_cmps(kind, tuples, schema));
        }

        for (key, group) in &self.groups {
            let Some(tuples) = cache.get(&key.kind) else {
                continue; // kind not scanned this epoch: state untouched
            };
            let batch = &batches[&key.kind];
            let sources = &out.sources[&key.kind];
            let schema = ctx.registry.schema(key.kind);
            let kind_has_idless = idless[&key.kind];
            let mut suppress = suppressible.contains(&key.kind).then(|| {
                out.suppress
                    .entry(key.kind)
                    .or_insert_with(|| sources.iter().map(Option::is_some).collect())
            });

            let mut stops = Vec::with_capacity(tuples.len());
            let mut final_edge: BTreeMap<i64, bool> = BTreeMap::new();
            let has_pending = !group.pending_union.is_empty();
            let mut rising_shared = false;
            let mut pending_rising = false;
            let mut any_error = false;
            let mut reached_indexed = 0u64;
            let mut reached_fallback = 0u64;
            let mut window_errors: BTreeMap<usize, String> = BTreeMap::new();
            for (t, tuple) in tuples.iter().enumerate() {
                // An id-less tuple has no source, hence no window to advance.
                let Some(source) = sources[t] else {
                    stops.push(TupleOutcome::Idless);
                    continue;
                };
                if let Some(query) = key.windowed_query {
                    for slot in &group.slots {
                        if let ConjunctSlot::Windowed { cmp, col } = slot {
                            let sample = numeric_sample(tuple.get(*col));
                            windows.advance(query, cmp.idx, source, cmp.window, sample);
                        }
                    }
                }
                let mut stop: Option<(usize, bool)> = None;
                for (si, slot) in group.slots.iter().enumerate() {
                    let ok = match slot {
                        ConjunctSlot::Indexed(id) => {
                            if batch.is_errored(*id, t) {
                                stop = Some((si, true));
                                break;
                            }
                            batch.is_matched(*id, t)
                        }
                        ConjunctSlot::Fallback(expr) => {
                            let env = Env::new().bind(&key.binding, schema, tuple);
                            match eval_predicate(expr, &env, ctx) {
                                Ok(b) => b,
                                Err(_) => {
                                    stop = Some((si, true));
                                    break;
                                }
                            }
                        }
                        ConjunctSlot::Windowed { cmp, .. } => {
                            let query = key.windowed_query.expect("windowed groups key on it");
                            // An all-NULL (or empty) window has no aggregate:
                            // the conjunct is false, not an error — a mote
                            // warming up or a lossy stretch is normal
                            // operation, not a broken query.
                            match windows
                                .aggregate(query, cmp.idx, source, cmp.agg)
                                .map(|v| v.compare(&cmp.constant))
                            {
                                None => false,
                                Some(Ok(ord)) => cmp.op.matches(ord),
                                Some(Err(e)) => {
                                    window_errors.entry(si).or_insert_with(|| {
                                        crate::EngineError::Eval(e.to_string()).to_string()
                                    });
                                    stop = Some((si, true));
                                    break;
                                }
                            }
                        }
                    };
                    if !ok {
                        stop = Some((si, false));
                        break;
                    }
                }
                let reached = match stop {
                    Some((si, _)) => si + 1,
                    None => group.slots.len(),
                };
                reached_indexed += u64::from(group.indexed_prefix[reached]);
                reached_fallback += reached as u64 - u64::from(group.indexed_prefix[reached]);
                let matched = stop.is_none();
                if let Some((_, true)) = stop {
                    any_error = true;
                }
                if let Some(suppress) = &mut suppress {
                    suppress[t] &= matches!(stop, Some((si, false)) if si < group.pushed_len);
                }
                // Only what the commit must write is recorded: a state that
                // differs from the committed one (or is new), and any later
                // sample of a source already recorded. In the steady state
                // that is nothing. With members pending, every observed
                // source is recorded so the commit can retire it.
                let committed = group.edge.get(&source).copied();
                let in_batch = if has_pending
                    || committed != Some(matched)
                    || final_edge.contains_key(&source)
                {
                    final_edge.insert(source, matched)
                } else {
                    None
                };
                // Audited fold: `unwrap_or(false)` is the edge map's "never
                // observed ⇒ low" encoding, not a swallowed failure.
                let was = in_batch.unwrap_or(committed.unwrap_or(false));
                if matched && !was {
                    rising_shared = true;
                }
                if matched && in_batch.is_none() && group.pending_union.contains(&source) {
                    // A member still pending on this source sees was=false
                    // where the shared state says true.
                    pending_rising = true;
                }
                stops.push(match stop {
                    None => TupleOutcome::Matched,
                    Some((idx, error)) => TupleOutcome::Stop { idx, error },
                });
            }

            let member_count = group.members.len() as u64;
            out.tally.indexed += reached_indexed * member_count;
            out.tally.fallback += reached_fallback * member_count;
            out.tally.total += (reached_indexed + reached_fallback) * member_count;

            let affected = any_error || kind_has_idless || rising_shared || pending_rising;
            if !final_edge.is_empty() {
                out.commits.push((key.clone(), final_edge));
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
                    stops,
                    pre_edge: group.edge.clone(),
                    window_errors,
                });
            }
        }
        out.affected.sort();
        out
    }

    /// Phase C: commits the per-source match state computed by
    /// [`PredicateIndex::plan_epoch`] and retires observed pending sources.
    pub(crate) fn commit_epoch(&mut self, commits: Vec<(GroupKey, BTreeMap<i64, bool>)>) {
        for (key, final_edge) in commits {
            let Some(group) = self.groups.get_mut(&key) else {
                continue;
            };
            if !group.pending_union.is_empty() {
                for member in group.members.values_mut() {
                    for s in final_edge.keys() {
                        member.pending.remove(s);
                    }
                }
                for s in final_edge.keys() {
                    group.pending_union.remove(s);
                }
            }
            for (s, matched) in final_edge {
                group.edge.insert(s, matched);
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

    fn outcome_for(
        index: &PredicateIndex,
        reg: &DeviceRegistry,
        qid: u32,
        tuples: Vec<Tuple>,
    ) -> Vec<TupleOutcome> {
        let ctx = EvalContext { registry: reg };
        let mut cache = BTreeMap::new();
        cache.insert(DeviceKind::Sensor, tuples);
        let out = index.plan_epoch(&cache, &ctx, &mut WindowBank::new(), &BTreeSet::new());
        let gi = out.by_query[&qid];
        out.groups[gi].stops.clone()
    }

    /// Runs one full epoch (plan + commit) over a sensor batch and returns
    /// the names of the affected plans.
    fn run_epoch(
        index: &mut PredicateIndex,
        reg: &DeviceRegistry,
        windows: &mut WindowBank,
        tuples: Vec<Tuple>,
    ) -> Vec<String> {
        let ctx = EvalContext { registry: reg };
        let mut cache = BTreeMap::new();
        cache.insert(DeviceKind::Sensor, tuples);
        let out = index.plan_epoch(&cache, &ctx, windows, &BTreeSet::new());
        index.commit_epoch(out.commits);
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
            let stops = outcome_for(&index, &reg, plan.query_id, tuples.clone());
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
        let stops = outcome_for(&index, &reg, 0, tuples);
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
        let stops = outcome_for(&index, &reg, 0, vec![tuple]);
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
            vec![sensor_tuple(&reg, Some(7), Value::Int(600))],
        );
        let windows = &mut WindowBank::new();
        let out = index.plan_epoch(&cache, &ctx, windows, &BTreeSet::new());
        assert_eq!(out.affected.len(), 1, "a rises");
        index.commit_epoch(out.commits);
        // Query b joins the group after the edge is already TRUE.
        let b = sensor_plan("b", 1, "s.accel_x > 500");
        index.register(&b, &schema);
        // Epoch 2: source 7 still matches. For a this is a steady state (no
        // rising edge); for b it is b's FIRST observation, so b must fire.
        let out = index.plan_epoch(&cache, &ctx, windows, &BTreeSet::new());
        assert!(
            out.affected.iter().any(|(n, _)| n == "b"),
            "late joiner must be replayed: {:?}",
            out.affected
        );
        assert!(
            out.pending.contains_key(&1),
            "b's pending set must reach phase B"
        );
        index.commit_epoch(out.commits);
        // Epoch 3: b is synced now; steady state affects nobody.
        let out = index.plan_epoch(&cache, &ctx, windows, &BTreeSet::new());
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
        let mut windows = WindowBank::new();
        let pred = "COUNT(s.accel_x) OVER LAST 3 >= 3";
        let sample = || vec![sensor_tuple(&reg, Some(7), Value::Int(1))];
        let a = sensor_plan("a", 0, pred);
        index.register(&a, &schema);
        let mut fired = Vec::new();
        for _ in 0..5 {
            fired.push(run_epoch(&mut index, &reg, &mut windows, sample()));
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
            fired.push(run_epoch(&mut index, &reg, &mut windows, sample()));
        }
        assert_eq!(fired, [vec![], vec![], vec!["b".to_string()], vec![]]);
        assert_eq!(windows.len(), 2, "one window per (query, source)");
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
        let mut windows = WindowBank::new();
        let plan = sensor_plan("q", 0, "MAX(s.accel_x) OVER LAST 2 > 500");
        index.register(&plan, &schema);
        let idless = sensor_tuple(&reg, None, Value::Int(900));
        run_epoch(&mut index, &reg, &mut windows, vec![idless.clone()]);
        assert!(windows.is_empty(), "no source, no window");
        let batch = vec![
            sensor_tuple(&reg, Some(3), Value::Int(900)),
            idless.clone(),
            idless,
            sensor_tuple(&reg, Some(3), Value::Int(0)),
        ];
        let stops = {
            let ctx = EvalContext { registry: &reg };
            let mut cache = BTreeMap::new();
            cache.insert(DeviceKind::Sensor, batch);
            let out = index.plan_epoch(&cache, &ctx, &mut windows, &BTreeSet::new());
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
        assert_eq!(windows.len(), 1);
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
            aorta.windows.len(),
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
        assert!(aorta.windows.len() > before.2);
        aorta.execute_sql("DROP AQ smooth").unwrap();
        let after = (
            aorta.predicate_index().group_count(),
            aorta.rising_edge_entries(),
            aorta.windows.len(),
        );
        assert_eq!(after, before);
    }
}
