//! Shared action operators (§2.3).
//!
//! "We make concurrent queries that have the same embedded action share a
//! single action operator in their query plans. We add the query ID to the
//! input tuples … Such action operator sharing saves system resources and
//! facilitates group optimization of actions."
//!
//! One [`SharedActionOperator`] exists per action *name*; every query whose
//! plan embeds that action feeds its requests through it. The operator is
//! the batching point: all requests pending in one dispatch epoch are handed
//! to the optimizer together, which is what enables the §5 workload
//! scheduling.
//!
//! Sharing goes further than the operator: queries whose device parts join
//! an event tuple the same way share one [`CandidateBlock`] (the join runs
//! once per epoch, see [`EpochScans`]), and a request works out once, not
//! per candidate, where its action aims ([`ActionRequest::aim`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use aorta_data::{AttrKind, Location, Tuple, Value, ValueType};
use aorta_device::{DeviceId, DeviceKind};
use aorta_net::DeviceRegistry;
use aorta_sim::SimTime;
use aorta_sql::ast::Expr;

use crate::actions::ActionDef;
use crate::expr::{eval_expr, eval_predicate, Env, EvalContext};
use crate::plan::{AqPlan, DevicePart};

/// The candidate devices of one fired event, with their scan tuples: the
/// 1-to-many side of event → candidates. A block borrows the epoch's scan
/// of the device kind — it holds the scan and the (device, row) pairs the
/// join kept, in scan order, so no candidate tuple is ever copied. Every
/// query whose device part joins the same event tuple the same way holds
/// the same block, as does every later copy of a request (event queue,
/// snapshot forks, retries); [`CandidateBlock::retain`] narrows a copy
/// without touching the others.
///
/// It renders (`Debug`) and compares (`==`) as the list of
/// `(DeviceId, Tuple)` pairs it stands for, which is what the engine's
/// state digest hashes for a queued request.
#[derive(Clone, Default)]
pub struct CandidateBlock {
    scan: Arc<Vec<Tuple>>,
    rows: Arc<Rows>,
}

/// Which rows of a scan a join kept, in scan order, by device.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Rows {
    pairs: Vec<(DeviceId, u32)>,
    /// Whether `pairs` ascend by device — true for every join over a
    /// registry scan, which comes out in id order — so that a lookup can
    /// bisect.
    sorted: bool,
}

impl Rows {
    fn new(pairs: Vec<(DeviceId, u32)>) -> Rows {
        let sorted = pairs.windows(2).all(|w| w[0].0 < w[1].0);
        Rows { pairs, sorted }
    }
}

impl CandidateBlock {
    fn new(scan: Arc<Vec<Tuple>>, rows: Arc<Rows>) -> CandidateBlock {
        CandidateBlock { scan, rows }
    }

    /// A block owning its tuples: what a request read back from the WAL, or
    /// built by a reference join, holds.
    pub fn from_vec(candidates: Vec<(DeviceId, Tuple)>) -> CandidateBlock {
        let (pairs, scan): (Vec<_>, Vec<_>) = candidates
            .into_iter()
            .zip(0u32..)
            .map(|((d, t), row)| ((d, row), t))
            .unzip();
        CandidateBlock::new(Arc::new(scan), Arc::new(Rows::new(pairs)))
    }

    /// The candidates as owned pairs, in block order.
    pub fn to_vec(&self) -> Vec<(DeviceId, Tuple)> {
        self.iter().map(|(d, t)| (d, t.clone())).collect()
    }

    /// The candidates with their scan tuples, in block order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (DeviceId, &Tuple)> + '_ {
        self.rows
            .pairs
            .iter()
            .map(|&(d, row)| (d, &self.scan[row as usize]))
    }

    /// The scan tuple of candidate `device`, if it is one.
    pub fn get(&self, device: DeviceId) -> Option<&Tuple> {
        let pairs = &self.rows.pairs;
        let at = if self.rows.sorted {
            pairs.binary_search_by_key(&device, |&(d, _)| d).ok()?
        } else {
            pairs.iter().position(|&(d, _)| d == device)?
        };
        Some(&self.scan[pairs[at].1 as usize])
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.rows.pairs.len()
    }

    /// Whether the block has no candidates.
    pub fn is_empty(&self) -> bool {
        self.rows.pairs.is_empty()
    }

    /// Keeps the candidates `keep` accepts, in order. Copies the pairs
    /// first when another holder shares them; the scan is never copied.
    pub fn retain(&mut self, mut keep: impl FnMut(DeviceId) -> bool) {
        Arc::make_mut(&mut self.rows)
            .pairs
            .retain(|&(d, _)| keep(d));
    }

    /// Whether two blocks are the same block, not merely equal.
    pub fn ptr_eq(a: &CandidateBlock, b: &CandidateBlock) -> bool {
        Arc::ptr_eq(&a.scan, &b.scan) && Arc::ptr_eq(&a.rows, &b.rows)
    }

    /// The block's identity, for grouping the holders of one block.
    pub(crate) fn identity(&self) -> (*const Vec<Tuple>, *const Rows) {
        (Arc::as_ptr(&self.scan), Arc::as_ptr(&self.rows))
    }
}

impl std::fmt::Debug for CandidateBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for CandidateBlock {
    fn eq(&self, other: &CandidateBlock) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// One instantiated action request — "the request from a query for the
/// execution of an action with instantiated input parameter values" (§5).
///
/// The triggering event tuple rides along (tagged with the query ID, per
/// §2.3) so that argument expressions referencing the event binding can be
/// evaluated once the optimizer has selected a device; each candidate
/// carries its scan tuple for the device-side arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionRequest {
    /// The query that produced the request (the tuple's tag).
    pub query_id: u32,
    /// Action name.
    pub action: String,
    /// The event tuple that fired.
    pub event_tuple: Tuple,
    /// Binding name of the event table in the query (`s`).
    pub event_binding: String,
    /// The event table's device kind.
    pub event_kind: DeviceKind,
    /// Binding name and kind of the device table, when the plan has one.
    pub device_binding: Option<(String, DeviceKind)>,
    /// The action call's argument expressions (evaluated per selected
    /// device at execution).
    pub args: Vec<Expr>,
    /// Candidate devices with their scan tuples, from the candidate filter.
    pub candidates: CandidateBlock,
    /// When the triggering event was detected.
    pub created_at: SimTime,
    /// Absolute virtual-time deadline: the action must *complete* by this
    /// instant or the work is worthless (the event is gone). Rides with the
    /// request across retries, failovers and gateway escalations — a reroute
    /// carries the remaining budget, it never resets it.
    /// [`SimTime::MAX`] means unbounded (deadline enforcement disabled).
    pub deadline: SimTime,
    /// Brownout flag: admission control degraded this request to reduced
    /// quality (e.g. a lo-res photo at lower atomic-operation cost). A
    /// degraded completion counts in `degraded`, not `executed`.
    pub degraded: bool,
    /// How many times this request has already failed and been re-dispatched.
    pub attempts: u32,
    /// How many times a cluster gateway has re-routed this request to a
    /// sibling shard. Caps reroute loops: the gateway drops a request once
    /// it has visited every shard. Always zero on a standalone engine.
    pub hops: u32,
}

#[cfg(test)]
thread_local! {
    /// Puts this test thread's engines on the reference path the shared one
    /// is compared against: every fired event joins its own candidates
    /// (`fire_tests::candidates_for_reference`) and every (request,
    /// candidate) pair evaluates its own arguments.
    pub(crate) static PER_PLAN_REFERENCE: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

impl ActionRequest {
    /// The scan tuple `device` carried into this request's candidate block.
    pub(crate) fn candidate_tuple(&self, device: DeviceId) -> Option<&Tuple> {
        self.candidates.get(device)
    }

    /// Where costing this request on a candidate gets the camera head
    /// target from, derived once per request. The target location is
    /// shared when every argument is either free of the device binding
    /// (evaluated here, once) or a plain device column whose schema type is
    /// not `Location` — it cannot supply the target and, being a bare
    /// column, cannot fail to evaluate.
    pub(crate) fn aim(&self, def: &ActionDef, registry: &DeviceRegistry) -> Aim {
        if def.kind() != DeviceKind::Camera {
            return Aim::NoHead;
        }
        #[cfg(test)]
        if PER_PLAN_REFERENCE.get() {
            return Aim::PerCandidate;
        }
        let event_schema = registry.schema(self.event_kind);
        let device = self
            .device_binding
            .as_ref()
            .map(|(binding, kind)| (binding.as_str(), registry.schema(*kind)));
        if device.is_some_and(|(binding, _)| binding == self.event_binding) {
            return Aim::PerCandidate;
        }
        let ctx = EvalContext { registry };
        let env = Env::new().bind(&self.event_binding, event_schema, &self.event_tuple);
        // A column that resolves (or could resolve) to the device binding.
        let on_device = |qualifier: &Option<String>, name: &str| match qualifier {
            Some(q) => device.is_some_and(|(binding, _)| q == binding),
            None => event_schema.index_of(name).is_none(),
        };
        let mut target = None;
        for arg in &self.args {
            let mut device_free = true;
            arg.walk(&mut |e| {
                if let Expr::Column { qualifier, name } = e {
                    device_free &= !on_device(qualifier, name);
                }
            });
            if device_free {
                match eval_expr(arg, &env, &ctx) {
                    Ok(v) if target.is_none() => target = v.as_location().copied(),
                    Ok(_) => {}
                    // Fails the same way whichever candidate is bound.
                    Err(_) => return Aim::At(None),
                }
                continue;
            }
            let inert = match (arg, device) {
                (Expr::Column { name, .. }, Some((_, schema))) => schema
                    .index_of(name)
                    .and_then(|i| schema.attr(i))
                    .is_some_and(|a| a.value_type() != ValueType::Location),
                _ => false,
            };
            if !inert {
                return Aim::PerCandidate;
            }
        }
        Aim::At(target)
    }
}

/// Where costing a request on a candidate gets the camera head target from
/// (see [`ActionRequest::aim`]).
#[derive(Debug)]
pub(crate) enum Aim {
    /// The action moves no camera head.
    NoHead,
    /// Every candidate aims at this location; `None`: the arguments yield
    /// no location, so no candidate can be costed.
    At(Option<Location>),
    /// The location depends on the candidate's own tuple.
    PerCandidate,
}

impl Aim {
    /// What the aim contributes to a request's pricing class in a dispatch
    /// batch: requests of one block with equal keys and brownout flags cost
    /// every candidate alike. A target compares by its exact bit pattern;
    /// a per-candidate aim depends on the request's own arguments, so it
    /// keys on the request's position in the batch.
    pub(crate) fn key(&self, request: usize) -> AimKey {
        match self {
            Aim::NoHead => AimKey::NoHead,
            Aim::At(None) => AimKey::Nowhere,
            Aim::At(Some(loc)) => AimKey::At([loc.x, loc.y, loc.z].map(f64::to_bits)),
            Aim::PerCandidate => AimKey::Request(request),
        }
    }
}

/// See [`Aim::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AimKey {
    NoHead,
    Nowhere,
    At([u64; 3]),
    Request(usize),
}

/// What one run of a device part's candidate join over one event tuple
/// produced: the rows it kept, plus the findings each joining query
/// accounts for itself (its own error counters, dedup keys and trace lines).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct JoinOutcome {
    rows: Arc<Rows>,
    /// Device conjuncts that failed to evaluate, in scan order:
    /// (conjunct index, error message).
    pub errors: Vec<(usize, String)>,
    /// Ids of joined device tuples that cannot name a device, in scan order.
    pub bad_ids: Vec<Option<i64>>,
}

impl JoinOutcome {
    /// The candidate join itself: every tuple of the device `scan` that
    /// satisfies all of the device part's conjuncts against `event_tuple`.
    /// A conjunct that *errors* excludes the candidate, same as false, and
    /// is reported rather than folded away: silence would hide a
    /// permanently broken join predicate forever.
    fn compute(
        plan: &AqPlan,
        device_part: &DevicePart,
        event_tuple: &Tuple,
        scan: &[Tuple],
        registry: &DeviceRegistry,
    ) -> JoinOutcome {
        let device_schema = registry.schema(device_part.kind);
        let event_schema = registry.schema(plan.event_kind);
        let id_idx = device_schema.index_of("id").expect("catalogs define id");
        let ctx = EvalContext { registry };
        let Some(first) = scan.first() else {
            return JoinOutcome::default();
        };
        // One environment for the whole scan: the device binding moves
        // from row to row.
        let mut env = Env::new()
            .bind(&plan.event_binding, event_schema, event_tuple)
            .bind(&device_part.binding, device_schema, first);
        let (mut pairs, mut errors, mut bad_ids) = (Vec::new(), Vec::new(), Vec::new());
        for (dt, row) in scan.iter().zip(0u32..) {
            env.rebind_last(dt);
            let mut pass = true;
            for (idx, c) in device_part.conjuncts.iter().enumerate() {
                match eval_predicate(c, &env, &ctx) {
                    Ok(true) => {}
                    Ok(false) => {
                        pass = false;
                        break;
                    }
                    Err(e) => {
                        errors.push((idx, e.to_string()));
                        pass = false;
                        break;
                    }
                }
            }
            if !pass {
                continue;
            }
            // A device id outside the u32 range cannot address a real
            // device: `as u32` would silently truncate it onto some
            // *other* device's id. Reject and count instead.
            let raw = dt.get(id_idx).and_then(Value::as_i64);
            match raw.and_then(|r| u32::try_from(r).ok()) {
                Some(idx) => pairs.push((DeviceId::new(device_part.kind, idx), row)),
                None => bad_ids.push(raw),
            }
        }
        JoinOutcome {
            rows: Arc::new(Rows::new(pairs)),
            errors,
            bad_ids,
        }
    }

    /// The candidate block of this outcome over `scan`, the scan it was
    /// computed from.
    pub(crate) fn block(&self, scan: &Arc<Vec<Tuple>>) -> CandidateBlock {
        CandidateBlock::new(scan.clone(), self.rows.clone())
    }
}

#[cfg(test)]
thread_local! {
    /// Joins this thread's engines answered from the static-join memo.
    pub(crate) static MEMO_HITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The candidate joins an engine has run, one [`JoinGroup`] per distinct
/// join, in first-seen order. Plans are compared as expressions, never as
/// text (`2` and `2.0` print alike and divide differently): `Value`'s
/// derived equality keeps `Int` and `Float` apart, and the only floats
/// `==` conflates, `0.0` and `-0.0`, cannot both be literals — the lexer
/// reads unsigned digits, a sign is a `Unary` node.
///
/// A group whose join reads only static inputs (see [`reads_only_static`])
/// memoises its outcome per event source across epochs: over a registry
/// scan, the same source joins the same rows with the same findings until
/// the registry's membership changes, which moves
/// [`DeviceRegistry::generation`] and empties the memo. Derived state: it
/// is emptied on every `CREATE`/`DROP AQ`, starts empty in a snapshot
/// fork, and never reaches a digest, an image or the log.
#[derive(Default)]
pub(crate) struct JoinGroups {
    groups: Vec<JoinGroup>,
    /// The registry generation every memo entry was computed at.
    generation: u64,
}

/// One distinct join: what a plan's join reads from the plan — event
/// table, both bindings, device part — and, for a static join, its
/// outcomes by event source id.
struct JoinGroup {
    event_kind: DeviceKind,
    event_binding: String,
    part: DevicePart,
    memo: Option<BTreeMap<i64, JoinOutcome>>,
}

impl JoinGroups {
    /// The outcome of `plan`'s join over `part` for `event_tuple`, the
    /// `t`-th tuple of its batch: from the memo, by the tuple's source id,
    /// when the group is static and `cache` holds registry scans; else run
    /// once per epoch and shared by every plan of the group.
    pub(crate) fn outcome(
        &mut self,
        plan: &AqPlan,
        part: &DevicePart,
        t: usize,
        event_tuple: &Tuple,
        cache: &EpochScans,
        registry: &DeviceRegistry,
    ) -> JoinOutcome {
        let same = |g: &JoinGroup| {
            g.event_kind == plan.event_kind
                && g.event_binding == plan.event_binding
                && g.part == *part
        };
        let g = self.groups.iter().position(same).unwrap_or_else(|| {
            self.groups.push(JoinGroup {
                event_kind: plan.event_kind,
                event_binding: plan.event_binding.clone(),
                part: part.clone(),
                memo: reads_only_static(plan, part, registry).then(BTreeMap::new),
            });
            self.groups.len() - 1
        });
        let compute =
            || JoinOutcome::compute(plan, part, event_tuple, cache.scan(part.kind), registry);
        if let Some(now) = cache.generation.filter(|&now| now != self.generation) {
            self.generation = now;
            for memo in self.groups.iter_mut().filter_map(|g| g.memo.as_mut()) {
                memo.clear();
            }
        }
        let source = registry
            .schema(plan.event_kind)
            .index_of("id")
            .and_then(|i| event_tuple.get(i))
            .and_then(Value::as_i64);
        match (&mut self.groups[g].memo, cache.generation, source) {
            (Some(memo), Some(_), Some(source)) => {
                if let Some(hit) = memo.get(&source) {
                    debug_assert_eq!(*hit, compute(), "static join memo went stale");
                    #[cfg(test)]
                    MEMO_HITS.set(MEMO_HITS.get() + 1);
                    return hit.clone();
                }
                memo.entry(source).or_insert_with(compute).clone()
            }
            _ => cache
                .joins
                .borrow_mut()
                .entry((g, t))
                .or_insert_with(compute)
                .clone(),
        }
    }
}

/// Whether a join's outcome depends only on registry membership and the
/// event source: every column it reads is a non-sensory attribute of the
/// event or the device binding, other than a phone's `loc` (phones move),
/// and every call is `coverage` or `distance`. Resolves columns the way
/// [`Env`] does, event binding first; a column neither binding has reads
/// as non-static.
fn reads_only_static(plan: &AqPlan, part: &DevicePart, registry: &DeviceRegistry) -> bool {
    let bindings = [
        (plan.event_binding.as_str(), plan.event_kind),
        (part.binding.as_str(), part.kind),
    ];
    let attr = |qualifier: &Option<String>, name: &str| {
        bindings
            .iter()
            .filter(|(b, _)| qualifier.as_deref().is_none_or(|q| q == *b))
            .find_map(|&(_, kind)| {
                let schema = registry.schema(kind);
                schema
                    .index_of(name)
                    .and_then(|i| schema.attr(i))
                    .map(|a| (kind, a))
            })
    };
    let mut fixed = true;
    for conjunct in &part.conjuncts {
        conjunct.walk(&mut |e| match e {
            Expr::Column { qualifier, name } => {
                fixed &= attr(qualifier, name).is_some_and(|(kind, a)| {
                    a.kind() == AttrKind::NonSensory
                        && !(kind == DeviceKind::Phone && a.name() == "loc")
                });
            }
            Expr::Call { name, .. } => fixed &= matches!(name.as_str(), "coverage" | "distance"),
            Expr::WindowAgg { .. } => fixed = false,
            Expr::Literal(_) | Expr::Unary { .. } | Expr::Binary { .. } => {}
        });
    }
    fixed
}

/// One sampling epoch's scan batches, one per device kind, each shared by
/// reference with the candidate blocks joined over it, and the joins run
/// over them that the memo does not hold, by (join group, event tuple). It
/// is a local of the epoch, never engine state, so snapshots, digests and
/// the gateway paths (which rescan) cannot see a stale block.
#[derive(Debug, Default)]
pub(crate) struct EpochScans {
    pub scans: BTreeMap<DeviceKind, Arc<Vec<Tuple>>>,
    /// The registry generation the scans were taken at, when they are the
    /// registry's own scans of a sampling epoch; `None` for a batch from
    /// elsewhere (`detect_on_batch`, a gateway rescan for a foreign event),
    /// whose joins never touch the static-join memo.
    pub generation: Option<u64>,
    joins: RefCell<BTreeMap<(usize, usize), JoinOutcome>>,
}

impl EpochScans {
    /// The epoch's scan of `kind`; empty when the epoch did not scan it.
    pub(crate) fn scan(&self, kind: DeviceKind) -> &[Tuple] {
        self.scans.get(&kind).map_or(&[], |s| s.as_slice())
    }
}

/// The per-action-name shared operator: a request accumulator with
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct SharedActionOperator {
    pending: Vec<ActionRequest>,
    /// Which queries share this operator (for introspection).
    subscribers: BTreeMap<u32, u64>,
    total_enqueued: u64,
}

impl SharedActionOperator {
    /// An empty operator.
    pub fn new() -> Self {
        SharedActionOperator::default()
    }

    /// Enqueues one request.
    pub fn push(&mut self, request: ActionRequest) {
        *self.subscribers.entry(request.query_id).or_insert(0) += 1;
        self.total_enqueued += 1;
        self.pending.push(request);
    }

    /// Drains every pending request for batch dispatch.
    pub fn drain(&mut self) -> Vec<ActionRequest> {
        std::mem::take(&mut self.pending)
    }

    /// The requests currently pending, in arrival order.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> &[ActionRequest] {
        &self.pending
    }

    /// Requests currently pending.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Distinct queries that have fed this operator.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Requests enqueued over the operator's lifetime.
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }

    /// Per-query request counts (query ID → requests), for introspection.
    pub fn per_query_counts(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.subscribers.iter().map(|(&q, &n)| (q, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(query_id: u32) -> ActionRequest {
        ActionRequest {
            query_id,
            action: "photo".into(),
            event_tuple: Tuple::new(vec![]).tagged(query_id),
            event_binding: "s".into(),
            event_kind: DeviceKind::Sensor,
            device_binding: Some(("c".into(), DeviceKind::Camera)),
            args: Vec::new(),
            candidates: CandidateBlock::from_vec(vec![
                (DeviceId::camera(0), Tuple::new(vec![])),
                (DeviceId::camera(1), Tuple::new(vec![])),
            ]),
            created_at: SimTime::ZERO,
            deadline: SimTime::MAX,
            degraded: false,
            attempts: 0,
            hops: 0,
        }
    }

    fn pairs() -> Vec<(DeviceId, Tuple)> {
        let t = |id: i64, ip: &str| {
            Tuple::new(vec![
                Value::Int(id),
                Value::Str(ip.into()),
                Value::Location(Location::new(1.5, -2.0, 3.0)),
                Value::Null,
                Value::Float(0.25),
            ])
        };
        vec![
            (DeviceId::camera(1), t(1, "192.168.0.101")),
            (DeviceId::camera(4), t(4, "192.168.0.104").tagged(7)),
            (DeviceId::camera(9), t(9, "")),
        ]
    }

    /// The digest hashes a queued request through `Debug`, so a block must
    /// render exactly as an `Arc<Vec<(DeviceId, Tuple)>>` of its pairs.
    #[test]
    fn blocks_render_and_compare_like_the_pair_list() {
        for list in [pairs(), pairs().into_iter().rev().collect(), Vec::new()] {
            let block = CandidateBlock::from_vec(list.clone());
            let old = Arc::new(list.clone());
            assert_eq!(format!("{block:?}"), format!("{old:?}"));
            assert_eq!(format!("{block:#?}"), format!("{old:#?}"));
            assert_eq!(block.to_vec(), list);
            assert_eq!(block.len(), list.len());
            assert_eq!(block, CandidateBlock::from_vec(list.clone()));
            for (d, t) in &list {
                assert_eq!(
                    block.get(*d),
                    Some(t),
                    "sorted or not, every candidate is found"
                );
            }
            assert_eq!(block.get(DeviceId::camera(2)), None);
        }
        let mut other = pairs();
        other[2].1 = Tuple::new(vec![]);
        assert_ne!(
            CandidateBlock::from_vec(pairs()),
            CandidateBlock::from_vec(other)
        );
    }

    #[test]
    fn retain_keeps_order_and_leaves_other_holders_whole() {
        for list in [pairs(), pairs().into_iter().rev().collect()] {
            let whole = CandidateBlock::from_vec(list.clone());
            let mut narrowed = whole.clone();
            assert!(CandidateBlock::ptr_eq(&whole, &narrowed));
            narrowed.retain(|d| d != DeviceId::camera(4));
            let mut expected = list.clone();
            expected.retain(|(d, _)| *d != DeviceId::camera(4));
            assert_eq!(narrowed.to_vec(), expected);
            assert_eq!(format!("{narrowed:?}"), format!("{expected:?}"));
            assert_eq!(narrowed.get(DeviceId::camera(4)), None);
            assert_eq!(
                narrowed.get(DeviceId::camera(9)),
                Some(&list_tuple(&list, 9))
            );
            assert!(!CandidateBlock::ptr_eq(&whole, &narrowed));
            assert_eq!(whole.to_vec(), list, "the shared block is untouched");
        }
    }

    fn list_tuple(list: &[(DeviceId, Tuple)], camera: u32) -> Tuple {
        let (_, t) = list
            .iter()
            .find(|(d, _)| *d == DeviceId::camera(camera))
            .unwrap();
        t.clone()
    }

    #[test]
    fn batches_requests_from_multiple_queries() {
        let mut op = SharedActionOperator::new();
        op.push(req(1));
        op.push(req(2));
        op.push(req(1));
        assert_eq!(op.pending_len(), 3);
        assert_eq!(op.subscriber_count(), 2);
        let batch = op.drain();
        assert_eq!(batch.len(), 3);
        assert_eq!(op.pending_len(), 0);
        assert_eq!(op.total_enqueued(), 3);
        // Query tags survive into the batch — the operator knows which
        // tuples are for which query.
        assert_eq!(batch[0].query_id, 1);
        assert_eq!(batch[1].query_id, 2);
    }

    #[test]
    fn per_query_counts_accumulate() {
        let mut op = SharedActionOperator::new();
        for _ in 0..3 {
            op.push(req(7));
        }
        op.push(req(9));
        let counts: Vec<(u32, u64)> = op.per_query_counts().collect();
        assert_eq!(counts, vec![(7, 3), (9, 1)]);
    }

    #[test]
    fn drain_on_empty_is_empty() {
        let mut op = SharedActionOperator::new();
        assert!(op.drain().is_empty());
    }
}
