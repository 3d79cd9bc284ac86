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

use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::sync::Arc;

use aorta_data::{Location, Tuple, Value, ValueType};
use aorta_device::{DeviceId, DeviceKind};
use aorta_net::DeviceRegistry;
use aorta_sim::SimTime;
use aorta_sql::ast::Expr;

use crate::actions::ActionDef;
use crate::expr::{eval_expr, eval_predicate, Env, EvalContext};
use crate::plan::{AqPlan, DevicePart};

/// The candidate devices of one fired event, with their scan tuples: the
/// 1-to-many side of event → candidates, kept as one immutable list. Every
/// query whose device part joins the same event tuple the same way holds the
/// same block, as does every later copy of a request (event queue, snapshot
/// forks, retries) — it is written only through [`Arc::make_mut`].
pub type CandidateBlock = Arc<Vec<(DeviceId, Tuple)>>;

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
        let (_, tuple) = self.candidates.iter().find(|(d, _)| *d == device)?;
        Some(tuple)
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
/// produced: the block, plus the findings each joining query accounts for
/// itself (its own error counters, dedup keys and trace lines).
#[derive(Debug, Default)]
pub(crate) struct JoinOutcome {
    pub candidates: CandidateBlock,
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
        let mut candidates = Vec::new();
        let mut outcome = JoinOutcome::default();
        for dt in scan {
            let env = Env::new()
                .bind(&plan.event_binding, event_schema, event_tuple)
                .bind(&device_part.binding, device_schema, dt);
            let mut pass = true;
            for (idx, c) in device_part.conjuncts.iter().enumerate() {
                match eval_predicate(c, &env, &ctx) {
                    Ok(true) => {}
                    Ok(false) => {
                        pass = false;
                        break;
                    }
                    Err(e) => {
                        outcome.errors.push((idx, e.to_string()));
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
                Some(idx) => candidates.push((DeviceId::new(device_part.kind, idx), dt.clone())),
                None => outcome.bad_ids.push(raw),
            }
        }
        outcome.candidates = Arc::new(candidates);
        outcome
    }
}

/// The candidate joins of one epoch that read the same things from their
/// plans — event table, both bindings, device part — and so find the same
/// candidates for the same event tuple, whichever plan runs them. Plans are
/// compared as expressions, never as text (`2` and `2.0` print alike and
/// divide differently): `Value`'s derived equality keeps `Int` and `Float`
/// apart, and the only floats `==` conflates, `0.0` and `-0.0`, cannot both
/// be literals — the lexer reads unsigned digits, a sign is a `Unary` node.
#[derive(Debug)]
struct JoinGroup {
    event_kind: DeviceKind,
    event_binding: String,
    part: DevicePart,
    /// Outcomes by the event tuple's index in its scan batch.
    by_tuple: BTreeMap<usize, JoinOutcome>,
}

/// One sampling epoch's scan batches, one per device kind, and the
/// candidate joins already run over them, one [`JoinGroup`] per distinct
/// join (a handful; found by comparison). It is a local of the epoch, never
/// engine state, so snapshots, digests and the gateway paths (which rescan)
/// cannot see a stale block.
#[derive(Debug, Default)]
pub(crate) struct EpochScans {
    pub scans: BTreeMap<DeviceKind, Vec<Tuple>>,
    joins: RefCell<Vec<JoinGroup>>,
}

impl EpochScans {
    /// The outcome of `plan`'s join over `part` for `event_tuple`, the
    /// `t`-th tuple of its batch: run on first use, shared afterwards.
    pub(crate) fn join(
        &self,
        plan: &AqPlan,
        part: &DevicePart,
        t: usize,
        event_tuple: &Tuple,
        registry: &DeviceRegistry,
    ) -> RefMut<'_, JoinOutcome> {
        RefMut::map(self.joins.borrow_mut(), |joins| {
            let same = |g: &JoinGroup| {
                g.event_kind == plan.event_kind
                    && g.event_binding == plan.event_binding
                    && g.part == *part
            };
            let group = joins.iter().position(same).unwrap_or_else(|| {
                joins.push(JoinGroup {
                    event_kind: plan.event_kind,
                    event_binding: plan.event_binding.clone(),
                    part: part.clone(),
                    by_tuple: BTreeMap::new(),
                });
                joins.len() - 1
            });
            joins[group].by_tuple.entry(t).or_insert_with(|| {
                let scan = self.scans.get(&part.kind).map_or(&[][..], Vec::as_slice);
                JoinOutcome::compute(plan, part, event_tuple, scan, registry)
            })
        })
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
            candidates: Arc::new(vec![
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
