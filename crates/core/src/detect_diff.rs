//! Differential tests of index detection against the scalar reference it
//! replaced: the original per-plan, tuple-at-a-time walk with its own
//! rising-edge map, kept here as test support only.
//!
//! Detection through the predicate index must be *observably
//! indistinguishable* from that walk: same events, same rising-edge
//! transitions, same counters, byte-identical traces. These properties are
//! checked over randomized workloads — random AQ sets with mixed attributes,
//! operators and constants (drawn from small pools so duplicates and
//! overlaps are common), non-indexable predicates, error-prone predicates,
//! windowed aggregates, interleaved register/drop churn, and random tuple
//! batches including id-less and NULL-valued tuples. Both sides also replay
//! with pushdown accounting enabled and must stay observably identical
//! (suppression is bookkeeping, never behaviour), with a wire ledger that
//! never exceeds the ship-everything baseline — and the reference charges
//! that ledger from its own ship/suppress decision, read off its per-plan
//! walk, so the two pushdown arms compare independent derivations. The
//! pushdown arms run with observability on, and the reference counts the
//! conjuncts its walk reaches, so the logical evaluation counters the index
//! derives from its batch bitsets are checked against a per-tuple count.
//! Batches range from one tuple to a few 64-tuple words, so partial final
//! words and sources repeated across a word boundary are exercised.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use aorta_data::{Location, Schema, Tuple, Value};
use aorta_device::pushdown::{numeric_sample, PushAgg, SampleRing, WindowBank, WindowState};
use aorta_device::{DeviceKind, PervasiveLab};
use aorta_obs::detect_metrics;
use aorta_sim::{SimDuration, SimRng};
use aorta_sql::ast::Statement;

use crate::expr::{eval_predicate, extract_comparison, Env, EvalContext};
use crate::shared::EpochScans;
use crate::{Aorta, AqPlan, Catalog, EngineConfig, PushdownStats};

/// Rising-edge state per (query, event source): true while the event
/// predicate currently holds, so one physical event fires one request.
type EdgeMap = BTreeMap<(u32, i64), bool>;

thread_local! {
    /// The state of the engine this thread is driving as the reference;
    /// `None` means detection runs through the index as in production.
    static REFERENCE: RefCell<Option<Reference>> = const { RefCell::new(None) };
}

/// The reference's detection state, one per reference engine (the harness
/// steps several engines in lock-step on one thread): its rising-edge map
/// and a window of its own per (query, conjunct, source), never the
/// engine's shared rings. Entries of dropped queries are never collected:
/// ids are not reused, so they are inert.
#[derive(Default)]
struct Reference {
    edge: EdgeMap,
    windows: WindowBank,
}

impl Reference {
    /// Runs `f` with this thread's detection routed through the scalar
    /// walk over this state.
    fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        struct Restore<'a>(&'a mut Reference);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                *self.0 = REFERENCE.take().unwrap_or_default();
            }
        }
        REFERENCE.set(Some(std::mem::take(self)));
        let _restore = Restore(self);
        f()
    }
}

/// The `cfg(test)` hook at the top of `Aorta::detect`: when this thread is
/// inside [`Reference::run`], walks every plan whose event kind was scanned,
/// in catalog name order, and reports the epoch as handled. With pushdown
/// on it also charges the byte ledger, suppressing a tuple of a kind no
/// query targets as a device when every plan watching the kind rejected it
/// inside its pushed prefix.
pub(super) fn reference_detect(engine: &mut Aorta, cache: &EpochScans) -> bool {
    let Some(mut state) = REFERENCE.take() else {
        return false;
    };
    let plans: Vec<AqPlan> = engine
        .catalog
        .queries()
        .filter(|p| cache.scans.contains_key(&p.event_kind))
        .cloned()
        .collect();
    let device_kinds: BTreeSet<DeviceKind> = engine
        .catalog
        .queries()
        .filter_map(|p| p.device.as_ref().map(|d| d.kind))
        .collect();
    let mut suppress: BTreeMap<DeviceKind, Vec<bool>> = BTreeMap::new();
    let mut tally = Tally::default();
    for plan in &plans {
        let rejected = detect_events(engine, plan, cache, &mut state, &mut tally);
        if !device_kinds.contains(&plan.event_kind) {
            suppress
                .entry(plan.event_kind)
                .or_insert_with(|| vec![true; rejected.len()])
                .iter_mut()
                .zip(rejected)
                .for_each(|(s, r)| *s &= r);
        }
    }
    if engine.config.pushdown {
        engine.account_pushdown(cache, &suppress);
    }
    if let Some(m) = &engine.obs {
        m.incr(detect_metrics::INDEXED_EVALS, &[], tally.indexed);
        m.incr(detect_metrics::FALLBACK_EVALS, &[], tally.other);
        m.incr(
            detect_metrics::CONJUNCT_EVALS,
            &[],
            tally.indexed + tally.other,
        );
    }
    REFERENCE.set(Some(state));
    true
}

/// Conjuncts the reference walk reached, split the way registration
/// classifies them: `attr <op> constant` comparisons versus everything else
/// (fallback and windowed conjuncts).
#[derive(Default)]
struct Tally {
    indexed: u64,
    other: u64,
}

/// Event detection as it was before the predicate index: one plan, one
/// tuple at a time, side effects applied in place. Returns, per tuple,
/// whether the plan's pushed prefix — its leading conjuncts a mote can
/// decide alone: windowed aggregates and `attr <op> constant` comparisons —
/// rejected it: the walk stopped on a clean false inside that prefix. An
/// id-less tuple, an error, or a stop further down is not a rejection.
/// Every conjunct the walk evaluates is counted into `tally`.
fn detect_events(
    engine: &mut Aorta,
    plan: &AqPlan,
    cache: &EpochScans,
    state: &mut Reference,
    tally: &mut Tally,
) -> Vec<bool> {
    let event_schema = engine.registry.schema(plan.event_kind).clone();
    let id_idx = event_schema.index_of("id").expect("catalogs define id");
    let event_tuples = cache.scans.get(&plan.event_kind).expect("scanned above");
    // Per conjunct: a windowed aggregate, an indexable comparison, or neither.
    let windowed: Vec<bool> = (0..plan.event_conjuncts.len())
        .map(|idx| plan.windowed.iter().any(|w| w.idx == idx))
        .collect();
    let indexed: Vec<bool> = plan
        .event_conjuncts
        .iter()
        .zip(&windowed)
        .map(|(c, &w)| !w && extract_comparison(c, &plan.event_binding, &event_schema).is_some())
        .collect();
    let pushed = windowed
        .iter()
        .zip(&indexed)
        .take_while(|(&w, &i)| w || i)
        .count();
    let mut rejected = vec![false; event_tuples.len()];

    for (t, tuple) in event_tuples.iter().enumerate() {
        let Some(source) = tuple.get(id_idx).and_then(Value::as_i64) else {
            engine.note_idless(plan);
            continue;
        };
        // Windows advance on *every* scanned tuple before the conjunct
        // walk, so a windowed conjunct observes the window including the
        // current sample.
        for w in &plan.windowed {
            let attr = event_schema
                .index_of(&w.attr)
                .expect("windowed attrs are validated at plan time");
            state.windows.advance(
                plan.query_id,
                w.idx,
                source,
                w.window,
                numeric_sample(tuple.get(attr)),
            );
        }
        let matched = {
            let ctx = EvalContext {
                registry: &engine.registry,
            };
            let env = Env::new().bind(&plan.event_binding, &event_schema, tuple);
            let mut all = true;
            for (idx, conjunct) in plan.event_conjuncts.iter().enumerate() {
                if indexed[idx] {
                    tally.indexed += 1;
                } else {
                    tally.other += 1;
                }
                let outcome = match plan.windowed.iter().find(|w| w.idx == idx) {
                    Some(w) => {
                        match state.windows.aggregate(plan.query_id, w.idx, source, w.agg) {
                            // No numeric sample in the window: false, not
                            // an error.
                            None => Ok(false),
                            Some(v) => v
                                .compare(&w.constant)
                                .map(|ord| w.op.matches(ord))
                                .map_err(|e| crate::EngineError::Eval(e.to_string())),
                        }
                    }
                    None => eval_predicate(conjunct, &env, &ctx),
                };
                match outcome {
                    Ok(true) => {}
                    Ok(false) => {
                        rejected[t] = idx < pushed;
                        all = false;
                        break;
                    }
                    Err(e) => {
                        if engine.record_eval_error(plan, idx) {
                            engine.trace.emit(
                                engine.now,
                                "eval_error",
                                format!(
                                    "query {} conjunct {idx} failed to evaluate: {e}",
                                    plan.query_id
                                ),
                            );
                        }
                        all = false;
                        break;
                    }
                }
            }
            all
        };
        // A source never observed is low by definition.
        let was = state
            .edge
            .insert((plan.query_id, source), matched)
            .unwrap_or(false);
        if !matched || was {
            continue; // not a rising edge
        }
        engine.fire_event(plan, t, tuple, cache);
    }
    rejected
}

/// One scripted step, applied identically to every engine.
#[derive(Debug, Clone)]
enum Op {
    /// Register a new AQ with the given event predicate.
    Add(String),
    /// Drop the i-th (mod live count) currently registered AQ.
    Drop(usize),
    /// Drop the most recently registered live AQ.
    DropNewest,
    /// Feed one synthetic scan batch to detection.
    Batch(Vec<Tuple>),
    /// Advance virtual time (real scans, dispatch, device events).
    Run(u64),
}

/// Predicates prefixed `CAM ` plan as photo-on-camera AQs: the camera
/// device part leaves the sensor kind suppressible (no query targets
/// sensors as devices), so scripts that drop their last beep query flip
/// sensors between suppressible and not under pushdown, mid-run.
fn plan_for(pred: &str) -> AqPlan {
    let sql = if let Some(p) = pred.strip_prefix("CAM ") {
        format!(
            r#"SELECT photo(c.ip, s.loc, "p") FROM sensor s, camera c
               WHERE {p} AND coverage(c.id, s.loc)"#
        )
    } else {
        format!("SELECT beep(t.id) FROM sensor t, sensor s WHERE {pred}")
    };
    let stmts = aorta_sql::parse(&sql).expect("generated predicates parse");
    let Statement::Select(select) = stmts.into_iter().next().expect("one statement") else {
        panic!("expected SELECT");
    };
    AqPlan::plan("template", &select, &Catalog::with_builtins()).expect("generated plans are valid")
}

const INT_ATTRS: [&str; 4] = ["accel_x", "accel_y", "light", "depth"];
const ALL_ATTRS: [&str; 6] = ["accel_x", "accel_y", "light", "depth", "temp", "battery"];
const OPS: [&str; 6] = [">", ">=", "<", "<=", "=", "<>"];
const CONSTS: [i64; 8] = [-500, -1, 0, 1, 40, 100, 500, 501];
/// Batch sizes around the first and second 64-tuple word boundaries.
const WORD_EDGES: [u64; 6] = [63, 64, 65, 127, 128, 129];

/// A random conjunct the comparison lanes cannot serve: a call or an OR —
/// an interned fallback conjunct.
fn random_fallback(rng: &mut SimRng) -> String {
    if rng.chance(0.5) {
        return "distance(s.loc, s.loc) < 1.0".to_string();
    }
    // Parenthesized: joined with AND by `random_pred`, a bare OR would
    // re-associate (`a AND b OR c` is `(a AND b) OR c`) and swallow
    // neighbouring conjuncts into the fallback slot.
    format!(
        "(s.{} > {} OR s.{} <= {})",
        rng.pick(&INT_ATTRS).unwrap(),
        rng.pick(&CONSTS).unwrap(),
        rng.pick(&INT_ATTRS).unwrap(),
        rng.pick(&CONSTS).unwrap(),
    )
}

/// A random indexable `attr <op> constant` comparison.
fn random_comparison(rng: &mut SimRng) -> String {
    format!(
        "s.{} {} {}",
        rng.pick(&ALL_ATTRS).unwrap(),
        rng.pick(&OPS).unwrap(),
        rng.pick(&CONSTS).unwrap(),
    )
}

/// A random conjunct from a deliberately small vocabulary: small pools of
/// attributes, operators and constants make duplicate and overlapping
/// comparisons (the sharing the index exploits) the common case, while
/// variants 0–2 cover what the comparison lanes *cannot* serve: call and OR
/// conjuncts (fallback slots) and a type-mismatched comparison that errors
/// on every tuple. Variants 3–5 produce windowed aggregates, so random AQ
/// sets mix singleton windowed groups with shared ones, and windowed
/// comparisons land at random depths of the pushdown prefix; variant 5
/// compares against a string or NULL, an error on every defined window
/// whose text carries the aggregate's value.
fn random_conjunct(rng: &mut SimRng) -> String {
    match rng.range(0..=12u64) {
        0 | 1 => random_fallback(rng),
        2 => "s.loc > 500".to_string(),
        3 | 4 => random_windowed(rng),
        5 => format!(
            "{}(s.{}) OVER LAST {} {} {}",
            rng.pick(&AGGS).unwrap(),
            rng.pick(&ALL_ATTRS).unwrap(),
            rng.range(1..=4u64),
            rng.pick(&OPS).unwrap(),
            rng.pick(&["\"hot\"", "NULL"]).unwrap(),
        ),
        _ => random_comparison(rng),
    }
}

const AGGS: [&str; 4] = ["AVG", "MAX", "MIN", "COUNT"];

/// A random windowed comparison. Windowed comparisons take a plain literal
/// on the right (a negative number parses as unary minus, which the planner
/// rejects), so the constant comes from the non-negative half of the pool.
fn random_windowed(rng: &mut SimRng) -> String {
    format!(
        "{}(s.{}) OVER LAST {} {} {}",
        rng.pick(&AGGS).unwrap(),
        rng.pick(&ALL_ATTRS).unwrap(),
        rng.range(1..=4u64),
        rng.pick(&OPS).unwrap(),
        rng.pick(&CONSTS[3..]).unwrap(),
    )
}

fn random_pred(rng: &mut SimRng) -> String {
    let n = rng.range(1..=3u64);
    let conjuncts: Vec<String> = (0..n).map(|_| random_conjunct(rng)).collect();
    let pred = conjuncts.join(" AND ");
    // A third of the AQs dispatch photos instead of beeps (see `plan_for`),
    // mixing device-part kinds so pushdown suppressibility varies with the
    // live query set.
    if rng.chance(0.33) {
        format!("CAM {pred}")
    } else {
        pred
    }
}

/// A random sensor tuple from one of the `online` sources (a small pool,
/// so rising/falling edges recur per source), occasionally id-less, with
/// occasional NULLs and values straddling the constant pool's thresholds.
fn random_tuple(rng: &mut SimRng, schema: &Schema, online: &[i64]) -> Tuple {
    let mut values = vec![Value::Null; schema.len()];
    let set = |name: &str, v: Value, values: &mut Vec<Value>| {
        values[schema.index_of(name).expect("sensor attribute")] = v;
    };
    if !rng.chance(0.15) {
        set("id", Value::Int(*rng.pick(online).unwrap()), &mut values);
    }
    if !rng.chance(0.2) {
        set("loc", Value::Location(Location::ORIGIN), &mut values);
    }
    set("accel_x", Value::Int(rng.range(-600..=600i64)), &mut values);
    if !rng.chance(0.1) {
        set("accel_y", Value::Int(rng.range(-600..=600i64)), &mut values);
    }
    set("light", Value::Int(rng.range(0..=1200i64)), &mut values);
    set("depth", Value::Int(rng.range(1..=4i64)), &mut values);
    if !rng.chance(0.1) {
        set("temp", Value::Float(15.0 + rng.unit() * 20.0), &mut values);
    }
    set("battery", Value::Float(2.0 + rng.unit()), &mut values);
    Tuple::new(values)
}

/// Generates the whole script up front so every engine replays exactly the
/// same operations in the same order.
///
/// It opens with one fallback conjunct shared by two groups — first in
/// one, second behind an indexed partner in the other — so the fallback
/// memo serves walks that reach it at different depths. Batch sources go
/// offline and come back between batches, and half the id pool starts
/// offline, so sources are first seen mid-run in no particular id order —
/// some only after a windowed query registered. One windowed predicate, the
/// echo, is registered again and again some batches apart, so identical
/// windowed AQs overlap cold and warm on the same rings, and the newest AQ
/// is dropped now and then, often mid-warm-up.
fn random_script(seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = SimRng::seed(seed);
    let registry = aorta_net::DeviceRegistry::from_lab(PervasiveLab::standard());
    let schema = registry.schema(DeviceKind::Sensor).clone();
    let mut script = Vec::with_capacity(steps + 4);
    // Always start with at least one query so batches have something to hit.
    script.push(Op::Add(random_pred(&mut rng)));
    let echo = random_windowed(&mut rng);
    script.push(Op::Add(echo.clone()));
    let shared = random_fallback(&mut rng);
    script.push(Op::Add(format!(
        "{shared} AND {}",
        random_comparison(&mut rng)
    )));
    script.push(Op::Add(format!(
        "{} AND {shared}",
        random_comparison(&mut rng)
    )));
    let mut offline: BTreeSet<i64> = (6..=11).collect();
    for _ in 0..steps {
        script.push(match rng.range(0..=11u64) {
            0 | 1 => Op::Add(random_pred(&mut rng)),
            2 => Op::Drop(rng.range(0..=31u64) as usize),
            3 => Op::Run(rng.range(1..=5u64)),
            4 => Op::Add(echo.clone()),
            5 => Op::DropNewest,
            _ => {
                let source = rng.range(0..=11i64);
                if !offline.remove(&source) && offline.len() < 11 {
                    offline.insert(source);
                }
                let online: Vec<i64> = (0..=11).filter(|s| !offline.contains(s)).collect();
                // Mostly small batches; a fifth span one to three 64-tuple
                // words, half of those sitting right on a word boundary.
                let n = match rng.range(0..=9u64) {
                    0 => *rng.pick(&WORD_EDGES).unwrap(),
                    1 => rng.range(60..=140u64),
                    _ => rng.range(1..=12u64),
                };
                Op::Batch(
                    (0..n)
                        .map(|_| random_tuple(&mut rng, &schema, &online))
                        .collect(),
                )
            }
        });
    }
    script
}

/// One engine under test: detecting through the index (`reference: None`)
/// or through the scalar walk over its own edge state.
struct Replay {
    aorta: Aorta,
    reference: Option<Reference>,
    live: Vec<String>,
    next_id: usize,
}

impl Replay {
    fn new(config: EngineConfig, lab: PervasiveLab, reference: bool) -> Replay {
        Replay {
            aorta: Aorta::with_lab(config, lab),
            reference: reference.then(Reference::default),
            live: Vec::new(),
            next_id: 0,
        }
    }

    /// Runs `f` on the engine, on the reference path when this replay is one.
    fn drive(&mut self, f: impl FnOnce(&mut Aorta)) {
        let aorta = &mut self.aorta;
        match &mut self.reference {
            Some(reference) => reference.run(|| f(aorta)),
            None => f(aorta),
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Add(pred) => {
                let mut plan = plan_for(pred);
                plan.name = format!("q{:03}", self.next_id);
                self.next_id += 1;
                self.live.push(plan.name.clone());
                self.aorta
                    .register_query_plan(plan)
                    .expect("names are unique");
            }
            Op::Drop(i) => {
                if self.live.is_empty() {
                    return;
                }
                let name = self.live.remove(i % self.live.len());
                self.aorta.deregister_query(&name).expect("was live");
            }
            Op::DropNewest => {
                if let Some(name) = self.live.pop() {
                    self.aorta.deregister_query(&name).expect("was live");
                }
            }
            Op::Batch(tuples) => {
                self.drive(|a| a.detect_on_batch(DeviceKind::Sensor, tuples.clone()));
            }
            Op::Run(secs) => self.drive(|a| a.run_for(SimDuration::from_secs(*secs))),
        }
    }
}

/// The four arms every comparison runs: {index, reference} × {pushdown off,
/// pushdown on}, in that order. The pushdown arms also record metrics.
fn four_arms(seed: u64, lab: &PervasiveLab) -> [Replay; 4] {
    [(false, false), (true, false), (false, true), (true, true)].map(|(reference, pushdown)| {
        let mut config = EngineConfig::seeded(seed);
        if pushdown {
            config = config.with_pushdown().with_observability();
        }
        Replay::new(config, lab.clone(), reference)
    })
}

/// The logical conjunct-evaluation counters an engine recorded: indexed,
/// fallback (windowed included) and total.
fn eval_counters(aorta: &Aorta) -> [u64; 3] {
    let m = aorta.metrics().expect("observability is on");
    [
        detect_metrics::INDEXED_EVALS,
        detect_metrics::FALLBACK_EVALS,
        detect_metrics::CONJUNCT_EVALS,
    ]
    .map(|name| m.counter_total(name))
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// The core differential property: for any seed, any random AQ set
    /// (windowed aggregates included) and any interleaving of synthetic
    /// batches, real scan epochs and register/drop churn, the index and the
    /// scalar reference agree on every counter after every step and render
    /// byte-identical traces — with pushdown accounting off or on — while
    /// pushdown never claims more wire bytes than the baseline.
    #[test]
    fn index_detection_matches_the_scalar_reference(seed in 0u64..1_000_000) {
        let script = random_script(seed, 40);
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_secs(30), SimDuration::from_secs(3));
        let [mut index, mut reference, mut index_push, mut reference_push] =
            four_arms(seed, &lab);
        for (step, op) in script.iter().enumerate() {
            index.apply(op);
            for (arm, other) in [
                ("reference", &mut reference),
                ("index + pushdown", &mut index_push),
                ("reference + pushdown", &mut reference_push),
            ] {
                other.apply(op);
                proptest::prop_assert_eq!(
                    index.aorta.stats(),
                    other.aorta.stats(),
                    "{} stats diverged at step {} ({:?})",
                    arm,
                    step,
                    op
                );
            }
        }
        let trace = index.aorta.trace().render();
        for (arm, other) in [
            ("reference", &reference),
            ("index + pushdown", &index_push),
            ("reference + pushdown", &reference_push),
        ] {
            proptest::prop_assert_eq!(
                index.aorta.pending_requests(),
                other.aorta.pending_requests()
            );
            let other_trace = other.aorta.trace().render();
            proptest::prop_assert!(
                trace == other_trace,
                "trace bytes diverged for seed {}:\nindex:\n{}\n{}:\n{}",
                seed,
                trace,
                arm,
                other_trace
            );
        }
        // Accounting invariants: pushdown is off by default (no counters on
        // the plain replays), both pushdown arms keep the same ledger, and
        // the wire never costs more than shipping everything.
        proptest::prop_assert_eq!(index.aorta.pushdown_stats(), PushdownStats::default());
        let push = index_push.aorta.pushdown_stats();
        proptest::prop_assert_eq!(push, reference_push.aorta.pushdown_stats());
        proptest::prop_assert!(
            push.wire_bytes() <= push.baseline_bytes,
            "pushdown made the wire more expensive: {:?}",
            push
        );
        proptest::prop_assert_eq!(
            push.saved_bytes(),
            push.baseline_bytes - push.wire_bytes()
        );
        proptest::prop_assert_eq!(
            eval_counters(&index_push.aorta),
            eval_counters(&reference_push.aorta)
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

    /// A shared ring folded from a mark gives, bit for bit, what a window of
    /// the query's own opened at that mark gives: over random sample streams
    /// (NULLs included) with gaps in the stamps, window lengths 1..8, all
    /// four aggregates, and marks before, inside and after the stream.
    #[test]
    fn ring_folds_from_a_mark_equal_a_private_window(
        stream in proptest::collection::vec(
            (1u64..4, proptest::option::of(-1.0e3f64..1.0e3)),
            0..40,
        ),
        window in 1u32..8,
        mark in 0u64..130,
    ) {
        let bits = |v: Option<Value>| match v {
            Some(Value::Float(f)) => Some(f.to_bits()),
            Some(Value::Int(i)) => Some(i as u64),
            None => None,
            Some(other) => panic!("aggregates are numbers: {other:?}"),
        };
        let mut ring = SampleRing::new(window);
        let mut own = WindowState::new(window);
        let mut stamp = 0;
        for (gap, sample) in stream {
            stamp += gap;
            ring.push(stamp, sample);
            if stamp > mark {
                own.push(sample);
            }
            let fold = ring.fold_since(mark);
            for agg in [PushAgg::Avg, PushAgg::Max, PushAgg::Min, PushAgg::Count] {
                proptest::prop_assert_eq!(
                    bits(fold.aggregate(agg)),
                    bits(own.aggregate(agg)),
                    "{} at stamp {} from mark {}",
                    agg,
                    stamp,
                    mark
                );
            }
        }
    }
}

/// A deterministic end-to-end twin of the property: a fixed mixed workload
/// (firing, never-firing, erroring, fallback, duplicated, windowed
/// predicates) over several minutes of simulated periodic events, compared
/// on stats and trace bytes — the case a CI failure can bisect without a
/// proptest seed. The beep AQs make sensors a device-part kind, so nothing
/// is suppressed while they live; a second stretch swaps them for
/// photo-on-camera AQs with pushable prefixes, and the pushdown arms must
/// then agree on a ledger that really suppresses.
#[test]
fn fixed_mixed_workload_is_byte_identical_to_the_reference() {
    let preds = [
        "s.accel_x > 450",
        "s.accel_x > 450", // duplicate: shares one group
        "s.accel_x >= 500",
        "s.loc > 500",                                        // errors every tuple
        "distance(s.loc, s.loc) < 1.0 AND s.accel_x > 480",   // fallback
        "s.temp > 1000",                                      // never fires
        "AVG(s.accel_x) OVER LAST 3 > 300",                   // windowed, smoothed
        "COUNT(s.temp) OVER LAST 2 >= 1 AND s.accel_x > 470", // windowed + indexed
    ];
    let camera_preds = [
        "CAM s.accel_x > 450",
        "CAM s.accel_x > 450", // duplicate: shares one group
        "CAM AVG(s.accel_x) OVER LAST 3 > 300 AND s.light >= 0",
        // Idle light reads 250..=350: a tenth of the samples pass the prefix
        // and stop, cleanly false, on the fallback conjunct — those ship.
        "CAM s.light > 340 AND distance(s.loc, s.loc) > 1.0",
    ];
    let lab = PervasiveLab::standard()
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::from_secs(2));
    let arms = four_arms(0xD1FF, &lab).map(|mut replay| {
        for p in preds {
            replay.apply(&Op::Add(p.to_string()));
        }
        replay.apply(&Op::Run(240));
        let unsuppressed = replay.aorta.pushdown_stats();
        assert_eq!(
            unsuppressed.suppressed_tuples, 0,
            "sensors are a device part"
        );
        for _ in preds {
            replay.apply(&Op::Drop(0));
        }
        for p in camera_preds {
            replay.apply(&Op::Add(p.to_string()));
        }
        replay.apply(&Op::Run(240));
        replay.aorta
    });
    let [index, reference, index_push, reference_push] = &arms;
    assert!(index.stats().events_detected > 0, "workload must fire");
    assert!(index.stats().eval_errors > 0, "workload must error");
    // Pushdown accounting must be invisible on either side: same stats,
    // same trace bytes, and the two pushdown arms agree on the byte ledger.
    for other in [reference, index_push, reference_push] {
        assert_eq!(other.stats(), index.stats());
        assert_eq!(other.trace().render(), index.trace().render());
    }
    assert_eq!(index_push.pushdown_stats(), reference_push.pushdown_stats());
    for push in [index_push, reference_push].map(Aorta::pushdown_stats) {
        assert!(
            push.suppressed_tuples > 0 && push.shipped_tuples > 0,
            "the ledger must hold both shipped and suppressed samples: {push:?}"
        );
        assert!(push.marker_bytes > 0, "{push:?}");
        assert!(
            push.wire_bytes() < push.baseline_bytes,
            "suppression must save wire bytes: {push:?}"
        );
    }
    assert_eq!(index.pushdown_stats(), PushdownStats::default());
    assert_eq!(eval_counters(index_push), eval_counters(reference_push));
}

/// A 130-tuple batch — two full words and a partial third — over sources
/// 0–4, 6 and 7, with source 5 at tuples 63 and 64, so one source's two
/// samples straddle the first word boundary. Source 5's values flip from
/// round to round (high-then-low, both high, low-then-high, both low), and
/// id-less and NULL-valued tuples sit mid-word.
fn straddling_batch(schema: &Schema, round: i64) -> Vec<Tuple> {
    let mut rng = SimRng::seed(round as u64);
    let mut tuples: Vec<Tuple> = (0..130)
        .map(|_| random_tuple(&mut rng, schema, &[0, 1, 2, 3, 4, 6, 7]))
        .collect();
    let mut set = |t: usize, name: &str, v: Value| {
        let mut values = tuples[t].values().to_vec();
        values[schema.index_of(name).expect("sensor attribute")] = v;
        tuples[t] = Tuple::new(values);
    };
    let (before, after) = [(600, 0), (600, 600), (0, 600), (0, 0)][round as usize % 4];
    set(63, "id", Value::Int(5));
    set(63, "accel_x", Value::Int(before));
    set(64, "id", Value::Int(5));
    set(64, "accel_x", Value::Int(after));
    set(40, "id", Value::Null);
    set(100, "accel_x", Value::Null);
    set(128, "id", Value::Null);
    tuples
}

fn sensor_schema(lab: &PervasiveLab) -> Schema {
    aorta_net::DeviceRegistry::from_lab(lab.clone())
        .schema(DeviceKind::Sensor)
        .clone()
}

/// A fixed twin of the property's multi-word batches ([`straddling_batch`]):
/// the straddling pair rises, holds and falls in turn, under firing,
/// erroring, fallback and windowed predicates.
#[test]
fn a_source_straddling_a_word_boundary_matches_the_reference() {
    let preds = [
        "s.accel_x > 450",
        "s.accel_x > 450",
        "s.accel_x > 100 AND s.loc > 500", // errors mid-word, behind a filter
        "s.accel_x > 300 AND distance(s.loc, s.loc) < 1.0",
        "MAX(s.accel_x) OVER LAST 2 > 450",
        "CAM s.accel_y >= 0 AND s.accel_x > 450",
        "CAM AVG(s.accel_x) OVER LAST 3 > 200 AND (s.light > 600 OR s.depth = 2)",
    ];
    let lab = PervasiveLab::standard();
    let schema = sensor_schema(&lab);
    let arms = four_arms(0xB0D, &lab).map(|mut replay| {
        for p in preds {
            replay.apply(&Op::Add(p.to_string()));
        }
        for round in 0..8 {
            replay.apply(&Op::Batch(straddling_batch(&schema, round)));
        }
        replay.aorta
    });
    let [index, reference, index_push, reference_push] = &arms;
    assert!(index.stats().events_detected > 0, "workload must fire");
    assert!(index.stats().eval_errors > 0, "workload must error");
    for other in [reference, index_push, reference_push] {
        assert_eq!(other.stats(), index.stats());
        assert_eq!(other.trace().render(), index.trace().render());
    }
    assert_eq!(index_push.pushdown_stats(), reference_push.pushdown_stats());
    assert_eq!(eval_counters(index_push), eval_counters(reference_push));
}

/// Identical windowed AQs registered rounds apart share one ring per
/// source while their own windows differ: source 5 takes two samples a
/// round, straddling a word boundary, so a late twin is cold on one of the
/// pair and warm on the other for a round, and the twin dropped next round
/// goes mid-warm-up. Twins compared against a string error on every tuple,
/// and a cold one's first error text carries its own aggregate, not the
/// ring's. Source 9 is first sampled only after every twin registered.
#[test]
fn identical_windowed_aqs_registered_apart_match_the_reference() {
    const SMOOTH: &str = "AVG(s.accel_x) OVER LAST 4 > 200";
    const BROKEN: &str = r#"CAM MAX(s.accel_x) OVER LAST 3 >= "hot""#;
    let lab = PervasiveLab::standard();
    let schema = sensor_schema(&lab);
    let id = schema.index_of("id").expect("sensor attribute");
    let arms = four_arms(0x7A1, &lab).map(|mut replay| {
        for round in 0..10 {
            match round {
                0 => {
                    replay.apply(&Op::Add(SMOOTH.to_string()));
                    replay.apply(&Op::Add(BROKEN.to_string()));
                }
                2 | 3 => {
                    replay.apply(&Op::Add(SMOOTH.to_string()));
                    replay.apply(&Op::Add(BROKEN.to_string()));
                }
                4 => replay.apply(&Op::DropNewest),
                _ => {}
            }
            let mut batch = straddling_batch(&schema, round);
            if round >= 6 {
                let mut values = batch[10].values().to_vec();
                values[id] = Value::Int(9);
                batch[10] = Tuple::new(values);
            }
            replay.apply(&Op::Batch(batch));
        }
        replay.aorta
    });
    let [index, reference, index_push, reference_push] = &arms;
    assert!(index.stats().events_detected > 0, "workload must fire");
    let errors: Vec<&str> = index
        .trace()
        .iter()
        .filter(|e| e.subsystem == "eval_error")
        .map(|e| &*e.message)
        .collect();
    assert_eq!(errors.len(), 3, "one line per erroring twin: {errors:?}");
    for other in [reference, index_push, reference_push] {
        assert_eq!(other.stats(), index.stats());
        assert_eq!(other.trace().render(), index.trace().render());
    }
    assert_eq!(index_push.pushdown_stats(), reference_push.pushdown_stats());
    assert_eq!(eval_counters(index_push), eval_counters(reference_push));
    // Twins still live, one ring per (family, source) sampled.
    assert_eq!(index.window_entries(), 2 * 9);
}

/// The index must handle `eval_predicate` type mismatches exactly like the
/// scalar walk: same error count, the same single deduplicated structured
/// trace event per (query, conjunct), and byte-identical trace output — the
/// error message included.
#[test]
fn eval_errors_match_the_reference() {
    const TYPE_MISMATCH: &str = r#"CREATE AQ mismatch AS
        SELECT photo(c.ip, s.loc, "photos/admin")
        FROM sensor s, camera c
        WHERE s.loc > 500 AND coverage(c.id, s.loc)"#;
    let run = |reference: bool| {
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let mut replay = Replay::new(EngineConfig::seeded(21), lab, reference);
        replay.aorta.execute_sql(TYPE_MISMATCH).unwrap();
        replay.drive(|a| a.run_for(SimDuration::from_secs(30)));
        replay.aorta
    };
    let index = run(false);
    let reference = run(true);
    assert!(index.stats().eval_errors > 0);
    assert_eq!(index.stats(), reference.stats());
    let dedup = |a: &Aorta| {
        a.trace()
            .iter()
            .filter(|e| e.subsystem == "eval_error")
            .count()
    };
    assert_eq!(dedup(&index), 1, "the index must dedupe the trace");
    assert_eq!(dedup(&reference), 1);
    assert_eq!(index.trace().render(), reference.trace().render());
}

/// Feeds one single-tuple sensor batch per `accel_x` value (source 0) and
/// returns the cumulative event count after each, plus the trace.
fn feed_accel(sql: &str, seed: u64, reference: bool, feed: &[i64]) -> (Vec<u64>, String) {
    let mut replay = Replay::new(
        EngineConfig::seeded(seed),
        PervasiveLab::standard(),
        reference,
    );
    replay.aorta.execute_sql(sql).unwrap();
    let schema = replay.aorta.registry.schema(DeviceKind::Sensor).clone();
    let mut detected = Vec::new();
    for &accel in feed {
        let mut values = vec![Value::Null; schema.len()];
        values[schema.index_of("id").unwrap()] = Value::Int(0);
        values[schema.index_of("accel_x").unwrap()] = Value::Int(accel);
        replay.drive(|a| a.detect_on_batch(DeviceKind::Sensor, vec![Tuple::new(values)]));
        detected.push(replay.aorta.stats().events_detected);
    }
    (detected, replay.aorta.trace().render())
}

/// Windowed semantics end to end: `AVG(s.accel_x) OVER LAST 3` smooths the
/// signal, so a lone spike never fires but a sustained one does — and the
/// rising edge re-arms when the window average falls. The windowed slot in
/// the index and the reference walk must agree byte for byte.
#[test]
fn windowed_aggregates_fire_on_sustained_signal_not_spikes() {
    const SMOOTH: &str = r#"CREATE AQ smooth AS
        SELECT beep(t.id) FROM sensor t, sensor s
        WHERE AVG(s.accel_x) OVER LAST 3 > 700"#;
    // A lone 300→900 step only reaches avg 700 at the third 900 (not >
    // 700), fires at the fourth; the 0-stretch drains the window
    // (re-arming the edge) and the second sustained 900 run fires again.
    let feed = [300, 900, 900, 900, 900, 0, 0, 0, 900, 900, 900];
    let (index_detected, index_trace) = feed_accel(SMOOTH, 33, false, &feed);
    let (reference_detected, reference_trace) = feed_accel(SMOOTH, 33, true, &feed);
    assert_eq!(index_detected, vec![0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2]);
    assert_eq!(index_detected, reference_detected);
    assert_eq!(index_trace, reference_trace);
}

/// A windowed conjunct compared against a mismatched-type literal errors on
/// every defined window. The message is produced in the batch phase — by
/// replay time the window has moved on — and must be traced once, the same
/// line the reference walk emits.
#[test]
fn windowed_type_mismatch_traces_the_reference_error_once() {
    const BROKEN: &str = r#"CREATE AQ broken AS
        SELECT beep(t.id) FROM sensor t, sensor s
        WHERE s.accel_x > 0 AND AVG(s.accel_x) OVER LAST 2 > "high""#;
    let feed = [10, 20, -5, 30];
    let (detected, index_trace) = feed_accel(BROKEN, 35, false, &feed);
    let (_, reference_trace) = feed_accel(BROKEN, 35, true, &feed);
    assert_eq!(
        detected.last(),
        Some(&0),
        "an erroring conjunct never fires"
    );
    assert_eq!(index_trace, reference_trace);
    let traced: Vec<&str> = index_trace
        .lines()
        .filter(|l| l.contains("failed to evaluate"))
        .collect();
    assert_eq!(traced.len(), 1, "deduplicated: {traced:?}");
    assert!(traced[0].contains("conjunct 1"), "{traced:?}");
}
