//! Differential tests of the factorised fire path against the per-plan,
//! per-candidate reference it replaced. The reference switch covers the
//! candidate join, the aim, LERFA's assignment and every cost estimate:
//! on the reference path each (request, candidate) pair is priced afresh,
//! through the by-name profile walker, with no pricing-class rows.

use std::cell::Cell;

use aorta_data::{Tuple, Value};
use aorta_device::{DeviceId, DeviceKind, PtzPosition};

use super::{Predicted, Pricing};
use crate::actions::{ActionDef, ActionProfile};
use crate::cost::CostContext;
use crate::expr::{eval_predicate, Env, EvalContext};
use crate::shared::PER_PLAN_REFERENCE;
use crate::Aorta;

thread_local! {
    /// Requests this thread's engines priced from a row an earlier request
    /// of their pricing class had already filled.
    pub(super) static ROWS_REUSED: Cell<u64> = const { Cell::new(0) };
    /// Row slots repriced because their device's predicted status moved.
    pub(super) static SLOTS_REPRICED: Cell<u64> = const { Cell::new(0) };
}

/// LERFA's choice as it was before pricing classes: every candidate of the
/// request priced afresh against the current predicted state.
pub(super) fn lerfa_choice_reference(
    engine: &Aorta,
    pricing: &Pricing,
    request: &ActionRequest,
    aim: &Aim,
    block: &[(DeviceId, Tuple)],
    positions: &[usize],
    predicted: &Predicted,
) -> Option<(SimTime, SimDuration, usize, Option<PtzPosition>)> {
    let mut best: Option<(SimTime, SimDuration, usize, Option<PtzPosition>)> = None;
    for ((d, tuple), &i) in block.iter().zip(positions) {
        let Some(st) = &predicted.status[i] else {
            continue;
        };
        let Some((cost, head)) = engine.estimate_request_cost(pricing, aim, request, *d, tuple, st)
        else {
            continue;
        };
        let finish = predicted.free_at[i] + cost;
        if best.is_none_or(|(bf, ..)| finish < bf) {
            best = Some((finish, cost, i, head));
        }
    }
    best
}

/// An action's cost as it was before profiles were resolved: the lo-res
/// profile rebuilt per degraded estimate, every op looked up by name.
pub(super) fn action_cost_reference(
    engine: &Aorta,
    def: &ActionDef,
    degraded: bool,
    ctx: &CostContext,
) -> Option<SimDuration> {
    let table = engine.registry.cost_table(def.kind());
    let lo_res;
    let profile = if degraded && def.kind() == DeviceKind::Camera {
        lo_res = ActionProfile::photo_lo_res();
        &lo_res
    } else {
        &def.profile
    };
    crate::cost::reference::estimate_action_cost(profile, table, ctx).ok()
}

/// The candidate join as it was before blocks were shared: one nested loop
/// per (plan, event), side effects applied in place.
pub(super) fn candidates_for_reference(
    engine: &mut Aorta,
    plan: &crate::AqPlan,
    event_tuple: &Tuple,
    cache: &EpochScans,
) -> Vec<(DeviceId, Tuple)> {
    let Some(device_part) = &plan.device else {
        return Vec::new();
    };
    let device_schema = engine.registry.schema(device_part.kind).clone();
    let event_schema = engine.registry.schema(plan.event_kind).clone();
    let id_idx = device_schema.index_of("id").expect("catalogs define id");
    let mut out = Vec::new();
    let mut errors: Vec<(usize, String)> = Vec::new();
    let mut bad_ids: Vec<Option<i64>> = Vec::new();
    {
        let ctx = EvalContext {
            registry: &engine.registry,
        };
        for dt in cache.scans.get(&device_part.kind).into_iter().flatten() {
            let env = Env::new()
                .bind(&plan.event_binding, &event_schema, event_tuple)
                .bind(&device_part.binding, &device_schema, dt);
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
            match dt.get(id_idx).and_then(Value::as_i64) {
                Some(raw) if u32::try_from(raw).is_ok() => {
                    out.push((DeviceId::new(device_part.kind, raw as u32), dt.clone()));
                }
                other => bad_ids.push(other),
            }
        }
    }
    for (idx, msg) in errors {
        if engine.record_eval_error(plan, plan.event_conjuncts.len() + idx) {
            engine.trace.emit(
                engine.now,
                "eval_error",
                format!(
                    "query {} device conjunct {idx} failed to evaluate: {msg}",
                    plan.query_id
                ),
            );
        }
    }
    for raw in bad_ids {
        engine.note_bad_device_id(plan, device_part.kind, raw);
    }
    out
}

// --- harness -----------------------------------------------------------------

use std::sync::Arc;

use aorta_device::PervasiveLab;
use aorta_sim::{FaultEvent, FaultPlan, SimDuration, SimTime};

use super::EngineEvent;
use crate::shared::{ActionRequest, Aim, EpochScans};
use crate::{AdmissionConfig, EngineConfig, EngineStats};

/// Runs `f` with this thread's engines on the reference path.
fn on_reference_path<T>(f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            PER_PLAN_REFERENCE.set(false);
        }
    }
    PER_PLAN_REFERENCE.set(true);
    let _reset = Reset;
    f()
}

/// Every request the engine still holds — assigned and queued, pending on
/// a shared operator, or parked for the gateway — in a canonical order.
fn held_requests(engine: &Aorta) -> Vec<&ActionRequest> {
    let mut held: Vec<&ActionRequest> = engine
        .queue
        .iter()
        .filter_map(|(_, e)| match e {
            EngineEvent::Execute { request, .. } => Some(request),
            EngineEvent::Sample => None,
        })
        .chain(engine.operators.values().flat_map(|op| op.pending().iter()))
        .chain(engine.escalated.iter().map(|(_, r)| r))
        .collect();
    held.sort_by_key(|r| (r.created_at, r.query_id, r.attempts, r.hops));
    held
}

/// (query, attempts, candidate ids) of every held request.
fn held_candidates(engine: &Aorta) -> Vec<(u32, u32, Vec<DeviceId>)> {
    held_requests(engine)
        .into_iter()
        .map(|r| {
            let ids = r.candidates.iter().map(|(d, _)| *d).collect();
            (r.query_id, r.attempts, ids)
        })
        .collect()
}

fn photo_aq(name: &str, args: &str, from: &str, predicate: &str) -> String {
    format!("CREATE AQ {name} AS SELECT photo({args}) FROM {from} WHERE {predicate}")
}

const ARGS: &str = r#"c.ip, s.loc, "p""#;
const FROM: &str = "sensor s, camera c";
const COVERED: &str = "s.accel_x > 500 AND coverage(c.id, s.loc)";

// --- shared-block differential -------------------------------------------------

/// A sensor batch for `detect_on_batch` whose tuples all spike: for a
/// `beep(t.id) FROM sensor t, sensor s` query they are event tuples and
/// device tuples at once, including ids no device can have.
fn spiking_sensor_batch(engine: &Aorta) -> Vec<Tuple> {
    let schema = engine.registry.schema(DeviceKind::Sensor);
    let id_idx = schema.index_of("id").unwrap();
    let accel_idx = schema.index_of("accel_x").unwrap();
    [
        Value::Int(u32::MAX as i64 + 4),
        Value::Int(-1),
        Value::Null,
        Value::Int(1),
        Value::Int(2),
    ]
    .into_iter()
    .map(|id| {
        let mut values = vec![Value::Null; schema.len()];
        values[id_idx] = id;
        values[accel_idx] = Value::Int(900);
        Tuple::new(values)
    })
    .collect()
}

#[derive(Debug, PartialEq)]
struct Observed {
    stats: EngineStats,
    trace: String,
    metrics: Option<String>,
    /// `held_candidates` at each checkpoint of the scenario.
    held: Vec<Vec<(u32, u32, Vec<DeviceId>)>>,
}

/// One scenario over an AQ set: two waves of periodic spikes with a camera
/// crash (failover re-selection) and flaky cameras in between, a
/// gateway-style `inject_request` between two epochs, and a hand-built
/// batch with unusable device ids.
fn run_scenario(aqs: &[String], seed: u64) -> Observed {
    let lab = PervasiveLab::with_sizes(4, 9, 1)
        .with_periodic_events(SimDuration::from_secs(20), SimDuration::from_millis(300));
    let config = EngineConfig::seeded(seed).with_observability();
    let mut engine = Aorta::with_lab(config, lab);
    for aq in aqs {
        engine.execute_sql(aq).unwrap();
    }
    let mut faults = FaultPlan::new();
    let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    faults.schedule(at(21_500), FaultEvent::Crash(DeviceId::camera(1)));
    faults.schedule(at(50_000), FaultEvent::Recover(DeviceId::camera(1)));
    engine.inject_faults(faults);

    let mut held = Vec::new();
    engine.run_for(SimDuration::from_secs(23));
    held.push(held_candidates(&engine));
    // Between two epochs: a request arriving from another shard has its
    // candidates recomputed against a fresh scan, never from an epoch's memo.
    if let Some(adopted) = held_requests(&engine).first().map(|r| (*r).clone()) {
        engine.inject_request(ActionRequest {
            hops: adopted.hops + 1,
            ..adopted
        });
    }
    held.push(held_candidates(&engine));
    let batch = spiking_sensor_batch(&engine);
    engine.detect_on_batch(DeviceKind::Sensor, batch);
    held.push(held_candidates(&engine));
    engine.run_for(SimDuration::from_secs(40));
    held.push(held_candidates(&engine));
    Observed {
        stats: engine.stats(),
        trace: engine.trace().render(),
        metrics: engine.metrics_json(),
        held,
    }
}

/// AQ sets mixing queries that share a device part with queries that do
/// not: (what the set exercises, its statements).
fn aq_sets() -> Vec<(&'static str, Vec<String>)> {
    let beep = |name: &str, predicate: &str| {
        format!("CREATE AQ {name} AS SELECT beep(t.id) FROM sensor t, sensor s WHERE {predicate}")
    };
    vec![
        (
            "every query joins the same way",
            (0..4)
                .map(|i| photo_aq(&format!("same{i}"), ARGS, FROM, COVERED))
                .collect(),
        ),
        (
            "same device part behind different event conjuncts, and different device parts",
            vec![
                photo_aq("a", ARGS, FROM, COVERED),
                photo_aq("b", ARGS, FROM, &format!("s.id < 7 AND {COVERED}")),
                photo_aq("c", ARGS, FROM, &format!("{COVERED} AND c.id < 3")),
                photo_aq(
                    "d",
                    r#"k.ip, s.loc, "p""#,
                    "sensor s, camera k",
                    "s.accel_x > 500 AND coverage(k.id, s.loc)",
                ),
                photo_aq(
                    "e",
                    ARGS,
                    FROM,
                    "s.accel_x > 500 AND distance(c.loc, s.loc) < 4.0",
                ),
                photo_aq("f", ARGS, FROM, COVERED),
            ],
        ),
        (
            "a device conjunct that errors, shared by queries with different conjunct offsets",
            vec![
                photo_aq("bad0", ARGS, FROM, "s.accel_x > 500 AND c.ip > 5"),
                photo_aq(
                    "bad1",
                    ARGS,
                    FROM,
                    "s.accel_x > 500 AND s.id < 8 AND c.ip > 5",
                ),
                photo_aq("good", ARGS, FROM, COVERED),
                photo_aq("bad2", ARGS, FROM, &format!("{COVERED} AND c.ip > 5")),
            ],
        ),
        (
            "windowed, no device part, and the device table is the event table",
            vec![
                photo_aq(
                    "smooth",
                    ARGS,
                    FROM,
                    "AVG(s.accel_x) OVER LAST 2 > 300 AND coverage(c.id, s.loc)",
                ),
                photo_aq("plain", ARGS, FROM, COVERED),
                photo_aq(
                    "nodevice",
                    r#""10.0.0.9", s.loc, "p""#,
                    "sensor s",
                    "s.accel_x > 500",
                ),
                beep("beep0", "s.accel_x > 500"),
                beep("beep1", "s.accel_x > 500"),
                beep("beep2", "s.accel_x > 500 AND t.id = s.id"),
            ],
        ),
        (
            // `2` and `2.0` print alike, but only the float divides to a
            // fraction: cameras 2 and 3 against camera 2 alone.
            "device parts that differ only in a literal's type",
            vec![
                photo_aq("int", ARGS, FROM, "s.accel_x > 500 AND c.id / 2 = 1"),
                photo_aq("float", ARGS, FROM, "s.accel_x > 500 AND c.id / 2.0 = 1"),
                photo_aq("int2", ARGS, FROM, "s.accel_x > 500 AND c.id / 2 = 1"),
            ],
        ),
    ]
}

/// Sharing candidate blocks across queries changes nothing observable:
/// stats, every trace byte, and every held request's candidates match the
/// per-plan reference join at every checkpoint.
#[test]
fn shared_blocks_match_the_per_plan_reference() {
    let mut traces = Vec::new();
    let mut retries = 0;
    for (what, aqs) in aq_sets() {
        for seed in [1, 2, 3] {
            let shared = run_scenario(&aqs, seed);
            let reference = on_reference_path(|| run_scenario(&aqs, seed));
            assert!(shared.stats.requests > 0, "{what}: nothing fired");
            assert_eq!(shared.stats, reference.stats, "{what}, seed {seed}");
            assert_eq!(shared.held, reference.held, "{what}, seed {seed}");
            assert_eq!(shared.trace, reference.trace, "{what}, seed {seed}");
            assert_eq!(shared.metrics, reference.metrics, "{what}, seed {seed}");
            retries += shared.stats.retries;
            if seed == 1 {
                traces.push(shared.trace);
            }
        }
    }
    // The scenario reaches the paths it claims to: per-query replay of join
    // errors and bad ids (one deduplicated line per query), failover
    // re-selection (which narrows a shared block copy-on-write), adoption.
    assert_eq!(traces[2].matches("device conjunct").count(), 3);
    assert_eq!(traces[3].matches("unusable id").count(), 3);
    assert!(traces[0].contains("re-running device selection"));
    assert!(traces[0].contains("adopted escalated request"));
    assert!(retries > 0);
}

/// Requests fired by one event tuple through equal device parts hold the
/// same block — not equal copies — and the reference path holds copies.
#[test]
fn requests_fired_by_one_event_hold_one_block() {
    let run = || {
        let lab = PervasiveLab::with_sizes(4, 9, 0)
            .with_periodic_events(SimDuration::from_secs(20), SimDuration::ZERO);
        let mut engine = Aorta::with_lab(EngineConfig::seeded(5), lab);
        for name in ["a", "b", "c"] {
            engine
                .execute_sql(&photo_aq(name, ARGS, FROM, COVERED))
                .unwrap();
        }
        // One epoch: all nine motes spike at t = 0.
        engine.run_for(SimDuration::from_millis(100));
        engine
    };
    let same_event =
        |x: &ActionRequest, y: &ActionRequest| x.event_tuple.values() == y.event_tuple.values();
    let engine = run();
    let held = held_requests(&engine);
    let mut sharing = 0;
    for (n, x) in held.iter().enumerate() {
        for y in held[n + 1..].iter().filter(|y| same_event(x, y)) {
            assert_ne!(x.query_id, y.query_id);
            assert!(Arc::ptr_eq(&x.candidates, &y.candidates));
            sharing += 1;
        }
    }
    assert!(sharing >= 9, "most of the wave is still queued: {sharing}");
    let engine = on_reference_path(run);
    let held = held_requests(&engine);
    for (n, x) in held.iter().enumerate() {
        for y in &held[n + 1..] {
            assert!(!Arc::ptr_eq(&x.candidates, &y.candidates));
        }
    }
}

/// A failover re-selection narrows the retried request's own candidates;
/// the siblings that share its block — and the original — keep every device.
#[test]
fn retries_copy_on_write_and_leave_sibling_blocks_whole() {
    let lab = PervasiveLab::with_sizes(4, 9, 0)
        .with_reliable_cameras()
        .with_periodic_events(SimDuration::from_secs(20), SimDuration::ZERO);
    let mut engine = Aorta::with_lab(EngineConfig::seeded(6), lab);
    for name in ["a", "b"] {
        engine
            .execute_sql(&photo_aq(name, ARGS, FROM, COVERED))
            .unwrap();
    }
    engine.run_for(SimDuration::from_millis(100));
    let held: Vec<ActionRequest> = held_requests(&engine).into_iter().cloned().collect();
    let original = &held[0];
    let sibling = held[1..]
        .iter()
        .find(|r| Arc::ptr_eq(&r.candidates, &original.candidates))
        .expect("the other query's request for the same event is still queued");
    let whole: Vec<DeviceId> = original.candidates.iter().map(|(d, _)| *d).collect();
    assert!(whole.len() >= 2, "need a device to lose and one to keep");
    let ids = |r: &ActionRequest| r.candidates.iter().map(|(d, _)| *d).collect::<Vec<_>>();

    assert!(engine.failover_reselect(original, whole[0]));
    assert!(engine.failover_reselect(sibling, whole[1]));
    assert_eq!(ids(original), whole);
    assert_eq!(ids(sibling), whole);
    let retried: Vec<_> = held_requests(&engine)
        .into_iter()
        .filter(|r| r.attempts == 1)
        .map(|r| (r.query_id, ids(r)))
        .collect();
    let without = |lost: DeviceId| whole.iter().copied().filter(|d| *d != lost).collect();
    assert_eq!(
        retried,
        vec![
            (original.query_id, without(whole[0])),
            (sibling.query_id, without(whole[1])),
        ]
    );
}

// --- hoisting soundness ----------------------------------------------------------

/// A brownout admission config that degrades most of a wave to lo-res.
fn brownout() -> AdmissionConfig {
    AdmissionConfig {
        rate_per_sec: 1000.0,
        burst: 1000.0,
        slo: SimDuration::from_millis(200),
        brownout_multiple: 0.5,
        shed_multiple: 1000.0,
        protected_queries: 0,
    }
}

/// What a two-wave run over `aqs` assigned: the "dispatch" trace lines
/// (assignments with their estimates, and no-candidate verdicts), the
/// stats, the requests still held at the end, and the whole trace (which
/// also shows SRFE's execution order).
#[derive(Debug, PartialEq)]
struct Assigned {
    lines: Vec<String>,
    stats: EngineStats,
    held: Vec<(u32, u32, Vec<DeviceId>)>,
    trace: String,
}

fn assign(config: EngineConfig, aqs: &[String]) -> Assigned {
    let lab = PervasiveLab::with_sizes(3, 6, 0)
        .with_reliable_cameras()
        .with_periodic_events(SimDuration::from_secs(20), SimDuration::from_millis(100));
    let mut engine = Aorta::with_lab(config, lab);
    for aq in aqs {
        engine.execute_sql(aq).unwrap();
    }
    engine.run_for(SimDuration::from_secs(45));
    let lines = engine
        .trace()
        .iter()
        .filter(|e| e.subsystem == "dispatch")
        .map(|e| format!("{} {}", e.time, e.message))
        .collect();
    Assigned {
        lines,
        stats: engine.stats(),
        held: held_candidates(&engine),
        trace: engine.trace().render(),
    }
}

/// An engine on the standard lab running `aq`, and a request of it fired
/// by mote 0 (its candidates left for the engine to work out).
fn fired_request(aq: &str) -> (Aorta, ActionRequest) {
    let mut engine = Aorta::with_lab(EngineConfig::seeded(9), PervasiveLab::standard());
    engine.execute_sql(aq).unwrap();
    let plan = engine.catalog.queries().next().unwrap().clone();
    let scan = aorta_net::ScanOperator::new(plan.event_kind).run(
        &mut engine.registry,
        engine.now,
        &mut engine.rng,
    );
    let request = ActionRequest {
        query_id: plan.query_id,
        action: plan.actions[0].action.clone(),
        event_tuple: scan[0].clone(),
        event_binding: plan.event_binding.clone(),
        event_kind: plan.event_kind,
        device_binding: plan.device.as_ref().map(|d| (d.binding.clone(), d.kind)),
        args: plan.actions[0].args.clone(),
        candidates: Default::default(),
        created_at: engine.now,
        deadline: SimTime::MAX,
        degraded: false,
        attempts: 0,
        hops: 0,
    };
    (engine, request)
}

/// How the engine would cost a request of `aq` fired by mote 0.
fn aim_of(aq: &str) -> Aim {
    let (engine, request) = fired_request(aq);
    let def = engine.catalog.action(&request.action).unwrap().clone();
    request.aim(&def, &engine.registry)
}

/// Evaluating the target once per request picks the same device with the
/// same estimate as evaluating the arguments per candidate — including the
/// shapes where hoisting must *not* apply, or has nothing to hoist.
#[test]
fn hoisted_targets_assign_like_the_per_candidate_path() {
    let fails = photo_aq("fails", r#"c.ip, s.loc, s.id / 0"#, FROM, COVERED);
    let cases = [
        (
            "event-side target",
            photo_aq("q", ARGS, FROM, COVERED),
            None,
        ),
        (
            "target from the device binding",
            photo_aq("q", r#"c.ip, c.loc, "p""#, FROM, COVERED),
            None,
        ),
        (
            "unqualified columns",
            photo_aq("q", r#"ip, accel_x, s.loc"#, FROM, COVERED),
            None,
        ),
        ("an argument that fails to evaluate", fails.clone(), None),
        (
            "degraded to lo-res",
            photo_aq("q", ARGS, FROM, COVERED),
            Some(brownout()),
        ),
        (
            "not a camera action",
            "CREATE AQ q AS SELECT beep(t.id) FROM sensor t, sensor s WHERE s.accel_x > 500"
                .to_string(),
            None,
        ),
    ];
    for (what, aq, admission) in &cases {
        let config = || match admission {
            Some(a) => EngineConfig::seeded(8).with_admission(a.clone()),
            None => EngineConfig::seeded(8),
        };
        let aqs = std::slice::from_ref(aq);
        let hoisted = assign(config(), aqs);
        let reference = on_reference_path(|| assign(config(), aqs));
        assert_eq!(hoisted, reference, "{what}");
        let Assigned { lines, stats, .. } = hoisted;
        assert!(stats.requests >= 12, "{what}: two waves of six, {stats:?}");
        if *aq == fails {
            assert_eq!(stats.no_candidate, stats.requests, "{what}");
        } else {
            let assigned = lines.iter().filter(|l| l.contains("assigned to")).count();
            assert!(assigned as u64 >= stats.requests, "{what}: {lines:?}");
        }
        if admission.is_some() {
            assert!(stats.degraded > 0, "{what}: {stats:?}");
        }
    }

    // Which path each shape takes — the comparison above is vacuous if the
    // hoist never applies, and unsound if it applies to the device-side one.
    assert!(matches!(aim_of(&cases[0].1), Aim::At(Some(_))));
    assert!(matches!(aim_of(&cases[1].1), Aim::PerCandidate));
    assert!(matches!(aim_of(&cases[2].1), Aim::At(Some(_))));
    assert!(matches!(aim_of(&fails), Aim::At(None)));
    assert!(matches!(aim_of(&cases[5].1), Aim::NoHead));
    on_reference_path(|| assert!(matches!(aim_of(&cases[0].1), Aim::PerCandidate)));
}

// --- pricing classes -------------------------------------------------------------

/// Pricing-class rows assign like pricing every (request, candidate) pair
/// afresh by name. Four identical coverage AQs fire four requests per event
/// that share a block and a target; under brownout, full-quality and lo-res
/// requests share them too; and with three cameras for six motes, one camera
/// takes several requests of one batch, so its row slots go stale.
#[test]
fn pricing_class_rows_assign_like_the_reference() {
    let aqs: Vec<String> = (0..4)
        .map(|i| photo_aq(&format!("same{i}"), ARGS, FROM, COVERED))
        .collect();
    for admission in [None, Some(brownout())] {
        let config = || match &admission {
            Some(a) => EngineConfig::seeded(8).with_admission(a.clone()),
            None => EngineConfig::seeded(8),
        };
        let counters = || (ROWS_REUSED.get(), SLOTS_REPRICED.get());
        ROWS_REUSED.set(0);
        SLOTS_REPRICED.set(0);
        let rows = assign(config(), &aqs);
        let (reused, repriced) = counters();
        let reference = on_reference_path(|| assign(config(), &aqs));
        let what = if admission.is_some() {
            "brownout"
        } else {
            "full quality"
        };
        assert_eq!(rows, reference, "{what}");
        assert_eq!(
            counters(),
            (reused, repriced),
            "{what}: the reference used rows"
        );
        // Without these the comparison could pass with rows never used.
        assert!(reused > 0, "{what}: no row was reused");
        assert!(repriced > 0, "{what}: no stale slot was repriced");
        let stats = rows.stats;
        assert!(stats.requests >= 48, "{what}: two waves of 24, {stats:?}");
        if admission.is_some() {
            assert!(
                stats.degraded > 0 && stats.executed > 0,
                "{what}: {stats:?}"
            );
        }
    }
}

/// The gateway's routing quote prices through the batch's resolved
/// profiles, lo-res included: the same (device, cost) as the by-name
/// reference at either quality, and the degraded quote the cheaper one.
#[test]
fn gateway_quotes_match_the_reference_at_both_qualities() {
    let aq = photo_aq("q", ARGS, FROM, COVERED);
    let quote = |degraded| {
        let (mut engine, request) = fired_request(&aq);
        engine.cheapest_local_candidate(&ActionRequest {
            degraded,
            ..request
        })
    };
    let full = quote(false);
    let lo_res = quote(true);
    assert_eq!(full, on_reference_path(|| quote(false)));
    assert_eq!(lo_res, on_reference_path(|| quote(true)));
    let (full, lo_res) = (full.expect("a full quote"), lo_res.expect("a lo-res quote"));
    assert_eq!(lo_res.0, full.0, "the same head movement wins");
    assert!(lo_res.1 < full.1, "lo-res {lo_res:?} vs full {full:?}");
}
