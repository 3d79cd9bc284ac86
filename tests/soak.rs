//! Soak test: two simulated hours of a busy deployment — counters stay
//! consistent, locks drain, photo outcomes account for every accepted
//! command, and the virtual clock holds up over long horizons.

use aorta::engine::{AqPlan, Catalog};
use aorta::sql::ast::Statement;
use aorta::{Aorta, EngineConfig};
use aorta_device::{DeviceKind, PervasiveLab};
use aorta_sim::SimDuration;

#[test]
fn two_simulated_hours_stay_consistent() {
    let lab = PervasiveLab::with_sizes(4, 20, 1)
        .with_periodic_events(SimDuration::from_secs(90), SimDuration::from_secs(4));
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(2026), lab);
    aorta.disable_trace();
    aorta
        .execute_sql(
            r#"CREATE AQ watch AS
               SELECT photo(c.ip, s.loc, "photos/soak")
               FROM sensor s, camera c
               WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#,
        )
        .unwrap();
    aorta
        .execute_sql(
            r#"CREATE AQ alert AS
               SELECT sendphoto(p.number, "photos/soak/latest.jpg")
               FROM sensor s, phone p
               WHERE s.accel_x > 500 AND p.in_coverage = TRUE"#,
        )
        .unwrap();

    aorta.run_for(SimDuration::from_mins(120));
    // Drain: queued executions can start up to the 30 s request timeout after
    // their event and then run for seconds more.
    aorta.run_for(SimDuration::from_mins(2));
    let stats = aorta.stats();

    // 20 motes × ~80 spikes over two hours, detected once per query
    // (events_detected counts per-query rising edges), one request each.
    assert!(stats.events_detected >= 1_000, "{stats:?}");
    assert_eq!(stats.requests, stats.events_detected, "{stats:?}");

    // Every request is accounted for exactly once: settled, or among the
    // handful whose events fired in the final seconds and are still queued.
    let pending = aorta.pending_requests();
    assert_eq!(
        stats.requests,
        stats.terminal() + pending,
        "pending {pending}: {stats:?}"
    );
    // The drain bounds the tail: a request stuck in an operator or on the
    // queue would still balance above, so the pending count must stay small.
    assert!(pending <= 10, "pending {pending}: {stats:?}");

    // Every accepted photo command produced a photo record with an outcome.
    let photos = stats.photos_ok + stats.photos_blurred + stats.photos_wrong;
    assert_eq!(
        photos + stats.messages_delivered,
        stats.executed,
        "{stats:?}"
    );

    // With synchronization on, no interference outcomes even after hours.
    assert_eq!(stats.photos_blurred + stats.photos_wrong, 0, "{stats:?}");

    // All locks have drained by a minute after the last event.
    let now = aorta.now();
    for entry in aorta.registry().of_kind(DeviceKind::Camera) {
        assert!(
            !aorta.locks().is_locked(entry.sim.id(), now),
            "{} still locked at {now}",
            entry.sim.id()
        );
    }

    // The engine stayed responsive: mean latency bounded.
    let latency = stats.mean_action_latency.expect("work happened");
    assert!(latency < SimDuration::from_secs(20), "{latency}");

    // Rising-edge state is bounded by live (query, source) pairs — it must
    // not grow with time (2 queries over ≤ 25 devices here, even after two
    // hours of epochs).
    assert!(
        aorta.rising_edge_entries() <= 2 * 25,
        "edge map leaked: {} entries",
        aorta.rising_edge_entries()
    );
    // ... and deregistration reclaims it: after dropping both queries no
    // entry survives, so register/drop churn cannot leak either.
    aorta.execute_sql("DROP AQ watch").unwrap();
    aorta.execute_sql("DROP AQ alert").unwrap();
    assert_eq!(aorta.rising_edge_entries(), 0, "drop must GC edge state");
}

/// Template plans for the churn soak: a small palette of mostly-indexable,
/// never-firing predicates (plus a scalar-fallback shape) that 50k query
/// registrations share, so index growth is bounded by the palette, not by
/// the query count.
fn churn_palette() -> Vec<AqPlan> {
    let attrs = ["accel_x", "accel_y", "light", "battery", "temp"];
    let preds: Vec<String> = (0..32u64)
        .map(|k| {
            let attr = attrs[(k % 5) as usize];
            let hi = 1_000_000 + k;
            match k % 4 {
                0 => format!("s.{attr} > {hi}"),
                1 => format!("s.{attr} >= {hi}"),
                2 => format!("s.depth < 1 AND s.{attr} > {hi}"),
                _ => format!("distance(s.loc, s.loc) >= 1.5 AND s.{attr} > {hi}"),
            }
        })
        .collect();
    preds
        .iter()
        .map(|pred| {
            let sql = format!("SELECT beep(t.id) FROM sensor t, sensor s WHERE {pred}");
            let stmts = aorta::sql::parse(&sql).expect("palette parses");
            let Statement::Select(select) = stmts.into_iter().next().expect("one statement") else {
                panic!("expected SELECT");
            };
            AqPlan::plan("template", &select, &Catalog::with_builtins()).expect("palette plans")
        })
        .collect()
}

/// Churn soak: 50k AQs registered and dropped in waves while epochs keep
/// running. The predicate index must stay bounded by the palette (no growth
/// across waves), the obs counters must hold the identity
/// `indexed_evals + fallback_evals == conjunct_evals` at every checkpoint,
/// and a full drain must leave the index and edge state empty.
#[test]
fn churn_waves_keep_index_bounded_and_counters_consistent() {
    const WAVE: usize = 25_000;
    let lab = PervasiveLab::standard()
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::from_secs(4));
    let mut aorta = Aorta::with_lab(EngineConfig::seeded(7_771).with_observability(), lab);
    aorta.disable_trace();
    let palette = churn_palette();

    let check_identity = |aorta: &Aorta| {
        let snap = aorta.metrics().expect("observability enabled");
        let indexed = snap.counter_total("aorta_indexed_evals");
        let fallback = snap.counter_total("aorta_fallback_evals");
        let total = snap.counter_total("aorta_conjunct_evals");
        assert_eq!(indexed + fallback, total, "eval accounting drifted");
        (indexed, fallback, total)
    };

    // Wave 1: register the first 25k, run, measure the index footprint.
    let mut next = 0usize;
    let register_wave = |aorta: &mut Aorta, n: usize, next: &mut usize| {
        for _ in 0..n {
            let mut plan = palette[*next % palette.len()].clone();
            plan.name = format!("soak{:06}", *next);
            *next += 1;
            aorta.register_query_plan(plan).expect("unique names");
        }
    };
    register_wave(&mut aorta, WAVE, &mut next);
    aorta.run_for(SimDuration::from_mins(4));
    let (cmps, groups) = (
        aorta.predicate_index().cmp_count(),
        aorta.predicate_index().group_count(),
    );
    assert!(cmps > 0 && groups > 0, "index must be populated");
    assert!(
        groups <= palette.len(),
        "groups must dedupe to the palette: {groups} > {}",
        palette.len()
    );
    assert!(
        cmps <= 4 * palette.len(),
        "comparisons must intern: {cmps} for a {}-template palette",
        palette.len()
    );
    let (i1, f1, _) = check_identity(&aorta);
    assert!(i1 > 0, "indexable palette entries must use the index");
    assert!(f1 > 0, "fallback palette entries must use scalar slots");

    // Wave 2: drop every other query, register 25k more, run again. The
    // interned footprint must not grow — churn reuses palette entries.
    for i in (0..next).step_by(2) {
        aorta.deregister_query(&format!("soak{i:06}")).unwrap();
    }
    register_wave(&mut aorta, WAVE, &mut next);
    assert_eq!(next, 2 * WAVE, "50k registrations total");
    aorta.run_for(SimDuration::from_mins(4));
    assert_eq!(
        (
            aorta.predicate_index().cmp_count(),
            aorta.predicate_index().group_count()
        ),
        (cmps, groups),
        "index footprint grew across churn waves"
    );
    check_identity(&aorta);

    // Drain: drop everything still live; index and edge state must be empty.
    for i in 0..next {
        if i % 2 == 0 && i < WAVE {
            continue; // dropped in wave 2
        }
        aorta.deregister_query(&format!("soak{i:06}")).unwrap();
    }
    assert!(aorta.predicate_index().is_empty(), "index must drain");
    assert_eq!(aorta.predicate_index().member_count(), 0);
    assert_eq!(aorta.rising_edge_entries(), 0, "edge state must drain");

    // Epochs after the drain still account correctly (pure fallback-free,
    // index-free evaluation: all three counters simply stop moving).
    let before = check_identity(&aorta);
    aorta.run_for(SimDuration::from_mins(2));
    let after = check_identity(&aorta);
    assert_eq!(before, after, "no queries => no conjunct evaluations");
}
