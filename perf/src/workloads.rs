//! The four workloads: set-up, the timed section, and what came out.
//!
//! Every load is closed loop on one driver thread: the harness advances
//! virtual time as fast as the host computes, and the only other threads are
//! the cluster's own workers at its default (one per host core). Arrivals
//! are open loop *in virtual time* — motes spike on a schedule whatever the
//! backlog — so virtual latency includes queueing.

use std::collections::BTreeSet;
use std::time::Instant;

use aorta_cluster::{ClusterConfig, ClusterStats, FailoverConfig, ShardManager};
use aorta_core::{AdmissionConfig, Aorta, AqPlan, Catalog, EngineConfig, EngineStats, ExecOutput};
use aorta_device::PervasiveLab;
use aorta_net::BreakerConfig;
use aorta_sim::{FaultEvent, SimDuration, SimTime};
use aorta_sql::ast::Statement;

use crate::alloc;
use crate::gen::{self, Inputs, Shape, Workload};
use crate::host;
use crate::span::SpanLog;
use crate::stats::fnv1a64;

/// The engine's sampling period: one epoch of virtual time.
pub const SAMPLE_PERIOD_S: u64 = 1;

/// `durable_storm`'s overload constants, tuned once so that seeds 1 and 2
/// both shed, degrade and expire without collapsing, then frozen.
const STORM_DEADLINE_S: u64 = 5;
const STORM_WAL_SNAPSHOT_EVERY: usize = 128;

fn storm_admission() -> AdmissionConfig {
    AdmissionConfig {
        rate_per_sec: 20.0,
        burst: 40.0,
        slo: SimDuration::from_secs(3),
        brownout_multiple: 0.5,
        shed_multiple: 1.5,
        protected_queries: 2,
    }
}

/// The system under test: one engine or a sharded cluster.
pub enum System {
    Engine(Box<Aorta>),
    Cluster(Box<ShardManager>),
}

impl System {
    pub fn run_for(&mut self, secs: u64) {
        let duration = SimDuration::from_secs(secs);
        match self {
            System::Engine(engine) => engine.run_for(duration),
            System::Cluster(cluster) => cluster.run_for(duration),
        }
    }

    pub fn execute_sql(&mut self, sql: &str) -> Result<Vec<ExecOutput>, aorta_core::EngineError> {
        match self {
            System::Engine(engine) => engine.execute_sql(sql),
            System::Cluster(cluster) => cluster.execute_sql(sql),
        }
    }

    /// The single engine, or shard 0: where the layer probes run.
    pub fn first_engine_mut(&mut self) -> &mut Aorta {
        match self {
            System::Engine(engine) => engine,
            System::Cluster(cluster) => cluster.shard_mut(0),
        }
    }

    /// Every engine of the system.
    pub fn engines(&self) -> Vec<&Aorta> {
        match self {
            System::Engine(engine) => vec![engine],
            System::Cluster(cluster) => (0..cluster.shard_count())
                .map(|s| cluster.shard(s))
                .collect(),
        }
    }

    /// Rising edges detected so far, over every engine.
    pub fn events_detected(&self) -> u64 {
        self.engines()
            .iter()
            .map(|e| e.stats().events_detected)
            .sum()
    }

    pub fn cluster(&self) -> Option<&ShardManager> {
        match self {
            System::Engine(_) => None,
            System::Cluster(cluster) => Some(cluster),
        }
    }
}

/// The lab a workload runs on.
pub fn lab(workload: Workload) -> PervasiveLab {
    let shape = workload.shape();
    let mut lab = PervasiveLab::with_sizes(shape.cameras, shape.motes, shape.phones)
        .with_periodic_events(
            SimDuration::from_secs(shape.spike_period_s),
            SimDuration::from_millis(shape.stagger_ms),
        );
    match workload {
        // Canary motes get a lossless radio and the canaries' cameras are
        // reliable: every canary event is then scanned, detected and served
        // on every seed, so the detection gate and `served_share` are exact
        // where only the canaries act.
        Workload::DetectFleet | Workload::AqChurn => {
            lab.motes = lab
                .motes
                .into_iter()
                .map(|mote| {
                    if (mote.id().index() as usize) < gen::CANARY_SOURCES {
                        mote.with_per_hop_loss(0.0)
                    } else {
                        mote
                    }
                })
                .collect();
            lab.with_reliable_cameras()
        }
        // Reliable cameras keep the wave escalation-free, so parallel shard
        // stepping stays eligible for the whole run (E13's set-up).
        Workload::ClusterWave => lab.with_reliable_cameras(),
        Workload::DurableStorm => lab,
    }
}

/// Parses and plans one palette predicate into a registrable template.
pub fn plan_template(workload: Workload, pred: &str, catalog: &Catalog) -> AqPlan {
    let select = gen::palette_select(workload, pred);
    let stmts = aorta_sql::parse(&select).expect("palette SQL parses");
    let Some(Statement::Select(select)) = stmts.into_iter().next() else {
        panic!("palette statements are SELECTs");
    };
    AqPlan::plan("template", &select, catalog).expect("palette plans")
}

/// Builds a workload's system from its inputs. `observability` is on for
/// every end-to-end run; the traced run of `durable_storm` turns it off once
/// to measure what it costs.
pub fn setup(inputs: &Inputs, observability: bool) -> System {
    let shape = inputs.workload.shape();
    let mut system = match inputs.workload {
        Workload::DetectFleet => {
            let mut engine = Aorta::with_lab(
                EngineConfig::seeded(inputs.engine_seed),
                lab(inputs.workload),
            );
            // Planning happens once per distinct predicate, as in a
            // deployment where many users register the same alert shapes.
            let catalog = Catalog::with_builtins();
            let templates: Vec<AqPlan> = inputs
                .palette
                .iter()
                .map(|pred| plan_template(inputs.workload, pred, &catalog))
                .collect();
            for i in 0..shape.base_aqs {
                let mut plan = templates[i % templates.len()].clone();
                plan.name = format!("aq{i:07}");
                engine
                    .register_query_plan(plan)
                    .expect("palette plans register");
            }
            System::Engine(Box::new(engine))
        }
        Workload::AqChurn => System::Engine(Box::new(Aorta::with_lab(
            EngineConfig::seeded(inputs.engine_seed).with_pushdown(),
            lab(inputs.workload),
        ))),
        Workload::ClusterWave => {
            let config = ClusterConfig::seeded(inputs.engine_seed, shape.shards)
                .with_imbalance_threshold(u64::MAX);
            System::Cluster(Box::new(ShardManager::new(config, lab(inputs.workload))))
        }
        Workload::DurableStorm => {
            let mut config = ClusterConfig::seeded(inputs.engine_seed, shape.shards)
                .with_wal(STORM_WAL_SNAPSHOT_EVERY)
                .with_failover(FailoverConfig::default());
            let mut engine = config.engine.clone();
            if observability {
                engine = engine.with_observability();
            }
            config.engine = engine
                .with_deadline(SimDuration::from_secs(STORM_DEADLINE_S))
                .with_admission(storm_admission())
                .with_breakers(BreakerConfig::default());
            System::Cluster(Box::new(ShardManager::new(config, lab(inputs.workload))))
        }
    };
    for sql in &inputs.setup_sql {
        system.execute_sql(sql).expect("generated SQL is valid");
    }
    match (&mut system, &inputs.faults) {
        (System::Cluster(cluster), Some(plan)) => cluster.inject_faults(plan.clone()),
        (System::Engine(_), Some(_)) => unreachable!("only durable_storm carries faults"),
        (_, None) => {}
    }
    if shape.shards == 0 {
        // One warm-up epoch fills the lazy caches (scan-kind list,
        // placement program) so the timed section starts steady.
        system.run_for(gen::WARMUP_S);
    }
    system
}

/// Calls into the system that [`setup`] makes: statements, plus the plan
/// registrations of the workload that bypasses SQL.
pub fn setup_calls(inputs: &Inputs) -> u64 {
    let registrations = match inputs.workload {
        Workload::DetectFleet => inputs.workload.shape().base_aqs,
        _ => 0,
    };
    (inputs.setup_sql.len() + registrations) as u64
}

/// Host time spent in one timed section, and how it splits.
#[derive(Debug, Clone, Copy, Default)]
pub struct SectionTimes {
    pub wall_s: f64,
    /// Process CPU (user + system, all threads) over the section.
    pub cpu_s: f64,
    /// Time inside `run_for` only.
    pub run_for_s: f64,
    /// Time inside `execute_sql` only.
    pub ddl_s: f64,
    pub ddl_statements: u64,
    pub ddl_failed: u64,
    pub run_for_calls: u64,
}

/// One stepped epoch: how long it took, the events detected so far, and
/// the allocator calls it made (0 unless the allocator is counting).
#[derive(Debug, Clone, Copy)]
pub struct EpochSample {
    pub wall_s: f64,
    pub events_so_far: u64,
    pub allocs: u64,
}

/// Where a stepped repetition records what it sees.
pub struct Stepped<'a> {
    pub spans: &'a mut SpanLog,
    pub epochs: Vec<EpochSample>,
}

/// Drives the timed section either whole (one `run_for` per phase, the
/// end-to-end protocol) or stepped (one span per sample period and per
/// statement, the traced protocol). Same inputs, same order, either way.
struct Driver<'a, 'b> {
    stepped: Option<&'a mut Stepped<'b>>,
    times: SectionTimes,
}

impl Driver<'_, '_> {
    fn advance(&mut self, system: &mut System, secs: u64) {
        let t0 = Instant::now();
        match &mut self.stepped {
            None => {
                system.run_for(secs);
                self.times.run_for_calls += 1;
            }
            Some(stepped) => {
                for _ in 0..secs / SAMPLE_PERIOD_S {
                    let epoch = Instant::now();
                    let ((), allocs, _) = alloc::measure(|| {
                        stepped
                            .spans
                            .time("epoch", || system.run_for(SAMPLE_PERIOD_S));
                    });
                    stepped.epochs.push(EpochSample {
                        wall_s: epoch.elapsed().as_secs_f64(),
                        events_so_far: system.events_detected(),
                        allocs,
                    });
                }
                self.times.run_for_calls += secs / SAMPLE_PERIOD_S;
            }
        }
        self.times.run_for_s += t0.elapsed().as_secs_f64();
    }

    fn ddl(&mut self, system: &mut System, span: &'static str, statements: &[String]) {
        let t0 = Instant::now();
        for sql in statements {
            let result = match &mut self.stepped {
                None => system.execute_sql(sql),
                Some(stepped) => stepped.spans.time(span, || system.execute_sql(sql)),
            };
            self.times.ddl_failed += u64::from(result.is_err());
        }
        self.times.ddl_statements += statements.len() as u64;
        self.times.ddl_s += t0.elapsed().as_secs_f64();
    }
}

/// Runs the workload's timed section on a freshly set-up system.
pub fn timed_section(
    system: &mut System,
    inputs: &Inputs,
    stepped: Option<&mut Stepped>,
) -> SectionTimes {
    let shape = inputs.workload.shape();
    let mut driver = Driver {
        stepped,
        times: SectionTimes::default(),
    };
    let (t0, cpu0) = (Instant::now(), host::cpu_s());
    if inputs.rounds.is_empty() {
        driver.advance(system, shape.run_s);
        if shape.drain_s > 0 {
            driver.advance(system, shape.drain_s);
        }
    } else {
        for round in &inputs.rounds {
            driver.ddl(system, "sql.create", &round.creates);
            driver.ddl(system, "sql.drop", &round.drops);
            driver.advance(system, gen::CHURN_EPOCHS_PER_ROUND);
        }
    }
    driver.times.wall_s = t0.elapsed().as_secs_f64();
    driver.times.cpu_s = host::cpu_s() - cpu0;
    driver.times
}

/// What one run produced on the virtual side: exact per seed, so any change
/// between two builds is a behaviour change.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-engine statistics (one entry, or one per shard).
    pub engines: Vec<EngineStats>,
    pub cluster: Option<ClusterStats>,
    /// Requests admitted but not terminally resolved when the run ended
    /// (queued, backlogged, or parked at the gateway).
    pub pending: u64,
    /// Event-to-completion latencies pooled over every engine, ascending.
    pub latencies_us: Vec<u64>,
    /// FNV-1a of the rendered trace plus the stats: the determinism witness.
    pub digest: u64,
    pub end_s: u64,
}

impl Outcome {
    pub fn sum(&self, field: impl Fn(&EngineStats) -> u64) -> u64 {
        self.engines.iter().map(field).sum()
    }

    pub fn requests(&self) -> u64 {
        self.sum(|s| s.requests)
    }

    /// Requests that ended in any way other than a completed action
    /// (full or degraded quality) and are not still pending.
    pub fn failed(&self) -> u64 {
        self.requests() - self.sum(|s| s.executed) - self.sum(|s| s.degraded) - self.pending
    }

    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.requests().max(1) as f64
    }

    /// Equal in everything the modelled deployment experienced. The digest
    /// is left out: the gateway's trace words some lines by where the
    /// caller's `run_for` calls ended (snapshot barriers), so only runs
    /// under the same calling protocol share a digest.
    pub fn same_behaviour(&self, other: &Outcome) -> bool {
        self.engines == other.engines
            && self.cluster == other.cluster
            && self.pending == other.pending
            && self.latencies_us == other.latencies_us
            && self.end_s == other.end_s
    }
}

pub fn outcome(system: &System) -> Outcome {
    let engines: Vec<EngineStats> = system.engines().iter().map(|e| e.stats()).collect();
    let mut latencies_us: Vec<u64> = system
        .engines()
        .iter()
        .flat_map(|e| {
            let samples = e.latency_stats();
            samples.iter().map(|d| d.as_micros()).collect::<Vec<_>>()
        })
        .collect();
    latencies_us.sort_unstable();
    let (cluster, pending, rendered, now) = match system {
        System::Engine(engine) => (
            None,
            engine.pending_requests(),
            format!("{}\n{:?}", engine.trace().render(), engines[0]),
            engine.now(),
        ),
        System::Cluster(cluster) => {
            let stats = cluster.stats();
            let pending = stats.pending + stats.gateway_parked;
            let rendered = format!("{}\n{stats:?}", cluster.render_trace());
            (Some(stats), pending, rendered, cluster.now())
        }
    };
    Outcome {
        engines,
        cluster,
        pending,
        latencies_us,
        digest: fnv1a64(rendered.as_bytes()),
        end_s: (now - SimTime::ZERO).as_micros() / 1_000_000,
    }
}

/// Spike instants a mote with phase `offset_ms` sees up to `end_s`
/// (inclusive: the sample at the final instant is taken).
fn spike_instants(shape: Shape, offset_ms: u64, end_s: u64) -> u64 {
    let end_ms = end_s * 1000;
    if offset_ms > end_ms {
        0
    } else {
        (end_ms - offset_ms) / (shape.spike_period_s * 1000) + 1
    }
}

/// Share of mote-time the fault plan keeps motes crashed.
fn mote_downtime_share(inputs: &Inputs) -> f64 {
    let shape = inputs.workload.shape();
    let Some(plan) = &inputs.faults else {
        return 0.0;
    };
    let horizon = SimTime::ZERO + SimDuration::from_secs(shape.run_s);
    let mut down_since = vec![None; shape.motes];
    let mut down_us = 0u64;
    for (at, event) in plan.iter() {
        let at = (*at).min(horizon);
        match event {
            FaultEvent::Crash(id) if id.kind() == aorta_device::DeviceKind::Sensor => {
                down_since[id.index() as usize] = Some(at);
            }
            FaultEvent::Recover(id) if id.kind() == aorta_device::DeviceKind::Sensor => {
                if let Some(since) = down_since[id.index() as usize].take() {
                    down_us += (at - since).as_micros();
                }
            }
            _ => {}
        }
    }
    down_us as f64 / (shape.motes as u64 * shape.run_s * 1_000_000) as f64
}

/// The analytic event expectation: sources × spike instants × matching AQs,
/// discounted by the time the fault plan keeps motes dark.
pub fn expected_events(inputs: &Inputs, end_s: u64) -> f64 {
    let shape = inputs.workload.shape();
    let (sources, aqs_per_source) = match inputs.workload {
        Workload::DetectFleet | Workload::AqChurn => (gen::CANARY_SOURCES, 1),
        Workload::ClusterWave => (shape.motes, shape.base_aqs),
        // Each storm AQ owns one eighth of the motes by `s.id` range.
        Workload::DurableStorm => (shape.motes, 1),
    };
    let instants: u64 = (0..sources as u64)
        .map(|i| spike_instants(shape, i * shape.stagger_ms, end_s))
        .sum();
    instants as f64 * aqs_per_source as f64 * (1.0 - mote_downtime_share(inputs))
}

/// Windowed AQs live when the run ends, times the motes each keeps a window
/// for: the size the engine's window bank grows to.
pub fn window_entries(inputs: &Inputs) -> u64 {
    let statements = inputs.setup_sql.iter().chain(
        inputs
            .rounds
            .iter()
            .flat_map(|round| round.creates.iter().chain(&round.drops)),
    );
    let mut live = BTreeSet::new();
    for sql in statements {
        // `CREATE AQ <name> AS …` and `DROP AQ <name>` alike.
        let name = sql.split_whitespace().nth(2).expect("DDL names its AQ");
        if sql.starts_with("DROP") {
            live.remove(name);
        } else if gen::is_windowed(sql) {
            live.insert(name);
        }
    }
    live.len() as u64 * inputs.workload.shape().motes as u64
}

/// Device tuples the timed section scans: every epoch scans each device
/// kind some AQ names, once.
pub fn scanned_tuples(workload: Workload) -> u64 {
    let shape = workload.shape();
    // Every workload has a `photo` AQ, so both tables are scanned.
    (shape.motes + shape.cameras) as u64 * (shape.run_s + shape.drain_s) / SAMPLE_PERIOD_S
}

/// The validity gate for one finished run. Returns every violated check.
pub fn validate(
    inputs: &Inputs,
    system: &System,
    outcome: &Outcome,
    times: &SectionTimes,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    let shape = inputs.workload.shape();
    check(
        times.ddl_failed == 0,
        format!("{} DDL statements failed", times.ddl_failed),
    );
    check(
        outcome.end_s == gen::WARMUP_S * u64::from(shape.shards == 0) + shape.run_s + shape.drain_s,
        format!("virtual clock ended at {} s", outcome.end_s),
    );

    // A "speed-up" that skips detection loses events.
    let events = outcome.sum(|s| s.events_detected);
    let expected = expected_events(inputs, outcome.end_s);
    check(
        events as f64 >= 0.9 * expected,
        format!("{events} events detected, expected about {expected:.0}"),
    );
    check(
        outcome.sum(|s| s.late_successes) == 0,
        "a success landed past its deadline".to_string(),
    );

    if let Some(stats) = &outcome.cluster {
        if let Err(imbalance) = stats.check_conservation() {
            check(false, format!("conservation: {imbalance}"));
        }
        let busy = stats.per_shard.iter().filter(|s| s.requests > 0).count();
        check(busy >= 4, format!("only {busy} shards admitted requests"));
    }

    // Mechanism counters: non-zero where the workload exists to exercise
    // the mechanism.
    let mut mechanism = |name: &str, value: u64| {
        check(value > 0, format!("{name} is zero"));
    };
    match inputs.workload {
        Workload::DetectFleet | Workload::ClusterWave => {}
        Workload::AqChurn => {
            let System::Engine(engine) = system else {
                unreachable!("aq_churn is a single engine");
            };
            mechanism(
                "suppressed tuples",
                engine.pushdown_stats().suppressed_tuples,
            );
            mechanism("window entries", window_entries(inputs));
        }
        Workload::DurableStorm => {
            let cluster = system.cluster().expect("durable_storm is a cluster");
            let stats = outcome.cluster.as_ref().expect("cluster outcome");
            let wal = cluster.wal_report().expect("durable_storm logs");
            mechanism("wal appends", wal.per_shard.iter().map(|w| w.appends).sum());
            mechanism("wal snapshots", wal.snapshots.iter().sum());
            mechanism("failovers + recoveries", stats.failovers + wal.recoveries);
            mechanism("reroutes", stats.rerouted);
            mechanism("shed", outcome.sum(|s| s.shed));
            mechanism("degraded", outcome.sum(|s| s.degraded));
            mechanism("breaker trips", outcome.sum(|s| s.breaker_trips));
        }
    }
    problems
}
