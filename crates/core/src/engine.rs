//! The [`Aorta`] facade: SQL entry point, registration, and catalog/device
//! access. The continuous-execution machinery lives in [`crate::exec`].

use std::collections::{BTreeMap, BTreeSet};

use aorta_data::Tuple;
use aorta_device::{DeviceId, DeviceKind, PervasiveLab};
use aorta_net::{BreakerBank, BreakerState, DeviceRegistry, Prober};
use aorta_obs::{MetricsRegistry, SharedMetrics};
use aorta_sim::metrics::DurationStats;
use aorta_sim::{EventQueue, FaultPlan, LinkModel, SimRng, SimTime, TraceBuffer};
use aorta_sql::ast::{CreateAction, Select, Statement};
use aorta_wal::{WalHandle, WalRecord};

use crate::actions::{ActionDef, ActionHandler, ActionProfile, CustomHandler};
use crate::admission::TokenBucket;
use crate::catalog::Catalog;
use crate::exec::{EngineEvent, PushdownStats, RawStats, ScanKinds};
use crate::expr::{eval_expr, eval_predicate, Env, EvalContext};
use crate::lock::LockManager;
use crate::pindex::PredicateIndex;
use crate::plan::AqPlan;
use crate::shared::{JoinGroups, SharedActionOperator};
use crate::{EngineConfig, EngineError};

/// What a successfully executed statement produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutput {
    /// `CREATE AQ` registered a continuous query with this ID.
    QueryRegistered(u32),
    /// `DROP AQ` removed the named query.
    QueryDropped,
    /// `CREATE ACTION` registered an action.
    ActionRegistered,
    /// A one-shot `SELECT` returned rows.
    Rows(Vec<Tuple>),
    /// `EXPLAIN` rendered a plan.
    Plan(String),
}

/// The Aorta pervasive query processor.
///
/// Owns the device registry (the communication layer's dynamic view), the
/// catalog, the lock manager, and the virtual clock. See the crate docs for
/// an end-to-end example.
pub struct Aorta {
    pub(crate) config: EngineConfig,
    pub(crate) registry: DeviceRegistry,
    pub(crate) catalog: Catalog,
    pub(crate) locks: LockManager,
    pub(crate) prober: Prober,
    pub(crate) rng: SimRng,
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<EngineEvent>,
    pub(crate) operators: BTreeMap<String, SharedActionOperator>,
    /// (query, conjunct) pairs whose eval error has already been traced, so
    /// a permanently broken predicate emits one trace event, not one per
    /// tuple per epoch (the `eval_errors` counter still counts every one).
    pub(crate) eval_error_reported: BTreeSet<(u32, usize)>,
    /// The shared predicate index driving detection: interned distinct
    /// comparisons, attribute lanes, and query groups with their shared
    /// rising-edge state (true while a group's predicate holds for a
    /// source, so one physical event fires one request per member). Kept in
    /// lockstep with the catalog on `CREATE AQ` / `DROP AQ`.
    ///
    /// It also holds the sliding-window rings backing `AGG(attr) OVER LAST
    /// n` conjuncts, one per (kind, column, n, source) shared by every AQ
    /// that reads it. Conceptually device-resident — the mote sees every
    /// sample it takes, shipped or suppressed, so rings advance on every
    /// scanned tuple. Cloned into snapshots and covered by
    /// [`state_digest`](Aorta::state_digest): replay re-samples the same
    /// sensors from the same RNG, so a recovered engine holds the same
    /// rings as its uninterrupted reference.
    pub(crate) pindex: PredicateIndex,
    /// Pushdown byte accounting ([`crate::PushdownStats`]). Write-only
    /// bookkeeping, separate from `raw_stats` so the committed seed
    /// artifacts (which digest `EngineStats`' Debug rendering) stay
    /// byte-identical whether pushdown is on or off.
    pub(crate) push_stats: PushdownStats,
    /// Queries whose candidate join already traced a bad-device-id skip,
    /// so a device table that persistently reports unusable ids emits one
    /// trace line per query, not one per tuple per epoch (the
    /// `bad_device_ids` counter still counts every one).
    pub(crate) bad_id_reported: BTreeSet<u32>,
    /// What a sampling epoch needs from the catalog — the scan order and
    /// the kinds pushdown may suppress — cached so the steady-state epoch
    /// does not re-walk a large catalog. `None` = stale; invalidated on
    /// register/drop and rebuilt lazily by the next epoch, so bulk
    /// registration of 10⁵⁺ AQs never pays a per-register walk.
    pub(crate) scan_kinds: Option<ScanKinds>,
    /// The distinct candidate joins of the registered plans, with the
    /// static ones' outcomes memoised per event source while the registry's
    /// membership holds still ([`JoinGroups`]). Derived state: emptied on
    /// register/drop, empty in a snapshot fork, outside the state digest.
    pub(crate) joins: JoinGroups,
    pub(crate) raw_stats: RawStats,
    /// Execution trace for debugging and tests (ring buffer).
    pub(crate) trace: TraceBuffer,
    /// Injected fault schedule, interleaved with engine events by the clock.
    pub(crate) faults: FaultPlan<DeviceId>,
    /// Active loss bursts (extra per-message loss, summed while stacked).
    pub(crate) loss_stack: Vec<f64>,
    /// Active latency spikes (multiplicative factors on base latency).
    pub(crate) latency_stack: Vec<f64>,
    /// Per-kind link models as they were when faults were injected; bursts
    /// are applied on top of these, never on already-degraded links.
    pub(crate) baseline_links: BTreeMap<DeviceKind, LinkModel>,
    /// Custom handlers registered before their `CREATE ACTION` statement.
    staged_handlers: BTreeMap<String, CustomHandler>,
    /// Requests whose local candidate set is exhausted, with the instant
    /// each escalated at, parked for the cluster gateway (only fills when
    /// `escalate_exhausted` is set).
    pub(crate) escalated: Vec<(SimTime, crate::ActionRequest)>,
    /// Per-device circuit breakers (`None` when the config leaves them off).
    pub(crate) breakers: Option<BreakerBank>,
    /// Token bucket pacing admissions (`None` without an admission config).
    pub(crate) admission_bucket: Option<TokenBucket>,
    /// Individual action-completion latencies, for tail quantiles; the
    /// running mean in `RawStats` is kept for cheap admission predictions.
    pub(crate) latency_samples: DurationStats,
    /// The deterministic observability registry (`None` unless
    /// `config.observability` — recording is write-only, so this never
    /// influences engine behavior).
    pub(crate) obs: Option<SharedMetrics>,
    /// Write-ahead log sink (`None` when durability is off). A separate
    /// channel from trace/stats/rng: attaching a WAL never perturbs the
    /// simulated run, so a logged run stays byte-identical to an unlogged
    /// one.
    pub(crate) wal: Option<WalHandle>,
    /// Set when a [`aorta_sim::FaultEvent::ProcessCrash`] halted this
    /// engine. A halted engine ignores further work; its in-memory state is
    /// garbage by definition (the process died) and recovery rebuilds a
    /// fresh engine from snapshot + WAL replay.
    pub(crate) halted: bool,
    /// Process-crash events to absorb without halting. Recovery grants one
    /// immunity per `CrashApplied` record in the replay suffix so a crash
    /// already in the log cannot halt the replaying engine a second time.
    pub(crate) crash_immunity: u32,
    /// Identity of the simulated host this incarnation runs on. Pure
    /// identity, not state: excluded from [`state_digest`](Aorta::state_digest)
    /// so a failed-over engine (new host, same replayed state) digests
    /// equal to the original.
    pub(crate) host: u32,
    /// Monotonically increasing incarnation epoch. The cluster bumps it at
    /// every failover; messages stamped with an older epoch are zombie
    /// traffic from a fenced-off incarnation. Identity, not state — see
    /// [`host`](field@Aorta::host).
    pub(crate) epoch: u64,
}

// Compile-time thread-safety audit: the cluster's window runner moves
// engines to its worker threads by value (`Send`). A future `Rc`/`RefCell`
// leaking into engine state fails this build, not the parallel runtime.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Aorta>();
};

impl Aorta {
    /// An engine over an empty device registry.
    pub fn new(config: EngineConfig) -> Self {
        Aorta::with_registry(config, DeviceRegistry::new())
    }

    /// An engine over a [`PervasiveLab`] fixture.
    pub fn with_lab(config: EngineConfig, lab: PervasiveLab) -> Self {
        Aorta::with_registry(config, DeviceRegistry::from_lab(lab))
    }

    /// An engine over an explicit registry.
    pub fn with_registry(config: EngineConfig, registry: DeviceRegistry) -> Self {
        let mut rng = SimRng::seed(config.seed);
        let engine_rng = rng.fork(0xE16);
        let mut queue = EventQueue::new();
        queue.push(SimTime::ZERO, EngineEvent::Sample);
        let obs = config.observability.then(SharedMetrics::new);
        let mut prober = Prober::new();
        let mut breakers = config.breaker.clone().map(BreakerBank::new);
        if let Some(m) = &obs {
            prober.set_metrics(m.clone());
            if let Some(bank) = &mut breakers {
                bank.set_metrics(m.clone());
            }
        }
        let admission_bucket = config.admission.as_ref().map(TokenBucket::new);
        Aorta {
            config,
            registry,
            catalog: Catalog::with_builtins(),
            locks: LockManager::new(),
            prober,
            rng: engine_rng,
            now: SimTime::ZERO,
            queue,
            operators: BTreeMap::new(),
            eval_error_reported: BTreeSet::new(),
            pindex: PredicateIndex::new(),
            push_stats: PushdownStats::default(),
            bad_id_reported: BTreeSet::new(),
            scan_kinds: None,
            joins: JoinGroups::default(),
            raw_stats: RawStats::default(),
            trace: TraceBuffer::with_capacity(4096),
            faults: FaultPlan::new(),
            loss_stack: Vec::new(),
            latency_stack: Vec::new(),
            baseline_links: BTreeMap::new(),
            staged_handlers: BTreeMap::new(),
            escalated: Vec::new(),
            breakers,
            admission_bucket,
            latency_samples: DurationStats::new(),
            obs,
            wal: None,
            halted: false,
            crash_immunity: 0,
            host: 0,
            epoch: 1,
        }
    }

    // --- write-ahead logging & crash recovery --------------------------------

    /// Attaches a WAL sink: from here on every external input (command) and
    /// control-plane transition (effect) is appended to it. Logging is a
    /// separate channel from the simulation (no trace/stats/RNG use), so an
    /// attached WAL never changes the run's observable behavior.
    pub fn attach_wal(&mut self, wal: WalHandle) {
        self.wal = Some(wal);
    }

    /// Detaches the WAL sink, returning it (e.g. to switch a recovered
    /// engine from verify mode back to record mode).
    pub fn detach_wal(&mut self) -> Option<WalHandle> {
        self.wal.take()
    }

    /// The attached WAL sink, if any.
    pub fn wal(&self) -> Option<&WalHandle> {
        self.wal.as_ref()
    }

    /// Whether a process-crash fault has halted this engine. A crashed
    /// engine refuses further work until recovery replaces it.
    pub fn is_crashed(&self) -> bool {
        self.halted
    }

    /// Grants immunity against the next `n` process-crash events (used by
    /// recovery so crashes already in the log don't halt the replay).
    pub fn grant_crash_immunity(&mut self, n: u32) {
        self.crash_immunity += n;
    }

    // --- incarnation identity ------------------------------------------------

    /// The simulated host this incarnation runs on.
    pub fn host(&self) -> u32 {
        self.host
    }

    /// This incarnation's epoch (see [`set_identity`](Aorta::set_identity)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamps this engine's incarnation identity: which host it runs on
    /// and at which epoch. Set by the cluster at construction and at every
    /// failover adoption; pure identity, never part of the state digest.
    pub fn set_identity(&mut self, host: u32, epoch: u64) {
        self.host = host;
        self.epoch = epoch;
    }

    /// Appends to the WAL when one is attached. The record is built lazily
    /// so the hot path pays nothing when durability is off.
    pub(crate) fn wal_emit(&self, record: impl FnOnce() -> WalRecord) {
        if let Some(wal) = &self.wal {
            wal.append(record());
        }
    }

    /// An independent copy of the engine for a crash-recovery snapshot.
    ///
    /// Everything mutable is cloned by value. Not copied: the WAL handle (a
    /// passive image must not share, or re-log into, the live log), custom
    /// action handlers (`Arc`-shared code, not state), and the text of the
    /// trace and span rings (immutable once recorded, shared with the donor
    /// by reference count). The observability registry is deep-cloned and
    /// re-pointed into the prober/breakers so the image's metrics diverge.
    pub fn fork_snapshot(&self) -> Box<Aorta> {
        let obs = self.obs.as_ref().map(SharedMetrics::deep_clone);
        let mut prober = self.prober.clone();
        let mut breakers = self.breakers.clone();
        if let Some(m) = &obs {
            prober.set_metrics(m.clone());
            if let Some(bank) = &mut breakers {
                bank.set_metrics(m.clone());
            }
        }
        Box::new(Aorta {
            config: self.config.clone(),
            registry: self.registry.clone(),
            catalog: self.catalog.clone(),
            locks: self.locks.clone(),
            prober,
            rng: self.rng.clone(),
            now: self.now,
            queue: self.queue.clone(),
            operators: self.operators.clone(),
            eval_error_reported: self.eval_error_reported.clone(),
            pindex: self.pindex.clone(),
            push_stats: self.push_stats,
            bad_id_reported: self.bad_id_reported.clone(),
            scan_kinds: self.scan_kinds.clone(),
            joins: JoinGroups::default(),
            raw_stats: self.raw_stats,
            trace: self.trace.clone(),
            faults: self.faults.clone(),
            loss_stack: self.loss_stack.clone(),
            latency_stack: self.latency_stack.clone(),
            baseline_links: self.baseline_links.clone(),
            staged_handlers: self.staged_handlers.clone(),
            escalated: self.escalated.clone(),
            breakers,
            admission_bucket: self.admission_bucket.clone(),
            latency_samples: self.latency_samples.clone(),
            obs,
            wal: None,
            halted: self.halted,
            crash_immunity: self.crash_immunity,
            host: self.host,
            epoch: self.epoch,
        })
    }

    /// A deterministic digest over the engine's dynamic state: virtual
    /// clock, counters, RNG state, trace, locks, edges, windows, queue,
    /// operators.
    /// Two engines with equal digests produce identical futures — the
    /// equality recovery tests assert between a replayed engine and its
    /// uninterrupted reference.
    pub fn state_digest(&self) -> u64 {
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        fnv(&mut h, format!("{:?}", self.now).as_bytes());
        fnv(&mut h, format!("{:?}", self.raw_stats).as_bytes());
        fnv(&mut h, format!("{:?}", self.rng.state()).as_bytes());
        fnv(&mut h, self.trace.render().as_bytes());
        fnv(&mut h, format!("{:?}", self.locks).as_bytes());
        self.pindex.digest_edge_state(|bytes| fnv(&mut h, bytes));
        self.pindex.digest_window_state(|bytes| fnv(&mut h, bytes));
        fnv(&mut h, format!("{:?}", self.escalated).as_bytes());
        fnv(&mut h, format!("{:?}", self.latency_samples).as_bytes());
        fnv(&mut h, format!("{:?}", self.loss_stack).as_bytes());
        fnv(&mut h, format!("{:?}", self.latency_stack).as_bytes());
        let queued: Vec<String> = self
            .queue
            .iter()
            .map(|(t, e)| format!("{t:?} {e:?}"))
            .collect();
        fnv(&mut h, format!("{queued:?}").as_bytes());
        for (name, op) in &self.operators {
            fnv(
                &mut h,
                format!("{name} {} {}", op.pending_len(), op.total_enqueued()).as_bytes(),
            );
        }
        fnv(&mut h, format!("{}", self.catalog.query_count()).as_bytes());
        h
    }

    /// Installs a fault schedule. As the clock advances, due faults are
    /// applied *before* any engine event at the same or a later instant:
    /// devices crash and recover, loss bursts and latency spikes degrade the
    /// per-kind links. Every injected fault is recorded in the trace.
    ///
    /// The current per-kind link models are snapshotted as the baseline that
    /// bursts degrade, so call this after any [`DeviceRegistry::set_link`]
    /// customization.
    pub fn inject_faults(&mut self, plan: FaultPlan<DeviceId>) {
        self.wal_emit(|| WalRecord::FaultsInjected {
            events: plan.iter().cloned().collect(),
        });
        self.baseline_links.clear();
        for kind in DeviceKind::ALL {
            self.baseline_links
                .insert(kind, self.registry.link(kind).clone());
        }
        self.faults = plan;
    }

    /// Requests admitted but not yet terminally resolved: `Execute` events
    /// still on the engine queue plus requests waiting in shared action
    /// operators for the next dispatch epoch.
    ///
    /// Together with the terminal counters in [`crate::EngineStats`] this
    /// accounts for every admitted request — nothing is silently lost.
    pub fn pending_requests(&self) -> u64 {
        let queued = self
            .queue
            .iter()
            .filter(|(_, e)| matches!(e, EngineEvent::Execute { .. }))
            .count() as u64;
        let waiting: u64 = self
            .operators
            .values()
            .map(|op| op.pending_len() as u64)
            .sum();
        queued + waiting
    }

    /// The engine's execution trace (probe timeouts, dispatch decisions,
    /// action failures), oldest first.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Disables tracing (zero overhead for long benchmark runs).
    pub fn disable_trace(&mut self) {
        self.trace = TraceBuffer::disabled();
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Individual action-completion latencies recorded so far (for tail
    /// quantiles — the mean alone hides overload).
    pub fn latency_stats(&self) -> DurationStats {
        self.latency_samples.clone()
    }

    /// Snapshot of the observability registry with the engine's terminal
    /// counters synced in, or `None` when `config.observability` is off.
    ///
    /// Live events (probes, breaker transitions, admission decisions,
    /// spans) are recorded as they happen; the aggregate [`crate::EngineStats`]
    /// counters are folded in here at snapshot time so the two views never
    /// double-count.
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        let obs = self.obs.as_ref()?;
        let mut snap = obs.snapshot();
        self.stats().record_into(&mut snap);
        Some(snap)
    }

    /// The metrics snapshot rendered as deterministic JSON (`None` when
    /// observability is off).
    pub fn metrics_json(&self) -> Option<String> {
        self.metrics().map(|m| m.to_json())
    }

    /// The metrics snapshot in the Prometheus text exposition format
    /// (`None` when observability is off).
    pub fn metrics_prometheus(&self) -> Option<String> {
        self.metrics().map(|m| m.to_prometheus())
    }

    /// Number of rising-edge entries currently tracked, in per-query units
    /// (one per live (query, event-source) pair). The index stores one edge
    /// map per *query group* and fans it out to members; this reports the
    /// per-query equivalent so soak tests can assert the state stays
    /// bounded across register/drop cycles.
    pub fn rising_edge_entries(&self) -> usize {
        self.pindex.edge_entries()
    }

    /// Number of live sliding-window rings, one per (kind, column, window
    /// length, event source) some windowed AQ reads and that has sampled at
    /// least once — however many AQs share it.
    pub fn window_entries(&self) -> usize {
        self.pindex.window_entries()
    }

    /// The shared predicate index (introspection: distinct comparison and
    /// query-group counts, used by tests and benchmarks to assert sharing).
    pub fn predicate_index(&self) -> &PredicateIndex {
        &self.pindex
    }

    /// Pushdown byte accounting accumulated so far. All-zero unless
    /// [`EngineConfig::pushdown`] is on.
    pub fn pushdown_stats(&self) -> PushdownStats {
        self.push_stats
    }

    /// The circuit-breaker state for `device`, when breakers are enabled.
    pub fn breaker_state(&self, device: DeviceId) -> Option<BreakerState> {
        self.breakers.as_ref().map(|b| b.state(device))
    }

    /// The breaker health score (EWMA of recent outcomes, 1.0 = perfect)
    /// for `device`, when breakers are enabled.
    pub fn breaker_health(&self, device: DeviceId) -> Option<f64> {
        self.breakers.as_ref().map(|b| b.health(device))
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Shared access to the device registry.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// Mutable access to the device registry (join/leave devices).
    ///
    /// Membership changes made through this accessor bypass the WAL; on a
    /// WAL-attached engine use [`Aorta::migrate_out`] / [`Aorta::migrate_in`]
    /// for ownership transfers so recovery sees them.
    pub fn registry_mut(&mut self) -> &mut DeviceRegistry {
        &mut self.registry
    }

    /// Extracts `device` for migration to another shard, logging the
    /// departure — the WAL-aware counterpart of
    /// `registry_mut().extract(device)`.
    pub fn migrate_out(&mut self, device: DeviceId) -> Option<aorta_net::DeviceEntry> {
        self.wal_emit(|| WalRecord::MigrateOut { device });
        self.registry.extract(device)
    }

    /// Adopts a device entry migrated from another shard, logging the
    /// arrival. The adopted entry is a live device image no log record can
    /// reconstruct, so the cluster's WAL manager force-snapshots both sides
    /// immediately after each migration — replay never crosses a
    /// `MigrateIn` record (encountering one is a loud recovery error).
    pub fn migrate_in(&mut self, entry: aorta_net::DeviceEntry) -> DeviceId {
        let id = self.registry.adopt(entry);
        self.wal_emit(|| WalRecord::MigrateIn { device: id });
        id
    }

    /// The catalog of actions and registered queries.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The lock manager (introspection).
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// The shared action operator for an action name, if any query uses it.
    pub fn shared_operator(&self, action: &str) -> Option<&SharedActionOperator> {
        self.operators.get(action)
    }

    /// Stages the implementation for an upcoming `CREATE ACTION name(…)`
    /// statement — the in-process equivalent of the paper's pre-compiled
    /// `.dll` code block.
    pub fn register_handler(&mut self, name: impl Into<String>, handler: CustomHandler) {
        self.staged_handlers.insert(name.into(), handler);
    }

    /// Renders the registered continuous queries as a SQL script that,
    /// executed on a fresh engine (with the same actions registered),
    /// recreates the catalog — the administrator's backup/restore path.
    pub fn dump_queries(&self) -> String {
        let mut out = String::new();
        for plan in self.catalog.queries() {
            out.push_str(&format!("CREATE AQ {} AS SELECT ", plan.name));
            for (i, a) in plan.actions.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{}({})",
                    a.action,
                    a.args
                        .iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            out.push_str(&format!(" FROM {} {}", plan.event_kind, plan.event_binding));
            let mut conjuncts: Vec<String> =
                plan.event_conjuncts.iter().map(|c| c.to_string()).collect();
            if let Some(d) = &plan.device {
                out.push_str(&format!(", {} {}", d.kind, d.binding));
                conjuncts.extend(d.conjuncts.iter().map(|c| c.to_string()));
            }
            if !conjuncts.is_empty() {
                out.push_str(" WHERE ");
                out.push_str(&conjuncts.join(" AND "));
            }
            out.push_str(";\n");
        }
        out
    }

    /// Parses, validates, plans and applies a batch of SQL statements.
    ///
    /// Returns one [`ExecOutput`] per statement; the whole batch fails on
    /// the first error.
    ///
    /// # Errors
    ///
    /// [`EngineError`] on syntax, validation, planning or catalog problems.
    pub fn execute_sql(&mut self, sql: &str) -> Result<Vec<ExecOutput>, EngineError> {
        let statements = aorta_sql::parse(sql)?;
        // Command-log the whole batch once parsing succeeds. Execution
        // errors are deterministic, so replaying the batch fails at the
        // same statement and leaves the same prefix applied.
        self.wal_emit(|| WalRecord::SqlExec {
            sql: sql.to_string(),
        });
        let mut out = Vec::with_capacity(statements.len());
        for stmt in statements {
            out.push(self.execute_statement(stmt)?);
        }
        Ok(out)
    }

    fn execute_statement(&mut self, stmt: Statement) -> Result<ExecOutput, EngineError> {
        self.catalog.validation_context().validate(&stmt)?;
        match stmt {
            Statement::CreateAction(ca) => {
                self.create_action(ca)?;
                Ok(ExecOutput::ActionRegistered)
            }
            Statement::CreateAq(aq) => {
                let plan = AqPlan::plan(&aq.name, &aq.select, &self.catalog)?;
                let id = self.register_query_plan(plan)?;
                Ok(ExecOutput::QueryRegistered(id))
            }
            Statement::DropAq(name) => {
                self.deregister_query(&name)?;
                Ok(ExecOutput::QueryDropped)
            }
            Statement::Select(select) => Ok(ExecOutput::Rows(self.run_select(&select)?)),
            Statement::Explain(inner) => match *inner {
                Statement::CreateAq(aq) => {
                    let plan = AqPlan::plan(&aq.name, &aq.select, &self.catalog)?;
                    Ok(ExecOutput::Plan(plan.to_string()))
                }
                Statement::Select(select) => {
                    match AqPlan::plan("adhoc", &select, &self.catalog) {
                        Ok(plan) => Ok(ExecOutput::Plan(plan.to_string())),
                        // A scalar SELECT has no action plan; describe scans.
                        Err(_) => Ok(ExecOutput::Plan(format!("Scan+Filter: {select}\n"))),
                    }
                }
                other => Ok(ExecOutput::Plan(other.to_string())),
            },
        }
    }

    /// Registers an already-planned continuous query directly, bypassing
    /// SQL parsing and statement validation — the bulk-registration path
    /// for workloads that stand up 10⁵–10⁶ AQs (the E10 benchmark, churn
    /// soak tests), where re-validating device catalogs per statement would
    /// dominate. The plan's conjuncts are interned into the shared
    /// predicate index exactly as `CREATE AQ` would.
    ///
    /// # Errors
    ///
    /// [`EngineError`] when a query with the same name is already
    /// registered.
    pub fn register_query_plan(&mut self, plan: AqPlan) -> Result<u32, EngineError> {
        for a in &plan.actions {
            self.operators.entry(a.action.clone()).or_default();
        }
        let name = plan.name.clone();
        let id = self.catalog.register_query(plan)?;
        let registered = self.catalog.query(&name).expect("just registered");
        let schema = self.registry.schema(registered.event_kind);
        self.pindex.register(registered, schema);
        self.scan_kinds = None;
        self.joins = JoinGroups::default();
        self.wal_emit(|| WalRecord::AqRegistered {
            query_id: id,
            name: name.clone(),
        });
        Ok(id)
    }

    /// Drops a registered continuous query by name, releasing its
    /// predicate-index entries and rising-edge state — the direct
    /// counterpart of [`Aorta::register_query_plan`] (and the
    /// implementation behind `DROP AQ`).
    ///
    /// # Errors
    ///
    /// [`EngineError`] when no query with that name is registered.
    pub fn deregister_query(&mut self, name: &str) -> Result<(), EngineError> {
        let dropped = self.catalog.drop_query(name)?;
        // Leaving the group collects the query's rising-edge entries with
        // it. Query IDs are never reused, so state keyed on one could
        // never match again and would otherwise grow by one generation
        // per register/drop cycle, forever.
        self.pindex.unregister(&dropped);
        self.scan_kinds = None;
        self.joins = JoinGroups::default();
        self.wal_emit(|| WalRecord::AqDropped {
            query_id: dropped.query_id,
            name: name.to_string(),
        });
        Ok(())
    }

    fn create_action(&mut self, ca: CreateAction) -> Result<(), EngineError> {
        // The profile path selects a built-in template unless the user
        // staged XML under that name; the library path selects the staged
        // handler.
        let handler = match self.staged_handlers.remove(&ca.name) {
            Some(h) => ActionHandler::Custom(h),
            None => {
                return Err(EngineError::Catalog(format!(
                    "no handler registered for action '{}'; call register_handler() first \
                     (the in-process equivalent of the paper's pre-compiled library)",
                    ca.name
                )))
            }
        };
        // Infer the device kind from the profile attribute naming convention
        // (profiles/<kind>/…) or default to Sensor-less generic: use the
        // first parameter typed Location → Camera, else Phone for Str pairs.
        let profile = match &ca.profile {
            Some(path) if path.contains("camera") => ActionProfile::photo(),
            Some(path) if path.contains("phone") => ActionProfile::sendphoto(),
            Some(path) if path.contains("sensor") => ActionProfile::beep(),
            _ => ActionProfile::sendphoto(),
        };
        let def = ActionDef {
            name: ca.name,
            params: ca.params.iter().map(|(t, _)| *t).collect(),
            profile,
            handler,
        };
        self.catalog.register_action(def)
    }

    /// Runs a one-shot scalar SELECT: scans every FROM table once, filters,
    /// projects.
    fn run_select(&mut self, select: &Select) -> Result<Vec<Tuple>, EngineError> {
        // Scan each bound table through the communication layer.
        let mut scans: Vec<(String, DeviceKind, Vec<Tuple>)> = Vec::new();
        for t in &select.tables {
            let kind: DeviceKind = t.table.parse().map_err(EngineError::Planning)?;
            let tuples =
                aorta_net::ScanOperator::new(kind).run(&mut self.registry, self.now, &mut self.rng);
            scans.push((t.binding().to_string(), kind, tuples));
        }
        // Cross product with filtering (FROM lists are 1–2 tables here).
        let mut rows = Vec::new();
        let mut cursor = vec![0usize; scans.len()];
        'outer: loop {
            {
                let mut env = Env::new();
                let schemas: Vec<_> = scans
                    .iter()
                    .map(|(b, k, _)| (b.clone(), self.registry.schema(*k).clone()))
                    .collect();
                for (i, (_, _, tuples)) in scans.iter().enumerate() {
                    if tuples.is_empty() {
                        break 'outer;
                    }
                    env = env.bind(&schemas[i].0, &schemas[i].1, &tuples[cursor[i]]);
                }
                let ctx = EvalContext {
                    registry: &self.registry,
                };
                let keep = match &select.predicate {
                    Some(p) => eval_predicate(p, &env, &ctx)?,
                    None => true,
                };
                if keep {
                    let mut values = Vec::with_capacity(select.projections.len());
                    for p in &select.projections {
                        values.push(eval_expr(p, &env, &ctx)?);
                    }
                    rows.push(Tuple::new(values));
                }
            }
            // Advance the cross-product cursor.
            let mut i = scans.len();
            loop {
                if i == 0 {
                    break 'outer;
                }
                i -= 1;
                cursor[i] += 1;
                if cursor[i] < scans[i].2.len() {
                    break;
                }
                cursor[i] = 0;
            }
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineError;
    use aorta_data::Value;
    use aorta_sim::SimDuration;

    fn quiet_lab() -> PervasiveLab {
        PervasiveLab::standard()
    }

    fn eventful_lab() -> PervasiveLab {
        PervasiveLab::standard().with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO)
    }

    const SNAPSHOT: &str = r#"CREATE AQ snapshot AS
        SELECT photo(c.ip, s.loc, "photos/admin")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#;

    #[test]
    fn registers_and_drops_queries() {
        let mut aorta = Aorta::with_lab(EngineConfig::default(), quiet_lab());
        let out = aorta.execute_sql(SNAPSHOT).unwrap();
        assert_eq!(out, vec![ExecOutput::QueryRegistered(0)]);
        assert_eq!(aorta.catalog().query_count(), 1);
        assert!(aorta.shared_operator("photo").is_some());
        let out = aorta.execute_sql("DROP AQ snapshot").unwrap();
        assert_eq!(out, vec![ExecOutput::QueryDropped]);
        assert_eq!(aorta.catalog().query_count(), 0);
        // Dropping twice errors.
        assert!(matches!(
            aorta.execute_sql("DROP AQ snapshot"),
            Err(EngineError::Catalog(_))
        ));
    }

    #[test]
    fn validation_errors_surface() {
        let mut aorta = Aorta::with_lab(EngineConfig::default(), quiet_lab());
        let err = aorta
            .execute_sql("SELECT nothing FROM toaster")
            .unwrap_err();
        assert!(err.to_string().contains("unknown table"), "{err}");
    }

    #[test]
    fn snapshot_query_takes_photos_on_events() {
        let mut aorta = Aorta::with_lab(EngineConfig::seeded(7), eventful_lab());
        aorta.execute_sql(SNAPSHOT).unwrap();
        aorta.run_for(SimDuration::from_mins(3));
        let stats = aorta.stats();
        assert!(stats.events_detected >= 3, "{stats:?}");
        assert!(stats.requests >= 3, "{stats:?}");
        assert!(stats.executed >= 2, "{stats:?}");
        assert!(stats.photos_ok >= 2, "{stats:?}");
        // With sync on, no interference outcomes.
        assert_eq!(stats.photos_wrong, 0, "{stats:?}");
    }

    #[test]
    fn one_shot_select_returns_rows() {
        let mut aorta = Aorta::with_lab(EngineConfig::default(), quiet_lab());
        let out = aorta
            .execute_sql("SELECT s.id, s.loc FROM sensor s WHERE s.id < 3")
            .unwrap();
        let ExecOutput::Rows(rows) = &out[0] else {
            panic!("expected rows");
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(0), Some(&Value::Int(0)));
        assert!(matches!(rows[0].get(1), Some(Value::Location(_))));
    }

    #[test]
    fn cross_product_select_with_coverage() {
        let mut aorta = Aorta::with_lab(EngineConfig::default(), quiet_lab());
        let out = aorta
            .execute_sql("SELECT s.id, c.id FROM sensor s, camera c WHERE coverage(c.id, s.loc)")
            .unwrap();
        let ExecOutput::Rows(rows) = &out[0] else {
            panic!("expected rows");
        };
        // Every mote is covered by at least one camera (§6.1),
        // so there are at least 10 qualifying pairs.
        assert!(rows.len() >= 10, "got {}", rows.len());
    }

    #[test]
    fn explain_shows_action_plan() {
        let mut aorta = Aorta::with_lab(EngineConfig::default(), quiet_lab());
        let out = aorta
            .execute_sql(&format!("EXPLAIN {}", &SNAPSHOT[10..])) // strip CREATE AQ? no — EXPLAIN CREATE AQ
            .unwrap_or_else(|_| {
                aorta
                    .execute_sql(
                        r#"EXPLAIN SELECT photo(c.ip, s.loc, "d")
                           FROM sensor s, camera c WHERE s.accel_x > 500"#,
                    )
                    .unwrap()
            });
        let ExecOutput::Plan(text) = &out[0] else {
            panic!("expected plan");
        };
        assert!(text.contains("ActionOp photo"), "{text}");
    }

    #[test]
    fn create_action_requires_staged_handler() {
        let mut aorta = Aorta::with_lab(EngineConfig::default(), quiet_lab());
        let err = aorta
            .execute_sql(r#"CREATE ACTION mystery(Int x) AS "lib/mystery.dll""#)
            .unwrap_err();
        assert!(err.to_string().contains("register_handler"), "{err}");
    }

    #[test]
    fn custom_action_end_to_end() {
        let mut aorta = Aorta::with_lab(EngineConfig::seeded(9), eventful_lab());
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let hits2 = hits.clone();
        aorta.register_handler(
            "record_event",
            std::sync::Arc::new(move |_reg, _dev, args, now, _rng| {
                assert!(!args.is_empty());
                hits2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(now + SimDuration::from_millis(10))
            }),
        );
        aorta
            .execute_sql(
                r#"CREATE ACTION record_event(Int sensor_id) AS "lib/record.dll"
                   PROFILE "profiles/sensor/record.xml""#,
            )
            .unwrap();
        aorta
            .execute_sql(
                r#"CREATE AQ recorder AS
                   SELECT record_event(s.id)
                   FROM sensor t, sensor s
                   WHERE s.accel_x > 500"#,
            )
            .unwrap();
        aorta.run_for(SimDuration::from_mins(2));
        assert!(
            hits.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "custom handler never ran"
        );
    }

    /// `execute_sql` validates every statement against a context whose
    /// table part is cached: a `CREATE ACTION` between two statements must
    /// be visible to the second.
    #[test]
    fn create_action_after_the_first_statement_is_visible_to_the_next() {
        const USES_IT: &str = r#"CREATE AQ late AS
            SELECT late_action(s.id) FROM sensor t, sensor s WHERE s.accel_x > 500"#;
        let mut aorta = Aorta::with_lab(EngineConfig::seeded(12), quiet_lab());
        let err = aorta.execute_sql(USES_IT).unwrap_err();
        assert!(err.to_string().contains("late_action"), "{err}");
        aorta.register_handler(
            "late_action",
            std::sync::Arc::new(|_, _, _, now, _| Ok(now)),
        );
        aorta
            .execute_sql(
                r#"CREATE ACTION late_action(Int sensor_id) AS "lib/late.dll"
                   PROFILE "profiles/sensor/late.xml""#,
            )
            .unwrap();
        aorta.execute_sql(USES_IT).unwrap();
    }

    #[test]
    fn sendphoto_delivers_mms() {
        let mut aorta = Aorta::with_lab(EngineConfig::seeded(11), eventful_lab());
        aorta
            .execute_sql(
                r#"CREATE AQ notify AS
                   SELECT sendphoto(p.number, "photos/admin/latest.jpg")
                   FROM sensor s, phone p
                   WHERE s.accel_x > 500"#,
            )
            .unwrap();
        aorta.run_for(SimDuration::from_mins(2));
        let stats = aorta.stats();
        assert!(stats.messages_delivered >= 1, "{stats:?}");
        let phone = aorta
            .registry()
            .get(aorta_device::DeviceId::phone(0))
            .unwrap()
            .sim
            .as_phone()
            .unwrap();
        assert!(!phone.inbox().is_empty());
        assert!(phone.inbox()[0].body.contains("latest.jpg"));
    }

    #[test]
    fn clock_advances_with_run_for() {
        let mut aorta = Aorta::with_lab(EngineConfig::default(), quiet_lab());
        assert_eq!(aorta.now(), SimTime::ZERO);
        aorta.run_for(SimDuration::from_secs(90));
        assert_eq!(aorta.now(), SimTime::ZERO + SimDuration::from_secs(90));
    }
}
