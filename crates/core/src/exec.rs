//! The continuous executor: event detection, device-selection optimization,
//! synchronization, and action execution on the virtual clock.
//!
//! Every [`SAMPLE_PERIOD`] the engine scans the sensor tables through the
//! communication layer, evaluates each registered query's event conjuncts,
//! and fires an [`ActionRequest`] per rising edge. Requests pending in one
//! epoch are batched per shared action operator and dispatched together:
//! probe candidates (§4), estimate costs from the probed physical status
//! (§2.3), assign with LERFA + SRFE when the batch warrants scheduling (§5),
//! lock devices for the assigned window (§4), and execute on the simulated
//! hardware.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use aorta_data::{Location, Tuple, Value};
use aorta_device::{
    DeviceId, DeviceKind, PhotoError, PhotoOutcome, PhotoSize, PhysicalStatus, PtzPosition,
};
use aorta_net::{BreakerDecision, BreakerState, ScanOperator};
use aorta_obs::{detect_metrics, push_metrics, MetricsRegistry, SpanKind};
use aorta_sim::{FaultEvent, LinkModel, SimDuration, SimTime};
use aorta_wal::{LifecycleStage, WalRecord};

use crate::actions::{ActionDef, ActionHandler, ActionProfile};
use crate::cost::{CostContext, ResolvedProfile};
use crate::expr::{eval_expr, eval_predicate, Env, EvalContext};
use crate::pindex::{GroupEpoch, Source, TupleOutcome};
use crate::shared::{ActionRequest, Aim, AimKey, CandidateBlock, EpochScans};
use crate::{Aorta, DispatchPolicy};

/// How often the engine samples the sensor tables for events: the paper's
/// one-second sampling. Epochs fall on whole multiples of it.
pub const SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(1);

/// A request that cannot start executing within this window of its event
/// times out (events are transient; a late action is useless).
const REQUEST_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Events on the engine's internal virtual-time queue.
///
/// `Execute` carries its whole request (~300 bytes); `Sample` is a unit
/// variant fired once per second of virtual time, so the size skew is
/// irrelevant to throughput and not worth boxing.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum EngineEvent {
    /// Periodic sensor sampling + dispatch.
    Sample,
    /// A previously assigned request starts executing on its device.
    Execute {
        /// The request to execute.
        request: ActionRequest,
        /// The selected device.
        device: DeviceId,
    },
}

/// The admission gate's decision for one would-be request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdmissionVerdict {
    /// Admit at full quality.
    Admit,
    /// Admit, but degraded to reduced quality (brownout).
    Degrade,
    /// Refuse: counted in `shed`, never enqueued.
    Shed,
}

/// Each way a request leaves this engine. [`Aorta::settle`] writes every
/// one: its counter, its lifecycle record and its trace line.
enum Fate {
    /// Served at full quality.
    Completed,
    /// Served as a lo-res photo on the device (brownout).
    LoRes(DeviceId),
    /// The device or the action refused it.
    Failed(Failure),
    /// Refused by the admission gate.
    ShedAtAdmission,
    /// Its predicted finish on the device is past its deadline.
    ShedAtDispatch(DeviceId),
    /// Its earliest start on the device is past [`REQUEST_TIMEOUT`].
    TimedOut(DeviceId),
    /// Its deadline passed before it could run on the device.
    Expired(DeviceId),
    /// No candidate could serve it at dispatch.
    NoCandidate(ActionRequest),
    /// Its device crashed before execution and no candidate is left.
    Orphaned(ActionRequest, DeviceId),
}

/// Why a dispatched request failed, one terminal counter each.
enum Failure {
    Connect,
    Busy,
    OutOfRange,
    ActionError,
}

/// Raw engine counters (photo outcomes are derived at read time, since
/// interference can downgrade a photo after the fact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RawStats {
    pub events_detected: u64,
    pub requests: u64,
    pub executed: u64,
    pub connect_failures: u64,
    pub busy_rejections: u64,
    pub no_candidate: u64,
    pub timed_out: u64,
    pub out_of_range: u64,
    pub action_errors: u64,
    pub messages_delivered: u64,
    pub beeps_delivered: u64,
    pub latency_total_us: u64,
    pub latency_count: u64,
    pub retries: u64,
    pub orphaned: u64,
    pub partial_cost_us: u64,
    pub escalated_out: u64,
    pub escalated_in: u64,
    pub shed: u64,
    pub expired: u64,
    pub degraded: u64,
    pub late_successes: u64,
    pub eval_errors: u64,
    pub idless_skipped: u64,
    pub bad_device_ids: u64,
}

/// A snapshot of engine statistics.
///
/// The §6.2 failure-rate metric is [`EngineStats::failure_rate`]: failed
/// requests (connection timeouts, busy rejections, no available candidate,
/// start-deadline misses) plus ruined photos (blurred / wrong position),
/// over all requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Physical events detected (rising edges).
    pub events_detected: u64,
    /// Action requests created.
    pub requests: u64,
    /// Requests whose action was accepted by a device.
    pub executed: u64,
    /// Connection-level failures (camera connect timeout, phone out of
    /// coverage, mote radio loss).
    pub connect_failures: u64,
    /// Commands rejected by a busy camera (unsynchronized mode).
    pub busy_rejections: u64,
    /// Requests with no available candidate after probing/filtering.
    pub no_candidate: u64,
    /// Requests that could not start within the request timeout.
    pub timed_out: u64,
    /// Photo targets outside camera travel limits.
    pub out_of_range: u64,
    /// Custom-action errors.
    pub action_errors: u64,
    /// Photos that completed sharp and on target.
    pub photos_ok: u64,
    /// Photos ruined by head redirection during capture.
    pub photos_blurred: u64,
    /// Photos taken at the wrong position after redirection mid-movement.
    pub photos_wrong: u64,
    /// MMS/SMS deliveries.
    pub messages_delivered: u64,
    /// Mote beeps delivered.
    pub beeps_delivered: u64,
    /// Mean event-to-action-completion latency over executed requests.
    pub mean_action_latency: Option<SimDuration>,
    /// Re-selections after the assigned device went offline.
    pub retries: u64,
    /// Requests whose device crashed before execution and for which no
    /// remaining candidate could take over.
    pub orphaned: u64,
    /// Virtual time of partially completed work lost to mid-action crashes.
    pub partial_cost: SimDuration,
    /// Requests handed to the cluster gateway after local candidate
    /// exhaustion (zero unless `escalate_exhausted` is set).
    pub escalated_out: u64,
    /// Requests adopted from the cluster gateway after another shard
    /// escalated them.
    pub escalated_in: u64,
    /// Probes attempted.
    pub probes: u64,
    /// Probes that timed out.
    pub probe_timeouts: u64,
    /// Successful lock acquisitions.
    pub lock_acquisitions: u64,
    /// Lock conflicts observed by the optimizer.
    pub lock_conflicts: u64,
    /// Requests shed by admission control or by the scheduler's deadline
    /// rejection (predicted completion past the request deadline).
    pub shed: u64,
    /// Requests cancelled at execution because their deadline had passed.
    pub expired: u64,
    /// Requests completed at degraded quality under brownout (lo-res
    /// photos). A degraded completion is a success, counted here instead
    /// of in `executed`.
    pub degraded: u64,
    /// Successes whose completion landed *after* the request deadline —
    /// zero whenever deadline enforcement is on; nonzero only for action
    /// kinds whose duration cannot be predicted exactly before starting.
    pub late_successes: u64,
    /// Circuit-breaker trips (Closed/Half-open → Open transitions).
    pub breaker_trips: u64,
    /// Circuit-breaker probation closes (Half-open → Closed transitions).
    pub breaker_closes: u64,
    /// Event-predicate evaluations that *errored* (e.g. a type-mismatched
    /// comparison). An erroring conjunct is treated as not-matched, but the
    /// error is never silently folded into `false`: each one is counted
    /// here and the first occurrence per (query, conjunct) is traced.
    pub eval_errors: u64,
    /// Scanned event tuples skipped because they carried no usable `id`:
    /// rising edges are tracked per source device, and folding all id-less
    /// tuples onto one shared key would let the first mask the rest.
    pub idless_skipped: u64,
}

/// Byte accounting for in-network operator pushdown (`EngineConfig::pushdown`).
///
/// All byte counters are hop-weighted: a reply from a mote `d` radio hops
/// from the gateway is counted `d` times, since every intermediate mote
/// forwards it (the in-network cost model pushdown exists to reduce).
/// Kept apart from [`EngineStats`] on purpose — the committed seed
/// artifacts digest `EngineStats`' `Debug` rendering, and pushdown
/// accounting must never perturb them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushdownStats {
    /// Scanned tuples shipped in full (some watching prefix passed or
    /// errored, the tuple had no usable id, or its kind is not
    /// suppressible).
    pub shipped_tuples: u64,
    /// Scanned tuples suppressed at the device: every watching query's
    /// pushed prefix evaluated cleanly false.
    pub suppressed_tuples: u64,
    /// Hop-weighted bytes of full attribute replies actually shipped.
    pub reply_bytes: u64,
    /// Hop-weighted bytes of one-byte suppression markers sent in place
    /// of full replies.
    pub marker_bytes: u64,
    /// Hop-weighted bytes the same scans would have cost with pushdown
    /// off (every tuple shipped in full).
    pub baseline_bytes: u64,
}

impl PushdownStats {
    /// Total bytes on the wire with pushdown on: full replies plus
    /// suppression markers.
    pub fn wire_bytes(&self) -> u64 {
        self.reply_bytes + self.marker_bytes
    }

    /// Bytes pushdown kept off the wire relative to shipping everything.
    pub fn saved_bytes(&self) -> u64 {
        self.baseline_bytes.saturating_sub(self.wire_bytes())
    }
}

/// What a sampling epoch needs from the catalog, derived by one walk over
/// the registered plans and cached between register/drop operations — with
/// 10⁶ registered AQs a per-epoch walk would dominate the epoch and break
/// the sub-linear-cost property.
#[derive(Debug, Clone)]
pub(crate) struct ScanKinds {
    /// Kinds to scan, in catalog name order — event kind before device
    /// kind per plan, first appearance wins — so the scans (and therefore
    /// the RNG draws they consume) happen in exactly the order a per-plan
    /// loop would produce.
    pub order: Vec<DeviceKind>,
    /// Kinds whose samples pushdown may suppress: event kinds that are no
    /// query's action target. Device-part tuples feed the candidate join,
    /// which runs on the engine, so they always ship. Empty with pushdown
    /// off.
    pub suppressible: BTreeSet<DeviceKind>,
}

impl ScanKinds {
    /// The cached value, rebuilt by one catalog walk when a register/drop
    /// invalidated it. Takes the fields apart so an epoch can hold the
    /// result while it scans and detects.
    fn cached<'a>(
        slot: &'a mut Option<ScanKinds>,
        catalog: &crate::Catalog,
        pushdown: bool,
    ) -> &'a ScanKinds {
        slot.get_or_insert_with(|| ScanKinds::of(catalog, pushdown))
    }

    fn of(catalog: &crate::Catalog, pushdown: bool) -> ScanKinds {
        fn note(kinds: &mut Vec<DeviceKind>, kind: DeviceKind) {
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        let mut order = Vec::new();
        let mut event_kinds = Vec::new();
        let mut device_kinds = Vec::new();
        for plan in catalog.queries() {
            note(&mut order, plan.event_kind);
            note(&mut event_kinds, plan.event_kind);
            if let Some(d) = &plan.device {
                note(&mut order, d.kind);
                note(&mut device_kinds, d.kind);
            }
        }
        event_kinds.retain(|k| pushdown && !device_kinds.contains(k));
        ScanKinds {
            order,
            suppressible: event_kinds.into_iter().collect(),
        }
    }
}

impl EngineStats {
    /// Requests that left this engine, by every terminal outcome: served
    /// (in full or degraded), failed, shed, expired or orphaned. Conservation
    /// is `requests == terminal() + pending_requests()` on a lone engine;
    /// escalations are the cluster's to count.
    pub fn terminal(&self) -> u64 {
        self.executed
            + self.degraded
            + self.connect_failures
            + self.busy_rejections
            + self.no_candidate
            + self.timed_out
            + self.out_of_range
            + self.action_errors
            + self.orphaned
            + self.shed
            + self.expired
    }

    /// Failed requests: every terminal outcome but a success, plus ruined
    /// photos. A degraded (brownout) completion is a success, not a failure.
    pub fn failures(&self) -> u64 {
        self.terminal() - self.executed - self.degraded + self.photos_blurred + self.photos_wrong
    }

    /// Failures over requests; `None` before any request exists.
    pub fn failure_rate(&self) -> Option<f64> {
        if self.requests == 0 {
            None
        } else {
            Some(self.failures() as f64 / self.requests as f64)
        }
    }

    /// Syncs this aggregate snapshot into a metrics registry under the
    /// `aorta_engine_` name prefix.
    ///
    /// Absolute `counter_set` (not increments) keeps repeated syncs of a
    /// monotone snapshot from double-counting, and the prefix keeps the
    /// aggregates apart from the live labeled series the engine records as
    /// it runs (e.g. `aorta_probe_timeouts{device=…}` versus the aggregate
    /// `aorta_engine_probe_timeouts`).
    pub fn record_into(&self, registry: &mut MetricsRegistry) {
        let counters: &[(&str, u64)] = &[
            ("aorta_engine_events_detected", self.events_detected),
            ("aorta_engine_requests", self.requests),
            ("aorta_engine_executed", self.executed),
            ("aorta_engine_connect_failures", self.connect_failures),
            ("aorta_engine_busy_rejections", self.busy_rejections),
            ("aorta_engine_no_candidate", self.no_candidate),
            ("aorta_engine_timed_out", self.timed_out),
            ("aorta_engine_out_of_range", self.out_of_range),
            ("aorta_engine_action_errors", self.action_errors),
            ("aorta_engine_photos_ok", self.photos_ok),
            ("aorta_engine_photos_blurred", self.photos_blurred),
            ("aorta_engine_photos_wrong", self.photos_wrong),
            ("aorta_engine_messages_delivered", self.messages_delivered),
            ("aorta_engine_beeps_delivered", self.beeps_delivered),
            ("aorta_engine_retries", self.retries),
            ("aorta_engine_orphaned", self.orphaned),
            ("aorta_engine_escalated_out", self.escalated_out),
            ("aorta_engine_escalated_in", self.escalated_in),
            ("aorta_engine_probes", self.probes),
            ("aorta_engine_probe_timeouts", self.probe_timeouts),
            ("aorta_engine_lock_acquisitions", self.lock_acquisitions),
            ("aorta_engine_lock_conflicts", self.lock_conflicts),
            ("aorta_engine_shed", self.shed),
            ("aorta_engine_expired", self.expired),
            ("aorta_engine_degraded", self.degraded),
            ("aorta_engine_late_successes", self.late_successes),
            ("aorta_engine_breaker_trips", self.breaker_trips),
            ("aorta_engine_breaker_closes", self.breaker_closes),
            ("aorta_engine_eval_errors", self.eval_errors),
            ("aorta_engine_idless_skipped", self.idless_skipped),
        ];
        for &(name, value) in counters {
            registry.counter_set(name, &[], value);
        }
        if let Some(mean) = self.mean_action_latency {
            registry.gauge_set(
                "aorta_engine_mean_action_latency_us",
                &[],
                mean.as_micros() as i64,
            );
        }
        registry.gauge_set(
            "aorta_engine_partial_cost_us",
            &[],
            self.partial_cost.as_micros() as i64,
        );
    }
}

impl Aorta {
    /// Advances the virtual clock to `deadline`, processing every engine
    /// event due on the way.
    ///
    /// Injected faults (see [`Aorta::inject_faults`]) are interleaved on the
    /// same clock: a fault scheduled at or before the next engine event is
    /// applied first, so a crash at `t` affects an execution at `t`.
    pub fn run_until(&mut self, deadline: SimTime) {
        // A crashed engine does nothing (and logs nothing): its in-memory
        // state died with the process, and recovery rebuilds a fresh one.
        if self.halted {
            return;
        }
        self.wal_emit(|| WalRecord::RunUntil { deadline });
        loop {
            let next_fault = self.faults.peek_next_time().filter(|&f| f <= deadline);
            let next_event = self.queue.peek_time().filter(|&e| e <= deadline);
            let fault_first = match (next_fault, next_event) {
                (Some(f), Some(e)) => f <= e,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if fault_first {
                let t = next_fault.expect("checked above");
                self.now = t;
                for (time, fault) in self.faults.pop_due(t) {
                    self.apply_fault(time, fault);
                    if self.halted {
                        return;
                    }
                }
                continue;
            }
            let Some(t) = next_event else { break };
            let (t, event) = {
                let popped = self.queue.pop().expect("peeked above");
                debug_assert_eq!(popped.0, t);
                popped
            };
            self.now = t;
            match event {
                EngineEvent::Sample => self.handle_sample(),
                EngineEvent::Execute { request, device } => {
                    // Work whose deadline already passed is worthless: cancel
                    // it (releasing any lock it holds) instead of commanding
                    // the device for a result nobody can use.
                    if self.now >= request.deadline {
                        self.expire_request(&request, device);
                    } else if self.registry.get(device).is_some_and(|e| !e.online()) {
                        // A device that crashed since assignment orphans the
                        // action: fail over instead of commanding a dead device.
                        self.handle_orphaned(request, device);
                    } else {
                        self.execute_request(&request, device);
                    }
                }
            }
        }
        // Faults due before the deadline but after the last engine event.
        for (time, fault) in self.faults.pop_due(deadline) {
            self.now = time;
            self.apply_fault(time, fault);
            if self.halted {
                return;
            }
        }
        self.now = deadline;
    }

    /// Advances the virtual clock by `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.run_until(self.now + duration);
    }

    /// A statistics snapshot (photo outcomes recomputed from the cameras).
    pub fn stats(&self) -> EngineStats {
        let raw = self.raw_stats;
        let mut photos_ok = 0;
        let mut photos_blurred = 0;
        let mut photos_wrong = 0;
        for entry in self.registry.of_kind(DeviceKind::Camera) {
            if let Some(cam) = entry.sim.as_camera() {
                photos_ok += cam.count_outcome(PhotoOutcome::Ok) as u64;
                photos_blurred += cam.count_outcome(PhotoOutcome::Blurred) as u64;
                photos_wrong += cam.count_outcome(PhotoOutcome::WrongPosition) as u64;
            }
        }
        EngineStats {
            events_detected: raw.events_detected,
            requests: raw.requests,
            executed: raw.executed,
            connect_failures: raw.connect_failures,
            busy_rejections: raw.busy_rejections,
            no_candidate: raw.no_candidate,
            timed_out: raw.timed_out,
            out_of_range: raw.out_of_range,
            action_errors: raw.action_errors,
            photos_ok,
            photos_blurred,
            photos_wrong,
            messages_delivered: raw.messages_delivered,
            beeps_delivered: raw.beeps_delivered,
            mean_action_latency: raw
                .latency_total_us
                .checked_div(raw.latency_count)
                .map(SimDuration::from_micros),
            retries: raw.retries,
            orphaned: raw.orphaned,
            partial_cost: SimDuration::from_micros(raw.partial_cost_us),
            escalated_out: raw.escalated_out,
            escalated_in: raw.escalated_in,
            probes: self.prober.probes_sent(),
            probe_timeouts: self.prober.timeouts(),
            lock_acquisitions: self.locks.acquisitions(),
            lock_conflicts: self.locks.conflicts(),
            shed: raw.shed,
            expired: raw.expired,
            degraded: raw.degraded,
            late_successes: raw.late_successes,
            breaker_trips: self.breakers.as_ref().map_or(0, |b| b.trips()),
            breaker_closes: self.breakers.as_ref().map_or(0, |b| b.closes()),
            eval_errors: raw.eval_errors,
            idless_skipped: raw.idless_skipped,
        }
    }

    // --- fault injection -----------------------------------------------------

    fn apply_fault(&mut self, time: SimTime, fault: FaultEvent<DeviceId>) {
        match fault {
            FaultEvent::Crash(d) => {
                if self.registry.get(d).is_none_or(|e| !e.online()) {
                    return; // unknown or already down
                }
                self.registry.set_online(d, false);
                self.trace.emit(time, "fault", format!("{d} crashed"));
                // A crash mid-photo loses the partial work done so far.
                if let Some(cam) = self.registry.camera(d) {
                    if cam.is_busy(time) {
                        if let Some(p) = cam.photos().last() {
                            let partial = time.saturating_duration_since(p.requested_at);
                            self.raw_stats.partial_cost_us += partial.as_micros();
                            self.trace.emit(
                                time,
                                "fault",
                                format!("{d} was mid-action, {partial} of work lost"),
                            );
                        }
                    }
                }
                // The optimizer's lock on a dead device is meaningless; release
                // it so other queries are not queued behind a corpse.
                if self.locks.is_locked(d, time) {
                    self.locks.unlock(d);
                    self.trace
                        .emit(time, "failover", format!("{d} lock released after crash"));
                }
                // A crash is definitive evidence: open the breaker now rather
                // than paying the failure-threshold probes to discover it.
                if let Some(bank) = self.breakers.as_mut() {
                    if bank.force_open(d, time, &mut self.rng) {
                        self.trace
                            .emit(time, "breaker", format!("{d} opened on crash"));
                        self.wal_emit(|| WalRecord::Breaker {
                            device: d,
                            state: 1,
                            at: time,
                        });
                    }
                }
            }
            FaultEvent::Recover(d) => {
                if self.registry.set_online(d, true) {
                    self.trace.emit(time, "fault", format!("{d} recovered"));
                }
            }
            FaultEvent::LossBurstStart { extra_loss } => {
                self.loss_stack.push(extra_loss);
                self.rebuild_links();
                self.trace.emit(
                    time,
                    "fault",
                    format!("loss burst begins (+{extra_loss:.2} loss)"),
                );
            }
            FaultEvent::LossBurstEnd => {
                self.loss_stack.pop();
                self.rebuild_links();
                self.trace.emit(time, "fault", "loss burst ends");
            }
            FaultEvent::LatencySpikeStart { factor } => {
                self.latency_stack.push(factor);
                self.rebuild_links();
                self.trace.emit(
                    time,
                    "fault",
                    format!("latency spike begins (x{factor:.1})"),
                );
            }
            FaultEvent::LatencySpikeEnd => {
                self.latency_stack.pop();
                self.rebuild_links();
                self.trace.emit(time, "fault", "latency spike ends");
            }
            FaultEvent::ProcessCrash(_) => {
                // Control-plane crash: this engine process dies at `time`.
                // Deliberately zero observable footprint — no trace line, no
                // counter, no RNG draw — so a crashed-and-recovered run can
                // be byte-identical to an uninterrupted reference run. The
                // WAL is a separate channel; the `CrashApplied` record is
                // what recovery counts to grant replay immunity.
                self.wal_emit(|| WalRecord::CrashApplied { at: time });
                if self.crash_immunity > 0 {
                    self.crash_immunity -= 1;
                } else {
                    self.halted = true;
                }
            }
            FaultEvent::Partition { .. } => {
                // Cluster-scope event: inter-shard blackouts are modelled at
                // the gateway, which extracts the windows before splitting
                // the plan. Zero footprint here (no trace, no RNG draw), so
                // replicated copies never perturb a shard's byte history.
            }
        }
    }

    /// Reapplies the active burst stacks on top of the baseline links.
    fn rebuild_links(&mut self) {
        let extra_loss: f64 = self.loss_stack.iter().sum();
        let factor: f64 = self.latency_stack.iter().product();
        for kind in DeviceKind::ALL {
            let Some(base) = self.baseline_links.get(&kind) else {
                continue;
            };
            let loss = (base.loss_prob() + extra_loss).min(1.0);
            let link = LinkModel::new(base.base_latency().mul_f64(factor), base.jitter(), loss)
                .with_bytes_per_sec(base.bytes_per_sec());
            self.registry.set_link(kind, link);
        }
    }

    /// WAL lifecycle effect for one request transition (no-op without WAL).
    fn wal_stage(&self, query_id: u32, stage: LifecycleStage) {
        let at = self.now;
        self.wal_emit(|| WalRecord::Lifecycle {
            query_id,
            stage,
            at,
        });
    }

    /// Settles a request: the one writer of the terminal counters, the
    /// terminal lifecycle records and the trace line each fate leaves.
    /// Keyed by query, as `wal_stage` is: a request shed at admission does
    /// not exist yet. On a cluster shard (`escalate_exhausted`) a request no
    /// local candidate can serve is parked for the gateway instead.
    fn settle(&mut self, query_id: u32, fate: Fate) {
        use LifecycleStage as Stage;
        let q = query_id;
        let raw = &mut self.raw_stats;
        let (counter, stage, line) = match fate {
            Fate::NoCandidate(request) | Fate::Orphaned(request, _)
                if self.config.escalate_exhausted =>
            {
                self.escalated.push((self.now, request));
                let text = format!("query {q}: local candidates exhausted, escalating to gateway");
                (
                    &mut raw.escalated_out,
                    Stage::Escalated,
                    Some(("gateway", text)),
                )
            }
            Fate::Completed => (&mut raw.executed, Stage::Completed, None),
            Fate::LoRes(d) => {
                let text = format!("query {q}: lo-res photo on {d}");
                (
                    &mut raw.degraded,
                    Stage::Completed,
                    Some(("brownout", text)),
                )
            }
            Fate::Failed(Failure::Connect) => (&mut raw.connect_failures, Stage::Failed, None),
            Fate::Failed(Failure::Busy) => (&mut raw.busy_rejections, Stage::Failed, None),
            Fate::Failed(Failure::OutOfRange) => (&mut raw.out_of_range, Stage::Failed, None),
            Fate::Failed(Failure::ActionError) => (&mut raw.action_errors, Stage::Failed, None),
            Fate::ShedAtAdmission => {
                let text = format!("query {q}: request shed at admission");
                (&mut raw.shed, Stage::Shed, Some(("admission", text)))
            }
            Fate::ShedAtDispatch(d) => {
                let text = format!("query {q}: predicted finish on {d} past the deadline, shed");
                (&mut raw.shed, Stage::Shed, Some(("deadline", text)))
            }
            Fate::TimedOut(d) => {
                let text = format!("query {q}: earliest start on {d} misses the request deadline");
                (
                    &mut raw.timed_out,
                    Stage::TimedOut,
                    Some(("dispatch", text)),
                )
            }
            Fate::Expired(d) => {
                let text = format!("query {q}: deadline passed before execution on {d}, cancelled");
                (&mut raw.expired, Stage::Expired, Some(("deadline", text)))
            }
            Fate::NoCandidate(_) => {
                let text = format!("query {q}: no available candidate");
                (
                    &mut raw.no_candidate,
                    Stage::NoCandidate,
                    Some(("dispatch", text)),
                )
            }
            Fate::Orphaned(_, d) => {
                let text =
                    format!("query {q}: no remaining candidate after {d} crash, request dropped");
                (&mut raw.orphaned, Stage::Orphaned, Some(("failover", text)))
            }
        };
        *counter += 1;
        self.wal_stage(query_id, stage);
        if let Some((subsystem, text)) = line {
            self.trace.emit(self.now, subsystem, text);
        }
    }

    // --- cluster hooks -------------------------------------------------------

    /// Takes every request escalated since the last drain, each with the
    /// instant it escalated at. The caller (the cluster gateway) owns them
    /// from here: each must be re-injected into some shard via
    /// [`Aorta::inject_request`] or counted dropped, so the cluster-wide
    /// conservation invariant keeps holding. The drain is a logged command,
    /// so the gateway only calls it when [`Aorta::escalated_backlog`] is
    /// non-zero — an empty hand-off leaves no record and quiet clock
    /// advances keep coalescing.
    pub fn drain_escalated(&mut self) -> Vec<(SimTime, ActionRequest)> {
        self.wal_emit(|| WalRecord::DrainEscalated);
        std::mem::take(&mut self.escalated)
    }

    /// Requests escalated but not yet drained by the gateway. The gateway
    /// drains each shard at every window barrier, so between calls it
    /// stays non-zero only on a halted engine whose final drain never
    /// happened — the cluster counts that backlog as in-flight while the
    /// shard is rebuilt elsewhere.
    pub fn escalated_backlog(&self) -> u64 {
        self.escalated.len() as u64
    }

    /// Adopts a request escalated from another shard: recomputes its
    /// candidate set against *this* engine's registry (the old shard's
    /// candidates are meaningless here) and enqueues it on the shared action
    /// operator for the next dispatch epoch.
    ///
    /// The request stays counted in the originating shard's `requests`; this
    /// shard counts it only as `escalated_in`, so cluster-wide each request
    /// is counted exactly once.
    pub fn inject_request(&mut self, mut request: ActionRequest) {
        if self.wal.is_some() {
            let wire = crate::recovery::wire_from_request(&request);
            self.wal_emit(|| WalRecord::RequestInjected { request: wire });
        }
        self.raw_stats.escalated_in += 1;
        request.candidates = self.recompute_candidates(&request);
        self.trace.emit(
            self.now,
            "gateway",
            format!(
                "query {}: adopted escalated request ({} candidate(s) here)",
                request.query_id,
                request.candidates.len()
            ),
        );
        self.enqueue(request);
    }

    /// Hands `request` to its action's shared operator.
    fn enqueue(&mut self, request: ActionRequest) {
        match self.operators.get_mut(&request.action) {
            Some(op) => op.push(request),
            None => self
                .operators
                .entry(request.action.clone())
                .or_default()
                .push(request),
        }
    }

    /// The cheapest device on this shard able to serve `request`, with its
    /// estimated cost — the gateway's routing metric. Uses the last-known
    /// (unprobed) status: routing must not spend probe time on shards that
    /// end up not being chosen. Returns `None` when no local candidate
    /// passes the query's device predicates or all candidates are offline.
    pub fn cheapest_local_candidate(
        &mut self,
        request: &ActionRequest,
    ) -> Option<(DeviceId, SimDuration)> {
        // Command-logged even though it mutates no visible state: the
        // candidate rescan draws from the engine RNG, so replay must re-run
        // it to keep the stream aligned.
        if self.wal.is_some() {
            let wire = crate::recovery::wire_from_request(request);
            self.wal_emit(|| WalRecord::RouteProbe { request: wire });
        }
        let def = self.catalog.action(&request.action).cloned()?;
        let candidates = self.recompute_candidates(request);
        let aim = request.aim(&def, &self.registry);
        let pricing = Pricing::new(&def, &self.registry);
        let mut best: Option<(SimDuration, DeviceId)> = None;
        for (d, tuple) in candidates.iter() {
            // Breaker-open devices are not routable: quoting a cost for a
            // device the dispatcher will refuse to probe just wastes a hop.
            if self
                .breakers
                .as_ref()
                .is_some_and(|b| b.state(d) == BreakerState::Open)
            {
                continue;
            }
            let Some(st) = self.unprobed_status(d) else {
                continue;
            };
            let Some((cost, _)) =
                self.estimate_request_cost(&pricing, &aim, request, d, tuple, &st)
            else {
                continue;
            };
            if best.is_none_or(|b| (cost, d) < b) {
                best = Some((cost, d));
            }
        }
        best.map(|(cost, d)| (d, cost))
    }

    /// Re-evaluates the query's device predicates against a fresh scan of
    /// this engine's registry — candidate sets are never cached across
    /// shards, and this rescan never reads the static-join memo, which
    /// serves only the sampling epoch's own scans (see `JoinGroups`).
    fn recompute_candidates(&mut self, request: &ActionRequest) -> CandidateBlock {
        let Some(plan) = self
            .catalog
            .queries()
            .find(|p| p.query_id == request.query_id)
            .cloned()
        else {
            return CandidateBlock::default();
        };
        let Some(device_part) = &plan.device else {
            return CandidateBlock::default();
        };
        let kind = device_part.kind;
        let mut cache = EpochScans::default();
        let scan = ScanOperator::new(kind).run(&mut self.registry, self.now, &mut self.rng);
        cache.scans.insert(kind, Arc::new(scan));
        self.candidates_for(&plan, 0, &request.event_tuple, &cache)
    }

    /// The instant of this engine's next pending work — the earlier of the
    /// next queued engine event and the next undrained fault. The cluster
    /// cuts its lookahead windows from the earliest of these over its
    /// shards.
    pub fn next_event_time(&self) -> Option<SimTime> {
        match (self.queue.peek_time(), self.faults.peek_next_time()) {
            (Some(q), Some(f)) => Some(q.min(f)),
            (q, f) => q.or(f),
        }
    }

    /// Whether `device` is at a migration safe point: no `Execute` event
    /// queued for it, no optimizer lock held on it, and (for cameras) no
    /// action physically in progress. Moving a device between shards outside
    /// these conditions would strand queued work or tear a lock.
    pub fn device_idle(&self, device: DeviceId) -> bool {
        let queued = self
            .queue
            .iter()
            .any(|(_, e)| matches!(e, EngineEvent::Execute { device: d, .. } if *d == device));
        if queued || self.locks.is_locked(device, self.now) {
            return false;
        }
        match self.registry.camera(device) {
            Some(cam) => !cam.is_busy(self.now),
            None => true,
        }
    }

    /// An assigned action whose device went down before it could start.
    /// Release the dead device and re-run device selection over the
    /// remaining candidates; only when none are left is the request dropped
    /// — and then it is *counted* dropped, never silently lost.
    fn handle_orphaned(&mut self, request: ActionRequest, device: DeviceId) {
        self.trace.emit(
            self.now,
            "failover",
            format!(
                "query {}: {device} offline at execution, re-selecting",
                request.query_id
            ),
        );
        if self.config.sync_enabled {
            self.locks.unlock(device);
        }
        if !self.failover_reselect(&request, device) {
            self.settle(request.query_id, Fate::Orphaned(request, device));
        }
    }

    /// Re-runs device selection for a request whose assigned device died.
    /// A device-level failure (connect timeout, busy rejection) is terminal,
    /// but a crash invalidates the assignment itself, so failover is always
    /// attempted while any live candidate remains.
    fn failover_reselect(&mut self, request: &ActionRequest, failed: DeviceId) -> bool {
        let mut retry = request.clone();
        retry.attempts += 1;
        retry
            .candidates
            .retain(|d| d != failed && self.registry.get(d).is_some_and(|e| e.online()));
        if retry.candidates.is_empty() {
            return false;
        }
        self.raw_stats.retries += 1;
        self.wal_stage(retry.query_id, LifecycleStage::Retried);
        self.trace.emit(
            self.now,
            "failover",
            format!(
                "query {}: re-running device selection over {} remaining candidate(s)",
                retry.query_id,
                retry.candidates.len()
            ),
        );
        let action = retry.action.clone();
        self.dispatch_batch(&action, vec![retry]);
        true
    }

    // --- sampling & event detection -----------------------------------------

    fn handle_sample(&mut self) {
        // Schedule the next epoch first so a panic in user handlers cannot
        // stall the clock.
        self.queue
            .push(self.now + SAMPLE_PERIOD, EngineEvent::Sample);

        if self.catalog.query_count() == 0 {
            return;
        }

        // One scan per device kind per epoch, shared by all queries, in
        // the cached order (see `ScanKinds`).
        let kinds = ScanKinds::cached(&mut self.scan_kinds, &self.catalog, self.config.pushdown);
        let mut cache = EpochScans::default();
        for &kind in &kinds.order {
            let scan = ScanOperator::new(kind).run(&mut self.registry, self.now, &mut self.rng);
            cache.scans.insert(kind, Arc::new(scan));
        }
        cache.generation = Some(self.registry.generation());

        self.detect(&cache);
        self.dispatch_pending();
    }

    /// The pushdown byte ledger: what each scanned tuple costs on the wire
    /// given the ship/suppress decision detection's batch phase reached —
    /// the full attribute reply, or the one-byte suppression marker when
    /// every watching query's pushed prefix evaluated cleanly false. A kind
    /// absent from `suppress` ships everything.
    ///
    /// Writes only `push_stats` and obs counters — no RNG draws, no trace
    /// lines, no `raw_stats` — which is what keeps a pushdown run
    /// byte-identical to a baseline run.
    fn account_pushdown(&mut self, cache: &EpochScans, suppress: &BTreeMap<DeviceKind, Vec<bool>>) {
        for (kind, tuples) in &cache.scans {
            let schema = self.registry.schema(*kind);
            let id_idx = schema.index_of("id");
            let suppress = suppress.get(kind);
            let mut shipped = 0u64;
            let mut suppressed = 0u64;
            let mut reply_bytes = 0u64;
            let mut marker_bytes = 0u64;
            let mut baseline_bytes = 0u64;
            for (t, tuple) in tuples.iter().enumerate() {
                // Hop-weighted reply cost: every intermediate mote on the
                // path to the gateway forwards the reply. Non-mote devices
                // (and tuples whose id resolves to nothing) count one hop.
                let hops = id_idx
                    .and_then(|i| tuple.get(i))
                    .and_then(Value::as_i64)
                    .and_then(|raw| u32::try_from(raw).ok())
                    .and_then(|idx| self.registry.get(DeviceId::new(*kind, idx)))
                    .and_then(|e| e.sim.as_mote())
                    .map_or(1, |m| u64::from(m.depth()));
                let reply_cost = ScanOperator::reply_wire_len(schema, tuple) as u64 * hops;
                baseline_bytes += reply_cost;
                if suppress.is_some_and(|s| s[t]) {
                    suppressed += 1;
                    marker_bytes += ScanOperator::suppressed_wire_len() as u64 * hops;
                } else {
                    shipped += 1;
                    reply_bytes += reply_cost;
                }
            }
            self.push_stats.shipped_tuples += shipped;
            self.push_stats.suppressed_tuples += suppressed;
            self.push_stats.reply_bytes += reply_bytes;
            self.push_stats.marker_bytes += marker_bytes;
            self.push_stats.baseline_bytes += baseline_bytes;
            if let Some(m) = &self.obs {
                let labels = &[("kind", kind.table_name())];
                m.incr(push_metrics::SHIPPED, labels, shipped);
                m.incr(push_metrics::SUPPRESSED, labels, suppressed);
                m.incr(push_metrics::WIRE_BYTES, labels, reply_bytes + marker_bytes);
                m.incr(push_metrics::BASELINE_BYTES, labels, baseline_bytes);
            }
        }
    }

    /// Idless-tuple bookkeeping: counter, obs metric, trace line. Rising
    /// edges are tracked per source device, so a tuple without a usable id
    /// cannot participate: folding every id-less tuple onto one shared key
    /// would let the first one flip the edge and mask all the others'
    /// events. They are skipped per (plan, tuple) — counted, never silently.
    fn note_idless(&mut self, plan: &crate::AqPlan) {
        self.raw_stats.idless_skipped += 1;
        if let Some(m) = &self.obs {
            let query = plan.query_id.to_string();
            m.incr("aorta_idless_skipped", &[("query", query.as_str())], 1);
        }
        self.trace.emit(
            self.now,
            "event",
            format!(
                "query {}: {} tuple without id skipped",
                plan.query_id, plan.event_kind
            ),
        );
    }

    /// Eval-error bookkeeping: counter and obs metric, then returns whether
    /// this is the first error for `(query, conjunct)` — the caller owns
    /// the trace line because only it has the error text. An eval error is
    /// not "false": it usually means the predicate can *never* be decided
    /// (e.g. a type-mismatched comparison), and folding it into false hides
    /// the broken query forever. The conjunct is treated as unmatched, every
    /// error is counted, and only the first per (query, conjunct) is traced
    /// so the trace is not flooded once per tuple per epoch.
    fn record_eval_error(&mut self, plan: &crate::AqPlan, idx: usize) -> bool {
        self.raw_stats.eval_errors += 1;
        if let Some(m) = &self.obs {
            let query = plan.query_id.to_string();
            let conjunct = idx.to_string();
            m.incr(
                "aorta_eval_errors",
                &[("conjunct", conjunct.as_str()), ("query", query.as_str())],
                1,
            );
        }
        self.eval_error_reported.insert((plan.query_id, idx))
    }

    /// Shared rising-edge firing path: event counters and trace, candidate
    /// filtering, admission verdicts, and one `ActionRequest` per action
    /// call — everything downstream of "this tuple is a rising edge".
    fn fire_event(&mut self, plan: &crate::AqPlan, t: usize, tuple: &Tuple, cache: &EpochScans) {
        let id_idx = self
            .registry
            .schema(plan.event_kind)
            .index_of("id")
            .expect("catalogs define id");
        let source = tuple
            .get(id_idx)
            .and_then(Value::as_i64)
            .expect("fire_event only sees tuples with an id");
        self.raw_stats.events_detected += 1;
        self.wal_emit(|| WalRecord::EdgeCommit {
            query_id: plan.query_id,
            source,
        });
        if let Some(m) = &self.obs {
            let query = plan.query_id.to_string();
            m.incr("aorta_events", &[("query", query.as_str())], 1);
        }
        self.trace.emit(
            self.now,
            "event",
            format!(
                "query {} fired on {} {}",
                plan.query_id, plan.event_kind, source
            ),
        );

        // Candidate filtering per event.
        let candidates = self.candidates_for(plan, t, tuple, cache);
        // The deadline derives from the AQ's trigger cadence: a periodic
        // detection is stale once the next period's event supersedes it.
        let deadline = match self.config.deadline {
            Some(budget) => self.now + budget,
            None => SimTime::MAX,
        };
        for call in &plan.actions {
            self.raw_stats.requests += 1;
            let verdict = self.admission_verdict(plan.query_id);
            if let Some(m) = &self.obs {
                let decision = match verdict {
                    AdmissionVerdict::Admit => "admit",
                    AdmissionVerdict::Degrade => "degrade",
                    AdmissionVerdict::Shed => "shed",
                };
                m.incr("aorta_admission_decisions", &[("decision", decision)], 1);
                if let Some(bucket) = &self.admission_bucket {
                    // Pure read: the gauge never refills or drains the
                    // bucket, so observing it cannot perturb admission.
                    m.gauge_set(
                        "aorta_admission_tokens_e6",
                        &[],
                        bucket.tokens_e6(self.now) as i64,
                    );
                }
            }
            let degraded = match verdict {
                AdmissionVerdict::Shed => {
                    self.settle(plan.query_id, Fate::ShedAtAdmission);
                    continue;
                }
                AdmissionVerdict::Degrade => {
                    self.wal_stage(plan.query_id, LifecycleStage::Degraded);
                    self.trace.emit(
                        self.now,
                        "admission",
                        format!("query {}: admitted degraded (brownout)", plan.query_id),
                    );
                    true
                }
                AdmissionVerdict::Admit => {
                    self.wal_stage(plan.query_id, LifecycleStage::Admitted);
                    false
                }
            };
            let request = ActionRequest {
                query_id: plan.query_id,
                action: call.action.clone(),
                event_tuple: tuple.clone().tagged(plan.query_id),
                event_binding: plan.event_binding.clone(),
                event_kind: plan.event_kind,
                device_binding: plan.device.as_ref().map(|d| (d.binding.clone(), d.kind)),
                args: call.args.clone(),
                candidates: candidates.clone(),
                created_at: self.now,
                deadline,
                degraded,
                attempts: 0,
                hops: 0,
            };
            self.enqueue(request);
        }
    }

    /// Event detection: one batch phase over the shared
    /// [`crate::PredicateIndex`], a per-plan replay of side effects for the
    /// few *affected* plans, and a commit of the shared edge state. With
    /// pushdown on, the batch phase also decides which samples of the
    /// suppressible kinds their devices would have kept off the wire, and
    /// the byte ledger is charged from that.
    ///
    /// The replay is observably a per-plan, tuple-at-a-time walk — same
    /// counters, same trace lines in the same order, same requests —
    /// because affected plans are visited in catalog name order and each
    /// replay walks the batch tuple by tuple.
    fn detect(&mut self, cache: &EpochScans) {
        #[cfg(test)]
        if detect_diff::reference_detect(self, cache) {
            return;
        }
        let outcomes = {
            let ctx = EvalContext {
                registry: &self.registry,
            };
            let kinds =
                ScanKinds::cached(&mut self.scan_kinds, &self.catalog, self.config.pushdown);
            self.pindex
                .plan_epoch(&cache.scans, &ctx, &kinds.suppressible)
        };
        if self.config.pushdown {
            self.account_pushdown(cache, &outcomes.suppress);
        }
        if let Some(m) = &self.obs {
            m.incr(detect_metrics::INDEXED_EVALS, &[], outcomes.tally.indexed);
            m.incr(detect_metrics::FALLBACK_EVALS, &[], outcomes.tally.fallback);
            m.incr(detect_metrics::CONJUNCT_EVALS, &[], outcomes.tally.total);
            for (kind, tuples) in &cache.scans {
                m.incr(
                    detect_metrics::BATCH_TUPLES,
                    &[("kind", kind.table_name())],
                    tuples.len() as u64,
                );
            }
            m.gauge_set(
                detect_metrics::INDEX_CMPS,
                &[],
                self.pindex.cmp_count() as i64,
            );
            m.gauge_set(
                detect_metrics::INDEX_GROUPS,
                &[],
                self.pindex.group_count() as i64,
            );
        }
        for (name, qid) in &outcomes.affected {
            // The plan clone is per *affected* plan, not per registered plan:
            // in the steady state (no edges, no errors) an epoch clones
            // nothing at all, which is what keeps detection sub-linear in the
            // number of registered AQs.
            let Some(plan) = self.catalog.query(name).cloned() else {
                continue;
            };
            let epoch = &outcomes.groups[outcomes.by_query[qid]];
            let sources = &outcomes.sources[&plan.event_kind];
            let pending = outcomes.pending.get(qid);
            self.replay_plan(&plan, epoch, sources, pending, cache);
        }
        self.pindex.commit_epoch(outcomes.commit);
    }

    /// Phase B: replays the per-tuple side effects of one affected plan
    /// from the batch outcomes computed in phase A.
    fn replay_plan(
        &mut self,
        plan: &crate::AqPlan,
        epoch: &GroupEpoch,
        sources: &[Option<Source>],
        pending: Option<&BTreeSet<i64>>,
        cache: &EpochScans,
    ) {
        let tuples = cache.scans.get(&plan.event_kind).expect("scanned above");
        // This member's view of the per-source edge within the batch: a
        // source seen earlier in the same batch overrides the pre-epoch state.
        let mut local: BTreeMap<i64, bool> = BTreeMap::new();
        for (t, tuple) in tuples.iter().enumerate() {
            let matched = match epoch.stops[t] {
                TupleOutcome::Idless => {
                    self.note_idless(plan);
                    continue;
                }
                TupleOutcome::Stop { idx, error } => {
                    if error && self.record_eval_error(plan, idx) {
                        // First error for this (query, conjunct). A windowed
                        // slot's message came out of phase A; any other
                        // conjunct is pure over the tuple, so re-evaluating
                        // it recovers the message deterministically.
                        let message = epoch.window_errors.get(&idx).cloned().or_else(|| {
                            let schema = self.registry.schema(plan.event_kind);
                            let ctx = EvalContext {
                                registry: &self.registry,
                            };
                            let env = Env::new().bind(&plan.event_binding, schema, tuple);
                            eval_predicate(&plan.event_conjuncts[idx], &env, &ctx)
                                .err()
                                .map(|e| e.to_string())
                        });
                        if let Some(e) = message {
                            self.trace.emit(
                                self.now,
                                "eval_error",
                                format!(
                                    "query {} conjunct {idx} failed to evaluate: {e}",
                                    plan.query_id
                                ),
                            );
                        }
                    }
                    false
                }
                TupleOutcome::Matched => true,
            };
            let source = sources[t].expect("non-idless outcomes have a source");
            let was = match local.get(&source.id) {
                Some(&w) => w,
                // A source this member has never observed (it joined the
                // group after the shared edge was recorded) reads as false.
                None if pending.is_some_and(|p| p.contains(&source.id)) => false,
                None => self.pindex.committed_high(epoch.group, source.slot),
            };
            local.insert(source.id, matched);
            if !matched || was {
                continue; // not a rising edge
            }
            self.fire_event(plan, t, tuple, cache);
        }
    }

    /// Runs one detection pass over an externally supplied scan batch, then
    /// dispatches whatever it produced. A kind absent from the batch is
    /// simply not scanned this epoch: groups over it keep their edge and
    /// window state untouched. Hook for the differential harness and the
    /// perf probes; not part of the public API surface.
    #[doc(hidden)]
    pub fn detect_on_batch(&mut self, kind: DeviceKind, tuples: Vec<Tuple>) {
        let mut cache = EpochScans::default();
        cache.scans.insert(kind, Arc::new(tuples));
        self.detect(&cache);
        self.dispatch_pending();
    }

    /// The candidate block of one fired event. The device part's join over
    /// the epoch's device scan runs once per (join group, event tuple) and
    /// every query joining the same way shares the block; what the join
    /// found wrong — erroring conjuncts, unusable ids — is counted, deduped
    /// and traced per query, so it is replayed here for each of them.
    fn candidates_for(
        &mut self,
        plan: &crate::AqPlan,
        t: usize,
        event_tuple: &Tuple,
        cache: &EpochScans,
    ) -> CandidateBlock {
        let Some(device_part) = &plan.device else {
            return CandidateBlock::default();
        };
        #[cfg(test)]
        if crate::shared::PER_PLAN_REFERENCE.get() {
            return CandidateBlock::from_vec(fire_tests::candidates_for_reference(
                self,
                plan,
                event_tuple,
                cache,
            ));
        }
        let outcome = self
            .joins
            .outcome(plan, device_part, t, event_tuple, cache, &self.registry);
        for (idx, msg) in &outcome.errors {
            // Dedup in the same (query, conjunct) space as event-conjunct
            // errors, offset past the event conjuncts so a device conjunct
            // can never collide with an event conjunct's key.
            if self.record_eval_error(plan, plan.event_conjuncts.len() + idx) {
                self.trace.emit(
                    self.now,
                    "eval_error",
                    format!(
                        "query {} device conjunct {idx} failed to evaluate: {msg}",
                        plan.query_id
                    ),
                );
            }
        }
        for raw in &outcome.bad_ids {
            self.note_bad_device_id(plan, device_part.kind, *raw);
        }
        match cache.scans.get(&device_part.kind) {
            Some(scan) => outcome.block(scan),
            None => CandidateBlock::default(),
        }
    }

    /// Bookkeeping for a joined device tuple whose `id` cannot name a
    /// device (missing, non-integer, negative, or past `u32::MAX`):
    /// counter, obs metric, and one trace line per query.
    fn note_bad_device_id(&mut self, plan: &crate::AqPlan, kind: DeviceKind, raw: Option<i64>) {
        self.raw_stats.bad_device_ids += 1;
        if let Some(m) = &self.obs {
            let query = plan.query_id.to_string();
            m.incr("aorta_bad_device_ids", &[("query", query.as_str())], 1);
        }
        if self.bad_id_reported.insert(plan.query_id) {
            let shown = match raw {
                Some(v) => v.to_string(),
                None => "<none>".to_string(),
            };
            self.trace.emit(
                self.now,
                "event",
                format!(
                    "query {}: {kind} candidate with unusable id {shown} skipped",
                    plan.query_id
                ),
            );
        }
    }

    // --- dispatch ------------------------------------------------------------

    fn dispatch_pending(&mut self) {
        let action_names: Vec<String> = self.operators.keys().cloned().collect();
        for name in action_names {
            let batch = self
                .operators
                .get_mut(&name)
                .map(|op| op.drain())
                .unwrap_or_default();
            if batch.is_empty() {
                continue;
            }
            self.dispatch_batch(&name, batch);
        }
    }

    fn dispatch_batch(&mut self, action: &str, batch: Vec<ActionRequest>) {
        let Some(def) = self.catalog.action(action).cloned() else {
            for request in batch {
                self.settle(request.query_id, Fate::Failed(Failure::ActionError));
            }
            return;
        };

        // The batch's distinct candidate blocks, in first-seen order, and
        // which one each request holds. Requests fired by one event share
        // theirs, so everything below that depends only on the block — the
        // device list, the LERFA key — is derived per block, not per
        // (request, candidate) pair. The address map is only ever looked
        // up, never iterated, so it cannot leak into the order of anything.
        let mut blocks: Vec<CandidateBlock> = Vec::new();
        let mut seen = HashMap::new();
        let mut batch: Vec<(ActionRequest, usize)> = batch
            .into_iter()
            .map(|r| {
                let b = *seen.entry(r.candidates.identity()).or_insert_with(|| {
                    blocks.push(r.candidates.clone());
                    blocks.len() - 1
                });
                (r, b)
            })
            .collect();

        // Probe every distinct candidate once per batch (§4). `status` and
        // `predicted` are indexed by position in `devices`.
        let mut devices: Vec<DeviceId> = blocks
            .iter()
            .flat_map(|b| b.iter().map(|(d, _)| d))
            .collect();
        devices.sort_unstable();
        devices.dedup();
        let mut status: Vec<Option<PhysicalStatus>> = vec![None; devices.len()];
        for (i, &d) in devices.iter().enumerate() {
            // An open breaker excludes the device before any probe is spent
            // on it; a half-open one admits exactly one probation attempt.
            if let Some(bank) = self.breakers.as_mut() {
                match bank.decide(d, self.now) {
                    BreakerDecision::Reject => {
                        self.trace.emit(
                            self.now,
                            "breaker",
                            format!("{d} open, excluded without probing"),
                        );
                        continue;
                    }
                    BreakerDecision::Probation => {
                        self.trace.emit(
                            self.now,
                            "breaker",
                            format!("{d} half-open, probation probe"),
                        );
                    }
                    BreakerDecision::Admit => {}
                }
            }
            let probed = match self
                .prober
                .probe(&mut self.registry, d, self.now, &mut self.rng)
            {
                aorta_net::ProbeOutcome::Available { status, .. } => Some(status),
                _ => None,
            };
            self.breaker_note(d, probed.is_some());
            if probed.is_none() {
                self.trace.emit(
                    self.now,
                    "probe",
                    format!("{d} unavailable, excluded from device selection"),
                );
            }
            status[i] = probed;
        }
        let positions: Vec<Vec<usize>> = blocks
            .iter()
            .map(|b| {
                b.iter()
                    .map(|(d, _)| {
                        devices
                            .binary_search(&d)
                            .expect("collected from the blocks")
                    })
                    .collect()
            })
            .collect();

        // LERFA ordering: least eligible (fewest available candidates) first.
        if self.config.dispatch == DispatchPolicy::Scheduled && batch.len() > 1 {
            let eligible: Vec<usize> = positions
                .iter()
                .map(|p| p.iter().filter(|&&i| status[i].is_some()).count())
                .collect();
            batch.sort_by_key(|(_, b)| eligible[*b]);
        }

        // Pricing classes: requests of one block that aim alike at one
        // quality cost every candidate alike, so each class prices its
        // block into one row of quotes (`lerfa_choice`). The key map is
        // only ever looked up, never iterated.
        let pricing = Pricing::new(&def, &self.registry);
        let mut keys: HashMap<(usize, AimKey, bool), usize> = HashMap::new();
        let mut classes: Vec<PricingClass> = Vec::new();
        let batch: Vec<(ActionRequest, usize)> = batch
            .into_iter()
            .enumerate()
            .map(|(n, (request, block))| {
                let aim = request.aim(&def, &self.registry);
                let key = (block, aim.key(n), request.degraded);
                let c = *keys.entry(key).or_insert_with(|| {
                    classes.push(PricingClass {
                        block,
                        aim,
                        requests: 0,
                        row: Vec::new(),
                    });
                    classes.len() - 1
                });
                classes[c].requests += 1;
                (request, c)
            })
            .collect();

        // Per-device predicted state over the batch.
        let mut predicted = Predicted {
            status: status.clone(),
            version: vec![0; devices.len()],
            free_at: devices
                .iter()
                .map(|&d| match self.config.sync_enabled {
                    true => self.locks.locked_until(d, self.now).unwrap_or(self.now),
                    false => self.now,
                })
                .collect(),
        };

        // Phase 1: assignment (LERFA's min workload-plus-cost rule). Lanes
        // are keyed by device position, which orders them like device ids.
        let batch_size = batch.len();
        let mut lanes: BTreeMap<usize, Vec<(ActionRequest, SimDuration, Option<PtzPosition>)>> =
            BTreeMap::new();
        for (request, c) in batch {
            let class = &mut classes[c];
            let b = class.block;
            let best = self.lerfa_choice(
                &pricing,
                &request,
                class,
                &blocks[b],
                &positions[b],
                &predicted,
            );
            class.requests -= 1;
            if class.requests == 0 {
                class.row = Vec::new();
            }
            let Some((finish, cost, i, head)) = best else {
                self.settle(request.query_id, Fate::NoCandidate(request));
                continue;
            };
            let d = devices[i];
            let start = predicted.free_at[i];
            if start > request.created_at + REQUEST_TIMEOUT {
                self.settle(request.query_id, Fate::TimedOut(d));
                continue;
            }
            // Deadline-aware rejection: assigning work whose *predicted*
            // completion already overruns its deadline only burns device time
            // on a result that will be cancelled — shed it up front.
            if finish > request.deadline {
                self.settle(request.query_id, Fate::ShedAtDispatch(d));
                continue;
            }
            self.wal_stage(request.query_id, LifecycleStage::Dispatched);
            self.trace.emit(
                self.now,
                "dispatch",
                format!(
                    "query {} assigned to {d} (estimate {cost})",
                    request.query_id
                ),
            );
            // Without synchronization the optimizer does not know device
            // workload, so it never queues — every request fires at once
            // and interference ensues (§6.2).
            if self.config.sync_enabled {
                predicted.free_at[i] = finish;
            }
            if let Some(head) = head {
                predicted.aim(i, head);
            }
            lanes.entry(i).or_default().push((request, cost, head));
        }

        if let Some(m) = &self.obs {
            m.span(
                SpanKind::Schedule,
                self.now,
                SimDuration::ZERO,
                &format!("action={action} batch={batch_size} lanes={}", lanes.len()),
            );
        }

        // Phase 2: per-device SRFE ordering + scheduling of Execute events.
        for (i, mut lane) in lanes {
            let d = devices[i];
            let base = if self.config.sync_enabled {
                self.locks.locked_until(d, self.now).unwrap_or(self.now)
            } else {
                self.now
            };
            // The gap between "now" and the device's lock horizon is time
            // this lane spends queued behind the lock holder.
            let lock_wait = base.saturating_duration_since(self.now);
            if !lock_wait.is_zero() {
                if let Some(m) = &self.obs {
                    let device = d.to_string();
                    m.observe("aorta_lock_wait", &[("device", device.as_str())], lock_wait);
                    m.span(
                        SpanKind::LockWait,
                        self.now,
                        lock_wait,
                        &format!("device={d} wait={lock_wait}"),
                    );
                }
            }
            // SRFE: greedy nearest-first chain from the device's probed
            // status (re-estimating after each predicted status change).
            // The MinCost policy ablates this: each device services its
            // queue in assignment order, at the assignment's estimates.
            let ordered: Vec<(ActionRequest, SimDuration)> =
                if self.config.dispatch == DispatchPolicy::MinCost {
                    lane.into_iter().map(|(req, est, _)| (req, est)).collect()
                } else {
                    let mut ordered = Vec::with_capacity(lane.len());
                    let mut st = status[i].expect("only probed-available devices are assigned");
                    while !lane.is_empty() {
                        let mut best = (0usize, SimDuration::MAX);
                        for (n, (req, est, head)) in lane.iter().enumerate() {
                            let c = self
                                .action_cost(&pricing, req.degraded, &st, *head)
                                .unwrap_or(*est);
                            if c < best.1 {
                                best = (n, c);
                            }
                        }
                        let (req, _, head) = lane.swap_remove(best.0);
                        if let Some(head) = head {
                            st = PhysicalStatus::CameraHead(head);
                        }
                        ordered.push((req, best.1));
                    }
                    ordered
                };

            // Cost estimates are rounded to whole microseconds, so queued
            // starts carry a small guard to keep the next command strictly
            // after the previous one completes on the device.
            const SCHEDULE_GUARD: SimDuration = SimDuration::from_millis(5);
            let mut t = base;
            let mut holder = None;
            for (req, cost) in ordered {
                holder.get_or_insert(req.query_id);
                let start = if self.config.sync_enabled {
                    t.max(self.now)
                } else {
                    self.now
                };
                self.queue.push(
                    start,
                    EngineEvent::Execute {
                        device: d,
                        request: req,
                    },
                );
                t = start + cost + SCHEDULE_GUARD;
            }
            if self.config.sync_enabled {
                // Audited fold: `holder` is set by the first queued
                // request, so `None` only survives an empty lane — and
                // an empty lane locks a zero-length window under a
                // query id that owns nothing. Harmless, not hidden.
                let q = holder.unwrap_or(0);
                if !self.locks.try_lock(d, q, self.now, t) {
                    self.locks.extend(d, self.now, t);
                }
            }
        }
    }

    /// Status without probing: the engine's last-known view.
    fn unprobed_status(&mut self, d: DeviceId) -> Option<PhysicalStatus> {
        let entry = self.registry.get(d)?;
        if !entry.online() {
            return None;
        }
        Some(match &entry.sim {
            aorta_net::DeviceSim::Camera(c) => PhysicalStatus::CameraHead(c.rest_position()),
            aorta_net::DeviceSim::Mote(m) => PhysicalStatus::SensorLink {
                depth: m.depth(),
                battery_volts: m.battery_volts(),
            },
            aorta_net::DeviceSim::Phone(_) => PhysicalStatus::PhoneCoverage { in_coverage: true },
            aorta_net::DeviceSim::Rfid(_) => PhysicalStatus::RfidField { tags_in_range: 0 },
        })
    }

    /// LERFA's choice for one request: the candidate with the least
    /// predicted finish (workload plus cost), the first listed on a tie, as
    /// (finish, cost, device position, head). Quotes come from the row of
    /// the request's pricing class: a slot is priced when the class first
    /// reaches it, and repriced only once its device's predicted status has
    /// moved on (`Predicted::version`).
    fn lerfa_choice(
        &self,
        pricing: &Pricing,
        request: &ActionRequest,
        class: &mut PricingClass,
        block: &CandidateBlock,
        positions: &[usize],
        predicted: &Predicted,
    ) -> Option<(SimTime, SimDuration, usize, Option<PtzPosition>)> {
        #[cfg(test)]
        if crate::shared::PER_PLAN_REFERENCE.get() {
            return fire_tests::lerfa_choice_reference(
                self, pricing, request, &class.aim, block, positions, predicted,
            );
        }
        if class.row.is_empty() {
            class.row = vec![Quote::default(); block.len()];
        } else {
            #[cfg(test)]
            fire_tests::ROWS_REUSED.set(fire_tests::ROWS_REUSED.get() + 1);
        }
        let mut best: Option<(SimTime, SimDuration, usize, DeviceId, &Tuple)> = None;
        for (((slot, (d, tuple)), &i), quote) in
            block.iter().enumerate().zip(positions).zip(&mut class.row)
        {
            let Some(st) = &predicted.status[i] else {
                continue;
            };
            if quote.version != Some(predicted.version[i]) {
                #[cfg(test)]
                if quote.version.is_some() {
                    fire_tests::SLOTS_REPRICED.set(fire_tests::SLOTS_REPRICED.get() + 1);
                }
                quote.version = Some(predicted.version[i]);
                quote.cost = self
                    .estimate_request_cost(pricing, &class.aim, request, d, tuple, st)
                    .map(|(cost, _)| cost);
            }
            let Some(cost) = quote.cost else {
                continue;
            };
            let finish = predicted.free_at[i] + cost;
            if best.is_none_or(|(bf, ..)| finish < bf) {
                best = Some((finish, cost, slot, d, tuple));
            }
        }
        // No head depends on the predicted status, so the row keeps costs
        // only and the winner's head is worked out once more.
        let (finish, cost, slot, d, tuple) = best?;
        let head = self
            .head_target(&class.aim, request, d, tuple)
            .expect("a costed candidate has a target");
        Some((finish, cost, positions[slot], head))
    }

    /// Cost estimate for one request on one candidate (profile-driven,
    /// §2.3), with the head position the action would leave the device at
    /// (`None` for actions that move no camera head).
    fn estimate_request_cost(
        &self,
        pricing: &Pricing,
        aim: &Aim,
        request: &ActionRequest,
        device: DeviceId,
        tuple: &Tuple,
        status: &PhysicalStatus,
    ) -> Option<(SimDuration, Option<PtzPosition>)> {
        let head = self.head_target(aim, request, device, tuple)?;
        let cost = self.action_cost(pricing, request.degraded, status, head)?;
        Some((cost, head))
    }

    /// Where the action would leave `device`'s camera head: `Some(None)`
    /// for an action that moves no head, `None` when no target can be
    /// worked out for this candidate.
    fn head_target(
        &self,
        aim: &Aim,
        request: &ActionRequest,
        device: DeviceId,
        tuple: &Tuple,
    ) -> Option<Option<PtzPosition>> {
        Some(match aim {
            Aim::NoHead => None,
            Aim::At(loc) => Some(self.aim_camera(device, loc.as_ref()?)?),
            Aim::PerCandidate => Some(self.photo_target(request, device, Some(tuple))?),
        })
    }

    /// The cost of the action from `status`, aiming at `head` when it is a
    /// camera action.
    fn action_cost(
        &self,
        pricing: &Pricing,
        degraded: bool,
        status: &PhysicalStatus,
        head: Option<PtzPosition>,
    ) -> Option<SimDuration> {
        let mut ctx = CostContext::from_status(status);
        if let Some(head) = head {
            ctx = ctx.with_target(head);
            // A probe may be absent for unprobed dispatch; default home.
            if ctx.from.is_none() {
                ctx.from = Some(PtzPosition::HOME);
            }
        }
        #[cfg(test)]
        if crate::shared::PER_PLAN_REFERENCE.get() {
            return fire_tests::action_cost_reference(self, &pricing.def, degraded, &ctx);
        }
        pricing.profile(degraded).evaluate(&ctx).ok()
    }

    /// The head position a photo request aims `device` at: the first
    /// Location-typed argument, projected through the camera's mount.
    fn photo_target(
        &self,
        request: &ActionRequest,
        device: DeviceId,
        device_tuple: Option<&Tuple>,
    ) -> Option<PtzPosition> {
        let loc = self
            .arg_values(request, device_tuple)?
            .into_iter()
            .find_map(|v| v.as_location().copied())?;
        self.aim_camera(device, &loc)
    }

    fn aim_camera(&self, device: DeviceId, loc: &Location) -> Option<PtzPosition> {
        let cam = self.registry.camera(device)?;
        Some(cam.spec().clamp(cam.aim_at(loc)))
    }

    /// Evaluates the request's argument expressions against the event tuple
    /// and (when it has one) the selected device's candidate tuple.
    fn arg_values(
        &self,
        request: &ActionRequest,
        device_tuple: Option<&Tuple>,
    ) -> Option<Vec<Value>> {
        let ctx = EvalContext {
            registry: &self.registry,
        };
        let mut env = Env::new().bind(
            &request.event_binding,
            self.registry.schema(request.event_kind),
            &request.event_tuple,
        );
        if let (Some((binding, kind)), Some(tuple)) = (&request.device_binding, device_tuple) {
            env = env.bind(binding, self.registry.schema(*kind), tuple);
        }
        let mut out = Vec::with_capacity(request.args.len());
        for a in &request.args {
            out.push(eval_expr(a, &env, &ctx).ok()?);
        }
        Some(out)
    }

    // --- execution -----------------------------------------------------------

    fn record_latency(&mut self, request: &ActionRequest, completed_at: SimTime) {
        let latency = completed_at.saturating_duration_since(request.created_at);
        self.raw_stats.latency_total_us += latency.as_micros();
        self.raw_stats.latency_count += 1;
        self.latency_samples.record(latency);
        if let Some(m) = &self.obs {
            m.observe(
                "aorta_action_latency",
                &[("action", request.action.as_str())],
                latency,
            );
            m.span(
                SpanKind::Execute,
                completed_at,
                latency,
                &format!("query={} action={}", request.query_id, request.action),
            );
        }
        // A success that lands after its deadline is still a success for
        // conservation, but a witness that enforcement let one slip: photo
        // durations are predicted exactly, so this stays zero for them.
        if completed_at > request.deadline {
            self.raw_stats.late_successes += 1;
        }
    }

    /// Admission control for one would-be request, evaluated at event
    /// detection (before any operator/scheduler state is touched).
    ///
    /// Two gates compose: the token bucket paces raw arrival rate, and the
    /// predicted backlog makespan — pending work times the observed mean
    /// action latency — drives brownout. Past `brownout_multiple`×SLO new
    /// requests degrade to lo-res; past `shed_multiple`×SLO they are shed
    /// outright unless their query is protected (then they degrade instead).
    fn admission_verdict(&mut self, query_id: u32) -> AdmissionVerdict {
        let Some(cfg) = &self.config.admission else {
            return AdmissionVerdict::Admit;
        };
        let slo_us = cfg.slo.as_micros() as f64;
        let brownout_at = slo_us * cfg.brownout_multiple;
        let shed_at = slo_us * cfg.shed_multiple;
        let protected = query_id < cfg.protected_queries;
        let backlog = self.pending_requests();
        let mean_us = self
            .raw_stats
            .latency_total_us
            .checked_div(self.raw_stats.latency_count)
            // Until a completion has been observed, assume a nominal second
            // per action so cold-start backlog still registers as pressure.
            .unwrap_or(1_000_000);
        let makespan_us = backlog.saturating_mul(mean_us) as f64;
        let band = if makespan_us > shed_at {
            if protected {
                AdmissionVerdict::Degrade
            } else {
                AdmissionVerdict::Shed
            }
        } else if makespan_us > brownout_at {
            AdmissionVerdict::Degrade
        } else {
            AdmissionVerdict::Admit
        };
        if matches!(band, AdmissionVerdict::Shed) {
            return band;
        }
        // Rate gate last, so a request shed on backlog never burns a token.
        if let Some(bucket) = self.admission_bucket.as_mut() {
            if !bucket.try_take(self.now) {
                return AdmissionVerdict::Shed;
            }
        }
        band
    }

    /// Cancels a request whose deadline has passed: counts it expired and —
    /// the overload analogue of the crash cleanup path — releases the
    /// device's lock if this request holds it and no later work is queued
    /// behind it, so an expiry never strands a healthy device locked.
    fn expire_request(&mut self, request: &ActionRequest, device: DeviceId) {
        self.settle(request.query_id, Fate::Expired(device));
        if self.config.sync_enabled && self.locks.holder(device, self.now) == Some(request.query_id)
        {
            let others_queued = self
                .queue
                .iter()
                .any(|(_, e)| matches!(e, EngineEvent::Execute { device: d, .. } if *d == device));
            if !others_queued {
                self.locks.unlock(device);
                self.trace.emit(
                    self.now,
                    "deadline",
                    format!("{device} lock released after expiry"),
                );
            }
        }
    }

    /// Feeds one device-level outcome to the breaker bank (when enabled),
    /// tracing the state transitions it causes.
    fn breaker_note(&mut self, device: DeviceId, ok: bool) {
        let Some(bank) = self.breakers.as_mut() else {
            return;
        };
        if ok {
            if bank.record_success(device) {
                self.trace.emit(
                    self.now,
                    "breaker",
                    format!(
                        "{device} closed after probation success (health {:.2})",
                        bank.health(device)
                    ),
                );
                let at = self.now;
                self.wal_emit(|| WalRecord::Breaker {
                    device,
                    state: 0,
                    at,
                });
            }
        } else if bank.record_failure(device, self.now, &mut self.rng) {
            self.trace.emit(
                self.now,
                "breaker",
                format!(
                    "{device} opened after repeated failures (health {:.2})",
                    bank.health(device)
                ),
            );
            let at = self.now;
            self.wal_emit(|| WalRecord::Breaker {
                device,
                state: 1,
                at,
            });
        }
    }

    fn execute_request(&mut self, request: &ActionRequest, device: DeviceId) {
        let Some(def) = self.catalog.action(&request.action).cloned() else {
            return self.settle(request.query_id, Fate::Failed(Failure::ActionError));
        };
        self.wal_stage(request.query_id, LifecycleStage::Executing);
        let device_tuple = request.candidate_tuple(device);
        let args = self.arg_values(request, device_tuple).unwrap_or_default();
        let now = self.now;
        let outcome = match &def.handler {
            ActionHandler::Photo => match self.execute_photo(request, device) {
                Some(outcome) => outcome,
                None => return,
            },
            ActionHandler::SendPhoto => {
                let body = args
                    .iter()
                    .rev()
                    .find_map(|v| v.as_str().map(str::to_string))
                    .unwrap_or_else(|| "photo.jpg".to_string());
                let delivered = self
                    .registry
                    .get_mut(device)
                    .and_then(|e| e.sim.as_phone_mut())
                    .and_then(|p| {
                        p.deliver(now, aorta_device::MessageKind::Mms, body, &mut self.rng)
                    });
                if delivered.is_some() {
                    self.raw_stats.messages_delivered += 1;
                }
                delivered.ok_or(Failure::Connect)
            }
            ActionHandler::Beep => {
                // Audited fold: `None` means the device de-registered or
                // is not a mote — either way the beep was not delivered,
                // and `false` routes into the failure path below rather
                // than vanishing.
                let ok = self
                    .registry
                    .get_mut(device)
                    .and_then(|e| e.sim.as_mote_mut())
                    .map(|m| m.beep(now, &mut self.rng))
                    .unwrap_or(false);
                if ok {
                    self.raw_stats.beeps_delivered += 1;
                    Ok(now)
                } else {
                    Err(Failure::Connect)
                }
            }
            ActionHandler::Custom(handler) => {
                let handler = handler.clone();
                handler(&mut self.registry, device, &args, now, &mut self.rng)
                    .map_err(|_| Failure::ActionError)
            }
        };
        // One tail settles every handler's outcome, in the order each sink
        // saw before: a failure's breaker record precedes `Failed`, and
        // `Completed` precedes the success's breaker record.
        let done = match outcome {
            Ok(done) => done,
            Err(failure) => {
                // Out of range is the request's fault, not the device's;
                // only the transient errors count against its breaker.
                if !matches!(failure, Failure::OutOfRange) {
                    self.breaker_note(device, false);
                }
                return self.settle(request.query_id, Fate::Failed(failure));
            }
        };
        // Brownout only changes how a photo is taken.
        if request.degraded && matches!(def.handler, ActionHandler::Photo) {
            self.settle(request.query_id, Fate::LoRes(device));
        } else {
            self.settle(request.query_id, Fate::Completed);
        }
        self.record_latency(request, done);
        self.breaker_note(device, true);
        // A beep is done at once: extending a lock to `now` holds nothing.
        if self.config.sync_enabled {
            self.locks.extend(device, now, done);
        }
    }

    /// Commands a photo: when the camera took it, the instant it is done.
    /// `None` when the request is not the camera's to settle yet (requeued
    /// behind a busy camera) or is settled already (expired on the exact
    /// pre-check, or never commanded because it has no target or camera).
    fn execute_photo(
        &mut self,
        request: &ActionRequest,
        device: DeviceId,
    ) -> Option<Result<SimTime, Failure>> {
        let Some(target) = self.photo_target(request, device, request.candidate_tuple(device))
        else {
            self.settle(request.query_id, Fate::Failed(Failure::ActionError));
            return None;
        };
        let now = self.now;
        // Synchronization invariant: never command a busy device. If the
        // previous action ran longer than estimated, wait it out.
        if self.config.sync_enabled {
            if let Some(cam) = self.registry.camera(device) {
                if cam.is_busy(now) {
                    let retry = cam
                        .photos()
                        .last()
                        .map(|p| p.completes_at)
                        .unwrap_or(now + SimDuration::from_millis(100))
                        .max(now + SimDuration::from_millis(1));
                    self.locks.extend(device, now, retry);
                    self.queue.push(
                        retry,
                        EngineEvent::Execute {
                            request: request.clone(),
                            device,
                        },
                    );
                    return None;
                }
            }
        }
        // Brownout: degraded requests capture at the cheaper lo-res size.
        let size = if request.degraded {
            PhotoSize::Small
        } else {
            PhotoSize::Medium
        };
        // Last-chance deadline check with the camera's *actual* position:
        // photo duration is deterministic given start pose and target, so a
        // completion past the deadline can be predicted exactly here and the
        // shot cancelled before any device time is spent.
        if request.deadline != SimTime::MAX {
            if let Some(cam) = self.registry.camera(device) {
                let cost = cam.estimate_photo_cost(cam.position_at(now), target, size);
                if now + cost > request.deadline {
                    self.expire_request(request, device);
                    return None;
                }
            }
        }
        let Some(cam) = self.registry.camera_mut(device) else {
            self.settle(request.query_id, Fate::Failed(Failure::ActionError));
            return None;
        };
        match cam.begin_photo(now, target, size, &mut self.rng) {
            Ok(record) => Some(Ok(record.completes_at)),
            Err(e) => {
                self.trace
                    .emit(now, "action", format!("photo on {device} failed: {e}"));
                Some(Err(match e {
                    PhotoError::ConnectTimeout => Failure::Connect,
                    PhotoError::BusyRejected => Failure::Busy,
                    PhotoError::OutOfRange => Failure::OutOfRange,
                }))
            }
        }
    }
}

/// An action's profiles resolved against its kind's cost table once, for
/// every estimate of one dispatch batch or one gateway quote: the action's
/// own and, for a camera action, the brownout lo-res photo.
struct Pricing {
    full: ResolvedProfile,
    lo_res: Option<ResolvedProfile>,
    /// The action the reference path costs by name.
    #[cfg(test)]
    def: ActionDef,
}

impl Pricing {
    fn new(def: &ActionDef, registry: &aorta_net::DeviceRegistry) -> Self {
        let table = registry.cost_table(def.kind());
        Pricing {
            full: ResolvedProfile::resolve(&def.profile, table),
            lo_res: (def.kind() == DeviceKind::Camera)
                .then(|| ResolvedProfile::resolve(&ActionProfile::photo_lo_res(), table)),
            #[cfg(test)]
            def: def.clone(),
        }
    }

    /// Brownout: a degraded photo request is costed (and later executed)
    /// at lo-res, whose capture op is cheaper than the full-quality one.
    fn profile(&self, degraded: bool) -> &ResolvedProfile {
        match &self.lo_res {
            Some(lo_res) if degraded => lo_res,
            _ => &self.full,
        }
    }
}

/// The requests of one dispatch batch that cost every candidate alike: one
/// candidate block, one aim ([`Aim::key`]), one brownout flag.
struct PricingClass {
    /// Index of the class's block in the batch.
    block: usize,
    aim: Aim,
    /// Requests of the class not yet assigned.
    requests: usize,
    /// One quote per slot of the block: empty until the class's first
    /// request is priced, and again once its last one is assigned.
    row: Vec<Quote>,
}

/// One slot of a pricing-class row.
#[derive(Debug, Clone, Copy, Default)]
struct Quote {
    /// The version of the device's predicted status the slot was priced
    /// at; `None` until it is priced.
    version: Option<u32>,
    /// The candidate's cost; `None` when it cannot be costed.
    cost: Option<SimDuration>,
}

/// A dispatch batch's per-device predicted state, indexed by position in
/// the batch's device list.
struct Predicted {
    status: Vec<Option<PhysicalStatus>>,
    /// Bumped on every write to `status`: a quote priced at an older
    /// version is stale.
    version: Vec<u32>,
    /// When each device is predicted to be free of the work already
    /// assigned to it.
    free_at: Vec<SimTime>,
}

impl Predicted {
    /// The device at `i` will rest at `head` once its assigned work is done.
    fn aim(&mut self, i: usize, head: PtzPosition) {
        self.status[i] = Some(PhysicalStatus::CameraHead(head));
        self.version[i] += 1;
    }
}

#[cfg(test)]
#[path = "fire_tests.rs"]
mod fire_tests;

#[cfg(test)]
#[path = "detect_diff.rs"]
mod detect_diff;

#[cfg(test)]
mod tests {
    use crate::{Aorta, EngineConfig};
    use aorta_device::{DeviceId, DeviceKind, PervasiveLab};
    use aorta_sim::{FaultEvent, FaultPlan, SimDuration, SimTime};

    const SNAPSHOT: &str = r#"CREATE AQ snapshot AS
        SELECT photo(c.ip, s.loc, "photos/admin")
        FROM sensor s, camera c
        WHERE s.accel_x > 500 AND coverage(c.id, s.loc)"#;

    fn eventful_engine(seed: u64) -> Aorta {
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let mut aorta = Aorta::with_lab(EngineConfig::seeded(seed), lab);
        aorta.execute_sql(SNAPSHOT).unwrap();
        aorta
    }

    #[test]
    fn crash_is_traced_and_releases_lock() {
        let mut aorta = eventful_engine(3);
        let cam = DeviceId::camera(0);
        let t_lock_end = SimTime::ZERO + SimDuration::from_mins(5);
        assert!(aorta.locks.try_lock(cam, 99, SimTime::ZERO, t_lock_end));

        let mut plan = FaultPlan::new();
        let crash_at = SimTime::ZERO + SimDuration::from_secs(10);
        plan.schedule(crash_at, FaultEvent::Crash(cam));
        aorta.inject_faults(plan);

        aorta.run_for(SimDuration::from_secs(20));
        assert!(aorta.trace().any("fault", "camera-0 crashed"));
        assert!(aorta.trace().any("failover", "lock released after crash"));
        assert!(!aorta.locks.is_locked(cam, aorta.now()));
        assert!(!aorta.registry().get(cam).unwrap().online());
    }

    #[test]
    fn recovery_brings_device_back() {
        let mut aorta = eventful_engine(4);
        let cam = DeviceId::camera(1);
        let mut plan = FaultPlan::new();
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(5),
            FaultEvent::Crash(cam),
        );
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(15),
            FaultEvent::Recover(cam),
        );
        aorta.inject_faults(plan);
        aorta.run_for(SimDuration::from_secs(10));
        assert!(!aorta.registry().get(cam).unwrap().online());
        aorta.run_for(SimDuration::from_secs(10));
        assert!(aorta.registry().get(cam).unwrap().online());
        assert!(aorta.trace().any("fault", "camera-1 recovered"));
    }

    #[test]
    fn loss_burst_degrades_links_and_reverts() {
        let mut aorta = eventful_engine(5);
        let baseline = aorta.registry().link(DeviceKind::Camera).loss_prob();
        let mut plan = FaultPlan::new();
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(10),
            FaultEvent::LossBurstStart { extra_loss: 0.9 },
        );
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(20),
            FaultEvent::LossBurstEnd,
        );
        aorta.inject_faults(plan);
        aorta.run_for(SimDuration::from_secs(15));
        let during = aorta.registry().link(DeviceKind::Camera).loss_prob();
        assert!((during - (baseline + 0.9)).abs() < 1e-9, "during={during}");
        aorta.run_for(SimDuration::from_secs(10));
        let after = aorta.registry().link(DeviceKind::Camera).loss_prob();
        assert!((after - baseline).abs() < 1e-9, "after={after}");
        assert!(aorta.trace().any("fault", "loss burst begins"));
        assert!(aorta.trace().any("fault", "loss burst ends"));
    }

    #[test]
    fn latency_spike_multiplies_base_latency() {
        let mut aorta = eventful_engine(6);
        let baseline = aorta.registry().link(DeviceKind::Sensor).base_latency();
        let mut plan = FaultPlan::new();
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(2),
            FaultEvent::LatencySpikeStart { factor: 10.0 },
        );
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(8),
            FaultEvent::LatencySpikeEnd,
        );
        aorta.inject_faults(plan);
        aorta.run_for(SimDuration::from_secs(5));
        assert_eq!(
            aorta.registry().link(DeviceKind::Sensor).base_latency(),
            baseline.mul_f64(10.0)
        );
        aorta.run_for(SimDuration::from_secs(5));
        assert_eq!(
            aorta.registry().link(DeviceKind::Sensor).base_latency(),
            baseline
        );
    }

    #[test]
    fn every_request_is_accounted_for_under_crashes() {
        let mut aorta = eventful_engine(7);
        // Crash both cameras for a stretch covering several event epochs.
        let mut plan = FaultPlan::new();
        for idx in 0..2 {
            plan.schedule(
                SimTime::ZERO + SimDuration::from_secs(50),
                FaultEvent::Crash(DeviceId::camera(idx)),
            );
            plan.schedule(
                SimTime::ZERO + SimDuration::from_mins(3),
                FaultEvent::Recover(DeviceId::camera(idx)),
            );
        }
        aorta.inject_faults(plan);
        aorta.run_for(SimDuration::from_mins(5));
        let stats = aorta.stats();
        assert!(stats.requests > 0);
        // Conservation: every admitted request is executed (possibly at
        // degraded quality), terminally failed, shed, expired, or still
        // pending — never silently dropped.
        let accounted = stats.terminal() + aorta.pending_requests();
        assert_eq!(stats.requests, accounted, "{stats:?}");
    }

    #[test]
    fn conservation_holds_with_full_overload_stack_enabled() {
        // Tight deadline + aggressive admission + breakers, under the same
        // crash storm: the extended conservation identity must still close.
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_secs(10), SimDuration::ZERO);
        let config = EngineConfig::seeded(7)
            .with_deadline(SimDuration::from_secs(3))
            .with_admission(crate::AdmissionConfig {
                rate_per_sec: 0.5,
                burst: 2.0,
                slo: SimDuration::from_secs(2),
                brownout_multiple: 0.5,
                shed_multiple: 2.0,
                protected_queries: 0,
            })
            .with_breakers(aorta_net::BreakerConfig::default());
        let mut aorta = Aorta::with_lab(config, lab);
        aorta.execute_sql(SNAPSHOT).unwrap();
        let mut plan = FaultPlan::new();
        for idx in 0..2 {
            plan.schedule(
                SimTime::ZERO + SimDuration::from_secs(30),
                FaultEvent::Crash(DeviceId::camera(idx)),
            );
            plan.schedule(
                SimTime::ZERO + SimDuration::from_mins(2),
                FaultEvent::Recover(DeviceId::camera(idx)),
            );
        }
        aorta.inject_faults(plan);
        aorta.run_for(SimDuration::from_mins(5));
        let stats = aorta.stats();
        assert!(stats.requests > 0);
        assert!(
            stats.shed > 0,
            "the aggressive admission gate should shed under this load: {stats:?}"
        );
        let accounted = stats.terminal() + aorta.pending_requests();
        assert_eq!(stats.requests, accounted, "{stats:?}");
        // Deadline enforcement on photos is exact: nothing may succeed late.
        assert_eq!(stats.late_successes, 0, "{stats:?}");
    }

    #[test]
    fn fault_plan_runs_identically_for_identical_seeds() {
        let render = |seed: u64| {
            let mut aorta = eventful_engine(seed);
            let devices: Vec<DeviceId> = aorta
                .registry()
                .ids_of_kind(DeviceKind::Camera)
                .into_iter()
                .chain(aorta.registry().ids_of_kind(DeviceKind::Sensor))
                .collect();
            let plan = FaultPlan::generate(
                0xFA17,
                SimDuration::from_mins(5),
                &devices,
                &aorta_sim::FaultConfig::default(),
            );
            aorta.inject_faults(plan);
            aorta.run_for(SimDuration::from_mins(5));
            aorta.trace().render()
        };
        assert_eq!(render(11), render(11));
        assert_ne!(render(11), render(12));
    }

    /// `s.loc > 500` validates (names and arity are fine) but every
    /// evaluation errors: `loc` is a Location, not a number. The old code
    /// folded that error into `false` via `unwrap_or(false)`, so the broken
    /// query sat silent forever.
    #[test]
    fn eval_errors_are_surfaced_not_swallowed() {
        const TYPE_MISMATCH: &str = r#"CREATE AQ mismatch AS
            SELECT photo(c.ip, s.loc, "photos/admin")
            FROM sensor s, camera c
            WHERE s.loc > 500 AND coverage(c.id, s.loc)"#;
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let mut aorta = Aorta::with_lab(EngineConfig::seeded(21).with_observability(), lab);
        aorta.execute_sql(TYPE_MISMATCH).unwrap();
        aorta.run_for(SimDuration::from_secs(5));
        let stats = aorta.stats();
        assert!(
            stats.eval_errors > 0,
            "type-mismatched predicate must be counted, got {stats:?}"
        );
        assert_eq!(
            stats.events_detected, 0,
            "an erroring conjunct never matches"
        );
        assert!(aorta
            .trace()
            .any("eval_error", "conjunct 0 failed to evaluate"));
        // One structured trace event per (query, conjunct), not per epoch.
        let traced = aorta
            .trace()
            .iter()
            .filter(|e| e.subsystem == "eval_error")
            .count();
        assert_eq!(traced, 1, "eval-error trace must be deduplicated");
        // The live labeled counter agrees with the aggregate stat.
        let snap = aorta.metrics().expect("observability is on");
        assert_eq!(snap.counter_total("aorta_eval_errors"), stats.eval_errors);
    }

    /// Two simultaneous matches from id-less tuples used to share the one
    /// `(query, -1)` rising-edge key: the first flipped the edge and the
    /// second was masked entirely. Now both are skipped — counted, never
    /// silently merged.
    #[test]
    fn idless_tuples_are_skipped_not_folded_onto_one_edge_key() {
        use aorta_data::{Tuple, Value};

        let mut aorta = Aorta::with_lab(EngineConfig::seeded(22), PervasiveLab::standard());
        aorta.execute_sql(SNAPSHOT).unwrap();
        let schema = aorta.registry.schema(DeviceKind::Sensor).clone();
        let id_idx = schema.index_of("id").unwrap();
        let accel_idx = schema.index_of("accel_x").unwrap();
        let mut values = vec![Value::Null; schema.len()];
        values[accel_idx] = Value::Int(600); // matches `s.accel_x > 500`
        assert!(values[id_idx].is_null());
        aorta.detect_on_batch(
            DeviceKind::Sensor,
            vec![Tuple::new(values.clone()), Tuple::new(values)],
        );
        let stats = aorta.stats();
        assert_eq!(
            stats.events_detected, 0,
            "old behavior fired one event and masked the other behind the shared -1 key"
        );
        assert_eq!(stats.idless_skipped, 2, "both skips are accounted for");
        assert_eq!(
            aorta.rising_edge_entries(),
            0,
            "no shared -1 key is created"
        );
    }

    /// `c.ip > 5` validates but every evaluation errors (`ip` is a string).
    /// The old `candidates_for` folded that error into `false` via
    /// `unwrap_or(false)`, so a permanently broken device-join predicate
    /// silently produced empty candidate sets forever.
    #[test]
    fn device_conjunct_eval_errors_are_surfaced_not_swallowed() {
        const BAD_JOIN: &str = r#"CREATE AQ badjoin AS
            SELECT photo(c.ip, s.loc, "photos/admin")
            FROM sensor s, camera c
            WHERE s.accel_x > 500 AND c.ip > 5"#;
        let lab = PervasiveLab::standard()
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
        let mut aorta = Aorta::with_lab(EngineConfig::seeded(31).with_observability(), lab);
        aorta.execute_sql(BAD_JOIN).unwrap();
        aorta.run_for(SimDuration::from_mins(2));
        let stats = aorta.stats();
        assert!(stats.events_detected > 0, "the event side still fires");
        assert!(
            stats.eval_errors > 0,
            "device-join type mismatch must be counted, got {stats:?}"
        );
        assert!(aorta
            .trace()
            .any("eval_error", "device conjunct 0 failed to evaluate"));
        // Deduplicated like event-conjunct errors: one structured trace
        // event per (query, conjunct), not one per camera per event.
        let traced = aorta
            .trace()
            .iter()
            .filter(|e| e.subsystem == "eval_error")
            .count();
        assert_eq!(traced, 1, "device-conjunct eval-error trace must dedupe");
        let snap = aorta.metrics().expect("observability is on");
        assert_eq!(snap.counter_total("aorta_eval_errors"), stats.eval_errors);
    }

    /// A device id outside the u32 range used to be truncated by `as u32`
    /// onto some *other* device's id (2^32+3 → 3, -1 → 4294967295). Now
    /// such tuples are rejected, counted, and traced once per query.
    #[test]
    fn out_of_range_device_ids_are_rejected_not_truncated() {
        use aorta_data::{Tuple, Value};

        const BEEP: &str =
            r#"CREATE AQ b AS SELECT beep(t.id) FROM sensor t, sensor s WHERE s.accel_x > 500"#;
        let mut aorta = Aorta::with_lab(EngineConfig::seeded(32), PervasiveLab::standard());
        aorta.execute_sql(BEEP).unwrap();
        let plan = aorta.catalog.queries().next().unwrap().clone();
        let schema = aorta.registry.schema(DeviceKind::Sensor).clone();
        let id_idx = schema.index_of("id").unwrap();
        let sensor_tuple = |id: Value| {
            let mut values = vec![Value::Null; schema.len()];
            values[id_idx] = id;
            Tuple::new(values)
        };
        let mut cache = crate::shared::EpochScans::default();
        cache.scans.insert(
            DeviceKind::Sensor,
            std::sync::Arc::new(vec![
                sensor_tuple(Value::Int(u32::MAX as i64 + 4)), // truncates to 3
                sensor_tuple(Value::Int(-1)),                  // truncates to u32::MAX
                sensor_tuple(Value::Null),                     // no usable id at all
                sensor_tuple(Value::Int(1)),                   // the only real device
            ]),
        );
        let event = sensor_tuple(Value::Int(0));
        let candidates = aorta.candidates_for(&plan, 0, &event, &cache);
        assert_eq!(
            candidates.iter().map(|(d, _)| d).collect::<Vec<_>>(),
            vec![DeviceId::new(DeviceKind::Sensor, 1)],
            "only the in-range id survives; nothing is truncated onto device 3"
        );
        assert_eq!(aorta.raw_stats.bad_device_ids, 3);
        let traced = aorta
            .trace()
            .iter()
            .filter(|e| e.message.contains("unusable id"))
            .count();
        assert_eq!(traced, 1, "bad-id trace is deduplicated per query");
    }

    /// Pushdown is accounting-only: a run with the flag on is byte-identical
    /// to the baseline (same trace, same stats, same digest) while the
    /// pushdown counters show real suppression and byte savings.
    #[test]
    fn pushdown_accounting_never_perturbs_the_run() {
        let run = |config: EngineConfig| {
            let lab = PervasiveLab::standard()
                .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
            let mut aorta = Aorta::with_lab(config, lab);
            aorta.execute_sql(SNAPSHOT).unwrap();
            aorta.run_for(SimDuration::from_mins(3));
            aorta
        };
        let on = run(EngineConfig::seeded(34).with_pushdown());
        let off = run(EngineConfig::seeded(34));
        assert_eq!(on.trace().render(), off.trace().render());
        assert_eq!(on.stats(), off.stats());
        assert_eq!(on.state_digest(), off.state_digest());
        let push = on.pushdown_stats();
        assert_eq!(off.pushdown_stats(), crate::PushdownStats::default());
        assert!(
            push.suppressed_tuples > 0,
            "idle sensors below the threshold must be suppressed: {push:?}"
        );
        assert!(push.shipped_tuples > 0, "cameras always ship: {push:?}");
        assert!(
            push.wire_bytes() < push.baseline_bytes,
            "suppression must save wire bytes: {push:?}"
        );
        assert_eq!(
            push.saved_bytes(),
            push.baseline_bytes - push.reply_bytes - push.marker_bytes
        );
    }

    /// The ship/suppress rules, one row each, observed where a deployment
    /// would observe them: synthetic sensor batches through
    /// `detect_on_batch`, decisions read back from `pushdown_stats()`.
    /// Anything uncertain ships; a sample is suppressed only when every
    /// watching query rejects it inside its pushed prefix.
    #[test]
    fn pushdown_suppresses_only_what_every_watcher_rejects_in_its_prefix() {
        use aorta_data::{Location, Tuple, Value};

        let photo = |pred: &str| {
            format!(r#"SELECT photo(c.ip, s.loc, "p") FROM sensor s, camera c WHERE {pred}"#)
        };
        let beep = |pred: &str| format!("SELECT beep(t.id) FROM sensor t, sensor s WHERE {pred}");
        let schema = Aorta::with_lab(EngineConfig::seeded(37), PervasiveLab::standard())
            .registry
            .schema(DeviceKind::Sensor)
            .clone();
        // A located sensor sample; `id: None` leaves the id NULL.
        let sample = |id: Option<i64>, accel_x: i64, light: i64| {
            let mut values = vec![Value::Null; schema.len()];
            if let Some(id) = id {
                values[schema.index_of("id").unwrap()] = Value::Int(id);
            }
            values[schema.index_of("loc").unwrap()] = Value::Location(Location::ORIGIN);
            values[schema.index_of("accel_x").unwrap()] = Value::Int(accel_x);
            values[schema.index_of("light").unwrap()] = Value::Int(light);
            Tuple::new(values)
        };
        struct Row {
            rule: &'static str,
            aqs: Vec<String>,
            batch: Vec<Tuple>,
            shipped: u64,
            suppressed: u64,
        }
        let row = |rule, aqs: &[String], batch: &[Tuple], (shipped, suppressed)| Row {
            rule,
            aqs: aqs.to_vec(),
            batch: batch.to_vec(),
            shipped,
            suppressed,
        };
        let rows = [
            row(
                "every watcher rejects inside its prefix: suppressed",
                &[
                    photo("s.accel_x > 500"),
                    photo("s.light > 900 AND distance(s.loc, s.loc) < 1.0"),
                ],
                &[sample(Some(3), 20, 10)],
                (0, 1),
            ),
            row(
                "one watcher's prefix passes: ships",
                &[photo("s.accel_x > 500"), photo("s.light > 900")],
                &[sample(Some(3), 600, 10)],
                (1, 0),
            ),
            row(
                "a kind some query targets as its device part never suppresses",
                &[photo("s.accel_x > 500"), beep("s.accel_x > 500")],
                &[sample(Some(3), 20, 10)],
                (1, 0),
            ),
            row(
                "an id-less sample ships",
                &[photo("s.accel_x > 500")],
                &[sample(None, 20, 10), sample(Some(3), 20, 10)],
                (1, 1),
            ),
            row(
                "a query whose first conjunct is not pushable forces shipping",
                &[
                    photo("s.accel_x > 500"),
                    photo("distance(s.loc, s.loc) < 1.0 AND s.accel_x > 500"),
                ],
                &[sample(Some(3), 20, 10)],
                (1, 0),
            ),
            row(
                "a type mismatch inside the prefix ships",
                &[photo("s.loc > 500")],
                &[sample(Some(3), 20, 10)],
                (1, 0),
            ),
            row(
                "a clean false after the prefix ships",
                &[photo("s.accel_x > 500 AND distance(s.loc, s.loc) > 1.0")],
                &[sample(Some(3), 600, 10), sample(Some(4), 20, 10)],
                (1, 1),
            ),
            row(
                "a windowed step sees the same source's earlier sample of the epoch",
                &[photo("AVG(s.accel_x) OVER LAST 2 > 100")],
                // Source 3: avg(400) then avg(400, 0) = 200 both pass; alone,
                // the second sample would average 0 — as source 4's does.
                &[
                    sample(Some(3), 400, 10),
                    sample(Some(4), 0, 10),
                    sample(Some(3), 0, 10),
                ],
                (2, 1),
            ),
        ];
        for Row {
            rule,
            aqs,
            batch,
            shipped,
            suppressed,
        } in rows
        {
            let mut aorta = Aorta::with_lab(
                EngineConfig::seeded(37).with_pushdown(),
                PervasiveLab::standard(),
            );
            for (i, sql) in aqs.iter().enumerate() {
                aorta
                    .execute_sql(&format!("CREATE AQ q{i} AS {sql}"))
                    .unwrap();
            }
            aorta.detect_on_batch(DeviceKind::Sensor, batch);
            let push = aorta.pushdown_stats();
            assert_eq!(
                (push.shipped_tuples, push.suppressed_tuples),
                (shipped, suppressed),
                "{rule}: {push:?}"
            );
            assert_eq!(push.marker_bytes > 0, suppressed > 0, "{rule}: {push:?}");
        }
    }

    /// Rising-edge state must not outlive its query: before the GC, every
    /// register/deregister cycle leaked one entry per event source forever.
    #[test]
    fn dropping_a_query_garbage_collects_its_rising_edges() {
        let mut aorta = eventful_engine(23);
        aorta.run_for(SimDuration::from_secs(5));
        assert!(
            aorta.rising_edge_entries() > 0,
            "sampling tracks an edge per sensor"
        );
        aorta.execute_sql("DROP AQ snapshot").unwrap();
        assert_eq!(
            aorta.rising_edge_entries(),
            0,
            "the dropped query's edges must be collected"
        );
    }
}
