//! The WAL record model: commands (external inputs, replayed) and effects
//! (derived control-plane transitions, cross-checked during replay).

use aorta_data::Tuple;
use aorta_device::{DeviceId, DeviceKind};
use aorta_sim::{FaultEvent, SimTime};

/// A request lifecycle transition, one per terminal or scheduling decision
/// the engine makes about an admitted action request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleStage {
    /// Admitted past the token bucket (counted in `requests`).
    Admitted,
    /// Admitted in the brownout band: quality degraded (lo-res).
    Degraded,
    /// Rejected by admission control or shed by the deadline scheduler.
    Shed,
    /// Assigned to a device and enqueued for execution.
    Dispatched,
    /// Execution began on the selected device.
    Executing,
    /// Executed successfully (full or degraded quality).
    Completed,
    /// Terminally failed (connect failure, action error, out of range).
    Failed,
    /// Deadline passed before completion; work cancelled.
    Expired,
    /// No candidate could serve it within its window.
    NoCandidate,
    /// Sat in the queue past the request timeout.
    TimedOut,
    /// Local candidates exhausted; parked for the cluster gateway.
    Escalated,
    /// Assigned device crashed before execution; orphan handling ran.
    Orphaned,
    /// Rescheduled onto another candidate after a device-level failure.
    Retried,
}

impl LifecycleStage {
    pub(crate) const ALL: [LifecycleStage; 13] = [
        LifecycleStage::Admitted,
        LifecycleStage::Degraded,
        LifecycleStage::Shed,
        LifecycleStage::Dispatched,
        LifecycleStage::Executing,
        LifecycleStage::Completed,
        LifecycleStage::Failed,
        LifecycleStage::Expired,
        LifecycleStage::NoCandidate,
        LifecycleStage::TimedOut,
        LifecycleStage::Escalated,
        LifecycleStage::Orphaned,
        LifecycleStage::Retried,
    ];

    /// Stable on-disk tag.
    pub(crate) fn tag(self) -> u8 {
        self as u8
    }
}

/// A wire-encodable image of an in-flight action request, used for the two
/// gateway commands that carry a request across shard boundaries
/// ([`WalRecord::RequestInjected`], [`WalRecord::RouteProbe`]).
///
/// Argument expressions travel in their re-parseable `Display` form (the
/// SQL layer guarantees `parse(format!("{expr}")) == expr`), so the record
/// needs no dependency on the SQL AST.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Originating query ID.
    pub query_id: u32,
    /// Action name.
    pub action: String,
    /// The event tuple that fired the query.
    pub event_tuple: Tuple,
    /// Binding name of the event table.
    pub event_binding: String,
    /// Device kind of the event table.
    pub event_kind: DeviceKind,
    /// Optional second FROM binding (the action-device table).
    pub device_binding: Option<(String, DeviceKind)>,
    /// Argument expressions in re-parseable SQL text.
    pub args: Vec<String>,
    /// Candidate devices with their matched tuples.
    pub candidates: Vec<(DeviceId, Tuple)>,
    /// Admission time.
    pub created_at: SimTime,
    /// Completion deadline.
    pub deadline: SimTime,
    /// Brownout flag.
    pub degraded: bool,
    /// Execution attempts so far.
    pub attempts: u32,
    /// Cross-shard hops so far.
    pub hops: u32,
}

/// One log record. Commands drive replay; effects are redo/audit records
/// that replay must re-derive identically.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    // --- commands: the external inputs that drive the deterministic engine ---
    /// Stream header: fingerprint of the genesis image (config + fleet)
    /// this log applies to.
    Genesis {
        /// Genesis-image fingerprint.
        fingerprint: u64,
    },
    /// A SQL batch was submitted (`CREATE AQ`, `DROP AQ`, `CREATE ACTION`,
    /// ad hoc `SELECT` — the whole batch text, applied atomically-per-
    /// statement exactly as `execute_sql` does).
    SqlExec {
        /// The batch text.
        sql: String,
    },
    /// A seeded fault plan was installed.
    FaultsInjected {
        /// The full (time, fault) schedule.
        events: Vec<(SimTime, FaultEvent<DeviceId>)>,
    },
    /// The virtual clock was advanced to `deadline`. Consecutive advances
    /// with no intervening record coalesce at the log tail — `run_until(a);
    /// run_until(b)` with nothing logged between is indistinguishable from
    /// `run_until(b)`.
    RunUntil {
        /// The advance target.
        deadline: SimTime,
    },
    /// The gateway re-injected an escalated request into this shard.
    RequestInjected {
        /// The request as it arrived (candidates are recomputed locally).
        request: WireRequest,
    },
    /// The gateway asked this shard to cost a request (advances the
    /// engine RNG, so it must be replayed even though it mutates no
    /// visible state).
    RouteProbe {
        /// The request being costed.
        request: WireRequest,
    },
    /// The gateway took a non-empty escalation buffer off this shard (an
    /// empty hand-off is not a command and is never logged).
    DrainEscalated,
    /// A device was migrated out of this shard at a safe point.
    MigrateOut {
        /// The migrated device.
        device: DeviceId,
    },
    /// A device was migrated into this shard at a safe point. Not
    /// replayable from the record alone (adopted state is a live image);
    /// the manager snapshots immediately after, so replay never crosses
    /// one — encountering it during replay is a loud error.
    MigrateIn {
        /// The migrated device.
        device: DeviceId,
    },

    // --- effects: derived transitions, re-emitted and checked on replay ---
    /// A continuous query was registered.
    AqRegistered {
        /// Assigned query ID.
        query_id: u32,
        /// Query name.
        name: String,
    },
    /// A continuous query was dropped.
    AqDropped {
        /// The dropped query's ID.
        query_id: u32,
        /// Query name.
        name: String,
    },
    /// A rising-edge commit: the event predicate of `query_id` went from
    /// false to true for the event source `source`, firing the query.
    EdgeCommit {
        /// The fired query.
        query_id: u32,
        /// The event-source identity (tuple id).
        source: i64,
    },
    /// A request lifecycle transition.
    Lifecycle {
        /// The owning query.
        query_id: u32,
        /// The transition.
        stage: LifecycleStage,
        /// When it happened (virtual time).
        at: SimTime,
    },
    /// A circuit breaker changed state.
    Breaker {
        /// The guarded device.
        device: DeviceId,
        /// New state: 0 = closed, 1 = open, 2 = half-open.
        state: u8,
        /// When it transitioned.
        at: SimTime,
    },
    /// A process-crash fault was applied to this engine. Recovery counts
    /// these to grant replay immunity: a crash already in the log must not
    /// halt the replaying engine a second time.
    CrashApplied {
        /// The crash instant.
        at: SimTime,
    },
}

impl WalRecord {
    /// True for records replay re-invokes (vs. effects it cross-checks).
    pub fn is_command(&self) -> bool {
        matches!(
            self,
            WalRecord::Genesis { .. }
                | WalRecord::SqlExec { .. }
                | WalRecord::FaultsInjected { .. }
                | WalRecord::RunUntil { .. }
                | WalRecord::RequestInjected { .. }
                | WalRecord::RouteProbe { .. }
                | WalRecord::DrainEscalated
                | WalRecord::MigrateOut { .. }
                | WalRecord::MigrateIn { .. }
        )
    }

    /// One-line summary for diagnostics and divergence reports.
    pub fn describe(&self) -> String {
        match self {
            WalRecord::Genesis { fingerprint } => format!("Genesis({fingerprint:#018x})"),
            WalRecord::SqlExec { sql } => {
                let head: String = sql.chars().take(40).collect();
                format!("SqlExec({head}…)")
            }
            WalRecord::FaultsInjected { events } => {
                format!("FaultsInjected({} events)", events.len())
            }
            WalRecord::RunUntil { deadline } => format!("RunUntil({deadline})"),
            WalRecord::RequestInjected { request } => {
                format!("RequestInjected(query {})", request.query_id)
            }
            WalRecord::RouteProbe { request } => {
                format!("RouteProbe(query {})", request.query_id)
            }
            WalRecord::DrainEscalated => "DrainEscalated".into(),
            WalRecord::MigrateOut { device } => format!("MigrateOut({device})"),
            WalRecord::MigrateIn { device } => format!("MigrateIn({device})"),
            WalRecord::AqRegistered { query_id, name } => {
                format!("AqRegistered({query_id}, {name})")
            }
            WalRecord::AqDropped { query_id, name } => {
                format!("AqDropped({query_id}, {name})")
            }
            WalRecord::EdgeCommit { query_id, source } => {
                format!("EdgeCommit(query {query_id}, source {source})")
            }
            WalRecord::Lifecycle {
                query_id,
                stage,
                at,
            } => format!("Lifecycle(query {query_id}, {stage:?}, {at})"),
            WalRecord::Breaker { device, state, at } => {
                format!("Breaker({device}, state {state}, {at})")
            }
            WalRecord::CrashApplied { at } => format!("CrashApplied({at})"),
        }
    }
}
