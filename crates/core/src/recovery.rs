//! Deterministic crash recovery: genesis specification, request wire
//! conversion, and the WAL replay driver.
//!
//! The engine is deterministic between external inputs, so the WAL logs
//! *commands* (SQL batches, fault-plan installs, clock advances, gateway
//! calls) and recovery re-invokes them against an engine rebuilt from the
//! latest snapshot (or genesis). The *effect* records interleaved in the
//! log (lifecycle transitions, edge commits, breaker flips) are not applied
//! — they are re-derived by the replay and cross-checked record-for-record
//! by the verify sink, so a replay that diverges from the original run by
//! even one transition fails loudly instead of resuming from a wrong state.

use aorta_net::DeviceRegistry;
use aorta_sim::FaultPlan;
use aorta_wal::{RecoveryError, SnapshotImage, WalHandle, WalRecord, WireRequest};

use crate::actions::CustomHandler;
use crate::shared::{ActionRequest, CandidateBlock};
use crate::{Aorta, EngineConfig};

/// Everything needed to rebuild a shard engine from nothing: the immutable
/// birth state the WAL's `Genesis` record fingerprints.
///
/// Custom action handlers are code, not state — they cannot be serialized
/// into the log, so the operator supplies them here exactly as they were
/// staged on the original engine (staging is name-keyed, so order is
/// irrelevant).
pub struct GenesisSpec {
    /// The engine configuration (including the per-shard seed).
    pub config: EngineConfig,
    /// The device fleet exactly as it was at engine construction.
    pub registry: DeviceRegistry,
    /// Custom handlers staged before their `CREATE ACTION` statements.
    pub handlers: Vec<(String, CustomHandler)>,
}

impl GenesisSpec {
    /// Builds the genesis engine image: a fresh engine with the same
    /// config, fleet, and staged handlers as the original had at birth.
    pub fn build(&self) -> Box<Aorta> {
        let mut engine = Box::new(Aorta::with_registry(
            self.config.clone(),
            self.registry.clone(),
        ));
        for (name, handler) in &self.handlers {
            engine.register_handler(name.clone(), handler.clone());
        }
        engine
    }
}

/// Fingerprint of a genesis image: a cheap integrity check that a log is
/// being replayed against the engine lineage that wrote it (seed + shard
/// identity, splitmix64-finalized).
pub fn genesis_fingerprint(seed: u64, shard: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(shard.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Converts an in-memory request to its wire image. Argument expressions
/// travel as re-parseable SQL text (the SQL layer guarantees
/// `parse_expr(expr.to_string()) == expr`).
pub fn wire_from_request(request: &ActionRequest) -> WireRequest {
    WireRequest {
        query_id: request.query_id,
        action: request.action.clone(),
        event_tuple: request.event_tuple.clone(),
        event_binding: request.event_binding.clone(),
        event_kind: request.event_kind,
        device_binding: request.device_binding.clone(),
        args: request.args.iter().map(|a| a.to_string()).collect(),
        candidates: request.candidates.to_vec(),
        created_at: request.created_at,
        deadline: request.deadline,
        degraded: request.degraded,
        attempts: request.attempts,
        hops: request.hops,
    }
}

/// Decodes a wire request back to the in-memory form.
///
/// # Errors
///
/// [`RecoveryError::BadRequest`] when an argument expression fails to
/// re-parse (which would mean the log was written by an incompatible
/// engine, or corrupted in a way the checksums cannot see).
pub fn request_from_wire(wire: &WireRequest) -> Result<ActionRequest, RecoveryError> {
    let mut args = Vec::with_capacity(wire.args.len());
    for a in &wire.args {
        args.push(
            aorta_sql::parse_expr(a)
                .map_err(|e| RecoveryError::BadRequest(format!("arg '{a}': {e}")))?,
        );
    }
    Ok(ActionRequest {
        query_id: wire.query_id,
        action: wire.action.clone(),
        event_tuple: wire.event_tuple.clone(),
        event_binding: wire.event_binding.clone(),
        event_kind: wire.event_kind,
        device_binding: wire.device_binding.clone(),
        args,
        candidates: CandidateBlock::from_vec(wire.candidates.clone()),
        created_at: wire.created_at,
        deadline: wire.deadline,
        degraded: wire.degraded,
        attempts: wire.attempts,
        hops: wire.hops,
    })
}

/// What a successful recovery produced.
pub struct Recovered {
    /// The rebuilt engine, at the exact virtual-clock point the log ends.
    pub engine: Box<Aorta>,
    /// Records the replay emitted *past* the end of the log: the suffix of
    /// the final `run_until` that the crash cut short. The caller appends
    /// these to the durable store so the log stays complete for the next
    /// crash.
    pub appended: Vec<WalRecord>,
    /// Log records replayed (commands driven + effects cross-checked).
    pub replayed: usize,
}

/// Replays a WAL suffix against a base image, verifying every re-derived
/// record against the log.
///
/// `base` is the latest snapshot (`None` ⇒ rebuild from `genesis`);
/// `records` is the log suffix from that snapshot's position to the end.
/// The replaying engine is granted one crash immunity per `CrashApplied`
/// record in the suffix, so crashes already in the log do not halt it; the
/// final logged `run_until` therefore replays *through* the crash instant
/// to its deadline, and everything emitted past the log's end is returned
/// as `appended`.
///
/// # Errors
///
/// - [`RecoveryError::GenesisMismatch`] — the log belongs to another engine.
/// - [`RecoveryError::Divergence`] — a re-derived record differs from the
///   logged one: the replay did not reproduce the original run.
/// - [`RecoveryError::Leftover`] — the log has records the replay never
///   reached (a truncated or foreign command stream).
/// - [`RecoveryError::UnreplayableMigration`] — the suffix crosses a
///   `MigrateIn` (the snapshot-barrier invariant was violated).
/// - [`RecoveryError::BadRequest`] — a gateway record failed to decode.
pub fn recover_engine(
    base: Option<Box<Aorta>>,
    genesis: &GenesisSpec,
    records: Vec<WalRecord>,
    fingerprint: u64,
) -> Result<Recovered, RecoveryError> {
    let commands: Vec<WalRecord> = records.iter().filter(|r| r.is_command()).cloned().collect();
    let immunity = records
        .iter()
        .filter(|r| matches!(r, WalRecord::CrashApplied { .. }))
        .count() as u32;
    let replayed = records.len();

    let mut engine = match base {
        Some(image) => image,
        None => genesis.build(),
    };
    engine.grant_crash_immunity(immunity);
    let verify = WalHandle::verify(records);
    engine.attach_wal(verify.clone());

    for command in commands {
        match command {
            WalRecord::Genesis {
                fingerprint: logged,
            } => {
                if logged != fingerprint {
                    return Err(RecoveryError::GenesisMismatch {
                        logged,
                        supplied: fingerprint,
                    });
                }
                // The engine never emits Genesis itself; feed it through
                // the sink so the verify cursor consumes it in place.
                verify.append(WalRecord::Genesis {
                    fingerprint: logged,
                });
            }
            WalRecord::SqlExec { sql } => {
                // Errors replay deterministically (same statement fails,
                // same prefix applies), so the result is dropped.
                let _ = engine.execute_sql(&sql);
            }
            WalRecord::FaultsInjected { events } => {
                let mut plan = FaultPlan::new();
                for (t, fault) in events {
                    plan.schedule(t, fault);
                }
                engine.inject_faults(plan);
            }
            WalRecord::RunUntil { deadline } => engine.run_until(deadline),
            WalRecord::RequestInjected { request } => {
                engine.inject_request(request_from_wire(&request)?);
            }
            WalRecord::RouteProbe { request } => {
                // The result is routing advice the gateway consumed at
                // record time; replay only needs the RNG side effects.
                let _ = engine.cheapest_local_candidate(&request_from_wire(&request)?);
            }
            WalRecord::DrainEscalated => {
                // The drained requests were handed to the gateway; their
                // fate is in the *destination* shards' logs.
                let _ = engine.drain_escalated();
            }
            WalRecord::MigrateOut { device } => {
                // The entry went to another shard; locally it just leaves.
                let _ = engine.migrate_out(device);
            }
            WalRecord::MigrateIn { device } => {
                return Err(RecoveryError::UnreplayableMigration {
                    device: device.to_string(),
                });
            }
            effect => unreachable!("filtered to commands only: {effect:?}"),
        }
        if let Some((at, expected, emitted)) = verify.divergence() {
            engine.detach_wal();
            return Err(RecoveryError::Divergence {
                at,
                expected,
                emitted,
            });
        }
    }

    engine.detach_wal();
    if let Some((at, expected, emitted)) = verify.divergence() {
        return Err(RecoveryError::Divergence {
            at,
            expected,
            emitted,
        });
    }
    let remaining = verify.remaining();
    if remaining > 0 {
        return Err(RecoveryError::Leftover { remaining });
    }
    debug_assert!(
        !engine.is_crashed(),
        "replay immunity must cover every logged crash"
    );
    Ok(Recovered {
        engine,
        appended: verify.take_appended(),
        replayed,
    })
}

/// Recovers from a cold log alone — no snapshot, full replay from genesis.
/// Valid only while the log contains no `MigrateIn` (after the first
/// adoption, only snapshot-based recovery can reconstruct the shard).
///
/// # Errors
///
/// As [`recover_engine`].
pub fn recover_from_log(
    genesis: &GenesisSpec,
    records: Vec<WalRecord>,
    fingerprint: u64,
) -> Result<Recovered, RecoveryError> {
    recover_engine(None, genesis, records, fingerprint)
}

/// Rebuilds a shard on a *new* host from a shipped, already-verified
/// [`SnapshotImage`] (decode is the receiver's integrity gate; this
/// function trusts the image's contents but still cross-checks the replay
/// record-for-record).
///
/// The engine snapshot a donor holds in memory cannot cross a host
/// boundary — custom handlers are code — so the image carries the shard's
/// complete command history and the adopting host replays it from its own
/// `genesis` (which must describe the same birth state; the fingerprint
/// check enforces that). The caller stamps the returned engine with its new
/// host id and bumped epoch.
///
/// # Errors
///
/// As [`recover_engine`] — in particular, an image whose embedded
/// `Genesis` fingerprint disagrees with `genesis` fails with
/// [`RecoveryError::GenesisMismatch`], and an image cut after a device
/// adoption fails with [`RecoveryError::UnreplayableMigration`] instead of
/// rebuilding a shard missing that device's live state.
pub fn restore_from_image(
    genesis: &GenesisSpec,
    image: &SnapshotImage,
    fingerprint: u64,
) -> Result<Recovered, RecoveryError> {
    recover_engine(None, genesis, image.records(), fingerprint)
}
