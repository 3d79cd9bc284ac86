//! The shard manager and routing gateway.
//!
//! A [`ShardManager`] owns *k* independent [`Aorta`] engines, each over a
//! disjoint slice of the device fleet, and drives them on **one** virtual
//! clock: at every step it advances the shard whose next pending work has
//! the smallest `(SimTime, shard_id)`, which serializes the per-shard event
//! queues into a single deterministic global order — identical seeds yield
//! byte-identical cluster traces, exactly as for a standalone engine.
//!
//! The gateway role is folded into the manager: DDL (`CREATE AQ`,
//! `CREATE ACTION`) is broadcast to every shard, so any shard can detect
//! events over its own devices and serve adopted requests; when a shard's
//! candidate set is exhausted (crash storms, or simply no covering device
//! in its region) the shard escalates the request and the gateway re-routes
//! it to the sibling offering the cheapest eligible device. Above a
//! configurable backlog imbalance the gateway also migrates device
//! ownership between shards — only at a safe point (no queued execution,
//! no lock held, no action physically in progress).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use aorta_core::{
    genesis_fingerprint, recover_engine, restore_from_image, ActionRequest, Aorta, CustomHandler,
    EngineConfig, EngineError, ExecOutput, GenesisSpec,
};
use aorta_device::{DeviceId, DeviceKind, PervasiveLab};
use aorta_net::{ship_bytes, DeviceRegistry, EpochFence, RetryPolicy, ShipConfig};
use aorta_obs::{MetricsRegistry, SharedMetrics, SpanKind};
use aorta_sim::{FaultEvent, FaultPlan, SimDuration, SimRng, SimTime, TraceBuffer};
use aorta_wal::{
    FileStore, LogStore, MemStore, SnapshotImage, WalHandle, WalManager, WalRecord, WalStats,
};

use crate::partition::owner_of;
use crate::stats::ClusterStats;

/// Cluster-level tunables. Per-shard engine parameters come from the
/// `engine` template; each shard gets its own seed forked from `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Master seed: shard engine seeds fork from it.
    pub seed: u64,
    /// Number of shards *k* (≥ 1). Devices are assigned to shards by
    /// region stripe (see [`crate::stripe_of`]).
    pub shards: usize,
    /// Backlog gap (max shard pending minus min shard pending, in
    /// requests) above which the gateway migrates one device's ownership
    /// per rebalance decision. `u64::MAX` disables rebalancing.
    pub imbalance_threshold: u64,
    /// Template engine configuration; `seed` and `escalate_exhausted` are
    /// overridden per shard.
    pub engine: EngineConfig,
    /// Durability: when set, every shard writes a WAL and crashed shards
    /// are recovered in place. `None` (the default) runs without logs —
    /// a process-crashed shard then stays dead.
    pub wal: Option<WalClusterConfig>,
    /// Cross-host failover: when set (and durability is on), a
    /// process-crashed shard is rebuilt on a *fresh host* from a shipped
    /// [`SnapshotImage`] instead of in place, behind epoch fencing and a
    /// parked-escalation queue. `None` (the default) keeps the in-place
    /// recovery path byte-identical to previous releases.
    pub failover: Option<FailoverConfig>,
    /// Worker threads for parallel shard stepping. `0` (the default) means
    /// auto: one thread per host core. `1` forces the sequential oracle.
    /// Thread count never changes a single byte of any trace or stat — it
    /// only changes how fast the same bytes are produced (see
    /// [`ShardManager::run_until`]).
    pub threads: usize,
}

/// Cross-host failover tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverConfig {
    /// Simulated network parameters for shipping the snapshot image to the
    /// adopting host (chunking, loss, duplication, reordering, bandwidth).
    pub ship: ShipConfig,
    /// Fixed rebuild cost on the adopting host (process start + replay),
    /// added to the shipment's transfer time to give the degraded window
    /// its length on the virtual clock.
    pub rebuild_delay: SimDuration,
    /// Backoff schedule for parked escalations: every gateway re-injection
    /// waits `backoff_base × 2^(attempt-1)` plus seeded jitter instead of
    /// retrying immediately.
    pub retry: RetryPolicy,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            ship: ShipConfig::default(),
            rebuild_delay: SimDuration::from_millis(100),
            retry: RetryPolicy::new(
                6,
                SimDuration::from_millis(50),
                SimDuration::from_millis(25),
            ),
        }
    }
}

/// Durability tunables for a WAL-enabled cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalClusterConfig {
    /// Take a snapshot of a shard every this many appended log frames
    /// (plus forced barrier snapshots at every device migration).
    pub snapshot_every: usize,
    /// Directory for on-disk logs (`shard-<s>.wal`); `None` keeps the logs
    /// in memory — same records, same recovery, no filesystem.
    pub dir: Option<PathBuf>,
}

impl Default for WalClusterConfig {
    fn default() -> Self {
        WalClusterConfig {
            snapshot_every: 512,
            dir: None,
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 42,
            shards: 2,
            imbalance_threshold: 16,
            engine: EngineConfig::default(),
            wal: None,
            failover: None,
            threads: 0,
        }
    }
}

impl ClusterConfig {
    /// The default configuration with a given seed and shard count.
    pub fn seeded(seed: u64, shards: usize) -> Self {
        ClusterConfig {
            seed,
            shards,
            ..ClusterConfig::default()
        }
    }

    /// Sets the rebalance threshold, builder style.
    pub fn with_imbalance_threshold(mut self, threshold: u64) -> Self {
        self.imbalance_threshold = threshold;
        self
    }

    /// Enables per-shard write-ahead logging (in-memory stores), builder
    /// style.
    pub fn with_wal(mut self, snapshot_every: usize) -> Self {
        self.wal = Some(WalClusterConfig {
            snapshot_every,
            dir: None,
        });
        self
    }

    /// Enables per-shard write-ahead logging with on-disk stores under
    /// `dir`, builder style.
    pub fn with_wal_dir(mut self, snapshot_every: usize, dir: impl Into<PathBuf>) -> Self {
        self.wal = Some(WalClusterConfig {
            snapshot_every,
            dir: Some(dir.into()),
        });
        self
    }

    /// Enables cross-host failover, builder style. Requires a WAL (the
    /// snapshot image is cut from the shard's log); [`ShardManager::new`]
    /// panics otherwise.
    pub fn with_failover(mut self, failover: FailoverConfig) -> Self {
        self.failover = Some(failover);
        self
    }

    /// Sets the worker-thread count for parallel shard stepping, builder
    /// style. `0` means auto (one per host core); `1` is the sequential
    /// oracle every threaded run is byte-compared against.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker-thread count after resolving `0` (auto) against the
    /// host's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

/// Per-shard durability state: log manager + genesis image, plus recovery
/// bookkeeping. All of it lives on a channel separate from the simulation
/// (its own metrics registry, no trace/stats writes), so a WAL-enabled
/// cluster stays byte-identical to an unlogged one.
struct Durability {
    managers: Vec<WalManager<Box<Aorta>>>,
    specs: Vec<GenesisSpec>,
    fingerprints: Vec<u64>,
    /// WAL-owned metrics registry (append/recovery series). Deliberately
    /// not merged into the cluster's deterministic snapshot.
    obs: SharedMetrics,
    recoveries: u64,
    records_replayed: u64,
    /// Host wall-clock milliseconds per recovery (benchmark reporting
    /// only — never feeds back into the simulation).
    recovery_wall_ms: Vec<u64>,
}

/// A durability report for benchmarks and introspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReport {
    /// Per-shard log stream counters.
    pub per_shard: Vec<WalStats>,
    /// Per-shard snapshots taken (cadence + migration barriers).
    pub snapshots: Vec<u64>,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// Log records replayed across all recoveries.
    pub records_replayed: u64,
    /// Host wall-clock milliseconds per recovery.
    pub recovery_wall_ms: Vec<u64>,
}

/// Cross-host failover runtime state (present only when configured).
struct Failover {
    config: FailoverConfig,
    /// Gateway-owned RNG (image shipping, backoff jitter), forked from the
    /// cluster seed *after* every shard seed — adding it never perturbs
    /// the shard streams.
    rng: SimRng,
    /// One fence per shard slot: the incarnation epoch the gateway believes
    /// current, plus the count of stale-epoch messages it refused.
    fences: Vec<EpochFence>,
    /// The host currently running each shard slot (hosts `0..k` at birth;
    /// every failover adopts on a fresh host id).
    hosts: Vec<u32>,
    next_host: u32,
    /// Escalations parked at the gateway awaiting backoff delivery.
    waiting: Vec<Parked>,
    next_seq: u64,
    /// In-flight rebuilds: the replacement engine is ready but not adopted
    /// until the degraded window (`ready_at`) elapses on the virtual clock.
    rebuilds: Vec<Option<PendingRebuild>>,
    events: Vec<FailoverEvent>,
}

/// One escalation parked at the gateway (satellite of the backoff fix: the
/// gateway never re-injects immediately when failover is on).
struct Parked {
    request: ActionRequest,
    /// Shard slot that escalated the request.
    from: usize,
    /// Delivery attempts scheduled so far (1 = first backoff wait).
    attempt: u32,
    next_at: SimTime,
    /// Admission order, to break `next_at` ties deterministically.
    seq: u64,
}

/// A replacement engine rebuilt on a fresh host, waiting out the degraded
/// window before adoption.
struct PendingRebuild {
    engine: Box<Aorta>,
    ready_at: SimTime,
    detected_at: SimTime,
    old_host: u32,
    new_host: u32,
    bytes_shipped: u64,
    ship_rounds: u32,
    replayed: u64,
}

/// One completed cross-host failover, for benchmarks and introspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// Shard slot that failed over.
    pub shard: usize,
    /// Host that died.
    pub old_host: u32,
    /// Fresh host the shard was rebuilt on.
    pub new_host: u32,
    /// The new incarnation's epoch (old epoch + 1).
    pub epoch: u64,
    /// Virtual instant the process crash was detected.
    pub detected_at: SimTime,
    /// Virtual instant the rebuilt shard was adopted (end of the degraded
    /// window).
    pub ready_at: SimTime,
    /// Encoded snapshot-image size shipped to the adopting host.
    pub bytes_shipped: u64,
    /// Transfer rounds the shipment needed (1 = no loss).
    pub ship_rounds: u32,
    /// Log records the adopting host replayed.
    pub records_replayed: u64,
}

impl FailoverEvent {
    /// Length of the degraded window on the virtual clock.
    pub fn degraded_window(&self) -> SimDuration {
        self.ready_at - self.detected_at
    }
}

/// *k* engines over a partitioned fleet, stepped on one virtual clock,
/// with gateway routing, cross-shard failover, and rebalancing.
pub struct ShardManager {
    config: ClusterConfig,
    shards: Vec<Aorta>,
    now: SimTime,
    /// Gateway-level decisions (reroutes, drops, migrations).
    trace: TraceBuffer,
    rerouted: u64,
    gateway_dropped: u64,
    gateway_expired: u64,
    migrations: u64,
    /// Gateway-level metrics (`None` unless the engine template enables
    /// observability; each shard then carries its own registry too).
    obs: Option<SharedMetrics>,
    /// WAL + snapshot state when durability is on.
    durability: Option<Durability>,
    /// Cross-host failover state when configured.
    failover: Option<Failover>,
    /// Active inter-shard blackout windows `(start, end, from, to)` from
    /// injected [`FaultEvent::Partition`] events. Asymmetric: a window
    /// blocks gateway deliveries `from → to` only.
    partitions: Vec<(SimTime, SimTime, u32, u32)>,
}

// Compile-time thread-safety audit (see the matching assertion on `Aorta`
// in aorta-core): the parallel runner fans per-shard state out across
// `std::thread::scope` workers, so the engines must be shareable (`Sync`)
// and their clones movable (`Send`); the manager itself — gateway, WAL
// managers, failover state — must stay `Send` so whole clusters can be
// driven from worker threads (the E13 benchmark does).
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Aorta>();
    assert_send::<Box<Aorta>>();
    assert_send::<ShardManager>();
};

impl ShardManager {
    /// Partitions `lab` across `config.shards` engines.
    ///
    /// Per-shard engine seeds are forked from the cluster seed, so the
    /// cluster as a whole is as deterministic as one engine; escalation is
    /// enabled on every shard when `k > 1` (with a single shard there is
    /// no sibling, and behaviour is identical to a standalone engine).
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` is zero.
    pub fn new(config: ClusterConfig, lab: PervasiveLab) -> Self {
        assert!(config.shards > 0, "a cluster needs at least one shard");
        let k = config.shards;
        let width = PervasiveLab::ROOM.0;
        let mut registries: Vec<DeviceRegistry> = (0..k).map(|_| DeviceRegistry::new()).collect();
        let mut place = |sim: aorta_net::DeviceSim, x: Option<f64>, fallback: usize| {
            registries[owner_of(x, width, fallback, k)].register(sim, SimTime::ZERO);
        };
        for (i, cam) in lab.cameras.iter().enumerate() {
            place(cam.clone().into(), Some(cam.mount().x), i);
        }
        for (i, mote) in lab.motes.iter().enumerate() {
            place(mote.clone().into(), Some(mote.location().x), i);
        }
        for (i, phone) in lab.phones.iter().enumerate() {
            place(phone.clone().into(), None, i);
        }

        let mut seeder = SimRng::seed(config.seed);
        let mut shards: Vec<Aorta> = Vec::with_capacity(k);
        let mut durability = config.wal.as_ref().map(|wal| {
            if let Some(dir) = &wal.dir {
                std::fs::create_dir_all(dir).expect("wal directory");
            }
            Durability {
                managers: Vec::with_capacity(k),
                specs: Vec::with_capacity(k),
                fingerprints: Vec::with_capacity(k),
                obs: SharedMetrics::new(),
                recoveries: 0,
                records_replayed: 0,
                recovery_wall_ms: Vec::new(),
            }
        });
        for (s, registry) in registries.into_iter().enumerate() {
            let mut engine_config = config.engine.clone();
            engine_config.seed = seeder.fork(s as u64).next_u64();
            engine_config.escalate_exhausted = k > 1;
            let genesis_registry = durability.is_some().then(|| registry.clone());
            let mut engine = Aorta::with_registry(engine_config.clone(), registry);
            // Incarnation identity: shard s starts on host s, epoch 1.
            // Pure metadata (excluded from digests and stats), so stamping
            // it unconditionally changes no byte of any existing artifact.
            engine.set_identity(s as u32, 1);
            if let Some(dur) = &mut durability {
                let wal = config.wal.as_ref().expect("durability implies wal config");
                let store: Box<dyn LogStore> = match &wal.dir {
                    Some(dir) => Box::new(
                        FileStore::create(dir.join(format!("shard-{s}.wal")))
                            .expect("wal file create"),
                    ),
                    None => Box::new(MemStore::new()),
                };
                let fingerprint = genesis_fingerprint(engine_config.seed, s as u64);
                let handle = WalHandle::record(store, Some(dur.obs.clone()), format!("s{s}"));
                handle.append(WalRecord::Genesis { fingerprint });
                engine.attach_wal(handle.clone());
                dur.managers
                    .push(WalManager::new(handle, wal.snapshot_every));
                dur.specs.push(GenesisSpec {
                    config: engine_config,
                    registry: genesis_registry.expect("cloned when durability is on"),
                    handlers: Vec::new(),
                });
                dur.fingerprints.push(fingerprint);
            }
            shards.push(engine);
        }

        // Forked after every shard seed, so enabling failover leaves the
        // shard RNG streams (and thus every existing artifact) untouched.
        let failover = config.failover.clone().map(|fc| {
            assert!(
                durability.is_some(),
                "failover requires a WAL: the snapshot image is cut from the shard's log"
            );
            Failover {
                config: fc,
                rng: seeder.fork(u64::MAX),
                fences: (0..k).map(|_| EpochFence::new(1)).collect(),
                hosts: (0..k as u32).collect(),
                next_host: k as u32,
                waiting: Vec::new(),
                next_seq: 0,
                rebuilds: (0..k).map(|_| None).collect(),
                events: Vec::new(),
            }
        });

        let obs = config.engine.observability.then(SharedMetrics::new);
        ShardManager {
            config,
            shards,
            now: SimTime::ZERO,
            trace: TraceBuffer::with_capacity(4096),
            rerouted: 0,
            gateway_dropped: 0,
            gateway_expired: 0,
            migrations: 0,
            obs,
            durability,
            failover,
            partitions: Vec::new(),
        }
    }

    /// Executes a statement on every shard (the gateway's admission path:
    /// queries and actions must exist cluster-wide so any shard can detect
    /// events on its devices or adopt an escalated request). Returns the
    /// first shard's output; all shards execute the same statement.
    pub fn execute_sql(&mut self, sql: &str) -> Result<Vec<ExecOutput>, EngineError> {
        let mut first = None;
        for shard in &mut self.shards {
            let out = shard.execute_sql(sql)?;
            if first.is_none() {
                first = Some(out);
            }
        }
        Ok(first.unwrap_or_default())
    }

    /// Stages a custom action handler on every shard (see
    /// [`Aorta::register_handler`]).
    ///
    /// Handlers are code, not state, so they cannot travel through the WAL;
    /// they are instead captured into each shard's genesis spec and
    /// re-staged when a crashed shard is rebuilt.
    pub fn register_handler(&mut self, name: &str, handler: CustomHandler) {
        for shard in &mut self.shards {
            shard.register_handler(name, handler.clone());
        }
        if let Some(dur) = &mut self.durability {
            for spec in &mut dur.specs {
                spec.handlers.push((name.to_string(), handler.clone()));
            }
        }
    }

    /// Splits a cluster-wide fault plan by device ownership and installs
    /// the slices. Crash/recover events go to the shard owning the device
    /// *now*; if the rebalancer later migrates that device, the stale
    /// events no-op harmlessly on the old shard (fault application checks
    /// registry membership). Global link events replicate to every shard.
    pub fn inject_faults(&mut self, plan: FaultPlan<DeviceId>) {
        // Partition events are cluster-scope: the gateway keeps the blackout
        // windows (engines no-op them) and refuses deliveries crossing an
        // active window. Plans without partitions leave this list empty and
        // routing byte-identical.
        for (at, event) in plan.iter() {
            if let FaultEvent::Partition { a, b, window } = *event {
                self.partitions.push((*at, *at + window, a, b));
            }
        }
        let owners: Vec<FaultPlan<DeviceId>> =
            plan.split_by(self.shards.len(), |d| self.shard_owning(*d).unwrap_or(0));
        for (shard, sub) in self.shards.iter_mut().zip(owners) {
            shard.inject_faults(sub);
        }
    }

    /// True when an active partition window blocks gateway deliveries
    /// `from → to` at the current virtual instant.
    fn blocked(&self, from: usize, to: usize) -> bool {
        let now = self.now;
        self.partitions.iter().any(|&(start, end, a, b)| {
            a as usize == from && b as usize == to && start <= now && now < end
        })
    }

    /// The shard currently owning `device`, if any.
    pub fn shard_owning(&self, device: DeviceId) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.registry().get(device).is_some())
    }

    /// Advances the shared virtual clock to `deadline`.
    ///
    /// Shards are interleaved in `(next_event_time, shard_id)` order: the
    /// shard with the earliest pending work runs first, ties break on the
    /// lower shard ID. After each step the gateway services that shard's
    /// escalations and checks the rebalance condition, so cross-shard
    /// failover happens at the same virtual instant the exhaustion did.
    ///
    /// When the configuration permits (`parallel_eligible`: several
    /// shards, several workers, no WAL, no failover, rebalancer off) and
    /// more than one worker thread is available, shards step **concurrently
    /// between cross-shard synchronization points** instead: the window up
    /// to the earliest cross-shard interaction (an escalation or a process
    /// crash — the only gateway-visible events in an eligible
    /// configuration) runs on clones in parallel, and the interaction
    /// itself is replayed through this sequential loop. The merged outcome
    /// is bit-for-bit identical to the sequential interleaving; only wall
    /// time changes. `ClusterConfig::with_threads(1)` keeps the sequential
    /// path as the oracle.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.parallel_eligible() {
            self.run_windows_parallel(deadline);
        } else {
            self.run_steps(deadline);
        }
        // Tail: every surviving shard coasts to the deadline (faults past
        // its last event may still be due), with the same crash/escalation
        // follow-ups a mid-run step gets — a crash or escalation landing
        // exactly at the deadline is recovered/routed, never stranded.
        for s in 0..self.shards.len() {
            self.shards[s].run_until(deadline);
            self.recover_if_crashed(s);
            self.route_escalated(s);
        }
        self.maybe_snapshots();
        self.now = deadline;
        self.gateway_tick();
    }

    /// Whether [`Self::run_until`] may execute windows on the thread pool.
    ///
    /// Parallel stepping requires every between-step gateway sweep to be a
    /// provable no-op unless a shard escalates or crashes (which trips the
    /// window back to the sequential oracle). That holds exactly when:
    ///
    /// - there is more than one shard and more than one worker thread;
    /// - durability is off — a WAL records the stepping slice boundaries
    ///   (`RunUntil` frames) and snapshot cadence, which are artifacts of
    ///   the sequential interleaving itself;
    /// - failover is off — gateway timers (parked deliveries, rebuild
    ///   adoptions) can fire between any two steps (failover already
    ///   requires a WAL; checked separately for clarity);
    /// - rebalancing is off — the imbalance check samples every shard's
    ///   backlog after every step.
    ///
    /// Ineligible configurations take the sequential path at any thread
    /// count, so thread count never changes their bytes either.
    fn parallel_eligible(&self) -> bool {
        self.shards.len() > 1
            && self.config.effective_threads() > 1
            && self.config.wal.is_none()
            && self.config.failover.is_none()
            && self.config.imbalance_threshold == u64::MAX
    }

    /// Parallel window driver: repeatedly clone the live shards, run the
    /// clones concurrently toward `deadline` under a shared tripwire, and
    /// either commit the clones (no shard escalated or crashed — the whole
    /// window was interaction-free, so the sequential interleaving would
    /// have produced exactly these per-shard states) or discard them and
    /// replay the prefix up to the earliest interaction through the
    /// sequential oracle, then try again from there.
    ///
    /// The tripwire carries the earliest violation instant in microseconds
    /// (`u64::MAX` = none): each clone stops before processing any work at
    /// or past it, and lowers it when it escalates or crashes. Because a
    /// clone keeps running while its pending work lies strictly below the
    /// wire, the final value is exactly the first instant the sequential
    /// interleaving would have seen a cross-shard interaction — replaying
    /// `(-∞, wire]` sequentially therefore reproduces the oracle's order,
    /// including `(event_time, shard_id)`-ordered same-instant batches and
    /// the gateway's routing at the interaction itself.
    fn run_windows_parallel(&mut self, deadline: SimTime) {
        // After this many consecutive tripped windows, finish the call
        // sequentially: interaction-dense phases (crash storms) would
        // otherwise pay a full clone fan-out per interaction.
        const MAX_TRIPPED_WINDOWS: u32 = 3;
        let mut tripped_windows = 0;
        loop {
            let live: Vec<usize> = (0..self.shards.len())
                .filter(|&s| {
                    !self.shards[s].is_crashed()
                        && self.shards[s]
                            .next_event_time()
                            .is_some_and(|t| t <= deadline)
                })
                .collect();
            if live.is_empty() {
                return; // nothing left below the deadline; the tail coasts
            }
            if tripped_windows >= MAX_TRIPPED_WINDOWS {
                self.run_steps(deadline);
                return;
            }
            let lanes = self.config.effective_threads().min(live.len());
            let mut lane_shards: Vec<Vec<usize>> = vec![Vec::new(); lanes];
            for (i, &s) in live.iter().enumerate() {
                lane_shards[i % lanes].push(s);
            }
            let tripwire = AtomicU64::new(u64::MAX);
            let shards = &self.shards;
            let clones: Vec<(usize, Box<Aorta>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = lane_shards
                    .into_iter()
                    .map(|lane| {
                        let tw = &tripwire;
                        scope.spawn(move || {
                            lane.into_iter()
                                .map(|s| {
                                    debug_assert_eq!(
                                        shards[s].escalated_backlog(),
                                        0,
                                        "window started with an undrained escalation buffer"
                                    );
                                    let mut clone = shards[s].fork_snapshot();
                                    clone.run_until_bounded(deadline, tw);
                                    (s, clone)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            });
            let wire = tripwire.load(Ordering::Acquire);
            if wire == u64::MAX {
                // Interaction-free to the deadline: the clones *are* the
                // sequential outcome. Swap them in and let the tail finish.
                for (s, clone) in clones {
                    self.shards[s] = *clone;
                }
                return;
            }
            // Tripped: discard the clones and replay sequentially through
            // the interaction instant, then open the next window there.
            drop(clones);
            tripped_windows += 1;
            self.run_steps(SimTime::from_micros(wire));
        }
    }

    /// The sequential oracle loop: steps shards in `(next_event_time,
    /// shard_id)` order while their next pending work is at or before
    /// `cutoff`, interleaving gateway timers due by then. The pure
    /// sequential path passes the run's deadline; the parallel driver
    /// passes the tripped instant to replay an interaction prefix.
    fn run_steps(&mut self, cutoff: SimTime) {
        loop {
            let next = (0..self.shards.len())
                .filter(|&s| !self.shards[s].is_crashed())
                .filter_map(|s| Some((self.shards[s].next_event_time()?, s)))
                .filter(|&(t, _)| t <= cutoff)
                .min();
            // Gateway timers (rebuild adoptions, parked deliveries) share
            // the same clock; a shard step wins ties so escalations drain
            // before the gateway acts at the same instant.
            let gateway = self.next_gateway_time().filter(|&g| g <= cutoff);
            match (next, gateway) {
                (Some((t, s)), g) if g.is_none_or(|g| t <= g) => {
                    self.now = t;
                    self.shards[s].run_until(t);
                    self.recover_if_crashed(s);
                    self.route_escalated(s);
                    self.gateway_tick();
                    self.maybe_rebalance();
                    self.maybe_snapshots();
                }
                (_, Some(g)) => {
                    self.now = g;
                    self.gateway_tick();
                }
                (_, None) => break,
            }
        }
    }

    /// The earliest pending gateway timer: a rebuild's adoption instant or
    /// a parked escalation's delivery instant. `None` without failover.
    fn next_gateway_time(&self) -> Option<SimTime> {
        let fo = self.failover.as_ref()?;
        let rebuild = fo
            .rebuilds
            .iter()
            .filter_map(|r| r.as_ref().map(|r| r.ready_at))
            .min();
        let parked = fo.waiting.iter().map(|p| p.next_at).min();
        match (rebuild, parked) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Services every gateway timer due at the current instant: rebuild
    /// adoptions first (an adopted shard can then receive deliveries at the
    /// same instant), then parked escalations in `(next_at, seq)` order.
    /// No-op without failover.
    fn gateway_tick(&mut self) {
        if self.failover.is_none() {
            return;
        }
        loop {
            let due = {
                let fo = self.failover.as_ref().expect("checked above");
                (0..self.shards.len()).find(|&s| {
                    fo.rebuilds[s]
                        .as_ref()
                        .is_some_and(|r| r.ready_at <= self.now)
                })
            };
            let Some(s) = due else { break };
            self.adopt_rebuild(s);
        }
        loop {
            let idx = {
                let fo = self.failover.as_ref().expect("checked above");
                fo.waiting
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.next_at <= self.now)
                    .min_by_key(|(_, p)| (p.next_at, p.seq))
                    .map(|(i, _)| i)
            };
            let Some(i) = idx else { break };
            let parked = self
                .failover
                .as_mut()
                .expect("checked above")
                .waiting
                .remove(i);
            self.deliver_parked(parked);
        }
    }

    /// Rebuilds shard `s` from its snapshot + WAL suffix after a process
    /// crash. Without durability this is a no-op: the shard stays dead.
    ///
    /// Recovery is invisible to the simulation — the rebuilt engine resumes
    /// at the exact virtual-clock point the log ends (the replay runs the
    /// crash-truncated slice to its deadline), and all bookkeeping goes to
    /// the WAL's own metrics registry, never the deterministic trace.
    fn recover_if_crashed(&mut self, s: usize) {
        if !self.shards[s].is_crashed() || self.durability.is_none() {
            return;
        }
        if self.failover.is_some() && self.try_failover_rebuild(s) {
            return;
        }
        let ShardManager {
            durability,
            failover,
            shards,
            ..
        } = self;
        let dur = durability.as_mut().expect("checked above");
        let started = std::time::Instant::now();
        let manager = &mut dur.managers[s];
        let mut suffix = manager.records().expect("wal read at recovery");
        let mut base_image = None;
        if let Some((at, image)) = manager.latest_snapshot() {
            // Frames below the vault key are already in the image.
            suffix = suffix.split_off(at as usize);
            base_image = Some(image.fork_snapshot());
        }
        let replayed = suffix.len();
        let recovered = recover_engine(base_image, &dur.specs[s], suffix, dur.fingerprints[s])
            .unwrap_or_else(|e| panic!("shard {s}: unrecoverable wal: {e}"));
        // The replay ran the crash-truncated tail past the log's end;
        // write that re-derived history back so the log stays complete.
        manager.append_all(recovered.appended);
        let mut engine = recovered.engine;
        engine.attach_wal(manager.handle());
        // In-place recovery is the same incarnation: restore its identity
        // (the replayed engine was rebuilt with the default stamp).
        let (host, epoch) = failover
            .as_ref()
            .map_or((s as u32, 1), |fo| (fo.hosts[s], fo.fences[s].current()));
        engine.set_identity(host, epoch);
        shards[s] = *engine;
        dur.recoveries += 1;
        dur.records_replayed += replayed as u64;
        let wall_ms = started.elapsed().as_millis() as u64;
        dur.recovery_wall_ms.push(wall_ms);
        let label = s.to_string();
        dur.obs
            .incr("aorta_wal_recoveries", &[("shard", label.as_str())], 1);
        dur.obs.span(
            SpanKind::Recovery,
            shards[s].now(),
            SimDuration::ZERO,
            &format!("s{s} replayed {replayed} records"),
        );
        debug_assert!(!shards[s].is_crashed(), "recovery left shard {s} halted");
    }

    /// Cross-host failover, phase 1: cut a [`SnapshotImage`] from the dead
    /// shard's sealed log, ship it over the simulated network to a fresh
    /// host, and rebuild the engine there by replay. The rebuilt engine is
    /// parked until the degraded window (`rebuild_delay` + transfer time)
    /// elapses; [`Self::adopt_rebuild`] then swaps it in under a bumped
    /// epoch. Returns `false` when the log cannot be cut into a shippable
    /// image (it crossed a device adoption, whose `MigrateIn` is
    /// unreplayable from genesis) — the caller then recovers in place.
    ///
    /// A transfer the retransmission budget cannot repair, or a shipped
    /// image that fails its integrity gate, panics: a shard must never be
    /// rebuilt from a torn or corrupt image, and silently staying dead is
    /// exactly the silent failure this subsystem exists to prevent.
    fn try_failover_rebuild(&mut self, s: usize) -> bool {
        let now = self.now;
        let ShardManager {
            durability,
            failover,
            trace,
            obs,
            ..
        } = self;
        let (Some(dur), Some(fo)) = (durability.as_mut(), failover.as_mut()) else {
            return false;
        };
        let manager = &mut dur.managers[s];
        // The image's frames are final: no later `RunUntil` may coalesce
        // into the tail it ships.
        manager.handle().seal_tail();
        let mut records = manager.records().expect("wal read at failover");
        if records
            .iter()
            .any(|r| matches!(r, WalRecord::MigrateIn { .. }))
        {
            trace.emit(
                now,
                "gateway",
                format!(
                    "shard {s}: log not shippable as an image \
                     (crossed a device adoption), recovering in place"
                ),
            );
            return false;
        }
        let barrier = manager
            .latest_snapshot()
            .map_or(0, |(at, _)| at as usize)
            .min(records.len());
        let suffix = records.split_off(barrier);
        let image = SnapshotImage {
            shard: s as u32,
            epoch: fo.fences[s].current(),
            fingerprint: dur.fingerprints[s],
            prefix: records,
            suffix,
        };
        let bytes = image.encode();
        let shipment = ship_bytes(&bytes, &fo.config.ship, &mut fo.rng)
            .unwrap_or_else(|e| panic!("shard {s}: snapshot image transfer failed: {e}"));
        // Decode what actually arrived — the receiver's integrity gate. A
        // torn or corrupt image is refused loudly, never replayed.
        let verified = SnapshotImage::decode(&shipment.bytes)
            .unwrap_or_else(|e| panic!("shard {s}: shipped snapshot image refused: {e}"));
        assert_eq!(verified.shard, s as u32, "image shard identity mismatch");
        assert_eq!(
            verified.fingerprint, dur.fingerprints[s],
            "image genesis fingerprint mismatch"
        );
        let replayed = verified.records().len() as u64;
        let recovered = restore_from_image(&dur.specs[s], &verified, dur.fingerprints[s])
            .unwrap_or_else(|e| panic!("shard {s}: image replay failed: {e}"));
        // The replay ran the crash-truncated tail to its deadline; write
        // that re-derived history back so the log stays complete.
        manager.append_all(recovered.appended);
        let mut engine = recovered.engine;
        engine.attach_wal(manager.handle());
        let new_host = fo.next_host;
        fo.next_host += 1;
        let ready_at = now + fo.config.rebuild_delay + shipment.elapsed;
        fo.rebuilds[s] = Some(PendingRebuild {
            engine,
            ready_at,
            detected_at: now,
            old_host: fo.hosts[s],
            new_host,
            bytes_shipped: bytes.len() as u64,
            ship_rounds: shipment.rounds,
            replayed,
        });
        if let Some(m) = obs {
            m.incr("aorta_failover_started", &[], 1);
        }
        trace.emit(
            now,
            "gateway",
            format!(
                "shard {s}: process crash detected, {} B image shipped to host {new_host} \
                 in {} round(s), rebuild in flight",
                bytes.len(),
                shipment.rounds
            ),
        );
        true
    }

    /// Cross-host failover, phase 2: the degraded window elapsed — swap the
    /// rebuilt engine in under a bumped epoch on its fresh host, then let
    /// the gateway drain whatever the replay re-derived into its escalation
    /// buffer (the dead incarnation's in-flight work, reconciled exactly
    /// once: the corpse was never drained).
    fn adopt_rebuild(&mut self, s: usize) {
        let (rebuild, epoch) = {
            let fo = self.failover.as_mut().expect("gated by caller");
            let rebuild = fo.rebuilds[s].take().expect("gated by caller");
            let epoch = fo.fences[s].bump();
            fo.hosts[s] = rebuild.new_host;
            (rebuild, epoch)
        };
        let mut engine = rebuild.engine;
        engine.set_identity(rebuild.new_host, epoch);
        self.shards[s] = *engine;
        self.trace.emit(
            self.now,
            "gateway",
            format!(
                "shard {s}: failover complete, host {} -> {} under epoch {epoch} \
                 ({} records replayed, {} B shipped)",
                rebuild.old_host, rebuild.new_host, rebuild.replayed, rebuild.bytes_shipped
            ),
        );
        if let Some(m) = &self.obs {
            m.incr("aorta_failover_completed", &[], 1);
            m.span(
                SpanKind::Failover,
                rebuild.detected_at,
                rebuild.ready_at - rebuild.detected_at,
                &format!(
                    "s{s} host {}->{} epoch={epoch} shipped={}B rounds={}",
                    rebuild.old_host, rebuild.new_host, rebuild.bytes_shipped, rebuild.ship_rounds
                ),
            );
        }
        let fo = self.failover.as_mut().expect("gated by caller");
        fo.events.push(FailoverEvent {
            shard: s,
            old_host: rebuild.old_host,
            new_host: rebuild.new_host,
            epoch,
            detected_at: rebuild.detected_at,
            ready_at: rebuild.ready_at,
            bytes_shipped: rebuild.bytes_shipped,
            ship_rounds: rebuild.ship_rounds,
            records_replayed: rebuild.replayed,
        });
        // Reconcile at the epoch bump: the replay re-derived every
        // escalation the dead incarnation held; drain them through the
        // normal (parked, backed-off) path under the new epoch.
        self.route_escalated(s);
    }

    /// Parks an escalation at the gateway for backed-off delivery — the
    /// probe layer's seeded-jitter exponential backoff, not an immediate
    /// re-injection.
    fn park(&mut self, from: usize, request: ActionRequest, attempt: u32) {
        let now = self.now;
        let query_id = request.query_id;
        let fo = self.failover.as_mut().expect("gated by caller");
        let retry = fo.config.retry;
        let jitter = SimDuration::from_micros(fo.rng.range(0..=retry.jitter().as_micros()));
        // Always strictly in the future, so a zero-backoff policy cannot
        // spin the gateway at one instant.
        let next_at =
            (now + retry.backoff_after(attempt) + jitter).max(now + SimDuration::from_micros(1));
        let seq = fo.next_seq;
        fo.next_seq += 1;
        fo.waiting.push(Parked {
            request,
            from,
            attempt,
            next_at,
            seq,
        });
        if let Some(m) = &self.obs {
            m.incr("aorta_gateway_parked", &[], 1);
        }
        self.trace.emit(
            now,
            "gateway",
            format!("query {query_id}: escalation from s{from} parked (attempt {attempt})"),
        );
    }

    /// Delivers (or re-parks, or terminally resolves) one parked
    /// escalation whose backoff elapsed.
    fn deliver_parked(&mut self, parked: Parked) {
        let Parked {
            mut request,
            from,
            attempt,
            ..
        } = parked;
        if request.deadline != SimTime::MAX && self.now >= request.deadline {
            self.gateway_expired += 1;
            if let Some(m) = &self.obs {
                m.incr("aorta_gateway_expired", &[], 1);
            }
            self.trace.emit(
                self.now,
                "gateway",
                format!(
                    "query {}: deadline passed while parked, escalation dropped",
                    request.query_id
                ),
            );
            return;
        }
        if request.hops as usize + 1 >= self.shards.len() {
            self.drop_request(&request, "visited every shard");
            return;
        }
        // Select among siblings that are alive, reachable (no active
        // partition window on the from→to path), and whose cheapest
        // estimate fits the remaining deadline budget.
        let eligible: Vec<bool> = (0..self.shards.len())
            .map(|t| {
                t != from
                    && !self.shards[t].is_crashed()
                    && !self.is_rebuilding(t)
                    && !self.blocked(from, t)
            })
            .collect();
        match self.cheapest_sibling(&request, &eligible) {
            Some((cost, t, device)) => {
                request.hops += 1;
                self.rerouted += 1;
                if let Some(m) = &self.obs {
                    m.incr("aorta_gateway_rerouted", &[], 1);
                    m.span(
                        SpanKind::GatewayRoute,
                        self.now,
                        SimDuration::ZERO,
                        &format!(
                            "query={} s{from}->s{t} device={device} estimate={cost} \
                             attempt={attempt}",
                            request.query_id
                        ),
                    );
                }
                self.trace.emit(
                    self.now,
                    "gateway",
                    format!(
                        "query {}: delivered s{from} -> s{t} on attempt {attempt} \
                         (cheapest {device}, estimate {cost})",
                        request.query_id
                    ),
                );
                self.shards[t].inject_request(request);
            }
            None => {
                let budget = self
                    .failover
                    .as_ref()
                    .expect("gated by caller")
                    .config
                    .retry
                    .max_attempts();
                if attempt < budget {
                    self.park(from, request, attempt + 1);
                } else {
                    self.drop_request(&request, "no eligible sibling within the retry budget");
                }
            }
        }
    }

    /// The cheapest device any eligible sibling offers for `request`, as
    /// `(cost, shard, device)`; ties break on the lower shard ID. Every
    /// eligible sibling is asked in shard order (the probe draws from its
    /// RNG and logs a `RouteProbe`). A sibling whose cheapest estimate
    /// already overruns the remaining deadline budget is no better than no
    /// sibling at all.
    fn cheapest_sibling(
        &mut self,
        request: &ActionRequest,
        eligible: &[bool],
    ) -> Option<(SimDuration, usize, DeviceId)> {
        let now = self.now;
        let mut best: Option<(SimDuration, usize, DeviceId)> = None;
        for (t, shard) in self.shards.iter_mut().enumerate() {
            if !eligible[t] {
                continue;
            }
            if let Some((device, cost)) = shard.cheapest_local_candidate(request) {
                if now + cost <= request.deadline
                    && best.is_none_or(|(bc, bt, _)| (cost, t) < (bc, bt))
                {
                    best = Some((cost, t, device));
                }
            }
        }
        best
    }

    /// True while shard slot `s` awaits adoption of a cross-host rebuild.
    fn is_rebuilding(&self, s: usize) -> bool {
        self.failover
            .as_ref()
            .is_some_and(|fo| fo.rebuilds[s].is_some())
    }

    /// Takes cadence snapshots of any shard whose log has grown past the
    /// configured frame budget since its last snapshot.
    fn maybe_snapshots(&mut self) {
        let ShardManager {
            durability,
            failover,
            shards,
            ..
        } = self;
        let Some(dur) = durability else { return };
        for (s, manager) in dur.managers.iter_mut().enumerate() {
            // Never snapshot a corpse awaiting a cross-host rebuild: the
            // halted engine's image would poison later recoveries.
            if failover.as_ref().is_some_and(|fo| fo.rebuilds[s].is_some()) {
                continue;
            }
            manager.maybe_snapshot(|| shards[s].fork_snapshot());
        }
    }

    /// Advances the shared virtual clock by `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.run_until(self.now + duration);
    }

    /// Drains shard `s`'s escalation buffer and re-routes each request to
    /// the sibling offering the cheapest eligible device (ties break on the
    /// lower shard ID). A request that has already visited every shard, or
    /// for which no sibling has an eligible device, is terminally dropped —
    /// and counted, never lost.
    fn route_escalated(&mut self, s: usize) {
        // A corpse awaiting cross-host rebuild is never drained: its
        // buffered escalations are re-derived by the replay, so draining
        // both would double-count the same work. The backlog stays visible
        // as in-flight (`gateway_parked`) until adoption.
        if self.failover.is_some() && self.shards[s].is_crashed() {
            return;
        }
        // An empty hand-off is not a command: the drain (and its WAL
        // record) happens only when the buffer holds something, so quiet
        // `RunUntil` frames stay adjacent in the log and coalesce.
        if self.shards[s].escalated_backlog() == 0 {
            return;
        }
        let escalated = self.shards[s].drain_escalated();
        if let Some(m) = &self.obs {
            let shard = s.to_string();
            m.incr(
                "aorta_gateway_escalations",
                &[("from", shard.as_str())],
                escalated.len() as u64,
            );
        }
        for mut request in escalated {
            // The deadline rides with the request: an escalation carries its
            // *remaining* budget, never a fresh one — so a request cannot
            // ping-pong between shards past the instant its result became
            // worthless. Expired escalations are counted, not retried.
            if request.deadline != SimTime::MAX && self.now >= request.deadline {
                self.gateway_expired += 1;
                if let Some(m) = &self.obs {
                    m.incr("aorta_gateway_expired", &[], 1);
                }
                self.trace.emit(
                    self.now,
                    "gateway",
                    format!(
                        "query {}: deadline passed in flight, escalation dropped",
                        request.query_id
                    ),
                );
                continue;
            }
            if request.hops as usize + 1 >= self.shards.len() {
                self.drop_request(&request, "visited every shard");
                continue;
            }
            // With failover on, the gateway never re-injects immediately:
            // every escalation parks for a backed-off, jittered delivery
            // (and degraded-mode routing happens at delivery time, when
            // shard liveness and partition windows are re-checked).
            if self.failover.is_some() {
                self.park(s, request, 1);
                continue;
            }
            // Partition windows apply even without failover (they only
            // exist when a plan injected them): a blocked path is not
            // probed at all — no message can travel it. A halted shard
            // is never quoted: an injection would sit in its queue forever.
            let reachable: Vec<bool> = (0..self.shards.len())
                .map(|t| t != s && !self.shards[t].is_crashed() && !self.blocked(s, t))
                .collect();
            match self.cheapest_sibling(&request, &reachable) {
                Some((cost, t, device)) => {
                    request.hops += 1;
                    self.rerouted += 1;
                    if let Some(m) = &self.obs {
                        m.incr("aorta_gateway_rerouted", &[], 1);
                        m.span(
                            SpanKind::GatewayRoute,
                            self.now,
                            SimDuration::ZERO,
                            &format!(
                                "query={} s{s}->s{t} device={device} estimate={cost}",
                                request.query_id
                            ),
                        );
                    }
                    self.trace.emit(
                        self.now,
                        "gateway",
                        format!(
                            "query {}: rerouted s{s} -> s{t} (cheapest {device}, estimate {cost})",
                            request.query_id
                        ),
                    );
                    self.shards[t].inject_request(request);
                }
                None => self.drop_request(&request, "no eligible device on any sibling"),
            }
        }
    }

    fn drop_request(&mut self, request: &ActionRequest, why: &str) {
        self.gateway_dropped += 1;
        if let Some(m) = &self.obs {
            m.incr("aorta_gateway_dropped", &[], 1);
        }
        self.trace.emit(
            self.now,
            "gateway",
            format!("query {}: {why}, request dropped", request.query_id),
        );
    }

    /// Migrates one camera's ownership from the most backlogged shard to
    /// the least when the pending-request gap exceeds the configured
    /// threshold. Only a device at a safe point moves: online, no queued
    /// execution, no lock held, no action mid-flight — so no in-flight
    /// state is torn. The source always keeps at least one camera.
    fn maybe_rebalance(&mut self) {
        if self.shards.len() < 2 || self.config.imbalance_threshold == u64::MAX {
            return;
        }
        // Never migrate devices while a shard is dead or mid-rebuild: the
        // corpse's registry is frozen and the replacement's is in flight.
        if self.failover.is_some() && self.shards.iter().any(Aorta::is_crashed) {
            return;
        }
        let depths: Vec<u64> = self.shards.iter().map(|s| s.pending_requests()).collect();
        let (max_s, &max_d) = depths
            .iter()
            .enumerate()
            .max_by_key(|&(s, &d)| (d, std::cmp::Reverse(s)))
            .expect("at least two shards");
        let (min_s, &min_d) = depths
            .iter()
            .enumerate()
            .min_by_key(|&(s, &d)| (d, s))
            .expect("at least two shards");
        if max_s == min_s || max_d - min_d < self.config.imbalance_threshold {
            return;
        }
        let source = &self.shards[max_s];
        let cameras = source.registry().ids_of_kind(DeviceKind::Camera);
        if cameras.len() < 2 {
            return;
        }
        let Some(d) = cameras
            .into_iter()
            .find(|&d| source.registry().get(d).is_some_and(|e| e.online) && source.device_idle(d))
        else {
            return;
        };
        let Some(entry) = self.shards[max_s].migrate_out(d) else {
            return;
        };
        self.shards[min_s].migrate_in(entry);
        self.migrations += 1;
        // Snapshot barrier: the destination's MigrateIn record carries no
        // device state (the adopted entry is a live image), so both shards
        // vault an image *now* — no replay suffix ever has to cross the
        // migration.
        {
            let ShardManager {
                durability, shards, ..
            } = self;
            if let Some(dur) = durability {
                dur.managers[max_s].force_snapshot(|| shards[max_s].fork_snapshot());
                dur.managers[min_s].force_snapshot(|| shards[min_s].fork_snapshot());
            }
        }
        if let Some(m) = &self.obs {
            m.incr("aorta_gateway_migrations", &[], 1);
        }
        self.trace.emit(
            self.now,
            "gateway",
            format!("migrated {d}: s{max_s} (backlog {max_d}) -> s{min_s} (backlog {min_d})"),
        );
    }

    /// Aggregated cluster statistics. After [`ShardManager::run_until`]
    /// returns, [`ClusterStats::check_conservation`] holds: every admitted
    /// request is terminally resolved on some shard, visibly pending, or
    /// counted dropped by the gateway.
    pub fn stats(&self) -> ClusterStats {
        let (gateway_parked, failovers, zombie_rejects) = match &self.failover {
            Some(fo) => (
                // Parked escalations, plus the undrained backlog of any
                // corpse awaiting rebuild (in-flight work the replay will
                // re-derive) — both are "at the gateway", not lost.
                fo.waiting.len() as u64
                    + (0..self.shards.len())
                        .filter(|&s| fo.rebuilds[s].is_some())
                        .map(|s| self.shards[s].escalated_backlog())
                        .sum::<u64>(),
                fo.events.len() as u64,
                fo.fences.iter().map(EpochFence::rejected).sum(),
            ),
            None => (0, 0, 0),
        };
        ClusterStats {
            per_shard: self.shards.iter().map(Aorta::stats).collect(),
            pending: self.pending_requests(),
            rerouted: self.rerouted,
            gateway_dropped: self.gateway_dropped,
            gateway_expired: self.gateway_expired,
            gateway_parked,
            migrations: self.migrations,
            failovers,
            zombie_rejects,
        }
    }

    /// Pending requests summed over shards.
    pub fn pending_requests(&self) -> u64 {
        self.shards.iter().map(Aorta::pending_requests).sum()
    }

    /// The shared virtual clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A shard's engine (introspection).
    pub fn shard(&self, s: usize) -> &Aorta {
        &self.shards[s]
    }

    /// Mutable access to a shard's engine (e.g. dynamic membership via
    /// [`Aorta::registry_mut`]).
    pub fn shard_mut(&mut self, s: usize) -> &mut Aorta {
        &mut self.shards[s]
    }

    /// The gateway's own trace (reroutes, drops, migrations).
    pub fn gateway_trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// The durability report: per-shard log counters, snapshots, and
    /// recovery bookkeeping. `None` unless the cluster was configured with
    /// a WAL.
    pub fn wal_report(&self) -> Option<WalReport> {
        let dur = self.durability.as_ref()?;
        Some(WalReport {
            per_shard: dur.managers.iter().map(|m| m.stats()).collect(),
            snapshots: dur.managers.iter().map(|m| m.snapshots_taken()).collect(),
            recoveries: dur.recoveries,
            records_replayed: dur.records_replayed,
            recovery_wall_ms: dur.recovery_wall_ms.clone(),
        })
    }

    /// Crash recoveries performed so far (0 without a WAL).
    pub fn recoveries(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.recoveries)
    }

    /// Every completed cross-host failover, in adoption order. Empty
    /// without failover configured.
    pub fn failover_report(&self) -> Vec<FailoverEvent> {
        self.failover
            .as_ref()
            .map_or_else(Vec::new, |fo| fo.events.clone())
    }

    /// Stale-epoch deliveries the gateway's fences refused (counted, never
    /// applied). Zero without failover configured.
    pub fn zombie_rejects(&self) -> u64 {
        self.failover
            .as_ref()
            .map_or(0, |fo| fo.fences.iter().map(EpochFence::rejected).sum())
    }

    /// The incarnation epoch the gateway believes current for shard slot
    /// `s` (1 until the first failover; without failover, always 1).
    pub fn shard_epoch(&self, s: usize) -> u64 {
        self.failover
            .as_ref()
            .map_or(1, |fo| fo.fences[s].current())
    }

    /// The host currently running shard slot `s` (host `s` until the first
    /// failover; every failover adopts on a fresh host id).
    pub fn shard_host(&self, s: usize) -> u32 {
        self.failover.as_ref().map_or(s as u32, |fo| fo.hosts[s])
    }

    /// Escalations currently parked in the gateway's backoff queue.
    pub fn parked_requests(&self) -> u64 {
        self.failover
            .as_ref()
            .map_or(0, |fo| fo.waiting.len() as u64)
    }

    /// Delivers an escalation message claiming to come from incarnation
    /// `epoch` of shard slot `from` — the zombie path made explicit. A
    /// message stamped with a fenced-off (stale) epoch is refused and
    /// counted in [`Self::zombie_rejects`], never applied: this is how a
    /// partition-isolated old incarnation's late messages die. A message
    /// stamped with the current epoch is admitted into the normal parked
    /// delivery path and `true` is returned — the caller then vouches that
    /// some shard's `escalated_out` covers the request, or the conservation
    /// ledger will (correctly) flag the orphan.
    ///
    /// # Panics
    ///
    /// Panics when failover is not configured, or when `epoch` is *ahead*
    /// of the fence (a message from the future is a logic bug, not a
    /// zombie).
    pub fn inject_escalation(&mut self, from: usize, epoch: u64, request: ActionRequest) -> bool {
        assert!(
            self.failover.is_some(),
            "inject_escalation requires failover (epoch fences) to be configured"
        );
        let admitted = self.failover.as_mut().expect("checked above").fences[from].admit(epoch);
        if !admitted {
            let current = self.shard_epoch(from);
            if let Some(m) = &self.obs {
                m.incr("aorta_zombie_rejects", &[], 1);
            }
            self.trace.emit(
                self.now,
                "gateway",
                format!(
                    "query {}: stale-epoch escalation from s{from} \
                     (epoch {epoch}, fence at {current}) rejected",
                    request.query_id
                ),
            );
            return false;
        }
        self.park(from, request, 1);
        true
    }

    /// The WAL's own metrics registry (append/recovery series), kept apart
    /// from the deterministic cluster snapshot. `None` without a WAL.
    pub fn wal_metrics_snapshot(&self) -> Option<MetricsRegistry> {
        self.durability.as_ref().map(|d| d.obs.snapshot())
    }

    /// Requests the gateway re-routed to a sibling shard.
    pub fn rerouted(&self) -> u64 {
        self.rerouted
    }

    /// Device ownership transfers performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// A cluster-wide metrics snapshot: the gateway's own series plus every
    /// shard's registry folded in under a `shard` label. `None` unless the
    /// engine template enabled observability.
    pub fn metrics_snapshot(&self) -> Option<MetricsRegistry> {
        let obs = self.obs.as_ref()?;
        let mut snap = obs.snapshot();
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(shard_snap) = shard.metrics() {
                let label = s.to_string();
                snap.merge_labeled(&shard_snap, "shard", &label);
            }
        }
        Some(snap)
    }

    /// The cluster metrics snapshot rendered as JSON.
    pub fn metrics_json(&self) -> Option<String> {
        self.metrics_snapshot().map(|s| s.to_json())
    }

    /// The cluster metrics snapshot rendered as Prometheus text.
    pub fn metrics_prometheus(&self) -> Option<String> {
        self.metrics_snapshot().map(|s| s.to_prometheus())
    }

    /// The full cluster trace: every shard's engine trace prefixed with
    /// its shard ID, then the gateway trace — the byte-identical artifact
    /// cluster determinism is asserted on.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for line in shard.trace().render().lines() {
                out.push_str(&format!("[s{s}] {line}\n"));
            }
        }
        for line in self.trace.render().lines() {
            out.push_str(&format!("[gw] {line}\n"));
        }
        out
    }
}

/// An end-to-end observability demo on a fixed scenario: a two-shard
/// cluster with observability on, a mid-run camera crash to exercise probe
/// timeouts, breaker-free failover and gateway routing, and one scheduler
/// benchmark run folded in for the per-algorithm series. Returns the
/// `(JSON, Prometheus)` exports.
///
/// Everything inside runs on the virtual clock with seeded randomness and
/// integer-only exports, so the same `seed` yields byte-identical strings
/// on any platform — the invariant `tests/determinism.rs` asserts.
pub fn metrics_demo(seed: u64) -> (String, String) {
    use aorta_sched::{run_algorithm, workload, Algorithm};
    use aorta_sim::{CpuModel, FaultEvent, SimRng};

    let mut config = ClusterConfig::seeded(seed, 2);
    config.engine = config.engine.with_observability();
    let lab = PervasiveLab::with_sizes(6, 8, 0)
        .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO);
    let mut cluster = ShardManager::new(config, lab);
    for i in 0..4 {
        cluster
            .execute_sql(&format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .expect("demo query registers");
    }
    let mut plan = FaultPlan::new();
    plan.schedule(
        SimTime::ZERO + SimDuration::from_secs(90),
        FaultEvent::Crash(DeviceId::camera(0)),
    );
    cluster.inject_faults(plan);
    cluster.run_for(SimDuration::from_mins(5));

    let mut snap = cluster
        .metrics_snapshot()
        .expect("observability is enabled above");
    let cpu = CpuModel::paper_notebook();
    let (inst, model) = workload::uniform_targets(20, 10, &mut SimRng::seed(seed));
    let mut rng = SimRng::seed(seed ^ 0xA0A0_A0A0);
    run_algorithm(&Algorithm::LerfaSrfe, &inst, &model, &cpu, &mut rng).record_into(&mut snap);
    (snap.to_json(), snap.to_prometheus())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_sim::FaultEvent;
    use aorta_wal::LifecycleStage;

    const RUN: SimDuration = SimDuration::from_mins(10);

    fn lab() -> PervasiveLab {
        PervasiveLab::with_sizes(12, 16, 0)
            .with_periodic_events(SimDuration::from_mins(1), SimDuration::ZERO)
    }

    fn admit_queries(cluster: &mut ShardManager, coverage: bool) {
        for i in 0..10 {
            let pred = if coverage {
                " AND coverage(c.id, s.loc)"
            } else {
                ""
            };
            cluster
                .execute_sql(&format!(
                    r#"CREATE AQ q{i} AS
                       SELECT photo(c.ip, s.loc, "p")
                       FROM sensor s, camera c
                       WHERE s.accel_x > 500 AND s.id = {i}{pred}"#
                ))
                .unwrap();
        }
    }

    #[test]
    fn ddl_broadcasts_to_every_shard() {
        let mut cluster = ShardManager::new(ClusterConfig::seeded(3, 4), lab());
        admit_queries(&mut cluster, true);
        for s in 0..cluster.shard_count() {
            assert_eq!(
                cluster.shard(s).catalog().query_count(),
                10,
                "shard {s} missed the broadcast"
            );
        }
    }

    #[test]
    fn every_device_lands_on_exactly_one_shard() {
        let cluster = ShardManager::new(ClusterConfig::seeded(9, 4), lab());
        let mut total = 0;
        for s in 0..cluster.shard_count() {
            let r = cluster.shard(s).registry();
            total +=
                r.ids_of_kind(DeviceKind::Camera).len() + r.ids_of_kind(DeviceKind::Sensor).len();
        }
        assert_eq!(total, 12 + 16, "lost or duplicated devices");
        for c in 0..12u32 {
            assert!(cluster.shard_owning(DeviceId::camera(c)).is_some());
        }
    }

    #[test]
    fn dead_stripe_fails_over_to_sibling_shard() {
        // Two stripe shards; kill shard 0's entire camera block before any
        // event fires. Shard 0 still detects events on its motes, exhausts
        // its (all-dead) candidates, and the gateway must re-route to s1.
        let mut cluster = ShardManager::new(
            ClusterConfig::seeded(11, 2).with_imbalance_threshold(u64::MAX),
            lab(),
        );
        admit_queries(&mut cluster, false);
        let mut plan = FaultPlan::new();
        for c in 0..12u32 {
            let id = DeviceId::camera(c);
            if cluster.shard_owning(id) == Some(0) {
                plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
            }
        }
        assert!(!plan.is_empty(), "stripe 0 owned no cameras");
        cluster.inject_faults(plan);
        cluster.run_for(RUN);

        let stats = cluster.stats();
        stats.check_conservation().unwrap();
        assert!(
            cluster.rerouted() > 0,
            "no cross-shard failover happened: {stats:?}"
        );
        assert!(cluster.gateway_trace().any("gateway", "rerouted s0 -> s1"));
        assert!(
            stats.per_shard[1].escalated_in > 0,
            "sibling adopted nothing: {stats:?}"
        );
    }

    #[test]
    fn gateway_never_routes_into_a_halted_shard() {
        // No WAL, so a process-crashed shard stays dead. Shard 1's cameras
        // all crash at once, then shard 0's process dies: every escalation
        // shard 1 raises has no live sibling and must be counted dropped,
        // not injected into the halted engine to sit there forever.
        let mut cluster = ShardManager::new(
            ClusterConfig::seeded(11, 2).with_imbalance_threshold(u64::MAX),
            lab(),
        );
        admit_queries(&mut cluster, false);
        let mut plan = FaultPlan::new();
        for c in 0..12u32 {
            let id = DeviceId::camera(c);
            if cluster.shard_owning(id) == Some(1) {
                plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
            }
        }
        let victim = DeviceId::camera(0);
        assert_eq!(cluster.shard_owning(victim), Some(0));
        plan.schedule(SimTime::from_micros(2), FaultEvent::ProcessCrash(victim));
        cluster.inject_faults(plan);
        cluster.run_for(RUN);

        let stats = cluster.stats();
        stats.check_conservation().unwrap();
        assert!(cluster.shard(0).is_crashed(), "no wal, no recovery");
        assert_eq!(cluster.rerouted(), 0, "{stats:?}");
        assert_eq!(stats.per_shard[0].escalated_in, 0, "{stats:?}");
        assert!(stats.per_shard[1].escalated_out > 0, "{stats:?}");
        assert_eq!(
            stats.gateway_dropped, stats.per_shard[1].escalated_out,
            "{stats:?}"
        );
    }

    /// Random device crashes and loss bursts across the whole fleet of
    /// [`lab`], dense enough that shards exhaust their candidates and
    /// escalate.
    fn crash_storm(seed: u64) -> FaultPlan<DeviceId> {
        let devices: Vec<DeviceId> = (0..12)
            .map(DeviceId::camera)
            .chain((0..16).map(DeviceId::sensor))
            .collect();
        let config = aorta_sim::FaultConfig {
            crash_rate: 0.25,
            loss_burst_rate: 0.3,
            extra_loss: 0.5,
            ..aorta_sim::FaultConfig::default()
        };
        let plan = FaultPlan::generate(seed, RUN, &devices, &config);
        assert!(!plan.is_empty());
        plan
    }

    #[test]
    fn conservation_holds_under_cluster_wide_crash_storm() {
        let mut cluster = ShardManager::new(ClusterConfig::seeded(21, 4), lab());
        admit_queries(&mut cluster, true);
        cluster.inject_faults(crash_storm(0xBEEF));
        cluster.run_for(RUN);

        let stats = cluster.stats();
        assert!(stats.requests() >= 10, "storm starved workload: {stats:?}");
        stats.check_conservation().unwrap();
    }

    /// An eligible (rebalance-off, WAL-off) config for the parallel path.
    fn parallel_config(seed: u64, shards: usize, threads: usize) -> ClusterConfig {
        ClusterConfig::seeded(seed, shards)
            .with_imbalance_threshold(u64::MAX)
            .with_threads(threads)
    }

    #[test]
    fn threads_default_to_auto_and_resolve_to_host_cores() {
        // The pool is on by default: `threads: 0` means one worker per
        // host core, no feature flag, no opt-in.
        let config = ClusterConfig::default();
        assert_eq!(config.threads, 0, "default must be auto");
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(config.effective_threads(), host);
        assert_eq!(config.with_threads(3).effective_threads(), 3);
    }

    #[test]
    fn parallel_windows_match_oracle_on_clean_wave() {
        // No faults → no escalations → the whole run is one clean window
        // committed straight from the clones.
        for shards in [2, 4] {
            let run = |threads: usize| {
                let mut cluster = ShardManager::new(parallel_config(29, shards, threads), lab());
                admit_queries(&mut cluster, true);
                cluster.run_for(RUN);
                (cluster.stats(), cluster.render_trace())
            };
            let oracle = run(1);
            for threads in [2, 4, 8] {
                assert_eq!(
                    run(threads),
                    oracle,
                    "threads={threads} shards={shards} diverged from the oracle"
                );
            }
        }
    }

    #[test]
    fn parallel_windows_match_oracle_under_escalation_fallback() {
        // The dead-stripe scenario: shard 0's cameras all die, every one of
        // its detections escalates — each window trips and replays through
        // the sequential oracle, and with more trips than the hysteresis
        // budget the run also exercises the finish-sequentially path.
        let run = |threads: usize| {
            let mut cluster = ShardManager::new(parallel_config(11, 2, threads), lab());
            admit_queries(&mut cluster, false);
            let mut plan = FaultPlan::new();
            for c in 0..12u32 {
                let id = DeviceId::camera(c);
                if cluster.shard_owning(id) == Some(0) {
                    plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
                }
            }
            cluster.inject_faults(plan);
            cluster.run_for(RUN);
            (cluster.stats(), cluster.render_trace())
        };
        let (oracle_stats, oracle_trace) = run(1);
        assert!(oracle_stats.rerouted > 0, "scenario must actually escalate");
        oracle_stats.check_conservation().unwrap();
        for threads in [2, 4, 8] {
            let (stats, trace) = run(threads);
            assert_eq!(stats, oracle_stats, "threads={threads} stats diverged");
            assert_eq!(trace, oracle_trace, "threads={threads} trace diverged");
        }
    }

    #[test]
    fn parallel_windows_match_oracle_under_crash_storm() {
        // Escalations land at arbitrary instants, so windows trip at
        // arbitrary points.
        for seed in [21, 0xBEEF] {
            let run = |threads: usize| {
                let mut cluster = ShardManager::new(parallel_config(seed, 4, threads), lab());
                admit_queries(&mut cluster, true);
                cluster.inject_faults(crash_storm(seed));
                cluster.run_for(RUN);
                (cluster.stats(), cluster.render_trace())
            };
            let oracle = run(1);
            oracle.0.check_conservation().unwrap();
            for threads in [2, 8] {
                assert_eq!(run(threads), oracle, "seed={seed} threads={threads}");
            }
        }
    }

    #[test]
    fn process_crash_exactly_at_the_deadline_is_recovered_not_stranded() {
        // Regression guard for the run_until tail: a ProcessCrash landing
        // exactly at the deadline must still be recovered (WAL) and its
        // escalations routed before run_until returns. (The main loop
        // already treats pending faults as next-event work, so the crash
        // is stepped in-loop; the tail's recover/route follow-ups are the
        // backstop this test pins down.)
        let deadline = SimTime::ZERO + RUN;
        let mut config = ClusterConfig::seeded(33, 2).with_wal(128);
        config.imbalance_threshold = u64::MAX;
        let mut cluster = ShardManager::new(config, lab());
        admit_queries(&mut cluster, true);
        let mut plan = FaultPlan::new();
        plan.schedule(deadline, FaultEvent::ProcessCrash(DeviceId::camera(0)));
        cluster.inject_faults(plan);
        cluster.run_until(deadline);
        assert_eq!(cluster.recoveries(), 1, "deadline-edge crash not recovered");
        for s in 0..cluster.shard_count() {
            assert!(
                !cluster.shard(s).is_crashed(),
                "shard {s} left dead at the deadline"
            );
            assert_eq!(
                cluster.shard(s).escalated_backlog(),
                0,
                "shard {s} left an unrouted escalation at the deadline"
            );
        }
        cluster.stats().check_conservation().unwrap();
    }

    #[test]
    fn escalation_exactly_at_the_deadline_is_routed_not_stranded() {
        // Same edge from the escalation side: stop the run exactly on a
        // detection epoch, when the dead-stripe shard escalates at the
        // final instant. The escalation must be drained and routed (or
        // terminally counted) before run_until returns.
        let mut cluster = ShardManager::new(parallel_config(11, 2, 1), lab());
        admit_queries(&mut cluster, false);
        let mut plan = FaultPlan::new();
        for c in 0..12u32 {
            let id = DeviceId::camera(c);
            if cluster.shard_owning(id) == Some(0) {
                plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
            }
        }
        cluster.inject_faults(plan);
        // Periodic events fire every minute; stop exactly on an epoch.
        cluster.run_until(SimTime::ZERO + SimDuration::from_mins(1));
        for s in 0..cluster.shard_count() {
            assert_eq!(
                cluster.shard(s).escalated_backlog(),
                0,
                "shard {s} stranded an escalation at the deadline"
            );
        }
        assert!(
            cluster.rerouted() + cluster.stats().gateway_dropped > 0,
            "the deadline-instant escalation was neither routed nor counted"
        );
        cluster.stats().check_conservation().unwrap();
    }

    #[test]
    fn rebalancer_migrates_ownership_at_a_safe_point() {
        let mut config = ClusterConfig::seeded(5, 2);
        config.imbalance_threshold = 1;
        let mut cluster = ShardManager::new(config, lab());
        admit_queries(&mut cluster, true);
        let before: Vec<usize> = (0..2)
            .map(|s| {
                cluster
                    .shard(s)
                    .registry()
                    .ids_of_kind(DeviceKind::Camera)
                    .len()
            })
            .collect();
        cluster.run_for(RUN);

        let stats = cluster.stats();
        stats.check_conservation().unwrap();
        assert!(stats.migrations > 0, "no migration fired: {stats:?}");
        assert!(cluster.gateway_trace().any("gateway", "migrated"));
        let after: Vec<usize> = (0..2)
            .map(|s| {
                cluster
                    .shard(s)
                    .registry()
                    .ids_of_kind(DeviceKind::Camera)
                    .len()
            })
            .collect();
        assert_eq!(
            before.iter().sum::<usize>(),
            after.iter().sum::<usize>(),
            "migration must not lose devices"
        );
        assert_ne!(before, after, "ownership should actually have moved");
        assert!(
            after.iter().all(|&c| c >= 1),
            "source gave away its last camera"
        );
    }

    #[test]
    fn metrics_snapshot_merges_shards_and_gateway() {
        let mut config = ClusterConfig::seeded(11, 2).with_imbalance_threshold(u64::MAX);
        config.engine = config.engine.with_observability();
        let mut cluster = ShardManager::new(config, lab());
        admit_queries(&mut cluster, false);
        // Kill shard 0's cameras so the gateway reroutes (as in
        // `dead_stripe_fails_over_to_sibling_shard`).
        let mut plan = FaultPlan::new();
        for c in 0..12u32 {
            let id = DeviceId::camera(c);
            if cluster.shard_owning(id) == Some(0) {
                plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
            }
        }
        cluster.inject_faults(plan);
        cluster.run_for(RUN);
        assert!(cluster.rerouted() > 0);

        let snap = cluster.metrics_snapshot().expect("observability is on");
        assert_eq!(
            snap.counter_total("aorta_gateway_rerouted"),
            cluster.rerouted(),
            "gateway counter must agree with the stats ledger"
        );
        let stats = cluster.stats();
        let per_shard_events: u64 = (0..2)
            .map(|s| {
                snap.counter(
                    "aorta_engine_events_detected",
                    &[("shard", s.to_string().as_str())],
                )
            })
            .sum();
        let total_events: u64 = stats.per_shard.iter().map(|s| s.events_detected).sum();
        assert_eq!(
            per_shard_events, total_events,
            "shard label merge lost data"
        );
        // Observability never changes behavior: the same cluster without it
        // produces identical engine statistics.
        let mut plain = ShardManager::new(
            ClusterConfig::seeded(11, 2).with_imbalance_threshold(u64::MAX),
            lab(),
        );
        admit_queries(&mut plain, false);
        let mut plan = FaultPlan::new();
        for c in 0..12u32 {
            let id = DeviceId::camera(c);
            if plain.shard_owning(id) == Some(0) {
                plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
            }
        }
        plain.inject_faults(plan);
        plain.run_for(RUN);
        assert_eq!(plain.stats(), stats, "recording must be write-only");
    }

    #[test]
    fn wal_cluster_is_byte_identical_to_unlogged() {
        let run = |wal: bool| {
            let mut config = ClusterConfig::seeded(13, 2);
            if wal {
                config = config.with_wal(64);
            }
            let mut cluster = ShardManager::new(config, lab());
            admit_queries(&mut cluster, true);
            cluster.run_for(SimDuration::from_mins(4));
            (cluster.stats(), cluster.render_trace())
        };
        let (plain_stats, plain_trace) = run(false);
        let (wal_stats, wal_trace) = run(true);
        assert_eq!(plain_stats, wal_stats, "logging must be write-only");
        assert_eq!(plain_trace, wal_trace, "logging must be write-only");
    }

    fn shard_log(cluster: &ShardManager, s: usize) -> Vec<WalRecord> {
        let dur = cluster.durability.as_ref().expect("wal on");
        dur.managers[s].records().expect("readable log")
    }

    /// The write-path contract under a gateway: an idle shard's log is
    /// O(live work), not O(virtual time) — quiet clock advances coalesce
    /// into one tail frame because no empty drain is logged between them.
    #[test]
    fn idle_cluster_log_does_not_grow_with_virtual_time() {
        let frames_after = |secs: u64| {
            let quiet = PervasiveLab::with_sizes(12, 16, 0); // motes never spike
            let config = ClusterConfig::seeded(13, 2).with_wal(1_000_000);
            let mut cluster = ShardManager::new(config, quiet);
            admit_queries(&mut cluster, true);
            cluster.run_for(SimDuration::from_secs(secs));
            assert_eq!(cluster.stats().requests(), 0, "the quiet lab fired");
            (0..cluster.shard_count())
                .map(|s| {
                    let log = shard_log(&cluster, s);
                    assert!(
                        !log.contains(&WalRecord::DrainEscalated),
                        "shard {s} logged a drain that took nothing"
                    );
                    log.len()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(frames_after(60), frames_after(600));
    }

    /// A `DrainEscalated` record means a hand-off happened: every one in a
    /// shard's log follows at least one escalation logged since the
    /// previous drain.
    #[test]
    fn every_logged_drain_follows_an_escalation() {
        let mut cluster = ShardManager::new(ClusterConfig::seeded(21, 4).with_wal(64), lab());
        admit_queries(&mut cluster, true);
        cluster.inject_faults(crash_storm(0xBEEF));
        cluster.run_for(RUN);
        cluster.stats().check_conservation().unwrap();

        let mut drains = 0;
        for s in 0..cluster.shard_count() {
            let mut escalated_since_drain = 0;
            for record in shard_log(&cluster, s) {
                match record {
                    WalRecord::Lifecycle {
                        stage: LifecycleStage::Escalated,
                        ..
                    } => escalated_since_drain += 1,
                    WalRecord::DrainEscalated => {
                        assert!(escalated_since_drain > 0, "shard {s} logged an empty drain");
                        escalated_since_drain = 0;
                        drains += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(drains > 0, "the storm never escalated");
    }

    #[test]
    fn crashed_shard_recovers_byte_identical_to_uninterrupted_run() {
        let victim = DeviceId::camera(0);
        let crash_at = SimTime::ZERO + SimDuration::from_secs(150);
        let build = |wal: bool| {
            let mut config = ClusterConfig::seeded(17, 2).with_imbalance_threshold(u64::MAX);
            if wal {
                config = config.with_wal(128);
            }
            let mut cluster = ShardManager::new(config, lab());
            admit_queries(&mut cluster, true);
            cluster
        };

        // Reference: the same crash event, absorbed — the shard never halts.
        let mut reference = build(false);
        let owner = reference.shard_owning(victim).expect("victim is owned");
        reference.shard_mut(owner).grant_crash_immunity(1);
        let mut plan = FaultPlan::new();
        plan.schedule(crash_at, FaultEvent::ProcessCrash(victim));
        reference.inject_faults(plan.clone());
        reference.run_for(RUN);
        assert_eq!(reference.recoveries(), 0);

        // Live: the shard halts mid-run and is rebuilt from its WAL.
        let mut live = build(true);
        assert_eq!(live.shard_owning(victim), Some(owner));
        live.inject_faults(plan);
        live.run_for(RUN);
        assert_eq!(live.recoveries(), 1, "exactly one recovery expected");
        assert!(!live.shard(owner).is_crashed());

        let stats = live.stats();
        stats.check_conservation().unwrap();
        assert_eq!(stats, reference.stats(), "recovery must be invisible");
        assert_eq!(
            live.render_trace(),
            reference.render_trace(),
            "recovered cluster trace must be byte-identical"
        );
        let report = live.wal_report().expect("wal is on");
        assert!(report.records_replayed > 0);
        assert_eq!(report.recovery_wall_ms.len(), 1);
    }

    #[test]
    fn recovery_after_migration_replays_from_the_barrier_snapshot() {
        // Rebalancing on + WAL on: migrations force barrier snapshots, and
        // a later process crash on each shard must recover from them (a
        // replay from genesis would hit the unreplayable MigrateIn).
        let mut config = ClusterConfig::seeded(5, 2).with_wal(1_000_000);
        config.imbalance_threshold = 1;
        let mut cluster = ShardManager::new(config, lab());
        admit_queries(&mut cluster, true);
        cluster.run_for(SimDuration::from_mins(6));
        assert!(cluster.migrations() > 0, "scenario must migrate");

        // Crash one camera-owning device per shard late in the run.
        let mut plan = FaultPlan::new();
        for s in 0..2 {
            let cam = cluster.shard(s).registry().ids_of_kind(DeviceKind::Camera)[0];
            assert_eq!(cluster.shard_owning(cam), Some(s));
            plan.schedule(
                cluster.now() + SimDuration::from_secs(30 + s as u64),
                FaultEvent::ProcessCrash(cam),
            );
        }
        cluster.inject_faults(plan);
        cluster.run_for(SimDuration::from_mins(4));

        assert_eq!(cluster.recoveries(), 2, "both shards must recover");
        cluster.stats().check_conservation().unwrap();
        let report = cluster.wal_report().expect("wal is on");
        // The snapshot cadence is effectively off (1M frames), so every
        // vaulted image is a migration barrier — and recovery used them.
        assert!(report.snapshots.iter().sum::<u64>() >= 2);
    }

    #[test]
    fn without_wal_a_crashed_shard_stays_dead_but_conservation_holds() {
        let mut cluster = ShardManager::new(
            ClusterConfig::seeded(17, 2).with_imbalance_threshold(u64::MAX),
            lab(),
        );
        admit_queries(&mut cluster, true);
        let victim = DeviceId::camera(0);
        let owner = cluster.shard_owning(victim).expect("owned");
        let mut plan = FaultPlan::new();
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(150),
            FaultEvent::ProcessCrash(victim),
        );
        cluster.inject_faults(plan);
        cluster.run_for(RUN);
        assert!(cluster.shard(owner).is_crashed(), "no wal, no recovery");
        assert_eq!(cluster.recoveries(), 0);
        // The dead shard's admitted-but-unresolved work is visibly pending,
        // so the cluster ledger still closes.
        cluster.stats().check_conservation().unwrap();
    }

    fn failover_config(seed: u64) -> ClusterConfig {
        ClusterConfig::seeded(seed, 2)
            .with_imbalance_threshold(u64::MAX)
            .with_wal(128)
            .with_failover(FailoverConfig::default())
    }

    /// A minimal escalation message for fence tests (the fence inspects the
    /// stamp, not the payload).
    fn zombie_request() -> ActionRequest {
        ActionRequest {
            query_id: 999,
            action: "photo".into(),
            event_tuple: aorta_data::Tuple::empty(),
            event_binding: "s".into(),
            event_kind: DeviceKind::Sensor,
            device_binding: None,
            args: Vec::new(),
            candidates: Default::default(),
            created_at: SimTime::ZERO,
            deadline: SimTime::MAX,
            degraded: false,
            attempts: 0,
            hops: 0,
        }
    }

    #[test]
    fn crashed_shard_is_rebuilt_on_a_fresh_host() {
        let victim = DeviceId::camera(0);
        let mut cluster = ShardManager::new(failover_config(23), lab());
        admit_queries(&mut cluster, true);
        let owner = cluster.shard_owning(victim).expect("victim is owned");
        let mut plan = FaultPlan::new();
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(150),
            FaultEvent::ProcessCrash(victim),
        );
        cluster.inject_faults(plan);
        cluster.run_for(RUN);

        let events = cluster.failover_report();
        assert_eq!(events.len(), 1, "exactly one failover expected");
        let ev = &events[0];
        assert_eq!(ev.shard, owner);
        assert_eq!(ev.old_host, owner as u32);
        assert_eq!(ev.new_host, 2, "the adopting host must be fresh");
        assert_eq!(ev.epoch, 2, "adoption must bump the epoch");
        assert!(ev.bytes_shipped > 0, "an image must actually ship");
        assert!(ev.records_replayed > 0, "the image must carry history");
        assert!(
            ev.degraded_window() >= SimDuration::from_millis(100),
            "the degraded window includes the rebuild delay"
        );
        assert!(!cluster.shard(owner).is_crashed());
        assert_eq!(cluster.shard_host(owner), 2);
        assert_eq!(cluster.shard_epoch(owner), 2);
        assert_eq!(cluster.shard(owner).host(), 2);
        assert_eq!(cluster.shard(owner).epoch(), 2);
        assert_eq!(
            cluster.recoveries(),
            0,
            "cross-host rebuild must not count as in-place recovery"
        );
        let stats = cluster.stats();
        stats.check_conservation().unwrap();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.late_successes(), 0);
        assert!(cluster.gateway_trace().any("gateway", "rebuild in flight"));
        assert!(cluster.gateway_trace().any("gateway", "failover complete"));
    }

    /// Pushdown rides the engine-config template through WAL snapshots and
    /// cross-host failover, and never perturbs the cluster run: the flag-on
    /// arm is byte-identical to the baseline, while every shard — including
    /// the one rebuilt on a fresh host — keeps accounting suppression.
    #[test]
    fn pushdown_rides_failover_and_never_perturbs_the_cluster() {
        let run = |pushdown: bool| {
            let mut config = failover_config(37);
            if pushdown {
                config.engine = config.engine.clone().with_pushdown();
            }
            let mut cluster = ShardManager::new(config, lab());
            admit_queries(&mut cluster, true);
            let mut plan = FaultPlan::new();
            plan.schedule(
                SimTime::ZERO + SimDuration::from_secs(150),
                FaultEvent::ProcessCrash(DeviceId::camera(0)),
            );
            cluster.inject_faults(plan);
            cluster.run_for(RUN);
            cluster
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.stats(), off.stats());
        assert_eq!(on.render_trace(), off.render_trace());
        assert_eq!(on.stats().failovers, 1, "the failover must still happen");
        for s in 0..on.shard_count() {
            let push = on.shard(s).pushdown_stats();
            assert!(
                push.suppressed_tuples > 0,
                "shard {s} suppressed nothing: {push:?}"
            );
            assert!(
                push.wire_bytes() < push.baseline_bytes,
                "shard {s} saved no bytes: {push:?}"
            );
            assert_eq!(
                off.shard(s).pushdown_stats(),
                aorta_core::PushdownStats::default(),
                "baseline shard {s} must not account pushdown"
            );
            assert!(
                on.shard(s).config().pushdown,
                "shard {s} lost the flag (failover rebuilds from the config template)"
            );
        }
    }

    #[test]
    fn failover_under_partition_is_deterministic() {
        let run = || {
            let mut cluster = ShardManager::new(failover_config(29), lab());
            admit_queries(&mut cluster, false);
            let mut plan = FaultPlan::new();
            // Kill shard 0's cameras so escalations flow, then the owning
            // process, inside an asymmetric gateway blackout s0 -> s1.
            for c in 0..12u32 {
                let id = DeviceId::camera(c);
                if cluster.shard_owning(id) == Some(0) {
                    plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
                }
            }
            let mote = (0..16u32)
                .map(DeviceId::sensor)
                .find(|&d| cluster.shard_owning(d) == Some(0))
                .expect("shard 0 owns a mote");
            plan.schedule(
                SimTime::ZERO + SimDuration::from_secs(145),
                FaultEvent::Partition {
                    a: 0,
                    b: 1,
                    window: SimDuration::from_secs(20),
                },
            );
            plan.schedule(
                SimTime::ZERO + SimDuration::from_secs(150),
                FaultEvent::ProcessCrash(mote),
            );
            cluster.inject_faults(plan);
            cluster.run_for(RUN);
            let stats = cluster.stats();
            stats.check_conservation().unwrap();
            assert_eq!(stats.late_successes(), 0);
            assert_eq!(stats.failovers, 1, "the mote crash must fail over");
            (
                cluster.render_trace(),
                format!("{stats:?}"),
                format!("{:?}", cluster.failover_report()),
            )
        };
        let a = run();
        assert_eq!(a, run(), "failover must be byte-identical per seed");
        assert!(a.0.contains("failover complete"));
    }

    #[test]
    fn escalations_park_with_backoff_instead_of_immediate_reinjection() {
        let mut cluster = ShardManager::new(failover_config(11), lab());
        admit_queries(&mut cluster, false);
        let mut plan = FaultPlan::new();
        for c in 0..12u32 {
            let id = DeviceId::camera(c);
            if cluster.shard_owning(id) == Some(0) {
                plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
            }
        }
        assert!(!plan.is_empty(), "stripe 0 owned no cameras");
        cluster.inject_faults(plan);
        cluster.run_for(RUN);

        let stats = cluster.stats();
        stats.check_conservation().unwrap();
        assert!(cluster.rerouted() > 0, "deliveries must still happen");
        assert!(
            cluster.gateway_trace().any("gateway", "parked (attempt 1)"),
            "escalations must park before delivery"
        );
        assert!(
            cluster.gateway_trace().any("gateway", "delivered s0 -> s1"),
            "parked escalations must be delivered after backoff"
        );
        assert!(
            stats.per_shard[1].escalated_in > 0,
            "sibling adopted nothing: {stats:?}"
        );
    }

    #[test]
    fn stale_epoch_escalations_are_fenced_not_double_applied() {
        let victim = DeviceId::camera(0);
        // Two arms differing only in a stale-epoch (zombie) message
        // delivered after the failover: the rejection must have zero
        // footprint on every engine — counted, never applied.
        let run = |inject_zombie: bool| {
            let mut cluster = ShardManager::new(failover_config(23), lab());
            admit_queries(&mut cluster, true);
            let owner = cluster.shard_owning(victim).expect("owned");
            let old_epoch = cluster.shard_epoch(owner);
            let mut plan = FaultPlan::new();
            plan.schedule(
                SimTime::ZERO + SimDuration::from_secs(150),
                FaultEvent::ProcessCrash(victim),
            );
            cluster.inject_faults(plan);
            cluster.run_for(RUN);
            assert_eq!(cluster.shard_epoch(owner), old_epoch + 1);
            if inject_zombie {
                assert!(!cluster.inject_escalation(owner, old_epoch, zombie_request()));
                assert_eq!(cluster.zombie_rejects(), 1);
                assert_eq!(cluster.parked_requests(), 0, "a zombie must never park");
            }
            cluster.run_for(SimDuration::from_secs(30));
            let stats = cluster.stats();
            stats.check_conservation().unwrap();
            assert_eq!(stats.zombie_rejects, u64::from(inject_zombie));
            assert!(
                !inject_zombie
                    || cluster
                        .gateway_trace()
                        .any("gateway", "stale-epoch escalation"),
                "the rejection must be visible in the gateway trace"
            );
            (cluster, stats, owner, old_epoch)
        };
        let (_, clean_stats, ..) = run(false);
        let (mut cluster, zombie_stats, owner, old_epoch) = run(true);
        assert_eq!(
            zombie_stats.per_shard, clean_stats.per_shard,
            "a fenced message must never touch any engine"
        );
        assert_eq!(zombie_stats.executed(), clean_stats.executed());

        // A current-epoch message is admitted into the parked path.
        assert!(cluster.inject_escalation(owner, old_epoch + 1, zombie_request()));
        assert_eq!(cluster.parked_requests(), 1);
    }

    #[test]
    fn partition_window_blocks_routing_without_failover() {
        // Partitions apply even on the immediate-injection path: a window
        // covering the whole run on the only escape path s0 -> s1 forces
        // terminal drops instead of reroutes — counted, never lost.
        let run = |partitioned: bool| {
            let mut cluster = ShardManager::new(
                ClusterConfig::seeded(11, 2).with_imbalance_threshold(u64::MAX),
                lab(),
            );
            admit_queries(&mut cluster, false);
            let mut plan = FaultPlan::new();
            for c in 0..12u32 {
                let id = DeviceId::camera(c);
                if cluster.shard_owning(id) == Some(0) {
                    plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
                }
            }
            if partitioned {
                plan.schedule(
                    SimTime::ZERO,
                    FaultEvent::Partition {
                        a: 0,
                        b: 1,
                        window: RUN + RUN,
                    },
                );
            }
            cluster.inject_faults(plan);
            cluster.run_for(RUN);
            let stats = cluster.stats();
            stats.check_conservation().unwrap();
            (cluster.rerouted(), stats.gateway_dropped)
        };
        let (rerouted_open, _) = run(false);
        let (rerouted_blocked, dropped_blocked) = run(true);
        assert!(rerouted_open > 0);
        assert_eq!(rerouted_blocked, 0, "a blackout path must carry nothing");
        assert!(dropped_blocked > 0, "blocked escalations are counted drops");
    }

    #[test]
    fn cluster_trace_is_byte_identical_per_seed() {
        let run = |seed| {
            let mut cluster = ShardManager::new(ClusterConfig::seeded(seed, 2), lab());
            admit_queries(&mut cluster, true);
            cluster.run_for(SimDuration::from_mins(3));
            cluster.render_trace()
        };
        let a = run(31);
        assert!(!a.is_empty());
        assert_eq!(a, run(31));
        assert_ne!(a, run(32), "different seeds should diverge");
    }
}
