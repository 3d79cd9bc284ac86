//! The shard manager and routing gateway.
//!
//! A [`ShardManager`] owns *k* independent [`Aorta`] engines, each over a
//! disjoint slice of the device fleet, and drives them on **one** virtual
//! clock in lookahead windows: shards interact only through the gateway,
//! whose earliest effect comes `LOOKAHEAD` after its cause, so within a
//! window every shard runs on its own and the gateway acts at the barrier
//! that closes it. Windows are cut from virtual time alone — identical
//! seeds yield byte-identical cluster traces at any thread count, exactly
//! as for a standalone engine.
//!
//! The gateway role is folded into the manager: DDL (`CREATE AQ`,
//! `CREATE ACTION`) is broadcast to every shard, so any shard can detect
//! events over its own devices and serve adopted requests; when a shard's
//! candidate set is exhausted (crash storms, or simply no covering device
//! in its region) the shard escalates the request, the gateway parks it,
//! and after a backoff delivers it to the sibling offering the cheapest
//! eligible device. Above a
//! configurable backlog imbalance the gateway also migrates device
//! ownership between shards — only at a safe point (no queued execution,
//! no lock held, no action physically in progress).

use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};

use aorta_core::{
    genesis_fingerprint, recover_engine, restore_from_image, ActionRequest, Aorta, CustomHandler,
    EngineConfig, EngineError, ExecOutput, GenesisSpec, SAMPLE_PERIOD,
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
    /// [`SnapshotImage`] instead of in place, behind epoch fencing. `None`
    /// (the default) recovers a crashed shard in place.
    pub failover: Option<FailoverConfig>,
    /// Worker threads for shard stepping. `0` (the default) means auto:
    /// one thread per host core; `1` runs every window inline. Thread count
    /// never changes a single byte of any trace or stat — it only changes
    /// how fast the same bytes are produced (see
    /// [`ShardManager::run_until`]).
    pub threads: usize,
}

/// Cross-host failover tunables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailoverConfig {
    /// Simulated network parameters for shipping the snapshot image to the
    /// adopting host (chunking, loss, duplication, reordering, bandwidth).
    pub ship: ShipConfig,
}

/// The gateway's backoff schedule for parked escalations: delivery attempt
/// `a` waits `50 ms × 2^(a-1)` plus up to 25 ms of seeded jitter, and an
/// escalation no sibling can take by the sixth attempt is dropped.
const GATEWAY_RETRY: RetryPolicy = RetryPolicy::new(
    6,
    SimDuration::from_millis(50),
    SimDuration::from_millis(25),
);

/// Fixed rebuild cost on a failover's adopting host (process start +
/// replay), added to the shipment's transfer time to give the degraded
/// window its length on the virtual clock.
const REBUILD_DELAY: SimDuration = SimDuration::from_millis(100);

/// The lookahead L: the least virtual time between a shard's action and
/// its earliest effect on another shard. Shards interact only through the
/// gateway, and the gateway's earliest effect is a parked escalation's
/// first delivery, `GATEWAY_RETRY.backoff_after(1)` after it escalated.
const LOOKAHEAD: SimDuration = GATEWAY_RETRY.backoff_base();

// A failover adoption is a gateway effect too: it must not land inside the
// window in which its shard crashed.
const _: () = assert!(LOOKAHEAD.as_micros() <= REBUILD_DELAY.as_micros());

/// The least fleet a window's sample epochs must scan between them for the
/// window to fan out over the worker pool. An epoch scans and tests every
/// device its shard owns, at about a microsecond each, while handing a
/// lane to a worker and back costs tens of microseconds on a two-core
/// host: below this size the hand-off costs more than it saves.
const FAN_OUT_DEVICES: usize = 512;

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

    /// Sets the worker-thread count for shard stepping, builder style. `0`
    /// means auto (one per host core); `1` runs every window inline.
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
    /// Engine images forked into a vault (cadence and barrier).
    #[cfg(test)]
    images_forked: u64,
}

/// A durability report for benchmarks and introspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReport {
    /// Per-shard log stream counters.
    pub per_shard: Vec<WalStats>,
    /// Per-shard snapshots taken (cadence + migration barriers), with or
    /// without an engine image.
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
    ship: ShipConfig,
    /// One fence per shard slot: the incarnation epoch the gateway believes
    /// current, plus the count of stale-epoch messages it refused.
    fences: Vec<EpochFence>,
    /// The host currently running each shard slot (hosts `0..k` at birth;
    /// every failover adopts on a fresh host id).
    hosts: Vec<u32>,
    next_host: u32,
    /// In-flight rebuilds: the replacement engine is ready but not adopted
    /// until the degraded window (`ready_at`) elapses on the virtual clock.
    rebuilds: Vec<Option<PendingRebuild>>,
    events: Vec<FailoverEvent>,
}

/// Engines out of the manager for a window, with their shard slots.
type Batch = Vec<(usize, Aorta)>;

/// One thread of the window runner's pool: given a window's queue of
/// engines and its end, it runs engines off the queue until it is empty
/// and hands back the ones it ran.
struct Worker {
    jobs: mpsc::Sender<(Arc<Mutex<Batch>>, SimTime)>,
    done: mpsc::Receiver<Batch>,
}

/// Pops engines off `queue` and runs each to `end` until the queue is
/// empty; returns the engines it ran.
fn run_lane(queue: &Mutex<Batch>, end: SimTime) -> Batch {
    let mut ran = Vec::new();
    loop {
        // The guard drops here: the lock is never held while a shard runs.
        let job = queue.lock().expect("window queue").pop();
        let Some(mut job) = job else { return ran };
        job.1.run_until(end);
        ran.push(job);
    }
}

/// One escalation parked at the gateway: every escalation waits out a
/// backoff before its delivery to a sibling.
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
    /// Gateway-owned RNG (backoff jitter, image shipping), forked from the
    /// cluster seed *after* every shard seed, so it never perturbs the
    /// shard streams.
    rng: SimRng,
    /// Escalations parked at the gateway awaiting backoff delivery.
    waiting: Vec<Parked>,
    next_seq: u64,
    /// Worker threads for a fanned-out window: `threads`, resolved on the
    /// first window that could fan out.
    lanes: Option<usize>,
    /// Windows that ran on the worker pool.
    #[cfg(test)]
    fanned_out: u64,
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
// in aorta-core): the window runner moves engines to its pool workers by
// value, and the manager itself — gateway, WAL managers, failover state —
// must stay `Send` so whole clusters can be driven from worker threads
// (the E13 benchmark does).
const _: () = {
    const fn assert_send<T: Send>() {}
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
                #[cfg(test)]
                images_forked: 0,
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
                // Stream counters are published when the registry is read
                // (see `wal_metrics_snapshot`), not on every append.
                let handle = WalHandle::new(store);
                handle.append(WalRecord::Genesis { fingerprint });
                engine.attach_wal(handle.clone());
                // Under failover a crashed shard is rebuilt from genesis
                // on another host unless its log holds a `MigrateIn`, and
                // such a log passed a barrier, which turns cadence images
                // on. Until then nothing can read a cadence image, so the
                // cadence marks positions only.
                dur.managers.push(WalManager::new(
                    handle,
                    wal.snapshot_every,
                    config.failover.is_none(),
                ));
                dur.specs.push(GenesisSpec {
                    config: engine_config,
                    registry: genesis_registry.expect("cloned when durability is on"),
                    handlers: Vec::new(),
                });
                dur.fingerprints.push(fingerprint);
            }
            shards.push(engine);
        }

        let failover = config.failover.clone().map(|fc| {
            assert!(
                durability.is_some(),
                "failover requires a WAL: the snapshot image is cut from the shard's log"
            );
            Failover {
                ship: fc.ship,
                fences: (0..k).map(|_| EpochFence::new(1)).collect(),
                hosts: (0..k as u32).collect(),
                next_host: k as u32,
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
            rng: seeder.fork(u64::MAX),
            waiting: Vec::new(),
            next_seq: 0,
            lanes: None,
            #[cfg(test)]
            fanned_out: 0,
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

    /// Advances the shared virtual clock to `deadline`, one lookahead
    /// window at a time.
    ///
    /// No shard can affect another inside a window: every cross-shard
    /// effect passes the gateway, and the gateway's earliest (a parked
    /// escalation's first delivery) comes at least the lookahead L = 50 ms
    /// (its first backoff) after its cause. A window closes on the grid of
    /// L multiples — the first one at or after the earliest pending shard
    /// work, so stretches with no work are skipped whole — or sooner at the
    /// next gateway timer or the deadline. Every live shard runs to the
    /// window's end on its own, inline or on the worker pool; then the
    /// gateway takes the window's escalations and process crashes in
    /// `(instant, shard)` order, services its timers, and samples the
    /// rebalancer and the snapshot cadence. The windows are a function of
    /// virtual time alone: thread count, the inline-or-pool choice and
    /// `run_for` call boundaries on multiples of L change no byte.
    pub fn run_until(&mut self, deadline: SimTime) {
        std::thread::scope(|scope| {
            let mut pool = Vec::new();
            while self.now < deadline {
                let end = self.window_end(deadline);
                let worked = self.run_window(end, scope, &mut pool);
                self.now = end;
                if worked || self.next_gateway_time().is_some_and(|g| g <= end) {
                    self.barrier();
                }
            }
        });
    }

    /// The end of the window opening at `self.now`.
    fn window_end(&self, deadline: SimTime) -> SimTime {
        let step = LOOKAHEAD.as_micros();
        let grid = self
            .shards
            .iter()
            .filter(|e| !e.is_crashed())
            .filter_map(Aorta::next_event_time)
            .min()
            .map(|t| {
                // A just-adopted rebuild may still hold work from before
                // `now`; it runs in the next window like any other.
                let t = t.max(self.now + SimDuration::from_micros(1));
                SimTime::from_micros(t.as_micros().div_ceil(step) * step)
            });
        [Some(deadline), grid, self.next_gateway_time()]
            .into_iter()
            .flatten()
            .min()
            .expect("the deadline is always a candidate")
    }

    /// Runs every live shard to `end` and returns whether any had work due
    /// by then. A window fans out over the worker pool only when at least
    /// two shards have a sample epoch due in it and those shards own
    /// [`FAN_OUT_DEVICES`] between them; every other window runs inline.
    /// The pool's workers are spawned on the first fan-out of a
    /// `run_until` call; engines leave the manager by value for the window
    /// and every lane pulls the next one off a shared queue.
    fn run_window<'scope>(
        &mut self,
        end: SimTime,
        scope: &'scope std::thread::Scope<'scope, '_>,
        pool: &mut Vec<Worker>,
    ) -> bool {
        let period = SAMPLE_PERIOD.as_micros();
        let (mut busy, mut epochs, mut devices) = (0, 0, 0);
        for engine in self.shards.iter().filter(|e| !e.is_crashed()) {
            let Some(t) = engine.next_event_time().filter(|&t| t <= end) else {
                continue;
            };
            busy += 1;
            if t.as_micros().div_ceil(period) <= end.as_micros() / period {
                epochs += 1;
                devices += engine.registry().len();
            }
        }
        let lanes = if epochs < 2 || devices < FAN_OUT_DEVICES {
            1
        } else {
            let threads = *self
                .lanes
                .get_or_insert_with(|| self.config.effective_threads());
            threads.min(epochs)
        };
        if lanes < 2 {
            for engine in self.shards.iter_mut().filter(|e| !e.is_crashed()) {
                engine.run_until(end);
            }
            return busy > 0;
        }
        #[cfg(test)]
        {
            self.fanned_out += 1;
        }
        while pool.len() < lanes - 1 {
            let (jobs, inbox) = mpsc::channel::<(Arc<Mutex<Batch>>, SimTime)>();
            let (outbox, done) = mpsc::channel();
            scope.spawn(move || {
                for (queue, end) in inbox {
                    if outbox.send(run_lane(&queue, end)).is_err() {
                        break;
                    }
                }
            });
            pool.push(Worker { jobs, done });
        }
        let (mut engines, live): (Batch, Batch) = std::mem::take(&mut self.shards)
            .into_iter()
            .enumerate()
            .partition(|(_, e)| e.is_crashed());
        // Popped from the back: lowest shard first.
        let queue = Arc::new(Mutex::new(live.into_iter().rev().collect()));
        for worker in &pool[..lanes - 1] {
            worker
                .jobs
                .send((Arc::clone(&queue), end))
                .expect("shard worker alive");
        }
        engines.extend(run_lane(&queue, end));
        for worker in &pool[..lanes - 1] {
            engines.extend(worker.done.recv().expect("shard worker panicked"));
        }
        engines.sort_by_key(|&(s, _)| s);
        self.shards = engines.into_iter().map(|(_, e)| e).collect();
        true
    }

    /// The gateway's turn at the barrier closing a window (`self.now`).
    ///
    /// It takes the window's escalations and process crashes in
    /// `(instant, shard)` order, with the clock set to each one's instant:
    /// an escalation parks, a crash is failed over (or recovered in place).
    /// In-place recovery without failover goes first: it draws no gateway
    /// randomness and writes no gateway line, and the recovered engine
    /// holds the window's escalations again with their own instants. A
    /// corpse awaiting a cross-host rebuild is never drained — the
    /// rebuild's replay re-derives its escalations. Then the gateway
    /// services the timers due at the barrier, samples the rebalance
    /// condition, and takes any cadence snapshots.
    fn barrier(&mut self) {
        let end = self.now;
        if self.failover.is_none() {
            for s in 0..self.shards.len() {
                self.recover_if_crashed(s);
            }
        }
        let mut arrivals = Vec::new();
        for s in 0..self.shards.len() {
            if self.failover.is_some() && self.shards[s].is_crashed() && !self.is_rebuilding(s) {
                arrivals.push((self.shards[s].now(), s, None));
            }
            arrivals.extend(self.drain(s).into_iter().map(|(t, r)| (t, s, Some(r))));
        }
        arrivals.sort_by_key(|&(t, s, _)| (t, s));
        for (t, s, arrival) in arrivals {
            self.now = t;
            match arrival {
                Some(request) => self.admit(s, request),
                None => {
                    self.recover_if_crashed(s);
                    self.route_escalated(s);
                }
            }
        }
        self.now = end;
        self.gateway_tick();
        self.maybe_rebalance();
        self.maybe_snapshots();
    }

    /// The earliest pending gateway timer: a parked escalation's delivery
    /// instant or a rebuild's adoption instant.
    fn next_gateway_time(&self) -> Option<SimTime> {
        let rebuilds = self
            .failover
            .iter()
            .flat_map(|fo| fo.rebuilds.iter().flatten().map(|r| r.ready_at));
        self.waiting.iter().map(|p| p.next_at).chain(rebuilds).min()
    }

    /// Services every gateway timer due at the current instant: rebuild
    /// adoptions first (an adopted shard can then receive deliveries at the
    /// same instant), then parked escalations in `(next_at, seq)` order.
    fn gateway_tick(&mut self) {
        while let Some(s) = (0..self.shards.len()).find(|&s| {
            self.failover.as_ref().is_some_and(|fo| {
                fo.rebuilds[s]
                    .as_ref()
                    .is_some_and(|r| r.ready_at <= self.now)
            })
        }) {
            self.adopt_rebuild(s);
        }
        while let Some(i) = self
            .waiting
            .iter()
            .enumerate()
            .filter(|(_, p)| p.next_at <= self.now)
            .min_by_key(|(_, p)| (p.next_at, p.seq))
            .map(|(i, _)| i)
        {
            let parked = self.waiting.remove(i);
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
        match manager.latest_snapshot() {
            Some((at, Some(image))) => {
                // Frames below the snapshot's position are in the image.
                suffix = suffix.split_off(at as usize);
                base_image = Some(image.fork_snapshot());
            }
            // A mark without an image: the whole log replays from genesis.
            Some((_, None)) => debug_assert!(
                !suffix
                    .iter()
                    .any(|r| matches!(r, WalRecord::MigrateIn { .. })),
                "shard {s}: an image-less mark is only taken before the first barrier, \
                 so its log holds no MigrateIn"
            ),
            None => {}
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
    /// parked until the degraded window ([`REBUILD_DELAY`] + transfer time)
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
            rng,
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
        let shipment = ship_bytes(&bytes, &fo.ship, rng)
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
        let ready_at = now + REBUILD_DELAY + shipment.elapsed;
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
        let jitter =
            SimDuration::from_micros(self.rng.range(0..=GATEWAY_RETRY.jitter().as_micros()));
        let next_at = now + GATEWAY_RETRY.backoff_after(attempt) + jitter;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.waiting.push(Parked {
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
        if self.expire_if_late(&request, "while parked") {
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
            None if attempt < GATEWAY_RETRY.max_attempts() => {
                self.park(from, request, attempt + 1);
            }
            None => self.drop_request(&request, "no eligible sibling within the retry budget"),
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
            manager.maybe_snapshot(|| {
                #[cfg(test)]
                {
                    dur.images_forked += 1;
                }
                shards[s].fork_snapshot()
            });
        }
    }

    /// Advances the shared virtual clock by `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.run_until(self.now + duration);
    }

    /// Takes shard `s`'s escalations, each with the instant it escalated
    /// at. A corpse awaiting a cross-host rebuild is never drained: its
    /// buffered escalations are re-derived by the replay, so draining both
    /// would double-count the same work. The backlog stays visible as
    /// in-flight (`gateway_parked`) until adoption.
    fn drain(&mut self, s: usize) -> Vec<(SimTime, ActionRequest)> {
        // An empty hand-off is not a command: the drain (and its WAL
        // record) happens only when the buffer holds something, so quiet
        // `RunUntil` frames stay adjacent in the log and coalesce.
        if self.shards[s].escalated_backlog() == 0
            || (self.failover.is_some() && self.shards[s].is_crashed())
        {
            return Vec::new();
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
        escalated
    }

    /// Drains shard `s` and admits each escalation at the current instant.
    fn route_escalated(&mut self, s: usize) {
        for (_, request) in self.drain(s) {
            self.admit(s, request);
        }
    }

    /// Admits one escalation from shard `from` at the current instant and
    /// parks it for its first backed-off delivery — the gateway's one path
    /// to a sibling. The deadline rides with the request: an escalation
    /// carries its *remaining* budget, never a fresh one, so a request
    /// cannot ping-pong between shards past the instant its result became
    /// worthless. An expired escalation is counted, and one that has
    /// visited every shard is dropped — neither is retried.
    fn admit(&mut self, from: usize, request: ActionRequest) {
        if self.expire_if_late(&request, "in flight") {
            return;
        }
        if request.hops as usize + 1 >= self.shards.len() {
            self.drop_request(&request, "visited every shard");
            return;
        }
        self.park(from, request, 1);
    }

    /// Counts `request` expired at the gateway when its deadline has
    /// passed; `phase` says where the gateway held it.
    fn expire_if_late(&mut self, request: &ActionRequest, phase: &str) -> bool {
        if request.deadline == SimTime::MAX || self.now < request.deadline {
            return false;
        }
        self.gateway_expired += 1;
        if let Some(m) = &self.obs {
            m.incr("aorta_gateway_expired", &[], 1);
        }
        self.trace.emit(
            self.now,
            "gateway",
            format!(
                "query {}: deadline passed {phase}, escalation dropped",
                request.query_id
            ),
        );
        true
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
        let Some(d) = cameras.into_iter().find(|&d| {
            source.registry().get(d).is_some_and(|e| e.online()) && source.device_idle(d)
        }) else {
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
                for s in [max_s, min_s] {
                    dur.managers[s].force_snapshot(|| {
                        #[cfg(test)]
                        {
                            dur.images_forked += 1;
                        }
                        shards[s].fork_snapshot()
                    });
                }
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
        // Parked escalations, plus the undrained backlog of any corpse
        // awaiting rebuild (in-flight work the replay will re-derive) —
        // both are "at the gateway", not lost.
        let corpses: u64 = (0..self.shards.len())
            .filter(|&s| self.is_rebuilding(s))
            .map(|s| self.shards[s].escalated_backlog())
            .sum();
        let (failovers, zombie_rejects) = self.failover.as_ref().map_or((0, 0), |fo| {
            (
                fo.events.len() as u64,
                fo.fences.iter().map(EpochFence::rejected).sum(),
            )
        });
        ClusterStats {
            per_shard: self.shards.iter().map(Aorta::stats).collect(),
            pending: self.pending_requests(),
            rerouted: self.rerouted,
            gateway_dropped: self.gateway_dropped,
            gateway_expired: self.gateway_expired,
            gateway_parked: self.waiting.len() as u64 + corpses,
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
        self.waiting.len() as u64
    }

    /// Delivers an escalation message claiming to come from incarnation
    /// `epoch` of shard slot `from` — the zombie path made explicit. A
    /// message stamped with a fenced-off (stale) epoch is refused and
    /// counted in [`Self::zombie_rejects`], never applied: this is how a
    /// partition-isolated old incarnation's late messages die. A message
    /// stamped with the current epoch is admitted into the gateway's one
    /// parked delivery path and `true` is returned — the caller then vouches that
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
        self.admit(from, request);
        true
    }

    /// The WAL's own metrics registry (append/recovery series), kept apart
    /// from the deterministic cluster snapshot. `None` without a WAL.
    pub fn wal_metrics_snapshot(&self) -> Option<MetricsRegistry> {
        let dur = self.durability.as_ref()?;
        let mut snap = dur.obs.snapshot();
        for (s, manager) in dur.managers.iter().enumerate() {
            let stats = manager.stats();
            let shard = format!("s{s}");
            let labels = [("shard", shard.as_str())];
            snap.counter_set("aorta_wal_appends", &labels, stats.appends);
            snap.counter_set("aorta_wal_bytes", &labels, stats.bytes);
        }
        Some(snap)
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
        // its (all-dead) candidates, and the gateway parks each escalation
        // and then delivers it to s1.
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
        assert!(cluster
            .gateway_trace()
            .any("gateway", "escalation from s0 parked (attempt 1)"));
        assert!(cluster.gateway_trace().any("gateway", "delivered s0 -> s1"));
        assert!(
            stats.per_shard[1].escalated_in > 0,
            "sibling adopted nothing: {stats:?}"
        );
    }

    #[test]
    fn gateway_never_routes_into_a_halted_shard() {
        // No WAL, so a process-crashed shard stays dead. Shard 1's cameras
        // all crash at once, then shard 0's process dies: every escalation
        // shard 1 raises has no live sibling and must be counted dropped
        // once its retry budget runs out, not injected into the halted
        // engine to sit there forever. The run ends well after the last
        // event's escalations have used up their budget.
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
        cluster.run_for(RUN + SimDuration::from_secs(10));

        let stats = cluster.stats();
        stats.check_conservation().unwrap();
        assert!(cluster.shard(0).is_crashed(), "no wal, no recovery");
        assert_eq!(stats.gateway_parked, 0, "{stats:?}");
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

    /// A rebalance-off, WAL-off config on `threads` workers.
    fn threaded_config(seed: u64, shards: usize, threads: usize) -> ClusterConfig {
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
    fn threads_1_equals_threads_n_on_clean_wave() {
        // No faults, so no escalations: shards never interact.
        for shards in [2, 4] {
            let run = |threads: usize| {
                let mut cluster = ShardManager::new(threaded_config(29, shards, threads), lab());
                admit_queries(&mut cluster, true);
                cluster.run_for(RUN);
                (cluster.stats(), cluster.render_trace())
            };
            let one = run(1);
            for threads in [2, 4, 8] {
                assert_eq!(
                    run(threads),
                    one,
                    "threads={threads} shards={shards} diverged from threads=1"
                );
            }
        }
    }

    #[test]
    fn threads_1_equals_threads_n_under_escalation() {
        // The dead-stripe scenario: shard 0's cameras all die, and every one
        // of its detections escalates, parks and is delivered to s1.
        let run = |threads: usize| {
            let mut cluster = ShardManager::new(threaded_config(11, 2, threads), lab());
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
        let (one_stats, one_trace) = run(1);
        assert!(one_stats.rerouted > 0, "scenario must actually escalate");
        one_stats.check_conservation().unwrap();
        for threads in [2, 4, 8] {
            let (stats, trace) = run(threads);
            assert_eq!(stats, one_stats, "threads={threads} stats diverged");
            assert_eq!(trace, one_trace, "threads={threads} trace diverged");
        }
    }

    #[test]
    fn threads_1_equals_threads_n_under_crash_storm() {
        // Escalations and device crashes land at arbitrary instants inside
        // the windows.
        for seed in [21, 0xBEEF] {
            let run = |threads: usize| {
                let mut cluster = ShardManager::new(threaded_config(seed, 4, threads), lab());
                admit_queries(&mut cluster, true);
                cluster.inject_faults(crash_storm(seed));
                cluster.run_for(RUN);
                (cluster.stats(), cluster.render_trace())
            };
            let one = run(1);
            one.0.check_conservation().unwrap();
            for threads in [2, 8] {
                assert_eq!(run(threads), one, "seed={seed} threads={threads}");
            }
        }
    }

    /// Every control-plane feature on — WAL, failover, deadlines,
    /// admission, breakers and the rebalancer — on `threads` workers, under
    /// a seeded storm over the motes, a dead camera stripe on shard 0 (so
    /// its detections escalate) and two process crashes.
    fn full_control_plane(threads: usize) -> ShardManager {
        let mut config = ClusterConfig::seeded(11, 2)
            .with_imbalance_threshold(1)
            .with_wal(64)
            .with_failover(FailoverConfig::default())
            .with_threads(threads);
        config.engine = config
            .engine
            .clone()
            .with_deadline(SimDuration::from_secs(20))
            .with_admission(aorta_core::AdmissionConfig::default())
            .with_breakers(aorta_net::BreakerConfig::default());
        let mut cluster = ShardManager::new(config, lab());
        admit_queries(&mut cluster, false);
        let motes: Vec<DeviceId> = (0..16).map(DeviceId::sensor).collect();
        let storm = aorta_sim::FaultConfig {
            crash_rate: 0.25,
            loss_burst_rate: 0.3,
            extra_loss: 0.5,
            ..aorta_sim::FaultConfig::default()
        };
        let mut plan = FaultPlan::generate(41, RUN, &motes, &storm);
        for c in 0..12u32 {
            let id = DeviceId::camera(c);
            if cluster.shard_owning(id) == Some(0) {
                plan.schedule(SimTime::from_micros(1), FaultEvent::Crash(id));
            }
        }
        for (s, secs) in [(1, 40), (0, 100)] {
            let victim = motes
                .iter()
                .copied()
                .find(|&d| cluster.shard_owning(d) == Some(s))
                .expect("every shard owns a mote");
            let at = SimTime::ZERO + SimDuration::from_secs(secs);
            plan.schedule(at, FaultEvent::ProcessCrash(victim));
        }
        cluster.inject_faults(plan);
        cluster
    }

    #[test]
    fn call_boundaries_on_the_lookahead_grid_change_no_byte() {
        let run = |calls: u64| {
            let mut cluster = full_control_plane(2);
            for _ in 0..calls {
                cluster.run_for(SimDuration::from_secs(240 / calls));
            }
            let logs: Vec<Vec<WalRecord>> = (0..2).map(|s| shard_log(&cluster, s)).collect();
            (cluster.render_trace(), cluster.stats(), logs)
        };
        let (trace, stats, logs) = run(1);
        stats.check_conservation().unwrap();
        assert!(
            stats.failovers > 0 && stats.migrations > 0 && stats.rerouted > 0,
            "the scenario must fail over, migrate and deliver: {stats:?}"
        );
        let (stepped_trace, stepped_stats, stepped_logs) = run(240);
        assert!(
            trace == stepped_trace,
            "the trace moved with call boundaries"
        );
        assert_eq!(stats, stepped_stats);
        assert!(logs == stepped_logs, "a WAL moved with call boundaries");
    }

    #[test]
    fn durable_failover_windows_fan_out_over_the_pool() {
        // A fleet above `FAN_OUT_DEVICES`, so sample windows reach the
        // pool, with a WAL and a mid-run cross-host failover.
        let run = |threads: usize| {
            let lab = PervasiveLab::with_sizes(24, 600, 0)
                .with_periodic_events(SimDuration::from_secs(20), SimDuration::ZERO);
            let config = ClusterConfig::seeded(7, 2)
                .with_imbalance_threshold(u64::MAX)
                .with_wal(128)
                .with_failover(FailoverConfig::default())
                .with_threads(threads);
            let mut cluster = ShardManager::new(config, lab);
            admit_queries(&mut cluster, true);
            let victim = DeviceId::camera(0);
            let mut plan = FaultPlan::new();
            let at = SimTime::ZERO + SimDuration::from_secs(30);
            plan.schedule(at, FaultEvent::ProcessCrash(victim));
            cluster.inject_faults(plan);
            cluster.run_for(SimDuration::from_secs(90));
            let stats = cluster.stats();
            stats.check_conservation().unwrap();
            assert_eq!(stats.failovers, 1, "{stats:?}");
            (cluster.fanned_out, cluster.render_trace(), stats)
        };
        let (inline, trace, stats) = run(1);
        assert_eq!(inline, 0, "one thread never fans out");
        let (fanned, pooled_trace, pooled_stats) = run(2);
        assert!(fanned > 0, "no window reached the worker pool");
        assert!(trace == pooled_trace, "the pool moved a trace byte");
        assert_eq!(stats, pooled_stats);
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
        // final instant. The escalation must be drained and parked before
        // run_until returns, then delivered or counted dropped.
        let mut cluster = ShardManager::new(threaded_config(11, 2, 1), lab());
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
        let epoch = SimTime::ZERO + SimDuration::from_mins(1);
        cluster.run_until(epoch);
        for s in 0..cluster.shard_count() {
            assert_eq!(
                cluster.shard(s).escalated_backlog(),
                0,
                "shard {s} stranded an escalation at the deadline"
            );
        }
        let stats = cluster.stats();
        stats.check_conservation().unwrap();
        assert!(stats.gateway_parked > 0, "nothing parked at the deadline");
        assert!(cluster
            .gateway_trace()
            .iter()
            .any(|e| e.time == epoch && e.message.contains("parked (attempt 1)")));
        // The backoff budget is well under five seconds.
        cluster.run_for(SimDuration::from_secs(5));
        let stats = cluster.stats();
        stats.check_conservation().unwrap();
        assert_eq!(stats.gateway_parked, 0, "{stats:?}");
        assert!(
            stats.rerouted + stats.gateway_dropped > 0,
            "the deadline-instant escalation was neither delivered nor counted"
        );
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

    /// Under failover, a log without a `MigrateIn` is rebuilt from genesis
    /// on another host, so no cadence snapshot forks an engine image: it
    /// marks a position, which the shipped image's prefix/suffix split
    /// still reads.
    #[test]
    fn recovery_under_failover_forks_no_cadence_image_before_a_migration() {
        let victim = DeviceId::camera(0);
        let mut cluster = ShardManager::new(failover_config(23), lab());
        admit_queries(&mut cluster, true);
        let mut plan = FaultPlan::new();
        plan.schedule(
            SimTime::ZERO + SimDuration::from_secs(150),
            FaultEvent::ProcessCrash(victim),
        );
        cluster.inject_faults(plan);
        cluster.run_for(RUN);

        assert_eq!(cluster.migrations(), 0);
        assert_eq!(cluster.failover_report().len(), 1);
        let report = cluster.wal_report().expect("wal is on");
        assert!(report.snapshots.iter().sum::<u64>() > 0, "{report:?}");
        let dur = cluster.durability.as_ref().expect("wal is on");
        assert_eq!(dur.images_forked, 0, "nothing reads a cadence image here");
        cluster.stats().check_conservation().unwrap();
    }

    /// Under failover, the first migration barrier turns a shard's cadence
    /// images on: a crash of the adopting shard (its log holds a
    /// `MigrateIn`, so it is not shippable) recovers in place from a
    /// cadence image taken after the barrier, not from genesis.
    #[test]
    fn recovery_under_failover_reads_a_cadence_image_after_a_migration() {
        let mut config = ClusterConfig::seeded(5, 2)
            .with_wal(128)
            .with_failover(FailoverConfig::default());
        config.imbalance_threshold = 1;
        let mut cluster = ShardManager::new(config, lab());
        admit_queries(&mut cluster, true);
        cluster.run_for(SimDuration::from_mins(6));
        assert!(cluster.migrations() > 0, "scenario must migrate");
        let adopter = (0..2)
            .find(|&s| {
                shard_log(&cluster, s)
                    .iter()
                    .any(|r| matches!(r, WalRecord::MigrateIn { .. }))
            })
            .expect("a shard adopted a device");

        // No further barriers: every snapshot from here on is cadence.
        cluster.config.imbalance_threshold = u64::MAX;
        let frozen_at =
            cluster.durability.as_ref().expect("wal is on").managers[adopter].position();
        cluster.run_for(SimDuration::from_mins(5));
        let dur = cluster.durability.as_ref().expect("wal is on");
        let (at, image) = dur.managers[adopter]
            .latest_snapshot()
            .expect("snapshots taken");
        assert!(
            at > frozen_at && image.is_some(),
            "no cadence image after the barrier: latest at {at}, frozen at {frozen_at}"
        );
        assert!(dur.images_forked > 2 * cluster.migrations());

        let cam = cluster
            .shard(adopter)
            .registry()
            .ids_of_kind(DeviceKind::Camera)[0];
        let mut plan = FaultPlan::new();
        plan.schedule(
            cluster.now() + SimDuration::from_secs(5),
            FaultEvent::ProcessCrash(cam),
        );
        cluster.inject_faults(plan);
        cluster.run_for(SimDuration::from_mins(2));

        assert!(cluster.gateway_trace().any("gateway", "not shippable"));
        assert_eq!(cluster.recoveries(), 1, "recovered in place");
        assert!(cluster.failover_report().is_empty());
        assert!(!cluster.shard(adopter).is_crashed());
        let report = cluster.wal_report().expect("wal is on");
        let held = shard_log(&cluster, adopter).len() as u64;
        assert!(
            report.records_replayed < held,
            "replayed {} of {held} records: recovery started from genesis",
            report.records_replayed
        );
        cluster.stats().check_conservation().unwrap();
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
        // Partitions apply even without failover: a window covering the
        // whole run on the only escape path s0 -> s1 forces terminal drops
        // instead of deliveries — counted, never lost.
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
