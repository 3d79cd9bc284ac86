//! The traced run: the stepped protocol plus one probe per layer.
//!
//! Every number here is measured from this file, around public calls, on
//! inputs captured from the workload: the registry built from the same lab,
//! a scanned batch, the WAL records the run wrote, the generated SQL text.
//! Counts come from `stats()`, `pushdown_stats()`, `wal_report()` and
//! `failover_report()`; allocation numbers from the counting allocator.

use std::hint::black_box;
use std::time::Instant;

use aorta_core::{
    genesis_fingerprint, recover_from_log, AqPlan, Catalog, EngineConfig, GenesisSpec,
};
use aorta_data::Tuple;
use aorta_device::pushdown::WindowBank;
use aorta_device::{DeviceId, DeviceKind, PervasiveLab};
use aorta_net::{DeviceRegistry, Prober, ScanOperator};
use aorta_sched::{run_algorithm, workload::uniform_targets, Algorithm};
use aorta_sim::metrics::percentile;
use aorta_sim::{CpuModel, EventQueue, SimDuration, SimRng, SimTime};
use aorta_sql::ast::Statement;
use aorta_wal::{crc64, decode_frame, encode_frame, MemStore, SnapshotImage, WalHandle, WalRecord};

use crate::alloc;
use crate::gen::{self, Inputs, Workload};
use crate::metrics::Values;
use crate::span::SpanLog;
use crate::stats::{median, tail};
use crate::workloads::{
    self, outcome, plan_template, setup, timed_section, EpochSample, Outcome, SectionTimes,
    Stepped, System, SAMPLE_PERIOD_S,
};

/// What the traced run hands back.
pub struct Traced {
    /// Wall-clock of the reference, counting and (median) stepped sections.
    pub walls_s: [f64; 3],
    pub values: Values,
    /// `unit cost × count / stepped wall` for each probe that has a count:
    /// the most a faster layer could save on this workload.
    pub shares: Vec<(&'static str, f64)>,
    pub spans: SpanLog,
    pub problems: Vec<String>,
    pub stepped_reps: u32,
}

/// Runs `f`, returning its result and the nanoseconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank quantile of a sample in milliseconds, from seconds.
fn quantile_ms(samples_s: &[f64], q: f64) -> f64 {
    let mut sorted = samples_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q).expect("a stepped repetition has epochs") * 1e3
}

/// One repetition under the end-to-end protocol.
fn repetition(inputs: &Inputs, observability: bool) -> (System, SectionTimes) {
    let mut system = setup(inputs, observability);
    let times = timed_section(&mut system, inputs, None);
    (system, times)
}

struct Probes<'a> {
    inputs: &'a Inputs,
    spans: &'a mut SpanLog,
    values: Values,
    /// Times and outcome of the reference (untraced-protocol) repetition.
    reference: SectionTimes,
    outcome: Outcome,
    wal_appends: u64,
}

impl Probes<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.insert(name, value).is_none(),
            "{name} measured twice"
        );
    }

    fn set_all<const N: usize>(&mut self, values: [(&'static str, f64); N]) {
        for (name, value) in values {
            self.set(name, value);
        }
    }

    fn registry(&self) -> DeviceRegistry {
        DeviceRegistry::from_lab(workloads::lab(self.inputs.workload))
    }

    /// `core`: state the finished run left behind — index shape, snapshot
    /// and digest cost, lock, lifecycle and latency counts.
    fn core_state(&mut self, finished: &mut System) {
        const FORKS: usize = 5;
        const DIGESTS: usize = 20;
        let parent = self.spans.enter("probe.core.state");
        let engine = finished.first_engine_mut();
        let index = engine.predicate_index();
        let (cmps, groups) = (index.cmp_count() as u64, index.group_count() as u64);
        let aqs = engine.catalog().query_count() as u64;
        let push = engine.pushdown_stats();
        let (_, fork_ns) = self.spans.time("core.fork_snapshot", || {
            timed(|| {
                for _ in 0..FORKS {
                    black_box(engine.fork_snapshot());
                }
            })
        });
        let (_, digest_ns) = self.spans.time("core.state_digest", || {
            timed(|| {
                for _ in 0..DIGESTS {
                    black_box(engine.state_digest());
                }
            })
        });
        self.spans.exit(parent);

        let stats = &self.outcome;
        let conflicts = stats.sum(|s| s.lock_conflicts);
        let tuples = push.shipped_tuples + push.suppressed_tuples;
        let values = [
            ("core.pindex.cmps", cmps as f64),
            ("core.pindex.groups", groups as f64),
            ("core.pindex.aqs_per_group", ratio(aqs, groups)),
            ("core.fork_snapshot.ms", fork_ns / 1e6 / FORKS as f64),
            ("core.state_digest.us", digest_ns / 1e3 / DIGESTS as f64),
            (
                "core.lock.conflict_share",
                ratio(conflicts, conflicts + stats.sum(|s| s.lock_acquisitions)),
            ),
            (
                "core.events_detected",
                stats.sum(|s| s.events_detected) as f64,
            ),
            ("core.requests", stats.requests() as f64),
            ("core.executed", stats.sum(|s| s.executed) as f64),
            ("core.degraded", stats.sum(|s| s.degraded) as f64),
            ("core.shed", stats.sum(|s| s.shed) as f64),
            ("core.expired", stats.sum(|s| s.expired) as f64),
            ("core.no_candidate", stats.sum(|s| s.no_candidate) as f64),
            (
                "core.latency.p50_virtual_ms",
                percentile(&stats.latencies_us, 0.5).map_or(0.0, |us| us as f64 / 1e3),
            ),
            (
                "core.latency.tail_virtual_ms",
                tail(&stats.latencies_us).map_or(0.0, |t| t.value as f64 / 1e3),
            ),
            ("core.latency.samples", stats.latencies_us.len() as f64),
            (
                "net.probe.timeout_share",
                ratio(stats.sum(|s| s.probe_timeouts), stats.sum(|s| s.probes)),
            ),
            ("net.breaker.trips", stats.sum(|s| s.breaker_trips) as f64),
            (
                "device.pushdown.suppressed_share",
                ratio(push.suppressed_tuples, tuples),
            ),
            (
                "device.pushdown.wire_bytes_per_tuple",
                ratio(push.wire_bytes(), tuples),
            ),
            (
                "device.pushdown.saved_share",
                ratio(push.saved_bytes(), push.baseline_bytes),
            ),
        ];
        self.set_all(values);
    }

    /// `cluster`, `obs`, `sim`: the gateway's ledger, the observability
    /// export and the retained trace of the finished run. All zero where
    /// the workload has no such layer.
    fn cluster_state(&mut self, finished: &System) {
        let parent = self.spans.enter("probe.cluster.state");
        let cluster = finished.cluster();
        let export = cluster.map(|c| {
            self.spans
                .time("obs.export.json", || timed(|| c.metrics_json()))
        });
        let trace_bytes = match finished {
            System::Engine(engine) => engine.trace().render().len(),
            System::Cluster(cluster) => cluster.render_trace().len(),
        };
        self.spans.exit(parent);
        let (export_bytes, export_ns) = match export {
            Some((Some(json), ns)) => (json.len(), ns),
            _ => (0, 0.0),
        };

        let per_shard: Vec<u64> = self.outcome.engines.iter().map(|s| s.requests).collect();
        let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        let skew = if cluster.is_some() && mean > 0.0 {
            max / mean
        } else {
            0.0
        };

        let stats = self.outcome.cluster.clone().unwrap_or_default();
        let failovers = cluster.map(|c| c.failover_report()).unwrap_or_default();
        let wal = cluster.and_then(|c| c.wal_report());
        let (appends, wal_bytes, snapshots) = wal.as_ref().map_or((0, 0, 0), |r| {
            (
                r.per_shard.iter().map(|w| w.appends).sum(),
                r.per_shard.iter().map(|w| w.bytes).sum(),
                r.snapshots.iter().sum::<u64>(),
            )
        });
        self.wal_appends = appends;
        let requests = self.outcome.requests();
        let degraded_ms: u64 = failovers
            .iter()
            .map(|f| f.degraded_window().as_micros() / 1000)
            .sum();
        let replayed = wal.as_ref().map_or(0, |w| w.records_replayed)
            + failovers.iter().map(|f| f.records_replayed).sum::<u64>();
        let recovery_ms: u64 = wal.as_ref().map_or(0, |w| w.recovery_wall_ms.iter().sum());
        let shipped: u64 = failovers.iter().map(|f| f.bytes_shipped).sum();
        let values = [
            ("obs.export.json_ms", export_ns / 1e6),
            ("obs.export.json_bytes", export_bytes as f64),
            ("sim.trace.bytes", trace_bytes as f64),
            (
                "cluster.parallel.cpu_over_wall",
                self.reference.cpu_s / self.reference.wall_s,
            ),
            ("cluster.shard_skew", skew),
            ("cluster.escalated", stats.escalated_out() as f64),
            ("cluster.rerouted", stats.rerouted as f64),
            ("cluster.gateway_dropped", stats.gateway_dropped as f64),
            ("cluster.migrations", stats.migrations as f64),
            ("cluster.zombie_rejects", stats.zombie_rejects as f64),
            ("cluster.failover.count", stats.failovers as f64),
            ("cluster.failover.degraded_virtual_ms", degraded_ms as f64),
            ("cluster.failover.bytes_shipped", shipped as f64),
            ("cluster.recovery.wall_ms", recovery_ms as f64),
            ("cluster.recovery.records_replayed", replayed as f64),
            ("wal.records_per_request", ratio(appends, requests)),
            ("wal.bytes_per_request", ratio(wal_bytes, requests)),
            ("wal.snapshots", snapshots as f64),
        ];
        self.set_all(values);
    }

    /// Records a single-engine replica of one `durable_storm` shard's worth
    /// of devices with a WAL attached, then recovers it from the log alone.
    /// Returns the log, for the WAL probes of workloads that write none.
    fn recovery(&mut self) -> Vec<WalRecord> {
        const REPLICA_S: u64 = 600;
        let parent = self.spans.enter("probe.core.recover");
        let seed = self.inputs.engine_seed;
        let lab = PervasiveLab::with_sizes(12, 16, 0)
            .with_periodic_events(SimDuration::from_secs(30), SimDuration::from_millis(100));
        let spec = GenesisSpec {
            config: EngineConfig::seeded(seed),
            registry: DeviceRegistry::from_lab(lab),
            handlers: Vec::new(),
        };
        let fingerprint = genesis_fingerprint(seed, 0);
        let mut replica = spec.build();
        let handle = WalHandle::record(Box::new(MemStore::new()), None, "replica");
        handle.append(WalRecord::Genesis { fingerprint });
        replica.attach_wal(handle.clone());
        for sql in &gen::generate(Workload::DurableStorm, self.inputs.seed).setup_sql {
            replica.execute_sql(sql).expect("storm AQs register");
        }
        replica.run_for(SimDuration::from_secs(REPLICA_S));
        let records = handle.records().expect("replica log reads back");
        let replay = records.clone();
        let (recovered, ns) = self.spans.time("core.recover", || {
            timed(|| recover_from_log(&spec, replay, fingerprint).expect("replica recovers"))
        });
        self.spans.exit(parent);
        assert_eq!(
            recovered.engine.state_digest(),
            replica.state_digest(),
            "recovery rebuilt a different engine"
        );
        self.set(
            "core.recover.ms_per_1k_records",
            ns / 1e6 / (records.len() as f64 / 1e3),
        );
        records
    }

    /// `wal`: the codec, the handle and the image over the records the
    /// workload wrote (shard 0's log), or the replica's where it wrote none.
    fn wal(&mut self, mut records: Vec<WalRecord>) {
        const MAX_RECORDS: usize = 20_000;
        const CRC_BYTES: usize = 16 << 20;
        let parent = self.spans.enter("probe.wal");
        records.truncate(MAX_RECORDS);
        let n = records.len() as f64;

        let handle = WalHandle::record(Box::new(MemStore::new()), None, "probe");
        let to_append = records.clone();
        let ((_, append_ns), append_calls, _) = alloc::measure(|| {
            self.spans.time("wal.append", || {
                timed(|| {
                    for record in to_append {
                        handle.append(record);
                    }
                })
            })
        });
        let (frames, encode_ns) = self.spans.time("wal.encode", || {
            timed(|| {
                records
                    .iter()
                    .enumerate()
                    .map(|(lsn, r)| encode_frame(r, lsn as u64))
                    .collect::<Vec<Vec<u8>>>()
            })
        });
        let log: Vec<u8> = frames.concat();
        let (decoded, decode_ns) = self.spans.time("wal.decode", || {
            timed(|| {
                let mut offset = 0;
                let mut decoded = 0usize;
                while offset < log.len() {
                    black_box(decode_frame(&log, &mut offset).expect("own frames decode"));
                    decoded += 1;
                }
                decoded
            })
        });
        assert_eq!(decoded, records.len(), "every encoded frame decodes");
        let passes = (CRC_BYTES / log.len().max(1)).max(1);
        let (_, crc_ns) = self.spans.time("wal.crc64", || {
            timed(|| {
                for _ in 0..passes {
                    black_box(crc64(black_box(&log)));
                }
            })
        });
        let split = records.len() / 2;
        let image = SnapshotImage {
            shard: 0,
            epoch: 1,
            fingerprint: 0,
            prefix: records[..split].to_vec(),
            suffix: records[split..].to_vec(),
        };
        let (bytes, image_encode_ns) = self
            .spans
            .time("wal.image.encode", || timed(|| image.encode()));
        let (_, image_decode_ns) = self.spans.time("wal.image.decode", || {
            timed(|| black_box(SnapshotImage::decode(&bytes).expect("own image decodes")))
        });
        self.spans.exit(parent);

        let values = [
            ("wal.append.ns_per_record", append_ns / n),
            ("wal.append.allocs_per_record", append_calls as f64 / n),
            ("wal.encode.ns_per_record", encode_ns / n),
            ("wal.decode.ns_per_record", decode_ns / n),
            (
                "wal.crc64.mb_per_s",
                (passes * log.len()) as f64 / 1e6 / (crc_ns / 1e9),
            ),
            ("wal.image.encode_ms", image_encode_ns / 1e6),
            ("wal.image.decode_ms", image_decode_ns / 1e6),
        ];
        self.set_all(values);
    }

    /// `net`: scans and probes over the registry built from the workload's lab.
    fn net(&mut self) {
        const TUPLES: usize = 40_000;
        const PROBES: usize = 20_000;
        let parent = self.spans.enter("probe.net");
        let shape = self.inputs.workload.shape();
        let mut registry = self.registry();
        let mut rng = SimRng::seed(self.inputs.engine_seed);
        // Quiet instants: half a period past each spike.
        let quiet = |i: usize| {
            SimTime::ZERO
                + SimDuration::from_secs(shape.spike_period_s * i as u64 + shape.spike_period_s / 2)
        };

        let mut scan = |kind: DeviceKind, devices: usize, span: &'static str| {
            let iters = (TUPLES / devices).clamp(5, 5000);
            let op = ScanOperator::new(kind);
            let id = self.spans.enter(span);
            let ((tuples, ns), calls, bytes) = alloc::measure(|| {
                timed(|| {
                    (0..iters)
                        .map(|i| black_box(op.run(&mut registry, quiet(i), &mut rng)).len())
                        .sum::<usize>()
                })
            });
            self.spans.exit(id);
            let tuples = tuples.max(1) as f64;
            (ns / tuples, calls as f64 / tuples, bytes as f64 / tuples)
        };
        let (sensor_ns, allocs, alloc_bytes) =
            scan(DeviceKind::Sensor, shape.motes, "net.scan.sensor");
        let (camera_ns, _, _) = scan(DeviceKind::Camera, shape.cameras, "net.scan.camera");

        let mut prober = Prober::new();
        let cameras = shape.cameras as u32;
        let (_, probe_ns) = self.spans.time("net.probe", || {
            timed(|| {
                for i in 0..PROBES as u32 {
                    let id = DeviceId::camera(i % cameras);
                    black_box(prober.probe(&mut registry, id, quiet(0), &mut rng));
                }
            })
        });
        self.spans.exit(parent);
        self.set_all([
            ("net.scan.sensor_ns_per_tuple", sensor_ns),
            ("net.scan.camera_ns_per_tuple", camera_ns),
            ("net.scan.allocs_per_tuple", allocs),
            ("net.scan.alloc_bytes_per_tuple", alloc_bytes),
            ("net.probe.ns_per_probe", probe_ns / PROBES as f64),
        ]);
    }

    /// `core`: detection on a freshly set-up system's first engine, under
    /// the workload's AQ set, on a quiet batch scanned from that engine's own
    /// registry. `detect_on_batch` sees one table, so it can time detection
    /// but not the candidate join of a `photo` AQ; firing is measured on the
    /// stepped run instead (see [`Probes::fire`]).
    fn core_detect(&mut self) {
        const TUPLES: usize = 12_000;
        const BUDGET_NS: f64 = 1e9;
        let parent = self.spans.enter("probe.core.detect");
        let shape = self.inputs.workload.shape();
        let mut system = setup(self.inputs, true);
        let engine = system.first_engine_mut();
        let mut registry = engine.registry().clone();
        let mut rng = SimRng::seed(self.inputs.engine_seed);
        let period = SimDuration::from_secs(shape.spike_period_s);
        let quiet = ScanOperator::new(DeviceKind::Sensor).run(
            &mut registry,
            SimTime::ZERO + period + period / 2,
            &mut rng,
        );
        let len = quiet.len().max(1);
        // The first call warms the caches and says how many fit the budget.
        let (_, warm_ns) = timed(|| engine.detect_on_batch(DeviceKind::Sensor, quiet.clone()));
        let iters = ((BUDGET_NS / warm_ns) as usize).clamp(3, (TUPLES / len).max(3));
        let batches: Vec<Vec<Tuple>> = (0..iters).map(|_| quiet.clone()).collect();
        let id = self.spans.enter("core.detect");
        let ((_, ns), calls, bytes) = alloc::measure(|| {
            timed(|| {
                for batch in batches {
                    engine.detect_on_batch(DeviceKind::Sensor, batch);
                }
            })
        });
        self.spans.exit(id);
        self.spans.exit(parent);
        let tuples = (iters * len) as f64;
        self.set_all([
            ("core.detect.ns_per_tuple", ns / tuples),
            ("core.detect.allocs_per_tuple", calls as f64 / tuples),
            ("core.detect.alloc_bytes_per_tuple", bytes as f64 / tuples),
        ]);
    }

    /// `core`: what an epoch costs beyond a quiet one when events fire in it
    /// (candidate join + probe + assignment), per event, from the stepped
    /// run's epochs.
    fn fire(&mut self, epochs: &[EpochSample]) {
        let mut events_before = 0;
        let (mut quiet_s, mut quiet_allocs) = (Vec::new(), Vec::new());
        let mut bursts = Vec::new();
        for epoch in epochs {
            // A new repetition starts its count over.
            let fired = epoch.events_so_far.saturating_sub(events_before);
            events_before = epoch.events_so_far;
            if fired == 0 {
                quiet_s.push(epoch.wall_s);
                quiet_allocs.push(epoch.allocs as f64);
            } else {
                bursts.push((epoch, fired));
            }
        }
        let (mut extra_s, mut extra_allocs, mut events) = (0.0, 0.0, 0);
        if !quiet_s.is_empty() {
            let (quiet_s, quiet_allocs) = (median(&quiet_s), median(&quiet_allocs));
            for (epoch, fired) in bursts {
                extra_s += epoch.wall_s - quiet_s;
                extra_allocs += epoch.allocs as f64 - quiet_allocs;
                events += fired;
            }
        }
        let per_event = |extra: f64| {
            if events == 0 {
                0.0
            } else {
                extra.max(0.0) / events as f64
            }
        };
        self.set_all([
            ("core.fire.us_per_event", per_event(extra_s) * 1e6),
            ("core.fire.allocs_per_event", per_event(extra_allocs)),
        ]);
    }

    /// `core`, `sql`, `xml`: the DDL path, piece by piece.
    fn ddl(&mut self) {
        const STATEMENTS: usize = 50;
        const PLANS: usize = 200;
        let parent = self.spans.enter("probe.core.ddl");
        let inputs = self.inputs;
        let mut system = setup(inputs, true);

        // Whole statements, on the full system (every shard of a cluster).
        // `aq_churn` reports its own statements from the stepped run, where
        // the window bank and the index are as the workload leaves them.
        let creates: Vec<String> = (0..STATEMENTS)
            .map(|i| {
                let select = gen::palette_select(inputs.workload, &inputs.palette[i]);
                format!("CREATE AQ probe{i} AS {select}")
            })
            .collect();
        let (_, create_ns) = self.spans.time("core.sql.create", || {
            timed(|| {
                for sql in &creates {
                    system.execute_sql(sql).expect("probe AQ registers");
                }
            })
        });
        let (_, drop_ns) = self.spans.time("core.sql.drop", || {
            timed(|| {
                for i in 0..STATEMENTS {
                    let sql = format!("DROP AQ probe{i}");
                    system.execute_sql(&sql).expect("probe AQ drops");
                }
            })
        });
        let stepped_us = |spans: &SpanLog, name: &str| -> Option<f64> {
            let samples = spans.durations_s(name);
            (!samples.is_empty()).then(|| median(&samples) * 1e6)
        };
        let create_us =
            stepped_us(self.spans, "sql.create").unwrap_or(create_ns / 1e3 / STATEMENTS as f64);
        let drop_us =
            stepped_us(self.spans, "sql.drop").unwrap_or(drop_ns / 1e3 / STATEMENTS as f64);

        // The pieces `execute_sql` is made of.
        let texts: Vec<String> = inputs
            .palette
            .iter()
            .map(|pred| {
                let select = gen::palette_select(inputs.workload, pred);
                format!("CREATE AQ t AS {select}")
            })
            .collect();
        let (parsed, parse_ns) = self.spans.time("sql.parse", || {
            timed(|| {
                texts
                    .iter()
                    .map(|sql| aorta_sql::parse(sql).expect("palette SQL parses").remove(0))
                    .collect::<Vec<Statement>>()
            })
        });
        let engine = system.first_engine_mut();
        // `validation_context` is rebuilt per statement by `execute_sql`,
        // re-parsing the XML catalogs each time; measure it the same way.
        let (_, validate_ns) = self.spans.time("core.validate", || {
            timed(|| {
                for stmt in &parsed {
                    let ctx = engine.catalog().validation_context();
                    ctx.validate(stmt).expect("palette SQL validates");
                }
            })
        });
        let catalog = Catalog::with_builtins();
        let (templates, plan_ns) = self.spans.time("core.plan", || {
            timed(|| {
                inputs
                    .palette
                    .iter()
                    .map(|pred| plan_template(inputs.workload, pred, &catalog))
                    .collect::<Vec<AqPlan>>()
            })
        });
        let plans: Vec<AqPlan> = (0..PLANS)
            .map(|i| {
                let mut plan = templates[i % templates.len()].clone();
                plan.name = format!("probe_plan{i:05}");
                plan
            })
            .collect();
        let (_, register_ns) = self.spans.time("core.register", || {
            timed(|| {
                for plan in plans {
                    engine
                        .register_query_plan(plan)
                        .expect("probe plan registers");
                }
            })
        });
        let (_, deregister_ns) = self.spans.time("core.deregister", || {
            timed(|| {
                for i in 0..PLANS {
                    engine
                        .deregister_query(&format!("probe_plan{i:05}"))
                        .expect("probe plan deregisters");
                }
            })
        });
        let kinds = DeviceKind::ALL;
        let (_, xml_ns) = self.spans.time("xml.parse_catalog", || {
            timed(|| {
                for _ in 0..STATEMENTS {
                    for kind in kinds {
                        let xml = aorta_device::catalog_for(kind);
                        black_box(aorta_device::parse_catalog(&xml).expect("catalogs parse"));
                    }
                }
            })
        });
        self.spans.exit(parent);

        let per_palette = inputs.palette.len() as f64;
        let ddl_per_s = if self.reference.ddl_s > 0.0 {
            self.reference.ddl_statements as f64 / self.reference.ddl_s
        } else {
            2e6 / (create_us + drop_us)
        };
        self.set_all([
            ("core.sql.create_us", create_us),
            ("core.sql.drop_us", drop_us),
            ("core.sql.ddl_per_s", ddl_per_s),
            ("sql.parse.us_per_stmt", parse_ns / 1e3 / per_palette),
            ("core.validate.us_per_stmt", validate_ns / 1e3 / per_palette),
            ("core.plan.us_per_aq", plan_ns / 1e3 / per_palette),
            ("core.register.us_per_aq", register_ns / 1e3 / PLANS as f64),
            (
                "core.deregister.us_per_aq",
                deregister_ns / 1e3 / PLANS as f64,
            ),
            (
                "xml.parse_catalog.us",
                xml_ns / 1e3 / (STATEMENTS * kinds.len()) as f64,
            ),
        ]);
    }

    /// `device`: a window bank sized like the workload's.
    fn window_bank(&mut self) {
        const WINDOW: u32 = 8;
        const DROPS: u32 = 20;
        let parent = self.spans.enter("probe.device");
        let shape = self.inputs.workload.shape();
        let entries = workloads::window_entries(self.inputs);
        // A workload without windowed AQs still gets the unit costs, from
        // the smallest bank that has something to drop.
        let queries = ((entries / shape.motes as u64) as u32).max(DROPS);
        let mut bank = WindowBank::new();
        for round in 0..WINDOW {
            for query in 0..queries {
                for source in 0..shape.motes as i64 {
                    bank.advance(query, 0, source, WINDOW, Some(f64::from(round)));
                }
            }
        }
        let advances = u64::from(queries) * shape.motes as u64;
        let (_, advance_ns) = self.spans.time("device.window.advance", || {
            timed(|| {
                for query in 0..queries {
                    for source in 0..shape.motes as i64 {
                        bank.advance(query, 0, source, WINDOW, Some(22.0));
                    }
                }
            })
        });
        let (_, drop_ns) = self.spans.time("device.window.drop_query", || {
            timed(|| {
                for query in 0..DROPS {
                    bank.drop_query(query);
                }
            })
        });
        black_box(bank.len());
        self.spans.exit(parent);
        self.set_all([
            ("device.window.advance_ns", advance_ns / advances as f64),
            (
                "device.window.drop_query_us",
                drop_ns / 1e3 / f64::from(DROPS),
            ),
            ("device.window.entries", entries as f64),
        ]);
    }

    /// `obs`: the timed section once more with `with_observability()`
    /// removed, on the workload that has it on.
    fn obs_overhead(&mut self) {
        let mut overhead = 0.0;
        if self.inputs.workload == Workload::DurableStorm {
            let (bare, times) = self
                .spans
                .time("probe.obs.off", || repetition(self.inputs, false));
            drop(bare);
            overhead = self.reference.wall_s / times.wall_s - 1.0;
        }
        self.set("obs.overhead_share", overhead);
    }

    /// `sched`: the paper's §5 algorithm on an instance the size of one
    /// `cluster_wave` burst on one shard. The live engine assigns in
    /// `dispatch_batch`, not through `aorta-sched`; this keeps the
    /// algorithm's cost tracked all the same.
    fn sched(&mut self) {
        let wave = Workload::ClusterWave.shape();
        let requests = wave.motes * wave.base_aqs / wave.shards;
        let cameras = wave.cameras / wave.shards;
        let mut rng = SimRng::seed(self.inputs.engine_seed);
        let (instance, model) = uniform_targets(requests, cameras, &mut rng);
        let (result, ns) = self.spans.time("probe.sched", || {
            timed(|| {
                run_algorithm(
                    &Algorithm::LerfaSrfe,
                    &instance,
                    &model,
                    &CpuModel::paper_notebook(),
                    &mut rng,
                )
            })
        });
        self.set_all([
            (
                "sched.lerfa_srfe.us_per_request",
                ns / 1e3 / requests as f64,
            ),
            (
                "sched.lerfa_srfe.makespan_virtual_s",
                result.service_makespan.as_secs_f64(),
            ),
        ]);
    }

    /// `sim`, `data`: the event queue and tuple clones.
    fn sim(&mut self) {
        const OPS: u64 = 200_000;
        let parent = self.spans.enter("probe.sim");
        let mut rng = gen::Rng::new(self.inputs.seed);
        let times: Vec<SimTime> = (0..OPS)
            .map(|_| SimTime::from_micros(rng.next_u64() % 1_000_000_000))
            .collect();
        let (_, queue_ns) = self.spans.time("sim.queue", || {
            timed(|| {
                let mut queue = EventQueue::new();
                for (i, at) in times.iter().enumerate() {
                    queue.push(*at, i);
                }
                while let Some(event) = queue.pop() {
                    black_box(event);
                }
            })
        });
        let mut registry = self.registry();
        let mut sim_rng = SimRng::seed(self.inputs.engine_seed);
        let batch =
            ScanOperator::new(DeviceKind::Sensor).run(&mut registry, SimTime::ZERO, &mut sim_rng);
        let len = batch.len().max(1);
        let clones = (OPS as usize / len).max(1);
        let (_, clone_ns) = self.spans.time("data.tuple.clone", || {
            timed(|| {
                for _ in 0..clones {
                    black_box(batch.clone());
                }
            })
        });
        self.spans.exit(parent);
        self.set_all([
            ("sim.queue.ns_per_op", queue_ns / (2 * OPS) as f64),
            ("data.tuple.clone_ns", clone_ns / (clones * len) as f64),
        ]);
    }

    /// What the probes' unit costs explain of one stepped repetition.
    fn shares(&mut self, stepped_wall_s: f64) -> Vec<(&'static str, f64)> {
        let shape = self.inputs.workload.shape();
        let epochs = (shape.run_s + shape.drain_s) / SAMPLE_PERIOD_S;
        let sensor_tuples = shape.motes as u64 * epochs;
        let camera_tuples = workloads::scanned_tuples(self.inputs.workload) - sensor_tuples;
        let statements = self.inputs.rounds.len() * gen::CHURN_STATEMENTS_PER_ROUND;
        let events = self.outcome.sum(|s| s.events_detected);
        let v = &self.values;
        let costs_s = [
            (
                "net.scan.sensor",
                v["net.scan.sensor_ns_per_tuple"] / 1e9 * sensor_tuples as f64,
            ),
            (
                "net.scan.camera",
                v["net.scan.camera_ns_per_tuple"] / 1e9 * camera_tuples as f64,
            ),
            (
                "core.detect",
                v["core.detect.ns_per_tuple"] / 1e9 * sensor_tuples as f64,
            ),
            (
                "core.fire",
                v["core.fire.us_per_event"] / 1e6 * events as f64,
            ),
            (
                "wal.append",
                v["wal.append.ns_per_record"] / 1e9 * self.wal_appends as f64,
            ),
            // Priced at the finished engine's size, so an upper bound.
            (
                "core.fork_snapshot",
                v["core.fork_snapshot.ms"] / 1e3 * v["wal.snapshots"],
            ),
            (
                "core.sql.create",
                v["core.sql.create_us"] / 1e6 * statements as f64,
            ),
            (
                "core.sql.drop",
                v["core.sql.drop_us"] / 1e6 * statements as f64,
            ),
        ];
        let shares: Vec<(&'static str, f64)> = costs_s
            .iter()
            .map(|(name, cost)| (*name, cost / stepped_wall_s))
            .collect();
        let attributed: f64 = shares.iter().map(|(_, share)| share).sum();
        self.set("core.epoch.unattributed_share", 1.0 - attributed);
        shares
    }
}

/// The traced run of one workload: a discarded warm-up and a reference
/// repetition under the end-to-end protocol, one more with the allocator
/// counting, stepped repetitions until about 70 % of `seconds` is spent,
/// then the layer probes.
pub fn run(inputs: &Inputs, seconds: f64) -> Traced {
    let started = Instant::now();
    let mut spans = SpanLog::new();
    let mut problems = Vec::new();

    drop(spans.time("warmup", || repetition(inputs, true)));
    let (mut finished, reference) = spans.time("reference", || repetition(inputs, true));
    let mut probes = Probes {
        inputs,
        spans: &mut spans,
        values: Values::new(),
        reference,
        outcome: outcome(&finished),
        wal_appends: 0,
    };

    // What the finished run left behind, read before anything else is built
    // so that two big systems never coexist.
    probes.core_state(&mut finished);
    probes.cluster_state(&finished);
    let own_log = finished
        .cluster()
        .and_then(|c| c.shard(0).wal())
        .map(|handle| handle.records().expect("shard log reads back"));
    drop(finished);
    // Straight after the reference, while the allocator's state is the same.
    probes.obs_overhead();
    alloc::set_counting(true);
    let replica_log = probes.recovery();
    probes.wal(own_log.unwrap_or(replica_log));

    // The end-to-end protocol again with the allocator counting.
    let (counted_system, counted) = probes
        .spans
        .time("reference.counting", || repetition(inputs, true));
    drop(counted_system);

    // Stepped: one span per sample period or statement.
    let mut stepped_walls = Vec::new();
    let mut epochs = Vec::new();
    let mut first_stepped: Option<Outcome> = None;
    loop {
        probes.spans.rep += 1;
        let rep = probes.spans.rep;
        let mut system = setup(inputs, true);
        let id = probes.spans.enter("stepped");
        let mut stepped = Stepped {
            spans: &mut *probes.spans,
            epochs: Vec::new(),
        };
        let times = timed_section(&mut system, inputs, Some(&mut stepped));
        epochs.append(&mut stepped.epochs);
        probes.spans.exit(id);
        stepped_walls.push(times.wall_s);
        // Stepping changes how often the caller re-enters the engine, never
        // what the modelled deployment experiences.
        let stepped_outcome = outcome(&system);
        if !stepped_outcome.same_behaviour(&probes.outcome) {
            problems.push(format!(
                "stepped repetition {rep} behaved differently from the untraced run"
            ));
        }
        match &first_stepped {
            Some(first) if *first != stepped_outcome => problems.push(format!(
                "stepped repetition {rep} diverged: digest {:016x} vs {:016x}",
                stepped_outcome.digest, first.digest
            )),
            Some(_) => {}
            None => first_stepped = Some(stepped_outcome),
        }
        if started.elapsed().as_secs_f64() >= 0.7 * seconds {
            break;
        }
    }
    let stepped_reps = probes.spans.rep;
    probes.spans.rep = 0;
    let stepped_wall = median(&stepped_walls);
    let epochs_s: Vec<f64> = epochs.iter().map(|e| e.wall_s).collect();
    let is_cluster = inputs.workload.shape().shards > 0;
    let step_ms = |q: f64| {
        if is_cluster {
            quantile_ms(&epochs_s, q)
        } else {
            0.0
        }
    };
    probes.set_all([
        (
            "perf.trace_overhead_share",
            stepped_wall / reference.wall_s - 1.0,
        ),
        (
            "perf.alloc_count_overhead_share",
            counted.wall_s / reference.wall_s - 1.0,
        ),
        ("core.epoch.p50_ms", quantile_ms(&epochs_s, 0.5)),
        ("core.epoch.p95_ms", quantile_ms(&epochs_s, 0.95)),
        ("core.epoch.max_ms", quantile_ms(&epochs_s, 1.0)),
        ("cluster.step.p50_ms", step_ms(0.5)),
        ("cluster.step.p95_ms", step_ms(0.95)),
    ]);
    probes.fire(&epochs);
    probes.net();
    probes.core_detect();
    probes.ddl();
    probes.window_bank();
    probes.sched();
    probes.sim();
    alloc::set_counting(false);
    let shares = probes.shares(stepped_wall);

    let values = probes.values;
    Traced {
        walls_s: [reference.wall_s, counted.wall_s, stepped_wall],
        values,
        shares,
        spans,
        problems,
        stepped_reps,
    }
}
