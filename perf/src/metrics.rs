//! The declared metrics: the single source of truth for `BENCHMARK.json`,
//! the result line, and the README glossary.

use std::collections::BTreeMap;

use crate::gen::Workload;
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// What the program costs to run.
    Host,
    /// What the modelled deployment experiences; exact per seed.
    Virtual,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    pub clock: Clock,
    pub what: &'static str,
}

/// One per-layer metric. `layer` is the crate it measures.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload a change to this number should
    /// move; anywhere else the prediction is no change.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer is the name's first segment.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("names are non-empty")
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        clock: Clock::Host,
        what: "median time to build the lab and register the workload's AQs on a fresh system",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        clock: Clock::Host,
        what: "median wall-clock of one timed section",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        clock: Clock::Host,
        what: "median process CPU (user + system, all threads) of one timed section",
    },
    EndToEnd {
        name: "tuples_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        clock: Clock::Host,
        what: "device tuples scanned per second spent inside run_for",
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        clock: Clock::Host,
        what: "action requests created per second spent inside run_for",
    },
    EndToEnd {
        name: "served_share",
        unit: "ratio",
        better: Higher,
        bound: 0.03,
        clock: Clock::Virtual,
        what: "1 - failed_share: requests executed, degraded or still pending over requests",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        clock: Clock::Host,
        what: "peak resident set (VmHWM) of the process that ran the workload",
    },
];

macro_rules! per_layer {
    ($($name:literal, $unit:literal, $better:ident, $moves:literal;)*) => {
        &[$(PerLayer { name: $name, unit: $unit, better: $better, moves: $moves },)*]
    };
}

pub const PER_LAYER: &[PerLayer] = per_layer![
    "net.scan.sensor_ns_per_tuple", "ns", Lower, "wall_s on cluster_wave; <= 2 % of tuples_per_s on detect_fleet";
    "net.scan.camera_ns_per_tuple", "ns", Lower, "wall_s on cluster_wave (2000 cameras scanned per epoch)";
    "net.scan.allocs_per_tuple", "count", Lower, "as net.scan.sensor_ns_per_tuple";
    "net.scan.alloc_bytes_per_tuple", "B", Lower, "as net.scan.sensor_ns_per_tuple";
    "net.probe.ns_per_probe", "ns", Lower, "requests_per_s on cluster_wave";
    "net.probe.timeout_share", "ratio", Lower, "served_share, action_latency_tail_virtual_ms on durable_storm";
    "net.breaker.trips", "count", Lower, "served_share on durable_storm";
    "core.detect.ns_per_tuple", "ns", Lower, "tuples_per_s on detect_fleet (~98 % share) and aq_churn";
    "core.detect.allocs_per_tuple", "count", Lower, "as core.detect.ns_per_tuple";
    "core.detect.alloc_bytes_per_tuple", "B", Lower, "as core.detect.ns_per_tuple";
    "core.fire.us_per_event", "us", Lower, "requests_per_s, cpu_s on cluster_wave";
    "core.fire.allocs_per_event", "count", Lower, "as core.fire.us_per_event";
    "core.epoch.p50_ms", "ms", Lower, "wall_s everywhere; quiet epochs are what detect_fleet pays";
    "core.epoch.p95_ms", "ms", Lower, "wall_s on cluster_wave (burst epochs)";
    "core.epoch.max_ms", "ms", Lower, "wall_s on cluster_wave (burst epochs)";
    "core.epoch.unattributed_share", "ratio", Lower, "none: how much of the stepped wall the probes do not explain";
    "core.sql.create_us", "us", Lower, "wall_s on aq_churn; setup_s on aq_churn";
    "core.sql.drop_us", "us", Lower, "wall_s on aq_churn";
    "core.sql.ddl_per_s", "1/s", Higher, "wall_s on aq_churn (statements per second inside execute_sql)";
    "core.validate.us_per_stmt", "us", Lower, "core.sql.create_us";
    "core.plan.us_per_aq", "us", Lower, "core.sql.create_us";
    "core.register.us_per_aq", "us", Lower, "setup_s on detect_fleet";
    "core.deregister.us_per_aq", "us", Lower, "core.sql.drop_us";
    "core.pindex.cmps", "count", Lower, "explains tuples_per_s on detect_fleet: cost follows distinct comparisons";
    "core.pindex.groups", "count", Lower, "as core.pindex.cmps";
    "core.pindex.aqs_per_group", "count", Higher, "as core.pindex.cmps";
    "core.fork_snapshot.ms", "ms", Lower, "cpu_s, wall_s on cluster_wave (clone-run-swap) and durable_storm (snapshots)";
    "core.state_digest.us", "us", Lower, "none today (recovery verification only)";
    "core.recover.ms_per_1k_records", "ms", Lower, "wall_s on durable_storm (failover rebuild)";
    "core.lock.conflict_share", "ratio", Lower, "served_share";
    "core.events_detected", "count", Higher, "exact per seed: any change is a behaviour change";
    "core.requests", "count", Higher, "exact per seed";
    "core.executed", "count", Higher, "exact per seed; served_share";
    "core.degraded", "count", Lower, "exact per seed; served_share on durable_storm";
    "core.shed", "count", Lower, "exact per seed; served_share on durable_storm";
    "core.expired", "count", Lower, "exact per seed; served_share on durable_storm";
    "core.no_candidate", "count", Lower, "exact per seed; served_share on durable_storm";
    "core.latency.p50_virtual_ms", "ms", Lower, "exact per seed: median event-to-completion latency, all engines pooled";
    "core.latency.tail_virtual_ms", "ms", Lower, "exact per seed: p99, or the highest percentile with ten samples beyond";
    "core.latency.samples", "count", Higher, "exact per seed: completions behind the two percentiles";
    "device.pushdown.suppressed_share", "ratio", Higher, "none today (accounting only); aq_churn";
    "device.pushdown.wire_bytes_per_tuple", "B", Lower, "none today: the modelled network cost; aq_churn";
    "device.pushdown.saved_share", "ratio", Higher, "none today; aq_churn";
    "device.window.advance_ns", "ns", Lower, "tuples_per_s on aq_churn";
    "device.window.drop_query_us", "us", Lower, "wall_s on aq_churn (DROP AQ)";
    "device.window.entries", "count", Lower, "device.window.drop_query_us, peak_rss_mb on aq_churn";
    "sql.parse.us_per_stmt", "us", Lower, "wall_s, setup_s on aq_churn";
    "xml.parse_catalog.us", "us", Lower, "wall_s, setup_s on aq_churn (re-run per statement)";
    "wal.append.ns_per_record", "ns", Lower, "wall_s, requests_per_s on durable_storm";
    "wal.append.allocs_per_record", "count", Lower, "as wal.append.ns_per_record";
    "wal.encode.ns_per_record", "ns", Lower, "wal.append.ns_per_record";
    "wal.decode.ns_per_record", "ns", Lower, "core.recover.ms_per_1k_records";
    "wal.crc64.mb_per_s", "MB/s", Higher, "wal.encode.ns_per_record, wal.decode.ns_per_record";
    "wal.image.encode_ms", "ms", Lower, "wall_s on durable_storm (failover)";
    "wal.image.decode_ms", "ms", Lower, "wall_s on durable_storm (failover)";
    "wal.records_per_request", "count", Lower, "wall_s, peak_rss_mb on durable_storm";
    "wal.bytes_per_request", "B", Lower, "peak_rss_mb on durable_storm";
    "wal.snapshots", "count", Lower, "wall_s, peak_rss_mb on durable_storm";
    "obs.overhead_share", "ratio", Lower, "wall_s, peak_rss_mb on durable_storm (budget: 0.03)";
    "obs.export.json_ms", "ms", Lower, "none (export is outside the timed section)";
    "obs.export.json_bytes", "B", Lower, "peak_rss_mb on durable_storm";
    "cluster.step.p50_ms", "ms", Lower, "wall_s on cluster_wave, durable_storm";
    "cluster.step.p95_ms", "ms", Lower, "wall_s on cluster_wave: the slowest shard sets each window";
    "cluster.parallel.cpu_over_wall", "ratio", Higher, "wall_s on cluster_wave; at most the host's cores";
    "cluster.shard_skew", "ratio", Lower, "wall_s on cluster_wave (max / mean requests per shard)";
    "cluster.escalated", "count", Lower, "exact per seed; served_share on durable_storm";
    "cluster.rerouted", "count", Lower, "exact per seed; action_latency_tail_virtual_ms on durable_storm";
    "cluster.gateway_dropped", "count", Lower, "exact per seed; served_share on durable_storm";
    "cluster.migrations", "count", Lower, "exact per seed";
    "cluster.zombie_rejects", "count", Lower, "exact per seed";
    "cluster.failover.count", "count", Lower, "exact per seed";
    "cluster.failover.degraded_virtual_ms", "ms", Lower, "served_share, action_latency_tail_virtual_ms on durable_storm";
    "cluster.failover.bytes_shipped", "B", Lower, "cluster.failover.degraded_virtual_ms";
    "cluster.recovery.wall_ms", "ms", Lower, "wall_s on durable_storm";
    "cluster.recovery.records_replayed", "count", Lower, "cluster.recovery.wall_ms";
    "sched.lerfa_srfe.us_per_request", "us", Lower, "nothing today: the live engine assigns in dispatch_batch";
    "sched.lerfa_srfe.makespan_virtual_s", "s", Lower, "nothing today: tracks the paper's section 5 algorithm";
    "sim.queue.ns_per_op", "ns", Lower, "core.epoch.p50_ms";
    "sim.trace.bytes", "B", Lower, "peak_rss_mb";
    "data.tuple.clone_ns", "ns", Lower, "core.fire.us_per_event on cluster_wave (cloned per candidate)";
    "perf.trace_overhead_share", "ratio", Lower, "none: stepped wall / untraced wall - 1";
    "perf.alloc_count_overhead_share", "ratio", Lower, "none: wall with the counting allocator on / off - 1";
];

/// Why each workload exists, in one line.
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::DetectFleet => {
            "100k never-matching AQs over 2000 motes: scan + detect do all the work, \
             dispatch/gateway/WAL none"
        }
        Workload::ClusterWave => {
            "4 shards, 2000 reliable cameras, 8 photo AQs: candidate join, probing, \
             assignment and parallel shard stepping dominate"
        }
        Workload::DurableStorm => {
            "4 shards under crashes with WAL, failover, admission, deadlines and \
             observability on: the control plane does the work"
        }
        Workload::AqChurn => {
            "CREATE/DROP AQ against 5k live AQs with pushdown and windows on: the \
             predicate index is written, not only read"
        }
    }
}

/// The benchmark's directory, relative to the repository root.
pub const BENCH_DIR: &str = "perf";
/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// Renders `BENCHMARK.json` from the declarations above.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    let lines = |items: Vec<Json>| -> String {
        let rendered: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", rendered.join(",\n"))
    };
    let workloads = Workload::ALL
        .into_iter()
        .map(|w| Json::object([("name", Json::from(w.name())), ("why", Json::from(why(w)))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::object([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.as_str())),
                ("bound", Json::from(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::object([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Json::Array(command.into_iter().map(Json::from).collect()).render(),
        Json::Array(vec![Json::from(BENCH_DIR)]).render(),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

/// Renders the README's two metric tables from the declarations.
pub fn glossary_markdown() -> String {
    let mut out = String::from(
        "| name | unit | better | clock | bound | what it is |\n|---|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.clock.as_str(),
            m.bound * 100.0,
            m.what
        ));
    }
    out.push_str("\n| layer | name | unit | better | should move |\n|---|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | `{}` | {} | {} | {} |\n",
            m.layer(),
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

/// Metric values by name, as measured.
pub type Values = BTreeMap<&'static str, f64>;

/// The `metrics` object of the result line: every declared name exactly
/// once, in declaration order.
///
/// # Panics
///
/// Panics when a declared metric was not measured or an undeclared one was.
pub fn metrics_json(declared: &[(&'static str, &'static str)], values: &Values) -> Json {
    for name in values.keys() {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "{name} was measured but is not declared"
        );
    }
    Json::object(declared.iter().map(|(name, unit)| {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("{name} is declared but was not measured"));
        (
            *name,
            Json::object([("value", Json::from(value)), ("unit", Json::from(*unit))]),
        )
    }))
}

pub fn end_to_end_names() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declared_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        for (_, unit) in end_to_end_names().into_iter().chain(per_layer_names()) {
            assert!(valid_unit(unit), "{unit}");
        }
    }

    #[test]
    fn declarations_fit_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up time gets the largest bound");
        for workload in Workload::ALL {
            assert!(why(workload).len() <= 200 && !why(workload).contains('\n'));
        }
    }

    #[test]
    fn result_line_has_every_declared_metric_exactly_once() {
        let declared = per_layer_names();
        let values: Values = declared.iter().map(|(n, _)| (*n, 1.5)).collect();
        let rendered = metrics_json(&declared, &values).render();
        for (name, _) in &declared {
            let key = format!("\"{name}\":");
            assert_eq!(rendered.matches(&key).count(), 1, "{name}");
        }
        assert_eq!(rendered.matches("\"value\":").count(), declared.len());
    }

    #[test]
    #[should_panic(expected = "declared but was not measured")]
    fn a_missing_metric_is_a_bug_not_a_gap() {
        metrics_json(&end_to_end_names(), &Values::new());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        let mut values: Values = end_to_end_names().iter().map(|(n, _)| (*n, 1.0)).collect();
        values.insert("made.up", 1.0);
        metrics_json(&end_to_end_names(), &values);
    }

    #[test]
    fn readme_glossary_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("README.md beside the crate");
        for table in glossary_markdown().split("\n\n") {
            assert!(
                readme.contains(table.trim_end()),
                "regenerate the README tables with `perf --print-glossary`"
            );
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `perf --print-benchmark-json > BENCHMARK.json`"
        );
    }
}
