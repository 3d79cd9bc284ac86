//! The one writer behind every file `repro` emits: a small JSON value, the
//! committed `BENCH_*.json` layout it renders, one builder per artifact,
//! and [`write_file`].

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::experiments::{
    E10Report, E11Report, E12Report, E13Report, E14Report, E8Report, E9Report, MakespanPoint,
    RatioPoint, E10_MOTES, E10_PALETTE, E11_CAMERAS, E11_MOTES, E8_CAMERAS, E8_REQUESTS,
};

/// A JSON value (the workspace vendors no serializer).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A float as `f64`'s `Display` prints it: the shortest decimal that
    /// round-trips, never an exponent.
    F64(f64),
    /// A float with exactly this many decimals (`{:.N}`), trailing zeros kept.
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep their insertion order, so output is stable.
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// An object literal, `obj! { "key": value, … }`: each value goes through
/// `Json::from`.
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        Json::Object(vec![$(($key.to_string(), Json::from($value))),*])
    };
}

/// A trace digest as the artifacts quote it: `"0x"` and 16 hex digits.
pub fn hex(digest: u64) -> Json {
    Json::Str(format!("{digest:#018x}"))
}

/// An array of anything convertible.
pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
    Json::Array(items.into_iter().map(Into::into).collect())
}

impl Json {
    /// Renders the committed artifact layout: a top-level object's fields
    /// one per line, a field holding an array of objects one object per
    /// line, everything else inline with `": "` / `", "` separators, and a
    /// trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("string write"),
            Json::U64(v) => write!(out, "{v}").expect("string write"),
            Json::F64(v) => {
                assert!(v.is_finite(), "JSON has no encoding for {v}");
                write!(out, "{v}").expect("string write");
            }
            Json::Fixed(v, decimals) => {
                assert!(v.is_finite(), "JSON has no encoding for {v}");
                write!(out, "{v:.decimals$}").expect("string write");
            }
            Json::Str(s) => write_str(s, out),
            Json::Array(items) => {
                let rows = depth == 1
                    && !items.is_empty()
                    && items.iter().all(|i| matches!(i, Json::Object(_)));
                write_seq(out, "[]", rows, depth, items.iter().map(|i| (None, i)));
            }
            Json::Object(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_seq(out, "{}", depth == 0, depth, fields);
            }
        }
    }
}

/// Writes an array or object between `brackets`: inline, or with each
/// member on its own line indented one step past `depth`.
fn write_seq<'a>(
    out: &mut String,
    brackets: &str,
    one_per_line: bool,
    depth: usize,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if one_per_line {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            write_str(key, out);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if one_per_line {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(close);
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c)).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `body` to `path`: the only file write in this crate, used for
/// every artifact and `--csv` series.
pub fn write_file(path: impl AsRef<Path>, body: &str) -> io::Result<()> {
    std::fs::write(path, body)
}

/// `BENCH_sched.json`: the Figure 4 points and the E7 rows.
pub fn sched(fig4: &[MakespanPoint], e7: &[RatioPoint]) -> Json {
    obj! {
        "fig4": array(fig4.iter().map(|p| obj! {
            "algorithm": p.algorithm, "requests": p.x,
            "makespan_s": Json::Fixed(p.makespan_secs, 4),
            "sched_s": Json::Fixed(p.sched_secs, 4), "service_s": Json::Fixed(p.service_secs, 4),
        })),
        "e7": array(e7.iter().map(|r| obj! {
            "algorithm": r.algorithm, "n": r.n, "m": r.m,
            "makespan_s": Json::Fixed(r.service_secs, 4),
        })),
    }
}

/// `BENCH_cluster.json`: the E8 batch sweep and live arm.
pub fn cluster(report: &E8Report) -> Json {
    let live = &report.live;
    obj! {
        "experiment": "e8", "requests": E8_REQUESTS, "cameras": E8_CAMERAS,
        "speedup_1_to_8": Json::Fixed(report.speedup_1_to_8, 4),
        "deterministic": report.deterministic, "trace_fnv1a": hex(report.trace_digest),
        "batch": array(report.batch.iter().map(|r| obj! {
            "shards": r.shards, "crashed_cameras": r.crashed_cameras,
            "makespan_s": Json::Fixed(r.makespan_secs, 4), "rerouted": r.rerouted,
            "balanced": r.balanced, "dropped": r.dropped,
        })),
        "live": obj! {
            "shards": live.shards, "requests": live.requests, "executed": live.executed,
            "rerouted": live.rerouted, "migrations": live.migrations,
            "mean_latency_s": live.mean_latency_secs.map_or(Json::Null, |s| Json::Fixed(s, 4)),
            "conservation_ok": live.conservation_ok,
        },
    }
}

/// `BENCH_overload.json`: the E9 arrival-rate × fault-rate sweep.
pub fn overload(report: &E9Report) -> Json {
    obj! {
        "experiment": "e9", "deadline_s": Json::Fixed(report.deadline_secs, 1),
        "max_p99_s": Json::Fixed(report.max_p99_secs, 4),
        "zero_late_successes": report.zero_late_successes,
        "deterministic": report.deterministic, "trace_fnv1a": hex(report.trace_digest),
        "sweep": array(report.rows.iter().map(|r| obj! {
            "period_s": r.period_secs, "crash_rate": Json::Fixed(r.crash_rate, 2),
            "requests": r.requests, "executed": r.executed, "degraded": r.degraded,
            "shed": r.shed, "expired": r.expired, "breaker_trips": r.breaker_trips,
            "p99_latency_s": Json::Fixed(r.p99_latency_secs, 4), "late_successes": r.late_successes,
            "conservation_ok": r.conservation_ok,
        })),
    }
}

/// `BENCH_detect.json`: E10's wall-clock detection throughput per scale.
pub fn detect(report: &E10Report) -> Json {
    obj! {
        "experiment": "e10", "palette": E10_PALETTE, "batch_tuples": E10_MOTES,
        "sublinear_ratios": array(report.sublinear_ratios.iter().map(|&r| Json::Fixed(r, 6))),
        "sublinear_ok": report.sublinear_ok,
        "rows": array(report.rows.iter().map(|r| obj! {
            "queries": r.queries, "epochs": r.epochs, "register_s": Json::Fixed(r.register_secs, 4),
            "detect_s": Json::Fixed(r.detect_secs, 4),
            "tuples_per_s": Json::Fixed(r.tuples_per_sec, 1),
            "index_cmps": r.index_cmps, "index_groups": r.index_groups,
        })),
    }
}

/// `BENCH_wal.json`: the E11 kill-and-recover arms (`recovery_ms` is
/// wall-clock).
pub fn wal(report: &E11Report) -> Json {
    obj! {
        "experiment": "e11", "cameras": E11_CAMERAS, "motes": E11_MOTES,
        "all_conserved": report.all_conserved, "all_identical": report.all_identical,
        "deterministic": report.deterministic, "trace_fnv1a": hex(report.trace_digest),
        "arms": array(report.rows.iter().map(|r| obj! {
            "shards": r.shards, "crashes": r.crashes, "snapshot_every": r.snapshot_every,
            "store": if r.durable { "file" } else { "mem" }, "requests": r.requests,
            "executed": r.executed, "recoveries": r.recoveries,
            "records_replayed": r.records_replayed, "wal_appends": r.wal_appends,
            "wal_bytes": r.wal_bytes, "snapshots": r.snapshots,
            "recovery_ms": array(r.recovery_wall_ms.iter().copied()),
            "conservation_ok": r.conservation_ok,
            "identical_to_reference": r.identical_to_reference,
        })),
    }
}

/// `BENCH_failover.json`: the E12 cross-host failover arms.
pub fn failover(report: &E12Report) -> Json {
    obj! {
        "experiment": "e12", "cameras": E11_CAMERAS, "motes": E11_MOTES,
        "all_conserved": report.all_conserved, "all_fenced": report.all_fenced,
        "no_late_successes": report.no_late_successes,
        "corruption_detected": report.corruption_detected,
        "deterministic": report.deterministic, "trace_fnv1a": hex(report.trace_digest),
        "arms": array(report.rows.iter().map(|r| obj! {
            "shards": r.shards, "crashes": r.crashes, "ship_loss": r.ship_loss,
            "requests": r.requests, "executed": r.executed, "degraded": r.degraded,
            "shed": r.shed, "rerouted": r.rerouted, "gateway_dropped": r.gateway_dropped,
            "gateway_expired": r.gateway_expired, "failovers": r.failovers,
            "degraded_window_us": array(r.degraded_window_us.iter().copied()),
            "bytes_shipped": r.bytes_shipped, "ship_rounds": r.ship_rounds,
            "records_replayed": r.records_replayed,
            "new_hosts": array(r.new_hosts.iter().map(|&h| u64::from(h))),
            "zombie_probe_rejected": r.zombie_probe_rejected,
            "late_successes": r.late_successes, "conservation_ok": r.conservation_ok,
        })),
    }
}

/// `BENCH_parallel.json`: the E13 shards × threads sweep (`wall_s`,
/// `host_cores` and the speedup are host-derived).
pub fn parallel(report: &E13Report) -> Json {
    obj! {
        "experiment": "e13", "cameras": report.cameras, "motes": report.motes,
        "queries": report.queries, "virtual_secs": report.virtual_secs,
        "host_cores": report.host_cores,
        "speedup_4t_at_max_shards": Json::Fixed(report.speedup_4t, 2),
        "all_match": report.all_match,
        "rows": array(report.rows.iter().map(|r| obj! {
            "shards": r.shards, "threads": r.threads, "wall_s": Json::Fixed(r.wall_secs, 4),
            "requests": r.requests, "executed": r.executed, "trace_fnv1a": hex(r.trace_fnv),
            "matches_oracle": r.matches_oracle,
        })),
    }
}

/// `BENCH_pushdown.json`: the E14 pushdown workloads.
pub fn pushdown(report: &E14Report) -> Json {
    obj! {
        "experiment": "e14", "best_saved_pct": Json::Fixed(report.best_saved_pct, 1),
        "all_identical": report.all_identical, "deterministic": report.deterministic,
        "rows": array(report.rows.iter().map(|r| obj! {
            "workload": r.workload, "minutes": r.minutes, "queries": r.queries,
            "shipped": r.shipped, "suppressed": r.suppressed,
            "suppression_pct": Json::Fixed(r.suppression_pct, 1),
            "baseline_bytes": r.baseline_bytes,
            "wire_bytes": r.wire_bytes, "saved_bytes": r.saved_bytes,
            "saved_pct": Json::Fixed(r.saved_pct, 1), "trace_fnv1a": hex(r.trace_fnv),
            "identical_to_oracle": r.identical_to_oracle,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{E10Row, E13Row};

    #[test]
    fn renders_the_committed_layout() {
        let v = obj! {
            "name": "q\"\\\n\u{1}", "trace_fnv1a": hex(0x14fe_ad20_ef79_dcc6),
            "crash_rate": Json::Fixed(0.0, 2), "ship_loss": 0.05, "whole": 3.0,
            "arms": array([
                obj! { "recovery_ms": array([0u64, 1]), "new_hosts": array(Vec::<u64>::new()) },
                obj! { "ok": false },
            ]),
            "live": obj! { "mean_latency_s": Json::Null, "nested": obj! { "ok": true } },
        };
        let expected = r#"{
  "name": "q\"\\\n\u0001",
  "trace_fnv1a": "0x14fead20ef79dcc6",
  "crash_rate": 0.00,
  "ship_loss": 0.05,
  "whole": 3,
  "arms": [
    {"recovery_ms": [0, 1], "new_hosts": []},
    {"ok": false}
  ],
  "live": {"mean_latency_s": null, "nested": {"ok": true}}
}
"#;
        assert_eq!(v.render(), expected);
    }

    /// The two artifacts that carry wall-clock values, which regenerating
    /// them cannot pin.
    #[test]
    fn wall_clock_artifacts_keep_their_keys_order_and_formats() {
        let report = E10Report {
            rows: vec![E10Row {
                queries: 100000,
                epochs: 30,
                register_secs: 0.28751,
                detect_secs: 0.007,
                tuples_per_sec: 270918.34,
                index_cmps: 258,
                index_groups: 226,
            }],
            sublinear_ratios: vec![0.0082914, 0.1],
            sublinear_ok: true,
        };
        let expected = r#"{
  "experiment": "e10",
  "palette": 256,
  "batch_tuples": 64,
  "sublinear_ratios": [0.008291, 0.100000],
  "sublinear_ok": true,
  "rows": [
    {"queries": 100000, "epochs": 30, "register_s": 0.2875, "detect_s": 0.0070, "tuples_per_s": 270918.3, "index_cmps": 258, "index_groups": 226}
  ]
}
"#;
        assert_eq!(detect(&report).render(), expected);

        let report = E13Report {
            cameras: 2000,
            motes: 240,
            queries: 8,
            virtual_secs: 120,
            host_cores: 2,
            rows: vec![E13Row {
                shards: 8,
                threads: 4,
                wall_secs: 0.45,
                requests: 11488,
                executed: 11410,
                trace_fnv: 0x344f_98e5_d8ae_efca,
                matches_oracle: true,
            }],
            all_match: true,
            speedup_4t: 2.0058,
        };
        let expected = r#"{
  "experiment": "e13",
  "cameras": 2000,
  "motes": 240,
  "queries": 8,
  "virtual_secs": 120,
  "host_cores": 2,
  "speedup_4t_at_max_shards": 2.01,
  "all_match": true,
  "rows": [
    {"shards": 8, "threads": 4, "wall_s": 0.4500, "requests": 11488, "executed": 11410, "trace_fnv1a": "0x344f98e5d8aeefca", "matches_oracle": true}
  ]
}
"#;
        assert_eq!(parallel(&report).render(), expected);
    }
}
