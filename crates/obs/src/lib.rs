//! # aorta-obs — deterministic observability on the virtual clock
//!
//! Metrics and tracing for the Aorta reproduction. Unlike conventional
//! observability stacks, every timestamp here is a [`SimTime`] read from the
//! deterministic simulation clock and every latency is a [`SimDuration`]
//! measured in virtual microseconds, so two runs with the same seed produce
//! **byte-identical** snapshots — the exporters below are part of the
//! determinism test surface, not best-effort telemetry.
//!
//! The crate provides:
//!
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket latency
//!   histograms keyed by `(name, sorted labels)`, stored in sorted tables
//!   so iteration (and therefore export) order is stable, and recording
//!   into an existing series allocates nothing,
//! * [`SpanEvent`] / [`SpanKind`] — structured span events for the engine's
//!   load-bearing stages (`probe`, `lock_wait`, `schedule`, `execute`,
//!   `gateway_route`), kept in a bounded ring with an explicit drop counter,
//! * [`SharedMetrics`] — a cheaply clonable handle shared across the engine
//!   layers (core, net, sched, cluster) that all record into one registry,
//! * [`MetricsRegistry::to_json`] and [`MetricsRegistry::to_prometheus`] —
//!   hand-rolled, dependency-free exporters with deterministic formatting.
//!
//! Recording is strictly *write-only*: nothing in the engine ever reads a
//! metric back to make a decision, so enabling observability cannot perturb
//! control flow, RNG draws, or virtual-time event ordering.
//!
//! # Example
//!
//! ```
//! use aorta_obs::{SharedMetrics, SpanKind};
//! use aorta_sim::{SimDuration, SimTime};
//!
//! let metrics = SharedMetrics::new();
//! metrics.incr("aorta_probe_attempts", &[("device", "camera-3")], 1);
//! metrics.observe(
//!     "aorta_probe_rtt",
//!     &[("device", "camera-3")],
//!     SimDuration::from_millis(12),
//! );
//! metrics.span(
//!     SpanKind::Probe,
//!     SimTime::ZERO,
//!     SimDuration::from_millis(12),
//!     "device=camera-3",
//! );
//! let snap = metrics.snapshot();
//! assert!(snap.to_prometheus().contains("aorta_probe_attempts"));
//! assert!(snap.to_json().contains("\"aorta_probe_rtt\""));
//! ```

#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use aorta_sim::{SimDuration, SimTime};

/// Fixed histogram bucket upper bounds, in virtual microseconds.
///
/// The bounds span 100 µs (intra-epoch bookkeeping) to 30 s (the longest
/// deadline any experiment configures), with a final implicit `+Inf` bucket.
/// They are fixed — never derived from observed data — so the exported
/// bucket layout is identical across runs regardless of workload.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_500_000,
    5_000_000, 10_000_000, 30_000_000,
];

/// Maximum number of span events retained in the ring buffer.
///
/// Older events are dropped (and counted in `spans_dropped`) once the ring
/// is full, bounding memory during long soak runs.
pub const SPAN_RING_CAP: usize = 10_000;

/// Metric names emitted by the vectorized event-detection pipeline in
/// `aorta-core` (the shared predicate index).
///
/// Centralised here so the engine, the soak tests and the differential
/// harness agree on spelling, and so the invariant the soak test checks —
/// `INDEXED_EVALS + FALLBACK_EVALS == CONJUNCT_EVALS`, i.e. every logical
/// conjunct evaluation is attributed to exactly one serving strategy — is
/// written against named constants rather than string literals.
pub mod detect_metrics {
    /// Counter: logical conjunct evaluations served by interned (shared)
    /// comparisons. "Logical" means per member query, the unit the scalar
    /// loop counts in, even though the index evaluates each distinct
    /// comparison only once per batch.
    pub const INDEXED_EVALS: &str = "aorta_indexed_evals";
    /// Counter: logical conjunct evaluations served by scalar-fallback
    /// slots (non-indexable conjuncts such as function calls or ORs).
    pub const FALLBACK_EVALS: &str = "aorta_fallback_evals";
    /// Counter: total logical conjunct evaluations, short-circuit aware.
    /// Always equals `INDEXED_EVALS + FALLBACK_EVALS`.
    pub const CONJUNCT_EVALS: &str = "aorta_conjunct_evals";
    /// Counter, labelled `kind`: tuples per scan batch fed to detection.
    pub const BATCH_TUPLES: &str = "aorta_detect_batch_tuples";
    /// Gauge: live distinct comparisons interned in the predicate index.
    pub const INDEX_CMPS: &str = "aorta_predicate_index_cmps";
    /// Gauge: live query groups in the predicate index.
    pub const INDEX_GROUPS: &str = "aorta_predicate_index_groups";
}

/// Metric names for the in-network pushdown accounting pass.
///
/// Same rationale as [`detect_metrics`]: the engine records these and the
/// pushdown experiment asserts over them, so the spelling lives in one
/// place. All byte series are hop-weighted (a reply from a mote `d` hops
/// out is forwarded `d` times).
pub mod push_metrics {
    /// Counter, labelled `kind`: scanned tuples shipped in full.
    pub const SHIPPED: &str = "aorta_push_shipped_tuples";
    /// Counter, labelled `kind`: scanned tuples suppressed device-side
    /// (every watching query's pushed prefix evaluated cleanly false).
    pub const SUPPRESSED: &str = "aorta_push_suppressed_tuples";
    /// Counter, labelled `kind`: hop-weighted bytes actually on the wire
    /// (full replies plus one-byte suppression markers).
    pub const WIRE_BYTES: &str = "aorta_push_wire_bytes";
    /// Counter, labelled `kind`: hop-weighted bytes the scans would have
    /// cost with pushdown off.
    pub const BASELINE_BYTES: &str = "aorta_push_baseline_bytes";
}

/// The instrumented engine stage a [`SpanEvent`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// A device probe round-trip (attempt, including retries).
    Probe,
    /// Virtual time a request spent waiting on a device lock.
    LockWait,
    /// One scheduling pass (LERFA phase-1 + SRFE phase-2) over a batch.
    Schedule,
    /// One action request executing on a device.
    Execute,
    /// A gateway routing decision for an escalated request.
    GatewayRoute,
    /// One crash-recovery replay (snapshot load + WAL suffix).
    Recovery,
    /// One cross-host failover: image cut, shipment, and rebuild on the
    /// adopting host (the degraded window, gateway-side).
    Failover,
}

impl SpanKind {
    /// Stable lower-snake-case name used in both export formats.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Probe => "probe",
            SpanKind::LockWait => "lock_wait",
            SpanKind::Schedule => "schedule",
            SpanKind::Execute => "execute",
            SpanKind::GatewayRoute => "gateway_route",
            SpanKind::Recovery => "recovery",
            SpanKind::Failover => "failover",
        }
    }
}

/// One structured span event: a stage, when it happened on the virtual
/// clock, how long it took in virtual time, and a free-form label
/// (`query=3 device=camera-1`-style).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Virtual time at which the span completed.
    pub at: SimTime,
    /// Which engine stage produced the span.
    pub kind: SpanKind,
    /// Virtual duration of the stage.
    pub duration: SimDuration,
    /// Space-separated `key=value` context, shared between registry clones.
    pub label: Arc<str>,
}

/// A fixed-bucket latency histogram over virtual microseconds.
///
/// Bucket bounds come from [`LATENCY_BUCKETS_US`] plus an implicit `+Inf`
/// bucket; counts are cumulative only at export time (stored per-bucket).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    sum_us: u128,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; LATENCY_BUCKETS_US.len() + 1],
            sum_us: 0,
            count: 0,
        }
    }
}

impl Histogram {
    /// Record one duration.
    pub fn observe(&mut self, d: SimDuration) {
        let us = d.as_micros();
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.counts[idx] += 1;
        self.sum_us += us as u128;
        self.count += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed durations, in virtual microseconds.
    pub fn sum_us(&self) -> u128 {
        self.sum_us
    }

    /// Fold another histogram into this one bucket-by-bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum_us += other.sum_us;
        self.count += other.count;
    }

    fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }
}

/// A series' label set, sorted by key, then value.
type Labels = Vec<(String, String)>;

/// One series as the exporters read it: name, sorted labels, value.
type Row<'a, V> = (&'a str, &'a [(String, String)], &'a V);

/// Label sets up to this long are sorted on the stack when recording; a
/// longer one is sorted in a `Vec`.
const INLINE_LABELS: usize = 4;

/// Runs `f` over `labels` sorted the way a series stores them.
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    if labels.len() <= INLINE_LABELS {
        let mut buf = [("", ""); INLINE_LABELS];
        let sorted = &mut buf[..labels.len()];
        sorted.copy_from_slice(labels);
        sorted.sort_unstable();
        f(sorted)
    } else {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        f(&sorted)
    }
}

/// Orders a stored label set against a sorted borrowed one exactly as two
/// [`Labels`] compare.
fn cmp_labels(stored: &[(String, String)], sorted: &[(&str, &str)]) -> Ordering {
    stored
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .cmp(sorted.iter().copied())
}

/// The series of one kind (counters, gauges or histograms): metric name →
/// rows sorted by label set. Both levels are sorted vectors, so iteration
/// is `(name, sorted labels)` order, and an existing series is found by
/// two binary searches over borrowed strings.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Series<V>(Vec<(String, Vec<(Labels, V)>)>);

impl<V> Default for Series<V> {
    fn default() -> Self {
        Series(Vec::new())
    }
}

impl<V> Series<V> {
    fn family(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    /// Every series named `name`, in label order.
    fn rows(&self, name: &str) -> &[(Labels, V)] {
        self.family(name).map_or(&[], |f| &self.0[f].1)
    }

    /// The value of series `(name, sorted)`, if it was ever recorded.
    fn get(&self, name: &str, sorted: &[(&str, &str)]) -> Option<&V> {
        let rows = self.rows(name);
        let r = rows.binary_search_by(|(l, _)| cmp_labels(l, sorted)).ok()?;
        Some(&rows[r].1)
    }

    /// The value of series `(name, sorted)`, created from `init` if absent:
    /// the only path that allocates.
    fn entry(&mut self, name: &str, sorted: &[(&str, &str)], init: impl FnOnce() -> V) -> &mut V {
        let owned = || {
            sorted
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect()
        };
        let f = match self.family(name) {
            Ok(f) => f,
            Err(f) => {
                self.0.insert(f, (name.to_owned(), vec![(owned(), init())]));
                return &mut self.0[f].1[0].1;
            }
        };
        let rows = &mut self.0[f].1;
        let r = match rows.binary_search_by(|(l, _)| cmp_labels(l, sorted)) {
            Ok(r) => r,
            Err(r) => {
                rows.insert(r, (owned(), init()));
                r
            }
        };
        &mut rows[r].1
    }

    fn iter(&self) -> impl Iterator<Item = Row<'_, V>> {
        self.0.iter().flat_map(|(name, rows)| {
            rows.iter()
                .map(move |(labels, v)| (name.as_str(), labels.as_slice(), v))
        })
    }
}

/// The deterministic metrics store: counters, gauges, histograms, and a
/// bounded ring of span events.
///
/// Series are kept in `(name, sorted labels)` order, so iteration order —
/// and therefore the byte layout of both exporters — is a pure function of
/// the recorded data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: Series<u64>,
    gauges: Series<i64>,
    histograms: Series<Histogram>,
    spans: VecDeque<SpanEvent>,
    span_counts: BTreeMap<&'static str, u64>,
    spans_dropped: u64,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment a counter series by `by`.
    pub fn incr(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        with_sorted(labels, |l| *self.counters.entry(name, l, || 0) += by);
    }

    /// Overwrite a counter series with an externally maintained total
    /// (used to sync engine-side counters into the registry at snapshot
    /// time without double-counting).
    pub fn counter_set(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        with_sorted(labels, |l| *self.counters.entry(name, l, || 0) = value);
    }

    /// Set a gauge series to `value`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        with_sorted(labels, |l| *self.gauges.entry(name, l, || 0) = value);
    }

    /// Record one duration into a histogram series.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], d: SimDuration) {
        with_sorted(labels, |l| {
            self.histograms
                .entry(name, l, Histogram::default)
                .observe(d);
        });
    }

    /// Read a counter series back (test/assertion helper — the engine
    /// itself never reads metrics).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        with_sorted(labels, |l| self.counters.get(name, l).copied().unwrap_or(0))
    }

    /// Sum a counter across all label sets sharing `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.rows(name).iter().map(|(_, v)| v).sum()
    }

    /// Record a structured span event. The ring holds at most
    /// [`SPAN_RING_CAP`] events; overflow evicts the oldest and bumps the
    /// dropped counter.
    pub fn span(&mut self, kind: SpanKind, at: SimTime, duration: SimDuration, label: &str) {
        *self.span_counts.entry(kind.as_str()).or_insert(0) += 1;
        if self.spans.len() == SPAN_RING_CAP {
            self.spans.pop_front();
            self.spans_dropped += 1;
        }
        self.spans.push_back(SpanEvent {
            at,
            kind,
            duration,
            label: label.into(),
        });
    }

    /// Number of span events currently retained.
    pub fn span_len(&self) -> usize {
        self.spans.len()
    }

    /// Number of span events evicted from the full ring.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// Iterate retained span events, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.spans.iter()
    }

    /// Fold `other` into `self`, appending one extra `(key, value)` label
    /// to every series from `other` (used to merge per-shard registries
    /// into a cluster-wide snapshot under a `shard` label).
    pub fn merge_labeled(&mut self, other: &MetricsRegistry, key: &str, value: &str) {
        for (name, labels, v) in other.counters.iter() {
            with_relabeled(labels, key, value, |l| {
                *self.counters.entry(name, l, || 0) += v;
            });
        }
        for (name, labels, v) in other.gauges.iter() {
            with_relabeled(labels, key, value, |l| {
                *self.gauges.entry(name, l, || 0) = *v;
            });
        }
        for (name, labels, h) in other.histograms.iter() {
            with_relabeled(labels, key, value, |l| {
                self.histograms.entry(name, l, Histogram::default).merge(h);
            });
        }
        for (&kind, n) in &other.span_counts {
            *self.span_counts.entry(kind).or_insert(0) += n;
        }
        self.spans_dropped += other.spans_dropped;
        for ev in &other.spans {
            if self.spans.len() == SPAN_RING_CAP {
                self.spans.pop_front();
                self.spans_dropped += 1;
            }
            self.spans.push_back(SpanEvent {
                at: ev.at,
                kind: ev.kind,
                duration: ev.duration,
                label: format!("{key}={value} {}", ev.label).into(),
            });
        }
    }

    /// Export the full snapshot as deterministic, pretty-stable JSON.
    ///
    /// Series appear in `(name, sorted labels)` order; span events appear
    /// oldest-first. No floating point is emitted — all values are
    /// integers in virtual microseconds — so formatting is
    /// platform-independent.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json_series(
            &mut out,
            self.counters.iter(),
            self.gauges.iter(),
            self.histograms.iter(),
        );
        self.json_spans(&mut out);
        out
    }

    fn json_spans(&self, out: &mut String) {
        out.push_str("  \"spans\": {\n");
        let _ = writeln!(out, "    \"dropped\": {},", self.spans_dropped);
        out.push_str("    \"counts\": {");
        let mut first = true;
        for (kind, n) in &self.span_counts {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{kind}\": {n}");
        }
        out.push_str("},\n    \"events\": [");
        let mut first = true;
        for ev in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n      ");
            let _ = write!(
                out,
                "{{\"at_us\": {}, \"kind\": \"{}\", \"duration_us\": {}, \"label\": \"{}\"}}",
                ev.at.as_micros(),
                ev.kind.as_str(),
                ev.duration.as_micros(),
                json_escape(&ev.label)
            );
        }
        out.push_str("\n    ]\n  }\n}\n");
    }

    /// Export counters, gauges and histograms in the Prometheus text
    /// exposition format (spans are summarized as
    /// `aorta_span_events_total{kind=…}` counters; full events are only in
    /// the JSON export).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        prom_series(
            &mut out,
            self.counters.iter(),
            self.gauges.iter(),
            self.histograms.iter(),
        );
        self.prom_spans(&mut out);
        out
    }

    fn prom_spans(&self, out: &mut String) {
        if !self.span_counts.is_empty() {
            let _ = writeln!(out, "# TYPE aorta_span_events_total counter");
            for (kind, n) in &self.span_counts {
                let _ = writeln!(out, "aorta_span_events_total{{kind=\"{kind}\"}} {n}");
            }
        }
        if self.spans_dropped > 0 {
            let _ = writeln!(out, "# TYPE aorta_span_events_dropped_total counter");
            let _ = writeln!(
                out,
                "aorta_span_events_dropped_total {}",
                self.spans_dropped
            );
        }
    }
}

/// Relabels one series for [`MetricsRegistry::merge_labeled`]: runs `f`
/// over `labels` plus `(key, value)`, sorted.
fn with_relabeled(
    labels: &[(String, String)],
    key: &str,
    value: &str,
    f: impl FnOnce(&[(&str, &str)]),
) {
    let mut l: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    l.push((key, value));
    l.sort_unstable();
    f(&l);
}

/// The series half of [`MetricsRegistry::to_json`].
fn json_series<'a>(
    out: &mut String,
    counters: impl Iterator<Item = Row<'a, u64>>,
    gauges: impl Iterator<Item = Row<'a, i64>>,
    histograms: impl Iterator<Item = Row<'a, Histogram>>,
) {
    out.push_str("{\n  \"counters\": [");
    let mut first = true;
    for (name, labels, v) in counters {
        json_series_open(out, &mut first, name, labels);
        let _ = write!(out, "\"value\": {v}}}");
    }
    out.push_str("\n  ],\n  \"gauges\": [");
    let mut first = true;
    for (name, labels, v) in gauges {
        json_series_open(out, &mut first, name, labels);
        let _ = write!(out, "\"value\": {v}}}");
    }
    out.push_str("\n  ],\n  \"histograms\": [");
    let mut first = true;
    for (name, labels, h) in histograms {
        json_series_open(out, &mut first, name, labels);
        out.push_str("\"buckets\": [");
        let cum = h.cumulative();
        for (i, c) in cum.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let le = LATENCY_BUCKETS_US
                .get(i)
                .map(|b| b.to_string())
                .unwrap_or_else(|| "+Inf".to_string());
            let _ = write!(out, "{{\"le\": \"{le}\", \"count\": {c}}}");
        }
        let _ = write!(out, "], \"sum_us\": {}, \"count\": {}}}", h.sum_us, h.count);
    }
    out.push_str("\n  ],\n");
}

/// The series half of [`MetricsRegistry::to_prometheus`].
fn prom_series<'a>(
    out: &mut String,
    counters: impl Iterator<Item = Row<'a, u64>>,
    gauges: impl Iterator<Item = Row<'a, i64>>,
    histograms: impl Iterator<Item = Row<'a, Histogram>>,
) {
    let mut last_name = "";
    for (name, labels, v) in counters {
        if name != last_name {
            let _ = writeln!(out, "# TYPE {name} counter");
            last_name = name;
        }
        let _ = writeln!(out, "{name}{} {v}", prom_labels(labels, None));
    }
    let mut last_name = "";
    for (name, labels, v) in gauges {
        if name != last_name {
            let _ = writeln!(out, "# TYPE {name} gauge");
            last_name = name;
        }
        let _ = writeln!(out, "{name}{} {v}", prom_labels(labels, None));
    }
    let mut last_name = "";
    for (name, labels, h) in histograms {
        if name != last_name {
            let _ = writeln!(out, "# TYPE {name} histogram");
            last_name = name;
        }
        let cum = h.cumulative();
        for (i, c) in cum.iter().enumerate() {
            let le = LATENCY_BUCKETS_US
                .get(i)
                .map(|b| b.to_string())
                .unwrap_or_else(|| "+Inf".to_string());
            let _ = writeln!(out, "{name}_bucket{} {c}", prom_labels(labels, Some(&le)));
        }
        let _ = writeln!(out, "{name}_sum{} {}", prom_labels(labels, None), h.sum_us);
        let _ = writeln!(out, "{name}_count{} {}", prom_labels(labels, None), h.count);
    }
}

fn json_series_open(out: &mut String, first: &mut bool, name: &str, labels: &[(String, String)]) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("\n    ");
    let _ = write!(out, "{{\"name\": \"{}\", \"labels\": {{", json_escape(name));
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": \"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("}, ");
}

fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", prom_escape(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A cheaply clonable, thread-safe handle to one shared [`MetricsRegistry`].
///
/// The engine layers (core, net, sched, cluster) each hold a clone; all
/// recording funnels into the same registry. Recording is lock-per-call;
/// because the simulation is single-threaded the mutex is uncontended and
/// exists only to keep the handle `Send + Sync` for test harnesses.
#[derive(Clone, Debug, Default)]
pub struct SharedMetrics(Arc<Mutex<MetricsRegistry>>);

impl SharedMetrics {
    /// Create a handle over a fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry, also after a panic while another holder had it: a
    /// registry is valid between any two of its own calls — a series
    /// appears whole or not at all — and nothing reads it to decide
    /// anything, so a half-finished recording or merge loses at most that
    /// recording, and the registry stays exportable.
    fn registry(&self) -> MutexGuard<'_, MetricsRegistry> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Increment a counter series by `by`.
    pub fn incr(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        self.registry().incr(name, labels, by);
    }

    /// Overwrite a counter series with an externally maintained total.
    pub fn counter_set(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.registry().counter_set(name, labels, value);
    }

    /// Set a gauge series.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.registry().gauge_set(name, labels, value);
    }

    /// Record one duration into a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], d: SimDuration) {
        self.registry().observe(name, labels, d);
    }

    /// Record a structured span event.
    pub fn span(&self, kind: SpanKind, at: SimTime, duration: SimDuration, label: &str) {
        self.registry().span(kind, at, duration, label);
    }

    /// Run `f` with exclusive access to the underlying registry.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.registry())
    }

    /// Clone the current registry contents out as an owned snapshot.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.registry().clone()
    }

    /// Clone the *registry*, not the handle: the result is an independent
    /// `SharedMetrics` whose future recordings do not affect this one.
    /// Used when forking an engine snapshot for crash recovery. Series are
    /// copied; span labels, immutable once recorded, are shared by count.
    pub fn deep_clone(&self) -> SharedMetrics {
        SharedMetrics(Arc::new(Mutex::new(self.snapshot())))
    }
}

#[cfg(test)]
mod tests {
    use super::reference::FlatRegistry;
    use super::*;
    use proptest::prelude::*;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.incr("aorta_probe_attempts", &[("device", "camera-1")], 3);
        r.incr("aorta_probe_attempts", &[("device", "sensor-2")], 1);
        r.incr("aorta_probe_timeouts", &[], 1);
        r.gauge_set("aorta_admission_tokens_e6", &[], 1_500_000);
        r.observe(
            "aorta_action_latency",
            &[("action", "photo")],
            SimDuration::from_millis(42),
        );
        r.observe(
            "aorta_action_latency",
            &[("action", "photo")],
            SimDuration::from_secs(2),
        );
        r.span(
            SpanKind::Execute,
            SimTime::ZERO + SimDuration::from_secs(1),
            SimDuration::from_millis(42),
            "query=1 device=camera-1",
        );
        r
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_registry();
        let b = sample_registry();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut a = MetricsRegistry::new();
        a.incr("x", &[("a", "1"), ("b", "2")], 1);
        let mut b = MetricsRegistry::new();
        b.incr("x", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_bounded() {
        let mut h = Histogram::default();
        h.observe(SimDuration::from_micros(50)); // bucket le=100
        h.observe(SimDuration::from_micros(100)); // still le=100 (inclusive)
        h.observe(SimDuration::from_secs(60)); // +Inf only
        let cum = h.cumulative();
        assert_eq!(cum[0], 2);
        assert_eq!(*cum.last().unwrap(), 3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 50 + 100 + 60_000_000);
    }

    #[test]
    fn span_ring_stays_bounded() {
        let mut r = MetricsRegistry::new();
        for i in 0..(SPAN_RING_CAP + 7) {
            r.span(
                SpanKind::Probe,
                SimTime::ZERO + SimDuration::from_micros(i as u64),
                SimDuration::ZERO,
                "x",
            );
        }
        assert_eq!(r.span_len(), SPAN_RING_CAP);
        assert_eq!(r.spans_dropped(), 7);
        assert_eq!(
            r.spans().next().unwrap().at,
            SimTime::ZERO + SimDuration::from_micros(7)
        );
    }

    #[test]
    fn merge_labeled_adds_shard_label() {
        let shard = sample_registry();
        let mut total = MetricsRegistry::new();
        total.merge_labeled(&shard, "shard", "0");
        total.merge_labeled(&shard, "shard", "1");
        assert_eq!(
            total.counter(
                "aorta_probe_attempts",
                &[("device", "camera-1"), ("shard", "0")]
            ),
            3
        );
        assert_eq!(total.counter_total("aorta_probe_attempts"), 8);
        let prom = total.to_prometheus();
        assert!(prom.contains("shard=\"1\""));
        let json = total.to_json();
        assert!(json.contains("shard=0 query=1 device=camera-1"));
    }

    #[test]
    fn prometheus_format_shape() {
        let prom = sample_registry().to_prometheus();
        assert!(prom.contains("# TYPE aorta_probe_attempts counter"));
        assert!(prom.contains("aorta_probe_attempts{device=\"camera-1\"} 3"));
        assert!(prom.contains("aorta_probe_timeouts 1"));
        assert!(prom.contains("# TYPE aorta_action_latency histogram"));
        assert!(prom.contains("aorta_action_latency_bucket{action=\"photo\",le=\"+Inf\"} 2"));
        assert!(prom.contains("aorta_action_latency_count{action=\"photo\"} 2"));
        assert!(prom.contains("aorta_span_events_total{kind=\"execute\"} 1"));
    }

    #[test]
    fn json_escaping_handles_quotes() {
        let mut r = MetricsRegistry::new();
        r.span(
            SpanKind::Schedule,
            SimTime::ZERO,
            SimDuration::ZERO,
            "say \"hi\"",
        );
        assert!(r.to_json().contains("say \\\"hi\\\""));
    }

    #[test]
    fn shared_handle_clones_record_into_one_registry() {
        let m = SharedMetrics::new();
        let m2 = m.clone();
        m.incr("c", &[], 1);
        m2.incr("c", &[], 2);
        assert_eq!(m.snapshot().counter("c", &[]), 3);
    }

    #[test]
    fn a_panic_while_recording_leaves_the_registry_usable() {
        let m = SharedMetrics::new();
        m.incr("before", &[("k", "v")], 1);
        let holder = m.clone();
        let joined = std::thread::spawn(move || {
            holder.with(|r| {
                r.incr("during", &[], 1);
                panic!("a recording site panicked with the lock held");
            })
        })
        .join();
        assert!(joined.is_err(), "the recording thread panicked");
        m.incr("before", &[("k", "v")], 2);
        m.incr("after", &[], 1);
        let json = m.with(|r| r.to_json());
        assert!(json.contains("\"after\""), "{json}");
        let snap = m.snapshot();
        assert_eq!(snap.counter("before", &[("k", "v")]), 3);
        assert_eq!(snap.counter("during", &[]), 1);
    }

    /// One recording call, applied to both the registry and the reference.
    #[derive(Clone, Debug)]
    enum Op {
        Incr(&'static str, Vec<(&'static str, &'static str)>, u64),
        CounterSet(&'static str, Vec<(&'static str, &'static str)>, u64),
        GaugeSet(&'static str, Vec<(&'static str, &'static str)>, i64),
        Observe(&'static str, Vec<(&'static str, &'static str)>, u64),
        /// Merge the side registry under `(key, value)`.
        Merge(&'static str, &'static str),
    }

    // Few names, keys and values, so series collide and label sets repeat
    // keys; up to six labels, so sets past `INLINE_LABELS` occur.
    const NAMES: [&str; 4] = ["a", "b", "aorta_x", "a_b"];
    const KEYS: [&str; 4] = ["k", "device", "shard", "a"];
    const VALUES: [&str; 4] = ["0", "1", "x", ""];

    fn arb_labels() -> impl Strategy<Value = Vec<(&'static str, &'static str)>> {
        proptest::collection::vec((0..KEYS.len(), 0..VALUES.len()), 0..7)
            .prop_map(|l| l.into_iter().map(|(k, v)| (KEYS[k], VALUES[v])).collect())
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let name = || (0..NAMES.len()).prop_map(|n| NAMES[n]);
        prop_oneof![
            (name(), arb_labels(), 0u64..1_000).prop_map(|(n, l, v)| Op::Incr(n, l, v)),
            (name(), arb_labels(), 0u64..1_000).prop_map(|(n, l, v)| Op::CounterSet(n, l, v)),
            (name(), arb_labels(), -500i64..500).prop_map(|(n, l, v)| Op::GaugeSet(n, l, v)),
            (name(), arb_labels(), 0u64..40_000_000).prop_map(|(n, l, v)| Op::Observe(n, l, v)),
            (0..KEYS.len(), 0..VALUES.len()).prop_map(|(k, v)| Op::Merge(KEYS[k], VALUES[v])),
        ]
    }

    fn record(
        ops: &[Op],
        side: &(MetricsRegistry, FlatRegistry),
    ) -> (MetricsRegistry, FlatRegistry) {
        let mut real = MetricsRegistry::new();
        let mut flat = FlatRegistry::default();
        for op in ops {
            match op {
                Op::Incr(n, l, v) => {
                    real.incr(n, l, *v);
                    flat.incr(n, l, *v);
                }
                Op::CounterSet(n, l, v) => {
                    real.counter_set(n, l, *v);
                    flat.counter_set(n, l, *v);
                }
                Op::GaugeSet(n, l, v) => {
                    real.gauge_set(n, l, *v);
                    flat.gauge_set(n, l, *v);
                }
                Op::Observe(n, l, us) => {
                    real.observe(n, l, SimDuration::from_micros(*us));
                    flat.observe(n, l, SimDuration::from_micros(*us));
                }
                Op::Merge(k, v) => {
                    real.merge_labeled(&side.0, k, v);
                    flat.merge_labeled(&side.1, k, v);
                }
            }
        }
        (real, flat)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sorted series tables export, read back and merge exactly
        /// as the flat map keyed by owned `(name, sorted labels)` did.
        #[test]
        fn series_tables_match_the_flat_reference(
            side_ops in proptest::collection::vec(arb_op(), 0..12),
            ops in proptest::collection::vec(arb_op(), 0..60),
            probes in proptest::collection::vec(((0..NAMES.len()), arb_labels()), 0..8),
        ) {
            let empty = (MetricsRegistry::new(), FlatRegistry::default());
            let side = record(&side_ops, &empty);
            let (real, flat) = record(&ops, &side);
            prop_assert_eq!(real.to_json(), flat.to_json());
            prop_assert_eq!(real.to_prometheus(), flat.to_prometheus());
            for name in NAMES {
                prop_assert_eq!(real.counter_total(name), flat.counter_total(name));
            }
            for (n, l) in &probes {
                prop_assert_eq!(real.counter(NAMES[*n], l), flat.counter(NAMES[*n], l));
            }
            for op in &ops {
                if let Op::Incr(n, l, _) | Op::CounterSet(n, l, _) = op {
                    prop_assert_eq!(real.counter(n, l), flat.counter(n, l));
                }
            }
        }
    }
}

/// The flat registry the series tables replaced: one `BTreeMap` per kind,
/// keyed by an owned `(name, sorted labels)` built on every call. It is
/// the reference the differential test above compares against; it shares
/// only the exporters' formatting with [`MetricsRegistry`].
#[cfg(test)]
mod reference {
    use super::*;

    /// Series key: metric name plus its sorted label set.
    type SeriesKey = (String, Vec<(String, String)>);

    fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut l: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        l.sort();
        (name.to_string(), l)
    }

    fn rows<V>(map: &BTreeMap<SeriesKey, V>) -> impl Iterator<Item = Row<'_, V>> {
        map.iter()
            .map(|((name, labels), v)| (name.as_str(), labels.as_slice(), v))
    }

    #[derive(Default)]
    pub(super) struct FlatRegistry {
        counters: BTreeMap<SeriesKey, u64>,
        gauges: BTreeMap<SeriesKey, i64>,
        histograms: BTreeMap<SeriesKey, Histogram>,
    }

    impl FlatRegistry {
        pub(super) fn incr(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
            *self.counters.entry(series_key(name, labels)).or_insert(0) += by;
        }

        pub(super) fn counter_set(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
            self.counters.insert(series_key(name, labels), value);
        }

        pub(super) fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
            self.gauges.insert(series_key(name, labels), value);
        }

        pub(super) fn observe(&mut self, name: &str, labels: &[(&str, &str)], d: SimDuration) {
            self.histograms
                .entry(series_key(name, labels))
                .or_default()
                .observe(d);
        }

        pub(super) fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
            self.counters
                .get(&series_key(name, labels))
                .copied()
                .unwrap_or(0)
        }

        pub(super) fn counter_total(&self, name: &str) -> u64 {
            self.counters
                .iter()
                .filter(|((n, _), _)| n == name)
                .map(|(_, v)| v)
                .sum()
        }

        pub(super) fn merge_labeled(&mut self, other: &FlatRegistry, key: &str, value: &str) {
            let relabel = |(name, labels): &SeriesKey| -> SeriesKey {
                let mut l = labels.clone();
                l.push((key.to_string(), value.to_string()));
                l.sort();
                (name.clone(), l)
            };
            for (k, v) in &other.counters {
                *self.counters.entry(relabel(k)).or_insert(0) += v;
            }
            for (k, v) in &other.gauges {
                self.gauges.insert(relabel(k), *v);
            }
            for (k, h) in &other.histograms {
                self.histograms.entry(relabel(k)).or_default().merge(h);
            }
        }

        /// The series as [`MetricsRegistry::to_json`] renders them, with
        /// an empty span section.
        pub(super) fn to_json(&self) -> String {
            let mut out = String::new();
            json_series(
                &mut out,
                rows(&self.counters),
                rows(&self.gauges),
                rows(&self.histograms),
            );
            MetricsRegistry::new().json_spans(&mut out);
            out
        }

        pub(super) fn to_prometheus(&self) -> String {
            let mut out = String::new();
            prom_series(
                &mut out,
                rows(&self.counters),
                rows(&self.gauges),
                rows(&self.histograms),
            );
            out
        }
    }
}
