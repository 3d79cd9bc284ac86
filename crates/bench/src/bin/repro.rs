//! Regenerates every table and figure of the paper's evaluation (§6) and
//! the E7–E14 extension experiments.
//!
//! ```text
//! repro                 # the default lineup: e1 fig4 fig5 fig6 e5 e6 e7 e8 e9 ablation
//! repro fig4 e7         # the named experiments, in order, from:
//!                       #   e1 | fig4 | fig5 | fig6 | e5 | e6 | e7 | e8 | e9 | ablation
//!                       #   e10 | e11 | e12 | e13 | e14          (full sweeps)
//!                       #   e10-smoke | … | e14-smoke            (CI arms, no file)
//!                       #   metrics        (deterministic observability snapshot)
//! repro --runs 10       # runs averaged per point (default 10, like the paper)
//! repro --csv results/  # also write per-figure CSV series for plotting
//! ```
//!
//! Artifacts, written to the working directory: `BENCH_sched.json` (fig4
//! and e7 in one invocation), `BENCH_cluster.json` (e8),
//! `BENCH_overload.json` (e9), `BENCH_detect.json` (e10), `BENCH_wal.json`
//! (e11), `BENCH_failover.json` (e12), `BENCH_parallel.json` (e13) and
//! `BENCH_pushdown.json` (e14). Every byte of them is deterministic except
//! the wall-clock fields of `BENCH_detect.json`, `BENCH_wal.json`
//! (`recovery_ms`) and `BENCH_parallel.json`. A file that cannot be
//! written fails the process.

use std::env;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use aorta_bench::artifact;
use aorta_bench::experiments::{self, MakespanPoint};
use aorta_bench::table::Table;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut runs = experiments::RUNS_PER_POINT;
    let mut which: Vec<&str> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--runs" => {
                runs = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--runs needs a positive integer"));
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(
                    iter.next()
                        .unwrap_or_else(|| die("--csv needs a directory")),
                ));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--runs N] [--csv DIR] [e1|fig4|fig5|fig6|e5|e6|e7|e8|e9|e10|e10-smoke|e11|e11-smoke|e12|e12-smoke|e13|e13-smoke|e14|e14-smoke|ablation|metrics]..."
                );
                return;
            }
            other => which.push(other),
        }
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
    }
    let csv = csv_dir.as_deref();
    if which.is_empty() {
        which = vec![
            "e1", "fig4", "fig5", "fig6", "e5", "e6", "e7", "e8", "e9", "ablation",
        ];
    }
    let (mut fig4_points, mut e7_rows) = (None, None);
    for name in which {
        match name {
            "e1" => e1(),
            "fig4" => fig4_points = Some(fig4(runs, csv)),
            "fig5" => fig5(runs, csv),
            "fig6" => fig6(runs, csv),
            "e5" => e5(runs),
            "e6" => e6(),
            "e7" => e7_rows = Some(e7(runs)),
            "e8" => e8(),
            "e9" => e9(),
            "e10" => e10(true),
            "e10-smoke" => e10(false),
            "e11" => e11(true),
            "e11-smoke" => e11(false),
            "e12" => e12(true),
            "e12-smoke" => e12(false),
            "e13" => e13(true),
            "e13-smoke" => e13(false),
            "e14" => e14(true),
            "e14-smoke" => e14(false),
            "metrics" => metrics(),
            "ablation" => ablation(runs),
            other => die(&format!("unknown experiment '{other}'")),
        }
    }
    if let (Some(fig4), Some(e7)) = (fig4_points, e7_rows) {
        save("BENCH_sched.json", &artifact::sched(&fig4, &e7).render());
    }
}

/// Writes one file and reports it; a failed write fails the process.
fn save(path: impl AsRef<Path>, body: &str) {
    let path = path.as_ref();
    match artifact::write_file(path, body) {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => die(&format!("failed to write {}: {e}", path.display())),
    }
}

/// A table cell: `OK`, or `bad` when the check failed.
fn verdict(ok: bool, bad: &str) -> String {
    if ok { "OK" } else { bad }.to_string()
}

/// A byte count in KiB, one decimal.
fn kib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// `items`, each shown by `show`, joined by `sep`.
fn joined<T>(items: &[T], sep: &str, show: impl Fn(&T) -> String) -> String {
    items.iter().map(show).collect::<Vec<_>>().join(sep)
}

/// The verdict line of every experiment that reruns itself and compares
/// trace digests.
fn determinism(deterministic: bool, trace_digest: u64) -> String {
    let verdict = if deterministic {
        "byte-identical across reruns"
    } else {
        "DIVERGED"
    };
    format!("determinism: {verdict} (trace digest {trace_digest:#018x})")
}

/// `repro metrics`: the deterministic observability demo. Prints the JSON
/// snapshot and the Prometheus rendering of a fixed-seed two-shard cluster
/// run (see `aorta_cluster::metrics_demo`); byte-identical across
/// invocations on any platform, as asserted in `tests/determinism.rs`.
/// Deliberately *not* part of the default experiment list: the seed
/// experiments run with observability off.
fn metrics() {
    let (json, prom) = aorta_cluster::metrics_demo(42);
    println!("== metrics: deterministic observability snapshot (seed 42) ==");
    println!("{json}");
    println!();
    println!("{prom}");
}

/// `repro e10` (full sweep, writes BENCH_detect.json) or `repro e10-smoke`
/// (the 10³ → 10⁴ CI pair, no file). Not in the default lineup: the rows
/// carry wall-clock throughput.
fn e10(full: bool) {
    let report = experiments::e10_detect(0xE10, full);
    println!(
        "== E10 (extension): predicate-index detection, {}-template palette, {} motes ==",
        experiments::E10_PALETTE,
        experiments::E10_MOTES
    );
    let t = Table::of(
        &report.rows,
        &[
            ("AQs", &|r| r.queries.to_string()),
            ("epochs", &|r| r.epochs.to_string()),
            ("register(s)", &|r| format!("{:.3}", r.register_secs)),
            ("detect(s)", &|r| format!("{:.3}", r.detect_secs)),
            ("tuples/s", &|r| format!("{:.0}", r.tuples_per_sec)),
            ("cmps", &|r| r.index_cmps.to_string()),
            ("groups", &|r| r.index_groups.to_string()),
        ],
    );
    println!("{}", t.render());
    println!(
        "per-epoch cost growth / query growth between scales: {} ({})\n",
        joined(&report.sublinear_ratios, ", ", |r| format!("{r:.4}")),
        if report.sublinear_ok {
            "sub-linear OK"
        } else {
            "NOT SUB-LINEAR"
        },
    );
    if full {
        save("BENCH_detect.json", &artifact::detect(&report).render());
    }
    // CI runs the smoke arm: a lost property must fail the process.
    assert!(report.shares(), "the predicate index stopped sharing");
    assert!(report.sublinear_ok, "detection cost grew with the AQ count");
}

/// `repro e11` (full sweep, writes BENCH_wal.json) or `repro e11-smoke`
/// (one-arm CI gate, no file): kill shards mid-wave at seeded points,
/// rebuild each from its write-ahead log, and require the recovered run to
/// be byte-identical to a never-interrupted reference. Not in the default
/// lineup: `recovery_ms` is wall-clock.
fn e11(full: bool) {
    let report = experiments::e11_wal(0xE11, full);
    println!(
        "== E11 (extension): durable control plane, kill-and-recover, {} cameras / {} motes ==",
        experiments::E11_CAMERAS,
        experiments::E11_MOTES
    );
    let t = Table::of(
        &report.rows,
        &[
            ("shards", &|r| r.shards.to_string()),
            ("crashes", &|r| r.crashes.to_string()),
            ("cadence", &|r| r.snapshot_every.to_string()),
            ("store", &|r| if r.durable { "file" } else { "mem" }.into()),
            ("requests", &|r| r.requests.to_string()),
            ("recovered", &|r| r.recoveries.to_string()),
            ("replayed", &|r| r.records_replayed.to_string()),
            ("snapshots", &|r| r.snapshots.to_string()),
            ("wal KiB", &|r| kib(r.wal_bytes)),
            ("recovery ms", &|r| {
                joined(&r.recovery_wall_ms, "+", u64::to_string)
            }),
            ("conserved", &|r| verdict(r.conservation_ok, "VIOLATED")),
            ("identical", &|r| {
                verdict(r.identical_to_reference, "DIVERGED")
            }),
        ],
    );
    println!("{}", t.render());
    let determinism = determinism(report.deterministic, report.trace_digest);
    println!("{determinism}\n");
    if full {
        save("BENCH_wal.json", &artifact::wal(&report).render());
    }
    // CI runs the smoke arm: a broken ledger or a visible recovery must
    // fail the process, not just print a verdict.
    assert!(report.all_conserved, "conservation violated after recovery");
    assert!(
        report.all_identical,
        "recovered run diverged from the uninterrupted reference"
    );
    assert!(report.deterministic, "kill-and-recover runs diverged");
}

/// `repro e12` (full sweep, writes BENCH_failover.json) or `repro
/// e12-smoke` (one-arm CI gate, no file): kill shards mid-wave under an
/// asymmetric partition, ship a CRC-framed snapshot image over the lossy
/// simulated network, rebuild each victim on a *fresh* host under a bumped
/// epoch, and require zero lost or double-executed requests, zero
/// late-epoch successes, and loud refusal of any corrupted image byte.
fn e12(full: bool) {
    let report = experiments::e12_failover(0xE12, full);
    println!(
        "== E12 (extension): cross-host failover under partition, {} cameras / {} motes ==",
        experiments::E11_CAMERAS,
        experiments::E11_MOTES
    );
    let t = Table::of(
        &report.rows,
        &[
            ("shards", &|r| r.shards.to_string()),
            ("crashes", &|r| r.crashes.to_string()),
            ("ship loss", &|r| format!("{:.0}%", r.ship_loss * 100.0)),
            ("requests", &|r| r.requests.to_string()),
            ("executed", &|r| r.executed.to_string()),
            ("rerouted", &|r| r.rerouted.to_string()),
            ("failovers", &|r| r.failovers.to_string()),
            ("window ms", &|r| {
                joined(&r.degraded_window_us, "+", |us| {
                    format!("{:.0}", *us as f64 / 1000.0)
                })
            }),
            ("shipped KiB", &|r| kib(r.bytes_shipped)),
            ("rounds", &|r| r.ship_rounds.to_string()),
            ("replayed", &|r| r.records_replayed.to_string()),
            ("new hosts", &|r| {
                joined(&r.new_hosts, "+", |h| format!("h{h}"))
            }),
            ("fenced", &|r| {
                verdict(r.zombie_probe_rejected && r.late_successes == 0, "LEAKED")
            }),
            ("conserved", &|r| verdict(r.conservation_ok, "VIOLATED")),
        ],
    );
    println!("{}", t.render());
    println!(
        "corruption sweep: {}; {}\n",
        if report.corruption_detected {
            "every flipped byte refused"
        } else {
            "CORRUPT IMAGE ACCEPTED"
        },
        determinism(report.deterministic, report.trace_digest),
    );
    if full {
        save("BENCH_failover.json", &artifact::failover(&report).render());
    }
    // CI runs the smoke arm: a lost request, an applied zombie, or an
    // accepted corrupt image must fail the process, not just print.
    assert!(report.all_conserved, "conservation violated under failover");
    assert!(report.all_fenced, "stale-epoch traffic was not fenced");
    assert!(report.no_late_successes, "a zombie completion was applied");
    assert!(report.corruption_detected, "corrupt image went undetected");
    assert!(report.deterministic, "failover runs diverged");
}

/// `repro e13` (full shards × threads ∈ {1,2,4,8}² sweep, writes
/// BENCH_parallel.json) or `repro e13-smoke` (one shard arm, threads
/// {1,4}, no file): the E8 live wave scaled to 2000 cameras, stepped on a
/// worker pool, every threaded arm's trace digest checked against the
/// 1-thread oracle. Not in the default lineup: the rows carry wall-clock
/// times; the digests are the deterministic part.
fn e13(full: bool) {
    let report = experiments::e13_parallel(0xE13, full);
    println!(
        "== E13 (extension): parallel shard stepping, {} cameras / {} motes / {} AQs, {} host core(s) ==",
        report.cameras, report.motes, report.queries, report.host_cores
    );
    let t = Table::of(
        &report.rows,
        &[
            ("shards", &|r| r.shards.to_string()),
            ("threads", &|r| r.threads.to_string()),
            ("wall(s)", &|r| format!("{:.3}", r.wall_secs)),
            ("requests", &|r| r.requests.to_string()),
            ("executed", &|r| r.executed.to_string()),
            ("trace fnv", &|r| format!("{:016x}", r.trace_fnv)),
            ("oracle", &|r| verdict(r.matches_oracle, "DIVERGED")),
        ],
    );
    println!("{}", t.render());
    println!(
        "wall-clock speedup, 4 threads vs 1 at the largest shard arm: {:.2}x \
         (bounded by {} host core(s))\n",
        report.speedup_4t, report.host_cores
    );
    if full {
        save("BENCH_parallel.json", &artifact::parallel(&report).render());
    }
    // CI runs the smoke arm: a byte of divergence between a threaded arm
    // and the 1-thread run must fail the process, not just print.
    assert!(
        report.all_match,
        "a threaded arm diverged from the 1-thread oracle"
    );
}

/// `repro e14` (the full three-workload sweep, writes BENCH_pushdown.json)
/// or `repro e14-smoke` (the threshold arm only, no file): in-network
/// operator pushdown — windowed aggregates and indexable filters evaluated
/// on the sensor side, suppressed samples shipping a 1-byte marker. Every
/// arm is byte-checked against a pushdown-off oracle.
fn e14(full: bool) {
    let report = experiments::e14_pushdown(0xE14, full);
    println!("== E14 (extension): in-network operator pushdown, hop-weighted wire bytes ==");
    let t = Table::of(
        &report.rows,
        &[
            ("workload", &|r| r.workload.to_string()),
            ("mins", &|r| r.minutes.to_string()),
            ("AQs", &|r| r.queries.to_string()),
            ("shipped", &|r| r.shipped.to_string()),
            ("suppressed", &|r| r.suppressed.to_string()),
            ("supp%", &|r| format!("{:.1}", r.suppression_pct)),
            ("baseline(B)", &|r| r.baseline_bytes.to_string()),
            ("wire(B)", &|r| r.wire_bytes.to_string()),
            ("saved%", &|r| format!("{:.1}", r.saved_pct)),
            ("oracle", &|r| verdict(r.identical_to_oracle, "DIVERGED")),
        ],
    );
    println!("{}", t.render());
    println!(
        "best savings {:.1}% of baseline bytes; deterministic: {}\n",
        report.best_saved_pct, report.deterministic
    );
    if full {
        save("BENCH_pushdown.json", &artifact::pushdown(&report).render());
    }
    // CI runs the smoke arm: a pushdown run that detects even one byte
    // differently from its oracle must fail the process, not just print.
    assert!(
        report.all_identical,
        "a pushdown arm diverged from its pushdown-off oracle"
    );
    assert!(report.deterministic, "e14 is not repetition-stable");
}

fn e7(runs: u64) -> Vec<experiments::RatioPoint> {
    let rows = experiments::e7_scale(runs.min(3), 7200);
    println!("== E7 (extension): scheduling at scale, ratio n/m = 4 ==");
    let t = Table::of(
        &rows,
        &[
            ("algorithm", &|r| r.algorithm.to_string()),
            ("n", &|r| r.n.to_string()),
            ("m", &|r| r.m.to_string()),
            ("makespan(s)", &|r| format!("{:.2}", r.service_secs)),
        ],
    );
    println!("{}", t.render());
    rows
}

fn e8() {
    let report = experiments::e8_cluster(0xE8);
    println!(
        "== E8 (extension): sharded cluster, {} requests / {} cameras ==",
        experiments::E8_REQUESTS,
        experiments::E8_CAMERAS
    );
    let t = Table::of(
        &report.batch,
        &[
            ("arm", &|r| {
                let storm = r.crashed_cameras > 0;
                if storm { "crash storm" } else { "uniform" }.into()
            }),
            ("shards", &|r| r.shards.to_string()),
            ("makespan(s)", &|r| format!("{:.3}", r.makespan_secs)),
            ("rerouted", &|r| r.rerouted.to_string()),
            ("balanced", &|r| r.balanced.to_string()),
            ("dropped", &|r| r.dropped.to_string()),
        ],
    );
    println!("{}", t.render());
    println!(
        "uniform 1->8 shard speedup: {:.3}x (claim: >= 1.5x)",
        report.speedup_1_to_8
    );
    let live = &report.live;
    println!(
        "live {}-shard engine: {} requests, {} executed, {} rerouted, {} migrations, \
         mean latency {}, conservation {}",
        live.shards,
        live.requests,
        live.executed,
        live.rerouted,
        live.migrations,
        live.mean_latency_secs
            .map(|s| format!("{s:.2}s"))
            .unwrap_or_else(|| "n/a".into()),
        verdict(live.conservation_ok, "VIOLATED"),
    );
    let determinism = determinism(report.deterministic, report.trace_digest);
    println!("{determinism}\n");
    save("BENCH_cluster.json", &artifact::cluster(&report).render());
}

fn e9() {
    let report = experiments::e9_overload(0x0E9);
    println!(
        "== E9 (extension): overload sweep, arrival rate x fault rate, 4-shard cluster ==\n\
         deadline budget {:.0}s, admission SLO 2s, brownout at 0.5x / shed at 2x backlog",
        report.deadline_secs
    );
    let t = Table::of(
        &report.rows,
        &[
            ("period(s)", &|r| r.period_secs.to_string()),
            ("crash rate", &|r| format!("{:.1}", r.crash_rate)),
            ("requests", &|r| r.requests.to_string()),
            ("executed", &|r| r.executed.to_string()),
            ("degraded", &|r| r.degraded.to_string()),
            ("shed", &|r| r.shed.to_string()),
            ("expired", &|r| r.expired.to_string()),
            ("trips", &|r| r.breaker_trips.to_string()),
            ("p99(s)", &|r| format!("{:.3}", r.p99_latency_secs)),
            ("late", &|r| r.late_successes.to_string()),
            ("conserved", &|r| verdict(r.conservation_ok, "VIOLATED")),
        ],
    );
    println!("{}", t.render());
    println!(
        "max p99 {:.3}s <= deadline {:.0}s: {}; late successes: {}",
        report.max_p99_secs,
        report.deadline_secs,
        verdict(report.max_p99_secs <= report.deadline_secs, "VIOLATED"),
        if report.zero_late_successes {
            "none (OK)"
        } else {
            "PRESENT (VIOLATED)"
        },
    );
    let determinism = determinism(report.deterministic, report.trace_digest);
    println!("{determinism}\n");
    save("BENCH_overload.json", &artifact::overload(&report).render());
}

fn ablation(runs: u64) {
    println!("== A1 (ablation): sequence-dependence is what SRFE exploits ==");
    let mut t = Table::new(&["configuration", "service makespan(s)"]);
    for r in experiments::ablation_sequence_dependence(runs, 7000) {
        t.row(vec![r.label.clone(), format!("{:.2}", r.service_secs)]);
    }
    println!("{}", t.render());

    println!("== A2 (ablation): batch dispatch vs independent min-cost ==");
    let mut t = Table::new(&["configuration", "mean latency(s)"]);
    for r in experiments::ablation_dispatch_policy(10, 7100) {
        t.row(vec![r.label.clone(), format!("{:.2}", r.service_secs)]);
    }
    println!("{}", t.render());
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2)
}

/// Prints one figure's points, and writes them as `<figure>.csv` under
/// `csv` when given.
fn print_points(title: &str, x_label: &str, points: &[MakespanPoint], csv: Option<&Path>) {
    println!("== {title} ==");
    if let Some(dir) = csv {
        let slug: String = title
            .chars()
            .take_while(|c| *c != ':')
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        let mut body = String::from("algorithm,x,makespan_s,sched_s,service_s\n");
        for p in points {
            writeln!(
                body,
                "{},{},{:.4},{:.4},{:.4}",
                p.algorithm, p.x, p.makespan_secs, p.sched_secs, p.service_secs
            )
            .expect("string write");
        }
        save(dir.join(format!("{slug}.csv")), &body);
    }
    let t = Table::of(
        points,
        &[
            ("algorithm", &|p| p.algorithm.to_string()),
            (x_label, &|p| p.x.to_string()),
            ("makespan(s)", &|p| format!("{:.2}", p.makespan_secs)),
            ("sched(s)", &|p| format!("{:.3}", p.sched_secs)),
            ("service(s)", &|p| format!("{:.2}", p.service_secs)),
        ],
    );
    println!("{}", t.render());
}

fn fig4(runs: u64, csv: Option<&Path>) -> Vec<MakespanPoint> {
    let points = experiments::fig4(runs, 1000);
    print_points(
        "Figure 4: makespan vs #requests (10 cameras, uniform workload)",
        "#requests",
        &points,
        csv,
    );
    let violations = experiments::check_fig4_shape(&points);
    if violations.is_empty() {
        println!("shape check: OK (RANDOM worst; proposed beat LS/SA; sub-linear scaling)\n");
    } else {
        println!("shape check VIOLATIONS: {violations:#?}\n");
    }
    points
}

fn fig5(runs: u64, csv: Option<&Path>) {
    let points = experiments::fig5(runs, 2000);
    print_points(
        "Figure 5: time breakdown at 20 requests, 10 cameras",
        "#requests",
        &points,
        csv,
    );
}

fn fig6(runs: u64, csv: Option<&Path>) {
    let points = experiments::fig6(runs, 3000);
    print_points(
        "Figure 6: makespan vs skewness (10 cameras, 20 requests)",
        "skew(%)",
        &points,
        csv,
    );
}

fn e5(runs: u64) {
    let points = experiments::e5(runs, 4000);
    println!("== E5: makespan depends only on #requests/#devices (uniform workload) ==");
    let t = Table::of(
        &points,
        &[
            ("algorithm", &|p| p.algorithm.to_string()),
            ("n", &|p| p.n.to_string()),
            ("m", &|p| p.m.to_string()),
            ("n/m", &|p| format!("{:.1}", p.n as f64 / p.m as f64)),
            ("service(s)", &|p| format!("{:.2}", p.service_secs)),
        ],
    );
    println!("{}", t.render());
}

fn e1() {
    let report = aorta_bench::experiments::e1(10, 500);
    println!("== E1 (§6.2): action failure rate, 10 queries / 2 cameras / 10 min ==");
    let t = Table::of(
        &report,
        &[
            ("synchronization", &|r| r.label.clone()),
            ("requests", &|r| r.requests.to_string()),
            ("failures", &|r| r.failures.to_string()),
            ("failure rate", &|r| {
                format!("{:.1}%", r.failure_rate * 100.0)
            }),
        ],
    );
    println!("{}", t.render());
}

fn e6() {
    let rows = aorta_bench::experiments::e6(2000, 600);
    println!("== E6 (§2.3): cost model accuracy, estimated vs actual photo() time ==");
    let mut t = Table::new(&["metric", "value"]);
    for (k, v) in rows {
        t.row(vec![k, v]);
    }
    println!("{}", t.render());
}
