//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! repro                 # all experiments
//! repro fig4            # one: e1 | fig4 | fig5 | fig6 | e5 | e6 | e7 | ablation
//! repro --runs 10       # runs averaged per point (default 10, like the paper)
//! repro --csv results/  # also write per-figure CSV series for plotting
//! ```

use std::env;
use std::path::PathBuf;

use aorta_bench::experiments::{self, MakespanPoint};
use aorta_bench::table::Table;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut runs = experiments::RUNS_PER_POINT;
    let mut which: Vec<String> = Vec::new();
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
            other => which.push(other.to_string()),
        }
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create {}: {e}", dir.display()));
        }
    }
    CSV_DIR.with(|slot| *slot.borrow_mut() = csv_dir);
    if which.is_empty() {
        which = [
            "e1", "fig4", "fig5", "fig6", "e5", "e6", "e7", "e8", "e9", "ablation",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    for name in which {
        match name.as_str() {
            "e1" => e1(),
            "fig4" => fig4(runs),
            "fig5" => fig5(runs),
            "fig6" => fig6(runs),
            "e5" => e5(runs),
            "e6" => e6(),
            "e7" => e7(runs),
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
    write_bench_sched_json();
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
/// (the 10³ → 10⁴ CI pair, no file). Deliberately *not* part of the default
/// experiment list: the rows carry wall-clock throughput, which is
/// machine-dependent — unlike every seed experiment, whose outputs are
/// deterministic virtual-time quantities.
fn e10(full: bool) {
    let report = experiments::e10_detect(0xE10, full);
    println!(
        "== E10 (extension): predicate-index detection, {}-template palette, {} motes ==",
        experiments::E10_PALETTE,
        experiments::E10_MOTES
    );
    let mut t = Table::new(vec![
        "AQs".into(),
        "epochs".into(),
        "register(s)".into(),
        "detect(s)".into(),
        "tuples/s".into(),
        "cmps".into(),
        "groups".into(),
    ]);
    for r in &report.rows {
        t.row(vec![
            r.queries.to_string(),
            r.epochs.to_string(),
            format!("{:.3}", r.register_secs),
            format!("{:.3}", r.detect_secs),
            format!("{:.0}", r.tuples_per_sec),
            r.index_cmps.to_string(),
            r.index_groups.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "per-epoch cost growth / query growth between scales: {} ({})\n",
        report
            .sublinear_ratios
            .iter()
            .map(|r| format!("{r:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        if report.sublinear_ok {
            "sub-linear OK"
        } else {
            "NOT SUB-LINEAR"
        },
    );
    if full {
        write_bench_detect_json(&report);
    }
    // CI runs the smoke arm: a lost property must fail the process.
    assert!(report.shares(), "the predicate index stopped sharing");
    assert!(report.sublinear_ok, "detection cost grew with the AQ count");
}

/// Hand-formats `BENCH_detect.json` (the repo has no JSON dependency).
fn write_bench_detect_json(report: &experiments::E10Report) {
    let mut body = String::from("{\n");
    body.push_str("  \"experiment\": \"e10\",\n");
    body.push_str(&format!(
        "  \"palette\": {},\n  \"batch_tuples\": {},\n  \"sublinear_ratios\": [{}],\n  \
         \"sublinear_ok\": {},\n",
        experiments::E10_PALETTE,
        experiments::E10_MOTES,
        report
            .sublinear_ratios
            .iter()
            .map(|r| format!("{r:.6}"))
            .collect::<Vec<_>>()
            .join(", "),
        report.sublinear_ok,
    ));
    body.push_str("  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"queries\": {}, \"epochs\": {}, \"register_s\": {:.4}, \
             \"detect_s\": {:.4}, \"tuples_per_s\": {:.1}, \"index_cmps\": {}, \
             \"index_groups\": {}}}{}\n",
            r.queries,
            r.epochs,
            r.register_secs,
            r.detect_secs,
            r.tuples_per_sec,
            r.index_cmps,
            r.index_groups,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write("BENCH_detect.json", body) {
        Ok(()) => println!("(wrote BENCH_detect.json)"),
        Err(e) => eprintln!("repro: failed to write BENCH_detect.json: {e}"),
    }
}

/// `repro e11` (full sweep, writes BENCH_wal.json) or `repro e11-smoke`
/// (one-arm CI gate, no file): kill shards mid-wave at seeded points,
/// rebuild each from its write-ahead log, and require the recovered run to
/// be byte-identical to a never-interrupted reference. Not part of the
/// default list: `recovery_ms` is host wall-clock and machine-dependent;
/// every identity/conservation verdict is deterministic.
fn e11(full: bool) {
    let report = experiments::e11_wal(0xE11, full);
    println!(
        "== E11 (extension): durable control plane, kill-and-recover, {} cameras / {} motes ==",
        experiments::E11_CAMERAS,
        experiments::E11_MOTES
    );
    let mut t = Table::new(vec![
        "shards".into(),
        "crashes".into(),
        "cadence".into(),
        "store".into(),
        "requests".into(),
        "recovered".into(),
        "replayed".into(),
        "snapshots".into(),
        "wal KiB".into(),
        "recovery ms".into(),
        "conserved".into(),
        "identical".into(),
    ]);
    for r in &report.rows {
        t.row(vec![
            r.shards.to_string(),
            r.crashes.to_string(),
            r.snapshot_every.to_string(),
            if r.durable { "file" } else { "mem" }.into(),
            r.requests.to_string(),
            r.recoveries.to_string(),
            r.records_replayed.to_string(),
            r.snapshots.to_string(),
            format!("{:.1}", r.wal_bytes as f64 / 1024.0),
            r.recovery_wall_ms
                .iter()
                .map(|ms| ms.to_string())
                .collect::<Vec<_>>()
                .join("+"),
            if r.conservation_ok { "OK" } else { "VIOLATED" }.into(),
            if r.identical_to_reference {
                "OK"
            } else {
                "DIVERGED"
            }
            .into(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "determinism: {} (trace digest {:#018x})\n",
        if report.deterministic {
            "byte-identical across reruns"
        } else {
            "DIVERGED"
        },
        report.trace_digest,
    );
    if full {
        write_bench_wal_json(&report);
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

/// Hand-formats `BENCH_wal.json` (the repo has no JSON dependency).
fn write_bench_wal_json(report: &experiments::E11Report) {
    let mut body = String::from("{\n");
    body.push_str("  \"experiment\": \"e11\",\n");
    body.push_str(&format!(
        "  \"cameras\": {},\n  \"motes\": {},\n  \"all_conserved\": {},\n  \
         \"all_identical\": {},\n  \"deterministic\": {},\n  \"trace_fnv1a\": \"{:#018x}\",\n",
        experiments::E11_CAMERAS,
        experiments::E11_MOTES,
        report.all_conserved,
        report.all_identical,
        report.deterministic,
        report.trace_digest,
    ));
    body.push_str("  \"arms\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"shards\": {}, \"crashes\": {}, \"snapshot_every\": {}, \"store\": \"{}\", \
             \"requests\": {}, \"executed\": {}, \"recoveries\": {}, \"records_replayed\": {}, \
             \"wal_appends\": {}, \"wal_bytes\": {}, \"snapshots\": {}, \"recovery_ms\": [{}], \
             \"conservation_ok\": {}, \"identical_to_reference\": {}}}{}\n",
            r.shards,
            r.crashes,
            r.snapshot_every,
            if r.durable { "file" } else { "mem" },
            r.requests,
            r.executed,
            r.recoveries,
            r.records_replayed,
            r.wal_appends,
            r.wal_bytes,
            r.snapshots,
            r.recovery_wall_ms
                .iter()
                .map(|ms| ms.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            r.conservation_ok,
            r.identical_to_reference,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write("BENCH_wal.json", body) {
        Ok(()) => println!("(wrote BENCH_wal.json)"),
        Err(e) => eprintln!("repro: failed to write BENCH_wal.json: {e}"),
    }
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
    let mut t = Table::new(vec![
        "shards".into(),
        "crashes".into(),
        "ship loss".into(),
        "requests".into(),
        "executed".into(),
        "rerouted".into(),
        "failovers".into(),
        "window ms".into(),
        "shipped KiB".into(),
        "rounds".into(),
        "replayed".into(),
        "new hosts".into(),
        "fenced".into(),
        "conserved".into(),
    ]);
    for r in &report.rows {
        t.row(vec![
            r.shards.to_string(),
            r.crashes.to_string(),
            format!("{:.0}%", r.ship_loss * 100.0),
            r.requests.to_string(),
            r.executed.to_string(),
            r.rerouted.to_string(),
            r.failovers.to_string(),
            r.degraded_window_us
                .iter()
                .map(|us| format!("{:.0}", *us as f64 / 1000.0))
                .collect::<Vec<_>>()
                .join("+"),
            format!("{:.1}", r.bytes_shipped as f64 / 1024.0),
            r.ship_rounds.to_string(),
            r.records_replayed.to_string(),
            r.new_hosts
                .iter()
                .map(|h| format!("h{h}"))
                .collect::<Vec<_>>()
                .join("+"),
            if r.zombie_probe_rejected && r.late_successes == 0 {
                "OK"
            } else {
                "LEAKED"
            }
            .into(),
            if r.conservation_ok { "OK" } else { "VIOLATED" }.into(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "corruption sweep: {}; determinism: {} (trace digest {:#018x})\n",
        if report.corruption_detected {
            "every flipped byte refused"
        } else {
            "CORRUPT IMAGE ACCEPTED"
        },
        if report.deterministic {
            "byte-identical across reruns"
        } else {
            "DIVERGED"
        },
        report.trace_digest,
    );
    if full {
        write_bench_failover_json(&report);
    }
    // CI runs the smoke arm: a lost request, an applied zombie, or an
    // accepted corrupt image must fail the process, not just print.
    assert!(report.all_conserved, "conservation violated under failover");
    assert!(report.all_fenced, "stale-epoch traffic was not fenced");
    assert!(report.no_late_successes, "a zombie completion was applied");
    assert!(report.corruption_detected, "corrupt image went undetected");
    assert!(report.deterministic, "failover runs diverged");
}

/// Hand-formats `BENCH_failover.json` (the repo has no JSON dependency).
fn write_bench_failover_json(report: &experiments::E12Report) {
    let mut body = String::from("{\n");
    body.push_str("  \"experiment\": \"e12\",\n");
    body.push_str(&format!(
        "  \"cameras\": {},\n  \"motes\": {},\n  \"all_conserved\": {},\n  \
         \"all_fenced\": {},\n  \"no_late_successes\": {},\n  \
         \"corruption_detected\": {},\n  \"deterministic\": {},\n  \
         \"trace_fnv1a\": \"{:#018x}\",\n",
        experiments::E11_CAMERAS,
        experiments::E11_MOTES,
        report.all_conserved,
        report.all_fenced,
        report.no_late_successes,
        report.corruption_detected,
        report.deterministic,
        report.trace_digest,
    ));
    body.push_str("  \"arms\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"shards\": {}, \"crashes\": {}, \"ship_loss\": {}, \"requests\": {}, \
             \"executed\": {}, \"degraded\": {}, \"shed\": {}, \"rerouted\": {}, \
             \"gateway_dropped\": {}, \"gateway_expired\": {}, \"failovers\": {}, \
             \"degraded_window_us\": [{}], \"bytes_shipped\": {}, \"ship_rounds\": {}, \
             \"records_replayed\": {}, \"new_hosts\": [{}], \"zombie_probe_rejected\": {}, \
             \"late_successes\": {}, \"conservation_ok\": {}}}{}\n",
            r.shards,
            r.crashes,
            r.ship_loss,
            r.requests,
            r.executed,
            r.degraded,
            r.shed,
            r.rerouted,
            r.gateway_dropped,
            r.gateway_expired,
            r.failovers,
            r.degraded_window_us
                .iter()
                .map(|us| us.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            r.bytes_shipped,
            r.ship_rounds,
            r.records_replayed,
            r.new_hosts
                .iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            r.zombie_probe_rejected,
            r.late_successes,
            r.conservation_ok,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write("BENCH_failover.json", body) {
        Ok(()) => println!("(wrote BENCH_failover.json)"),
        Err(e) => eprintln!("repro: failed to write BENCH_failover.json: {e}"),
    }
}

/// `repro e13` (full shards × threads ∈ {1,2,4,8}² sweep, writes
/// BENCH_parallel.json) or `repro e13-smoke` (one shard arm, threads
/// {1,4}, no file): the E8 live wave scaled to 2000 cameras, stepped on a
/// worker pool, every threaded arm's trace digest checked against the
/// 1-thread oracle. Like e10, not in the default experiment list: the rows
/// carry wall-clock times, which are machine-dependent — the digests are
/// the deterministic part.
fn e13(full: bool) {
    let report = experiments::e13_parallel(0xE13, full);
    println!(
        "== E13 (extension): parallel shard stepping, {} cameras / {} motes / {} AQs, {} host core(s) ==",
        report.cameras, report.motes, report.queries, report.host_cores
    );
    let mut t = Table::new(vec![
        "shards".into(),
        "threads".into(),
        "wall(s)".into(),
        "requests".into(),
        "executed".into(),
        "trace fnv".into(),
        "oracle".into(),
    ]);
    for r in &report.rows {
        t.row(vec![
            r.shards.to_string(),
            r.threads.to_string(),
            format!("{:.3}", r.wall_secs),
            r.requests.to_string(),
            r.executed.to_string(),
            format!("{:016x}", r.trace_fnv),
            if r.matches_oracle { "OK" } else { "DIVERGED" }.into(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "wall-clock speedup, 4 threads vs 1 at the largest shard arm: {:.2}x \
         (bounded by {} host core(s))\n",
        report.speedup_4t, report.host_cores
    );
    if full {
        write_bench_parallel_json(&report);
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
/// quantity is a deterministic virtual-time count (bytes, tuples, digests),
/// so unlike e10/e13 the committed artifact is bit-for-bit reproducible on
/// any machine. Every arm is byte-checked against a pushdown-off oracle.
fn e14(full: bool) {
    let report = experiments::e14_pushdown(0xE14, full);
    println!("== E14 (extension): in-network operator pushdown, hop-weighted wire bytes ==");
    let mut t = Table::new(vec![
        "workload".into(),
        "mins".into(),
        "AQs".into(),
        "shipped".into(),
        "suppressed".into(),
        "supp%".into(),
        "baseline(B)".into(),
        "wire(B)".into(),
        "saved%".into(),
        "oracle".into(),
    ]);
    for r in &report.rows {
        t.row(vec![
            r.workload.to_string(),
            r.minutes.to_string(),
            r.queries.to_string(),
            r.shipped.to_string(),
            r.suppressed.to_string(),
            format!("{:.1}", r.suppression_pct),
            r.baseline_bytes.to_string(),
            r.wire_bytes.to_string(),
            format!("{:.1}", r.saved_pct),
            if r.identical_to_oracle {
                "OK"
            } else {
                "DIVERGED"
            }
            .into(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "best savings {:.1}% of baseline bytes; deterministic: {}\n",
        report.best_saved_pct, report.deterministic
    );
    if full {
        write_bench_pushdown_json(&report);
    }
    // CI runs the smoke arm: a pushdown run that detects even one byte
    // differently from its oracle must fail the process, not just print.
    assert!(
        report.all_identical,
        "a pushdown arm diverged from its pushdown-off oracle"
    );
    assert!(report.deterministic, "e14 is not repetition-stable");
}

/// Hand-formats `BENCH_pushdown.json` (the repo has no JSON dependency).
fn write_bench_pushdown_json(report: &experiments::E14Report) {
    let mut body = String::from("{\n");
    body.push_str("  \"experiment\": \"e14\",\n");
    body.push_str(&format!(
        "  \"best_saved_pct\": {:.1},\n  \"all_identical\": {},\n  \"deterministic\": {},\n",
        report.best_saved_pct, report.all_identical, report.deterministic,
    ));
    body.push_str("  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"workload\": \"{}\", \"minutes\": {}, \"queries\": {}, \"shipped\": {}, \
             \"suppressed\": {}, \"suppression_pct\": {:.1}, \"baseline_bytes\": {}, \
             \"wire_bytes\": {}, \"saved_bytes\": {}, \"saved_pct\": {:.1}, \
             \"trace_fnv1a\": \"{:#018x}\", \"identical_to_oracle\": {}}}{}\n",
            r.workload,
            r.minutes,
            r.queries,
            r.shipped,
            r.suppressed,
            r.suppression_pct,
            r.baseline_bytes,
            r.wire_bytes,
            r.saved_bytes,
            r.saved_pct,
            r.trace_fnv,
            r.identical_to_oracle,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write("BENCH_pushdown.json", body) {
        Ok(()) => println!("(wrote BENCH_pushdown.json)"),
        Err(e) => eprintln!("repro: failed to write BENCH_pushdown.json: {e}"),
    }
}

/// Hand-formats `BENCH_parallel.json` (the repo has no JSON dependency).
fn write_bench_parallel_json(report: &experiments::E13Report) {
    let mut body = String::from("{\n");
    body.push_str("  \"experiment\": \"e13\",\n");
    body.push_str(&format!(
        "  \"cameras\": {},\n  \"motes\": {},\n  \"queries\": {},\n  \
         \"virtual_secs\": {},\n  \"host_cores\": {},\n  \
         \"speedup_4t_at_max_shards\": {:.2},\n  \"all_match\": {},\n",
        report.cameras,
        report.motes,
        report.queries,
        report.virtual_secs,
        report.host_cores,
        report.speedup_4t,
        report.all_match,
    ));
    body.push_str("  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"shards\": {}, \"threads\": {}, \"wall_s\": {:.4}, \"requests\": {}, \
             \"executed\": {}, \"trace_fnv1a\": \"{:#018x}\", \"matches_oracle\": {}}}{}\n",
            r.shards,
            r.threads,
            r.wall_secs,
            r.requests,
            r.executed,
            r.trace_fnv,
            r.matches_oracle,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write("BENCH_parallel.json", body) {
        Ok(()) => println!("(wrote BENCH_parallel.json)"),
        Err(e) => eprintln!("repro: failed to write BENCH_parallel.json: {e}"),
    }
}

fn e7(runs: u64) {
    let rows = experiments::e7_scale(runs.min(3), 7200);
    println!("== E7 (extension): scheduling at scale, ratio n/m = 4 ==");
    let mut t = Table::new(vec![
        "algorithm".into(),
        "n".into(),
        "m".into(),
        "makespan(s)".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.algorithm.to_string(),
            r.n.to_string(),
            r.m.to_string(),
            format!("{:.2}", r.service_secs),
        ]);
    }
    println!("{}", t.render());
    E7_ROWS.with(|slot| *slot.borrow_mut() = Some(rows));
}

fn e8() {
    let report = experiments::e8_cluster(0xE8);
    println!(
        "== E8 (extension): sharded cluster, {} requests / {} cameras ==",
        experiments::E8_REQUESTS,
        experiments::E8_CAMERAS
    );
    let mut t = Table::new(vec![
        "arm".into(),
        "shards".into(),
        "makespan(s)".into(),
        "rerouted".into(),
        "balanced".into(),
        "dropped".into(),
    ]);
    for r in &report.batch {
        let arm = if r.crashed_cameras == 0 {
            "uniform"
        } else {
            "crash storm"
        };
        t.row(vec![
            arm.into(),
            r.shards.to_string(),
            format!("{:.3}", r.makespan_secs),
            r.rerouted.to_string(),
            r.balanced.to_string(),
            r.dropped.to_string(),
        ]);
    }
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
        if live.conservation_ok {
            "OK"
        } else {
            "VIOLATED"
        },
    );
    println!(
        "determinism: {} (trace digest {:#018x})\n",
        if report.deterministic {
            "byte-identical across reruns"
        } else {
            "DIVERGED"
        },
        report.trace_digest,
    );
    write_bench_cluster_json(&report);
}

fn e9() {
    let report = experiments::e9_overload(0x0E9);
    println!(
        "== E9 (extension): overload sweep, arrival rate x fault rate, 4-shard cluster ==\n\
         deadline budget {:.0}s, admission SLO 2s, brownout at 0.5x / shed at 2x backlog",
        report.deadline_secs
    );
    let mut t = Table::new(vec![
        "period(s)".into(),
        "crash rate".into(),
        "requests".into(),
        "executed".into(),
        "degraded".into(),
        "shed".into(),
        "expired".into(),
        "trips".into(),
        "p99(s)".into(),
        "late".into(),
        "conserved".into(),
    ]);
    for r in &report.rows {
        t.row(vec![
            r.period_secs.to_string(),
            format!("{:.1}", r.crash_rate),
            r.requests.to_string(),
            r.executed.to_string(),
            r.degraded.to_string(),
            r.shed.to_string(),
            r.expired.to_string(),
            r.breaker_trips.to_string(),
            format!("{:.3}", r.p99_latency_secs),
            r.late_successes.to_string(),
            if r.conservation_ok { "OK" } else { "VIOLATED" }.into(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "max p99 {:.3}s <= deadline {:.0}s: {}; late successes: {}",
        report.max_p99_secs,
        report.deadline_secs,
        if report.max_p99_secs <= report.deadline_secs {
            "OK"
        } else {
            "VIOLATED"
        },
        if report.zero_late_successes {
            "none (OK)"
        } else {
            "PRESENT (VIOLATED)"
        },
    );
    println!(
        "determinism: {} (trace digest {:#018x})\n",
        if report.deterministic {
            "byte-identical across reruns"
        } else {
            "DIVERGED"
        },
        report.trace_digest,
    );
    write_bench_overload_json(&report);
}

/// Hand-formats `BENCH_overload.json` (the repo has no JSON dependency).
fn write_bench_overload_json(report: &experiments::E9Report) {
    let mut body = String::from("{\n");
    body.push_str("  \"experiment\": \"e9\",\n");
    body.push_str(&format!(
        "  \"deadline_s\": {:.1},\n  \"max_p99_s\": {:.4},\n  \"zero_late_successes\": {},\n  \
         \"deterministic\": {},\n  \"trace_fnv1a\": \"{:#018x}\",\n",
        report.deadline_secs,
        report.max_p99_secs,
        report.zero_late_successes,
        report.deterministic,
        report.trace_digest
    ));
    body.push_str("  \"sweep\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"period_s\": {}, \"crash_rate\": {:.2}, \"requests\": {}, \"executed\": {}, \
             \"degraded\": {}, \"shed\": {}, \"expired\": {}, \"breaker_trips\": {}, \
             \"p99_latency_s\": {:.4}, \"late_successes\": {}, \"conservation_ok\": {}}}{}\n",
            r.period_secs,
            r.crash_rate,
            r.requests,
            r.executed,
            r.degraded,
            r.shed,
            r.expired,
            r.breaker_trips,
            r.p99_latency_secs,
            r.late_successes,
            r.conservation_ok,
            if i + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write("BENCH_overload.json", body) {
        Ok(()) => println!("(wrote BENCH_overload.json)"),
        Err(e) => eprintln!("repro: failed to write BENCH_overload.json: {e}"),
    }
}

/// Hand-formats `BENCH_cluster.json` (the repo has no JSON dependency).
fn write_bench_cluster_json(report: &experiments::E8Report) {
    let mut body = String::from("{\n");
    body.push_str("  \"experiment\": \"e8\",\n");
    body.push_str(&format!(
        "  \"requests\": {},\n  \"cameras\": {},\n",
        experiments::E8_REQUESTS,
        experiments::E8_CAMERAS
    ));
    body.push_str(&format!(
        "  \"speedup_1_to_8\": {:.4},\n  \"deterministic\": {},\n  \"trace_fnv1a\": \"{:#018x}\",\n",
        report.speedup_1_to_8, report.deterministic, report.trace_digest
    ));
    body.push_str("  \"batch\": [\n");
    for (i, r) in report.batch.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"shards\": {}, \"crashed_cameras\": {}, \"makespan_s\": {:.4}, \
             \"rerouted\": {}, \"balanced\": {}, \"dropped\": {}}}{}\n",
            r.shards,
            r.crashed_cameras,
            r.makespan_secs,
            r.rerouted,
            r.balanced,
            r.dropped,
            if i + 1 < report.batch.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    let live = &report.live;
    body.push_str(&format!(
        "  \"live\": {{\"shards\": {}, \"requests\": {}, \"executed\": {}, \"rerouted\": {}, \
         \"migrations\": {}, \"mean_latency_s\": {}, \"conservation_ok\": {}}}\n",
        live.shards,
        live.requests,
        live.executed,
        live.rerouted,
        live.migrations,
        live.mean_latency_secs
            .map(|s| format!("{s:.4}"))
            .unwrap_or_else(|| "null".into()),
        live.conservation_ok,
    ));
    body.push_str("}\n");
    match std::fs::write("BENCH_cluster.json", body) {
        Ok(()) => println!("(wrote BENCH_cluster.json)"),
        Err(e) => eprintln!("repro: failed to write BENCH_cluster.json: {e}"),
    }
}

/// Hand-formats `BENCH_sched.json` from the Figure-4 (E2) and E7 rows, when
/// both experiments ran in this invocation.
fn write_bench_sched_json() {
    let fig4 = FIG4_POINTS.with(|slot| slot.borrow_mut().take());
    let e7 = E7_ROWS.with(|slot| slot.borrow_mut().take());
    let (Some(fig4), Some(e7)) = (fig4, e7) else {
        return;
    };
    let mut body = String::from("{\n  \"fig4\": [\n");
    for (i, p) in fig4.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"requests\": {}, \"makespan_s\": {:.4}, \
             \"sched_s\": {:.4}, \"service_s\": {:.4}}}{}\n",
            p.algorithm,
            p.x,
            p.makespan_secs,
            p.sched_secs,
            p.service_secs,
            if i + 1 < fig4.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n  \"e7\": [\n");
    for (i, r) in e7.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"algorithm\": \"{}\", \"n\": {}, \"m\": {}, \"makespan_s\": {:.4}}}{}\n",
            r.algorithm,
            r.n,
            r.m,
            r.service_secs,
            if i + 1 < e7.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write("BENCH_sched.json", body) {
        Ok(()) => println!("(wrote BENCH_sched.json)"),
        Err(e) => eprintln!("repro: failed to write BENCH_sched.json: {e}"),
    }
}

thread_local! {
    static FIG4_POINTS: std::cell::RefCell<Option<Vec<MakespanPoint>>> =
        const { std::cell::RefCell::new(None) };
    static E7_ROWS: std::cell::RefCell<Option<Vec<experiments::RatioPoint>>> =
        const { std::cell::RefCell::new(None) };
}

fn ablation(runs: u64) {
    println!("== A1 (ablation): sequence-dependence is what SRFE exploits ==");
    let mut t = Table::new(vec!["configuration".into(), "service makespan(s)".into()]);
    for r in experiments::ablation_sequence_dependence(runs, 7000) {
        t.row(vec![r.label.clone(), format!("{:.2}", r.service_secs)]);
    }
    println!("{}", t.render());

    println!("== A2 (ablation): batch dispatch vs independent min-cost ==");
    let mut t = Table::new(vec!["configuration".into(), "mean latency(s)".into()]);
    for r in experiments::ablation_dispatch_policy(10, 7100) {
        t.row(vec![r.label.clone(), format!("{:.2}", r.service_secs)]);
    }
    println!("{}", t.render());
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2)
}

thread_local! {
    static CSV_DIR: std::cell::RefCell<Option<PathBuf>> = const { std::cell::RefCell::new(None) };
}

/// Writes one CSV series when `--csv` was given.
fn write_csv(name: &str, header: &str, rows: &[String]) {
    CSV_DIR.with(|slot| {
        if let Some(dir) = slot.borrow().as_ref() {
            let mut body = String::from(header);
            body.push('\n');
            for r in rows {
                body.push_str(r);
                body.push('\n');
            }
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("repro: failed to write {}: {e}", path.display());
            } else {
                println!("(wrote {})", path.display());
            }
        }
    });
}

fn print_points(title: &str, x_label: &str, points: &[MakespanPoint]) {
    println!("== {title} ==");
    let slug: String = title
        .chars()
        .take_while(|c| *c != ':')
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    write_csv(
        &slug,
        "algorithm,x,makespan_s,sched_s,service_s",
        &points
            .iter()
            .map(|p| {
                format!(
                    "{},{},{:.4},{:.4},{:.4}",
                    p.algorithm, p.x, p.makespan_secs, p.sched_secs, p.service_secs
                )
            })
            .collect::<Vec<_>>(),
    );
    let mut t = Table::new(vec![
        "algorithm".into(),
        x_label.into(),
        "makespan(s)".into(),
        "sched(s)".into(),
        "service(s)".into(),
    ]);
    for p in points {
        t.row(vec![
            p.algorithm.to_string(),
            p.x.to_string(),
            format!("{:.2}", p.makespan_secs),
            format!("{:.3}", p.sched_secs),
            format!("{:.2}", p.service_secs),
        ]);
    }
    println!("{}", t.render());
}

fn fig4(runs: u64) {
    let points = experiments::fig4(runs, 1000);
    print_points(
        "Figure 4: makespan vs #requests (10 cameras, uniform workload)",
        "#requests",
        &points,
    );
    FIG4_POINTS.with(|slot| *slot.borrow_mut() = Some(points.clone()));
    let violations = experiments::check_fig4_shape(&points);
    if violations.is_empty() {
        println!("shape check: OK (RANDOM worst; proposed beat LS/SA; sub-linear scaling)\n");
    } else {
        println!("shape check VIOLATIONS: {violations:#?}\n");
    }
}

fn fig5(runs: u64) {
    let points = experiments::fig5(runs, 2000);
    print_points(
        "Figure 5: time breakdown at 20 requests, 10 cameras",
        "#requests",
        &points,
    );
}

fn fig6(runs: u64) {
    let points = experiments::fig6(runs, 3000);
    print_points(
        "Figure 6: makespan vs skewness (10 cameras, 20 requests)",
        "skew(%)",
        &points,
    );
}

fn e5(runs: u64) {
    let points = experiments::e5(runs, 4000);
    println!("== E5: makespan depends only on #requests/#devices (uniform workload) ==");
    let mut t = Table::new(vec![
        "algorithm".into(),
        "n".into(),
        "m".into(),
        "n/m".into(),
        "service(s)".into(),
    ]);
    for p in &points {
        t.row(vec![
            p.algorithm.to_string(),
            p.n.to_string(),
            p.m.to_string(),
            format!("{:.1}", p.n as f64 / p.m as f64),
            format!("{:.2}", p.service_secs),
        ]);
    }
    println!("{}", t.render());
}

fn e1() {
    let report = aorta_bench::experiments::e1(10, 500);
    println!("== E1 (§6.2): action failure rate, 10 queries / 2 cameras / 10 min ==");
    let mut t = Table::new(vec![
        "synchronization".into(),
        "requests".into(),
        "failures".into(),
        "failure rate".into(),
    ]);
    for row in &report {
        t.row(vec![
            row.label.clone(),
            row.requests.to_string(),
            row.failures.to_string(),
            format!("{:.1}%", row.failure_rate * 100.0),
        ]);
    }
    println!("{}", t.render());
}

fn e6() {
    let rows = aorta_bench::experiments::e6(2000, 600);
    println!("== E6 (§2.3): cost model accuracy, estimated vs actual photo() time ==");
    let mut t = Table::new(vec!["metric".into(), "value".into()]);
    for (k, v) in rows {
        t.row(vec![k, v]);
    }
    println!("{}", t.render());
}
