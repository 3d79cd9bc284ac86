//! `perf` — Aorta's performance benchmark.
//!
//! Four named workloads, each stressing a different layer; end-to-end
//! metrics from an untraced run; per-layer metrics from a separate traced
//! run. See `README.md` beside this crate for the protocol, the glossary and
//! the pinned engine surface, and `BENCHMARK.json` at the repository root
//! for the contract the numbers are compared under.
//!
//! The harness touches no engine code: it drives the engine crates through
//! their public functions and times those calls from outside.

mod alloc;
mod gen;
mod host;
mod json;
mod metrics;
mod probes;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use aorta_sim::metrics::percentile;
use gen::{Inputs, Workload};
use json::Json;
use metrics::{Clock, Values, END_TO_END};
use stats::{summarize, Summary};
use workloads::{outcome, setup, timed_section, validate, Outcome};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Timed repetitions a run never goes below, whatever the time budget.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: perf --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] \
                     [--out DIR]\n       perf --selfcheck [--seed N] [--seconds S]\n       \
                     perf --print-benchmark-json | --print-glossary\n\
                     workloads: detect_fleet cluster_wave durable_storm aq_churn";

enum Mode {
    /// One workload in this process.
    One(Workload),
    /// Every workload, each in a fresh child process so that `peak_rss_mb`
    /// belongs to it.
    All,
    SelfCheck,
    PrintBenchmarkJson,
    PrintGlossary,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace) = (1, metrics::RUN_SECONDS as f64, false);
    let mut out = PathBuf::from("results/perf");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                mode = Some(match name.as_str() {
                    "all" => Mode::All,
                    name => Mode::One(
                        Workload::from_name(name).ok_or_else(|| format!("no workload '{name}'"))?,
                    ),
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            "--selfcheck" => mode = Some(Mode::SelfCheck),
            "--print-benchmark-json" => mode = Some(Mode::PrintBenchmarkJson),
            "--print-glossary" => mode = Some(Mode::PrintGlossary),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        mode: mode.ok_or("name a workload, --selfcheck or a --print flag")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// One end-to-end run of a workload: a discarded warm-up repetition, then
/// timed repetitions on freshly built systems until the budget is spent.
struct EndToEndRun {
    values: Values,
    /// Median, quartiles and count behind each timing metric.
    summaries: Vec<(&'static str, Summary)>,
    outcome: Outcome,
    problems: Vec<String>,
    /// Calls the harness made into the system, and how many returned errors.
    attempted: u64,
    failed: u64,
}

fn measure(inputs: &Inputs, seconds: f64) -> EndToEndRun {
    let started = Instant::now();
    let tuples = workloads::scanned_tuples(inputs.workload) as f64;
    let mut samples: Vec<(&'static str, Vec<f64>)> = [
        "setup_s",
        "wall_s",
        "cpu_s",
        "tuples_per_s",
        "requests_per_s",
    ]
    .into_iter()
    .map(|name| (name, Vec::new()))
    .collect();
    let mut first: Option<Outcome> = None;
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    loop {
        // The first repetition is the warm-up: checked, not timed.
        let warmed_up = first.is_some();
        let t0 = Instant::now();
        let mut system = setup(inputs, true);
        let setup_s = t0.elapsed().as_secs_f64();
        let times = timed_section(&mut system, inputs, None);
        let out = outcome(&system);
        attempted += workloads::setup_calls(inputs) + times.ddl_statements + times.run_for_calls;
        failed += times.ddl_failed;
        match &first {
            None => {
                problems.extend(validate(inputs, &system, &out, &times));
                first = Some(out);
            }
            // Virtual metrics and every count are exact per seed: a
            // repetition that differs is a determinism failure.
            Some(first) if *first != out => problems.push(format!(
                "repetition diverged: digest {:016x} vs {:016x}",
                out.digest, first.digest
            )),
            Some(_) => {}
        }
        if warmed_up {
            let requests = first.as_ref().expect("set above").requests() as f64;
            let rep = [
                setup_s,
                times.wall_s,
                times.cpu_s,
                tuples / times.run_for_s,
                requests / times.run_for_s,
            ];
            for ((_, column), value) in samples.iter_mut().zip(rep) {
                column.push(value);
            }
        }
        if samples[0].1.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let outcome = first.expect("at least one repetition ran");
    let summaries: Vec<(&'static str, Summary)> = samples
        .iter()
        .map(|(name, column)| (*name, summarize(column)))
        .collect();
    let mut values: Values = summaries.iter().map(|(n, s)| (*n, s.median)).collect();
    values.insert("served_share", 1.0 - outcome.failed_share());
    values.insert("peak_rss_mb", host::peak_rss_mb());
    EndToEndRun {
        values,
        summaries,
        outcome,
        problems,
        attempted,
        failed,
    }
}

fn print_end_to_end(inputs: &Inputs, run: &EndToEndRun) {
    let reps = run.summaries[0].1.n;
    println!(
        "{} seed {}: {reps} timed repetitions after 1 warm-up, {} cores",
        inputs.workload.name(),
        inputs.seed,
        host::nproc()
    );
    for metric in END_TO_END {
        let Some(value) = run.values.get(metric.name) else {
            continue;
        };
        let spread = run
            .summaries
            .iter()
            .find(|(name, _)| *name == metric.name)
            .map_or(
                String::from(match metric.clock {
                    Clock::Virtual => "exact per seed",
                    Clock::Host => "one reading per process",
                }),
                |(_, s)| format!("q1 {:.4}, q3 {:.4}, n {}", s.q1, s.q3, s.n),
            );
        println!(
            "  {:<32} {value:>14.4} {:<5} ({spread}; {} is better, bound {:.1} %)",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.bound * 100.0
        );
    }
    let out = &run.outcome;
    let p50 = percentile(&out.latencies_us, 0.5).unwrap_or(0) as f64 / 1e3;
    let (tail_q, tail) =
        stats::tail(&out.latencies_us).map_or((0.0, 0.0), |t| (t.q * 100.0, t.value as f64 / 1e3));
    println!(
        "  virtual (exact per seed): action latency p50 {p50} ms, p{tail_q:.1} {tail} ms over {} \
         samples; requests {}, failed {} (failed_share {:.4}), pending {}; events {}; \
         digest {:016x}",
        out.latencies_us.len(),
        out.requests(),
        out.failed(),
        out.failed_share(),
        out.pending,
        out.sum(|s| s.events_detected),
        out.digest
    );
}

fn print_problems(problems: &[String]) {
    if problems.is_empty() {
        println!("validity: ok");
    }
    for problem in problems {
        println!("validity: FAILED: {problem}");
    }
}

/// The last line of standard output: the contract's result object.
fn result_line(problems: &[String], attempted: u64, failed: u64, metrics: Json) -> String {
    Json::object([
        ("correct", Json::from(problems.is_empty() && failed == 0)),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
    .render()
}

fn write_file(dir: &Path, name: &str, body: &str) {
    // Results are a convenience copy; the result line is the contract.
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), body));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", dir.join(name).display());
    }
}

fn run_end_to_end(workload: Workload, args: &Args) -> bool {
    let inputs = gen::generate(workload, args.seed);
    let run = measure(&inputs, args.seconds);
    print_end_to_end(&inputs, &run);
    print_problems(&run.problems);
    let metrics = metrics::metrics_json(&metrics::end_to_end_names(), &run.values);
    let summaries = Json::object(run.summaries.iter().map(|(name, s)| {
        (
            *name,
            Json::object([
                ("median", Json::from(s.median)),
                ("q1", Json::from(s.q1)),
                ("q3", Json::from(s.q3)),
                ("n", Json::from(s.n as u64)),
            ]),
        )
    }));
    let report = Json::object([
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(args.seed)),
        ("nproc", Json::from(host::nproc() as u64)),
        ("metrics", metrics.clone()),
        ("repetitions", summaries),
        (
            "latency_samples",
            Json::from(run.outcome.latencies_us.len() as u64),
        ),
        ("requests", Json::from(run.outcome.requests())),
        (
            "digest",
            Json::from(format!("{:016x}", run.outcome.digest).as_str()),
        ),
        (
            "problems",
            Json::Array(
                run.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        ),
    ]);
    write_file(
        &args.out,
        &format!("{}.json", workload.name()),
        &report.render(),
    );
    println!(
        "{}",
        result_line(&run.problems, run.attempted, run.failed, metrics)
    );
    run.problems.is_empty() && run.failed == 0
}

fn run_traced(workload: Workload, args: &Args) -> bool {
    let inputs = gen::generate(workload, args.seed);
    let traced = probes::run(&inputs, args.seconds);
    let [reference, counting, stepped] = traced.walls_s;
    println!(
        "{} seed {} traced: {} stepped repetitions, {} spans; timed section {reference:.3} s \
         untraced, {counting:.3} s counting allocations, {stepped:.3} s stepped",
        workload.name(),
        args.seed,
        traced.stepped_reps,
        traced.spans.spans().len()
    );
    for metric in metrics::PER_LAYER {
        println!(
            "  {:<40} {:>16.4} {}",
            metric.name, traced.values[metric.name], metric.unit
        );
    }
    println!("  share of one stepped repetition each unit cost x count explains:");
    for (name, share) in &traced.shares {
        println!("    {name:<38} {:>8.2} %", share * 100.0);
    }
    print_problems(&traced.problems);
    let trace = Json::object([
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(args.seed)),
        ("spans", traced.spans.to_json()),
    ]);
    write_file(
        &args.out,
        &format!("{}.trace.json", workload.name()),
        &trace.render(),
    );
    let metrics = metrics::metrics_json(&metrics::per_layer_names(), &traced.values);
    println!(
        "{}",
        result_line(&traced.problems, u64::from(traced.stepped_reps), 0, metrics)
    );
    traced.problems.is_empty()
}

/// This binary again, for one workload: a fresh process, so that
/// `peak_rss_mb` belongs to that workload alone.
fn child(args: &Args, workload: Workload, trace: bool) -> std::process::Command {
    let exe = std::env::current_exe().expect("own path is readable");
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    command
}

/// Runs every workload, one child at a time.
fn run_all(args: &Args) -> bool {
    Workload::ALL.into_iter().fold(true, |ok, workload| {
        let status = child(args, workload, args.trace).status();
        status.expect("child process starts").success() && ok
    })
}

/// A metric's value out of a result line this binary printed.
fn metric_in(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs the full end-to-end set twice back to back on the same build, each
/// run in a fresh process, and fails if any (metric, workload) pair
/// disagrees by more than the metric's bound, or if anything virtual
/// differs at all.
fn selfcheck(args: &Args) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<32} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for workload in Workload::ALL {
        let run = || -> Option<(String, String)> {
            let output = child(args, workload, false).output().ok()?;
            let stdout = String::from_utf8(output.stdout).ok()?;
            // The line that spells out everything exact per seed, digest
            // included, and the result line.
            let exact = stdout.lines().find(|l| l.contains("exact per seed):"))?;
            let result = stdout.lines().last()?;
            (output.status.success()).then(|| (exact.to_string(), result.to_string()))
        };
        let (Some((exact_a, first)), Some((exact_b, second))) = (run(), run()) else {
            ok = false;
            println!("{:<14} a run failed its validity gate", workload.name());
            continue;
        };
        for metric in END_TO_END {
            let (Some(a), Some(b)) = (
                metric_in(&first, metric.name),
                metric_in(&second, metric.name),
            ) else {
                ok = false;
                println!("{:<14} {:<32} missing", workload.name(), metric.name);
                continue;
            };
            let ratio = b / a;
            let agrees =
                (ratio - 1.0).abs() <= metric.bound && (metric.clock == Clock::Host || a == b);
            ok &= agrees;
            println!(
                "{:<14} {:<32} {a:>14.4} {b:>14.4} {ratio:>8.4} {:>6.1}%{}",
                workload.name(),
                metric.name,
                metric.bound * 100.0,
                if agrees { "" } else { "  DISAGREES" }
            );
        }
        if exact_a != exact_b {
            ok = false;
            println!(
                "{:<14} virtual outcome differs:\n{exact_a}\n{exact_b}",
                workload.name()
            );
        }
    }
    println!("selfcheck: {}", if ok { "ok" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.mode {
        Mode::PrintBenchmarkJson => {
            print!("{}", metrics::benchmark_json());
            true
        }
        Mode::PrintGlossary => {
            print!("{}", metrics::glossary_markdown());
            true
        }
        Mode::SelfCheck => selfcheck(&args),
        Mode::All => run_all(&args),
        Mode::One(workload) if args.trace => run_traced(workload, &args),
        Mode::One(workload) => run_end_to_end(workload, &args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_list_parses() {
        let parsed = args(&[
            "--workload",
            "durable_storm",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(matches!(parsed.mode, Mode::One(Workload::DurableStorm)));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 20.0, true));
    }

    #[test]
    fn bad_arguments_are_refused_with_a_reason() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--seed", "1"],
            &["--workload", "all", "--trace", "2"],
            &["--workload", "all", "--seconds", "0"],
            &["--workload", "all", "--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contracts_keys_and_reads_back() {
        let values: Values = metrics::end_to_end_names()
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (*name, i as f64 + 0.5))
            .collect();
        let metrics = metrics::metrics_json(&metrics::end_to_end_names(), &values);
        let line = result_line(&[], 12, 0, metrics);
        assert!(line.starts_with(r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"#));
        assert_eq!(metric_in(&line, "setup_s"), Some(0.5));
        assert_eq!(metric_in(&line, "peak_rss_mb"), Some(6.5));
        assert_eq!(metric_in(&line, "absent"), None);
        let failed = result_line(&["a check".to_string()], 0, 0, Json::object::<&str>([]));
        assert!(failed.starts_with(r#"{"correct":false,"attempted":1,"#));
    }
}
