//! A file `repro` cannot write fails the process: CI's
//! `repro … && git diff --exit-code BENCH_….json` must not pass on a write
//! that never happened.

use std::process::{Command, ExitStatus, Stdio};

/// Runs `repro args` in a fresh working directory where `blocked` (a
/// relative path) is a directory, so writing a file there fails even as
/// root.
fn repro_with_blocked_path(name: &str, blocked: &str, args: &[&str]) -> ExitStatus {
    let dir = std::env::temp_dir().join(format!("aorta-repro-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join(blocked)).expect("create the blocking directory");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .status()
        .expect("repro runs");
    let _ = std::fs::remove_dir_all(&dir);
    status
}

#[test]
fn an_unwritable_artifact_fails_the_process() {
    let status = repro_with_blocked_path(
        "artifact",
        "BENCH_sched.json",
        &["--runs", "1", "fig4", "e7"],
    );
    assert!(
        !status.success(),
        "repro exited {status} after a failed write"
    );
}

#[test]
fn an_unwritable_csv_series_fails_the_process() {
    let status = repro_with_blocked_path(
        "csv",
        "out/figure5.csv",
        &["--runs", "1", "--csv", "out", "fig5"],
    );
    assert!(
        !status.success(),
        "repro exited {status} after a failed write"
    );
}
