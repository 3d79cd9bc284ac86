//! Host-side readings: process CPU time, peak resident set, core count.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, all threads) in seconds.
pub fn cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        let field = fields.next().expect("stat has utime and stime");
        field.parse().expect("tick counts are integers")
    };
    (ticks() + ticks()) / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("status reports VmHWM");
    let kb: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a kB count");
    kb / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
