//! What the benchmark reads from the operating system (Linux `/proc`).

use std::process::Command;

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

pub fn rustc_version() -> String {
    output_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was run at, or `unknown` outside a git checkout.
pub fn commit() -> String {
    output_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}
