//! What the report stamp and `peak_rss_mb` need beyond
//! `ssa_bench::host`: the checked-out commit and the process's peak RSS.

use std::path::Path;

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a repository (the acceptance
/// driver runs the benchmark from an exported tree).
pub fn commit() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|hash| hash.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// `VmHWM` of this process in MiB: the most memory it ever had resident.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
