//! Host fingerprint, provenance and process memory.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::util::Digest;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's git revision, when the working directory is itself a
/// git checkout (the search never climbs into an enclosing repository).
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// Digest of every `.rs` file under `crates/`, in path order: identifies
/// the code under test where no git revision is available.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut d = Digest::new();
    for f in &files {
        d.eat(f.to_string_lossy().as_bytes());
        d.eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{}:{}", files.len(), d.hex())
}

/// `key = value` provenance lines printed with every result.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<(String, String)> {
    vec![
        ("workload".into(), workload.into()),
        (
            "seed".into(),
            format!("{seed} ({})", crate::seed_role(seed)),
        ),
        ("run_seconds".into(), seconds.to_string()),
        ("trace".into(), u8::from(trace).to_string()),
        ("nproc".into(), nproc().to_string()),
        ("arch".into(), std::env::consts::ARCH.into()),
        ("os".into(), std::env::consts::OS.into()),
        ("cpu".into(), cpu_model()),
        ("rustc".into(), env!("PERFBENCH_RUSTC").into()),
        ("git_rev".into(), git_rev()),
        ("source_digest".into(), source_digest()),
    ]
}

/// Host-wide `(total, steal)` CPU jiffies from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cols: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|c| c.parse().ok())
        .collect();
    Some((cols.iter().sum(), *cols.get(7)?))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings: a run taken while it is high is disturbed.
pub fn steal_frac(start: Option<(u64, u64)>) -> String {
    match (start, cpu_jiffies()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
