//! Host-side measurements (`/proc/self`) and the metadata every result
//! record carries, with the rule that decides which records compare.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds since the Unix epoch (the clock the parent and its
/// children share for set-up time).
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `none` outside a git work tree.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|s| s.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Metadata of one result record, as ordered `(key, value)` pairs.
pub fn metadata(
    workload: &str,
    threads: usize,
    budget: u64,
    seed: u64,
    trace: bool,
) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    [
        ("workload", workload.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        ("worker_threads", threads.to_string()),
        ("git_sha", git_sha(Path::new("."))),
        ("rustc", rustc_version()),
        ("budget", budget.to_string()),
        ("seed", seed.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// A result record: metadata plus `(name, value, unit)` metrics.
#[derive(Debug, Default, PartialEq)]
pub struct Record {
    /// Ordered metadata.
    pub meta: Vec<(String, String)>,
    /// Ordered metrics.
    pub metrics: Vec<(String, f64, String)>,
}

impl Record {
    /// Tab-separated text, one `meta` or `metric` line per entry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.meta {
            let _ = writeln!(out, "meta\t{k}\t{v}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric\t{name}\t{value}\t{unit}");
        }
        out
    }

    /// Inverse of [`Record::render`].
    pub fn parse(text: &str) -> Result<Record, String> {
        let mut r = Record::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["meta", k, v] => r.meta.push((k.to_string(), v.to_string())),
                ["metric", name, value, unit] => {
                    let value = value
                        .parse()
                        .map_err(|_| format!("bad value in {line:?}"))?;
                    r.metrics.push((name.to_string(), value, unit.to_string()));
                }
                _ => return Err(format!("malformed record line {line:?}")),
            }
        }
        Ok(r)
    }
}

/// Records compare only when they were measured the same way: every
/// metadata entry but `git_sha` (the code under comparison) must match.
pub fn comparable(a: &Record, b: &Record) -> Result<(), String> {
    let get = |r: &Record, k: &str| {
        r.meta
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
    };
    let keys: std::collections::BTreeSet<&str> = a
        .meta
        .iter()
        .chain(&b.meta)
        .map(|(k, _)| k.as_str())
        .collect();
    let differing: Vec<String> = keys
        .into_iter()
        .filter(|&k| k != "git_sha" && get(a, k) != get(b, k))
        .map(|k| format!("{k}: {:?} vs {:?}", get(a, k), get(b, k)))
        .collect();
    if differing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "records measured differently ({})",
            differing.join("; ")
        ))
    }
}

/// A per-metric comparison of two comparable records.
pub fn compare(a: &Record, b: &Record) -> Result<String, String> {
    comparable(a, b)?;
    let mut out = String::new();
    for (name, va, unit) in &a.metrics {
        if let Some((_, vb, _)) = b.metrics.iter().find(|(n, _, _)| n == name) {
            let change = if *va == 0.0 {
                0.0
            } else {
                (vb - va) / va * 100.0
            };
            let _ = writeln!(
                out,
                "{name:<28} {va:>14.4} -> {vb:>14.4} {unit:<9} {change:+7.2}%"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(threads: &str, sha: &str) -> Record {
        Record {
            meta: vec![
                ("worker_threads".into(), threads.into()),
                ("git_sha".into(), sha.into()),
            ],
            metrics: vec![("wall_s".into(), 2.0, "s".into())],
        }
    }

    #[test]
    fn records_round_trip_through_text() {
        let r = record("2", "abc");
        assert_eq!(Record::parse(&r.render()).unwrap(), r);
        assert!(Record::parse("metric\twall_s\tnot-a-number\ts").is_err());
    }

    #[test]
    fn only_the_commit_may_differ() {
        assert!(compare(&record("2", "a"), &record("2", "b")).is_ok());
        let err = compare(&record("1", "a"), &record("2", "a")).unwrap_err();
        assert!(err.contains("worker_threads"), "{err}");
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 60 {}
        assert!(cpu_seconds() > 0.0);
    }
}
