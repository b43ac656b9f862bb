//! The simulator benchmark.
//!
//! ```text
//! simbench --workload <sweep|multicore-churn|all> --seed <n>
//!          --seconds <s> --trace <0|1> [--record <file>]
//! simbench --compare <record-a> <record-b>
//! ```
//!
//! Each run spawns repetitions of the workload as fresh child processes
//! (the simulator's memo and artifact caches are process-global) one
//! after another until `--seconds` have passed, and reports medians
//! across repetitions and across the timed passes over the grid they make. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
//! one staged-replay repetition plus untraced/traced pairs and prints the
//! per-layer metrics. A human-readable report goes to stderr; the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See README.md beside this file.

mod checks;
mod child;
mod grid;
mod host;
mod metrics;
mod refspeed;
mod replay;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use grid::Workload;
use host::Record;
use metrics::{Metric, END_TO_END, MODEL, PER_LAYER};

/// Repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Repetitions a run makes at most.
const MAX_REPS: usize = 40;

/// What the command line asked for.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
    compare: Option<(String, String)>,
    /// Internal: run one repetition (`timed`, `traced` or `replay`).
    child: Option<String>,
    spawned_ns: u128,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: None,
        compare: None,
        child: None,
        spawned_ns: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--record" => a.record = Some(value()?),
            "--compare" => {
                let first = value()?;
                a.compare = Some((first, value()?));
            }
            "--child" => a.child = Some(value()?),
            "--spawned-ns" => {
                a.spawned_ns = value()?
                    .parse()
                    .map_err(|_| "--spawned-ns takes an integer")?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// One finished repetition: its `key value` lines, grouped by key.
#[derive(Default)]
struct Rep {
    values: BTreeMap<String, Vec<String>>,
}

impl Rep {
    fn parse(stdout: &str) -> Rep {
        let mut rep = Rep::default();
        for line in stdout.lines() {
            if let Some((k, v)) = line.split_once(' ') {
                rep.values
                    .entry(k.to_string())
                    .or_default()
                    .push(v.to_string());
            }
        }
        rep
    }

    fn nums(&self, key: &str) -> Vec<f64> {
        self.values.get(key).map_or_else(Vec::new, |v| {
            v.iter().filter_map(|s| s.parse().ok()).collect()
        })
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.nums(key).first().copied()
    }

    fn text(&self, key: &str) -> Vec<String> {
        self.values.get(key).cloned().unwrap_or_default()
    }
}

/// Runs one repetition of `workload` in a fresh process.
fn spawn(kind: &str, workload: Workload, seed: u64) -> Result<Rep, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--child",
            kind,
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args(["--spawned-ns", &host::unix_ns().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{kind} repetition of {} exited with {}",
            workload.name(),
            output.status
        ));
    }
    Ok(Rep::parse(&String::from_utf8_lossy(&output.stdout)))
}

/// Aggregated outcome of a run.
struct RunOutcome {
    metrics: Vec<(&'static Metric, f64)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    model: Vec<(&'static str, f64)>,
}

/// Sums the correctness tallies of `reps`, and counts one more check per
/// repetition: every repetition of a seed yields the same digest.
fn tally(reps: &[&Rep], notes: &mut Vec<String>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for r in reps {
        attempted += r.num("attempted").unwrap_or(0.0) as u64;
        failed += r.num("failed").unwrap_or(0.0) as u64;
        for f in r.text("failure") {
            notes.push(format!("FAILED {f}"));
        }
    }
    let digests: Vec<String> = reps.iter().flat_map(|r| r.text("digest")).collect();
    for d in &digests {
        attempted += 1;
        if *d != digests[0] {
            failed += 1;
            notes.push(format!(
                "FAILED repetitions disagree: digest {d} vs {}",
                digests[0]
            ));
        }
    }
    if let Some(d) = digests.first() {
        notes.push(format!(
            "statistics digest {d} (over every timed cell's metrics registry)"
        ));
    }
    (attempted, failed)
}

fn model_medians(reps: &[&Rep]) -> Vec<(&'static str, f64)> {
    MODEL
        .iter()
        .map(|&k| {
            (
                k,
                stats::median(&reps.iter().filter_map(|r| r.num(k)).collect::<Vec<_>>()),
            )
        })
        .collect()
}

fn median_of(reps: &[&Rep], key: &str) -> f64 {
    stats::median(&reps.iter().filter_map(|r| r.num(key)).collect::<Vec<_>>())
}

/// Every `key` value of every repetition, in order.
fn pooled(reps: &[&Rep], key: &str) -> Vec<f64> {
    reps.iter().flat_map(|r| r.nums(key)).collect()
}

/// Every `key` time of every repetition at the reference host speed:
/// each times its `speed_key` value (the lines pair up in order).
fn scaled(reps: &[&Rep], key: &str, speed_key: &str) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| {
            let (times, speeds) = (r.nums(key), r.nums(speed_key));
            assert_eq!(times.len(), speeds.len(), "{key} lines without {speed_key}");
            times.into_iter().zip(speeds).map(|(t, s)| t * s)
        })
        .collect()
}

/// Whether a run that started at `started` and has made `done` equal
/// steps should make another: at least `min`, at most `max`, and none
/// that the mean step so far says would end after `seconds`.
fn another(started: Instant, seconds: f64, done: usize, min: usize, max: usize) -> bool {
    if done < min {
        return true;
    }
    let elapsed = started.elapsed().as_secs_f64();
    done < max && elapsed + elapsed / done as f64 <= seconds
}

/// The end-to-end run: repetitions until `seconds` have passed.
fn run_end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<RunOutcome, String> {
    let started = Instant::now();
    let mut reps = Vec::new();
    while another(started, seconds, reps.len(), MIN_REPS, MAX_REPS) {
        reps.push(spawn("timed", workload, seed)?);
    }
    let reps: Vec<&Rep> = reps.iter().collect();
    let mut notes = Vec::new();
    let (attempted, failed) = tally(&reps, &mut notes);
    let cells = scaled(&reps, "cell_ms", "cell_speed");
    let p50 = stats::median(&cells);
    let p90 = match stats::tail_percentile(&cells, 90.0) {
        Some((p, v)) => {
            notes.push(format!(
                "cell_ms_p50/p90 over {} freshly simulated cells; tail reported at p{p}",
                cells.len()
            ));
            v
        }
        None => {
            notes.push(format!(
                "cell_ms_p90: only {} cells, no percentile has 10 beyond it; reporting the maximum",
                cells.len()
            ));
            cells.iter().copied().fold(0.0, f64::max)
        }
    };
    let (walls, cpus) = (
        scaled(&reps, "pass_wall_s", "pass_speed"),
        scaled(&reps, "pass_cpu_s", "pass_speed"),
    );
    let rate: Vec<f64> = pooled(&reps, "pass_minstr")
        .iter()
        .zip(&walls)
        .map(|(minstr, wall)| minstr / wall)
        .collect();
    let setups = scaled(&reps, "setup_s", "setup_speed");
    notes.push(format!(
        "{} repetitions, each a fresh process, with {} timed passes over the grid; \
         setup_s and peak_rss_mb are medians across repetitions, the pass metrics medians across passes",
        reps.len(),
        walls.len()
    ));
    notes.push(format!(
        "times at the reference host speed; host speed over the passes: median {:.4} \
         (measured: wall_s {:.4} s, host_cpu_s {:.4} s, setup_s {:.4} s, cell_ms_p50 {:.4} ms)",
        stats::median(&pooled(&reps, "pass_speed")),
        stats::median(&pooled(&reps, "pass_wall_s")),
        stats::median(&pooled(&reps, "pass_cpu_s")),
        median_of(&reps, "setup_s"),
        stats::median(&pooled(&reps, "cell_ms")),
    ));
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => stats::median(&setups),
            "peak_rss_mb" => median_of(&reps, name),
            "wall_s" => stats::median(&walls),
            "host_cpu_s" => stats::median(&cpus),
            "sim_minstr_per_s" => stats::median(&rate),
            "cell_ms_p50" => p50,
            "cell_ms_p90" => p90,
            "ok_share" => 1.0 - failed as f64 / attempted.max(1) as f64,
            other => unreachable!("unmapped end-to-end metric {other}"),
        }
    };
    Ok(RunOutcome {
        metrics: END_TO_END.iter().map(|m| (m, value(m.name))).collect(),
        attempted,
        failed,
        notes,
        model: model_medians(&reps),
    })
}

/// The traced run: one staged-replay repetition, then untraced/traced
/// pairs until `seconds` have passed.
fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<RunOutcome, String> {
    let run_started = Instant::now();
    let replay = spawn("replay", workload, seed)?;
    let remaining = seconds - run_started.elapsed().as_secs_f64();
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while another(started, remaining, plain.len(), 1, MAX_REPS / 2) {
        plain.push(spawn("timed", workload, seed)?);
        traced.push(spawn("traced", workload, seed)?);
    }
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let traced: Vec<&Rep> = traced.iter().collect();
    let plain: Vec<&Rep> = plain.iter().collect();
    let mut notes = Vec::new();
    let (attempted, failed) = tally(&all, &mut notes);
    let pass_wall = |reps: &[&Rep]| stats::median(&scaled(reps, "pass_wall_s", "pass_speed"));
    let (wall_plain, wall_traced) = (pass_wall(&plain), pass_wall(&traced));
    notes.push(format!(
        "{} untraced/traced pairs: wall_s {wall_plain:.4} s untraced, {wall_traced:.4} s traced; spans under {}/spans",
        plain.len(),
        child::SCRATCH
    ));
    let value = |name: &str| -> f64 {
        if name == "trace_overhead_share" {
            return (wall_traced - wall_plain) / wall_plain;
        }
        let key = format!("layer.{name}");
        replay.num(&key).unwrap_or_else(|| median_of(&traced, &key))
    };
    Ok(RunOutcome {
        metrics: PER_LAYER.iter().map(|m| (m, value(m.name))).collect(),
        attempted,
        failed,
        notes,
        model: model_medians(&all),
    })
}

/// The driver's contract line: one JSON object.
fn json_line(o: &RunOutcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn report(workload: Workload, meta: &[(String, String)], o: &RunOutcome) {
    eprintln!("== simbench {} ==", workload.name());
    let meta: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    eprintln!("   host: {}", meta.join(", "));
    for (m, v) in &o.metrics {
        eprintln!(
            "   {:<28} {:>14.4} {:<9} ({} is better)",
            m.name, v, m.unit, m.better
        );
    }
    for (k, v) in &o.model {
        eprintln!("   {k:<28} {v:>14.4} (simulated time; informational)");
    }
    for n in &o.notes {
        eprintln!("   {n}");
    }
    let verdict = if o.failed == 0 {
        "correct"
    } else {
        "INCORRECT"
    };
    eprintln!(
        "   verdict: {verdict}: {} of {} operations failed (failed_share {:.4})",
        o.failed,
        o.attempted,
        o.failed as f64 / o.attempted.max(1) as f64
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        let read = |p: &str| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| Record::parse(&t))
        };
        return match read(a).and_then(|ra| host::compare(&ra, &read(b)?)) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("simbench: refusing to compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::parse(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!(
                    "simbench: unknown workload {:?} (sweep, multicore-churn, all)",
                    args.workload
                );
                return ExitCode::from(2);
            }
        }
    };
    if let Some(kind) = &args.child {
        let w = workloads[0];
        match kind.as_str() {
            "timed" => child::timed(w, args.seed, args.spawned_ns, false),
            "traced" => child::timed(w, args.seed, args.spawned_ns, true),
            "replay" => child::replay_rep(w, args.seed),
            other => {
                eprintln!("simbench: unknown repetition kind {other}");
                return ExitCode::from(2);
            }
        }
        return ExitCode::SUCCESS;
    }
    let mut lines = Vec::new();
    for w in workloads {
        let outcome = if args.trace {
            run_traced(w, args.seed, args.seconds)
        } else {
            run_end_to_end(w, args.seed, args.seconds)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("simbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let meta = host::metadata(
            w.name(),
            grid::WORKER_THREADS,
            w.budget(),
            args.seed,
            args.trace,
        );
        report(w, &meta, &outcome);
        if let Some(path) = &args.record {
            let path = if args.workload == "all" {
                format!("{path}.{}", w.name())
            } else {
                path.clone()
            };
            let record = Record {
                meta,
                metrics: outcome
                    .metrics
                    .iter()
                    .map(|(m, v)| (m.name.to_string(), *v, m.unit.to_string()))
                    .collect(),
            };
            if let Err(e) = std::fs::write(&path, record.render()) {
                eprintln!("simbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        lines.push(json_line(&outcome));
    }
    let _ = std::fs::remove_dir(child::SCRATCH);
    println!("{}", lines.join("\n"));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_with_different_digests_fail() {
        let rep = |digest: &str| Rep::parse(&format!("attempted 5\nfailed 0\ndigest {digest}"));
        let (a, b) = (rep("00aa"), rep("00bb"));
        let mut notes = Vec::new();
        assert_eq!(tally(&[&a, &a], &mut notes), (12, 0));
        assert_eq!(tally(&[&a, &b], &mut notes), (12, 1));
    }
}
