//! One repetition of a workload, run in a fresh process so the
//! simulator's process-wide memo and artifact caches start empty.
//!
//! A repetition prints `key value` lines on stdout for the parent to
//! aggregate: set-up and per-pass measurements, one `cell_ms` line
//! per freshly simulated cell, the correctness tally, the statistics
//! digest, simulated-time `model.*` values and, when traced, `layer.*`
//! values.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use seesaw_sim::runner::{fingerprint, session_journal, Plan};
use seesaw_sim::{RunConfig, RunResult, SimError, Store, StoredOutcome, SweepPolicy, System};

use crate::checks::{self, Tally};
use crate::grid::{first_per_workload, simulated_instructions, Cell, Workload, WORKER_THREADS};
use crate::host;
use crate::refspeed;
use crate::replay::{self, Artifacts, Counts};
use crate::spans::Spans;
use crate::stats::Fnv;

/// Scratch space inside the checkout for stores and span files.
pub const SCRATCH: &str = ".simbench";

/// Output of one repetition, printed as `key value` lines.
#[derive(Default)]
struct Out {
    lines: Vec<String>,
}

impl Out {
    fn put(&mut self, key: &str, value: impl std::fmt::Display) {
        self.lines.push(format!("{key} {value}"));
    }
}

/// One timed pass over a workload's grid.
struct Pass {
    wall_s: f64,
    /// Process CPU time (user + system) over the pass.
    cpu_s: f64,
    /// Core-instructions of the pass's freshly simulated cells.
    simulated: u64,
    /// Freshly simulated cells of the pass.
    cells: usize,
    /// Host speed over the pass ([`refspeed::host_speed`] of the mean of
    /// the kernel probes just before and just after it).
    speed: f64,
}

fn run_cell(cell: &Cell) -> Result<RunResult, SimError> {
    System::build(&cell.config).and_then(System::run)
}

/// A timed repetition. `spawned_ns` is when the parent launched this
/// process; `traced` records spans around every call into the simulator
/// and reports `layer.*` runner and store values.
pub fn timed(workload: Workload, seed: u64, spawned_ns: u128, traced: bool) {
    let mut out = Out::default();
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    let cells = workload.cells(seed);
    let scratch = PathBuf::from(SCRATCH).join(format!("rep-{}", std::process::id()));

    // Set-up: the store (sweep), the checker smoke runs, and for the
    // direct-call workloads a cold pass over one cell per workload that
    // fills the artifact caches; its digests are the cold half of the
    // cold-vs-warm check.
    let store = (workload == Workload::Sweep).then(|| {
        Arc::new(
            Store::open(scratch.join("store"))
                .expect("scratch store directory inside the checkout"),
        )
    });
    for cell in workload.checker_cells(seed) {
        let result = run_cell(&cell);
        if let Some(r) = tally.cell(&cell.label, &result) {
            tally.record(&cell.label, checks::checker_clean(r));
        }
    }
    let mut cold: HashMap<String, u64> = HashMap::new();
    if workload != Workload::Sweep {
        for cell in first_per_workload(&cells) {
            let result = run_cell(cell);
            if let Some(r) = tally.cell(&format!("cold/{}", cell.label), &result) {
                cold.insert(cell.label.clone(), checks::digest(r));
            }
        }
    }
    out.put(
        "setup_s",
        (host::unix_ns().saturating_sub(spawned_ns)) as f64 / 1e9,
    );

    // The timed section: one pass over the grid for `sweep`, `rounds()`
    // passes for `multicore-churn`, each timed on its own and bracketed by
    // host-speed probes (outside the pass timers).
    let mut kernel = refspeed::Kernel::new();
    let mut probe = kernel.probe_ms();
    out.put("setup_speed", refspeed::host_speed(probe));
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let mut cell_ms: Vec<f64> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut sweep_report = None;
    let outcomes: Vec<Result<RunResult, SimError>> = match workload {
        Workload::Sweep => {
            let mut plan = Plan::with_threads(WORKER_THREADS)
                .with_store(store.clone().expect("sweep opens a store"))
                .named("simbench-sweep")
                .without_status();
            for cell in &cells {
                plan.push(cell.label.clone(), cell.config.clone());
            }
            let report = plan.run_sweep(SweepPolicy::default());
            let outcomes = report.outcomes.clone();
            sweep_report = Some(report);
            outcomes
        }
        Workload::MulticoreChurn => {
            let mut all = Vec::with_capacity(cells.len() * workload.rounds());
            for round in 0..workload.rounds() {
                let (pass_cpu, pass_started) = (host::cpu_seconds(), Instant::now());
                let mut simulated = 0u64;
                let first_cell = cell_ms.len();
                for (i, cell) in cells.iter().enumerate() {
                    let id = (round * cells.len() + i) as u32;
                    let t = Instant::now();
                    let built = if traced {
                        spans.time("sim.build", None, id, || System::build(&cell.config))
                    } else {
                        System::build(&cell.config)
                    };
                    let result = built.and_then(|s| {
                        if traced {
                            spans.time("sim.run", None, id, || s.run())
                        } else {
                            s.run()
                        }
                    });
                    cell_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    if result.is_ok() {
                        simulated += simulated_instructions(&cell.config);
                    }
                    all.push(result);
                }
                let (wall_s, cpu_s) = (
                    pass_started.elapsed().as_secs_f64(),
                    host::cpu_seconds() - pass_cpu,
                );
                let after = kernel.probe_ms();
                passes.push(Pass {
                    wall_s,
                    cpu_s,
                    simulated,
                    cells: cell_ms.len() - first_cell,
                    speed: refspeed::host_speed((probe + after) / 2.0),
                });
                probe = after;
            }
            all
        }
    };
    let wall = started.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds() - cpu_before;

    // Per-cell host time of the sweep: the runner's own journal.
    if let Some(report) = &sweep_report {
        let by_label: HashMap<&str, &RunConfig> = cells
            .iter()
            .map(|c| (c.label.as_str(), &c.config))
            .collect();
        let journal = session_journal();
        let mut simulated = 0u64;
        for (i, rec) in journal.iter().enumerate().filter(|(_, r)| !r.memo_hit) {
            cell_ms.push(rec.dur_us as f64 / 1e3);
            simulated += simulated_instructions(by_label[rec.label.as_str()]);
            if traced {
                spans.add_us("runner.cell", None, i as u32, rec.start_us, rec.dur_us);
            }
        }
        if traced {
            runner_layers(&mut out, report, &journal, wall);
        }
        passes.push(Pass {
            wall_s: wall,
            cpu_s: cpu,
            simulated,
            cells: cell_ms.len(),
            speed: refspeed::host_speed((probe + kernel.probe_ms()) / 2.0),
        });
    }
    let mut cell_ms = cell_ms.iter();
    for pass in &passes {
        out.put("pass_wall_s", pass.wall_s);
        out.put("pass_cpu_s", pass.cpu_s);
        out.put("pass_minstr", pass.simulated as f64 / 1e6);
        out.put("pass_speed", pass.speed);
        for ms in cell_ms.by_ref().take(pass.cells) {
            out.put("cell_ms", ms);
            out.put("cell_speed", pass.speed);
        }
    }

    // Correctness, untimed. Later rounds repeat the first bit for bit.
    let (outcomes, repeats) = outcomes.split_at(cells.len());
    for (k, again) in repeats.iter().enumerate() {
        let (cell, first) = (&cells[k % cells.len()], &outcomes[k % cells.len()]);
        if let (Ok(a), Some(b)) = (first, tally.cell(&cell.label, again)) {
            tally.record(
                &format!("repeat/{}", cell.label),
                checks::same_digest(checks::digest(a), checks::digest(b)),
            );
        }
    }
    let mut digest = Fnv::default();
    let results: Vec<Option<&RunResult>> = cells
        .iter()
        .zip(outcomes)
        .map(|(c, o)| tally.cell(&c.label, o))
        .collect();
    for (cell, result) in cells.iter().zip(&results) {
        if let Some(r) = result {
            digest.u64(checks::digest(r));
            tally.record(
                &format!("budget/{}", cell.label),
                checks::budget_met(&cell.config, r),
            );
        }
    }
    for (pair, res) in cells.chunks(2).zip(results.chunks(2)) {
        if let [Some(base), Some(seesaw)] = res {
            tally.record(
                &format!("ways/{}", pair[1].label),
                checks::seesaw_reads_fewer_ways(base, seesaw),
            );
        }
    }
    let index: HashMap<&str, usize> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.label.as_str(), i))
        .collect();
    if workload == Workload::Sweep {
        // Cold-vs-warm: re-run one cell per workload directly, now that
        // the artifact caches are warm.
        for cell in first_per_workload(&cells) {
            let again = run_cell(cell);
            if let (Some(first), Some(second)) = (
                results[index[cell.label.as_str()]],
                tally.cell(&cell.label, &again),
            ) {
                tally.record(
                    &format!("cold-warm/{}", cell.label),
                    checks::same_digest(checks::digest(first), checks::digest(second)),
                );
            }
        }
        let store_dir = scratch.join("store");
        store_round_trip(
            &mut out, &mut tally, &mut spans, &cells, &results, &store_dir, &scratch, traced,
        );
    } else {
        for (label, cold_digest) in &cold {
            if let Some(r) = results[index[label.as_str()]] {
                tally.record(
                    &format!("cold-warm/{label}"),
                    checks::same_digest(*cold_digest, checks::digest(r)),
                );
            }
        }
    }
    model_values(&mut out, &results);
    out.put("digest", format!("{:016x}", digest.finish()));
    out.put("peak_rss_mb", host::peak_rss_mb());
    out.put("attempted", tally.attempted);
    out.put("failed", tally.failed);
    for f in &tally.failures {
        out.put("failure", f);
    }
    if traced {
        write_spans(
            &spans,
            &format!(
                "{}-seed{seed}-timed-{}",
                workload.name(),
                std::process::id()
            ),
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{}", out.lines.join("\n"));
}

/// Runner layer values of a traced sweep: cells, fresh cells, memo hits,
/// worker busy share and the straggler tail.
fn runner_layers(
    out: &mut Out,
    report: &seesaw_sim::SweepReport,
    journal: &[seesaw_sim::CellRecord],
    wall: f64,
) {
    let fresh: Vec<_> = journal.iter().filter(|r| !r.memo_hit).collect();
    let busy_us: u64 = fresh.iter().map(|r| r.dur_us).sum();
    // Tail: from the first worker's last finish to the last worker's.
    let mut last_end: HashMap<usize, u64> = HashMap::new();
    for r in &fresh {
        let e = last_end.entry(r.worker).or_default();
        *e = (*e).max(r.start_us + r.dur_us);
    }
    let tail_us = match (last_end.values().min(), last_end.values().max()) {
        (Some(lo), Some(hi)) if last_end.len() == report.threads => hi - lo,
        _ => 0,
    };
    out.put("layer.runner.cells", journal.len());
    out.put("layer.runner.fresh_cells", fresh.len());
    out.put("layer.runner.memo_hits", report.memo.hits);
    out.put(
        "layer.runner.busy_share",
        busy_us as f64 / 1e6 / (report.threads as f64 * wall),
    );
    out.put("layer.runner.tail_ms", tail_us as f64 / 1e3);
    out.put("layer.store.writes", report.store.map_or(0, |s| s.writes));
}

/// Re-reads every written record through a fresh store handle and checks
/// it decodes to the in-memory statistics; when traced, also times
/// `put_result` of every record into a second scratch store.
#[allow(clippy::too_many_arguments)]
fn store_round_trip(
    out: &mut Out,
    tally: &mut Tally,
    spans: &mut Spans,
    cells: &[Cell],
    results: &[Option<&RunResult>],
    store_dir: &Path,
    scratch: &Path,
    traced: bool,
) {
    let reopened = Store::open(store_dir).expect("the sweep's store directory exists");
    let mut seen = std::collections::HashSet::new();
    let unique: Vec<(String, &RunResult)> = cells
        .iter()
        .zip(results)
        .filter_map(|(c, r)| r.map(|r| (fingerprint(&c.config), r)))
        .filter(|(fp, _)| seen.insert(fp.clone()))
        .collect();
    let get = spans.open("store.get", None, 0);
    let t = Instant::now();
    let mut hits = 0;
    for (fp, expected) in &unique {
        let stored = reopened.get(fp);
        hits += u64::from(matches!(stored, Some(StoredOutcome::Result(_))));
        let verdict = checks::stored_matches(stored, expected);
        tally.record(
            &format!("store/{}", &seesaw_sim::store::digest(fp)[..8]),
            verdict,
        );
    }
    let get_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.close(get, hits);
    if !traced {
        return;
    }
    let records: Vec<u64> = std::fs::read_dir(store_dir)
        .map(|d| {
            d.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("r-"))
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .collect()
        })
        .unwrap_or_default();
    let scratch_store =
        Store::open(scratch.join("put")).expect("scratch store directory inside the checkout");
    let put = spans.open("store.put", None, 0);
    let t = Instant::now();
    for (fp, r) in &unique {
        scratch_store.put_result(fp, r);
    }
    let put_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.close(put, unique.len() as u64);
    out.put("layer.store.hits", hits);
    out.put("layer.store.get_ms", get_ms);
    out.put("layer.store.put_ms", put_ms);
    out.put(
        "layer.store.bytes_per_record",
        records.iter().sum::<u64>() as f64 / records.len().max(1) as f64,
    );
}

/// Simulated-time summary: mean IPC, and over baseline/SEESAW pairs the
/// mean SEESAW speed-up, L1 dynamic-energy saving and superpage share.
fn model_values(out: &mut Out, results: &[Option<&RunResult>]) {
    let ok: Vec<&RunResult> = results.iter().flatten().copied().collect();
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let l1_nj = |r: &RunResult| r.energy.l1_cpu_nj + r.energy.l1_coherence_nj + r.energy.l1_fill_nj;
    let pairs: Vec<(&RunResult, &RunResult)> = results
        .chunks(2)
        .filter_map(|p| match p {
            [Some(b), Some(s)] => Some((*b, *s)),
            _ => None,
        })
        .collect();
    out.put(
        "model.ipc",
        mean(ok.iter().map(|r| r.totals.ipc()).collect()),
    );
    out.put(
        "model.seesaw_speedup_pct",
        mean(
            pairs
                .iter()
                .map(|(b, s)| s.runtime_improvement_pct(b))
                .collect(),
        ),
    );
    out.put(
        "model.l1_energy_saving_pct",
        mean(
            pairs
                .iter()
                .map(|(b, s)| 100.0 * (1.0 - l1_nj(s) / l1_nj(b)))
                .collect(),
        ),
    );
    out.put(
        "model.superpage_ref_fraction",
        mean(ok.iter().map(|r| r.superpage_ref_fraction).collect()),
    );
}

/// Writes the recorded spans as a Chrome trace under the scratch
/// directory.
fn write_spans(spans: &Spans, name: &str) {
    let dir = Path::new(SCRATCH).join("spans");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{name}.json")), spans.chrome_trace(name)));
    if let Err(e) = written {
        eprintln!("simbench: cannot write spans: {e}");
    }
}

/// The cells whose configurations the replay repetition replays: the
/// 32 KB cells of each grid (every catalog workload's pair in `sweep`).
fn replayed(cells: Vec<Cell>) -> Vec<Cell> {
    cells
        .into_iter()
        .filter(|c| c.config.l1_size_kb == 32)
        .collect()
}

/// The replay repetition: for each replayed configuration, a cold and a
/// warm `System::build` + `System::run`, then the staged replay; prints
/// every replay-derived `layer.*` value.
pub fn replay_rep(workload: Workload, seed: u64) {
    let mut spans = Spans::default();
    let mut artifacts = Artifacts::default();
    let mut total = Counts::default();
    let (mut coverage, mut cells_n) = (0.0, 0u64);
    for (i, cell) in replayed(workload.cells(seed)).into_iter().enumerate() {
        // Grids keep each workload's cells together; drop the previous
        // workload's artifacts to bound memory.
        if !artifacts.holds(cell.config.workload.name) {
            artifacts = Artifacts::default();
        }
        let cell_id = i as u32;
        let timed_pair = |spans: &mut Spans, build: &'static str, run: &'static str| {
            let s = spans
                .time(build, None, cell_id, || System::build(&cell.config))
                .expect("benchmark cells build");
            black_box(
                spans
                    .time(run, None, cell_id, || s.run())
                    .expect("benchmark cells run"),
            );
        };
        timed_pair(&mut spans, "sim.cold_build", "sim.cold_run");
        timed_pair(&mut spans, "sim.build", "sim.run");
        let root = spans.open("replay", None, cell_id);
        let c = replay::replay(&cell.config, &mut artifacts, &mut spans, root, cell_id);
        spans.close(root, 1);
        coverage += c.superpage_coverage;
        cells_n += 1;
        total.absorb(&c);
    }
    let ms = |name: &str| spans.by_name(name).0 as f64 / 1e6;
    let per = |ns_name: &str, n: u64| {
        if n == 0 {
            0.0
        } else {
            spans.by_name(ns_name).0 as f64 / n as f64
        }
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut out = Out::default();
    out.put("layer.workloads.refs", total.refs_generated);
    out.put("layer.workloads.busy_ms", ms("workloads.generate"));
    out.put(
        "layer.workloads.ns_per_ref",
        per("workloads.generate", total.refs_generated),
    );
    out.put("layer.mem.image_builds", total.image_builds);
    out.put("layer.mem.image_build_ms", ms("mem.image"));
    out.put(
        "layer.mem.superpage_coverage",
        coverage / cells_n.max(1) as f64,
    );
    out.put("layer.mem.demotions", total.demotions);
    out.put("layer.tlb.lookups", total.tlb_lookups);
    out.put("layer.tlb.busy_ms", ms("tlb.lookup"));
    out.put(
        "layer.tlb.ns_per_lookup",
        per("tlb.lookup", total.tlb_lookups),
    );
    out.put(
        "layer.tlb.l1_hit_rate",
        ratio(total.tlb_l1_hits, total.tlb_lookups),
    );
    out.put(
        "layer.tlb.walks_per_kref",
        1e3 * ratio(total.walks, total.tlb_lookups),
    );
    out.put("layer.core.l1_accesses", total.l1_accesses);
    out.put("layer.core.busy_ms", ms("core.l1"));
    out.put(
        "layer.core.ns_per_access",
        per("core.l1", total.l1_accesses),
    );
    out.put(
        "layer.core.l1_hit_rate",
        ratio(total.l1_hits, total.l1_accesses),
    );
    out.put(
        "layer.core.ways_per_access",
        ratio(total.ways_probed, total.l1_accesses),
    );
    out.put(
        "layer.core.tft_hit_rate",
        ratio(total.tft_hits, total.tft_lookups),
    );
    out.put("layer.core.probes", total.probes);
    out.put(
        "layer.core.ns_per_probe",
        per("core.probe_batch", total.probes),
    );
    out.put("layer.cache.outer_accesses", total.outer_accesses);
    out.put("layer.cache.busy_ms", ms("cache.outer"));
    out.put(
        "layer.cache.ns_per_access",
        per("cache.outer", total.outer_accesses),
    );
    out.put(
        "layer.cache.l2_hit_rate",
        ratio(total.l2_hits, total.l2_lookups),
    );
    out.put("layer.cache.prewarm_ms", ms("cache.prewarm"));
    out.put("layer.cache.outer_clone_ms", ms("cache.outer_clone"));
    out.put("layer.coherence.transactions", total.transactions);
    out.put(
        "layer.coherence.busy_ms",
        ms("coherence.directory") + ms("coherence.synthetic"),
    );
    out.put(
        "layer.coherence.ns_per_txn",
        per("coherence.directory", total.transactions),
    );
    out.put(
        "layer.coherence.probes_per_txn",
        ratio(total.directory_probes, total.transactions),
    );
    out.put("layer.cpu.retires", total.retires);
    out.put("layer.cpu.busy_ms", ms("cpu.retire"));
    out.put("layer.cpu.ns_per_retire", per("cpu.retire", total.retires));
    out.put("layer.energy.busy_ms", ms("energy.account"));
    let per_cell = |name: &str| ms(name) / cells_n.max(1) as f64;
    out.put("layer.sim.build_ms", per_cell("sim.build"));
    out.put("layer.sim.run_ms", per_cell("sim.run"));
    out.put("layer.sim.cold_run_ms", per_cell("sim.cold_run"));
    // Stages the cold `System::run` itself performs: everything but the
    // image build (done by `System::build`) and the probe batch (extra).
    let in_run: f64 = [
        "workloads.generate",
        "tlb.lookup",
        "coherence.directory",
        "coherence.synthetic",
        "core.l1",
        "cache.prewarm",
        "cache.outer_clone",
        "cache.outer",
        "cpu.retire",
        "energy.account",
    ]
    .iter()
    .map(|s| ms(s))
    .sum();
    out.put(
        "layer.sim.unattributed_share",
        1.0 - in_run / ms("sim.cold_run").max(f64::MIN_POSITIVE),
    );
    write_spans(
        &spans,
        &format!(
            "{}-seed{seed}-replay-{}",
            workload.name(),
            std::process::id()
        ),
    );
    println!("{}", out.lines.join("\n"));
}
