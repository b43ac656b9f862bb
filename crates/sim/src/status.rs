//! Live sweep status: heartbeat plumbing, the shared cell board, and
//! the atomic `status.json` writer.
//!
//! This is the consumer side of `seesaw_trace::ops`. The pieces:
//!
//! * [`Progress`] — the hot loop's heartbeat probe, monomorphized
//!   exactly like the event `Sink`: `System::run` is generic over
//!   `P: Progress`, [`NoProgress`] carries `ENABLED = false` so every
//!   publication site compiles away, and [`ActiveProgress`] batches
//!   retired-instruction deltas into the cell's shared
//!   [`CellProgress`] atomics (one relaxed `fetch_add` per ~64k
//!   instructions, nothing per reference).
//! * A thread-local hand-off ([`set_cell_progress`] /
//!   [`current_cell_progress`]): the supervised cell thread installs
//!   its heartbeat before building the system, `System::run` picks it
//!   up without a signature change rippling through every caller.
//!   Each *attempt* gets a fresh [`CellProgress`], so a watchdog-killed
//!   thread that is still running keeps writing into an Arc nobody
//!   reads anymore — leaked threads cannot corrupt live status.
//! * [`StatusBoard`] — the shared table of one sweep's cells: lifecycle
//!   state ([`CellState`]), attempt/retry counts, per-cell heartbeats,
//!   and a bounded log of recent transitions. The runner's workers
//!   update it; readers render it.
//! * [`StatusWriter`] — a background thread that renders the board to
//!   `status.json` every `SEESAW_STATUS_INTERVAL_MS` (default 200 ms)
//!   using the store's tmp+`rename` idiom, so the file is *always* a
//!   complete, valid JSON document no matter when a poller reads it.
//!   `watch -n1 cat status.json`, the `seesaw-status` CLI, or a future
//!   HTTP front-end can all tail it.
//! * [`OpsSummary`] — the one structured emitter for the end-of-sweep
//!   `[memo]` / `[store]` / `[supervisor]` stderr lines the bench
//!   binaries used to format by hand (and `scripts/bench.sh` scrapes).
//!
//! Enable with `SEESAW_STATUS=<dir>` (empty value: `target/status`), or
//! explicitly per plan with `Plan::with_status`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use seesaw_trace::json::escape;
use seesaw_trace::ops::{CellPhase, CellProgress, CellState, OpsSweepStats};

use crate::runner::{MemoStats, SupervisorStats};
use crate::store::StoreStats;

// ---------------------------------------------------------------------------
// The hot-loop probe.
// ---------------------------------------------------------------------------

/// The heartbeat probe the simulation hot loop is generic over. Mirrors
/// the event `Sink` contract: every publication site is guarded by
/// `if P::ENABLED`, a compile-time constant, so the disabled
/// instantiation carries no heartbeat code at all.
pub trait Progress {
    /// Compile-time enable flag (see the trait docs).
    const ENABLED: bool;

    /// Accounts `n` retired instructions (batched internally).
    fn add(&mut self, n: u64);

    /// Publishes any batched instructions immediately.
    fn flush(&mut self);

    /// Publishes the current run phase.
    fn set_phase(&mut self, phase: CellPhase);

    /// Publishes the run's total instruction target (for fractions).
    fn set_target(&mut self, target: u64);
}

/// The disabled probe: every publication site monomorphizes to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl Progress for NoProgress {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&mut self, _n: u64) {}

    #[inline(always)]
    fn flush(&mut self) {}

    #[inline(always)]
    fn set_phase(&mut self, _phase: CellPhase) {}

    #[inline(always)]
    fn set_target(&mut self, _target: u64) {}
}

/// Instructions batched locally before one relaxed `fetch_add` into the
/// shared heartbeat — keeps the probe out of the hot loop's cache
/// traffic entirely between flushes.
const PROGRESS_BATCH: u64 = 1 << 16;

/// The live probe: batches locally, publishes into the attempt's shared
/// [`CellProgress`].
#[derive(Debug, Clone)]
pub struct ActiveProgress {
    cell: Arc<CellProgress>,
    pending: u64,
}

impl ActiveProgress {
    /// A probe publishing into `cell`.
    pub fn new(cell: Arc<CellProgress>) -> Self {
        ActiveProgress { cell, pending: 0 }
    }
}

impl Progress for ActiveProgress {
    const ENABLED: bool = true;

    #[inline]
    fn add(&mut self, n: u64) {
        self.pending += n;
        if self.pending >= PROGRESS_BATCH {
            self.cell.add_instructions(self.pending);
            self.pending = 0;
        }
    }

    fn flush(&mut self) {
        if self.pending > 0 {
            self.cell.add_instructions(self.pending);
            self.pending = 0;
        }
    }

    fn set_phase(&mut self, phase: CellPhase) {
        self.cell.set_phase(phase);
    }

    fn set_target(&mut self, target: u64) {
        self.cell.set_target(target);
    }
}

thread_local! {
    static CELL_PROGRESS: RefCell<Option<Arc<CellProgress>>> = const { RefCell::new(None) };
}

/// Installs (or with `None`, clears) the calling thread's heartbeat
/// cell. The supervised cell thread calls this before `System::build`;
/// `System::run` consults it via [`current_cell_progress`]. Thread
/// death clears it for free — every attempt runs on a fresh thread.
pub fn set_cell_progress(progress: Option<Arc<CellProgress>>) {
    CELL_PROGRESS.with(|p| *p.borrow_mut() = progress);
}

/// The heartbeat cell installed on this thread, if any.
pub fn current_cell_progress() -> Option<Arc<CellProgress>> {
    CELL_PROGRESS.with(|p| p.borrow().clone())
}

// ---------------------------------------------------------------------------
// The status board.
// ---------------------------------------------------------------------------

/// One recorded lifecycle transition (bounded log; see
/// [`StatusBoard::snapshot_json`]).
#[derive(Debug, Clone)]
pub struct Transition {
    /// Milliseconds after the sweep began.
    pub ms: u64,
    /// Plan index of the cell that transitioned.
    pub cell: usize,
    /// The state entered.
    pub state: CellState,
}

/// Transitions retained in the bounded log.
const TRANSITION_LOG: usize = 64;

#[derive(Debug)]
struct CellRow {
    label: String,
    digest8: String,
    state: CellState,
    attempt: u32,
    retries: u32,
    cached: bool,
    progress: Option<Arc<CellProgress>>,
    /// Phase and instructions frozen when the cell reached a terminal
    /// state (the live Arc is dropped then, so a leaked timed-out
    /// thread's late writes go nowhere visible).
    frozen_instructions: u64,
    frozen_phase: CellPhase,
    started_ms: Option<u64>,
    finished_ms: Option<u64>,
}

impl CellRow {
    fn instructions(&self) -> u64 {
        match &self.progress {
            Some(p) => p.instructions(),
            None => self.frozen_instructions,
        }
    }

    fn phase(&self) -> CellPhase {
        match &self.progress {
            Some(p) => p.phase(),
            None => self.frozen_phase,
        }
    }

    fn target(&self) -> u64 {
        self.progress.as_ref().map_or(0, |p| p.target())
    }
}

#[derive(Debug)]
struct BoardInner {
    cells: Vec<CellRow>,
    transitions: VecDeque<Transition>,
    supervisor: SupervisorStats,
    store: Option<StoreStats>,
    done: bool,
}

/// The shared live table of one sweep's cells. Runner workers mutate it
/// through the transition methods; the [`StatusWriter`] (and tests)
/// render it with [`StatusBoard::snapshot_json`]. One short mutex
/// guards the table — it is touched per cell *transition* and per
/// snapshot, never per instruction (heartbeats go through the lock-free
/// [`CellProgress`] atomics instead).
#[derive(Debug)]
pub struct StatusBoard {
    sweep: String,
    threads: usize,
    started: Instant,
    inner: Mutex<BoardInner>,
}

impl StatusBoard {
    /// A new board for `sweep`, with every cell `Queued`. Each cell is
    /// `(label, digest8)` in plan order.
    pub fn new(sweep: &str, cells: &[(String, String)], threads: usize) -> Arc<StatusBoard> {
        Arc::new(StatusBoard {
            sweep: sweep.to_string(),
            threads,
            started: Instant::now(),
            inner: Mutex::new(BoardInner {
                cells: cells
                    .iter()
                    .map(|(label, digest8)| CellRow {
                        label: label.clone(),
                        digest8: digest8.clone(),
                        state: CellState::Queued,
                        attempt: 0,
                        retries: 0,
                        cached: false,
                        progress: None,
                        frozen_instructions: 0,
                        frozen_phase: CellPhase::Build,
                        started_ms: None,
                        finished_ms: None,
                    })
                    .collect(),
                transitions: VecDeque::new(),
                supervisor: SupervisorStats::default(),
                store: None,
                done: false,
            }),
        })
    }

    /// The sweep's name.
    pub fn sweep(&self) -> &str {
        &self.sweep
    }

    fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn log(inner: &mut BoardInner, ms: u64, cell: usize, state: CellState) {
        if inner.transitions.len() == TRANSITION_LOG {
            inner.transitions.pop_front();
        }
        inner.transitions.push_back(Transition { ms, cell, state });
    }

    /// Marks a cell resolved without running: served from the memo
    /// cache or persistent store (`Done`), or a memoized failure
    /// (`Failed`).
    pub fn cached(&self, cell: usize, failed: bool) {
        let ms = self.elapsed_ms();
        let mut inner = self.inner.lock().expect("status board lock");
        let state = if failed {
            CellState::Failed
        } else {
            CellState::Done
        };
        let row = &mut inner.cells[cell];
        row.state = state;
        row.cached = true;
        row.finished_ms = Some(ms);
        Self::log(&mut inner, ms, cell, state);
    }

    /// Marks the cells of one job `Running` and returns the attempt's
    /// fresh heartbeat (install it in the supervised thread). Duplicate
    /// plan cells share one job, so one call covers all of `cells`.
    pub fn start_attempt(&self, cells: &[usize], attempt: u32) -> Arc<CellProgress> {
        let ms = self.elapsed_ms();
        let progress = Arc::new(CellProgress::new());
        let mut inner = self.inner.lock().expect("status board lock");
        for &cell in cells {
            let row = &mut inner.cells[cell];
            row.state = CellState::Running;
            row.attempt = attempt;
            row.progress = Some(progress.clone());
            if row.started_ms.is_none() {
                row.started_ms = Some(ms);
            }
            Self::log(&mut inner, ms, cell, CellState::Running);
        }
        progress
    }

    /// Marks the cells of one job `Retrying(next_attempt)` after a
    /// transient failure. The dead attempt's heartbeat is frozen and
    /// detached.
    pub fn retrying(&self, cells: &[usize], next_attempt: u32) {
        let ms = self.elapsed_ms();
        let mut inner = self.inner.lock().expect("status board lock");
        for &cell in cells {
            let row = &mut inner.cells[cell];
            row.frozen_instructions = row.instructions();
            row.frozen_phase = row.phase();
            row.progress = None;
            row.state = CellState::Retrying(next_attempt);
            row.retries = next_attempt;
            Self::log(&mut inner, ms, cell, CellState::Retrying(next_attempt));
        }
    }

    /// Marks the cells of one job terminal (`Done`, `Failed`, or
    /// `Skipped`), freezing and detaching their heartbeats.
    pub fn finish(&self, cells: &[usize], state: CellState) {
        debug_assert!(state.is_terminal());
        let ms = self.elapsed_ms();
        let mut inner = self.inner.lock().expect("status board lock");
        for &cell in cells {
            let row = &mut inner.cells[cell];
            row.frozen_instructions = row.instructions();
            row.frozen_phase = row.phase();
            row.progress = None;
            row.state = state;
            row.finished_ms = Some(ms);
            Self::log(&mut inner, ms, cell, state);
        }
    }

    /// Publishes the sweep's supervision/store rollup (typically once,
    /// at the end; mid-sweep calls are fine too).
    pub fn set_rollup(&self, supervisor: SupervisorStats, store: Option<StoreStats>) {
        let mut inner = self.inner.lock().expect("status board lock");
        inner.supervisor = supervisor;
        inner.store = store;
    }

    /// Marks the whole sweep terminal — after this the snapshot's
    /// `state` field reads `"done"`.
    pub fn mark_done(&self) {
        self.inner.lock().expect("status board lock").done = true;
    }

    /// The sweep-level rollup at this instant. ETA is memo/store-aware
    /// by construction: cached cells resolve instantly at sweep start,
    /// so only genuinely-simulating cells contribute remaining work.
    pub fn rollup(&self) -> OpsSweepStats {
        let elapsed = self.started.elapsed().as_secs_f64();
        let inner = self.inner.lock().expect("status board lock");
        self.rollup_locked(&inner, elapsed)
    }

    fn rollup_locked(&self, inner: &BoardInner, elapsed_secs: f64) -> OpsSweepStats {
        let mut s = OpsSweepStats {
            cells: inner.cells.len() as u64,
            ..OpsSweepStats::default()
        };
        // Duplicate plan cells share one heartbeat Arc; count each
        // job's instructions once or the rollup double-books.
        let mut seen_live: Vec<*const CellProgress> = Vec::new();
        let mut known_target = 0u64;
        let mut remaining = 0.0f64;
        let mut unknown_remaining = 0u64;
        for row in &inner.cells {
            match row.state {
                CellState::Queued => s.queued += 1,
                CellState::Running => s.running += 1,
                CellState::Retrying(_) => s.retrying += 1,
                CellState::Done => s.done += 1,
                CellState::Failed => s.failed += 1,
                CellState::Skipped => s.skipped += 1,
            }
            if row.cached {
                s.cached += 1;
                continue;
            }
            match &row.progress {
                Some(p) => {
                    let ptr = Arc::as_ptr(p);
                    if !seen_live.contains(&ptr) {
                        seen_live.push(ptr);
                        s.instructions += p.instructions();
                        let target = p.target();
                        if target > 0 {
                            known_target = known_target.max(target);
                            remaining += target.saturating_sub(p.instructions()) as f64;
                        } else {
                            unknown_remaining += 1;
                        }
                    }
                }
                None => {
                    s.instructions += row.frozen_instructions;
                    if !row.state.is_terminal() {
                        unknown_remaining += 1;
                    } else if row.frozen_instructions > 0 {
                        known_target = known_target.max(row.frozen_instructions);
                    }
                }
            }
            if row.state == CellState::Queued {
                unknown_remaining += 1;
            }
        }
        if elapsed_secs > 0.0 {
            s.minstr_per_sec = s.instructions as f64 / elapsed_secs / 1e6;
        }
        // Cells without a published target (queued, or running before
        // the warmup begins) are estimated at the largest target any
        // cell has published — the sweep's cells share a budget, so
        // this is the right order of magnitude.
        remaining += (unknown_remaining * known_target) as f64;
        let rate = s.instructions as f64 / elapsed_secs.max(1e-9);
        if !s.is_terminal() && remaining > 0.0 && rate > 0.0 && s.instructions > 0 {
            s.eta_seconds = remaining / rate;
        }
        s
    }

    /// Renders the board as one complete JSON document (the
    /// `status.json` payload). Always valid JSON: strings are escaped,
    /// floats rendered finite, and the whole document is produced under
    /// one lock acquisition.
    pub fn snapshot_json(&self) -> String {
        let elapsed_ms = self.elapsed_ms();
        let inner = self.inner.lock().expect("status board lock");
        let rollup = self.rollup_locked(&inner, elapsed_ms as f64 / 1e3);
        let mut s = String::with_capacity(1024 + inner.cells.len() * 256);
        s.push_str(&format!(
            "{{\"sweep\":\"{}\",\"state\":\"{}\",\"elapsed_ms\":{},\"threads\":{},",
            escape(&self.sweep),
            if inner.done { "done" } else { "running" },
            elapsed_ms,
            self.threads
        ));
        s.push_str("\"cells\":[");
        for (i, row) in inner.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let target = row.target();
            let instructions = row.instructions();
            let fraction = if target == 0 {
                if row.state.is_terminal() && !matches!(row.state, CellState::Skipped) {
                    1.0
                } else {
                    0.0
                }
            } else {
                (instructions as f64 / target as f64).min(1.0)
            };
            s.push_str(&format!(
                "{{\"index\":{},\"label\":\"{}\",\"digest\":\"{}\",\"state\":\"{}\",\
                 \"attempt\":{},\"retries\":{},\"cached\":{},\"phase\":\"{}\",\
                 \"instructions\":{},\"target\":{},\"fraction\":{:.4},\
                 \"started_ms\":{},\"finished_ms\":{}}}",
                i,
                escape(&row.label),
                row.digest8,
                row.state.label(),
                row.attempt,
                row.retries,
                row.cached,
                row.phase().label(),
                instructions,
                target,
                fraction,
                match row.started_ms {
                    Some(ms) => ms.to_string(),
                    None => "null".to_string(),
                },
                match row.finished_ms {
                    Some(ms) => ms.to_string(),
                    None => "null".to_string(),
                },
            ));
        }
        s.push_str("],");
        s.push_str(&format!(
            "\"rollup\":{{\"cells\":{},\"queued\":{},\"running\":{},\"done\":{},\
             \"retrying\":{},\"failed\":{},\"skipped\":{},\"cached\":{},\
             \"instructions\":{},\"minstr_per_sec\":{:.3},\"eta_seconds\":{:.1}}},",
            rollup.cells,
            rollup.queued,
            rollup.running,
            rollup.done,
            rollup.retrying,
            rollup.failed,
            rollup.skipped,
            rollup.cached,
            rollup.instructions,
            rollup.minstr_per_sec,
            rollup.eta_seconds,
        ));
        let sup = &inner.supervisor;
        s.push_str(&format!(
            "\"supervisor\":{{\"cells\":{},\"panics_caught\":{},\"timeouts\":{},\
             \"retries\":{},\"permanent_failures\":{},\"cells_skipped\":{}}},",
            sup.cells,
            sup.panics_caught,
            sup.timeouts,
            sup.retries,
            sup.permanent_failures,
            sup.cells_skipped,
        ));
        match &inner.store {
            Some(st) => s.push_str(&format!(
                "\"store\":{{\"hits\":{},\"failure_hits\":{},\"misses\":{},\"writes\":{},\
                 \"write_errors\":{},\"corrupt\":{},\"traced_skipped\":{}}},",
                st.hits,
                st.failure_hits,
                st.misses,
                st.writes,
                st.write_errors,
                st.corrupt,
                st.traced_skipped,
            )),
            None => s.push_str("\"store\":null,"),
        }
        s.push_str("\"transitions\":[");
        for (i, t) in inner.transitions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"ms\":{},\"cell\":{},\"state\":\"{}\"}}",
                t.ms,
                t.cell,
                t.state.label()
            ));
        }
        s.push_str("]}");
        s
    }
}

// ---------------------------------------------------------------------------
// The writer.
// ---------------------------------------------------------------------------

/// Tmp-file sequence for [`write_status_atomic`] — unique names even
/// when several sweeps in one process share a status dir.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `payload` to `dir/status.json` via the store's tmp+`rename`
/// idiom: the document lands under a private name first, then one
/// atomic rename replaces the visible file, so a concurrent reader sees
/// either the old complete document or the new one — never a torn
/// write.
pub fn write_status_atomic(dir: &Path, payload: &str) -> io::Result<PathBuf> {
    let path = dir.join("status.json");
    let tmp = dir.join(format!(
        ".status-tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let commit = (|| {
        std::fs::write(&tmp, payload)?;
        std::fs::rename(&tmp, &path)
    })();
    if let Err(e) = commit {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(path)
}

/// The background renderer: snapshots a [`StatusBoard`] to
/// `dir/status.json` every `interval` until [`StatusWriter::finish`]
/// (which always writes one final, terminal snapshot).
#[derive(Debug)]
pub struct StatusWriter {
    board: Arc<StatusBoard>,
    dir: PathBuf,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatusWriter {
    /// Creates `dir`, writes the first snapshot, and spawns the
    /// renderer thread.
    pub fn spawn(board: Arc<StatusBoard>, dir: &Path, interval: Duration) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        write_status_atomic(dir, &board.snapshot_json())?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_board = board.clone();
        let thread_dir = dir.to_path_buf();
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("seesaw-status".to_string())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if write_status_atomic(&thread_dir, &thread_board.snapshot_json()).is_err() {
                        // The dir vanished or the disk is full; live
                        // status is best-effort, the sweep itself is
                        // not — stop writing, keep simulating.
                        break;
                    }
                }
            })?;
        Ok(StatusWriter {
            board,
            dir: dir.to_path_buf(),
            stop,
            handle: Some(handle),
        })
    }

    /// Path of the snapshot file this writer maintains.
    pub fn path(&self) -> PathBuf {
        self.dir.join("status.json")
    }

    /// Stops the renderer and writes the final snapshot (call after
    /// [`StatusBoard::mark_done`], so the file on disk ends terminal).
    pub fn finish(mut self) {
        self.stop_and_flush();
    }

    fn stop_and_flush(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
            let _ = write_status_atomic(&self.dir, &self.board.snapshot_json());
        }
    }
}

impl Drop for StatusWriter {
    fn drop(&mut self) {
        // A panicking sweep still leaves a coherent (if non-terminal)
        // snapshot behind.
        self.stop_and_flush();
    }
}

// ---------------------------------------------------------------------------
// Environment knobs.
// ---------------------------------------------------------------------------

/// The status directory named by `SEESAW_STATUS`: unset → `None`, empty
/// value → `target/status`, otherwise the value itself.
pub fn status_dir_from_env() -> Option<PathBuf> {
    match std::env::var("SEESAW_STATUS") {
        Ok(v) if v.is_empty() => Some(PathBuf::from("target/status")),
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => None,
    }
}

/// The snapshot interval: `SEESAW_STATUS_INTERVAL_MS` (default 200 ms,
/// floor 10 ms).
pub fn status_interval_from_env() -> Duration {
    let ms = std::env::var("SEESAW_STATUS_INTERVAL_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(200)
        .max(10);
    Duration::from_millis(ms)
}

// ---------------------------------------------------------------------------
// The consolidated ops summary.
// ---------------------------------------------------------------------------

/// The end-of-sweep operational summary every bench binary prints: the
/// process-wide memo, store, and supervisor counters, formatted in one
/// place. `scripts/bench.sh` scrapes the `[memo]` and `[store]` lines,
/// so their shapes are load-bearing; this struct is now the only
/// formatter of them.
#[derive(Debug, Clone)]
pub struct OpsSummary {
    /// Process-wide memo counters.
    pub memo: MemoStats,
    /// The process store's size, directory, and traffic (when
    /// `SEESAW_STORE` is active).
    pub store: Option<(usize, PathBuf, StoreStats)>,
    /// Process-wide supervision counters.
    pub supervisor: SupervisorStats,
}

impl OpsSummary {
    /// Gathers the current process-wide counters.
    pub fn process() -> Self {
        OpsSummary {
            memo: crate::runner::memo_stats(),
            store: crate::store::process_store()
                .map(|s| (s.len(), s.dir().to_path_buf(), s.stats())),
            supervisor: crate::runner::supervisor_stats(),
        }
    }

    /// Renders the summary lines (no trailing newline): always `[memo]`,
    /// then `[store]` when a store is active, then `[supervisor]` when
    /// any supervision event fired.
    pub fn render(&self) -> String {
        let mut out = format!(
            "[memo] {} hits / {} misses ({} distinct configs simulated)",
            self.memo.hits, self.memo.misses, self.memo.entries
        );
        if let Some((len, dir, s)) = &self.store {
            out.push_str(&format!(
                "\n[store] {} at {}: {} hits ({} failures) / {} misses, {} writes ({} errors), {} corrupt, {} traced skipped",
                len,
                dir.display(),
                s.hits,
                s.failure_hits,
                s.misses,
                s.writes,
                s.write_errors,
                s.corrupt,
                s.traced_skipped
            ));
        }
        let sup = &self.supervisor;
        if sup.panics_caught + sup.timeouts + sup.retries + sup.permanent_failures
            + sup.cells_skipped
            > 0
        {
            out.push_str(&format!(
                "\n[supervisor] {} cells: {} panics caught, {} timeouts, {} retries, {} permanent failures, {} skipped",
                sup.cells,
                sup.panics_caught,
                sup.timeouts,
                sup.retries,
                sup.permanent_failures,
                sup.cells_skipped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_trace::json::Json;

    fn board2() -> Arc<StatusBoard> {
        StatusBoard::new(
            "test-sweep",
            &[
                ("cell a".to_string(), "aaaaaaaa".to_string()),
                ("cell b".to_string(), "bbbbbbbb".to_string()),
            ],
            2,
        )
    }

    #[test]
    fn progress_probe_batches_and_flushes() {
        let cell = Arc::new(CellProgress::new());
        let mut p = ActiveProgress::new(cell.clone());
        p.add(10);
        assert_eq!(cell.instructions(), 0, "batched, not yet published");
        p.add(PROGRESS_BATCH);
        assert_eq!(cell.instructions(), PROGRESS_BATCH + 10);
        p.add(3);
        p.flush();
        assert_eq!(cell.instructions(), PROGRESS_BATCH + 13);
        p.set_phase(CellPhase::Measure);
        p.set_target(500);
        assert_eq!(cell.phase(), CellPhase::Measure);
        assert_eq!(cell.target(), 500);
        // The disabled probe is inert and flagged off at compile time.
        fn enabled<P: Progress>(_p: &P) -> bool {
            P::ENABLED
        }
        let mut none = NoProgress;
        none.add(5);
        none.flush();
        assert!(!enabled(&none));
        assert!(enabled(&p));
    }

    #[test]
    fn thread_local_handoff_is_per_thread() {
        let cell = Arc::new(CellProgress::new());
        set_cell_progress(Some(cell.clone()));
        assert!(current_cell_progress().is_some());
        let other = std::thread::spawn(current_cell_progress).join().unwrap();
        assert!(other.is_none(), "installation must not leak across threads");
        set_cell_progress(None);
        assert!(current_cell_progress().is_none());
    }

    #[test]
    fn board_lifecycle_rolls_up() {
        let board = board2();
        board.cached(1, false);
        let progress = board.start_attempt(&[0], 0);
        progress.set_target(1000);
        progress.add_instructions(400);
        let r = board.rollup();
        assert_eq!(r.cells, 2);
        assert_eq!(r.running, 1);
        assert_eq!(r.done, 1);
        assert_eq!(r.cached, 1);
        assert_eq!(r.instructions, 400);
        assert!(!r.is_terminal());
        board.finish(&[0], CellState::Done);
        let r = board.rollup();
        assert!(r.is_terminal());
        assert_eq!(r.done, 2);
        assert_eq!(r.instructions, 400, "frozen at finish");
        assert_eq!(r.eta_seconds, 0.0);
    }

    #[test]
    fn retry_freezes_dead_attempt_heartbeat() {
        let board = board2();
        let p0 = board.start_attempt(&[0], 0);
        p0.add_instructions(100);
        board.retrying(&[0], 1);
        // The leaked attempt keeps writing; the board must not see it.
        p0.add_instructions(1_000_000);
        assert_eq!(board.rollup().instructions, 100);
        let p1 = board.start_attempt(&[0], 1);
        p1.add_instructions(50);
        // A fresh attempt restarts its own count; the board prefers the
        // live heartbeat over the frozen one.
        assert_eq!(board.rollup().retrying, 0);
        assert_eq!(board.rollup().running, 1);
    }

    #[test]
    fn snapshot_is_valid_json_with_schema() {
        let board = board2();
        let progress = board.start_attempt(&[0], 0);
        progress.set_phase(CellPhase::Warmup);
        progress.set_target(200);
        progress.add_instructions(100);
        board.cached(1, false);
        board.set_rollup(SupervisorStats::default(), None);
        let doc = Json::parse(&board.snapshot_json()).expect("snapshot must parse");
        assert_eq!(doc.get("sweep").and_then(Json::as_str), Some("test-sweep"));
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("running"));
        let cells = doc.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("state").and_then(Json::as_str), Some("running"));
        assert_eq!(cells[0].get("phase").and_then(Json::as_str), Some("warmup"));
        assert_eq!(cells[0].get("fraction").and_then(Json::as_f64), Some(0.5));
        assert_eq!(cells[1].get("cached").and_then(Json::as_bool), Some(true));
        let rollup = doc.get("rollup").unwrap();
        assert_eq!(rollup.get("cells").and_then(Json::as_u64), Some(2));
        assert!(doc.get("transitions").and_then(Json::as_array).is_some());
        board.mark_done();
        let done = Json::parse(&board.snapshot_json()).unwrap();
        assert_eq!(done.get("state").and_then(Json::as_str), Some("done"));
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("seesaw-status-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_status_atomic(&dir, "{\"a\":1}").unwrap();
        let path = write_status_atomic(&dir, "{\"b\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"b\":2}");
        // No tmp litter after successful commits.
        let tmp_files = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with(".status-tmp")
            })
            .count();
        assert_eq!(tmp_files, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ops_summary_preserves_scraped_shapes() {
        let summary = OpsSummary {
            memo: MemoStats {
                hits: 7,
                misses: 3,
                entries: 3,
            },
            store: Some((
                5,
                PathBuf::from("/tmp/store"),
                StoreStats {
                    hits: 4,
                    failure_hits: 1,
                    misses: 2,
                    writes: 2,
                    write_errors: 0,
                    corrupt: 0,
                    traced_skipped: 0,
                },
            )),
            supervisor: SupervisorStats {
                cells: 3,
                panics_caught: 1,
                timeouts: 0,
                retries: 1,
                permanent_failures: 0,
                cells_skipped: 0,
            },
        };
        let text = summary.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "[memo] 7 hits / 3 misses (3 distinct configs simulated)"
        );
        assert_eq!(
            lines[1],
            "[store] 5 at /tmp/store: 4 hits (1 failures) / 2 misses, 2 writes (0 errors), 0 corrupt, 0 traced skipped"
        );
        assert_eq!(
            lines[2],
            "[supervisor] 3 cells: 1 panics caught, 0 timeouts, 1 retries, 0 permanent failures, 0 skipped"
        );
        assert_eq!(lines.len(), 3);
        // bench.sh's awk fields: $2 = hits, $5 = misses on the memo line.
        let fields: Vec<&str> = lines[0].split_whitespace().collect();
        assert_eq!(fields[1], "7");
        assert_eq!(fields[4], "3");
        // A quiet supervisor ⇒ no supervisor line.
        let quiet = OpsSummary {
            memo: MemoStats {
                hits: 0,
                misses: 0,
                entries: 0,
            },
            store: None,
            supervisor: SupervisorStats {
                cells: 9,
                ..Default::default()
            },
        };
        assert_eq!(quiet.render().lines().count(), 1);
    }
}
