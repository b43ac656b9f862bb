//! Sweep-operations telemetry: cell lifecycle states, run phases, and
//! the shared heartbeat cell a running simulation publishes progress
//! through.
//!
//! The experiment runner executes hundreds of independent cells per
//! figure; this module defines the *live* vocabulary for watching them:
//!
//! * [`CellState`] — the supervised lifecycle every plan cell moves
//!   through (`Queued → Running → {Done, Retrying, Failed, Skipped}`).
//! * [`CellPhase`] — where inside one simulation a running cell is
//!   (build / prewarm / warmup / measure), matching the phase boundaries
//!   `SEESAW_PHASE_TIMING=1` prints.
//! * [`CellProgress`] — a lock-free heartbeat: the simulation thread
//!   stores its phase and retired-instruction count into atomics, and
//!   the status writer samples them from another thread. Publishing is
//!   wait-free and never blocks the hot loop.
//! * [`OpsSweepStats`] — sweep-level rollup gauges, exported under the
//!   `ops.sweep.*` namespace of the [`MetricsRegistry`] like every other
//!   stats struct.
//!
//! The hot loop only touches a [`CellProgress`] through a monomorphized
//! probe (see `seesaw-sim`'s `status` module): when no status consumer
//! is attached, the probe type is a unit struct whose `ENABLED = false`
//! compiles every publication site away — the same
//! zero-overhead-when-off contract as the event [`crate::Sink`].

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::metrics::{Collect, MetricsRegistry};

/// Where inside one simulation run a cell currently is. The variants
/// mirror the `SEESAW_PHASE_TIMING=1` boundaries in `System::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellPhase {
    /// `System::build`: memory image, page tables, hierarchies.
    Build,
    /// Functional pre-warm of the outer hierarchy (no timing).
    Prewarm,
    /// Unmeasured warmup window filling caches/TLBs/TFT.
    Warmup,
    /// The measured window whose deltas become the result.
    Measure,
}

impl CellPhase {
    /// Every phase, in run order.
    pub const ALL: [CellPhase; 4] = [
        CellPhase::Build,
        CellPhase::Prewarm,
        CellPhase::Warmup,
        CellPhase::Measure,
    ];

    /// Stable lower-case label (status snapshots, JSONL events).
    pub fn label(self) -> &'static str {
        match self {
            CellPhase::Build => "build",
            CellPhase::Prewarm => "prewarm",
            CellPhase::Warmup => "warmup",
            CellPhase::Measure => "measure",
        }
    }

    /// The phase as a stable small integer (atomic storage).
    pub fn as_u8(self) -> u8 {
        match self {
            CellPhase::Build => 0,
            CellPhase::Prewarm => 1,
            CellPhase::Warmup => 2,
            CellPhase::Measure => 3,
        }
    }

    /// Inverse of [`CellPhase::as_u8`]; out-of-range values clamp to
    /// [`CellPhase::Build`] (a torn read can only be stale, never UB).
    pub fn from_u8(v: u8) -> CellPhase {
        match v {
            1 => CellPhase::Prewarm,
            2 => CellPhase::Warmup,
            3 => CellPhase::Measure,
            _ => CellPhase::Build,
        }
    }
}

/// The supervised lifecycle of one plan cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Accepted into the sweep, not started.
    Queued,
    /// An attempt is executing on a supervised thread.
    Running,
    /// A transient failure (panic/timeout) earned a retry; the payload
    /// is the upcoming attempt number (1 = first retry).
    Retrying(u32),
    /// Completed with a result (freshly simulated, or served from the
    /// memo cache / persistent store).
    Done,
    /// Failed permanently (checker violation, page fault, OOM, or
    /// retries exhausted).
    Failed,
    /// Never started: the sweep's failure budget was already spent.
    Skipped,
}

impl CellState {
    /// Stable lower-case label (status snapshots).
    pub fn label(self) -> &'static str {
        match self {
            CellState::Queued => "queued",
            CellState::Running => "running",
            CellState::Retrying(_) => "retrying",
            CellState::Done => "done",
            CellState::Failed => "failed",
            CellState::Skipped => "skipped",
        }
    }

    /// True once the cell can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            CellState::Done | CellState::Failed | CellState::Skipped
        )
    }
}

/// The lock-free heartbeat a running cell publishes through.
///
/// The simulation thread `store`s, the status writer `load`s; both are
/// relaxed — each field is an independent monotonic gauge and a stale
/// read is indistinguishable from sampling a moment earlier. The
/// instruction counter sums every core's retired instructions across
/// *all* phases (warmup included), so dividing by wall clock gives the
/// cell's end-to-end simulation rate.
#[derive(Debug, Default)]
pub struct CellProgress {
    phase: AtomicU8,
    instructions: AtomicU64,
    target: AtomicU64,
}

impl CellProgress {
    /// A fresh heartbeat in [`CellPhase::Build`] with nothing retired.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the current phase.
    pub fn set_phase(&self, phase: CellPhase) {
        self.phase.store(phase.as_u8(), Ordering::Relaxed);
    }

    /// The most recently published phase.
    pub fn phase(&self) -> CellPhase {
        CellPhase::from_u8(self.phase.load(Ordering::Relaxed))
    }

    /// Adds `n` retired instructions to the heartbeat counter.
    pub fn add_instructions(&self, n: u64) {
        self.instructions.fetch_add(n, Ordering::Relaxed);
    }

    /// Instructions retired so far (all cores, all phases).
    pub fn instructions(&self) -> u64 {
        self.instructions.load(Ordering::Relaxed)
    }

    /// Publishes the total instructions this run will retire when it
    /// completes (warmup + measured, summed over cores), so observers
    /// can render a completion fraction.
    pub fn set_target(&self, target: u64) {
        self.target.store(target, Ordering::Relaxed);
    }

    /// The published completion target (0 until the run sets it).
    pub fn target(&self) -> u64 {
        self.target.load(Ordering::Relaxed)
    }

    /// Completion fraction in `[0, 1]` (0 until a target is published).
    pub fn fraction(&self) -> f64 {
        let target = self.target();
        if target == 0 {
            0.0
        } else {
            (self.instructions() as f64 / target as f64).min(1.0)
        }
    }
}

/// Sweep-level rollup gauges, exported under `ops.sweep.*`. One
/// snapshot describes one sweep (or the whole process session) at one
/// instant; unlike the monotonic `*Stats` counters these move both ways
/// as cells start and finish.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpsSweepStats {
    /// Cells in the sweep.
    pub cells: u64,
    /// Cells waiting to start.
    pub queued: u64,
    /// Cells currently executing an attempt.
    pub running: u64,
    /// Cells that completed with a result.
    pub done: u64,
    /// Cells whose latest attempt failed transiently and will retry.
    pub retrying: u64,
    /// Cells that failed permanently.
    pub failed: u64,
    /// Cells skipped by the failure budget.
    pub skipped: u64,
    /// Done cells that were served from the memo cache or persistent
    /// store instead of being simulated by this sweep.
    pub cached: u64,
    /// Instructions retired so far across every running/finished cell
    /// this sweep simulated.
    pub instructions: u64,
    /// Aggregate fresh-simulation rate over the sweep so far, in
    /// million instructions per wall-clock second (0 until the first
    /// fresh cell finishes).
    pub minstr_per_sec: f64,
    /// Estimated seconds until the last queued/running cell completes
    /// (0 when nothing remains or no estimate exists yet).
    pub eta_seconds: f64,
}

impl OpsSweepStats {
    /// True once every cell is in a terminal state.
    pub fn is_terminal(&self) -> bool {
        self.queued == 0 && self.running == 0 && self.retrying == 0
    }
}

impl Collect for OpsSweepStats {
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry) {
        let OpsSweepStats {
            cells,
            queued,
            running,
            done,
            retrying,
            failed,
            skipped,
            cached,
            instructions,
            minstr_per_sec,
            eta_seconds,
        } = *self;
        out.set_u64(&format!("{prefix}.cells"), cells);
        out.set_u64(&format!("{prefix}.queued"), queued);
        out.set_u64(&format!("{prefix}.running"), running);
        out.set_u64(&format!("{prefix}.done"), done);
        out.set_u64(&format!("{prefix}.retrying"), retrying);
        out.set_u64(&format!("{prefix}.failed"), failed);
        out.set_u64(&format!("{prefix}.skipped"), skipped);
        out.set_u64(&format!("{prefix}.cached"), cached);
        out.set_u64(&format!("{prefix}.instructions"), instructions);
        out.set_f64(&format!("{prefix}.minstr_per_sec"), minstr_per_sec);
        out.set_f64(&format!("{prefix}.eta_seconds"), eta_seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_round_trips_and_clamps() {
        for p in CellPhase::ALL {
            assert_eq!(CellPhase::from_u8(p.as_u8()), p);
        }
        assert_eq!(CellPhase::from_u8(200), CellPhase::Build);
        assert_eq!(CellPhase::Measure.label(), "measure");
    }

    #[test]
    fn state_terminality() {
        assert!(!CellState::Queued.is_terminal());
        assert!(!CellState::Running.is_terminal());
        assert!(!CellState::Retrying(2).is_terminal());
        assert!(CellState::Done.is_terminal());
        assert!(CellState::Failed.is_terminal());
        assert!(CellState::Skipped.is_terminal());
        assert_eq!(CellState::Retrying(2).label(), "retrying");
    }

    #[test]
    fn progress_publishes_and_fractions() {
        let p = CellProgress::new();
        assert_eq!(p.phase(), CellPhase::Build);
        assert_eq!(p.fraction(), 0.0);
        p.set_phase(CellPhase::Measure);
        p.set_target(1000);
        p.add_instructions(250);
        p.add_instructions(250);
        assert_eq!(p.phase(), CellPhase::Measure);
        assert_eq!(p.instructions(), 500);
        assert_eq!(p.fraction(), 0.5);
        p.add_instructions(5000);
        assert_eq!(p.fraction(), 1.0);
    }

    #[test]
    fn sweep_stats_collect_and_terminal() {
        let mut s = OpsSweepStats {
            cells: 4,
            done: 4,
            cached: 1,
            minstr_per_sec: 12.5,
            ..Default::default()
        };
        assert!(s.is_terminal());
        s.running = 1;
        assert!(!s.is_terminal());
        let mut m = MetricsRegistry::new();
        s.collect("ops.sweep", &mut m);
        assert_eq!(m.get_u64("ops.sweep.cells"), Some(4));
        assert_eq!(m.get_u64("ops.sweep.running"), Some(1));
        assert_eq!(m.get_f64("ops.sweep.minstr_per_sec"), Some(12.5));
        assert!(m.contains("ops.sweep.eta_seconds"));
    }
}
