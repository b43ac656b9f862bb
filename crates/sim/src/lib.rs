//! Full-system assembly and experiment drivers for the SEESAW
//! reproduction.
//!
//! [`System`] wires every substrate together — the OS memory model with
//! transparent superpages under memhog-driven fragmentation, the TLB
//! hierarchy, an L1 design (baseline VIPT, SEESAW, PIPT alternatives,
//! with or without way prediction), the outer memory hierarchy, the
//! coherence probe stream, the energy model, and an in-order or
//! out-of-order timing core — and runs a workload trace through it.
//!
//! [`experiments`] hosts one driver per table and figure in the paper's
//! evaluation; the `seesaw-bench` crate's binaries and Criterion benches
//! call straight into them. Every driver executes through [`runner`],
//! the deterministic parallel experiment engine: independent grid cells
//! run across a scoped worker pool and repeated configurations (notably
//! the shared baselines) are memoized per process, bit-identical to a
//! serial sweep. Sweeps are also crash-safe: with `SEESAW_STORE` set,
//! completed cells persist to a content-addressed on-disk [`store`], so
//! a killed sweep resumes from what already finished, and
//! [`Plan::run_sweep`] supervises each cell — panic isolation, watchdog
//! timeouts, deterministic retry backoff, and a configurable failure
//! budget ([`SweepPolicy`]) under which survivors still complete.
//!
//! For robustness work, [`RunConfig::with_checker`] runs the
//! `seesaw-check` differential shadow model in lockstep with the timing
//! system, and [`RunConfig::with_faults`] attaches a seeded injector that
//! fires SEESAW's dangerous transitions (splinters, promotions, TLB
//! shootdowns, TFT conflict storms, context switches, memory pressure)
//! at randomized points. A caught invariant violation surfaces as
//! [`SimError::Check`], carrying a replayable [`ReproBundle`]; the
//! [`repro`] module records, replays, and delta-debugs those bundles
//! down to a minimal explicit [`FaultSchedule`].
//!
//! # Example
//!
//! ```
//! use seesaw_sim::{CpuKind, L1DesignKind, RunConfig, System};
//!
//! let config = RunConfig::quick("redis")
//!     .design(L1DesignKind::Seesaw)
//!     .cpu(CpuKind::OutOfOrder);
//! let result = System::build(&config).unwrap().run().unwrap();
//! assert!(result.totals.instructions >= 100_000);
//! assert!(result.superpage_ref_fraction > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod chart;
mod config;
mod core;
pub mod diff;
mod error;
pub mod experiments;
mod report;
pub mod repro;
pub mod runner;
mod stats;
pub mod status;
pub mod store;
mod system;
mod uncore;

pub use config::{
    CpuKind, Frequency, L1DesignKind, ProbeSource, RunConfig, SchedulerHintPolicy,
    SupervisorConfig, SweepPolicy,
};
pub use chart::BarChart;
pub use diff::{BenchDiff, BenchRun, FigureDelta, FigureStats, MetricDelta};
pub use error::SimError;
pub use report::Table;
pub use status::{OpsSummary, StatusBoard, StatusWriter};
pub use runner::{
    CellChaos, CellContext, CellRecord, FailedCell, MemoStats, Plan, PlanOutcomes, PlanRun,
    SupervisorStats, SweepReport,
};
pub use store::{Store, StoreStats, StoredOutcome};
pub use seesaw_check::{
    ChaosConfig, CheckerSummary, FaultConfig, FaultKind, FaultPoint, FaultSchedule,
    InjectionStats, ReproBundle, Violation,
};
pub use seesaw_coherence::{CoherenceMode, CoherenceStats};
pub use stats::{CoreResult, RunResult, Sample, Summary};
pub use system::System;
