//! Unified telemetry for the SEESAW reproduction: typed event tracing,
//! a flat metrics registry, log2-bucketed histograms, and machine-readable
//! exporters (JSONL, Chrome `trace_event` JSON for Perfetto, CSV).
//!
//! The simulator's counters live in a dozen per-crate `*Stats` structs;
//! this crate is the layer that makes them observable as one system:
//!
//! * [`Event`] / [`EventKind`] — a compact, typed record of the things the
//!   paper's evaluation reasons about at the per-access level: TLB
//!   hits/misses, page walks with latency, TFT hits/misses/fills/flushes,
//!   partition lookups with ways-probed counts, promotions/splinters/
//!   shootdowns, coherence probes, injected faults, and checker
//!   violations.
//! * [`Sink`] — where events go. The tracer is threaded through the hot
//!   simulation loop as a *generic* parameter; [`NullSink`] carries
//!   `ENABLED = false` as an associated constant, so every emit site is
//!   guarded by a compile-time `if` and the disabled path monomorphizes
//!   to exactly the pre-telemetry code. [`RingSink`] keeps the last N
//!   events in a bounded ring while counting every event exactly in an
//!   [`EventCounts`] mirror, so aggregate reconciliation works even after
//!   the ring wraps.
//! * [`MetricsRegistry`] / [`Collect`] — one flat `namespaced.key → value`
//!   snapshot of every counter. Each stats struct implements [`Collect`]
//!   by *destructuring itself without `..`*, so adding a field to any
//!   stats struct breaks compilation until the field is exported — no
//!   counter can silently fall out of reports.
//! * [`Log2Histogram`] — fixed-size power-of-two latency histograms for
//!   walk latency, miss penalty, and runner cell wall clock.
//! * [`ops`] — the live sweep-operations vocabulary: cell lifecycle
//!   states, run phases, the lock-free [`CellProgress`] heartbeat a
//!   running simulation publishes through, and `ops.sweep.*` rollup
//!   gauges.
//! * Exporters — [`jsonl`] event streams (with a validating reader),
//!   [`ChromeTrace`] JSON loadable in `chrome://tracing` / Perfetto, a
//!   tiny [`Csv`] writer for windowed time series, and a [`prometheus`]
//!   text-exposition renderer (registry gauges + native log2-bucket
//!   histograms) with its own format validator.
//!
//! # Example
//!
//! ```
//! use seesaw_trace::{Collect, EventKind, MetricsRegistry, RingSink, Sink, TranslationLevel};
//!
//! let mut sink = RingSink::new(1024);
//! sink.emit(100, EventKind::TlbLookup { level: TranslationLevel::L1 });
//! sink.emit(101, EventKind::WalkEnd { cycles: 107, superpage: true });
//! let trace = sink.finish().expect("ring sinks always carry data");
//! assert_eq!(trace.counts.tlb_l1_hits, 1);
//! assert_eq!(trace.counts.walk_ends, 1);
//!
//! let mut metrics = MetricsRegistry::new();
//! trace.counts.collect("trace.events", &mut metrics);
//! assert_eq!(metrics.get_u64("trace.events.walk_ends"), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod csv;
mod event;
mod hist;
pub mod json;
pub mod jsonl;
mod metrics;
pub mod ops;
pub mod prometheus;
mod sink;

pub use chrome::ChromeTrace;
pub use csv::Csv;
pub use event::{Event, EventCounts, EventKind, TranslationLevel};
pub use hist::Log2Histogram;
pub use metrics::{Collect, MetricValue, MetricsRegistry};
pub use ops::{CellPhase, CellProgress, CellState, OpsSweepStats};
pub use prometheus::Prometheus;
pub use sink::{NullSink, RingSink, Sink, TraceData};
