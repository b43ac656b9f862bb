//! The metric catalogue: every name the benchmark reports, with its unit
//! and the direction in which it improves. `BENCHMARK.json` lists the
//! same names; a self-test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end host-time metrics, reported with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("host_cpu_s", "s", "lower"),
    m("sim_minstr_per_s", "Minstr/s", "higher"),
    m("cell_ms_p50", "ms", "lower"),
    m("cell_ms_p90", "ms", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("ok_share", "ratio", "higher"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.refs", "count", "lower"),
    m("workloads.busy_ms", "ms", "lower"),
    m("workloads.ns_per_ref", "ns", "lower"),
    m("mem.image_builds", "count", "lower"),
    m("mem.image_build_ms", "ms", "lower"),
    m("mem.superpage_coverage", "ratio", "higher"),
    m("mem.demotions", "count", "lower"),
    m("tlb.lookups", "count", "lower"),
    m("tlb.busy_ms", "ms", "lower"),
    m("tlb.ns_per_lookup", "ns", "lower"),
    m("tlb.l1_hit_rate", "ratio", "higher"),
    m("tlb.walks_per_kref", "count", "lower"),
    m("core.l1_accesses", "count", "lower"),
    m("core.busy_ms", "ms", "lower"),
    m("core.ns_per_access", "ns", "lower"),
    m("core.l1_hit_rate", "ratio", "higher"),
    m("core.ways_per_access", "count", "lower"),
    m("core.tft_hit_rate", "ratio", "higher"),
    m("core.probes", "count", "lower"),
    m("core.ns_per_probe", "ns", "lower"),
    m("cache.outer_accesses", "count", "lower"),
    m("cache.busy_ms", "ms", "lower"),
    m("cache.ns_per_access", "ns", "lower"),
    m("cache.l2_hit_rate", "ratio", "higher"),
    m("cache.prewarm_ms", "ms", "lower"),
    m("cache.outer_clone_ms", "ms", "lower"),
    m("coherence.transactions", "count", "lower"),
    m("coherence.busy_ms", "ms", "lower"),
    m("coherence.ns_per_txn", "ns", "lower"),
    m("coherence.probes_per_txn", "count", "lower"),
    m("cpu.retires", "count", "lower"),
    m("cpu.busy_ms", "ms", "lower"),
    m("cpu.ns_per_retire", "ns", "lower"),
    m("energy.busy_ms", "ms", "lower"),
    m("sim.build_ms", "ms", "lower"),
    m("sim.run_ms", "ms", "lower"),
    m("sim.cold_run_ms", "ms", "lower"),
    m("sim.unattributed_share", "ratio", "lower"),
    m("runner.cells", "count", "higher"),
    m("runner.fresh_cells", "count", "lower"),
    m("runner.memo_hits", "count", "higher"),
    m("runner.busy_share", "ratio", "higher"),
    m("runner.tail_ms", "ms", "lower"),
    m("store.writes", "count", "lower"),
    m("store.hits", "count", "higher"),
    m("store.put_ms", "ms", "lower"),
    m("store.get_ms", "ms", "lower"),
    m("store.bytes_per_record", "B", "lower"),
    m("trace_overhead_share", "ratio", "lower"),
];

/// Simulated-time results: deterministic, informational, never gated.
/// They are printed beside the per-layer metrics to explain host-time
/// shifts but have no direction, so they stay out of `BENCHMARK.json`.
pub const MODEL: &[&str] = &[
    "model.ipc",
    "model.seesaw_speedup_pct",
    "model.l1_energy_saving_pct",
    "model.superpage_ref_fraction",
];

/// Whether `name` is a legal metric or workload name.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Workload;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside simbench/")
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        let workloads = Workload::ALL.iter().map(|w| w.name());
        let metrics = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name);
        for name in workloads.chain(metrics).chain(MODEL.iter().copied()) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(!valid_name("cell hot"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
    }
}
