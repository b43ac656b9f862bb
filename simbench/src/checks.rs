//! Correctness checks. Each check is a pure function of simulator
//! outputs that returns `Err(reason)` on failure; [`Tally`] counts every
//! attempt and failure into the reported `ok_share`.

use seesaw_sim::{RunConfig, RunResult, SimError, StoredOutcome};
use seesaw_trace::MetricValue;

use crate::stats::Fnv;

/// Attempted and failed operations of one repetition.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (cells run plus checks made).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {reason}"));
        }
    }

    /// Counts one cell's outcome and hands back its result when it ran.
    pub fn cell<'a>(
        &mut self,
        label: &str,
        outcome: &'a Result<RunResult, SimError>,
    ) -> Option<&'a RunResult> {
        self.record(
            label,
            outcome.as_ref().map(|_| ()).map_err(|e| e.to_string()),
        );
        outcome.as_ref().ok()
    }
}

/// FNV-1a over every entry of the result's metrics registry (sorted
/// keys, tagged exact values): equal digests mean equal statistics.
pub fn digest(result: &RunResult) -> u64 {
    let mut h = Fnv::default();
    for (key, value) in result.metrics.iter() {
        h.bytes(key.as_bytes());
        match value {
            MetricValue::U64(v) => {
                h.bytes(b"u");
                h.u64(v);
            }
            MetricValue::F64(v) => {
                h.bytes(b"f");
                h.u64(v.to_bits());
            }
        }
    }
    h.finish()
}

/// Two runs of one configuration produced identical statistics.
pub fn same_digest(first: u64, second: u64) -> Result<(), String> {
    if first == second {
        Ok(())
    } else {
        Err(format!("digest {first:016x} then {second:016x}"))
    }
}

/// A record read back from the store decodes to the in-memory result.
pub fn stored_matches(stored: Option<StoredOutcome>, expected: &RunResult) -> Result<(), String> {
    match stored {
        Some(StoredOutcome::Result(stored)) => same_digest(digest(expected), digest(&stored)),
        Some(StoredOutcome::Failure(e)) => Err(format!("stored as a failure: {e}")),
        None => Err("no record".into()),
    }
}

/// Every core measured at least the configured budget.
pub fn budget_met(config: &RunConfig, result: &RunResult) -> Result<(), String> {
    if result.cores.len() != config.cores {
        return Err(format!(
            "{} core results for {} cores",
            result.cores.len(),
            config.cores
        ));
    }
    match result
        .cores
        .iter()
        .find(|c| c.totals.instructions < config.instructions)
    {
        Some(c) => Err(format!(
            "core {} measured {} < budget {}",
            c.core, c.totals.instructions, config.instructions
        )),
        None => Ok(()),
    }
}

/// Ways read per L1 demand access.
pub fn ways_per_access(result: &RunResult) -> f64 {
    result.l1.ways_probed as f64 / result.l1.accesses().max(1) as f64
}

/// SEESAW never reads more ways per access than the baseline it pairs
/// with.
pub fn seesaw_reads_fewer_ways(base: &RunResult, seesaw: &RunResult) -> Result<(), String> {
    let (b, s) = (ways_per_access(base), ways_per_access(seesaw));
    if s <= b {
        Ok(())
    } else {
        Err(format!("SEESAW reads {s:.3} ways/access, baseline {b:.3}"))
    }
}

/// A checker run reported a summary with no violation.
pub fn checker_clean(result: &RunResult) -> Result<(), String> {
    match &result.checker {
        None => Err("no checker summary".into()),
        Some(s) if s.violations.total() > 0 => Err(format!("{} violations", s.violations.total())),
        Some(s) if s.loads_checked == 0 => Err("checker verified no load".into()),
        Some(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_sim::{L1DesignKind, System};

    fn run(config: &RunConfig) -> RunResult {
        System::build(config).unwrap().run().unwrap()
    }

    fn small(design: L1DesignKind) -> RunConfig {
        RunConfig::paper("redis")
            .design(design)
            .instructions(20_000)
            .warmup(5_000)
    }

    #[test]
    fn digest_fires_on_a_perturbed_metric() {
        let r = run(&small(L1DesignKind::Seesaw));
        assert!(same_digest(digest(&r), digest(&run(&small(L1DesignKind::Seesaw)))).is_ok());
        let mut p = r.clone();
        p.metrics.set_u64("l1.hits", r.l1.hits + 1);
        assert!(same_digest(digest(&r), digest(&p)).is_err());
    }

    #[test]
    fn store_check_fires_on_a_perturbed_or_missing_record() {
        let r = run(&small(L1DesignKind::Seesaw));
        assert!(stored_matches(Some(StoredOutcome::Result(Box::new(r.clone()))), &r).is_ok());
        let mut p = r.clone();
        p.metrics.set_u64("l1.misses", r.l1.misses + 1);
        assert!(stored_matches(Some(StoredOutcome::Result(Box::new(p))), &r).is_err());
        assert!(stored_matches(None, &r).is_err());
    }

    #[test]
    fn budget_check_fires_on_a_short_core() {
        let config = small(L1DesignKind::Seesaw);
        let r = run(&config);
        assert!(budget_met(&config, &r).is_ok());
        let mut p = r.clone();
        p.cores[0].totals.instructions = config.instructions - 1;
        assert!(budget_met(&config, &p).is_err());
        p.cores.clear();
        assert!(budget_met(&config, &p).is_err());
    }

    #[test]
    fn ways_check_fires_when_seesaw_reads_more() {
        let base = run(&small(L1DesignKind::BaselineVipt));
        let seesaw = run(&small(L1DesignKind::Seesaw));
        assert!(seesaw_reads_fewer_ways(&base, &seesaw).is_ok());
        assert!(seesaw_reads_fewer_ways(&seesaw, &base).is_err());
    }

    #[test]
    fn checker_check_fires_on_a_violation_or_a_missing_summary() {
        let r = run(&small(L1DesignKind::Seesaw).with_checker());
        assert!(checker_clean(&r).is_ok());
        let mut p = r.clone();
        p.checker.as_mut().unwrap().violations.stale_translation += 1;
        assert!(checker_clean(&p).is_err());
        p.checker = None;
        assert!(checker_clean(&p).is_err());
    }

    #[test]
    fn tally_counts_failed_cells() {
        let mut t = Tally::default();
        let err: Result<RunResult, SimError> = Err(SimError::Skipped { cell: "x".into() });
        assert!(t.cell("x", &err).is_none());
        t.record("ok", Ok(()));
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
