//! Energy accounting: accumulates per-event energies into the breakdown
//! the paper reports (CPU-side vs coherence, Fig. 11; whole hierarchy,
//! Fig. 10).

use seesaw_trace::{Collect, MetricsRegistry};

use crate::EnergyModel;

/// Accumulated energy, in nJ, split by source.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// L1 dynamic energy from CPU-side lookups.
    pub l1_cpu_nj: f64,
    /// L1 dynamic energy from coherence lookups.
    pub l1_coherence_nj: f64,
    /// L1 fill energy.
    pub l1_fill_nj: f64,
    /// TLB + page-walk energy.
    pub translation_nj: f64,
    /// TFT lookup energy (SEESAW only).
    pub tft_nj: f64,
    /// L2 + LLC dynamic energy.
    pub outer_cache_nj: f64,
    /// DRAM access energy.
    pub dram_nj: f64,
    /// Leakage over the run.
    pub leakage_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_nj(&self) -> f64 {
        self.l1_cpu_nj
            + self.l1_coherence_nj
            + self.l1_fill_nj
            + self.translation_nj
            + self.tft_nj
            + self.outer_cache_nj
            + self.dram_nj
            + self.leakage_nj
    }

    /// Fraction of a saving versus `baseline` attributable to coherence
    /// lookups (Fig. 11's split). Returns `(cpu_side, coherence)` shares
    /// of the total saving, each in `[0, 1]`.
    pub fn savings_split(&self, baseline: &EnergyBreakdown) -> (f64, f64) {
        let coh_saving = baseline.l1_coherence_nj - self.l1_coherence_nj;
        let total_saving = baseline.total_nj() - self.total_nj();
        if total_saving <= 0.0 {
            return (0.0, 0.0);
        }
        let coh = (coh_saving / total_saving).clamp(0.0, 1.0);
        (1.0 - coh, coh)
    }
}

impl Collect for EnergyBreakdown {
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry) {
        let EnergyBreakdown {
            l1_cpu_nj,
            l1_coherence_nj,
            l1_fill_nj,
            translation_nj,
            tft_nj,
            outer_cache_nj,
            dram_nj,
            leakage_nj,
        } = *self;
        out.set_f64(&format!("{prefix}.l1_cpu_nj"), l1_cpu_nj);
        out.set_f64(&format!("{prefix}.l1_coherence_nj"), l1_coherence_nj);
        out.set_f64(&format!("{prefix}.l1_fill_nj"), l1_fill_nj);
        out.set_f64(&format!("{prefix}.translation_nj"), translation_nj);
        out.set_f64(&format!("{prefix}.tft_nj"), tft_nj);
        out.set_f64(&format!("{prefix}.outer_cache_nj"), outer_cache_nj);
        out.set_f64(&format!("{prefix}.dram_nj"), dram_nj);
        out.set_f64(&format!("{prefix}.leakage_nj"), leakage_nj);
        out.set_f64(&format!("{prefix}.total_nj"), self.total_nj());
    }
}

/// Accumulates events against an [`EnergyModel`] for one L1 configuration.
///
/// The L1 lookup energies of the configuration — one per probed-way
/// count, `0..=ways` — are priced once, when the account is made, so a
/// lookup costs a table read instead of the SRAM model's interpolation.
///
/// # Example
/// ```
/// use seesaw_energy::{EnergyAccount, EnergyModel, SramModel};
/// let model = EnergyModel::new(SramModel::tsmc28_scaled_22nm());
/// let mut acct = EnergyAccount::new(model, 32, 8);
/// acct.cpu_lookup(8);
/// acct.cpu_lookup(4);
/// let breakdown = acct.finish(1000.0);
/// assert!(breakdown.l1_cpu_nj > 0.0);
/// assert!(breakdown.leakage_nj > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyAccount {
    model: EnergyModel,
    l1_size_kb: u64,
    l1_ways: usize,
    /// `lookup_nj[w]`: energy of one L1 lookup probing `w` ways.
    lookup_nj: Box<[f64]>,
    acc: EnergyBreakdown,
}

impl EnergyAccount {
    /// Creates an account for an L1 of the given geometry.
    pub fn new(model: EnergyModel, l1_size_kb: u64, l1_ways: usize) -> Self {
        let lookup_nj = (0..=l1_ways)
            .map(|w| model.l1_lookup_nj(l1_size_kb, l1_ways, w))
            .collect();
        Self {
            model,
            l1_size_kb,
            l1_ways,
            lookup_nj,
            acc: EnergyBreakdown::default(),
        }
    }

    /// A CPU-side L1 lookup probing `ways_probed` ways.
    ///
    /// `ways_probed` may exceed the cache's associativity when one
    /// access takes several probe rounds — a µtag alias pays a discarded
    /// single-way probe plus a full-set round, and VESPA base-page
    /// accesses pay the full set plus the wasted narrow probe. Each
    /// full-associativity chunk is charged as its own round.
    pub fn cpu_lookup(&mut self, mut ways_probed: usize) {
        while ways_probed > self.l1_ways {
            self.acc.l1_cpu_nj += self.lookup_nj[self.l1_ways];
            ways_probed -= self.l1_ways;
        }
        self.acc.l1_cpu_nj += self.lookup_nj[ways_probed];
    }

    /// A coherence L1 lookup probing `ways_probed` ways.
    ///
    /// # Panics
    /// Panics if `ways_probed` exceeds the associativity.
    pub fn coherence_lookup(&mut self, ways_probed: usize) {
        self.acc.l1_coherence_nj += self.lookup_nj[ways_probed];
    }

    /// An L1 line fill.
    pub fn l1_fill(&mut self) {
        self.acc.l1_fill_nj += self.model.costs().l1_fill_nj;
    }

    /// An L1 TLB lookup.
    pub fn tlb_l1(&mut self) {
        self.acc.translation_nj += self.model.costs().tlb_l1_nj;
    }

    /// An L2 TLB lookup.
    pub fn tlb_l2(&mut self) {
        self.acc.translation_nj += self.model.costs().tlb_l2_nj;
    }

    /// A page-table walk.
    pub fn page_walk(&mut self) {
        self.acc.translation_nj += self.model.costs().walk_nj;
    }

    /// A TFT lookup.
    pub fn tft_lookup(&mut self) {
        self.acc.tft_nj += self.model.costs().tft_nj;
    }

    /// An L2 cache access.
    pub fn l2_access(&mut self) {
        self.acc.outer_cache_nj += self.model.costs().l2_nj;
    }

    /// An LLC access.
    pub fn llc_access(&mut self) {
        self.acc.outer_cache_nj += self.model.costs().llc_nj;
    }

    /// A DRAM access.
    pub fn dram_access(&mut self) {
        self.acc.dram_nj += self.model.costs().dram_nj;
    }

    /// Finalizes the account, charging leakage for the run's duration.
    pub fn finish(self, runtime_ns: f64) -> EnergyBreakdown {
        self.finish_many(runtime_ns, 1)
    }

    /// Finalizes a multi-core account: dynamic energy has accumulated
    /// across all cores already, but leakage scales with the number of
    /// L1 instances powered for the run's duration. `finish_many(ns, 1)`
    /// is bit-identical to [`EnergyAccount::finish`].
    pub fn finish_many(mut self, runtime_ns: f64, l1_instances: u64) -> EnergyBreakdown {
        self.acc.leakage_nj =
            self.model.l1_leakage_nj(self.l1_size_kb, runtime_ns) * l1_instances as f64;
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SramModel;

    fn model() -> EnergyModel {
        EnergyModel::new(SramModel::tsmc28_scaled_22nm())
    }

    #[test]
    fn narrower_lookups_cost_less_energy() {
        let mut wide = EnergyAccount::new(model(), 32, 8);
        let mut narrow = EnergyAccount::new(model(), 32, 8);
        for _ in 0..100 {
            wide.cpu_lookup(8);
            narrow.cpu_lookup(4);
        }
        let (w, n) = (wide.finish(0.0), narrow.finish(0.0));
        let saving = 1.0 - n.l1_cpu_nj / w.l1_cpu_nj;
        assert!((0.39..0.40).contains(&saving), "saving {saving}");
    }

    #[test]
    fn savings_split_attributes_coherence() {
        let mut base = EnergyAccount::new(model(), 32, 8);
        let mut seesaw = EnergyAccount::new(model(), 32, 8);
        for _ in 0..100 {
            base.cpu_lookup(8);
            base.coherence_lookup(8);
            seesaw.cpu_lookup(4);
            seesaw.coherence_lookup(4);
        }
        let (b, s) = (base.finish(0.0), seesaw.finish(0.0));
        let (cpu, coh) = s.savings_split(&b);
        assert!((cpu - 0.5).abs() < 1e-9, "equal lookups → 50/50, got {cpu}");
        assert!((coh - 0.5).abs() < 1e-9);
    }

    #[test]
    fn total_sums_all_components() {
        let mut acct = EnergyAccount::new(model(), 64, 16);
        acct.cpu_lookup(16);
        acct.l1_fill();
        acct.tlb_l1();
        acct.tlb_l2();
        acct.page_walk();
        acct.tft_lookup();
        acct.l2_access();
        acct.llc_access();
        acct.dram_access();
        let b = acct.finish(500.0);
        let manual = b.l1_cpu_nj
            + b.l1_coherence_nj
            + b.l1_fill_nj
            + b.translation_nj
            + b.tft_nj
            + b.outer_cache_nj
            + b.dram_nj
            + b.leakage_nj;
        assert!((b.total_nj() - manual).abs() < 1e-12);
        assert!(b.dram_nj > b.outer_cache_nj, "one DRAM access dominates");
    }

    #[test]
    fn no_saving_yields_zero_split() {
        let b = EnergyBreakdown::default();
        assert_eq!(b.savings_split(&b), (0.0, 0.0));
    }

    #[test]
    fn faster_run_leaks_less() {
        let acct = |ns: f64| EnergyAccount::new(model(), 32, 8).finish(ns);
        assert!(acct(1000.0).leakage_nj < acct(2000.0).leakage_nj);
    }

    #[test]
    fn table_lookups_are_bit_equal_to_the_model() {
        // Every geometry `build_l1` produces, every width up to the
        // associativity, and multi-round widths above it.
        let m = model();
        for size_kb in [32, 64, 128] {
            for ways in [4, 8, 16, 32] {
                let mut acct = EnergyAccount::new(m, size_kb, ways);
                let (mut cpu, mut coherence) = (0.0_f64, 0.0_f64);
                for w in 0..=3 * ways {
                    acct.cpu_lookup(w);
                    let mut left = w;
                    while left > ways {
                        cpu += m.l1_lookup_nj(size_kb, ways, ways);
                        left -= ways;
                    }
                    cpu += m.l1_lookup_nj(size_kb, ways, left);
                    if w <= ways {
                        acct.coherence_lookup(w);
                        coherence += m.l1_lookup_nj(size_kb, ways, w);
                    }
                }
                let b = acct.finish(0.0);
                assert_eq!(
                    b.l1_cpu_nj.to_bits(),
                    cpu.to_bits(),
                    "{size_kb} KB {ways}-way"
                );
                assert_eq!(
                    b.l1_coherence_nj.to_bits(),
                    coherence.to_bits(),
                    "{size_kb} KB {ways}-way"
                );
            }
        }
    }
}
