//! VESPA: parallel superpage-aware L1 lookup (arxiv 1701.03499).
//!
//! VESPA is the SEESAW authors' follow-on design: keep the
//! way-partitioned VIPT array and the superpage observation (partition
//! bits inside a 2 MB offset are translation-invariant), but drop the
//! TFT. Instead, every access launches the narrow partition probe
//! speculatively in parallel with the L1 TLB; when the translation
//! arrives one cycle later with "superpage", the narrow probe *is* the
//! answer (fast latency, partition energy). When it says "base page",
//! the narrow probe is discarded — its energy is wasted — and the
//! conservative full-set lookup proceeds at the usual latency.
//!
//! Relative to SEESAW this trades the TFT's area/lookups and its miss
//! cases (Table I row 3 disappears: *every* superpage access is fast)
//! against wasted narrow-probe energy on base-page accesses — exactly
//! the kind of head-to-head the competing-design lab exists to measure.

use seesaw_cache::{CacheStats, MoesiState, SetAssocCache};
use seesaw_mem::{PageFrame, PageTableOp, PhysAddr};
use seesaw_trace::{Collect, MetricsRegistry};

use crate::sweep::{partitioned_audit, sweep_frames};
use crate::{
    DesignStats, InsertionPolicy, L1AccessOutcome, L1DataCache, L1Request, L1Timing, LookupCase,
    PartitionDecoder, PromotionAudit, SeesawConfig, VespaPartitioning, VirtualIndex,
};

/// Configuration of a VESPA L1: the SEESAW geometry without the TFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VespaConfig {
    /// The underlying VIPT geometry.
    pub cache: seesaw_cache::CacheConfig,
    /// Partition count.
    pub partitions: usize,
    /// Insertion policy (`FourWay` keeps coherence narrow).
    pub insertion: InsertionPolicy,
}

impl VespaConfig {
    /// A VESPA design of `size_kb` KB with the same geometry rules as
    /// [`SeesawConfig::with_size_kb`].
    ///
    /// # Panics
    /// Panics if `size_kb` doesn't yield a whole number of 4-way
    /// partitions over 64 sets.
    pub fn with_size_kb(size_kb: u64) -> Self {
        let seesaw = SeesawConfig::with_size_kb(size_kb);
        Self {
            cache: seesaw.cache,
            partitions: seesaw.partitions,
            insertion: seesaw.insertion,
        }
    }
}

/// VESPA-specific counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VespaStats {
    /// Superpage accesses served by the narrow parallel probe that hit.
    pub super_fast_hits: u64,
    /// Superpage accesses served by the narrow parallel probe that missed.
    pub super_fast_misses: u64,
    /// Base-page accesses (full-set lookup).
    pub base_accesses: u64,
    /// Ways probed by narrow parallel probes that were discarded because
    /// the translation said base page — VESPA's energy tax.
    pub wasted_probe_ways: u64,
    /// Promotion sweeps executed.
    pub sweeps: u64,
    /// Lines evicted by promotion sweeps.
    pub swept_lines: u64,
}

crate::stats::counter_arith!(VespaStats {
    super_fast_hits,
    super_fast_misses,
    base_accesses,
    wasted_probe_ways,
    sweeps,
    swept_lines,
});

impl VespaStats {
    /// Fraction of accesses that took the fast superpage path.
    pub fn fast_fraction(&self) -> f64 {
        let total = self.super_fast_hits + self.super_fast_misses + self.base_accesses;
        if total == 0 {
            0.0
        } else {
            (self.super_fast_hits + self.super_fast_misses) as f64 / total as f64
        }
    }
}

impl Collect for VespaStats {
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry) {
        let VespaStats {
            super_fast_hits,
            super_fast_misses,
            base_accesses,
            wasted_probe_ways,
            sweeps,
            swept_lines,
        } = *self;
        out.set_u64(&format!("{prefix}.super_fast_hits"), super_fast_hits);
        out.set_u64(&format!("{prefix}.super_fast_misses"), super_fast_misses);
        out.set_u64(&format!("{prefix}.base_accesses"), base_accesses);
        out.set_u64(&format!("{prefix}.wasted_probe_ways"), wasted_probe_ways);
        out.set_u64(&format!("{prefix}.sweeps"), sweeps);
        out.set_u64(&format!("{prefix}.swept_lines"), swept_lines);
        out.set_f64(&format!("{prefix}.fast_fraction"), self.fast_fraction());
    }
}

/// The VESPA L1 data cache: superpage-aware narrow lookups without a
/// TFT. Composed from the same policy layer as SEESAW
/// ([`VirtualIndex`] + [`VespaPartitioning`]).
#[derive(Debug, Clone)]
pub struct VespaL1 {
    config: VespaConfig,
    timing: L1Timing,
    cache: SetAssocCache,
    decoder: PartitionDecoder,
    policy: VespaPartitioning,
    index: VirtualIndex,
    stats: VespaStats,
}

impl VespaL1 {
    /// Builds a VESPA L1.
    pub fn new(config: VespaConfig, timing: L1Timing) -> Self {
        let sets = config.cache.sets();
        let decoder = PartitionDecoder::new(
            sets,
            config.cache.ways,
            config.cache.line_bytes,
            config.partitions,
        );
        let policy = VespaPartitioning::new(&decoder, config.insertion, timing);
        Self {
            cache: SetAssocCache::new(config.cache),
            decoder,
            policy,
            index: VirtualIndex::new(sets, config.cache.line_bytes),
            stats: VespaStats::default(),
            config,
            timing,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &VespaConfig {
        &self.config
    }

    /// VESPA-specific counters.
    pub fn vespa_stats(&self) -> VespaStats {
        self.stats
    }

    fn ptag(&self, pa: PhysAddr) -> u64 {
        self.config.cache.line_of(pa)
    }
}

impl L1DataCache for VespaL1 {
    fn access(&mut self, req: &L1Request) -> L1AccessOutcome {
        let set = self.index.set_of_raw(req.va.raw());
        let p_va = self.decoder.partition_of_va(req.va);
        let ptag = self.ptag(req.pa);
        let is_superpage = req.page_size.is_superpage();
        let plan = self.policy.plan_row(is_superpage, p_va);

        let result = self.cache.read(set, ptag, plan.mask);
        // Base pages pay for the discarded speculative narrow probe: its
        // ways count toward lookup energy but find nothing usable.
        let mut ways_probed = result.ways_probed;
        if !is_superpage {
            let wasted = self.policy.ways_per_partition();
            ways_probed += wasted;
            self.stats.wasted_probe_ways += wasted as u64;
        }

        let mut case = plan.case;
        let mut evicted = None;
        if result.hit {
            if req.is_write {
                self.cache.set_line_state(set, ptag, MoesiState::Modified);
            }
        } else {
            if case == LookupCase::SuperTftHitCacheHit {
                case = LookupCase::SuperTftHitCacheMiss;
            }
            let p_pa = self.decoder.partition_of_pa(req.pa);
            debug_assert!(
                !is_superpage || p_pa == p_va,
                "superpage partition bits must match between VA and PA"
            );
            let victim_mask = self.policy.victim_row(is_superpage, p_pa);
            evicted = self.cache.fill(set, ptag, victim_mask, req.is_write);
        }

        match case {
            LookupCase::SuperTftHitCacheHit => self.stats.super_fast_hits += 1,
            LookupCase::SuperTftHitCacheMiss => self.stats.super_fast_misses += 1,
            LookupCase::BasePage => self.stats.base_accesses += 1,
            _ => unreachable!("VESPA access is fast-super or base-page"),
        }

        L1AccessOutcome {
            hit: result.hit,
            latency_cycles: plan.latency,
            ways_probed,
            case,
            tft_hit: None,
            evicted,
            fast_assumption_held: plan.fast_held,
            way_prediction_correct: None,
            unverified_alias_way: None,
        }
    }

    fn coherence_probe(&mut self, pa: PhysAddr, invalidate: bool) -> (bool, usize) {
        let set = self.index.set_of_raw(pa.raw());
        let ptag = self.ptag(pa);
        let mask = self.policy.coherence_row(self.decoder.partition_of_pa(pa));
        let present = self.cache.coherence_probe(set, ptag, mask, invalidate);
        (present.is_some(), mask.count())
    }

    fn total_ways(&self) -> usize {
        self.config.cache.ways
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn timing(&self) -> L1Timing {
        self.timing
    }

    /// One partition, as in SEESAW (§IV-C1).
    fn probe_ways(&self) -> usize {
        (self.config.cache.ways / self.config.partitions).max(1)
    }

    /// No TFT to invalidate: only promotions matter, with the same L1
    /// sweep as SEESAW (partition residency is a correctness invariant for
    /// the always-fast superpage lookups).
    fn handle_op(&mut self, op: &PageTableOp) {
        if let PageTableOp::Promoted { old_frames, .. } = op {
            self.stats.sweeps += 1;
            self.stats.swept_lines += sweep_frames(&mut self.cache, old_frames);
        }
    }

    fn promotion_audit(&self, old_frames: &[PageFrame]) -> PromotionAudit {
        partitioned_audit(
            &self.cache,
            &self.decoder,
            self.config.insertion,
            old_frames,
        )
    }

    fn design_stats(&self) -> DesignStats {
        DesignStats {
            vespa: Some(self.stats),
            ..DesignStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_mem::{PageSize, VirtAddr};

    fn timing() -> L1Timing {
        L1Timing {
            fast_cycles: 1,
            slow_cycles: 2,
        }
    }

    fn super_req(va: u64, is_write: bool) -> L1Request {
        let frame = 0x1fa0_0000u64;
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(frame | (va & 0x1f_ffff)),
            page_size: PageSize::Super2M,
            is_write,
        }
    }

    fn base_req_flipped(va: u64) -> L1Request {
        let pa = (0x8_0000u64 | (va & 0xfff)) ^ 0x1000;
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(pa),
            page_size: PageSize::Base4K,
            is_write: false,
        }
    }

    #[test]
    fn superpage_is_always_fast_and_narrow() {
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
        let req = super_req(0x4000_1040, false);
        // No TFT to warm: even the very first access is narrow + fast.
        let miss = l1.access(&req);
        assert!(!miss.hit);
        assert_eq!(miss.case, LookupCase::SuperTftHitCacheMiss);
        assert_eq!(miss.ways_probed, 4);
        assert_eq!(miss.latency_cycles, 1);
        let hit = l1.access(&req);
        assert!(hit.hit);
        assert_eq!(hit.case, LookupCase::SuperTftHitCacheHit);
        assert_eq!(hit.latency_cycles, 1);
        assert!(hit.fast_assumption_held);
        assert_eq!(l1.vespa_stats().super_fast_hits, 1);
    }

    #[test]
    fn base_page_pays_full_lookup_plus_wasted_probe() {
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
        let req = base_req_flipped(0x7000_1040);
        let out = l1.access(&req);
        assert_eq!(out.case, LookupCase::BasePage);
        assert_eq!(out.latency_cycles, 2);
        assert_eq!(out.ways_probed, 8 + 4, "full set + discarded narrow probe");
        assert_eq!(l1.vespa_stats().wasted_probe_ways, 4);
        assert!(l1.access(&req).hit, "base pages still cache normally");
    }

    #[test]
    fn base_page_line_lands_in_physical_partition() {
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
        let req = base_req_flipped(0x7000_1040); // VA bit12=1, PA bit12=0
        l1.access(&req);
        let (present, ways) = l1.coherence_probe(req.pa, false);
        assert!(present, "narrow coherence probe must find the line");
        assert_eq!(ways, 4);
        assert_eq!(
            l1.promotion_audit(&[]),
            PromotionAudit::Partitioned {
                resident: 0,
                unreachable: Some(0)
            }
        );
    }

    #[test]
    fn promotion_sweep_evicts_old_frames() {
        use seesaw_mem::{PageFrame, VirtPage};
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
        let old_frame = PageFrame::new(PhysAddr::new(0x8000), PageSize::Base4K);
        let req = L1Request {
            va: VirtAddr::new(0x7000_0040),
            pa: PhysAddr::new(0x8040),
            page_size: PageSize::Base4K,
            is_write: true,
        };
        l1.access(&req);
        let op = PageTableOp::Promoted {
            page: VirtPage::containing(req.va, PageSize::Super2M),
            old_frames: vec![old_frame],
        };
        l1.handle_op(&op);
        assert_eq!(l1.vespa_stats().sweeps, 1);
        assert_eq!(l1.vespa_stats().swept_lines, 1);
        let (present, _) = l1.coherence_probe(req.pa, false);
        assert!(!present, "stale line must be gone after the sweep");
    }

    #[test]
    fn fast_fraction_tracks_superpage_mix() {
        let mut l1 = VespaL1::new(VespaConfig::with_size_kb(32), timing());
        l1.access(&super_req(0x4000_1040, false));
        l1.access(&base_req_flipped(0x7000_2040));
        assert!((l1.vespa_stats().fast_fraction() - 0.5).abs() < 1e-12);
    }
}
