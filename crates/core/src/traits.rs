//! The common L1 data-cache interface every design implements (baseline
//! VIPT/PIPT, SEESAW, VIVT, VESPA, µtag), so the run loop and the
//! experiment harness drive every design through one code path: the
//! trait is the whole contract between a design and the simulator.

use seesaw_cache::{CacheStats, EvictedLine};
use seesaw_mem::{PageFrame, PageSize, PageTableOp, PhysAddr, VirtAddr};

use crate::DesignStats;

/// One demand access presented to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Request {
    /// Virtual address (drives VIPT indexing and the TFT).
    pub va: VirtAddr,
    /// Physical address (drives tags; available once translation
    /// completes).
    pub pa: PhysAddr,
    /// Size of the page backing the access (ground truth from the
    /// translation; the TFT only *predicts* it).
    pub page_size: PageSize,
    /// Write or read.
    pub is_write: bool,
}

/// Which of Table I's lookup cases an access exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupCase {
    /// Superpage access, TFT hit, cache hit: partition lookup only —
    /// latency *and* energy savings.
    SuperTftHitCacheHit,
    /// Superpage access, TFT hit, cache miss: partition lookup, then the
    /// miss path — energy savings.
    SuperTftHitCacheMiss,
    /// Superpage access the TFT failed to identify: full-set fallback —
    /// no savings.
    SuperTftMiss,
    /// Base-page access (the TFT never hits for base pages): full-set
    /// lookup, identical to conventional VIPT.
    BasePage,
    /// An access on a non-SEESAW cache (baseline designs).
    Conventional,
}

/// Hit-latency parameters for an L1 design at a given geometry and clock,
/// derived from the SRAM model (Table III's two columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Timing {
    /// Cycles for a partition ("superpage") lookup.
    pub fast_cycles: u64,
    /// Cycles for a full-set ("base page") lookup.
    pub slow_cycles: u64,
}

/// The outcome of one demand access (lookup plus fill-on-miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1AccessOutcome {
    /// Whether the L1 held the line.
    pub hit: bool,
    /// L1 lookup latency in cycles (the miss path's outer-hierarchy
    /// latency is the caller's to add).
    pub latency_cycles: u64,
    /// Ways probed by the CPU-side lookup (prices dynamic energy).
    pub ways_probed: usize,
    /// Table I case.
    pub case: LookupCase,
    /// TFT consulted → hit? (`None` for baseline designs.)
    pub tft_hit: Option<bool>,
    /// Line displaced by the fill, if the access missed and evicted one.
    pub evicted: Option<EvictedLine>,
    /// True when the design's speculative "fast hit" assumption held; a
    /// `false` here makes an out-of-order scheduler squash and replay
    /// dependents (§IV-B3).
    pub fast_assumption_held: bool,
    /// Way-predictor verdict, if one is attached: `Some(true)` = correct.
    pub way_prediction_correct: Option<bool>,
    /// A µtag way prediction matched a way whose physical tag was never
    /// verified before the hit was served (chaos knob
    /// `skip_way_verification`): the way that was wrongly served. Always
    /// `None` in correct operation — verification turns aliases into
    /// mispredicts — so the checker flags any `Some` as a
    /// way-prediction-alias violation.
    pub unverified_alias_way: Option<usize>,
}

/// How a design's lookup overlaps address translation: what the run loop
/// adds to the array latency to get load-to-use latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationOverlap {
    /// PIPT: the TLB access fully precedes the array access.
    Serial,
    /// VIPT: set selection overlaps translation; the tag compare waits
    /// for the (possibly slow) translation.
    Overlapped,
    /// VIVT: hits never translate; a miss translates on its way to the L2.
    OnMiss,
}

/// The structural audit a design owes right after a promotion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromotionAudit {
    /// Nothing to audit: a physically indexed and tagged array holds no
    /// state a promotion can make stale.
    None,
    /// A partitioned design (SEESAW, VESPA): lines of the migrated-away
    /// frames still resident (the sweep must leave none), and resident
    /// lines outside the partition their physical address names (§IV-C1;
    /// `None` when the insertion policy does not pin lines to it).
    Partitioned {
        /// Resident lines of the old frames.
        resident: usize,
        /// Lines the narrow coherence probe cannot reach.
        unreachable: Option<usize>,
    },
    /// VIVT: every physical line the back-pointers name (none may lie in
    /// a freed frame).
    PhysicalMappings(Vec<u64>),
}

/// The interface every L1 design implements.
///
/// Besides the demand and coherence paths, it carries every per-design
/// fact and hook the run loop needs. The defaults describe a plain
/// physically-tagged VIPT array: full-set probes, overlapped translation,
/// no TFT, and nothing to do on page-table operations or context
/// switches. A new design is one implementation of this trait.
pub trait L1DataCache {
    /// Services a demand access: looks up the line and, on a miss, fills
    /// it (evicting per the design's insertion policy). The caller charges
    /// outer-hierarchy latency/energy for misses and writebacks.
    fn access(&mut self, req: &L1Request) -> L1AccessOutcome;

    /// Services a physically-addressed coherence probe. Returns
    /// `(line_was_present, ways_probed)`.
    fn coherence_probe(&mut self, pa: PhysAddr, invalidate: bool) -> (bool, usize);

    /// Total associativity of the design.
    fn total_ways(&self) -> usize;

    /// Aggregate cache statistics.
    fn cache_stats(&self) -> CacheStats;

    /// The hit-latency parameters the design was built with.
    fn timing(&self) -> L1Timing;

    /// Ways one coherence probe reads: the full set, unless the design
    /// pins every line to the partition its physical address names.
    fn probe_ways(&self) -> usize {
        self.total_ways()
    }

    /// How the lookup overlaps translation.
    fn translation(&self) -> TranslationOverlap {
        TranslationOverlap::Overlapped
    }

    /// True for designs with a TFT (SEESAW). The run loop then trains it
    /// on TLB superpage fills and on refresh-on-confirmation, charges TFT
    /// lookup energy, and applies the scheduler's hit-time assumption
    /// (§IV-B3) to hits on the out-of-order core.
    fn has_tft(&self) -> bool {
        false
    }

    /// Trains the TFT with a superpage region (wired to the 2 MB L1 TLB's
    /// fill events, Fig. 5 step 8). No-op without a TFT.
    fn tft_fill(&mut self, _va: VirtAddr) {}

    /// Whether the TFT vouches for `va`, asked without counting a demand
    /// lookup: the audit hook for the splinter-precision invariant
    /// (§IV-C2). `None` without a TFT.
    fn tft_probe(&self, _va: VirtAddr) -> Option<bool> {
        None
    }

    /// Reacts to a page-table operation: TFT invalidation on splinters,
    /// the L1 sweep on promotions (§IV-C2), VIVT back-pointer sweeps.
    /// Physically tagged designs without a TFT ignore them.
    fn handle_op(&mut self, _op: &PageTableOp) {}

    /// Drops ASID-less state (the TFT, a µtag) on an address-space switch
    /// (§IV-C3). Resident data stays.
    fn context_switch(&mut self) {}

    /// The structural audit to run right after a promotion migrated
    /// `old_frames` (and [`L1DataCache::handle_op`] saw it).
    fn promotion_audit(&self, _old_frames: &[PageFrame]) -> PromotionAudit {
        PromotionAudit::None
    }

    /// Design-specific counters since construction.
    fn design_stats(&self) -> DesignStats {
        DesignStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_plain_data() {
        let t = L1Timing {
            fast_cycles: 1,
            slow_cycles: 2,
        };
        assert!(t.fast_cycles < t.slow_cycles);
    }

    #[test]
    fn lookup_cases_are_distinct() {
        use LookupCase::*;
        let cases = [
            SuperTftHitCacheHit,
            SuperTftHitCacheMiss,
            SuperTftMiss,
            BasePage,
            Conventional,
        ];
        for (i, a) in cases.iter().enumerate() {
            for (j, b) in cases.iter().enumerate() {
                assert_eq!(i == j, a == b);
            }
        }
    }
}
