//! Baseline L1 designs: conventional VIPT (the paper's baseline) and PIPT
//! with arbitrary associativity (the Fig. 14 alternatives).

use seesaw_cache::{
    CacheConfig, CacheStats, IndexPolicy, MoesiState, MruWayPredictor, SetAssocCache, WayMask,
    WayPredictionStats,
};
use seesaw_mem::PhysAddr;

use crate::{
    DesignStats, FlexibleIndex, L1AccessOutcome, L1DataCache, L1Request, L1Timing, LookupCase,
    TranslationOverlap,
};

/// A conventional L1: full-set lookups at the slow hit time. VIPT indexes
/// with the virtual address in parallel with the TLB; PIPT must wait for
/// the translation ([`TranslationOverlap::Serial`]).
///
/// # Example
/// ```
/// use seesaw_cache::{CacheConfig, IndexPolicy};
/// use seesaw_core::{BaselineL1, L1DataCache, L1Request, L1Timing};
/// use seesaw_mem::{PageSize, PhysAddr, VirtAddr};
///
/// let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
/// let mut l1 = BaselineL1::new(cfg, L1Timing { fast_cycles: 2, slow_cycles: 2 }, false);
/// let req = L1Request {
///     va: VirtAddr::new(0x1000),
///     pa: PhysAddr::new(0x8000),
///     page_size: PageSize::Base4K,
///     is_write: false,
/// };
/// assert!(!l1.access(&req).hit);
/// assert!(l1.access(&req).hit);
/// ```
#[derive(Debug, Clone)]
pub struct BaselineL1 {
    config: CacheConfig,
    timing: L1Timing,
    cache: SetAssocCache,
    waypred: Option<MruWayPredictor>,
    /// Cached geometry so the per-access path never re-derives it.
    full: WayMask,
    index: FlexibleIndex,
}

impl BaselineL1 {
    /// Builds a baseline L1. `way_prediction` attaches an MRU predictor
    /// over the full set (the WP design of Fig. 15).
    pub fn new(config: CacheConfig, timing: L1Timing, way_prediction: bool) -> Self {
        let sets = config.sets();
        Self {
            cache: SetAssocCache::new(config),
            waypred: way_prediction.then(|| MruWayPredictor::new(sets, 1)),
            full: WayMask::all(config.ways),
            index: FlexibleIndex::new(
                sets,
                config.line_bytes,
                config.indexing.indexes_with_virtual_address(),
            ),
            config,
            timing,
        }
    }

    #[inline]
    fn set_of_addr(&self, addr: u64) -> usize {
        self.index.set_of_raw(addr)
    }

    /// Way-predictor counters, if one is attached (`l1.waypred.*`).
    pub fn way_prediction_stats(&self) -> Option<WayPredictionStats> {
        self.waypred.as_ref().map(|wp| wp.stats())
    }

    fn ptag(&self, pa: PhysAddr) -> u64 {
        self.config.line_of(pa)
    }
}

impl L1DataCache for BaselineL1 {
    fn access(&mut self, req: &L1Request) -> L1AccessOutcome {
        let set = self.set_of_addr(if self.index.virtual_index {
            req.va.raw()
        } else {
            req.pa.raw()
        });
        let ptag = self.ptag(req.pa);
        let full = self.full;

        let mut latency = self.timing.slow_cycles;
        let mut way_prediction_correct = None;
        let result = if let Some(wp) = self.waypred.as_mut() {
            match wp.predict(set, 0) {
                Some(w) if self.cache.peek(set, ptag, WayMask::single(w)).is_some() => {
                    way_prediction_correct = Some(true);
                    self.cache.read(set, ptag, WayMask::single(w))
                }
                Some(_) => {
                    way_prediction_correct = Some(false);
                    latency += self.timing.slow_cycles; // second probe round
                    self.cache.read(set, ptag, full)
                }
                None => self.cache.read(set, ptag, full),
            }
        } else {
            self.cache.read(set, ptag, full)
        };

        let mut evicted = None;
        if result.hit {
            if req.is_write {
                // The probe above already found and touched the line; just
                // upgrade its state (no extra probe, no extra counters).
                self.cache.set_line_state(set, ptag, MoesiState::Modified);
            }
            if let (Some(wp), Some(w)) = (self.waypred.as_mut(), result.way) {
                wp.update(set, 0, w);
            }
        } else {
            evicted = self.cache.fill(set, ptag, full, req.is_write);
            if let Some(wp) = self.waypred.as_mut() {
                if let Some(w) = self.cache.resident_way(set, ptag) {
                    wp.update(set, 0, w);
                }
            }
        }

        L1AccessOutcome {
            hit: result.hit,
            latency_cycles: latency,
            ways_probed: result.ways_probed,
            case: LookupCase::Conventional,
            tft_hit: None,
            evicted,
            fast_assumption_held: true,
            way_prediction_correct,
            unverified_alias_way: None,
        }
    }

    fn coherence_probe(&mut self, pa: PhysAddr, invalidate: bool) -> (bool, usize) {
        let set = self.set_of_addr(pa.raw());
        let ptag = self.ptag(pa);
        let full = self.full;
        let present = self.cache.coherence_probe(set, ptag, full, invalidate);
        (present.is_some(), full.count())
    }

    fn total_ways(&self) -> usize {
        self.config.ways
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn timing(&self) -> L1Timing {
        self.timing
    }

    /// PIPT must wait for the translation before it can index.
    fn translation(&self) -> TranslationOverlap {
        if self.config.indexing == IndexPolicy::Pipt {
            TranslationOverlap::Serial
        } else {
            TranslationOverlap::Overlapped
        }
    }

    fn design_stats(&self) -> DesignStats {
        DesignStats {
            way_prediction: self.way_prediction_stats(),
            ..DesignStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_mem::{PageSize, VirtAddr};

    fn req(va: u64, pa: u64) -> L1Request {
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(pa),
            page_size: PageSize::Base4K,
            is_write: false,
        }
    }

    fn timing() -> L1Timing {
        L1Timing {
            fast_cycles: 2,
            slow_cycles: 2,
        }
    }

    #[test]
    fn vipt_baseline_always_probes_all_ways() {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut l1 = BaselineL1::new(cfg, timing(), false);
        let r = req(0x1040, 0x8040);
        let out = l1.access(&r);
        assert_eq!(out.ways_probed, 8);
        assert_eq!(out.case, LookupCase::Conventional);
        assert_eq!(l1.translation(), TranslationOverlap::Overlapped);
        let out = l1.access(&r);
        assert!(out.hit);
        assert_eq!(out.latency_cycles, 2);
    }

    #[test]
    fn pipt_baseline_serializes_translation() {
        let cfg = CacheConfig::new(32 << 10, 4, 64, IndexPolicy::Pipt);
        let l1 = BaselineL1::new(cfg, timing(), false);
        assert_eq!(l1.translation(), TranslationOverlap::Serial);
    }

    #[test]
    fn pipt_indexes_with_physical_bits() {
        // 128 sets (4-way 32 KB PIPT): index bit 12 comes from the PA.
        let cfg = CacheConfig::new(32 << 10, 4, 64, IndexPolicy::Pipt);
        let mut l1 = BaselineL1::new(cfg, timing(), false);
        l1.access(&req(0x0040, 0x1040));
        // Same VA, different PA bit 12 → different set, so no hit.
        let out = l1.access(&req(0x0040, 0x0040));
        assert!(!out.hit);
        // Original PA hits.
        assert!(l1.access(&req(0x0040, 0x1040)).hit);
    }

    #[test]
    fn coherence_pays_full_associativity() {
        let cfg = CacheConfig::new(64 << 10, 16, 64, IndexPolicy::Vipt);
        let mut l1 = BaselineL1::new(cfg, timing(), false);
        let (_, ways) = l1.coherence_probe(PhysAddr::new(0x9040), false);
        assert_eq!(ways, 16, "baseline coherence probes every way");
    }

    #[test]
    fn way_prediction_saves_energy_not_latency() {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut l1 = BaselineL1::new(cfg, timing(), true);
        let r = req(0x2040, 0x9040);
        l1.access(&r); // fill + train
        let out = l1.access(&r);
        assert_eq!(out.way_prediction_correct, Some(true));
        assert_eq!(out.ways_probed, 1);
        assert_eq!(out.latency_cycles, 2, "tag compare still waits for the TLB");
    }

    #[test]
    fn way_misprediction_adds_latency() {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut l1 = BaselineL1::new(cfg, timing(), true);
        let a = req(0x2040, 0x9040);
        let b = req(0x2040 + (32 << 10), 0x19040); // same set, different line
        l1.access(&a);
        l1.access(&b); // retrains to b's way
        let out = l1.access(&a);
        assert_eq!(out.way_prediction_correct, Some(false));
        assert_eq!(out.latency_cycles, 4, "second probe round");
        assert_eq!(out.ways_probed, 8);
    }
}
