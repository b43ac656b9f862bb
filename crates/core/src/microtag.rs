//! Baseline VIPT + Zen2-style µtag way prediction.
//!
//! The third competitor in the design lab: keep the conventional VIPT
//! array (no partitions, no TFT) and attack lookup *energy* purely with
//! AMD Family-17h's µtag predictor ([`MicroTagPredictor`]): a short hash
//! of the virtual tag stored per (set, way) picks the single way to
//! probe. A correct prediction probes one way instead of all of them;
//! the physical tag read alongside verifies it. Because the µtag is
//! virtual and lossy, aliases happen: the predicted way holds a
//! *different* physical line, verification fails, and the access pays a
//! second full-set round (double latency — the documented Zen2 penalty).
//!
//! Serving a µtag match *without* tag verification would return another
//! address's data — the way-prediction-alias invariant the shadow
//! checker owns. The `verify_tags: false` configuration (armed by the
//! chaos knob `skip_way_verification`) models exactly that hardware bug
//! so fault-injection tests can watch the checker catch it.

use seesaw_cache::{
    CacheConfig, CacheStats, MicroTagPredictor, MoesiState, SetAssocCache, WayMask,
    WayPredictionStats,
};
use seesaw_mem::PhysAddr;

use crate::{
    DesignStats, L1AccessOutcome, L1DataCache, L1Request, L1Timing, LookupCase, VirtualIndex,
    WayPredict,
};

/// Configuration of a µtag-predicted baseline L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroTagConfig {
    /// The underlying VIPT geometry.
    pub cache: CacheConfig,
    /// Verify the predicted way's physical tag before serving the hit
    /// (always true in correct hardware; false = the chaos bug).
    pub verify_tags: bool,
}

impl MicroTagConfig {
    /// A µtag design over the given geometry with verification on.
    pub fn new(cache: CacheConfig) -> Self {
        Self {
            cache,
            verify_tags: true,
        }
    }

    /// Returns a copy with tag verification disabled (the deliberate
    /// alias-serving bug for checker tests).
    pub fn without_verification(mut self) -> Self {
        self.verify_tags = false;
        self
    }
}

/// Baseline VIPT with a µtag way predictor.
#[derive(Debug, Clone)]
pub struct MicroTagL1 {
    config: MicroTagConfig,
    timing: L1Timing,
    cache: SetAssocCache,
    utag: MicroTagPredictor,
    index: VirtualIndex,
    /// Shift that isolates the virtual tag (bits above the set index).
    vtag_shift: u32,
    full: WayMask,
    /// Aliased hits served without verification (chaos mode only).
    unverified_served: u64,
}

impl MicroTagL1 {
    /// Builds a µtag-predicted L1.
    pub fn new(config: MicroTagConfig, timing: L1Timing) -> Self {
        let sets = config.cache.sets();
        let index = VirtualIndex::new(sets, config.cache.line_bytes);
        Self {
            cache: SetAssocCache::new(config.cache),
            utag: MicroTagPredictor::new(sets, config.cache.ways),
            vtag_shift: index.set_shift + (sets as u64).trailing_zeros(),
            index,
            full: WayMask::all(config.cache.ways),
            unverified_served: 0,
            config,
            timing,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MicroTagConfig {
        &self.config
    }

    /// Way-predictor counters (`l1.waypred.*`), including the
    /// alias-mispredict count unique to µtag prediction.
    pub fn way_prediction_stats(&self) -> WayPredictionStats {
        WayPredict::stats(&self.utag)
    }

    /// Aliased hits served without tag verification — nonzero only when
    /// the `skip_way_verification` chaos knob armed the deliberate bug.
    pub fn unverified_served(&self) -> u64 {
        self.unverified_served
    }

    fn ptag(&self, pa: PhysAddr) -> u64 {
        self.config.cache.line_of(pa)
    }
}

impl L1DataCache for MicroTagL1 {
    fn access(&mut self, req: &L1Request) -> L1AccessOutcome {
        let set = self.index.set_of_raw(req.va.raw());
        let vtag = req.va.raw() >> self.vtag_shift;
        let ptag = self.ptag(req.pa);
        let full = self.full;

        let mut latency = self.timing.slow_cycles;
        let mut way_prediction_correct = None;
        let mut unverified_alias_way = None;
        let mut extra_probed = 0usize;
        let predicted = self.utag.predict(set, vtag);
        let result = match predicted {
            Some(w) if self.cache.peek(set, ptag, WayMask::single(w)).is_some() => {
                // µtag steered us to the right way and the physical tag
                // verifies: a one-way probe at the normal hit latency.
                way_prediction_correct = Some(true);
                self.utag.record(predicted, Some(w), true);
                self.cache.read(set, ptag, WayMask::single(w))
            }
            Some(w) => {
                // The µtag matched but the way holds a different physical
                // line (virtual alias) or went invalid under us.
                if self.config.verify_tags {
                    // Correct hardware: detect the alias, pay a second
                    // full-set round.
                    way_prediction_correct = Some(false);
                    latency += self.timing.slow_cycles;
                    extra_probed = 1; // the discarded single-way probe
                    let result = self.cache.read(set, ptag, full);
                    self.utag.record(predicted, result.way, false);
                    result
                } else {
                    // The deliberate bug: serve the aliased way as a hit
                    // without verification. The line delivered belongs to
                    // a different physical address; the shadow checker's
                    // way-prediction-alias invariant must flag this.
                    self.unverified_served += 1;
                    self.utag.record(predicted, Some(w), true);
                    unverified_alias_way = Some(w);
                    return L1AccessOutcome {
                        hit: true,
                        latency_cycles: latency,
                        ways_probed: 1,
                        case: LookupCase::Conventional,
                        tft_hit: None,
                        evicted: None,
                        fast_assumption_held: true,
                        way_prediction_correct: Some(true),
                        unverified_alias_way,
                    };
                }
            }
            None => {
                // No µtag match: a full-set probe (and a cold-predictor
                // tally; misses land here too, which is correct — a miss
                // has no way to predict).
                let result = self.cache.read(set, ptag, full);
                self.utag.record(None, result.way, true);
                result
            }
        };

        let mut evicted = None;
        if result.hit {
            if req.is_write {
                self.cache.set_line_state(set, ptag, MoesiState::Modified);
            }
            if let Some(w) = result.way {
                self.utag.train(set, w, vtag);
            }
        } else {
            evicted = self.cache.fill(set, ptag, full, req.is_write);
            if let Some(w) = self.cache.resident_way(set, ptag) {
                self.utag.train(set, w, vtag);
            }
        }

        L1AccessOutcome {
            hit: result.hit,
            latency_cycles: latency,
            ways_probed: result.ways_probed + extra_probed,
            case: LookupCase::Conventional,
            tft_hit: None,
            evicted,
            fast_assumption_held: true,
            way_prediction_correct,
            unverified_alias_way,
        }
    }

    fn coherence_probe(&mut self, pa: PhysAddr, invalidate: bool) -> (bool, usize) {
        let set = self.index.set_of_raw(pa.raw());
        let ptag = self.ptag(pa);
        let full = self.full;
        if invalidate {
            if let Some(way) = self.cache.resident_way(set, ptag) {
                // The line is about to go; a stale µtag would steer
                // predictions to an invalid way.
                self.utag.invalidate(set, way);
            }
        }
        let present = self.cache.coherence_probe(set, ptag, full, invalidate);
        (present.is_some(), full.count())
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

    /// Drops every µtag: the predictor is virtually tagged and ASID-less,
    /// so an address-space switch invalidates all of it (Zen2
    /// erratum-style). Predictions go cold; data stays resident.
    fn context_switch(&mut self) {
        self.utag.flush();
    }

    fn design_stats(&self) -> DesignStats {
        DesignStats {
            way_prediction: Some(self.way_prediction_stats()),
            ..DesignStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_cache::IndexPolicy;
    use seesaw_mem::{PageSize, VirtAddr};

    fn l1(verify: bool) -> MicroTagL1 {
        let cfg = MicroTagConfig::new(CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt));
        let cfg = if verify { cfg } else { cfg.without_verification() };
        MicroTagL1::new(cfg, L1Timing { fast_cycles: 2, slow_cycles: 2 })
    }

    fn req(va: u64, pa: u64) -> L1Request {
        L1Request {
            va: VirtAddr::new(va),
            pa: PhysAddr::new(pa),
            page_size: PageSize::Base4K,
            is_write: false,
        }
    }

    /// Two VAs in the same set whose virtual tags share a µtag.
    fn alias_pair() -> (u64, u64) {
        let base = 0x2040u64;
        let target = MicroTagPredictor::utag_of(base >> 12);
        let mut other = base + (32 << 10);
        loop {
            if MicroTagPredictor::utag_of(other >> 12) == target {
                return (base, other);
            }
            other += 32 << 10; // next VA mapping to the same set
        }
    }

    #[test]
    fn correct_prediction_probes_one_way() {
        let mut l1 = l1(true);
        let r = req(0x2040, 0x9040);
        l1.access(&r); // fill + train
        let out = l1.access(&r);
        assert!(out.hit);
        assert_eq!(out.way_prediction_correct, Some(true));
        assert_eq!(out.ways_probed, 1);
        assert_eq!(out.latency_cycles, 2);
        assert_eq!(l1.way_prediction_stats().hits, 1);
    }

    #[test]
    fn verified_alias_pays_a_second_round() {
        let (a, b) = alias_pair();
        let mut l1 = l1(true);
        l1.access(&req(a, 0x9040)); // trains way w with the shared µtag
        // Different VA, same µtag, different physical line: the predictor
        // steers to a's way, verification fails, full round follows.
        let out = l1.access(&req(b, 0x19_0040));
        assert_eq!(out.way_prediction_correct, Some(false));
        assert_eq!(out.latency_cycles, 4, "alias pays double latency");
        assert_eq!(out.unverified_alias_way, None, "verification caught it");
        assert_eq!(l1.way_prediction_stats().alias_mispredicts, 1);
    }

    #[test]
    fn unverified_alias_is_served_and_reported() {
        let (a, b) = alias_pair();
        let mut l1 = l1(false);
        l1.access(&req(a, 0x9040));
        let out = l1.access(&req(b, 0x19_0040));
        assert!(out.hit, "the bug serves the wrong line as a hit");
        assert!(out.unverified_alias_way.is_some());
        assert_eq!(l1.unverified_served(), 1);
    }

    #[test]
    fn context_switch_flushes_predictions() {
        let mut l1 = l1(true);
        let r = req(0x2040, 0x9040);
        l1.access(&r);
        l1.context_switch();
        let out = l1.access(&r);
        assert!(out.hit);
        assert_eq!(out.way_prediction_correct, None, "no prediction after flush");
        assert_eq!(out.ways_probed, 8);
    }

    #[test]
    fn coherence_invalidation_clears_the_utag() {
        let mut l1 = l1(true);
        let r = req(0x2040, 0x9040);
        l1.access(&r);
        let (present, ways) = l1.coherence_probe(PhysAddr::new(0x9040), true);
        assert!(present);
        assert_eq!(ways, 8, "µtag keys on VA: coherence stays full-width");
        let out = l1.access(&r);
        assert!(!out.hit);
        assert_eq!(out.way_prediction_correct, None, "stale µtag was dropped");
    }

    #[test]
    fn synonyms_evict_each_others_utag() {
        // Two VAs for the same physical line (a synonym pair) in the same
        // set with distinct µtags: training one overwrites the way's single
        // µtag slot, so the other synonym never finds a prediction — the
        // Zen2 rule that only one virtual alias per line is predictable at
        // a time. The cost shows up as cold full-set probes, not aliases.
        let mut l1 = l1(true);
        let a = req(0x2040, 0x9040);
        let b = req(0x3040, 0x9040); // same set (stride 4 KB), new vtag
        l1.access(&a); // fill, trains a's µtag on the line's way
        let out = l1.access(&b);
        assert!(out.hit);
        assert_eq!(out.way_prediction_correct, None, "b's µtag not present");
        let out = l1.access(&a); // b's train evicted a's µtag
        assert_eq!(out.way_prediction_correct, None);
        assert_eq!(out.ways_probed, 8);
        assert_eq!(l1.way_prediction_stats().cold, 3);
        assert_eq!(l1.way_prediction_stats().alias_mispredicts, 0);
    }
}
