//! The full TLB hierarchy: split or unified L1 TLBs, optional unified L2,
//! and the page-table walker, with the fill events SEESAW's TFT snoops.

use seesaw_mem::{AddressSpace, PageSize, PageTableOp, VirtAddr, VirtPage};

use crate::config::L1Organization;
use crate::{
    FullyAssocTlb, PageWalker, SetAssocTlb, TlbEntry, TlbHierarchyConfig, TlbStats,
};

/// Which level of the hierarchy served a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlbLevel {
    /// An L1 TLB hit (overlapped with cache indexing; zero extra cycles).
    L1,
    /// A unified L2 TLB hit.
    L2,
    /// A full page-table walk.
    PageWalk,
}

/// The outcome of one hierarchy lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbLookup {
    /// The translation entry (carries page size and frame base).
    pub entry: TlbEntry,
    /// Level that produced it.
    pub level: TlbLevel,
    /// Extra cycles the translation added beyond an L1 hit.
    pub cost_cycles: u64,
    /// The superpage virtual page (2 MB or 1 GB) this lookup filled into
    /// the L1 TLB, if any — the event stream the TFT consumes (§IV-A2,
    /// TFT fill). A lookup fills at most one page.
    pub superpage_l1_fills: Option<VirtPage>,
}

#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum L1Tlbs {
    Split {
        l1_4k: SetAssocTlb,
        l1_2m: SetAssocTlb,
        l1_1g: Option<SetAssocTlb>,
    },
    Unified(FullyAssocTlb),
}

/// The per-core TLB hierarchy.
///
/// See the crate-level example for typical use.
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    config: TlbHierarchyConfig,
    l1: L1Tlbs,
    l2: Option<FullyAssocTlb>,
    walker: PageWalker,
}

impl TlbHierarchy {
    /// Builds a hierarchy from a configuration.
    pub fn new(config: TlbHierarchyConfig) -> Self {
        let l1 = match config.l1 {
            L1Organization::Split { l1_4k, l1_2m, l1_1g } => L1Tlbs::Split {
                l1_4k: SetAssocTlb::new(l1_4k.entries, l1_4k.ways, PageSize::Base4K),
                l1_2m: SetAssocTlb::new(l1_2m.entries, l1_2m.ways, PageSize::Super2M),
                l1_1g: l1_1g
                    .map(|c| SetAssocTlb::new(c.entries, c.ways, PageSize::Super1G)),
            },
            L1Organization::Unified { entries } => L1Tlbs::Unified(FullyAssocTlb::new(entries)),
        };
        // The L2 is modelled fully associative for simplicity; its capacity
        // dominates behavior at our trace scales.
        let l2 = config.l2.map(|c| FullyAssocTlb::new(c.entries));
        Self {
            config,
            l1,
            l2,
            walker: PageWalker::with_cycles_per_level(config.walk_cycles_per_level),
        }
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> &TlbHierarchyConfig {
        &self.config
    }

    /// Translates `va` through the hierarchy, filling lower levels on the
    /// way back. Returns `None` on a page fault.
    pub fn lookup(&mut self, va: VirtAddr, space: &AddressSpace) -> Option<TlbLookup> {
        let asid = space.asid();
        // L1 probe.
        if let Some(entry) = self.l1_lookup(va, asid) {
            return Some(TlbLookup {
                entry,
                level: TlbLevel::L1,
                cost_cycles: 0,
                superpage_l1_fills: None,
            });
        }
        // L2 probe.
        if let Some(l2) = self.l2.as_mut() {
            if let Some(entry) = l2.lookup(va, asid) {
                let fills = self.l1_fill(entry);
                return Some(TlbLookup {
                    entry,
                    level: TlbLevel::L2,
                    cost_cycles: self.config.l2_latency,
                    superpage_l1_fills: fills,
                });
            }
        }
        // Page walk.
        let walk = self.walker.walk(space, va)?;
        let entry = TlbEntry::from_translation(&walk.translation, asid);
        if let Some(l2) = self.l2.as_mut() {
            // 1 GB entries bypass the (4 KB + 2 MB) L2, like real designs.
            if entry.size != PageSize::Super1G {
                l2.fill(entry);
            }
        }
        let fills = self.l1_fill(entry);
        Some(TlbLookup {
            entry,
            level: TlbLevel::PageWalk,
            cost_cycles: self.config.l2_latency + walk.cycles,
            superpage_l1_fills: fills,
        })
    }

    /// Applies a page-table operation (the `invlpg` path): drops any TLB
    /// entries made stale by the change.
    pub fn handle_op(&mut self, op: &PageTableOp) {
        match op {
            PageTableOp::Mapped(_) => {}
            PageTableOp::Unmapped(page) | PageTableOp::Splintered(page) => {
                self.invalidate_page(*page);
            }
            PageTableOp::Promoted { page, .. } => {
                self.invalidate_page(*page);
                // Promotion also invalidates the 512 base-page translations
                // the superpage replaces.
                for i in 0..page.size().base_pages() {
                    let va = page.base().offset(i * PageSize::Base4K.bytes());
                    self.invalidate_page(VirtPage::containing(va, PageSize::Base4K));
                }
            }
        }
    }

    /// Number of valid entries in the 2 MB L1 TLB and its capacity —
    /// SEESAW's scheduler-hint occupancy counter reads this (§IV-B3).
    pub fn superpage_l1_occupancy(&self) -> (usize, usize) {
        match &self.l1 {
            L1Tlbs::Split { l1_2m, .. } => (l1_2m.valid_entries(), l1_2m.capacity()),
            L1Tlbs::Unified(tlb) => (tlb.valid_superpage_entries(), tlb.capacity()),
        }
    }

    /// Combined L1 stats (summed over the split structures).
    pub fn l1_stats(&self) -> TlbStats {
        match &self.l1 {
            L1Tlbs::Split { l1_4k, l1_2m, l1_1g } => {
                let mut s = TlbStats::default();
                for t in [Some(l1_4k), Some(l1_2m), l1_1g.as_ref()].into_iter().flatten() {
                    let st = t.stats();
                    s.hits += st.hits;
                    s.misses += st.misses;
                    s.fills += st.fills;
                    s.evictions += st.evictions;
                    s.invalidations += st.invalidations;
                    s.flushes += st.flushes;
                }
                s
            }
            L1Tlbs::Unified(tlb) => tlb.stats(),
        }
    }

    /// L2 stats, if an L2 is configured.
    pub fn l2_stats(&self) -> Option<TlbStats> {
        self.l2.as_ref().map(|t| t.stats())
    }

    /// Walker stats.
    pub fn walker_stats(&self) -> crate::walker::WalkerStats {
        self.walker.stats()
    }

    /// Log2 distribution of per-walk latency.
    pub fn walker_latency_hist(&self) -> seesaw_trace::Log2Histogram {
        self.walker.latency_hist()
    }

    fn l1_lookup(&mut self, va: VirtAddr, asid: u16) -> Option<TlbEntry> {
        match &mut self.l1 {
            L1Tlbs::Split { l1_4k, l1_2m, l1_1g } => {
                // All split L1 TLBs are probed in parallel in hardware; at
                // most one can hit because mappings don't overlap.
                let hit = l1_4k
                    .lookup(va, asid)
                    .or_else(|| l1_2m.lookup(va, asid))
                    .or_else(|| l1_1g.as_mut().and_then(|t| t.lookup(va, asid)));
                hit
            }
            L1Tlbs::Unified(tlb) => tlb.lookup(va, asid),
        }
    }

    /// Fills the appropriate L1 TLB; returns the superpage page filled,
    /// if any (for the TFT).
    fn l1_fill(&mut self, entry: TlbEntry) -> Option<VirtPage> {
        let page = VirtPage::containing(
            VirtAddr::new(entry.vpn << entry.size.offset_bits()),
            entry.size,
        );
        match &mut self.l1 {
            L1Tlbs::Split { l1_4k, l1_2m, l1_1g } => match entry.size {
                PageSize::Base4K => {
                    l1_4k.fill(entry);
                    None
                }
                PageSize::Super2M => {
                    l1_2m.fill(entry);
                    Some(page)
                }
                PageSize::Super1G => {
                    if let Some(t) = l1_1g.as_mut() {
                        t.fill(entry);
                    }
                    Some(page)
                }
            },
            L1Tlbs::Unified(tlb) => {
                tlb.fill(entry);
                entry.size.is_superpage().then_some(page)
            }
        }
    }

    fn invalidate_page(&mut self, page: VirtPage) {
        match &mut self.l1 {
            L1Tlbs::Split { l1_4k, l1_2m, l1_1g } => {
                l1_4k.invalidate_page(page);
                l1_2m.invalidate_page(page);
                if let Some(t) = l1_1g.as_mut() {
                    t.invalidate_page(page);
                }
            }
            L1Tlbs::Unified(tlb) => tlb.invalidate_page(page),
        }
        if let Some(l2) = self.l2.as_mut() {
            l2.invalidate_page(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_mem::{PhysicalMemory, ThpPolicy};

    fn setup(bytes: u64, policy: ThpPolicy) -> (PhysicalMemory, AddressSpace, VirtAddr) {
        let mut pmem = PhysicalMemory::new(256 << 20);
        let mut space = AddressSpace::new(1);
        let vma = space.mmap_anonymous(&mut pmem, bytes, policy).unwrap();
        (pmem, space, vma.base())
    }

    #[test]
    fn miss_walk_then_l1_hit() {
        let (_pmem, space, base) = setup(4 << 20, ThpPolicy::Always);
        let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());
        let first = tlbs.lookup(base, &space).unwrap();
        assert_eq!(first.level, TlbLevel::PageWalk);
        assert!(first.cost_cycles > 0);
        assert!(first.superpage_l1_fills.is_some());
        let second = tlbs.lookup(base, &space).unwrap();
        assert_eq!(second.level, TlbLevel::L1);
        assert_eq!(second.cost_cycles, 0);
        assert!(second.superpage_l1_fills.is_none());
    }

    #[test]
    fn l2_catches_l1_capacity_misses() {
        let (_pmem, space, base) = setup(256 << 20 >> 2, ThpPolicy::Never);
        let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());
        // Touch far more 4 KB pages than the 128-entry L1 holds.
        for i in 0..512u64 {
            tlbs.lookup(base.offset(i * 4096), &space).unwrap();
        }
        // Revisit: L1 misses, L2 (512-entry) hits.
        let r = tlbs.lookup(base, &space).unwrap();
        assert_eq!(r.level, TlbLevel::L2);
        assert_eq!(r.cost_cycles, 7);
    }

    #[test]
    fn base_page_lookups_never_fill_superpage_tlb() {
        let (_pmem, space, base) = setup(1 << 20, ThpPolicy::Never);
        let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());
        for i in 0..64u64 {
            let r = tlbs.lookup(base.offset(i * 4096), &space).unwrap();
            assert!(r.superpage_l1_fills.is_none());
        }
        assert_eq!(tlbs.superpage_l1_occupancy().0, 0);
    }

    #[test]
    fn splinter_invalidates_superpage_entry() {
        let (mut pmem, mut space, base) = setup(2 << 20, ThpPolicy::Always);
        let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());
        tlbs.lookup(base, &space).unwrap();
        assert_eq!(tlbs.superpage_l1_occupancy().0, 1);
        let op = space.splinter(&mut pmem, base).unwrap();
        tlbs.handle_op(&op);
        assert_eq!(tlbs.superpage_l1_occupancy().0, 0);
        // Next lookup walks again and sees a base page.
        let r = tlbs.lookup(base, &space).unwrap();
        assert_eq!(r.level, TlbLevel::PageWalk);
        assert_eq!(r.entry.size, PageSize::Base4K);
    }

    #[test]
    fn promotion_invalidates_stale_base_entries() {
        let (mut pmem, mut space, base) = setup(2 << 20, ThpPolicy::Always);
        let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());
        // Splinter, touch some base pages, then promote back.
        let op = space.splinter(&mut pmem, base).unwrap();
        tlbs.handle_op(&op);
        for i in 0..8u64 {
            tlbs.lookup(base.offset(i * 4096), &space).unwrap();
        }
        let op = space.promote(&mut pmem, base).unwrap();
        tlbs.handle_op(&op);
        let r = tlbs.lookup(base, &space).unwrap();
        assert_eq!(r.level, TlbLevel::PageWalk, "stale base entries were dropped");
        assert_eq!(r.entry.size, PageSize::Super2M);
    }

    #[test]
    fn unified_l1_serves_both_sizes() {
        let mut pmem = PhysicalMemory::new(256 << 20);
        let mut space = AddressSpace::new(1);
        let huge = space
            .mmap_anonymous(&mut pmem, 2 << 20, ThpPolicy::Always)
            .unwrap();
        let small = space
            .mmap_anonymous(&mut pmem, 64 << 10, ThpPolicy::Never)
            .unwrap();
        let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::unified(32));
        tlbs.lookup(huge.base(), &space).unwrap();
        tlbs.lookup(small.base(), &space).unwrap();
        assert_eq!(tlbs.lookup(huge.base(), &space).unwrap().level, TlbLevel::L1);
        assert_eq!(tlbs.lookup(small.base(), &space).unwrap().level, TlbLevel::L1);
        assert_eq!(tlbs.superpage_l1_occupancy().0, 1);
    }

    #[test]
    fn page_fault_returns_none() {
        let space = AddressSpace::new(1);
        let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::atom());
        assert!(tlbs.lookup(VirtAddr::new(0x0dea_d000), &space).is_none());
    }
}
