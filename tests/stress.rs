//! Stress and failure-injection tests: random interleavings of the
//! events that make variable page sizes hard — splinters, promotions,
//! context switches, coherence invalidations — checked against the
//! correctness invariants of §IV-B1/§IV-C.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seesaw_core::{L1DataCache, L1Request, L1Timing, SeesawConfig, SeesawL1};
use seesaw_mem::{AddressSpace, PageSize, PhysicalMemory, ThpPolicy, VirtAddr};
use seesaw_tlb::{TlbHierarchy, TlbHierarchyConfig};

struct Rig {
    pmem: PhysicalMemory,
    space: AddressSpace,
    base: VirtAddr,
    bytes: u64,
    tlbs: TlbHierarchy,
    l1: SeesawL1,
}

impl Rig {
    fn new() -> Rig {
        let mut pmem = PhysicalMemory::new(256 << 20);
        let mut space = AddressSpace::new(1);
        let vma = space
            .mmap_anonymous(&mut pmem, 16 << 20, ThpPolicy::Always)
            .expect("fits");
        Rig {
            pmem,
            space,
            base: vma.base(),
            bytes: vma.bytes(),
            tlbs: TlbHierarchy::new(TlbHierarchyConfig::sandybridge()),
            l1: SeesawL1::new(
                SeesawConfig::l1_32k(),
                L1Timing {
                    fast_cycles: 1,
                    slow_cycles: 2,
                },
            ),
        }
    }

    fn access(&mut self, va: VirtAddr, is_write: bool) -> seesaw_core::L1AccessOutcome {
        let lookup = self.tlbs.lookup(va, &self.space).expect("mapped");
        if let Some(page) = lookup.superpage_l1_fills {
            self.l1.tft_fill(page.base());
        }
        let out = self.l1.access(&L1Request {
            va,
            pa: lookup.entry.translate(va),
            page_size: lookup.entry.size,
            is_write,
        });
        if out.tft_hit == Some(false) && lookup.entry.size.is_superpage() {
            self.l1.tft_fill(va);
        }
        out
    }

    fn deliver_ops(&mut self) {
        for op in self.space.drain_ops() {
            self.tlbs.handle_op(&op);
            self.l1.handle_op(&op);
        }
    }
}

/// The heavyweight invariant: after any event soup, every mapped address
/// still translates, a read returns consistently (hit after fill), and a
/// narrow coherence probe finds any line a demand access just touched.
#[test]
fn random_event_soup_preserves_invariants() {
    let mut rig = Rig::new();
    let mut rng = StdRng::seed_from_u64(0xbad5eed);
    for step in 0..30_000u64 {
        let offset = (rng.gen_range(0..rig.bytes)) & !63;
        let va = rig.base.offset(offset);
        match rng.gen_range(0..100) {
            0..=89 => {
                let out = rig.access(va, step % 3 == 0);
                if !out.hit {
                    // Immediately re-access: must hit now.
                    assert!(rig.access(va, false).hit, "fill must stick at {va}");
                }
                let pa = rig.space.translate(va).unwrap().pa;
                let (present, ways) = rig.l1.coherence_probe(pa, false);
                assert!(present, "narrow probe lost a just-touched line at {va}");
                assert_eq!(ways, 4);
            }
            90..=93 => {
                // Splinter the containing superpage, if it is one.
                if rig.space.translate(va).unwrap().page_size == PageSize::Super2M {
                    rig.space.splinter(&mut rig.pmem, va).unwrap();
                    rig.deliver_ops();
                }
            }
            94..=96 => {
                // Promote the containing region back, if it is base pages.
                if rig.space.translate(va).unwrap().page_size == PageSize::Base4K
                    && rig.space.promote(&mut rig.pmem, va).is_ok()
                {
                    rig.deliver_ops();
                }
            }
            97..=98 => rig.l1.context_switch(),
            _ => {
                // Remote invalidation of a random line we may hold.
                let pa = rig.space.translate(va).unwrap().pa;
                rig.l1.coherence_probe(pa, true);
            }
        }
        // Translation must never be lost.
        assert!(rig.space.translate(va).is_some(), "lost mapping at {va}");
    }
    // The machine is still sane: stats add up.
    let stats = rig.l1.cache_stats();
    assert_eq!(stats.accesses(), stats.hits + stats.misses);
    let tft = rig.l1.tft_stats();
    assert!(tft.hits + tft.misses > 0);
}

/// Splinter/promote ping-pong on one region: the TFT and cache must stay
/// precise through every transition.
#[test]
fn splinter_promote_ping_pong() {
    let mut rig = Rig::new();
    let va = rig.base.offset(0x10_0040);
    for round in 0..50 {
        rig.access(va, true);
        let size = rig.space.translate(va).unwrap().page_size;
        match size {
            PageSize::Super2M => {
                rig.space.splinter(&mut rig.pmem, va).unwrap();
            }
            PageSize::Base4K => {
                rig.space.promote(&mut rig.pmem, va).unwrap();
            }
            PageSize::Super1G => unreachable!("no 1GB mappings here"),
        }
        rig.deliver_ops();
        // After every flip the access path still works and the TFT is
        // consistent with the new page size.
        let out = rig.access(va, false);
        let now_super = rig.space.translate(va).unwrap().page_size.is_superpage();
        if !now_super {
            assert_eq!(
                out.tft_hit,
                Some(false),
                "round {round}: TFT must not claim a splintered page"
            );
        }
    }
    assert_eq!(rig.l1.seesaw_stats().sweeps, 25, "every promotion sweeps");
}

/// OOM during promotion must leave the system consistent (the promotion
/// is abandoned, mappings remain base pages, and no memory leaks).
#[test]
fn failed_promotion_is_clean() {
    // Memory sized so the footprint fits but a spare 2 MB frame does not.
    let mut pmem = PhysicalMemory::new(64 << 20);
    let mut space = AddressSpace::new(1);
    let vma = space
        .mmap_anonymous(&mut pmem, 48 << 20, ThpPolicy::Always)
        .expect("fits");
    // Splinter one page, then consume all remaining memory.
    let va = vma.base().offset(0x123040);
    space.splinter(&mut pmem, va).unwrap();
    let mut hog = seesaw_mem::Memhog::new(seesaw_mem::MemhogConfig::percent(95));
    hog.run(&mut pmem);

    let free_before = pmem.free_bytes();
    let err = space.promote(&mut pmem, va);
    assert!(err.is_err(), "promotion cannot find a 2 MB frame");
    assert_eq!(pmem.free_bytes(), free_before, "failed promotion must not leak");
    assert_eq!(
        space.translate(va).unwrap().page_size,
        PageSize::Base4K,
        "mapping unchanged after failure"
    );
}

/// Whole-system graceful degradation (the `MemError::Fragmented` path):
/// with memhog squatting on most of physical memory *and* the injector
/// piling on extra pressure and promotion attempts, `System::run` must
/// complete without panicking, fall back to base pages, and record every
/// fallback in the `demotions` counter.
#[test]
fn fragmented_system_degrades_instead_of_panicking() {
    use seesaw_check::FaultConfig;
    use seesaw_sim::{L1DesignKind, RunConfig, System};

    let cfg = RunConfig::quick("redis")
        .design(L1DesignKind::Seesaw)
        .memhog(85)
        .with_checker()
        .with_faults(FaultConfig::all(0x00c0_ffee).mean_interval(3_000));
    let result = System::build(&cfg)
        .expect("build must degrade to base pages, not fail")
        .run()
        .expect("run must survive allocation failure");
    assert!(
        result.demotions > 0,
        "an 85% memhog must force base-page fallbacks (demotions = 0)"
    );
    assert!(result.totals.instructions > 0);
    // Degradation must not corrupt anything the checker can see.
    assert_eq!(result.checker.expect("checker enabled").violations.total(), 0);
}

/// The same squeeze without the injector: allocation-time fragmentation
/// alone (Fig. 3's mechanism) already demotes, and a subsequent run is
/// clean end to end.
#[test]
fn allocation_time_fragmentation_demotes_cleanly() {
    use seesaw_sim::{L1DesignKind, RunConfig, System};

    let cfg = RunConfig::quick("mcf")
        .design(L1DesignKind::Seesaw)
        .memhog(90);
    let result = System::build(&cfg).unwrap().run().unwrap();
    assert!(result.demotions > 0, "90% memhog, yet no demotions");
    assert!(result.superpage_coverage < 1.0);
}
