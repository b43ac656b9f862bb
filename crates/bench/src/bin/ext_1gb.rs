//! Extension (§IV): SEESAW with 1 GB superpages.
//!
//! The paper focuses on 2 MB pages but notes the design "generalizes
//! readily to 1GB superpages too": the partition bits sit even deeper
//! inside a 30-bit page offset, and the TFT tracks the 2 MB regions the
//! giant page contains. This binary backs the same footprint three ways —
//! 4 KB pages, 2 MB pages, 1 GB pages — and drives identical access
//! streams through a SEESAW L1 wired to a real TLB hierarchy.

use seesaw_core::{L1DataCache, L1Request, L1Timing, SeesawConfig, SeesawL1};
use seesaw_mem::{AddressSpace, PageSize, PhysicalMemory, ThpPolicy};
use seesaw_tlb::{TlbHierarchy, TlbHierarchyConfig};

fn main() {
    let refs = 200_000u64;
    println!("SEESAW with 1GB superpages ({refs} refs per configuration)\n");
    println!("backing    TFT hits   avg ways   fast hits   TLB L1 hits");
    println!("-----------------------------------------------------------");
    for (label, size) in [
        ("4KB", PageSize::Base4K),
        ("2MB", PageSize::Super2M),
        ("1GB", PageSize::Super1G),
    ] {
        let (tft_rate, avg_ways, fast_rate, tlb_rate) = run(size, refs);
        println!(
            "{label:<10} {:>7.1}%   {avg_ways:>8.2}   {:>8.1}%   {:>10.1}%",
            tft_rate * 100.0,
            fast_rate * 100.0,
            tlb_rate * 100.0,
        );
    }
    println!();
    println!("1GB pages behave like 2MB pages from SEESAW's point of view —");
    println!("every contained 2MB region is superpage-backed, so partition");
    println!("lookups dominate — while needing far fewer TLB entries.");
}

fn run(size: PageSize, refs: u64) -> (f64, f64, f64, f64) {
    let mut pmem = PhysicalMemory::new(8u64 << 30);
    let mut space = AddressSpace::new(1);
    let bytes = 1u64 << 30;
    let vma = match size {
        PageSize::Base4K => space.mmap_anonymous(&mut pmem, bytes, ThpPolicy::Never),
        _ => space.mmap_hugetlb(&mut pmem, bytes, size),
    }
    .expect("8GB of physical memory suffices");

    let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());
    let timing = L1Timing {
        fast_cycles: 1,
        slow_cycles: 2,
    };
    let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing);

    // A hot 32 KB region plus strided sweeps across the gigabyte.
    let mut fast_hits = 0u64;
    let mut hits = 0u64;
    let mut tlb_l1_hits = 0u64;
    let mut state = 0x1234_5678_9abc_def0u64;
    for i in 0..refs {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let offset = if state % 10 < 7 {
            (state >> 16) % (32 << 10)
        } else {
            ((state >> 16) % bytes) & !63
        };
        let va = vma.base().offset(offset & !7);
        let lookup = tlbs.lookup(va, &space).expect("mapped");
        if lookup.level == seesaw_tlb::TlbLevel::L1 {
            tlb_l1_hits += 1;
        }
        if let Some(page) = lookup.superpage_l1_fills {
            l1.tft_fill(page.base());
        }
        let out = l1.access(&L1Request {
            va,
            pa: lookup.entry.translate(va),
            page_size: lookup.entry.size,
            is_write: i % 4 == 0,
        });
        // Refresh-on-confirmation, as the simulator does.
        if out.tft_hit == Some(false) && lookup.entry.size.is_superpage() {
            l1.tft_fill(va);
        }
        if out.hit {
            hits += 1;
            if out.latency_cycles == timing.fast_cycles {
                fast_hits += 1;
            }
        }
    }
    let tft = l1.tft_stats();
    let cache = l1.cache_stats();
    (
        tft.hit_rate(),
        cache.avg_ways_probed(),
        fast_hits as f64 / hits.max(1) as f64,
        tlb_l1_hits as f64 / refs as f64,
    )
}
