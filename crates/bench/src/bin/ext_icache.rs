//! Extension (§V): SEESAW on the instruction cache.
//!
//! The paper applies SEESAW to the L1 data cache but points at L1I as a
//! natural next target, "valuable with the advent of cloud workloads that
//! use considerably larger instruction-side footprints". This binary
//! fetches a SPEC-like and a cloud-like instruction stream through the
//! Table II 32 KB L1I, baseline versus SEESAW, with the code segment
//! superpage-backed (as Linux does for hot text via THP/hugetext).

use seesaw_core::{
    BaselineL1, L1AccessOutcome, L1DataCache, L1Request, L1Timing, SeesawConfig, SeesawL1,
};
use seesaw_energy::SramModel;
use seesaw_mem::{AddressSpace, PhysicalMemory, ThpPolicy};
use seesaw_tlb::{TlbHierarchy, TlbHierarchyConfig};
use seesaw_workloads::{IFetchConfig, IFetchGenerator};

fn main() {
    let fetches = 400_000u64;
    println!("SEESAW on the L1 instruction cache ({fetches} fetches each)\n");
    println!("workload    design    hit rate   avg ways   avg cycles   lookup energy");
    println!("------------------------------------------------------------------------");
    for (label, config) in [
        ("spec-like", IFetchConfig::spec_like()),
        ("cloud-like", IFetchConfig::cloud_like()),
    ] {
        for seesaw in [false, true] {
            let (hit, ways, cycles, energy) = run(config, seesaw, fetches);
            println!(
                "{label:<11} {:<9} {:>7.1}%   {ways:>8.2}   {cycles:>10.2}   {energy:>10.1} µJ",
                if seesaw { "SEESAW" } else { "baseline" },
                hit * 100.0,
            );
        }
    }
    println!();
    println!("Note the asymmetry: the SPEC-like 256 KB text segment is too small");
    println!("for THP to back it with 2 MB pages, so SEESAW degenerates to the");
    println!("baseline — while the cloud-like 8 MB text is superpage-backed and");
    println!("gets the full 4-way/1-cycle fetch path. That is exactly the paper's");
    println!("argument for I-side SEESAW on instruction-heavy cloud workloads.");
}

fn run(config: IFetchConfig, seesaw: bool, fetches: u64) -> (f64, f64, f64, f64) {
    let mut pmem = PhysicalMemory::new(256 << 20);
    let mut space = AddressSpace::new(1);
    let code = space
        .mmap_anonymous(&mut pmem, config.code_bytes, ThpPolicy::Always)
        .expect("code segment fits");
    let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());

    let sram = SramModel::tsmc28_scaled_22nm();
    let timing = L1Timing {
        fast_cycles: sram.partition_lookup_cycles(32, 8, 2, 1.33),
        slow_cycles: sram.full_lookup_cycles(32, 8, 1.33),
    };
    let mut seesaw_l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing);
    let mut baseline_l1 = BaselineL1::new(
        seesaw_cache::CacheConfig::new(32 << 10, 8, 64, seesaw_cache::IndexPolicy::Vipt),
        timing,
        false,
    );

    let mut generator = IFetchGenerator::new(config);
    let mut cycles = 0u64;
    let mut energy_nj = 0.0;
    for _ in 0..fetches {
        let va = code.base().offset(generator.next_fetch());
        let lookup = tlbs.lookup(va, &space).expect("mapped");
        let req = L1Request {
            va,
            pa: lookup.entry.translate(va),
            page_size: lookup.entry.size,
            is_write: false,
        };
        let out: L1AccessOutcome = if seesaw {
            if let Some(page) = lookup.superpage_l1_fills {
                seesaw_l1.tft_fill(page.base());
            }
            let out = seesaw_l1.access(&req);
            if out.tft_hit == Some(false) && lookup.entry.size.is_superpage() {
                seesaw_l1.tft_fill(va);
            }
            out
        } else {
            baseline_l1.access(&req)
        };
        cycles += out.latency_cycles;
        energy_nj += sram.lookup_energy_nj(32, 8, out.ways_probed);
    }
    let stats = if seesaw {
        seesaw_l1.cache_stats()
    } else {
        baseline_l1.cache_stats()
    };
    (
        1.0 - stats.miss_rate(),
        stats.avg_ways_probed(),
        cycles as f64 / fetches as f64,
        energy_nj / 1000.0,
    )
}
