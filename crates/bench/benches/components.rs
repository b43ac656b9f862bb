//! Criterion microbenchmarks of the hot data structures: the SEESAW L1
//! lookup paths (Table I's cases), the TFT, the baseline cache, the TLB
//! hierarchy, the partition decoder's way-mask selection, the buddy
//! allocator, the trace generator (per-reference and batched/packed), the
//! per-cell copy of a prewarmed outer hierarchy (fresh clone vs. a
//! buffer-reusing copy from the snapshot), the L1 lookup energy charge,
//! and one 4-core directory transaction stream.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use seesaw_cache::{
    CacheConfig, IndexPolicy, OuterHierarchy, OuterHierarchyConfig, SetAssocCache, WayMask,
};
use seesaw_coherence::{CoherenceMode, DirectoryController};
use seesaw_core::{
    BaselineL1, L1DataCache, L1Request, L1Timing, PartitionDecoder, SeesawConfig, SeesawL1,
    TranslationFilterTable,
};
use seesaw_energy::{EnergyAccount, EnergyModel, SramModel};
use seesaw_mem::{
    AddressSpace, BuddyAllocator, PageSize, PhysAddr, PhysicalMemory, ThpPolicy, VirtAddr,
};
use seesaw_tlb::{TlbHierarchy, TlbHierarchyConfig};
use seesaw_workloads::{catalog, TraceGenerator};

fn timing() -> L1Timing {
    L1Timing {
        fast_cycles: 1,
        slow_cycles: 2,
    }
}

fn super_req(va: u64) -> L1Request {
    L1Request {
        va: VirtAddr::new(va),
        pa: PhysAddr::new(0x1fa0_0000 | (va & 0x1f_ffff)),
        page_size: PageSize::Super2M,
        is_write: false,
    }
}

fn bench_seesaw_l1(c: &mut Criterion) {
    let mut group = c.benchmark_group("seesaw_l1");

    group.bench_function("superpage_tft_hit", |b| {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = super_req(0x4000_1040);
        l1.tft_fill(req.va);
        l1.access(&req);
        b.iter(|| black_box(l1.access(black_box(&req))));
    });

    group.bench_function("superpage_tft_miss", |b| {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = super_req(0x7fc0_1040);
        l1.access(&req);
        b.iter(|| black_box(l1.access(black_box(&req))));
    });

    group.bench_function("coherence_probe_narrow", |b| {
        let mut l1 = SeesawL1::new(SeesawConfig::l1_32k(), timing());
        let req = super_req(0x4000_1040);
        l1.access(&req);
        b.iter(|| black_box(l1.coherence_probe(black_box(req.pa), false)));
    });

    group.finish();
}

fn bench_baseline_l1(c: &mut Criterion) {
    c.bench_function("baseline_l1_full_lookup", |b| {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut l1 = BaselineL1::new(cfg, timing(), false);
        let req = super_req(0x4000_1040);
        l1.access(&req);
        b.iter(|| black_box(l1.access(black_box(&req))));
    });
}

fn bench_tft(c: &mut Criterion) {
    c.bench_function("tft_lookup", |b| {
        let mut tft = TranslationFilterTable::new(16);
        for i in 0..16u64 {
            tft.fill(VirtAddr::new(i << 21));
        }
        let va = VirtAddr::new(5 << 21);
        b.iter(|| black_box(tft.lookup(black_box(va))));
    });
}

fn bench_cache_array(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_assoc");

    group.bench_function("read_hit_full_mask", |b| {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut cache = SetAssocCache::new(cfg);
        cache.fill(3, 0x42, WayMask::all(8), false);
        b.iter(|| black_box(cache.read(3, 0x42, WayMask::all(8))));
    });

    group.bench_function("read_hit_partition_mask", |b| {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut cache = SetAssocCache::new(cfg);
        let mask = WayMask::partition(1, 2, 8);
        cache.fill(3, 0x42, mask, false);
        b.iter(|| black_box(cache.read(3, 0x42, mask)));
    });

    group.bench_function("write_hit_full_mask", |b| {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut cache = SetAssocCache::new(cfg);
        cache.fill(3, 0x42, WayMask::all(8), true);
        b.iter(|| black_box(cache.write(3, 0x42, WayMask::all(8))));
    });

    group.finish();
}

/// A Table II outer hierarchy (24 MB LLC) with a prefetcher, warmed by a
/// mix of streaming and scattered lines over a 64 MB footprint, as the
/// functional prewarm leaves it.
fn warmed_outer() -> OuterHierarchy {
    let mut outer = OuterHierarchy::with_prefetcher(OuterHierarchyConfig::table_ii(2.8), 4);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if i.is_multiple_of(4) {
            i / 4
        } else {
            x % (1 << 20)
        };
        outer.access(line, i.is_multiple_of(3));
    }
    outer
}

fn bench_outer_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("outer");
    let snapshot = warmed_outer();

    // What every cell paid before buffers were recycled: allocate, page
    // in and copy ~6.7 MB, then free it at the end of the cell.
    group.bench_function("clone", |b| {
        b.iter(|| black_box(snapshot.clone()));
    });

    // The snapshot-hit path: overwrite a recycled buffer in place.
    group.bench_function("reset_from_snapshot", |b| {
        let mut buffer = OuterHierarchy::new(OuterHierarchyConfig::table_ii(4.0));
        buffer.access(0x42, true);
        b.iter(|| {
            buffer.clone_from(black_box(&snapshot));
            black_box(buffer.stats())
        });
    });

    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    c.bench_function("partition_way_mask_select", |b| {
        // 32 KB / 8-way / 64 B geometry with 2 partitions: the Fig. 4
        // decode — VA bit 12 picks the partition, whose way mask gates
        // the lookup. This is on the path of every SEESAW L1 access.
        let dec = PartitionDecoder::new(64, 8, 64, 2);
        let mut va = 0x4000_0000u64;
        b.iter(|| {
            va = va.wrapping_add(0x1040);
            let p = dec.partition_of_va(VirtAddr::new(black_box(va)));
            black_box(dec.mask_of(p))
        });
    });
}

fn bench_tlb(c: &mut Criterion) {
    c.bench_function("tlb_hierarchy_l1_hit", |b| {
        let mut pmem = PhysicalMemory::new(64 << 20);
        let mut space = AddressSpace::new(1);
        let vma = space
            .mmap_anonymous(&mut pmem, 4 << 20, ThpPolicy::Always)
            .unwrap();
        let mut tlbs = TlbHierarchy::new(TlbHierarchyConfig::sandybridge());
        tlbs.lookup(vma.base(), &space).unwrap();
        b.iter(|| black_box(tlbs.lookup(black_box(vma.base()), &space)));
    });
}

fn bench_buddy(c: &mut Criterion) {
    c.bench_function("buddy_alloc_free_order9", |b| {
        let mut buddy = BuddyAllocator::new(1 << 15);
        b.iter(|| {
            let start = buddy.alloc(9).unwrap();
            buddy.free(black_box(start), 9).unwrap();
        });
    });
}

fn bench_trace_generator(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generator");

    group.bench_function("next_ref", |b| {
        let spec = catalog()[0];
        let mut generator = TraceGenerator::new(&spec, 1);
        b.iter(|| black_box(generator.next_ref()));
    });

    group.bench_function("fill_refs_64", |b| {
        // The batched form the simulate() prewarm uses: 64-reference
        // chunks into a reused buffer, then packed to u64 words.
        let spec = catalog()[0];
        let mut generator = TraceGenerator::new(&spec, 1);
        let mut scratch = Vec::with_capacity(64);
        b.iter(|| {
            // `fill_refs` appends: clear first so every iteration times
            // one 64-reference batch, not a buffer grown by all before it.
            scratch.clear();
            generator.fill_refs(&mut scratch, 64);
            black_box(scratch.iter().map(|r| r.pack()).sum::<u64>())
        });
    });

    group.bench_function("replay_unpack", |b| {
        // The measured loop's per-reference cost when the stream is
        // served from the packed replay buffer instead of the generator.
        let spec = catalog()[0];
        let mut generator = TraceGenerator::new(&spec, 1);
        let mut scratch = Vec::new();
        generator.fill_refs(&mut scratch, 4096);
        let packed: Vec<u64> = scratch.iter().map(|r| r.pack()).collect();
        let mut i = 0usize;
        b.iter(|| {
            let r = seesaw_workloads::TraceRef::unpack(packed[i & 4095]);
            i += 1;
            black_box(r)
        });
    });

    group.finish();
}

fn bench_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("energy");

    // One CPU-side charge per reference: a read of the per-cell table.
    group.bench_function("cpu_lookup", |b| {
        let model = EnergyModel::new(SramModel::tsmc28_scaled_22nm());
        let mut account = EnergyAccount::new(model, 32, 8);
        b.iter(|| account.cpu_lookup(black_box(4)));
        black_box(account.finish(0.0));
    });

    group.finish();
}

fn bench_coherence(c: &mut Criterion) {
    let mut group = c.benchmark_group("coherence");

    // Four cores sharing a 4096-line footprint (twice one L1), one write
    // in four: misses, upgrades and probes of every kind.
    group.bench_function("directory_access_4core", |b| {
        let cfg = CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);
        let mut dir = DirectoryController::new(4, cfg, CoherenceMode::Directory, 4);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let core = (x & 3) as usize;
            let ptag = (x >> 2) % 4096;
            black_box(dir.access(core, ptag, x >> 62 == 0))
        });
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_seesaw_l1,
    bench_baseline_l1,
    bench_tft,
    bench_cache_array,
    bench_outer_copy,
    bench_partition,
    bench_tlb,
    bench_buddy,
    bench_trace_generator,
    bench_energy,
    bench_coherence
);
criterion_main!(benches);
