//! Layout-equivalence properties for the data-oriented hot path.
//!
//! The speed campaign (ISSUE 7) rebuilt the per-reference loop around
//! packed replay buffers, interned translations, and process-wide warm
//! artifact caches. These properties pin that machinery to the reference
//! semantics: the packed/batched stream is *exactly* the generator's
//! stream, and a run served from the warm caches is bit-identical to a
//! cold run — same stats, same per-invariant checker counters — at 1
//! and 2 cores.

use proptest::prelude::*;

use seesaw_cache::{CacheConfig, IndexPolicy};
use seesaw_check::{ChaosConfig, FaultConfig};
use seesaw_core::{
    BaselineL1, L1DataCache, L1Request, L1Timing, MicroTagConfig, MicroTagL1, SeesawConfig,
    SeesawL1, VespaConfig, VespaL1, VivtL1,
};
use seesaw_mem::{PageSize, PhysAddr, VirtAddr};
use seesaw_sim::{Frequency, L1DesignKind, RunConfig, System};
use seesaw_workloads::{catalog, TraceGenerator, TraceRef};

proptest! {
    /// Pack/unpack is lossless over the generator's real output, and the
    /// batched 64-reference fill leaves the generator positioned exactly
    /// where per-reference dispatch would — so a replayed prefix spliced
    /// with live generation is indistinguishable from the live stream.
    #[test]
    fn packed_stream_is_the_generator_stream(
        wl in 0usize..16,
        seed in any::<u64>(),
        n in 1usize..512,
    ) {
        let spec = catalog()[wl % catalog().len()];
        let mut live = TraceGenerator::new(&spec, seed);
        let mut batched = live.clone();

        // Record `n` references the way the prewarm does: 64-reference
        // chunks into a scratch buffer, packed to u64 words.
        let mut scratch = Vec::new();
        let mut packed: Vec<u64> = Vec::new();
        while packed.len() < n {
            batched.fill_refs(&mut scratch, 64.min(n - packed.len()));
            packed.extend(scratch.drain(..).map(|r| r.pack()));
        }

        // The packed words round-trip to the live stream, reference by
        // reference.
        for word in packed {
            prop_assert_eq!(TraceRef::unpack(word), live.next_ref());
        }
        // And past the recorded prefix both generators continue in
        // lockstep: batching did not skew the RNG call order.
        for _ in 0..32 {
            prop_assert_eq!(batched.next_ref(), live.next_ref());
        }
    }
}

/// The drive functions for the dyn-vs-direct property. `drive_direct`
/// monomorphizes per concrete design — every `access` is a static call —
/// while `drive_dyn` goes through the `&mut dyn L1DataCache` vtable
/// exactly as the run loop does through each core's
/// `Box<dyn L1DataCache>`. The property says the two are observably
/// identical.
fn drive_direct<L: L1DataCache>(l1: &mut L, reqs: &[L1Request]) -> Vec<String> {
    reqs.iter().map(|r| format!("{:?}", l1.access(r))).collect()
}

fn drive_dyn(l1: &mut dyn L1DataCache, reqs: &[L1Request]) -> Vec<String> {
    reqs.iter().map(|r| format!("{:?}", l1.access(r))).collect()
}

/// Builds a random mixed request stream: page-local runs over a handful
/// of 2 MB regions, some superpage-backed (VA == PA inside the region,
/// as THP guarantees) and some splintered to scattered 4 KB frames.
fn request_stream(picks: &[(u8, u16, bool)]) -> Vec<L1Request> {
    picks
        .iter()
        .map(|&(region, line, is_write)| {
            let region = (region % 6) as u64;
            let va = (region + 1) * (2 << 20) + (line as u64) * 64;
            // Even regions are superpage-backed (identity-offset frame),
            // odd ones splintered: each 4 KB page maps to a frame whose
            // low 12 bits match but whose frame number is scrambled.
            let superpage = region.is_multiple_of(2);
            let pa = if superpage {
                va + 0x4000_0000
            } else {
                let page = va >> 12;
                ((page ^ 0x5_a5a5) << 12) | (va & 0xfff)
            };
            L1Request {
                va: VirtAddr::new(va),
                pa: PhysAddr::new(pa),
                page_size: if superpage {
                    PageSize::Super2M
                } else {
                    PageSize::Base4K
                },
                is_write,
            }
        })
        .collect()
}

proptest! {
    /// Every design driven through the `dyn L1DataCache` vtable (the
    /// run loop's `Box<dyn L1DataCache>` path) produces exactly the
    /// outcomes and final stats of the same design driven through
    /// static dispatch, over random mixed superpage/base streams with
    /// interleaved coherence probes.
    #[test]
    fn dyn_dispatch_is_bit_identical_to_direct(
        picks in prop::collection::vec((any::<u8>(), 0u16..2048, any::<bool>()), 1..200),
        probe_every in 3usize..17,
    ) {
        let reqs = request_stream(&picks);
        let timing = L1Timing { fast_cycles: 1, slow_cycles: 3 };
        let cache32 = || CacheConfig::new(32 << 10, 8, 64, IndexPolicy::Vipt);

        fn check<L: L1DataCache>(
            mut direct: L,
            mut dynamic: L,
            reqs: &[L1Request],
            probe_every: usize,
        ) {
            // Interleave identical coherence probes on both instances so
            // the dyn path's `coherence_probe` is pinned too.
            for (i, chunk) in reqs.chunks(probe_every).enumerate() {
                prop_assert_eq!(
                    drive_direct(&mut direct, chunk),
                    drive_dyn(&mut dynamic, chunk),
                    "outcome divergence in chunk {}",
                    i
                );
                let pa = chunk[0].pa;
                let d = direct.coherence_probe(pa, i % 2 == 0);
                let v = (&mut dynamic as &mut dyn L1DataCache).coherence_probe(pa, i % 2 == 0);
                prop_assert_eq!(d, v);
            }
            prop_assert_eq!(direct.total_ways(), {
                let dyn_ref: &mut dyn L1DataCache = &mut dynamic;
                dyn_ref.total_ways()
            });
            prop_assert_eq!(
                format!("{:?}", direct.cache_stats()),
                format!("{:?}", dynamic.cache_stats())
            );
        }

        let seesaw = || SeesawL1::new(SeesawConfig::l1_32k(), timing);
        let seesaw_mru = || SeesawL1::new(SeesawConfig::l1_32k().with_way_prediction(), timing);
        let baseline = || BaselineL1::new(cache32(), timing, false);
        let baseline_mru = || BaselineL1::new(cache32(), timing, true);
        let vespa = || VespaL1::new(VespaConfig::with_size_kb(32), timing);
        let utag = || MicroTagL1::new(MicroTagConfig::new(cache32()), timing);
        let vivt = || VivtL1::new(32 << 10, 8, timing);

        check(seesaw(), seesaw(), &reqs, probe_every);
        check(seesaw_mru(), seesaw_mru(), &reqs, probe_every);
        check(baseline(), baseline(), &reqs, probe_every);
        check(baseline_mru(), baseline_mru(), &reqs, probe_every);
        check(vespa(), vespa(), &reqs, probe_every);
        check(utag(), utag(), &reqs, probe_every);
        check(vivt(), vivt(), &reqs, probe_every);
    }
}

proptest! {
    // Whole-system runs are heavy, so this block trades case count for
    // workload diversity; every case still covers both core counts.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Running the same configuration twice — the first run populating
    /// the process-wide artifact caches (memory image, packed replay
    /// streams, prewarmed outer hierarchy), the second served from them
    /// — produces bit-identical results at 1 and 2 cores: every stat,
    /// every metrics counter, and every per-invariant shadow-checker
    /// counter. The design is drawn from the whole lab, so the VESPA
    /// and µtag alternatives are pinned exactly as the originals are.
    #[test]
    fn warm_cache_replay_is_bit_identical(
        wl in 0usize..16,
        size_sel in 0usize..2,
        design_sel in 0usize..5,
    ) {
        for cores in [1usize, 2] {
            let name = catalog()[wl % catalog().len()].name;
            let design = [
                L1DesignKind::Seesaw,
                L1DesignKind::BaselineVipt,
                L1DesignKind::SeesawWithWayPrediction,
                L1DesignKind::Vespa,
                L1DesignKind::BaselineMicroTag,
            ][design_sel];
            let cfg = RunConfig::quick(name)
                .design(design)
                .l1_size([32, 64][size_sel])
                .cores(cores)
                .with_checker()
                .instructions(20_000);
            let run = |cfg: &RunConfig| {
                System::build(cfg)
                    .unwrap_or_else(|e| panic!("build: {e}"))
                    .run()
                    .unwrap_or_else(|e| panic!("run: {e}"))
            };
            let cold = run(&cfg);
            let warm = run(&cfg);

            // Per-invariant checker counters, compared explicitly so a
            // divergence names the invariant.
            let cold_check = cold.checker.as_ref().expect("checker enabled");
            let warm_check = warm.checker.as_ref().expect("checker enabled");
            prop_assert_eq!(cold_check.loads_checked, warm_check.loads_checked);
            prop_assert_eq!(
                format!("{:?}", cold_check.violations),
                format!("{:?}", warm_check.violations)
            );

            // Then the whole result — totals, energy, MPKIs, histograms,
            // the full metrics registry — via its exhaustive Debug form.
            prop_assert_eq!(
                format!("{cold:?}"),
                format!("{warm:?}"),
                "cores = {}: warm-cache run diverged from cold run",
                cores
            );
        }
    }
}

/// The fixed configuration set of the order-independence property:
/// prefetch on and off, two frequencies, one and two cores, memhog
/// pressure — distinct prewarm keys that share outer-hierarchy buffers —
/// plus one cell that fails (a planted checker violation), so a buffer
/// also comes back from the error path.
fn order_cells() -> Vec<RunConfig> {
    let base = |name: &str| RunConfig::quick(name).instructions(20_000);
    let mut prefetch4 = base("mcf");
    prefetch4.prefetch_degree = Some(4);
    let mut prefetch2_fast = base("mcf").frequency(Frequency::F4_00);
    prefetch2_fast.prefetch_degree = Some(2);
    let mut two_core_prefetch = base("redis").cores(2);
    two_core_prefetch.prefetch_degree = Some(4);
    let chaos = ChaosConfig {
        drop_tft_invalidation_on_splinter: true,
        ..ChaosConfig::default()
    };
    let failing = RunConfig::quick("redis")
        .instructions(400_000)
        .design(L1DesignKind::Seesaw)
        .with_checker()
        .with_faults(
            FaultConfig::all(0xfa17_5eed)
                .mean_interval(2_000)
                .chaos(chaos),
        );
    vec![
        base("mcf"),
        prefetch4,
        prefetch2_fast,
        base("mcf")
            .frequency(Frequency::F2_80)
            .design(L1DesignKind::Seesaw),
        base("redis").cores(2),
        two_core_prefetch,
        base("olio").memhog(60),
        failing,
    ]
}

/// One outcome of a whole-system run, as its exhaustive Debug form.
fn run_outcome(cfg: &RunConfig) -> String {
    let system = System::build(cfg).unwrap_or_else(|e| panic!("build: {e}"));
    format!("{:?}", system.run())
}

/// A seeded Fisher–Yates shuffle (splitmix64 draws).
fn shuffled<T>(mut items: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Every cell's result is independent of which cells ran before it
    /// in the process: one fixed configuration set, run in two seeded
    /// orders, gives each configuration a `Debug`-identical `RunResult`
    /// (or error) every time it runs. Each configuration runs twice per
    /// order, so a snapshot miss (a warm from empty into a recycled
    /// buffer) and a snapshot hit (a copy into one) both land after
    /// varying predecessors; between the orders, a burst of short
    /// filler cells with distinct prewarm keys overflows the warm-outer
    /// cache, so the second order warms its cells from empty again.
    /// This pins the rule that a recycled outer-hierarchy buffer never
    /// leaks state across snapshot keys, geometries or error paths.
    #[test]
    fn results_are_independent_of_cell_order(
        first in any::<u64>(),
        second in any::<u64>(),
    ) {
        let cells = order_cells();
        let twice: Vec<usize> = (0..cells.len()).chain(0..cells.len()).collect();
        let mut outcomes: Vec<Vec<String>> = vec![Vec::new(); cells.len()];
        for (pass, seed) in [first, second].into_iter().enumerate() {
            if pass > 0 {
                for extra in 0..40 {
                    let filler = RunConfig::quick("astar").instructions(1_000 + extra);
                    System::build(&filler)
                        .unwrap_or_else(|e| panic!("build: {e}"))
                        .run()
                        .unwrap_or_else(|e| panic!("filler run: {e}"));
                }
            }
            for i in shuffled(twice.clone(), seed) {
                outcomes[i].push(run_outcome(&cells[i]));
            }
        }
        prop_assert!(
            outcomes[cells.len() - 1][0].starts_with("Err("),
            "the chaos cell must fail"
        );
        for (cfg, runs) in cells.iter().zip(&outcomes) {
            // A buffer recycled from a prefetch-free cell must still come
            // out of the prewarm with the configured prefetcher.
            prop_assert_eq!(
                runs[0].contains("outer.prefetch.issued"),
                cfg.prefetch_degree.is_some(),
                "{:?}: prefetcher presence",
                cfg.prefetch_degree
            );
        }
        for (i, runs) in outcomes.iter().enumerate() {
            for (k, run) in runs.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    &runs[0],
                    run,
                    "configuration {} diverged on its run {}",
                    i,
                    k
                );
            }
        }
    }
}
