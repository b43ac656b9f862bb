//! System construction: design wiring and interned build artifacts.
//!
//! Everything that turns a [`RunConfig`] into a runnable [`System`]
//! lives here — the per-design L1 instantiation ([`build_l1`]), the
//! memory-image builder (fragmented physical memory + THP-populated
//! address space), and the process-wide artifact caches that let figure
//! grids re-derive shared state with an `Arc` clone instead of a
//! rebuild. The run/step path stays in [`crate::system`]; the two halves
//! meet at the [`System`] struct's `pub(crate)` fields.

use seesaw_cache::{CacheConfig, IndexPolicy, OuterHierarchy, OuterHierarchyConfig};
use seesaw_check::{FaultConfig, FaultInjector, ShadowChecker};
use seesaw_coherence::{
    CoherenceMode, CoherenceTraffic, CoherenceTrafficConfig, DirectoryController,
};
use seesaw_core::{
    BaselineL1, L1DataCache, L1Timing, MicroTagConfig, MicroTagL1, SchedulerHint, SeesawConfig,
    SeesawL1, VespaConfig, VespaL1, VivtL1,
};
use seesaw_energy::{EnergyAccount, EnergyModel, SramModel};
use seesaw_mem::{
    AddressSpace, Memhog, MemhogConfig, PhysicalMemory, ThpPolicy, Vma,
};
use seesaw_tlb::{TlbHierarchy, TlbHierarchyConfig};
use seesaw_workloads::TraceGenerator;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::core::{Core, TranslationIntern};
use crate::system::System;
use crate::uncore::Uncore;
use crate::{CpuKind, L1DesignKind, ProbeSource, RunConfig, SimError};

/// Weyl increment: decorrelates per-core seeds while leaving core 0 on
/// the run's base seed, so `cores = 1` replays the single-core stream
/// bit-for-bit.
const CORE_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Builds one L1 instance of the configured design: the one place the
/// simulator names a design. Everything else the run loop needs about it
/// (timing, probe width, translation overlap, the TFT, page-op and
/// context-switch hooks, counters) comes through [`L1DataCache`].
pub(crate) fn build_l1(config: &RunConfig, sram: &SramModel) -> Box<dyn L1DataCache> {
    let ghz = config.frequency.ghz();
    let size_kb = config.l1_size_kb;
    let baseline_ways = config.baseline_ways();
    // Full-set designs hit at the full-set lookup time.
    let full_set = |ways| {
        let slow = sram.full_lookup_cycles(size_kb, ways, ghz);
        L1Timing {
            fast_cycles: slow,
            slow_cycles: slow,
        }
    };
    // Partitioned designs: one partition when fast, the full set when slow.
    let partitioned = |partitions| L1Timing {
        fast_cycles: sram.partition_lookup_cycles(size_kb, baseline_ways, partitions, ghz),
        slow_cycles: sram.full_lookup_cycles(size_kb, baseline_ways, ghz),
    };
    match config.design {
        L1DesignKind::BaselineVipt | L1DesignKind::BaselineWithWayPrediction => {
            let cache = CacheConfig::new(size_kb << 10, baseline_ways, 64, IndexPolicy::Vipt);
            let wp = config.design == L1DesignKind::BaselineWithWayPrediction;
            Box::new(BaselineL1::new(cache, full_set(baseline_ways), wp))
        }
        L1DesignKind::Seesaw | L1DesignKind::SeesawWithWayPrediction => {
            let mut seesaw_cfg = SeesawConfig::with_size_kb(size_kb)
                .with_tft_entries(config.tft_entries)
                .with_insertion(config.insertion);
            if let Some(partitions) = config.seesaw_partitions {
                seesaw_cfg = seesaw_cfg.with_partitions(partitions);
            }
            if config.design == L1DesignKind::SeesawWithWayPrediction {
                seesaw_cfg = seesaw_cfg.with_way_prediction();
            }
            let timing = partitioned(seesaw_cfg.partitions);
            Box::new(SeesawL1::new(seesaw_cfg, timing))
        }
        L1DesignKind::Pipt { ways } => {
            let cache = CacheConfig::new(size_kb << 10, ways, 64, IndexPolicy::Pipt);
            Box::new(BaselineL1::new(cache, full_set(ways), false))
        }
        L1DesignKind::Vivt { ways } => {
            let fast = sram.full_lookup_cycles(size_kb, ways, ghz);
            let timing = L1Timing {
                fast_cycles: fast,
                // The slow path is a synonym remap: two probe rounds.
                slow_cycles: fast * 2,
            };
            Box::new(VivtL1::new(size_kb << 10, ways, timing))
        }
        L1DesignKind::Vespa => {
            // SEESAW's geometry and timing menu, minus the TFT: the fast
            // narrow probe launches unconditionally, so the TFT-entry knob
            // is irrelevant but the partition override still applies.
            let mut vespa_cfg = VespaConfig::with_size_kb(size_kb);
            vespa_cfg.insertion = config.insertion;
            if let Some(partitions) = config.seesaw_partitions {
                vespa_cfg.partitions = partitions;
            }
            let timing = partitioned(vespa_cfg.partitions);
            Box::new(VespaL1::new(vespa_cfg, timing))
        }
        L1DesignKind::BaselineMicroTag => {
            let cache = CacheConfig::new(size_kb << 10, baseline_ways, 64, IndexPolicy::Vipt);
            // The chaos knob models hardware that serves a µtag match
            // without verifying the physical tag — the bug the checker's
            // way-prediction-alias invariant exists to catch.
            let verify = !config
                .faults
                .map(|f| f.chaos.skip_way_verification)
                .unwrap_or(false);
            let utag_cfg = if verify {
                MicroTagConfig::new(cache)
            } else {
                MicroTagConfig::new(cache).without_verification()
            };
            Box::new(MicroTagL1::new(utag_cfg, full_set(baseline_ways)))
        }
    }
}

/// The memory half of a built system: fragmented physical memory, the
/// populated address space, and the workload VMA. Everything here is a
/// pure function of `(workload, seed, memhog_percent)`, while a figure
/// grid re-derives it for every L1 size × frequency × design cell — so
/// built images are interned process-wide and cells start from a clone.
/// Determinism makes the clone sound: it is bit-for-bit the state a
/// fresh build would produce.
#[derive(Clone)]
pub(crate) struct MemoryImage {
    pub pmem: PhysicalMemory,
    pub space: AddressSpace,
    pub vma: Vma,
}

/// Cache key covering every input of [`build_memory_image`]: the full
/// workload spec (every mixture parameter participates via `Debug`,
/// mirroring the runner's config fingerprints), the seed, and the
/// memhog pressure.
pub(crate) fn memory_image_key(config: &RunConfig) -> String {
    format!(
        "{:?}|{}|{}",
        config.workload, config.seed, config.memhog_percent
    )
}

/// Entry caps for the process-wide artifact caches. Eviction is a full
/// clear — crude, but any eviction policy is correct (entries are pure
/// functions of their keys) and sweeps revisit at most a catalog of
/// workloads times a handful of frequencies before moving on.
const MEMORY_IMAGE_CAP: usize = 32;
pub(crate) const STREAM_CACHE_CAP: usize = 32;
const WARM_OUTER_CAP: usize = 24;

fn memory_images() -> &'static Mutex<HashMap<String, MemoryImage>> {
    static CACHE: OnceLock<Mutex<HashMap<String, MemoryImage>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A recorded reference stream: the packed references plus the
/// generator state advanced past them, so a run that hits skips every
/// RNG draw and `ln()` of stream synthesis and still continues the
/// stream seamlessly if it ever outruns the recording.
#[derive(Clone)]
pub(crate) struct StreamArtifact {
    pub refs: Arc<[u64]>,
    pub generator: TraceGenerator,
}

pub(crate) fn stream_cache() -> &'static Mutex<HashMap<String, StreamArtifact>> {
    static CACHE: OnceLock<Mutex<HashMap<String, StreamArtifact>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Spare outer-hierarchy buffers kept for reuse. One per concurrently
/// running cell is enough for the pool to serve every cell after the
/// first few; the cap bounds what a burst of snapshot evictions can pin.
const WARM_OUTER_SPARES: usize = 4;

/// The warm-outer artifact cache: prewarmed outer hierarchies (L2, LLC
/// and prefetcher state after the functional prewarm) plus a bounded
/// pool of spare buffers to copy them into.
///
/// Snapshots are keyed by everything the prewarm traffic depends on:
/// the memory image (translations), core count, reference count,
/// frequency (outer timing config), and prefetch degree. L1 geometry and
/// design are deliberately absent — prewarm bypasses the L1, which is
/// what makes one warmed image servable to every design cell of a figure
/// row.
///
/// A cell's buffer comes out of `spares` in [`System::build`] and goes
/// back at the end of its run, so in steady state no cell allocates or
/// pages in the ~6.7 MB of a Table II hierarchy just to copy a snapshot
/// (see [`prewarm_outer`]).
#[derive(Default)]
struct WarmOuter {
    snapshots: HashMap<String, Arc<OuterHierarchy>>,
    spares: Vec<OuterHierarchy>,
}

impl WarmOuter {
    fn recycle(&mut self, outer: OuterHierarchy) {
        if self.spares.len() < WARM_OUTER_SPARES {
            self.spares.push(outer);
        }
    }
}

fn warm_outer_cache() -> &'static Mutex<WarmOuter> {
    static CACHE: OnceLock<Mutex<WarmOuter>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// Table II's outer hierarchy at the configured frequency.
fn outer_config(config: &RunConfig) -> OuterHierarchyConfig {
    OuterHierarchyConfig::table_ii(config.frequency.ghz())
}

/// An outer-hierarchy buffer from the pool: a recycled spare when one is
/// left, else a fresh, empty allocation for `config`. The flag says
/// which — a recycled buffer still holds an earlier cell's state.
fn checkout_outer(config: &RunConfig) -> (OuterHierarchy, bool) {
    let spare = warm_outer_cache()
        .lock()
        .expect("warm outer lock")
        .spares
        .pop();
    match spare {
        Some(outer) => (outer, true),
        None => {
            let outer_cfg = outer_config(config);
            let outer = match config.prefetch_degree {
                Some(degree) => OuterHierarchy::with_prefetcher(outer_cfg, degree),
                None => OuterHierarchy::new(outer_cfg),
            };
            (outer, false)
        }
    }
}

/// Returns a finished cell's outer hierarchy to the spare pool.
pub(crate) fn checkin_outer(outer: OuterHierarchy) {
    warm_outer_cache()
        .lock()
        .expect("warm outer lock")
        .recycle(outer);
}

/// Where a cell's prewarmed outer hierarchy came from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PrewarmSource {
    /// Copied from an interned snapshot.
    Snapshot,
    /// Warmed from empty by this cell (and interned as the snapshot).
    Cold,
}

/// Stage 2 of the prewarm: overwrites the cell's buffer `outer` (from
/// [`System::build`], whatever it held) with the warmed outer state for
/// `key`.
///
/// On a snapshot hit that is one buffer-reusing `clone_from`. On a miss
/// a second pool buffer — `reset` first if it is a recycled spare; a
/// fresh one is already empty — is handed to `warm`, copied into
/// `outer`, and interned as the snapshot. Warming the buffer that
/// becomes the snapshot, rather than copying the cell's buffer into a
/// new one, means a fresh allocation is paged in only where the warm
/// touches it. Copies run outside the lock, so concurrent cells only
/// serialize on the map and pool bookkeeping.
pub(crate) fn prewarm_outer(
    config: &RunConfig,
    key: String,
    outer: &mut OuterHierarchy,
    warm: impl FnOnce(&mut OuterHierarchy),
) -> PrewarmSource {
    let snapshot = warm_outer_cache()
        .lock()
        .expect("warm outer lock")
        .snapshots
        .get(&key)
        .cloned();
    if let Some(snapshot) = snapshot {
        outer.clone_from(&snapshot);
        return PrewarmSource::Snapshot;
    }
    let (mut warmed, recycled) = checkout_outer(config);
    if recycled {
        warmed.reset(outer_config(config), config.prefetch_degree);
    }
    warm(&mut warmed);
    outer.clone_from(&warmed);
    let mut cache = warm_outer_cache().lock().expect("warm outer lock");
    if cache.snapshots.len() >= WARM_OUTER_CAP {
        // Evicted snapshots feed the spare pool; one still being copied
        // by another cell is dropped when that copy finishes.
        let evicted: Vec<_> = cache.snapshots.drain().map(|(_, s)| s).collect();
        for snapshot in evicted {
            if let Ok(outer) = Arc::try_unwrap(snapshot) {
                cache.recycle(outer);
            }
        }
    }
    if let Some(replaced) = cache.snapshots.insert(key, Arc::new(warmed)) {
        // Another cell warmed the same key concurrently; both are equal.
        if let Ok(outer) = Arc::try_unwrap(replaced) {
            cache.recycle(outer);
        }
    }
    PrewarmSource::Cold
}

/// Interned [`build_memory_image`]: clones a cached image when one
/// matches, builds and caches otherwise. Build failures propagate
/// uncached (they would recur identically, but they also carry context
/// a caller wants fresh).
fn memory_image(config: &RunConfig) -> Result<MemoryImage, SimError> {
    let key = memory_image_key(config);
    if let Some(img) = memory_images().lock().expect("memory image lock").get(&key) {
        return Ok(img.clone());
    }
    let img = build_memory_image(config)?;
    let mut cache = memory_images().lock().expect("memory image lock");
    if cache.len() >= MEMORY_IMAGE_CAP {
        cache.clear();
    }
    cache.insert(key, img.clone());
    Ok(img)
}

/// Builds the memory half of a system: physical memory fragmented by a
/// light system-noise allocator plus the configured memhog, then the
/// workload's footprint populated through the THP policy — so superpage
/// coverage emerges from the OS model, as on the paper's long-uptime
/// servers (§III-C, §V).
fn build_memory_image(config: &RunConfig) -> Result<MemoryImage, SimError> {
    let footprint = config.workload.footprint_bytes();
    // Physical memory is provisioned at 4x the footprint (min 128 MB):
    // like the paper's loaded servers, the workload is a substantial
    // fraction of memory, so memhog pressure actually bites.
    let pmem_bytes = (footprint * 4).max(128 << 20);
    let mut pmem = PhysicalMemory::new(pmem_bytes);

    // Long-uptime system noise: a thin layer of scattered allocations,
    // some pinned (kernel/network stack), always present.
    let mut noise = Memhog::new(MemhogConfig {
        fraction: 0.04,
        unmovable_fraction: 0.10,
        churn_factor: 0.1,
        seed: config.seed ^ 0x1105e,
    });
    noise.run(&mut pmem);

    // The co-running memhog at the configured pressure, clamped so the
    // workload's footprint still fits (the paper's real system would
    // swap; we don't model swap).
    let requested = f64::from(config.memhog_percent.min(95)) / 100.0;
    let max_fraction =
        (pmem.free_bytes() as f64 - 1.3 * footprint as f64) / pmem.total_bytes() as f64;
    let mut hog = Memhog::new(MemhogConfig {
        fraction: requested.min(max_fraction.max(0.0)),
        seed: config.seed ^ 0x109,
        ..MemhogConfig::default()
    });
    hog.run(&mut pmem);

    // Populate the workload's heap through transparent huge pages.
    let mut space = AddressSpace::new(1);
    let vma = space
        .mmap_anonymous(&mut pmem, footprint, ThpPolicy::Always)
        .map_err(|source| SimError::Mem {
            context: "populating the workload footprint",
            source,
        })?;
    // Compaction during population may have migrated hog-owned blocks.
    let relocations = space.drain_foreign_relocations();
    hog.absorb_relocations(&relocations);
    noise.absorb_relocations(&relocations);
    space.drain_ops(); // initial mappings carry no stale state

    Ok(MemoryImage { pmem, space, vma })
}

impl System {
    /// Builds the system: physical memory is fragmented by a light
    /// system-noise allocator plus the configured memhog before the
    /// workload's footprint is populated through the THP policy — so
    /// superpage coverage emerges from the OS model, as on the paper's
    /// long-uptime servers (§III-C, §V).
    ///
    /// With [`RunConfig::cores`] > 1, N identical cores are built, each
    /// with its own TLBs, L1, and independently-seeded workload stream
    /// (all threads of one process: the address space is shared), and —
    /// under [`ProbeSource::Coherence`] — a functional MOESI directory
    /// (or snoopy bus, per [`RunConfig::snoopy`]) generates every
    /// coherence probe from real peer misses and upgrades.
    ///
    /// # Errors
    /// Returns [`SimError::Mem`] if physical memory cannot back the
    /// workload's footprint even with base pages (the THP path already
    /// degrades superpage failures to 4 KB fallback, counted in
    /// [`crate::RunResult::demotions`]).
    pub fn build(config: &RunConfig) -> Result<System, SimError> {
        let MemoryImage { pmem, space, vma } = memory_image(config)?;
        let sram = SramModel::tsmc28_scaled_22nm();
        let n = config.cores.max(1);
        let mut cores = Vec::with_capacity(n);
        for id in 0..n {
            // Each core streams its own workload instance, decorrelated
            // by a Weyl stride; core 0 keeps the run's base seed so the
            // single-core stream is unchanged by the refactor.
            let lane = (id as u64).wrapping_mul(CORE_SEED_STRIDE);
            // Synthetic probe stream only when no directory generates the
            // real thing; snoopy protocols broadcast, multiplying
            // delivered probes (§VI-B).
            let traffic = (config.probe_source == ProbeSource::Synthetic).then(|| {
                let snoop_factor = if config.snoopy { 3.0 } else { 1.0 };
                CoherenceTraffic::new(CoherenceTrafficConfig {
                    probes_per_kilo_instruction: config.workload.coherence_pki * snoop_factor,
                    invalidate_fraction: 0.3,
                    targeted_fraction: 0.6,
                    seed: config.seed ^ 0xc0c0 ^ lane,
                })
            });
            cores.push(Core {
                id,
                tlbs: TlbHierarchy::new(Self::tlb_config(config)),
                l1: build_l1(config, &sram),
                generator: TraceGenerator::new(&config.workload, config.seed ^ lane),
                hint: SchedulerHint::default(),
                traffic,
                checker: config.checker.then(ShadowChecker::new),
                injector: config.faults.map(|f| {
                    let per_core = FaultConfig {
                        seed: f.seed ^ lane,
                        ..f
                    };
                    // An explicit schedule for this core (shrinker replay)
                    // supersedes the seeded stream; missing entries keep it.
                    match config
                        .fault_schedules
                        .as_ref()
                        .and_then(|s| s.get(id))
                    {
                        Some(schedule) => FaultInjector::replay(per_core, schedule.clone()),
                        None => FaultInjector::new(per_core),
                    }
                }),
                elapsed: 0,
                xlate: TranslationIntern::new(vma.base().raw(), vma.bytes()),
                replay: Arc::from(Vec::new()),
                replay_cursor: 0,
            });
        }

        // The real coherence substrate: a functional model of every
        // core's L1 tag state under MOESI, sized like the timing L1s,
        // probing one partition per delivery for SEESAW designs.
        let total_ways = cores[0].l1.total_ways();
        let coherence = (config.probe_source == ProbeSource::Coherence).then(|| {
            let geometry =
                CacheConfig::new(config.l1_size_kb << 10, total_ways, 64, IndexPolicy::Vipt);
            let mode = if config.snoopy {
                CoherenceMode::Snoopy
            } else {
                CoherenceMode::Directory
            };
            DirectoryController::new(n, geometry, mode, cores[0].l1.probe_ways())
        });

        // The prewarm stage overwrites this buffer whatever it holds, so
        // build only checks one out: no cell pays for an allocation it
        // then drops.
        let (outer, _) = checkout_outer(config);
        let account = EnergyAccount::new(EnergyModel::new(sram), config.l1_size_kb, total_ways);

        Ok(System {
            config: config.clone(),
            cores,
            uncore: Uncore {
                pmem,
                space,
                vma,
                outer,
                account,
                coherence,
                pressure_hogs: Vec::new(),
                run_demotions: 0,
            },
        })
    }

    pub(crate) fn tlb_config(config: &RunConfig) -> TlbHierarchyConfig {
        let mut tlb = match config.cpu {
            CpuKind::InOrder => TlbHierarchyConfig::atom(),
            CpuKind::OutOfOrder => TlbHierarchyConfig::sandybridge(),
        };
        if let Some(entries) = config.l1_tlb_4k_entries {
            tlb = tlb.with_l1_4k_entries(entries);
        }
        tlb
    }
}
