//! Staged replay: one cell's configuration re-executed one crate at a
//! time through the crates' public functions. Each stage consumes the
//! previous stages' recorded outputs and is timed as one span with its
//! work count, so per-layer host time comes without a timer per call.
//!
//! Stages, by crate (execution order in brackets where it differs):
//!
//! 1. `workloads`: the reference stream from `TraceGenerator::fill_refs`.
//! 2. `mem`: the memory image from `PhysicalMemory`, `Memhog::run` and
//!    `AddressSpace::mmap_anonymous`.
//! 3. `tlb`: translations from `TlbHierarchy::lookup`.
//! 4. `core` [after 6]: `L1DataCache::access`, `tft_fill` and
//!    `coherence_probe`, plus the recorded probes replayed as one batch
//!    against a clone of the final L1s (`core.ns_per_probe`).
//! 5. `cache`: the functional prewarm, one `clone()` of the warmed
//!    `OuterHierarchy`, then `access`/`writeback` for every L1 miss.
//! 6. `coherence` [after 3]: `DirectoryController::access` (multi-core)
//!    or the synthetic `CoherenceTraffic` probe stream (one core). Both
//!    depend only on translations, not on timing-L1 state.
//! 7. `cpu`: `CpuModel::retire` with the load-to-use latency assembled
//!    as the run loop does.
//! 8. `energy`: the `EnergyAccount` calls of the measured window.
//!
//! The replay mirrors `System::run` for the baseline VIPT and SEESAW
//! designs with the default scheduler hint, no prefetcher, no checker
//! and no fault injection. Page-table churn (`page_op_interval`) is not
//! replayed: its cost stays in `sim.unattributed_share`.

use std::collections::hash_map::{Entry, HashMap};
use std::hint::black_box;
use std::rc::Rc;

use seesaw_cache::{CacheConfig, IndexPolicy, MemoryLevel, OuterHierarchy, OuterHierarchyConfig};
use seesaw_coherence::{
    CoherenceMode, CoherenceTraffic, CoherenceTrafficConfig, DirectoryController,
};
use seesaw_core::{
    BaselineL1, HitTimeAssumption, L1DataCache, L1Request, L1Timing, SchedulerHint, SeesawConfig,
    SeesawL1,
};
use seesaw_cpu::{CpuModel, InOrderCpu, OooCpu};
use seesaw_energy::{EnergyAccount, EnergyModel, SramModel};
use seesaw_mem::{
    AddressSpace, Memhog, MemhogConfig, PageSize, PhysAddr, PhysicalMemory, ThpPolicy, Translation,
    VirtAddr, Vma,
};
use seesaw_sim::{CpuKind, L1DesignKind, RunConfig, SchedulerHintPolicy};
use seesaw_tlb::{TlbHierarchy, TlbHierarchyConfig, TlbLevel};
use seesaw_workloads::{TraceGenerator, TraceRef};

use crate::spans::{SpanId, Spans};

/// Per-core seed stride the simulator uses (core 0 keeps the base seed).
const CORE_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;
const LINE: u64 = 64;

/// The part of a built memory image the later stages read: the
/// populated address space and the workload's VMA.
#[derive(Clone)]
pub struct Image {
    space: AddressSpace,
    vma: Vma,
}

/// A recorded stream and the generator state just past it.
type Recording = (Rc<Vec<TraceRef>>, TraceGenerator);

/// Artifacts earlier replays in this process built, interned the way
/// the simulator interns them, so a replay skips exactly the work a
/// `System::run` of the same cell would skip.
#[derive(Default)]
pub struct Artifacts {
    /// Memory images by (workload, seed, memhog).
    images: HashMap<(&'static str, u64, u32), Image>,
    /// Recorded streams and their generators by (workload, seed, core,
    /// reference count).
    streams: HashMap<(&'static str, u64, usize, usize), Recording>,
    /// Prewarmed outer hierarchies by (image, cores, reference count,
    /// frequency).
    outers: HashMap<(&'static str, u64, u32, usize, usize, u64), OuterHierarchy>,
}

/// Counts of one replay (timings live in the span recorder).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// References generated (stage 1).
    pub refs_generated: u64,
    /// Memory images built (stage 2; 0 when an earlier replay built it).
    pub image_builds: u64,
    /// Superpage coverage of the image.
    pub superpage_coverage: f64,
    /// 2 MB slices demoted to base pages while populating.
    pub demotions: u64,
    /// TLB lookups (warmup + measured).
    pub tlb_lookups: u64,
    /// Lookups the L1 TLB served.
    pub tlb_l1_hits: u64,
    /// Page walks.
    pub walks: u64,
    /// L1 demand accesses (warmup + measured).
    pub l1_accesses: u64,
    /// L1 demand hits.
    pub l1_hits: u64,
    /// Ways read by demand accesses.
    pub ways_probed: u64,
    /// TFT lookups (SEESAW).
    pub tft_lookups: u64,
    /// TFT hits (SEESAW).
    pub tft_hits: u64,
    /// Coherence probes applied to timing L1s.
    pub probes: u64,
    /// Outer-hierarchy accesses and writebacks after prewarm.
    pub outer_accesses: u64,
    /// L2 hits and lookups after prewarm.
    pub l2_hits: u64,
    /// L2 lookups after prewarm.
    pub l2_lookups: u64,
    /// Directory transactions.
    pub transactions: u64,
    /// Directory probe deliveries.
    pub directory_probes: u64,
    /// `CpuModel::retire` calls.
    pub retires: u64,
    /// Measured-window L1 accesses, hits, TLB lookups and L1-TLB hits,
    /// for comparison with the simulator's own counters.
    pub measured: [u64; 4],
}

impl Counts {
    /// Adds another replay's counts (coverage excluded; demotions only
    /// from replays that built their image).
    pub fn absorb(&mut self, o: &Counts) {
        self.refs_generated += o.refs_generated;
        self.image_builds += o.image_builds;
        self.demotions += if o.image_builds > 0 { o.demotions } else { 0 };
        self.tlb_lookups += o.tlb_lookups;
        self.tlb_l1_hits += o.tlb_l1_hits;
        self.walks += o.walks;
        self.l1_accesses += o.l1_accesses;
        self.l1_hits += o.l1_hits;
        self.ways_probed += o.ways_probed;
        self.tft_lookups += o.tft_lookups;
        self.tft_hits += o.tft_hits;
        self.probes += o.probes;
        self.outer_accesses += o.outer_accesses;
        self.l2_hits += o.l2_hits;
        self.l2_lookups += o.l2_lookups;
        self.transactions += o.transactions;
        self.directory_probes += o.directory_probes;
        self.retires += o.retires;
        for (m, x) in self.measured.iter_mut().zip(o.measured) {
            *m += x;
        }
    }
}

/// One translated reference.
#[derive(Clone, Copy)]
struct Xlate {
    pa: u64,
    size: PageSize,
    level: TlbLevel,
    cost: u64,
    /// The SEESAW scheduler hint's answer right after this lookup.
    fast_hint: bool,
}

/// One L1 access outcome.
#[derive(Clone, Copy)]
struct L1Out {
    hit: bool,
    latency: u64,
    ways: usize,
    fast_held: bool,
    dirty_victim: Option<u64>,
}

/// A probe recorded by stage 6, delivered after reference `at`.
#[derive(Clone, Copy)]
struct ProbeRec {
    at: u32,
    target: u8,
    ptag: u64,
    invalidate: bool,
    writeback: bool,
}

#[derive(Clone)]
enum L1 {
    Base(Box<BaselineL1>),
    Seesaw(Box<SeesawL1>),
}

impl L1 {
    fn as_dyn(&mut self) -> &mut dyn L1DataCache {
        match self {
            L1::Base(l) => l.as_mut(),
            L1::Seesaw(l) => l.as_mut(),
        }
    }

    fn seesaw(&mut self) -> Option<&mut SeesawL1> {
        match self {
            L1::Seesaw(l) => Some(l),
            L1::Base(_) => None,
        }
    }
}

/// The baseline or SEESAW L1 the simulator builds for `config`, with its
/// timing and the ways one coherence probe reads.
fn build_l1(config: &RunConfig, sram: &SramModel) -> (L1, L1Timing, usize) {
    let (kb, ways, ghz) = (
        config.l1_size_kb,
        config.baseline_ways(),
        config.frequency.ghz(),
    );
    let slow = sram.full_lookup_cycles(kb, ways, ghz);
    match config.design {
        L1DesignKind::BaselineVipt => {
            let timing = L1Timing {
                fast_cycles: slow,
                slow_cycles: slow,
            };
            let cache = CacheConfig::new(kb << 10, ways, 64, IndexPolicy::Vipt);
            (
                L1::Base(Box::new(BaselineL1::new(cache, timing, false))),
                timing,
                ways,
            )
        }
        L1DesignKind::Seesaw => {
            let mut cfg = SeesawConfig::with_size_kb(kb)
                .with_tft_entries(config.tft_entries)
                .with_insertion(config.insertion);
            if let Some(p) = config.seesaw_partitions {
                cfg = cfg.with_partitions(p);
            }
            let timing = L1Timing {
                fast_cycles: sram.partition_lookup_cycles(kb, ways, cfg.partitions, ghz),
                slow_cycles: slow,
            };
            let probe_ways = (ways / cfg.partitions).max(1);
            (
                L1::Seesaw(Box::new(SeesawL1::new(cfg, timing))),
                timing,
                probe_ways,
            )
        }
        other => panic!("the staged replay covers baseline VIPT and SEESAW, not {other:?}"),
    }
}

/// The memory image exactly as the simulator builds it: light system
/// noise, the configured memhog, then the footprint through THP.
fn build_image(config: &RunConfig) -> Image {
    let footprint = config.workload.footprint_bytes();
    let mut pmem = PhysicalMemory::new((footprint * 4).max(128 << 20));
    let mut noise = Memhog::new(MemhogConfig {
        fraction: 0.04,
        unmovable_fraction: 0.10,
        churn_factor: 0.1,
        seed: config.seed ^ 0x1105e,
    });
    noise.run(&mut pmem);
    let requested = f64::from(config.memhog_percent.min(95)) / 100.0;
    let max_fraction =
        (pmem.free_bytes() as f64 - 1.3 * footprint as f64) / pmem.total_bytes() as f64;
    let mut hog = Memhog::new(MemhogConfig {
        fraction: requested.min(max_fraction.max(0.0)),
        seed: config.seed ^ 0x109,
        ..MemhogConfig::default()
    });
    hog.run(&mut pmem);
    let mut space = AddressSpace::new(1);
    let vma = space
        .mmap_anonymous(&mut pmem, footprint, ThpPolicy::Always)
        .expect("benchmark workloads fit their provisioned memory");
    let relocations = space.drain_foreign_relocations();
    hog.absorb_relocations(&relocations);
    noise.absorb_relocations(&relocations);
    space.drain_ops();
    Image { space, vma }
}

impl Artifacts {
    /// Whether any artifact of `workload` is interned.
    pub fn holds(&self, workload: &str) -> bool {
        self.images.keys().any(|k| k.0 == workload)
    }
}

/// Per-region last translation of the workload VMA: the simulator's
/// interned-translation fast path for its functional prewarm.
fn translate_interned(
    slots: &mut [Option<Translation>],
    space: &AddressSpace,
    base: VirtAddr,
    va: VirtAddr,
) -> Option<PhysAddr> {
    let slot = &mut slots[((va.raw() - base.raw()) >> 21) as usize];
    if let Some(t) = slot {
        let page = t.vpage.base().raw();
        if va.raw().wrapping_sub(page) < t.vpage.size().bytes() {
            return Some(PhysAddr::new(t.frame.base().raw() + (va.raw() - page)));
        }
    }
    let t = space.translate(va)?;
    *slot = Some(t);
    Some(t.pa)
}

/// References one core consumes in a phase of `budget` instructions
/// starting at `start`, extending the recording from the generator when
/// the phase outruns it (copying a shared recording only then).
fn consume(
    refs: &mut Rc<Vec<TraceRef>>,
    gen: &mut TraceGenerator,
    start: usize,
    budget: u64,
) -> usize {
    let (mut executed, mut i) = (0u64, start);
    while executed < budget {
        if i == refs.len() {
            gen.fill_refs(Rc::make_mut(refs), 64);
        }
        executed += refs[i].gap + 1;
        i += 1;
    }
    i
}

/// Replays `config` stage by stage under `root`, recording one span per
/// stage into `spans`. Returns the replay's counts.
///
/// # Panics
/// Panics for designs other than baseline VIPT and SEESAW, and on
/// page faults (which the simulator would also report).
pub fn replay(
    config: &RunConfig,
    art: &mut Artifacts,
    spans: &mut Spans,
    root: SpanId,
    cell: u32,
) -> Counts {
    let n = config.cores;
    let is_seesaw = config.design == L1DesignKind::Seesaw;
    let is_ooo = config.cpu == CpuKind::OutOfOrder;
    let warmup = config
        .warmup_instructions
        .unwrap_or((config.instructions / 3).min(500_000));
    let prewarm_refs = (config.instructions + config.instructions / 2) as usize;
    let mut c = Counts::default();

    // Stage 1 — streams: the prewarm recording (unless an earlier replay
    // recorded it), extended if the warmup and measured phases outrun it;
    // per core the [warmup, measured) split.
    let id = spans.open("workloads.generate", Some(root), cell);
    let mut streams: Vec<Rc<Vec<TraceRef>>> = Vec::with_capacity(n);
    let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(n);
    for core in 0..n {
        let key = (config.workload.name, config.seed, core, prewarm_refs);
        let (mut refs, mut gen) = art.streams.get(&key).cloned().unwrap_or_else(|| {
            let lane = (core as u64).wrapping_mul(CORE_SEED_STRIDE);
            let mut gen = TraceGenerator::new(&config.workload, config.seed ^ lane);
            let mut refs = Vec::with_capacity(prewarm_refs);
            gen.fill_refs(&mut refs, prewarm_refs);
            c.refs_generated += refs.len() as u64;
            let recorded = (Rc::new(refs), gen);
            art.streams.insert(key, recorded.clone());
            recorded
        });
        let before = refs.len();
        let warm_end = consume(&mut refs, &mut gen, 0, warmup);
        let end = consume(&mut refs, &mut gen, warm_end, config.instructions);
        c.refs_generated += (refs.len() - before) as u64;
        streams.push(refs);
        bounds.push((warm_end, end));
    }
    spans.close(id, c.refs_generated);

    // Stage 2 — the memory image (built once per key, like the simulator's cache).
    let image_key = (config.workload.name, config.seed, config.memhog_percent);
    if let Entry::Vacant(slot) = art.images.entry(image_key) {
        let id = spans.open("mem.image", Some(root), cell);
        slot.insert(build_image(config));
        spans.close(id, 1);
        c.image_builds = 1;
    }
    let Image { space, vma } = art.images[&image_key].clone();
    c.superpage_coverage = space.superpage_coverage();
    c.demotions = space.thp_stats().demoted_slices;

    // Global interleave: round-robin over the warmup windows, then over
    // the measured windows, one reference per core per turn.
    let mut order: Vec<(u8, u32)> = Vec::new();
    let mut measured_from = 0;
    for phase in 0..2 {
        if phase == 1 {
            measured_from = order.len();
        }
        let span = |i: usize| {
            if phase == 0 {
                (0, bounds[i].0)
            } else {
                bounds[i]
            }
        };
        let longest = (0..n).map(|i| span(i).1 - span(i).0).max().unwrap_or(0);
        for r in 0..longest {
            for i in 0..n {
                let (lo, hi) = span(i);
                if lo + r < hi {
                    order.push((i as u8, (lo + r) as u32));
                }
            }
        }
    }

    // Stage 3 — translations, per core in stream order.
    let tlb_config = match config.cpu {
        CpuKind::InOrder => TlbHierarchyConfig::atom(),
        CpuKind::OutOfOrder => TlbHierarchyConfig::sandybridge(),
    };
    let tlb_config = match config.l1_tlb_4k_entries {
        Some(e) => tlb_config.with_l1_4k_entries(e),
        None => tlb_config,
    };
    let hint = SchedulerHint::default();
    let id = spans.open("tlb.lookup", Some(root), cell);
    let mut xlates: Vec<Vec<Xlate>> = Vec::with_capacity(n);
    let mut fills: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    for core in 0..n {
        let mut tlbs = TlbHierarchy::new(tlb_config);
        let end = bounds[core].1;
        let mut out = Vec::with_capacity(end);
        for (k, r) in streams[core][..end].iter().enumerate() {
            let va = vma.base().offset(r.offset);
            let lookup = tlbs
                .lookup(va, &space)
                .expect("benchmark references stay mapped");
            for page in &lookup.superpage_l1_fills {
                fills[core].push((k as u32, page.base().raw()));
            }
            let fast_hint = is_seesaw && {
                let (valid, cap) = tlbs.superpage_l1_occupancy();
                hint.assumption(valid, cap) == HitTimeAssumption::Fast
            };
            out.push(Xlate {
                pa: lookup.entry.translate(va).raw(),
                size: lookup.entry.size,
                level: lookup.level,
                cost: lookup.cost_cycles,
                fast_hint,
            });
        }
        xlates.push(out);
    }
    spans.close(id, order.len() as u64);
    c.tlb_lookups = order.len() as u64;
    for (g, &(core, k)) in order.iter().enumerate() {
        let x = &xlates[core as usize][k as usize];
        let l1_hit = x.level == TlbLevel::L1;
        c.tlb_l1_hits += u64::from(l1_hit);
        c.walks += u64::from(x.level == TlbLevel::PageWalk);
        if g >= measured_from {
            c.measured[2] += 1;
            c.measured[3] += u64::from(l1_hit);
        }
    }

    // Stage 6 — coherence: the directory for multi-core runs, the
    // synthetic probe stream for one core.
    let sram = SramModel::tsmc28_scaled_22nm();
    let (proto, timing, probe_ways) = build_l1(config, &sram);
    let mut probes: Vec<ProbeRec> = Vec::new();
    if n > 1 {
        let geometry = CacheConfig::new(
            config.l1_size_kb << 10,
            config.baseline_ways(),
            64,
            IndexPolicy::Vipt,
        );
        let mode = if config.snoopy {
            CoherenceMode::Snoopy
        } else {
            CoherenceMode::Directory
        };
        let id = spans.open("coherence.directory", Some(root), cell);
        let mut dir = DirectoryController::new(n, geometry, mode, probe_ways);
        for (g, &(core, k)) in order.iter().enumerate() {
            let ptag = xlates[core as usize][k as usize].pa / LINE;
            let is_write = streams[core as usize][k as usize].is_write;
            for p in dir.access(core as usize, ptag, is_write).probes {
                probes.push(ProbeRec {
                    at: g as u32,
                    target: p.target as u8,
                    ptag,
                    invalidate: p.invalidate,
                    writeback: p.writeback,
                });
            }
        }
        c.transactions = dir.stats().transactions;
        c.directory_probes = probes.len() as u64;
        spans.close(id, c.transactions);
    } else {
        let snoop = if config.snoopy { 3.0 } else { 1.0 };
        let id = spans.open("coherence.synthetic", Some(root), cell);
        let mut traffic = CoherenceTraffic::new(CoherenceTrafficConfig {
            probes_per_kilo_instruction: config.workload.coherence_pki * snoop,
            invalidate_fraction: 0.3,
            targeted_fraction: 0.6,
            seed: config.seed ^ 0xc0c0,
        });
        for (g, &(_, k)) in order.iter().enumerate() {
            traffic.record_line(xlates[0][k as usize].pa / LINE);
            for p in traffic.step(streams[0][k as usize].gap + 1) {
                probes.push(ProbeRec {
                    at: g as u32,
                    target: 0,
                    ptag: p.ptag,
                    invalidate: p.invalidate,
                    writeback: false,
                });
            }
        }
        spans.close(id, probes.len() as u64);
    }

    // Stage 4 — the timing L1s: accesses, TFT fills, then this
    // reference's probes; context switches flush the TFT per phase.
    let switch_every = config.context_switch_interval.unwrap_or(u64::MAX);
    let mut l1s: Vec<L1> = vec![proto; n];
    let mut outs: Vec<L1Out> = Vec::with_capacity(order.len());
    let mut probe_ways_read: Vec<usize> = Vec::with_capacity(probes.len());
    let id = spans.open("core.l1", Some(root), cell);
    {
        let mut fill_cursor = vec![0usize; n];
        let mut executed = vec![0u64; n];
        let mut next_switch = vec![switch_every; n];
        let mut next_probe = 0;
        for (g, &(core, k)) in order.iter().enumerate() {
            if g == measured_from {
                executed.iter_mut().for_each(|e| *e = 0);
                next_switch.iter_mut().for_each(|s| *s = switch_every);
            }
            let (i, k) = (core as usize, k as usize);
            let x = xlates[i][k];
            let r = streams[i][k];
            let va = vma.base().offset(r.offset);
            let l1 = &mut l1s[i];
            while let Some(&(at, page)) = fills[i].get(fill_cursor[i]) {
                if at as usize != k {
                    break;
                }
                fill_cursor[i] += 1;
                if let Some(s) = l1.seesaw() {
                    s.tft_fill(VirtAddr::new(page));
                }
            }
            let out = l1.as_dyn().access(&L1Request {
                va,
                pa: PhysAddr::new(x.pa),
                page_size: x.size,
                is_write: r.is_write,
            });
            if let Some(hit) = out.tft_hit {
                c.tft_lookups += 1;
                c.tft_hits += u64::from(hit);
                if !hit && x.size.is_superpage() {
                    if let Some(s) = l1.seesaw() {
                        s.tft_fill(va);
                    }
                }
            }
            outs.push(L1Out {
                hit: out.hit,
                latency: out.latency_cycles,
                ways: out.ways_probed,
                fast_held: out.fast_assumption_held,
                dirty_victim: out.evicted.filter(|e| e.dirty).map(|e| e.ptag),
            });
            while let Some(p) = probes.get(next_probe).filter(|p| p.at as usize == g) {
                let (_, ways) = l1s[p.target as usize]
                    .as_dyn()
                    .coherence_probe(PhysAddr::new(p.ptag * LINE), p.invalidate);
                probe_ways_read.push(ways);
                next_probe += 1;
            }
            executed[i] += r.gap + 1;
            if executed[i] >= next_switch[i] {
                next_switch[i] += switch_every;
                if let Some(s) = l1s[i].seesaw() {
                    s.context_switch();
                }
            }
        }
    }
    c.l1_accesses = outs.len() as u64;
    spans.close(id, c.l1_accesses);
    c.probes = probes.len() as u64;
    for (g, o) in outs.iter().enumerate() {
        c.l1_hits += u64::from(o.hit);
        c.ways_probed += o.ways as u64;
        if g >= measured_from {
            c.measured[0] += 1;
            c.measured[1] += u64::from(o.hit);
        }
    }
    // The probe path alone: every recorded probe, as one batch, against
    // clones of the final L1s.
    let mut batch = l1s.clone();
    let id = spans.open("core.probe_batch", Some(root), cell);
    for p in &probes {
        black_box(
            batch[p.target as usize]
                .as_dyn()
                .coherence_probe(PhysAddr::new(p.ptag * LINE), p.invalidate),
        );
    }
    spans.close(id, probes.len() as u64);
    drop(batch);

    // Stage 5 — the outer hierarchy: functional prewarm over each
    // core's recording, one clone of the warmed state, then the misses,
    // victim writebacks and directory writebacks in interleave order.
    let outer_key = (
        image_key.0,
        image_key.1,
        image_key.2,
        n,
        prewarm_refs,
        config.frequency.ghz().to_bits(),
    );
    if let Entry::Vacant(slot) = art.outers.entry(outer_key) {
        let mut outer = OuterHierarchy::new(OuterHierarchyConfig::table_ii(config.frequency.ghz()));
        let mut slots: Vec<Option<Translation>> = vec![None; (vma.bytes() >> 21) as usize + 1];
        let id = spans.open("cache.prewarm", Some(root), cell);
        for stream in &streams {
            slots.iter_mut().for_each(|s| *s = None);
            for r in &stream[..prewarm_refs] {
                if let Some(pa) =
                    translate_interned(&mut slots, &space, vma.base(), vma.base().offset(r.offset))
                {
                    outer.access(pa.raw() / LINE, r.is_write);
                }
            }
        }
        spans.close(id, (prewarm_refs * n) as u64);
        slot.insert(outer);
    }
    let id = spans.open("cache.outer_clone", Some(root), cell);
    let mut outer = art.outers[&outer_key].clone();
    spans.close(id, 1);
    let l2_before = outer.stats().0;
    let mut miss: Vec<(MemoryLevel, u64)> = Vec::new();
    let id = spans.open("cache.outer", Some(root), cell);
    {
        let mut next_probe = 0;
        for (g, &(core, k)) in order.iter().enumerate() {
            let o = outs[g];
            if !o.hit {
                let x = xlates[core as usize][k as usize];
                miss.push(outer.access(x.pa / LINE, streams[core as usize][k as usize].is_write));
                c.outer_accesses += 1;
                if let Some(victim) = o.dirty_victim {
                    outer.writeback(victim);
                    c.outer_accesses += 1;
                }
            }
            while let Some(p) = probes.get(next_probe).filter(|p| p.at as usize == g) {
                if p.writeback {
                    outer.writeback(p.ptag);
                    c.outer_accesses += 1;
                }
                next_probe += 1;
            }
        }
    }
    spans.close(id, c.outer_accesses);
    let l2 = outer.stats().0;
    c.l2_hits = l2.hits - l2_before.hits;
    c.l2_lookups = l2.accesses() - l2_before.accesses();

    // Stage 7 — the timing cores: an in-order warmup model, then the
    // configured core for the measured window.
    let miss_squash = OooCpu::sandybridge().miss_squash_cycles();
    let static_hint = match config.scheduler_hint {
        SchedulerHintPolicy::Occupancy => None,
        SchedulerHintPolicy::AlwaysFast => Some(true),
        SchedulerHintPolicy::AlwaysSlow => Some(false),
    };
    let latency = |g: usize, x: &Xlate, miss_at: &mut usize| -> (u64, u64) {
        let o = outs[g];
        let mut lat = o.latency.max(x.cost + 1);
        let mut squash = 0;
        if !o.hit {
            lat += miss[*miss_at].1;
            *miss_at += 1;
            if is_ooo {
                squash = miss_squash;
            }
        } else if is_ooo && is_seesaw {
            if static_hint.unwrap_or(x.fast_hint) {
                if !o.fast_held {
                    squash = config.hit_time_squash_cycles;
                }
            } else {
                lat = lat.max(timing.slow_cycles);
            }
        }
        (lat, squash)
    };
    let id = spans.open("cpu.retire", Some(root), cell);
    let mut miss_at = 0;
    let mut warm: Vec<InOrderCpu> = (0..n).map(|_| InOrderCpu::atom()).collect();
    for (g, &(core, k)) in order[..measured_from].iter().enumerate() {
        let (lat, squash) = latency(g, &xlates[core as usize][k as usize], &mut miss_at);
        warm[core as usize].retire(streams[core as usize][k as usize].gap, lat, squash);
    }
    let cycles = match config.cpu {
        CpuKind::InOrder => retire_measured(
            &order,
            measured_from,
            &streams,
            &xlates,
            &latency,
            &mut miss_at,
            InOrderCpu::atom,
        ),
        CpuKind::OutOfOrder => retire_measured(
            &order,
            measured_from,
            &streams,
            &xlates,
            &latency,
            &mut miss_at,
            OooCpu::sandybridge,
        ),
    };
    c.retires = order.len() as u64;
    spans.close(id, c.retires);
    black_box(&warm);

    // Stage 8 — energy of the measured window.
    let id = spans.open("energy.account", Some(root), cell);
    let mut account = EnergyAccount::new(
        EnergyModel::new(sram),
        config.l1_size_kb,
        config.baseline_ways(),
    );
    let mut miss_at = outs[..measured_from].iter().filter(|o| !o.hit).count();
    let mut next_probe = probes.partition_point(|p| (p.at as usize) < measured_from);
    for g in measured_from..order.len() {
        let (core, k) = order[g];
        let (x, o) = (&xlates[core as usize][k as usize], outs[g]);
        account.tlb_l1();
        match x.level {
            TlbLevel::L1 => {}
            TlbLevel::L2 => account.tlb_l2(),
            TlbLevel::PageWalk => {
                account.tlb_l2();
                account.page_walk();
            }
        }
        if is_seesaw {
            account.tft_lookup();
        }
        account.cpu_lookup(o.ways);
        if !o.hit {
            let level = miss[miss_at].0;
            miss_at += 1;
            account.l2_access();
            if level >= MemoryLevel::Llc {
                account.llc_access();
            }
            if level == MemoryLevel::Dram {
                account.dram_access();
            }
            account.l1_fill();
            if o.dirty_victim.is_some() {
                account.l2_access();
            }
        }
        while let Some(p) = probes.get(next_probe).filter(|p| p.at as usize == g) {
            account.coherence_lookup(probe_ways_read[next_probe]);
            if p.writeback {
                account.l2_access();
            }
            next_probe += 1;
        }
    }
    let runtime_ns = cycles as f64 / config.frequency.ghz();
    black_box(account.finish_many(runtime_ns, n as u64));
    spans.close(id, (order.len() - measured_from) as u64);
    c
}

/// Retires the measured window on fresh cores of one model; returns the
/// makespan in cycles.
fn retire_measured<C: CpuModel>(
    order: &[(u8, u32)],
    measured_from: usize,
    streams: &[Rc<Vec<TraceRef>>],
    xlates: &[Vec<Xlate>],
    latency: &impl Fn(usize, &Xlate, &mut usize) -> (u64, u64),
    miss_at: &mut usize,
    make: impl Fn() -> C,
) -> u64 {
    let mut cpus: Vec<C> = (0..streams.len()).map(|_| make()).collect();
    for (g, &(core, k)) in order.iter().enumerate().skip(measured_from) {
        let (lat, squash) = latency(g, &xlates[core as usize][k as usize], miss_at);
        cpus[core as usize].retire(streams[core as usize][k as usize].gap, lat, squash);
    }
    cpus.iter().map(|c| c.cycles()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seesaw_sim::System;

    /// The replay processes exactly the simulator's reference count and
    /// lands within this absolute tolerance of its L1 and TLB hit rates.
    const HIT_RATE_TOLERANCE: f64 = 0.005;

    fn check(config: RunConfig) {
        let result = System::build(&config).unwrap().run().unwrap();
        let mut spans = Spans::default();
        let root = spans.open("replay", None, 0);
        let c = replay(&config, &mut Artifacts::default(), &mut spans, root, 0);
        spans.close(root, 1);
        let [accesses, hits, lookups, tlb_hits] = c.measured;
        // Every reference makes one L1 access and one TLB-hierarchy lookup.
        assert_eq!(accesses, result.l1.accesses(), "reference count");
        assert_eq!(lookups, accesses, "one translation per reference");
        // The simulator's L1-TLB counters sum the split 4 KB and 2 MB
        // structures' probes, so its hit rate per reference is its hits
        // over the reference count.
        let rate = |h: u64| h as f64 / accesses as f64;
        let (l1, sim_l1) = (rate(hits), rate(result.l1.hits));
        let (tlb, sim_tlb) = (rate(tlb_hits), rate(result.tlb_l1.hits));
        assert!(
            (l1 - sim_l1).abs() <= HIT_RATE_TOLERANCE,
            "L1 hit rate {l1} vs {sim_l1}"
        );
        assert!(
            (tlb - sim_tlb).abs() <= HIT_RATE_TOLERANCE,
            "TLB hit rate {tlb} vs {sim_tlb}"
        );
        for stage in [
            "workloads.generate",
            "mem.image",
            "tlb.lookup",
            "core.l1",
            "cache.outer",
            "cpu.retire",
            "energy.account",
        ] {
            assert!(spans.by_name(stage).1 > 0, "{stage} recorded no work");
        }
    }

    #[test]
    fn single_core_replay_matches_the_simulator() {
        for design in [L1DesignKind::BaselineVipt, L1DesignKind::Seesaw] {
            let mut config = RunConfig::paper("mcf")
                .design(design)
                .instructions(30_000)
                .warmup(10_000);
            config.context_switch_interval = Some(7_000);
            check(config);
        }
    }

    #[test]
    fn multi_core_replay_matches_the_simulator() {
        check(
            RunConfig::paper("cann")
                .design(L1DesignKind::Seesaw)
                .cores(2)
                .memhog(30)
                .instructions(20_000)
                .warmup(5_000),
        );
    }
}
