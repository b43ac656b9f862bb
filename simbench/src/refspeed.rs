//! Host-speed reference: a frozen kernel that times how fast the host
//! runs simulator-like code right now.
//!
//! The reference host is a shared microVM whose speed drifts by up to 2×
//! over minutes as other tenants come and go, and the simulator slows with
//! it. The kernel below — a two-level set-associative LRU cache model
//! driven by a mixed sequential/random line stream, a few MB of state like
//! the simulator's cache arrays — slows with it too: interleaved with
//! `multicore-churn` cells it tracked their host time with a correlation of
//! 0.93–0.97 (2.5–5-second bins) and 0.99 (30-second bins). It lives in the
//! benchmark and uses no simulator crate, so no change to the simulator
//! can move it. Timings divided by it cancel the host's drift and keep a
//! real speed-up or slow-down of the simulator.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Line accesses per timed chunk (about 10 ms on the reference host).
const CHUNK: usize = 80_000;
/// Timed chunks per probe; the probe reports their median.
const CHUNKS: usize = 5;
/// Median chunk time on the reference host, in ms: the speed the
/// corrected timings are expressed at.
pub const NOMINAL_CHUNK_MS: f64 = 10.0;

const L1_SETS: usize = 4096;
const L1_WAYS: usize = 8;
const L2_SETS: usize = 32_768;
const L2_WAYS: usize = 16;

/// The kernel's state: tags and LRU stamps of both levels.
struct Model {
    l1_tags: Vec<u64>,
    l1_lru: Vec<u32>,
    l2_tags: Vec<u64>,
    l2_lru: Vec<u32>,
    rng: u64,
    seq: u64,
    clock: u32,
}

/// The least recently used way of the set that starts at `base`.
fn victim(lru: &[u32], base: usize, ways: usize) -> usize {
    (1..ways).fold(0, |v, w| if lru[base + w] < lru[base + v] { w } else { v })
}

/// Looks `line` up in a set; on a miss fills the LRU way. Returns hit.
fn access(
    tags: &mut [u64],
    lru: &mut [u32],
    sets: usize,
    ways: usize,
    line: u64,
    clock: u32,
) -> bool {
    let base = (line as usize % sets) * ways;
    if let Some(w) = (0..ways).find(|&w| tags[base + w] == line) {
        lru[base + w] = clock;
        return true;
    }
    let v = victim(lru, base, ways);
    tags[base + v] = line;
    lru[base + v] = clock;
    false
}

impl Model {
    fn new() -> Model {
        let mut model = Model {
            l1_tags: vec![0; L1_SETS * L1_WAYS],
            l1_lru: vec![0; L1_SETS * L1_WAYS],
            l2_tags: vec![0; L2_SETS * L2_WAYS],
            l2_lru: vec![0; L2_SETS * L2_WAYS],
            rng: 0,
            seq: 0,
            clock: 0,
        };
        model.reset();
        model
    }

    /// Empties both levels and restarts the stream, in place.
    fn reset(&mut self) {
        self.l1_tags.fill(u64::MAX);
        self.l1_lru.fill(0);
        self.l2_tags.fill(u64::MAX);
        self.l2_lru.fill(0);
        self.rng = 0x9e37_79b9_7f4a_7c15;
        self.seq = 0;
        self.clock = 0;
    }

    /// Runs `n` line accesses; returns the hits in each level.
    fn run(&mut self, n: usize) -> (u64, u64) {
        let mut hits = (0, 0);
        for _ in 0..n {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let r = self.rng;
            // Half sequential within 64K lines, a quarter over 256K lines,
            // a quarter over 16M lines.
            let line = match r & 3 {
                0 | 1 => {
                    self.seq = self.seq.wrapping_add(1);
                    self.seq & 0xffff
                }
                2 => (r >> 8) & 0x3_ffff,
                _ => (r >> 8) & 0xff_ffff,
            };
            self.clock = self.clock.wrapping_add(1);
            if access(
                &mut self.l1_tags,
                &mut self.l1_lru,
                L1_SETS,
                L1_WAYS,
                line,
                self.clock,
            ) {
                hits.0 += 1;
            } else if access(
                &mut self.l2_tags,
                &mut self.l2_lru,
                L2_SETS,
                L2_WAYS,
                line,
                self.clock,
            ) {
                hits.1 += 1;
            }
        }
        hits
    }
}

/// The reference kernel, allocated once per process so that probing
/// neither allocates nor frees while the simulator runs. Its state (about
/// 6.5 MB) stays resident and counts toward the process's peak RSS.
pub struct Kernel(Model);

impl Kernel {
    pub fn new() -> Kernel {
        Kernel(Model::new())
    }

    /// Times the kernel now from an empty model: one untimed warm-up
    /// chunk, then the median of [`CHUNKS`] timed chunks, in ms.
    pub fn probe_ms(&mut self) -> f64 {
        let model = &mut self.0;
        model.reset();
        black_box(model.run(CHUNK));
        let times: Vec<f64> = (0..CHUNKS)
            .map(|_| {
                let t = Instant::now();
                black_box(model.run(CHUNK));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        stats::median(&times)
    }
}

/// The host's speed relative to the reference host, from a probe's chunk
/// time: 1 at the reference speed, 0.5 when the host runs at half speed.
/// A time measured now times this factor is the time at the reference
/// speed.
pub fn host_speed(probe_ms: f64) -> f64 {
    NOMINAL_CHUNK_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_mixes_hits_and_misses() {
        let (mut a, mut b) = (Model::new(), Model::new());
        let cold = a.run(CHUNK);
        assert_eq!(cold, b.run(CHUNK));
        b.run(CHUNK);
        b.reset();
        assert_eq!(cold, b.run(CHUNK));
        // Warm: some L1 hits, more L2 hits, and most accesses miss both.
        let (l1, l2) = a.run(CHUNK);
        assert!(l1 > 0 && l2 > l1 && l1 + l2 < CHUNK as u64 / 2, "{l1} {l2}");
    }

    #[test]
    fn host_speed_scales_times_to_the_reference_host() {
        assert_eq!(host_speed(NOMINAL_CHUNK_MS), 1.0);
        assert_eq!(host_speed(2.0 * NOMINAL_CHUNK_MS), 0.5);
        assert!(Kernel::new().probe_ms() > 0.0);
    }
}
