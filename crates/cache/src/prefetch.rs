//! A stream prefetcher for the outer hierarchy.
//!
//! The paper's target machines (Sandybridge/Atom) ship L2 stream
//! prefetchers; the evaluation doesn't isolate them, but a reproduction
//! should show SEESAW's gains are robust when one is present — SEESAW
//! attacks L1 *hit* latency and lookup width, which prefetching cannot
//! touch. This is a classic stream detector: per 4 KB region it tracks
//! the last line and direction, and after two accesses in the same
//! direction it runs `degree` lines ahead.

use std::collections::HashMap;

use seesaw_trace::{Collect, MetricsRegistry};

/// Per-region stream state.
#[derive(Debug, Clone, Copy)]
struct Stream {
    last_line: u64,
    direction: i64,
    confirmed: bool,
    /// Observation count at the stream's last touch (LRU stamp).
    touched: u64,
}

/// Prefetch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetches issued.
    pub issued: u64,
    /// Demand accesses that hit a prefetched line before eviction.
    pub useful: u64,
}

impl Collect for PrefetchStats {
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry) {
        let PrefetchStats { issued, useful } = *self;
        out.set_u64(&format!("{prefix}.issued"), issued);
        out.set_u64(&format!("{prefix}.useful"), useful);
    }
}

/// The stream prefetcher.
///
/// # Example
/// ```
/// use seesaw_cache::StreamPrefetcher;
/// let mut pf = StreamPrefetcher::new(4);
/// assert!(pf.observe(100).is_empty(), "first touch trains");
/// assert!(pf.observe(101).is_empty(), "second touch confirms");
/// let ahead = pf.observe(102);
/// assert_eq!(ahead, vec![103, 104, 105, 106]);
/// ```
#[derive(Debug)]
pub struct StreamPrefetcher {
    degree: usize,
    streams: HashMap<u64, Stream>,
    /// Observations so far; stamps each touch for LRU replacement.
    clock: u64,
    stats: PrefetchStats,
}

impl StreamPrefetcher {
    /// Lines per 4 KB region.
    const REGION_LINES: u64 = 64;
    /// Maximum tracked streams (oldest evicted beyond this).
    const MAX_STREAMS: usize = 64;

    /// Creates a prefetcher issuing `degree` lines ahead of a confirmed
    /// stream.
    ///
    /// # Panics
    /// Panics if `degree` is zero.
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "degree must be positive");
        Self {
            degree,
            streams: HashMap::new(),
            clock: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// Empties the prefetcher in place with a new `degree`, keeping the
    /// stream table's allocation: afterwards it is indistinguishable from
    /// [`StreamPrefetcher::new`].
    ///
    /// # Panics
    /// Panics if `degree` is zero.
    pub fn reset(&mut self, degree: usize) {
        assert!(degree > 0, "degree must be positive");
        self.degree = degree;
        self.streams.clear();
        self.clock = 0;
        self.stats = PrefetchStats::default();
    }

    /// Observes a demand-miss line address and returns the lines to
    /// prefetch.
    pub fn observe(&mut self, line: u64) -> Vec<u64> {
        let region = line / Self::REGION_LINES;
        self.clock += 1;
        let next = match self.streams.get_mut(&region) {
            Some(stream) => {
                let step = line as i64 - stream.last_line as i64;
                if step == stream.direction && (step == 1 || step == -1) {
                    stream.confirmed = true;
                } else {
                    // Only unit strides train a direction; larger jumps
                    // reset the stream to untrained.
                    stream.direction = if step.abs() == 1 { step } else { 0 };
                    stream.confirmed = false;
                }
                stream.last_line = line;
                stream.touched = self.clock;
                stream.confirmed.then_some((line, stream.direction))
            }
            None => {
                if self.streams.len() >= Self::MAX_STREAMS {
                    // Drop the least recently touched stream. Stamps are
                    // unique, so the victim does not depend on the map's
                    // (per-process random) iteration order.
                    if let Some((&old, _)) = self.streams.iter().min_by_key(|(_, s)| s.touched) {
                        self.streams.remove(&old);
                    }
                }
                self.streams.insert(
                    region,
                    Stream {
                        last_line: line,
                        direction: 0, // unknown until a second touch
                        confirmed: false,
                        touched: self.clock,
                    },
                );
                None
            }
        };
        match next {
            Some((line, dir)) => {
                let out: Vec<u64> = (1..=self.degree as i64)
                    .filter_map(|i| line.checked_add_signed(dir * i))
                    .collect();
                self.stats.issued += out.len() as u64;
                out
            }
            None => Vec::new(),
        }
    }

    /// Records that a prefetched line was hit by demand.
    pub fn record_useful(&mut self) {
        self.stats.useful += 1;
    }

    /// Prefetch counters.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }
}

// Hand-written so `clone_from` reuses the stream table (the derived
// impl reallocates). Both methods destructure every field: a new field
// that is not copied is a compile error.
impl Clone for StreamPrefetcher {
    fn clone(&self) -> Self {
        let Self {
            degree,
            streams,
            clock,
            stats,
        } = self;
        Self {
            degree: *degree,
            streams: streams.clone(),
            clock: *clock,
            stats: *stats,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            degree,
            streams,
            clock,
            stats,
        } = source;
        self.degree = *degree;
        self.streams.clone_from(streams);
        self.clock = *clock;
        self.stats = *stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_stream_confirms_and_runs_ahead() {
        let mut pf = StreamPrefetcher::new(2);
        assert!(pf.observe(10).is_empty());
        assert!(pf.observe(11).is_empty());
        assert_eq!(pf.observe(12), vec![13, 14]);
        assert_eq!(pf.observe(13), vec![14, 15]);
        assert_eq!(pf.stats().issued, 4);
    }

    #[test]
    fn descending_streams_work_too() {
        let mut pf = StreamPrefetcher::new(2);
        pf.observe(50);
        pf.observe(49);
        assert_eq!(pf.observe(48), vec![47, 46]);
    }

    #[test]
    fn random_accesses_never_confirm() {
        let mut pf = StreamPrefetcher::new(4);
        for line in [5u64, 17, 3, 40, 22, 8] {
            assert!(pf.observe(line).is_empty(), "line {line} fired");
        }
    }

    #[test]
    fn direction_change_retrains() {
        let mut pf = StreamPrefetcher::new(1);
        pf.observe(10);
        pf.observe(11);
        assert!(!pf.observe(12).is_empty());
        assert!(pf.observe(10).is_empty(), "reversal must retrain");
        assert!(pf.observe(9).is_empty(), "second touch in new direction");
        assert_eq!(pf.observe(8), vec![7]);
    }

    #[test]
    fn stream_table_is_bounded() {
        let mut pf = StreamPrefetcher::new(1);
        for region in 0..200u64 {
            pf.observe(region * 64);
        }
        assert!(pf.streams.len() <= StreamPrefetcher::MAX_STREAMS);
    }

    #[test]
    fn reset_and_clone_from_match_new_and_clone() {
        let mut dirty = StreamPrefetcher::new(2);
        for line in [10u64, 11, 12, 500, 501, 502, 503] {
            dirty.observe(line);
        }
        dirty.reset(3);
        let mut fresh = StreamPrefetcher::new(3);
        assert_eq!(dirty.stats(), fresh.stats());
        for line in [10u64, 11, 12, 13, 200, 201, 202] {
            assert_eq!(dirty.observe(line), fresh.observe(line), "line {line}");
        }
        let mut source = StreamPrefetcher::new(1);
        for line in [40u64, 41, 42] {
            source.observe(line);
        }
        dirty.clone_from(&source);
        assert_eq!(dirty.stats(), source.stats());
        assert_eq!(dirty.observe(43), vec![44]);
    }

    #[test]
    fn full_table_evicts_the_least_recently_touched_stream() {
        let max = StreamPrefetcher::MAX_STREAMS as u64;
        let mut pf = StreamPrefetcher::new(1);
        for region in 0..max {
            pf.observe(region * 64);
        }
        // Re-touch region 0 so region 1 is now the oldest.
        pf.observe(1);
        pf.observe(max * 64);
        assert!(pf.streams.contains_key(&0));
        assert!(!pf.streams.contains_key(&1));
        assert!(pf.streams.contains_key(&max));
    }
}
