//! The promotion sweep (§IV-C2) and the audit that checks it, shared by
//! the designs that keep physically-tagged lines in a partitioned array
//! (SEESAW, VESPA); VIVT reuses the frame-range lookup for its
//! back-pointer sweep.

use std::cmp::Ordering;

use seesaw_cache::SetAssocCache;
use seesaw_mem::{PageFrame, PhysAddr};

use crate::{InsertionPolicy, PartitionDecoder, PromotionAudit};

/// The `[first, end)` line ranges of `frames`, sorted for [`in_ranges`].
pub(crate) fn frame_lines(frames: &[PageFrame], line_bytes: u64) -> Vec<(u64, u64)> {
    let mut ranges: Vec<(u64, u64)> = frames
        .iter()
        .map(|f| {
            let first = f.base().raw() / line_bytes;
            (first, first + f.size().bytes() / line_bytes)
        })
        .collect();
    ranges.sort_unstable();
    ranges
}

/// True if `line` falls in one of the sorted, disjoint `ranges`.
pub(crate) fn in_ranges(ranges: &[(u64, u64)], line: u64) -> bool {
    ranges
        .binary_search_by(|&(lo, hi)| {
            if line < lo {
                Ordering::Greater
            } else if line >= hi {
                Ordering::Less
            } else {
                Ordering::Equal
            }
        })
        .is_ok()
}

/// Evicts every line of the migrated-away `frames`; returns how many.
/// The paper hides the sweep inside the 150–200-cycle TLB-shootdown
/// window the OS already pays for, so it costs no extra stall.
pub(crate) fn sweep_frames(cache: &mut SetAssocCache, frames: &[PageFrame]) -> u64 {
    let ranges = frame_lines(frames, cache.config().line_bytes);
    cache.sweep(|ptag| in_ranges(&ranges, ptag)).len() as u64
}

/// Counts resident lines that sit outside the partition their physical
/// address names. Under a partition-deterministic insertion policy
/// (`4way`) this must be zero, or the narrow coherence path cannot find
/// them (§IV-C1); under VA-partition insertion the count is meaningless
/// and `None` is returned.
fn unreachable_lines(
    cache: &SetAssocCache,
    decoder: &PartitionDecoder,
    insertion: InsertionPolicy,
) -> Option<usize> {
    if !insertion.lines_are_partition_deterministic() {
        return None;
    }
    let line_bytes = cache.config().line_bytes;
    let unreachable = cache
        .resident_lines()
        .filter(|line| {
            let pa = PhysAddr::new(line.ptag * line_bytes);
            !decoder
                .mask_of(decoder.partition_of_pa(pa))
                .contains(line.way)
        })
        .count();
    Some(unreachable)
}

/// The post-promotion audit of a partitioned design: no line of the
/// migrated-away frames may survive the sweep, and every survivor must
/// sit in the partition its physical address names.
pub(crate) fn partitioned_audit(
    cache: &SetAssocCache,
    decoder: &PartitionDecoder,
    insertion: InsertionPolicy,
    old_frames: &[PageFrame],
) -> PromotionAudit {
    let ranges = frame_lines(old_frames, cache.config().line_bytes);
    PromotionAudit::Partitioned {
        resident: cache
            .resident_lines()
            .filter(|line| in_ranges(&ranges, line.ptag))
            .count(),
        unreachable: unreachable_lines(cache, decoder, insertion),
    }
}
