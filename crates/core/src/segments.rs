//! Segment extraction for randomcut-barrel DGAs (`AR`, Fig. 5).
//!
//! `AR` defines a global circular order over the pool. The `θ∃` valid
//! domains cut the circle into arcs; the NXDs that bots queried during an
//! epoch form *segments* of consecutive positions inside those arcs:
//!
//! * an **m-segment** ends in the middle of an arc — every bot covering it
//!   aborted after `θq` lookups;
//! * a **b-segment** ends at an arc boundary — at least one covering bot
//!   hit the valid domain.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How a segment terminates (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentKind {
    /// Ends mid-arc: all covering bots exhausted their barrels.
    Middle,
    /// Ends at an arc boundary (the next position is a valid domain).
    Boundary,
}

/// A maximal run of consecutive queried-NXD positions on the pool circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// First pool index of the run.
    pub start: usize,
    /// Number of consecutive positions covered.
    pub len: usize,
    /// Whether the run ends at an arc boundary.
    pub kind: SegmentKind,
}

/// Extracts the segments from the distinct NXD positions observed during
/// one epoch.
///
/// `nxd_positions` are the pool indices of queried NXDs, `valid_positions`
/// the registered-domain indices (arc boundaries), and `pool_len` the
/// circle size. Runs are maximal modulo `pool_len` (a run may wrap from
/// `pool_len − 1` to `0`).
///
/// # Panics
///
/// Panics if `pool_len == 0`, or any position is out of range, or a
/// position is both NXD and valid.
///
/// # Example
///
/// ```
/// use botmeter_core::{extract_segments, SegmentKind};
/// // Circle of 10; valid at 4 and 9; NXDs 2,3 (ends at boundary 4) and 6
/// // (ends mid-arc).
/// let segs = extract_segments(&[2, 3, 6], &[4, 9], 10);
/// assert_eq!(segs.len(), 2);
/// assert_eq!((segs[0].start, segs[0].len, segs[0].kind), (2, 2, SegmentKind::Boundary));
/// assert_eq!((segs[1].start, segs[1].len, segs[1].kind), (6, 1, SegmentKind::Middle));
/// ```
#[doc(hidden)]
pub fn extract_segments(
    nxd_positions: &[usize],
    valid_positions: &[usize],
    pool_len: usize,
) -> Vec<Segment> {
    assert!(pool_len > 0, "pool must be non-empty");
    let valid: BTreeSet<usize> = valid_positions.iter().copied().collect();
    let positions: BTreeSet<usize> = nxd_positions.iter().copied().collect();
    for &p in positions.iter().chain(valid.iter()) {
        assert!(p < pool_len, "position {p} out of range (pool {pool_len})");
    }
    for &p in &positions {
        assert!(!valid.contains(&p), "position {p} is both NXD and valid");
    }
    if positions.is_empty() {
        return Vec::new();
    }

    // Build maximal runs over the sorted positions.
    let sorted: Vec<usize> = positions.iter().copied().collect();
    let mut runs: Vec<(usize, usize)> = Vec::new(); // (start, len)
    let mut run_start = sorted[0];
    let mut prev = sorted[0];
    for &p in &sorted[1..] {
        if p == prev + 1 {
            prev = p;
        } else {
            runs.push((run_start, prev - run_start + 1));
            run_start = p;
            prev = p;
        }
    }
    runs.push((run_start, prev - run_start + 1));

    // Wraparound: merge the last run into the first if they are adjacent
    // on the circle (… pool_len−1][0 …) and the whole circle isn't one run.
    if runs.len() > 1 {
        let first = runs[0];
        let last = *runs.last().expect("non-empty");
        if last.0 + last.1 == pool_len && first.0 == 0 {
            runs[0] = (last.0, last.1 + first.1);
            runs.pop();
        }
    }

    runs.into_iter()
        .map(|(start, len)| {
            let after = (start + len) % pool_len;
            let kind = if valid.contains(&after) {
                SegmentKind::Boundary
            } else {
                SegmentKind::Middle
            };
            Segment { start, len, kind }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_no_segments() {
        assert!(extract_segments(&[], &[3], 10).is_empty());
    }

    #[test]
    fn single_position_mid_arc() {
        let segs = extract_segments(&[5], &[0], 10);
        assert_eq!(
            segs,
            vec![Segment {
                start: 5,
                len: 1,
                kind: SegmentKind::Middle
            }]
        );
    }

    #[test]
    fn boundary_detection() {
        let segs = extract_segments(&[1, 2, 3], &[4], 10);
        assert_eq!(segs[0].kind, SegmentKind::Boundary);
        let segs = extract_segments(&[1, 2], &[4], 10);
        assert_eq!(segs[0].kind, SegmentKind::Middle);
    }

    #[test]
    fn wraparound_merge() {
        // Positions 8,9,0,1 on a circle of 10 form ONE segment starting at 8.
        let segs = extract_segments(&[0, 1, 8, 9], &[5], 10);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].start, 8);
        assert_eq!(segs[0].len, 4);
        assert_eq!(segs[0].kind, SegmentKind::Middle);
    }

    #[test]
    fn wraparound_boundary() {
        // 9,0 wrap; valid at 1 makes it a b-segment.
        let segs = extract_segments(&[9, 0], &[1, 5], 10);
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].start, segs[0].len), (9, 2));
        assert_eq!(segs[0].kind, SegmentKind::Boundary);
    }

    #[test]
    fn multiple_segments_sorted_by_start() {
        let segs = extract_segments(&[1, 2, 6, 7, 8], &[0, 5], 12);
        assert_eq!(segs.len(), 2);
        assert!(segs[0].start < segs[1].start);
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let segs = extract_segments(&[3, 3, 4, 4], &[6], 10);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 2);
    }

    #[test]
    #[should_panic(expected = "both NXD and valid")]
    fn overlap_panics() {
        extract_segments(&[3], &[3], 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        extract_segments(&[10], &[], 10);
    }

    #[test]
    fn full_circle_minus_valid() {
        // Everything except the valid position queried: one segment of 9
        // ending at the boundary.
        let nxd: Vec<usize> = (1..10).collect();
        let segs = extract_segments(&nxd, &[0], 10);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 9);
        assert_eq!(segs[0].kind, SegmentKind::Boundary);
    }
}
