//! Versioned, diffable landscapes: the snapshot algebra behind the
//! `botmeterd` incremental charting daemon.
//!
//! A long-running deployment publishes a [`Landscape`] per epoch close.
//! Consumers that poll the snapshot store do not want to re-read thousands
//! of unchanged cells, so each published snapshot carries a monotonically
//! increasing [`LandscapeVersion`] and any two snapshots can be diffed into
//! a [`LandscapeDelta`]: the added, removed and re-estimated cells, with
//! old/new estimates and [`CellQuality`] transitions. Deltas are exact —
//! [`Landscape::apply`] reconstructs the newer snapshot bit for bit, and
//! verifies the older one along the way.

use crate::botmeter::{CellQuality, Landscape, LandscapeEntry};
use botmeter_dns::ServerId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Monotonic counter identifying one published landscape snapshot.
///
/// Versions are assigned by the snapshot store starting at `1`;
/// [`LandscapeVersion::ZERO`] is the "nothing published yet" sentinel.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct LandscapeVersion(pub u64);

impl LandscapeVersion {
    /// The pre-first-publish sentinel.
    pub const ZERO: LandscapeVersion = LandscapeVersion(0);

    /// The next version in sequence.
    #[must_use]
    pub fn next(self) -> LandscapeVersion {
        LandscapeVersion(self.0 + 1)
    }
}

impl fmt::Display for LandscapeVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One cell's transition between two landscape snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CellChange {
    /// The cell exists in the newer snapshot only.
    Added {
        /// The cell's forwarding server.
        server: ServerId,
        /// The cell's epoch.
        epoch: u64,
        /// The new estimate.
        estimate: f64,
        /// The new quality flag.
        quality: CellQuality,
        /// The new sketch error bound, if the cell was charted from
        /// sketch telemetry (absent in exact mode, and absent from the
        /// JSON so pre-sketch deltas parse and serialize unchanged).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        error_bound: Option<f64>,
    },
    /// The cell exists in the older snapshot only.
    Removed {
        /// The cell's forwarding server.
        server: ServerId,
        /// The cell's epoch.
        epoch: u64,
        /// The old estimate (recorded so [`Landscape::apply`] can verify
        /// it is removing what the delta was computed against).
        estimate: f64,
        /// The old quality flag.
        quality: CellQuality,
        /// The old sketch error bound, if any (verified on removal like
        /// the estimate).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        error_bound: Option<f64>,
    },
    /// The cell exists in both snapshots with a different estimate,
    /// quality flag or error bound.
    Reestimated {
        /// The cell's forwarding server.
        server: ServerId,
        /// The cell's epoch.
        epoch: u64,
        /// The estimate in the older snapshot.
        old_estimate: f64,
        /// The estimate in the newer snapshot.
        new_estimate: f64,
        /// The quality flag in the older snapshot.
        old_quality: CellQuality,
        /// The quality flag in the newer snapshot.
        new_quality: CellQuality,
        /// The sketch error bound in the older snapshot, if any.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        old_error_bound: Option<f64>,
        /// The sketch error bound in the newer snapshot, if any.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        new_error_bound: Option<f64>,
    },
}

impl CellChange {
    /// The changed cell's forwarding server.
    pub fn server(&self) -> ServerId {
        match *self {
            CellChange::Added { server, .. }
            | CellChange::Removed { server, .. }
            | CellChange::Reestimated { server, .. } => server,
        }
    }

    /// The changed cell's epoch.
    pub fn epoch(&self) -> u64 {
        match *self {
            CellChange::Added { epoch, .. }
            | CellChange::Removed { epoch, .. }
            | CellChange::Reestimated { epoch, .. } => epoch,
        }
    }
}

/// The exact difference between two landscape snapshots: one
/// [`CellChange`] per touched (server, epoch) cell, ordered by
/// (server asc, epoch asc). Produced by [`Landscape::diff`], consumed by
/// [`Landscape::apply`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LandscapeDelta {
    changes: Vec<CellChange>,
}

impl LandscapeDelta {
    /// Every cell transition, ordered by (server, epoch).
    pub(crate) fn changes(&self) -> &[CellChange] {
        &self.changes
    }

    /// Number of changed cells.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether the two snapshots were identical.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of [`CellChange::Added`] cells.
    pub fn added(&self) -> usize {
        self.changes
            .iter()
            .filter(|c| matches!(c, CellChange::Added { .. }))
            .count()
    }

    /// Number of [`CellChange::Removed`] cells.
    pub fn removed(&self) -> usize {
        self.changes
            .iter()
            .filter(|c| matches!(c, CellChange::Removed { .. }))
            .count()
    }

    /// Number of [`CellChange::Reestimated`] cells.
    pub fn reestimated(&self) -> usize {
        self.changes
            .iter()
            .filter(|c| matches!(c, CellChange::Reestimated { .. }))
            .count()
    }
}

/// A delta applied to the wrong base snapshot, reported by
/// [`Landscape::apply`] instead of silently producing a corrupt landscape.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DeltaError {
    /// The delta removes or re-estimates a cell the base does not hold.
    MissingCell {
        /// The missing cell's server.
        server: ServerId,
        /// The missing cell's epoch.
        epoch: u64,
    },
    /// The delta adds a cell the base already holds.
    UnexpectedCell {
        /// The colliding cell's server.
        server: ServerId,
        /// The colliding cell's epoch.
        epoch: u64,
    },
    /// The base cell's estimate or quality does not match the old value
    /// recorded in the delta.
    CellMismatch {
        /// The mismatching cell's server.
        server: ServerId,
        /// The mismatching cell's epoch.
        epoch: u64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::MissingCell { server, epoch } => {
                write!(f, "delta touches absent cell ({server}, epoch {epoch})")
            }
            DeltaError::UnexpectedCell { server, epoch } => {
                write!(f, "delta adds occupied cell ({server}, epoch {epoch})")
            }
            DeltaError::CellMismatch { server, epoch } => write!(
                f,
                "base cell ({server}, epoch {epoch}) does not match the delta's old value"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Bit-exact cell comparison: estimates (and sketch error bounds) compare
/// by their IEEE-754 bits, so the diff honours the workspace's bit-for-bit
/// determinism contract.
fn same_cell(a: &LandscapeEntry, b: &LandscapeEntry) -> bool {
    a.estimate.to_bits() == b.estimate.to_bits()
        && a.quality == b.quality
        && same_bound(a.error_bound, b.error_bound)
}

/// Bit-exact comparison of two optional error bounds.
fn same_bound(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
        _ => false,
    }
}

impl Landscape {
    /// The exact change set from `prev` to `self`, ordered by
    /// (server, epoch).
    ///
    /// `prev.apply(&delta)` reconstructs `self` (see [`Landscape::apply`]);
    /// an identical pair diffs to an empty delta.
    pub fn diff(&self, prev: &Landscape) -> LandscapeDelta {
        let mut old: BTreeMap<(ServerId, u64), &LandscapeEntry> = prev
            .entries()
            .iter()
            .map(|e| ((e.server, e.epoch), e))
            .collect();
        let mut changes: Vec<CellChange> = Vec::new();
        for new in self.entries() {
            match old.remove(&(new.server, new.epoch)) {
                None => changes.push(CellChange::Added {
                    server: new.server,
                    epoch: new.epoch,
                    estimate: new.estimate,
                    quality: new.quality,
                    error_bound: new.error_bound,
                }),
                Some(before) if !same_cell(before, new) => changes.push(CellChange::Reestimated {
                    server: new.server,
                    epoch: new.epoch,
                    old_estimate: before.estimate,
                    new_estimate: new.estimate,
                    old_quality: before.quality,
                    new_quality: new.quality,
                    old_error_bound: before.error_bound,
                    new_error_bound: new.error_bound,
                }),
                Some(_) => {}
            }
        }
        for ((server, epoch), gone) in old {
            changes.push(CellChange::Removed {
                server,
                epoch,
                estimate: gone.estimate,
                quality: gone.quality,
                error_bound: gone.error_bound,
            });
        }
        changes.sort_by_key(|c| (c.server(), c.epoch()));
        LandscapeDelta { changes }
    }

    /// Applies a delta produced by [`diff`](Self::diff) against `self` as
    /// the *older* snapshot, returning the newer one:
    /// `prev.apply(&next.diff(&prev)) == next`, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a [`DeltaError`] when the delta was not computed against
    /// `self` — a touched cell is absent, an added cell is occupied, or a
    /// recorded old value does not match.
    pub fn apply(&self, delta: &LandscapeDelta) -> Result<Landscape, DeltaError> {
        let mut cells: BTreeMap<(ServerId, u64), LandscapeEntry> = self
            .entries()
            .iter()
            .map(|e| ((e.server, e.epoch), *e))
            .collect();
        for change in delta.changes() {
            let key = (change.server(), change.epoch());
            match *change {
                CellChange::Added {
                    server,
                    epoch,
                    estimate,
                    quality,
                    error_bound,
                } => {
                    if cells.contains_key(&key) {
                        return Err(DeltaError::UnexpectedCell { server, epoch });
                    }
                    cells.insert(
                        key,
                        LandscapeEntry {
                            server,
                            epoch,
                            estimate,
                            quality,
                            error_bound,
                        },
                    );
                }
                CellChange::Removed {
                    server,
                    epoch,
                    estimate,
                    quality,
                    error_bound,
                } => {
                    let held = cells
                        .remove(&key)
                        .ok_or(DeltaError::MissingCell { server, epoch })?;
                    let expected = LandscapeEntry {
                        server,
                        epoch,
                        estimate,
                        quality,
                        error_bound,
                    };
                    if !same_cell(&held, &expected) {
                        return Err(DeltaError::CellMismatch { server, epoch });
                    }
                }
                CellChange::Reestimated {
                    server,
                    epoch,
                    old_estimate,
                    new_estimate,
                    old_quality,
                    new_quality,
                    old_error_bound,
                    new_error_bound,
                } => {
                    let held = cells
                        .get_mut(&key)
                        .ok_or(DeltaError::MissingCell { server, epoch })?;
                    let expected = LandscapeEntry {
                        server,
                        epoch,
                        estimate: old_estimate,
                        quality: old_quality,
                        error_bound: old_error_bound,
                    };
                    if !same_cell(held, &expected) {
                        return Err(DeltaError::CellMismatch { server, epoch });
                    }
                    held.estimate = new_estimate;
                    held.quality = new_quality;
                    held.error_bound = new_error_bound;
                }
            }
        }
        Ok(Landscape::from_entries(cells.into_values().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(server: u32, epoch: u64, estimate: f64, quality: CellQuality) -> LandscapeEntry {
        LandscapeEntry {
            server: ServerId(server),
            epoch,
            estimate,
            quality,
            error_bound: None,
        }
    }

    fn landscape(entries: Vec<LandscapeEntry>) -> Landscape {
        Landscape::from_entries(entries)
    }

    #[test]
    fn identical_landscapes_diff_empty() {
        let a = landscape(vec![entry(1, 0, 5.0, CellQuality::Ok)]);
        let delta = a.diff(&a.clone());
        assert!(delta.is_empty());
        assert_eq!(a.apply(&delta).unwrap(), a);
    }

    #[test]
    fn diff_classifies_added_removed_reestimated() {
        let prev = landscape(vec![
            entry(1, 0, 5.0, CellQuality::Ok),
            entry(2, 0, 3.0, CellQuality::Ok),
            entry(2, 1, 8.0, CellQuality::Ok),
        ]);
        let next = landscape(vec![
            entry(1, 0, 5.0, CellQuality::Ok),       // unchanged
            entry(2, 0, 4.5, CellQuality::Ok),       // re-estimated
            entry(3, 1, 2.0, CellQuality::Degraded), // added
        ]);
        let delta = next.diff(&prev);
        assert_eq!(delta.len(), 3);
        assert_eq!(delta.added(), 1);
        assert_eq!(delta.removed(), 1);
        assert_eq!(delta.reestimated(), 1);
        // Ordered by (server, epoch): (2,0) re-estimated, (2,1) removed,
        // (3,1) added.
        assert!(matches!(
            delta.changes()[0],
            CellChange::Reestimated {
                server: ServerId(2),
                epoch: 0,
                ..
            }
        ));
        assert!(matches!(
            delta.changes()[1],
            CellChange::Removed {
                server: ServerId(2),
                epoch: 1,
                ..
            }
        ));
        assert!(matches!(
            delta.changes()[2],
            CellChange::Added {
                server: ServerId(3),
                epoch: 1,
                ..
            }
        ));
        assert_eq!(prev.apply(&delta).unwrap(), next);
    }

    #[test]
    fn quality_only_transition_is_a_reestimate() {
        let prev = landscape(vec![entry(1, 0, 5.0, CellQuality::Ok)]);
        let next = landscape(vec![entry(1, 0, 5.0, CellQuality::Degraded)]);
        let delta = next.diff(&prev);
        assert_eq!(delta.reestimated(), 1);
        match delta.changes()[0] {
            CellChange::Reestimated {
                old_quality,
                new_quality,
                ..
            } => {
                assert_eq!(old_quality, CellQuality::Ok);
                assert_eq!(new_quality, CellQuality::Degraded);
            }
            ref other => panic!("unexpected change {other:?}"),
        }
        assert_eq!(prev.apply(&delta).unwrap(), next);
    }

    #[test]
    fn error_bound_transition_is_a_reestimate_and_round_trips() {
        let mut sketched = entry(1, 0, 5.0, CellQuality::Degraded);
        sketched.error_bound = Some(0.125);
        let prev = landscape(vec![entry(1, 0, 5.0, CellQuality::Degraded)]);
        let next = landscape(vec![sketched]);
        let delta = next.diff(&prev);
        assert_eq!(delta.reestimated(), 1);
        match delta.changes()[0] {
            CellChange::Reestimated {
                old_error_bound,
                new_error_bound,
                ..
            } => {
                assert_eq!(old_error_bound, None);
                assert_eq!(new_error_bound, Some(0.125));
            }
            ref other => panic!("unexpected change {other:?}"),
        }
        assert_eq!(prev.apply(&delta).unwrap(), next);
        // Exact-mode deltas serialize without the new fields, so
        // pre-sketch delta JSON stays parseable and byte-stable.
        let exact = prev.diff(&landscape(vec![]));
        let json = serde_json::to_string(&exact).unwrap();
        assert!(!json.contains("error_bound"), "json: {json}");
        let legacy: LandscapeDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(legacy, exact);
    }

    #[test]
    fn apply_rejects_wrong_base() {
        let prev = landscape(vec![entry(1, 0, 5.0, CellQuality::Ok)]);
        let next = landscape(vec![entry(1, 0, 6.0, CellQuality::Ok)]);
        let delta = next.diff(&prev);
        // Wrong estimate in the base.
        let skewed = landscape(vec![entry(1, 0, 5.5, CellQuality::Ok)]);
        assert_eq!(
            skewed.apply(&delta),
            Err(DeltaError::CellMismatch {
                server: ServerId(1),
                epoch: 0
            })
        );
        // Missing cell entirely.
        let empty = landscape(vec![]);
        assert_eq!(
            empty.apply(&delta),
            Err(DeltaError::MissingCell {
                server: ServerId(1),
                epoch: 0
            })
        );
        // Added cell already occupied.
        let add_delta = next.diff(&empty);
        assert_eq!(
            prev.apply(&add_delta),
            Err(DeltaError::UnexpectedCell {
                server: ServerId(1),
                epoch: 0
            })
        );
        assert!(add_delta.changes()[0].epoch() == 0);
    }

    #[test]
    fn delta_round_trips_through_serde() {
        let prev = landscape(vec![entry(1, 0, 5.0, CellQuality::Ok)]);
        let next = landscape(vec![
            entry(1, 0, 6.0, CellQuality::Degraded),
            entry(4, 2, 1.0, CellQuality::Ok),
        ]);
        let delta = next.diff(&prev);
        let json = serde_json::to_string(&delta).unwrap();
        let back: LandscapeDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
        assert_eq!(prev.apply(&back).unwrap(), next);
    }

    #[test]
    fn version_counter_is_monotonic() {
        let v = LandscapeVersion::ZERO;
        assert_eq!(v.next(), LandscapeVersion(1));
        assert_eq!(v.next().next(), LandscapeVersion(2));
        assert!(v < v.next());
        assert_eq!(LandscapeVersion(7).to_string(), "v7");
    }
}
