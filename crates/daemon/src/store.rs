//! The in-memory snapshot store `botmeterd` serves from.

use botmeter_core::{Landscape, LandscapeDelta, LandscapeVersion};
use std::collections::VecDeque;
use std::fmt;

/// Why the store could not answer a versioned request — typed like
/// [`botmeter_core::Error`]: `#[non_exhaustive]`, struct variants with
/// named fields, `Display` + `std::error::Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The requested version was never published (it is ahead of the
    /// newest, or the zero sentinel).
    UnknownVersion {
        /// The requested version.
        version: LandscapeVersion,
        /// The newest version ever published.
        newest: LandscapeVersion,
    },
    /// The requested version was published but has aged out of retention.
    EvictedVersion {
        /// The requested version.
        version: LandscapeVersion,
        /// The oldest version still retained (`None` when the store is
        /// empty).
        oldest_retained: Option<LandscapeVersion>,
    },
    /// A restored snapshot sequence skipped or repeated a version.
    NonContiguous {
        /// The version the sequence should have continued with.
        expected: LandscapeVersion,
        /// The version actually found.
        found: LandscapeVersion,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownVersion { version, newest } => {
                write!(
                    f,
                    "version {version} was never published (newest is {newest})"
                )
            }
            StoreError::EvictedVersion {
                version,
                oldest_retained: Some(oldest),
            } => write!(f, "version {version} evicted (oldest retained is {oldest})"),
            StoreError::EvictedVersion {
                version,
                oldest_retained: None,
            } => write!(f, "version {version} evicted (nothing is retained)"),
            StoreError::NonContiguous { expected, found } => write!(
                f,
                "restored snapshots are not contiguous: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// A bounded in-memory store of published landscape snapshots.
///
/// Every [`publish`](Self::publish) assigns the next monotonic
/// [`LandscapeVersion`] (starting at `v1`); the store retains the most
/// recent `retention` snapshots and answers point lookups
/// ([`at`](Self::at)), the latest snapshot ([`latest`](Self::latest)) and
/// exact change sets between any two retained versions
/// ([`delta`](Self::delta)).
///
/// # Example
///
/// ```
/// use botmeter_core::{Landscape, LandscapeVersion};
/// use botmeter_daemon::LandscapeStore;
///
/// let mut store = LandscapeStore::new(2);
/// let v1 = store.publish(Landscape::default());
/// assert_eq!(v1, LandscapeVersion(1));
/// assert_eq!(store.latest(), Some((v1, &Landscape::default())));
/// ```
#[derive(Debug, Clone)]
pub struct LandscapeStore {
    retention: usize,
    /// Retained snapshots, oldest first; versions are contiguous so the
    /// version of `snapshots[i]` is `newest_version - (len - 1 - i)`.
    snapshots: VecDeque<(LandscapeVersion, Landscape)>,
    newest: LandscapeVersion,
}

impl LandscapeStore {
    /// A store retaining the last `retention` snapshots (clamped to ≥ 1).
    pub fn new(retention: usize) -> Self {
        LandscapeStore {
            retention: retention.max(1),
            snapshots: VecDeque::new(),
            newest: LandscapeVersion::ZERO,
        }
    }

    /// Rebuilds a store from checkpointed state: the retained snapshots
    /// (oldest first, contiguous versions ending at `newest`) plus the
    /// newest version ever assigned — which survives even when every
    /// snapshot it covers was evicted before the checkpoint.
    ///
    /// # Errors
    ///
    /// [`StoreError::NonContiguous`] when versions skip or repeat, and
    /// [`StoreError::UnknownVersion`] when the sequence ends beyond
    /// `newest` (a snapshot claims a version that was never assigned).
    pub(crate) fn restore(
        retention: usize,
        newest: LandscapeVersion,
        snapshots: Vec<(LandscapeVersion, Landscape)>,
    ) -> Result<Self, StoreError> {
        if let Some((first, _)) = snapshots.first() {
            let mut expected = *first;
            for (version, _) in &snapshots {
                if *version != expected {
                    return Err(StoreError::NonContiguous {
                        expected,
                        found: *version,
                    });
                }
                expected = expected.next();
            }
            let last = snapshots.last().map(|(v, _)| *v).expect("non-empty");
            if last != newest {
                return Err(StoreError::UnknownVersion {
                    version: last,
                    newest,
                });
            }
        }
        let mut store = LandscapeStore {
            retention: retention.max(1),
            snapshots: snapshots.into_iter().collect(),
            newest,
        };
        while store.snapshots.len() > store.retention {
            store.snapshots.pop_front();
        }
        Ok(store)
    }

    /// Stores `landscape` under the next version and returns it, evicting
    /// the oldest retained snapshot if the store is full.
    pub fn publish(&mut self, landscape: Landscape) -> LandscapeVersion {
        self.newest = self.newest.next();
        self.snapshots.push_back((self.newest, landscape));
        while self.snapshots.len() > self.retention {
            self.snapshots.pop_front();
        }
        self.newest
    }

    /// The most recently published snapshot, if any.
    pub fn latest(&self) -> Option<(LandscapeVersion, &Landscape)> {
        self.snapshots.back().map(|(v, l)| (*v, l))
    }

    /// The snapshot published as `version`, if still retained.
    pub fn at(&self, version: LandscapeVersion) -> Option<&Landscape> {
        self.try_at(version).ok()
    }

    /// The snapshot published as `version`, with a typed reason when it
    /// cannot be served: never published vs. published-then-evicted.
    pub(crate) fn try_at(&self, version: LandscapeVersion) -> Result<&Landscape, StoreError> {
        if version > self.newest || version == LandscapeVersion::ZERO {
            return Err(StoreError::UnknownVersion {
                version,
                newest: self.newest,
            });
        }
        let oldest = self.snapshots.front().map(|(v, _)| *v);
        match oldest {
            Some(oldest) if version >= oldest => {
                let index = (version.0 - oldest.0) as usize;
                self.snapshots
                    .get(index)
                    .map(|(_, l)| l)
                    .ok_or(StoreError::EvictedVersion {
                        version,
                        oldest_retained: Some(oldest),
                    })
            }
            oldest_retained => Err(StoreError::EvictedVersion {
                version,
                oldest_retained,
            }),
        }
    }

    /// The exact change set from `from` to `to`, if both are retained:
    /// `at(from).apply(delta)` reconstructs `at(to)` bit for bit. The
    /// delta is directional — swapping the arguments yields the exact
    /// reverse change set — and a version's delta to itself is empty.
    ///
    /// # Errors
    ///
    /// A [`StoreError`] naming whichever endpoint cannot be served and
    /// why (never published vs. evicted).
    pub fn delta(
        &self,
        from: LandscapeVersion,
        to: LandscapeVersion,
    ) -> Result<LandscapeDelta, StoreError> {
        Ok(self.try_at(to)?.diff(self.try_at(from)?))
    }

    /// Versions currently retained, oldest first.
    pub(crate) fn versions(&self) -> Vec<LandscapeVersion> {
        self.snapshots.iter().map(|(v, _)| *v).collect()
    }

    /// The newest version ever assigned ([`LandscapeVersion::ZERO`]
    /// before the first publish).
    pub(crate) fn newest_version(&self) -> LandscapeVersion {
        self.newest
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether nothing has been published (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The configured retention bound.
    pub fn retention(&self) -> usize {
        self.retention
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_core::{CellQuality, LandscapeEntry};
    use botmeter_dns::ServerId;

    fn landscape(estimate: f64) -> Landscape {
        Landscape::from_entries(vec![LandscapeEntry {
            server: ServerId(1),
            epoch: 0,
            estimate,
            quality: CellQuality::Ok,
            error_bound: None,
        }])
    }

    #[test]
    fn versions_are_contiguous_and_monotonic() {
        let mut store = LandscapeStore::new(4);
        assert!(store.is_empty());
        assert_eq!(store.latest(), None);
        let v1 = store.publish(landscape(1.0));
        let v2 = store.publish(landscape(2.0));
        assert_eq!((v1, v2), (LandscapeVersion(1), LandscapeVersion(2)));
        assert_eq!(store.versions(), vec![v1, v2]);
        assert_eq!(store.newest_version(), v2);
        assert_eq!(store.latest().map(|(v, _)| v), Some(v2));
        assert_eq!(store.at(v1), Some(&landscape(1.0)));
        assert_eq!(store.at(LandscapeVersion(3)), None);
        assert_eq!(store.at(LandscapeVersion::ZERO), None);
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut store = LandscapeStore::new(2);
        let v1 = store.publish(landscape(1.0));
        let v2 = store.publish(landscape(2.0));
        let v3 = store.publish(landscape(3.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.at(v1), None, "v1 evicted");
        assert_eq!(store.at(v2), Some(&landscape(2.0)));
        assert_eq!(store.at(v3), Some(&landscape(3.0)));
        assert_eq!(store.versions(), vec![v2, v3]);
        // Retention is clamped to at least one snapshot.
        assert_eq!(LandscapeStore::new(0).retention(), 1);
    }

    #[test]
    fn delta_reconstructs_the_newer_snapshot() {
        let mut store = LandscapeStore::new(4);
        let v1 = store.publish(landscape(1.0));
        let v2 = store.publish(landscape(2.5));
        let delta = store.delta(v1, v2).expect("both retained");
        assert_eq!(delta.reestimated(), 1);
        let rebuilt = store.at(v1).unwrap().apply(&delta).expect("delta applies");
        assert_eq!(&rebuilt, store.at(v2).unwrap());
    }

    #[test]
    fn delta_against_an_evicted_base_is_a_typed_error() {
        let mut store = LandscapeStore::new(2);
        let v1 = store.publish(landscape(1.0));
        let v2 = store.publish(landscape(2.0));
        let v3 = store.publish(landscape(3.0)); // evicts v1
        assert_eq!(
            store.delta(v1, v3),
            Err(StoreError::EvictedVersion {
                version: v1,
                oldest_retained: Some(v2),
            })
        );
        // A version ahead of the store was never published at all.
        assert_eq!(
            store.delta(v2, LandscapeVersion(9)),
            Err(StoreError::UnknownVersion {
                version: LandscapeVersion(9),
                newest: v3,
            })
        );
        assert_eq!(
            store.delta(LandscapeVersion::ZERO, v3),
            Err(StoreError::UnknownVersion {
                version: LandscapeVersion::ZERO,
                newest: v3,
            })
        );
    }

    #[test]
    fn reversed_version_order_yields_the_exact_reverse_delta() {
        let mut store = LandscapeStore::new(4);
        let v1 = store.publish(landscape(1.0));
        let v2 = store.publish(landscape(2.5));
        let forward = store.delta(v1, v2).expect("retained");
        let back = store.delta(v2, v1).expect("retained");
        assert_eq!(back.len(), forward.len());
        assert_eq!(store.at(v2).unwrap().apply(&back).unwrap(), landscape(1.0));
        // Round trip: forward then back lands on the original, bit for bit.
        let there = store.at(v1).unwrap().apply(&forward).unwrap();
        assert_eq!(there.apply(&back).unwrap(), *store.at(v1).unwrap());
    }

    #[test]
    fn self_delta_is_empty_and_applies_as_identity() {
        let mut store = LandscapeStore::new(4);
        let v1 = store.publish(landscape(7.75));
        let delta = store.delta(v1, v1).expect("retained");
        assert!(delta.is_empty());
        assert_eq!(
            store.at(v1).unwrap().apply(&delta).unwrap(),
            *store.at(v1).unwrap()
        );
    }

    #[test]
    fn restore_round_trips_and_validates() {
        let mut store = LandscapeStore::new(3);
        for estimate in [1.0, 2.0, 3.0, 4.0] {
            store.publish(landscape(estimate));
        }
        let snapshots: Vec<_> = store
            .versions()
            .into_iter()
            .map(|v| (v, store.at(v).unwrap().clone()))
            .collect();
        let rebuilt =
            LandscapeStore::restore(store.retention(), store.newest_version(), snapshots.clone())
                .expect("valid state restores");
        assert_eq!(rebuilt.versions(), store.versions());
        assert_eq!(rebuilt.newest_version(), store.newest_version());
        assert_eq!(rebuilt.latest(), store.latest());
        // Publishing after restore continues the version sequence.
        let mut rebuilt = rebuilt;
        assert_eq!(rebuilt.publish(landscape(5.0)), LandscapeVersion(5));

        // Gapped versions are rejected.
        let mut gapped = snapshots.clone();
        gapped.remove(1);
        assert_eq!(
            LandscapeStore::restore(3, LandscapeVersion(4), gapped).expect_err("gap"),
            StoreError::NonContiguous {
                expected: LandscapeVersion(3),
                found: LandscapeVersion(4),
            }
        );
        // A tail beyond `newest` claims an unassigned version.
        assert_eq!(
            LandscapeStore::restore(3, LandscapeVersion(3), snapshots).expect_err("tail"),
            StoreError::UnknownVersion {
                version: LandscapeVersion(4),
                newest: LandscapeVersion(3),
            }
        );
        // Empty store with a surviving version counter.
        let empty = LandscapeStore::restore(2, LandscapeVersion(9), Vec::new()).unwrap();
        assert!(empty.is_empty());
        let mut empty = empty;
        assert_eq!(empty.publish(landscape(1.0)), LandscapeVersion(10));
    }

    #[test]
    fn store_errors_display_their_context() {
        let err = StoreError::EvictedVersion {
            version: LandscapeVersion(2),
            oldest_retained: Some(LandscapeVersion(5)),
        };
        assert!(err.to_string().contains("v2"));
        assert!(err.to_string().contains("v5"));
        let err = StoreError::UnknownVersion {
            version: LandscapeVersion(9),
            newest: LandscapeVersion(3),
        };
        assert!(err.to_string().contains("never published"));
    }
}
