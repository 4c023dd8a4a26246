//! One sketch cell: the bottom-k distinct sample of a single (server,
//! epoch) pair.

use botmeter_dns::DomainName;
use std::collections::BTreeMap;

/// A retained domain with its exact sighting count, as exposed by
/// [`CellSketch::retained_domains`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedDomain<'a> {
    /// The matched domain.
    pub domain: &'a DomainName,
    /// Its stable 64-bit hash rank (the bottom-k retention key).
    pub rank: u64,
    /// Exact number of matched sightings of this domain in the cell.
    pub count: u64,
}

/// The constant-memory summary of one (server, epoch) matched substream:
/// the `width` domains with the smallest stable hash rank, each with its
/// exact sighting count.
///
/// Retention is a pure function of the *set* of domains seen (never of
/// arrival order), so merging per-shard cells is bit-identical to one
/// sequential pass — see DESIGN.md §16 for the argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSketch {
    /// Bottom-k sample keyed by (hash rank, domain). The domain is part of
    /// the key so two texts colliding on the 64-bit rank stay distinct and
    /// the order stays fully deterministic. The value is the sighting count.
    entries: BTreeMap<(u64, DomainName), u64>,
    /// Whether any distinct domain was *not* retained — equivalently,
    /// whether the cell has seen more than `width` distinct domains.
    lossy: bool,
    /// Total matched sightings routed to this cell (retained or not).
    total: u64,
}

impl CellSketch {
    pub(crate) fn new() -> CellSketch {
        CellSketch {
            entries: BTreeMap::new(),
            lossy: false,
            total: 0,
        }
    }

    /// Folds one matched sighting into the cell; returns whether a retained
    /// domain was evicted to make room.
    pub(crate) fn ingest(&mut self, domain: &DomainName, width: usize) -> bool {
        self.total += 1;
        self.absorb_entry((domain.id().0, domain.clone()), 1, width)
    }

    /// The bottom-k union with another cell's sample; returns how many
    /// retained entries the union had to evict.
    pub(crate) fn merge(&mut self, other: &CellSketch, width: usize) -> u64 {
        self.lossy |= other.lossy;
        self.total += other.total;
        let mut evictions = 0;
        for (key, count) in &other.entries {
            if self.absorb_entry(key.clone(), *count, width) {
                evictions += 1;
            }
        }
        evictions
    }

    /// Merges `count` sightings of `key` into the bottom-k summary,
    /// evicting the largest-rank entry when the sample overflows `width`;
    /// returns whether it evicted.
    fn absorb_entry(&mut self, key: (u64, DomainName), count: u64, width: usize) -> bool {
        if let Some(existing) = self.entries.get_mut(&key) {
            *existing += count;
            return false;
        }
        if self.entries.len() < width {
            self.entries.insert(key, count);
            return false;
        }
        // Full: the sample keeps the `width` smallest ranks ever seen.
        // A rank at or above the current maximum can never join (the
        // threshold only decreases), so the retained set — and with it the
        // whole cell — is independent of arrival and merge order.
        self.lossy = true;
        let max_key = self
            .entries
            .last_key_value()
            .map(|(k, _)| k.clone())
            .expect("non-empty: len == width >= 2");
        if key < max_key {
            self.entries.remove(&max_key);
            self.entries.insert(key, count);
            true
        } else {
            false
        }
    }

    /// Number of domains currently retained in the bottom-k summary.
    pub fn retained(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cell has seen more distinct domains than it can retain
    /// (`true` exactly when the true distinct count exceeds the width).
    pub fn is_lossy(&self) -> bool {
        self.lossy
    }

    /// Total matched sightings routed to this cell, retained or not.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained domains in ascending rank order.
    pub fn retained_domains(&self) -> impl Iterator<Item = RetainedDomain<'_>> {
        self.entries
            .iter()
            .map(|((rank, domain), count)| RetainedDomain {
                domain,
                rank: *rank,
                count: *count,
            })
    }

    /// Estimated number of distinct matched domains in the cell.
    ///
    /// Exact (`retained()`) while the cell is lossless; once it saturates
    /// the bottom-k (KMV) estimator `(k - 1) / R_k` takes over, where `k`
    /// is the retained count (the width, at least two) and `R_k` the
    /// largest retained rank scaled to `(0, 1]`.
    pub fn distinct_estimate(&self) -> f64 {
        if !self.lossy {
            return self.entries.len() as f64;
        }
        let k = self.entries.len() as f64;
        let max_rank = self.entries.last_key_value().map_or(0, |((r, _), _)| *r);
        let r = max_rank as f64 / u64::MAX as f64;
        (k - 1.0) / r
    }

    /// Conservative relative error bound on [`distinct_estimate`]
    /// (`Self::distinct_estimate`): `0` while the cell is lossless,
    /// the KMV standard error `1/sqrt(width - 2)` once it saturates
    /// (clamped to `1.0` for degenerate widths).
    pub fn distinct_error_bound(&self, width: usize) -> f64 {
        if !self.lossy {
            0.0
        } else if width > 2 {
            (1.0 / ((width - 2) as f64).sqrt()).min(1.0)
        } else {
            1.0
        }
    }
}
