//! One sketch cell: HLL registers plus the bottom-k distinct sample for a
//! single (server, epoch) pair.

use crate::SketchConfig;
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

/// What a single ingest did to a cell's bounded structures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CellEffect {
    /// A new domain entered the bottom-k summary.
    pub inserted: bool,
    /// A previously retained domain was pushed out to make room.
    pub evicted: bool,
}

/// The constant-memory summary of one (server, epoch) matched substream:
/// `2^precision` HLL registers plus the `width` domains with the smallest
/// stable hash rank, each with its exact sighting count.
///
/// Retention is a pure function of the *set* of domains seen (never of
/// arrival order), so merging per-shard cells is bit-identical to one
/// sequential pass — see DESIGN.md §16 for the argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSketch {
    registers: Box<[u8]>,
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
    pub(crate) fn new(config: &SketchConfig) -> CellSketch {
        CellSketch {
            registers: vec![0u8; config.registers()].into_boxed_slice(),
            entries: BTreeMap::new(),
            lossy: false,
            total: 0,
        }
    }

    /// Folds one matched sighting into the cell.
    pub(crate) fn ingest(
        &mut self,
        domain: &DomainName,
        width: usize,
        precision: u8,
    ) -> CellEffect {
        self.total += 1;
        let rank = domain.id().0;
        self.observe_register(rank, precision);
        self.absorb_entry((rank, domain.clone()), 1, width)
    }

    /// Element-wise max of the HLL register banks plus a bottom-k union;
    /// returns how many retained entries the union had to evict.
    pub(crate) fn merge(&mut self, other: &CellSketch, width: usize) -> u64 {
        debug_assert_eq!(self.registers.len(), other.registers.len());
        for (mine, theirs) in self.registers.iter_mut().zip(other.registers.iter()) {
            *mine = (*mine).max(*theirs);
        }
        self.lossy |= other.lossy;
        self.total += other.total;
        let mut evictions = 0;
        for (key, count) in &other.entries {
            let effect = self.absorb_entry(key.clone(), *count, width);
            if effect.evicted {
                evictions += 1;
            }
        }
        evictions
    }

    /// Merges `count` sightings of `key` into the bottom-k summary,
    /// evicting the largest-rank entry when the sample overflows `width`.
    fn absorb_entry(&mut self, key: (u64, DomainName), count: u64, width: usize) -> CellEffect {
        if let Some(existing) = self.entries.get_mut(&key) {
            *existing += count;
            return CellEffect::default();
        }
        if self.entries.len() < width {
            self.entries.insert(key, count);
            return CellEffect {
                inserted: true,
                evicted: false,
            };
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
            .expect("non-empty: len == width >= 1");
        if key < max_key {
            self.entries.remove(&max_key);
            self.entries.insert(key, count);
            CellEffect {
                inserted: true,
                evicted: true,
            }
        } else {
            CellEffect::default()
        }
    }

    fn observe_register(&mut self, rank: u64, precision: u8) {
        let idx = (rank >> (64 - precision)) as usize;
        let tail = rank << precision;
        let max_rho = 64 - u32::from(precision) + 1;
        let rho = tail.leading_zeros().saturating_add(1).min(max_rho) as u8;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
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
    /// the bottom-k (KMV) estimator `(k - 1) / R_k` takes over, where
    /// `R_k` is the largest retained rank scaled to `(0, 1]`, falling back
    /// to the HLL registers in the degenerate all-ranks-tiny corner.
    pub fn distinct_estimate(&self) -> f64 {
        if !self.lossy {
            return self.entries.len() as f64;
        }
        let k = self.entries.len();
        let max_rank = self.entries.last_key_value().map_or(0, |((r, _), _)| *r);
        if k >= 2 && max_rank > 0 {
            let r = max_rank as f64 / u64::MAX as f64;
            (k as f64 - 1.0) / r
        } else {
            self.hll_estimate()
        }
    }

    /// The HLL distinct estimate from the register bank alone (with the
    /// usual linear-counting small-range correction).
    pub fn hll_estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 1.0 / f64::from(1u32 << u32::from(r.min(31))))
            .sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
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
