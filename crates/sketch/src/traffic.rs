//! [`SketchedTraffic`]: the bounded, mergeable accumulation of matched
//! lookups across all (server, epoch) cells.

use crate::cell::CellSketch;
use crate::SketchConfig;
use botmeter_dns::{ObservedLookup, ServerId};
use std::collections::BTreeMap;

/// Logical cost charged per retained heavy-hitter entry (key plus count
/// plus map-node overhead). Deterministic accounting, not
/// allocator truth: the point is a *volume-independent* bound that is
/// bit-identical across platforms and runs.
pub(crate) const ENTRY_BYTES: u64 = 64;

/// Logical cost charged per cell beyond its retained entries (map key +
/// bookkeeping).
pub(crate) const CELL_OVERHEAD_BYTES: u64 = 48;

/// What one [`SketchedTraffic::absorb`] did: how many cells were merged
/// or newly created and how many retained entries the union evicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeEffect {
    /// Cells merged into existing cells.
    pub merged_cells: u64,
    /// Cells copied over as new.
    pub new_cells: u64,
    /// Retained entries evicted while merging.
    pub evictions: u64,
}

/// Constant-memory telemetry over the matched D3 stream: one
/// [`CellSketch`] per (server, epoch) cell, routed by the configured epoch
/// length.
///
/// State is bounded by `cells ×` [`SketchConfig::cell_budget_bytes`] —
/// independent of how many lookups stream through — and accumulation is
/// order- and shard-independent: pushing a stream record by record,
/// chunking it arbitrarily, or sketching shards separately and
/// [`absorb`](Self::absorb)-ing the pieces all produce bit-identical
/// state (`PartialEq` compares every cell's retained entries).
#[derive(Debug, Clone, PartialEq)]
pub struct SketchedTraffic {
    config: SketchConfig,
    cells: BTreeMap<(ServerId, u64), CellSketch>,
    total: u64,
}

impl SketchedTraffic {
    /// An empty sketch under `config`.
    pub fn new(config: SketchConfig) -> SketchedTraffic {
        SketchedTraffic {
            config,
            cells: BTreeMap::new(),
            total: 0,
        }
    }

    /// The configuration every cell is bounded by.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Folds one matched lookup into its (server, epoch) cell; returns
    /// whether a previously retained domain was evicted to make room.
    pub fn push(&mut self, lookup: &ObservedLookup) -> bool {
        let epoch = lookup.t.epoch_day(self.config.epoch_len());
        self.total += 1;
        self.cells
            .entry((lookup.server, epoch))
            .or_insert_with(CellSketch::new)
            .ingest(&lookup.domain, self.config.hh_width())
    }

    /// Merges another sketch accumulated under the **same configuration**
    /// (per-worker or per-shard sketches folding into one), cell by cell.
    ///
    /// # Panics
    ///
    /// Panics when the configurations differ — a union of samples of
    /// different widths or epoch routings is no sample of either.
    pub fn absorb(&mut self, other: &SketchedTraffic) -> MergeEffect {
        assert_eq!(
            self.config, other.config,
            "cannot merge sketches with different configurations"
        );
        let mut effect = MergeEffect::default();
        for (key, theirs) in &other.cells {
            match self.cells.get_mut(key) {
                Some(mine) => {
                    effect.evictions += mine.merge(theirs, self.config.hh_width());
                    effect.merged_cells += 1;
                }
                None => {
                    self.cells.insert(*key, theirs.clone());
                    effect.new_cells += 1;
                }
            }
        }
        self.total += other.total;
        effect
    }

    /// All cells in (server asc, epoch asc) order.
    pub fn cells(&self) -> impl Iterator<Item = (ServerId, u64, &CellSketch)> {
        self.cells
            .iter()
            .map(|((server, epoch), cell)| (*server, *epoch, cell))
    }

    /// One cell, if any lookup was routed to it.
    pub fn cell(&self, server: ServerId, epoch: u64) -> Option<&CellSketch> {
        self.cells.get(&(server, epoch))
    }

    /// Number of non-empty (server, epoch) cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total matched lookups folded in (across all cells, retained or
    /// not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// High-water mark of the logical resident size, in bytes.
    ///
    /// Deterministic accounting: [`ENTRY_BYTES`] per retained entry and
    /// [`CELL_OVERHEAD_BYTES`] per cell. The structures only grow
    /// (evictions swap entries, never shrink a sample), so the high-water
    /// mark is the current size. Bounded by `cell_count() ×
    /// cell_budget_bytes()` no matter the traffic volume.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.cells
            .values()
            .map(|cell| CELL_OVERHEAD_BYTES + cell.retained() as u64 * ENTRY_BYTES)
            .sum()
    }

    /// Whether any cell has evicted (i.e. any estimate derived from the
    /// heavy-hitter summaries may be approximate).
    pub fn any_lossy(&self) -> bool {
        self.cells.values().any(|c| c.is_lossy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_dns::{DomainName, SimDuration, SimInstant};

    fn config(width: usize) -> SketchConfig {
        SketchConfig::new(SimDuration::from_days(1))
            .unwrap()
            .width(width)
            .unwrap()
    }

    fn lookup(ms: u64, server: u32, text: &str) -> ObservedLookup {
        ObservedLookup {
            t: SimInstant::from_millis(ms),
            server: ServerId(server),
            domain: text.parse::<DomainName>().unwrap(),
        }
    }

    #[test]
    fn push_routes_to_server_epoch_cells() {
        let mut sketch = SketchedTraffic::new(config(8));
        sketch.push(&lookup(10, 1, "aaa.com"));
        sketch.push(&lookup(86_400_010, 1, "bbb.com"));
        sketch.push(&lookup(20, 2, "aaa.com"));
        assert_eq!(sketch.cell_count(), 3);
        assert_eq!(sketch.total(), 3);
        let cell = sketch.cell(ServerId(1), 0).unwrap();
        assert_eq!(cell.retained(), 1);
        assert_eq!(cell.total(), 1);
        assert!(sketch.cell(ServerId(1), 1).is_some());
        assert!(sketch.cell(ServerId(2), 0).is_some());
        assert!(sketch.cell(ServerId(2), 1).is_none());
    }

    #[test]
    fn retained_domains_count_every_sighting() {
        let mut sketch = SketchedTraffic::new(config(8));
        sketch.push(&lookup(50, 1, "aaa.com"));
        sketch.push(&lookup(10, 1, "aaa.com"));
        sketch.push(&lookup(90, 1, "aaa.com"));
        let cell = sketch.cell(ServerId(1), 0).unwrap();
        let retained: Vec<_> = cell.retained_domains().collect();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].count, 3);
        assert!(!cell.is_lossy());
        assert_eq!(cell.distinct_estimate(), 1.0);
        assert_eq!(cell.distinct_error_bound(8), 0.0);
    }

    #[test]
    fn width_bounds_retention_and_flags_lossy() {
        let mut sketch = SketchedTraffic::new(config(4));
        for i in 0..32 {
            sketch.push(&lookup(i, 1, &format!("domain{i}.com")));
        }
        let cell = sketch.cell(ServerId(1), 0).unwrap();
        assert_eq!(cell.retained(), 4);
        assert!(cell.is_lossy());
        assert_eq!(cell.total(), 32);
        assert!(cell.distinct_estimate() > 4.0);
        assert!(cell.distinct_error_bound(4) > 0.0);
        // Retained set = the 4 smallest ranks of all 32 domains.
        let mut ranks: Vec<u64> = (0..32)
            .map(|i| {
                format!("domain{i}.com")
                    .parse::<DomainName>()
                    .unwrap()
                    .id()
                    .0
            })
            .collect();
        ranks.sort_unstable();
        let retained_ranks: Vec<u64> = cell.retained_domains().map(|r| r.rank).collect();
        assert_eq!(retained_ranks, &ranks[..4]);
    }

    #[test]
    fn resident_bytes_is_volume_independent() {
        let cfg = config(4);
        let mut small = SketchedTraffic::new(cfg);
        let mut large = SketchedTraffic::new(cfg);
        for i in 0..16 {
            small.push(&lookup(i, 1, &format!("domain{i}.com")));
        }
        for round in 0..64 {
            for i in 0..16 {
                large.push(&lookup(round * 100 + i, 1, &format!("domain{i}.com")));
            }
        }
        assert_eq!(small.peak_resident_bytes(), large.peak_resident_bytes());
        assert!(small.peak_resident_bytes() <= cfg.cell_budget_bytes());
        // And the sketches agree cell-for-cell on what was retained.
        assert_eq!(
            small.cell(ServerId(1), 0).unwrap().retained(),
            large.cell(ServerId(1), 0).unwrap().retained()
        );
    }

    #[test]
    fn sharded_absorb_is_bit_identical_to_sequential() {
        let cfg = config(3);
        let stream: Vec<ObservedLookup> = (0..40)
            .map(|i| lookup(i, 1 + (i % 3) as u32, &format!("d{}.net", i % 11)))
            .collect();
        let sketch_of = |lookups: &[ObservedLookup]| {
            let mut sketch = SketchedTraffic::new(cfg);
            for lookup in lookups {
                sketch.push(lookup);
            }
            sketch
        };
        let sequential = sketch_of(&stream);
        let mut merged = SketchedTraffic::new(cfg);
        for shard in stream.chunks(7) {
            merged.absorb(&sketch_of(shard));
        }
        assert_eq!(sequential, merged);
    }

    #[test]
    #[should_panic(expected = "different configurations")]
    fn absorb_rejects_mismatched_configs() {
        let mut a = SketchedTraffic::new(config(4));
        let b = SketchedTraffic::new(config(8));
        a.absorb(&b);
    }

    #[test]
    fn lossy_width_two_cell_estimates_from_its_two_ranks() {
        let mut sketch = SketchedTraffic::new(config(2));
        for i in 0..50 {
            sketch.push(&lookup(i, 1, &format!("kmv{i}.org")));
        }
        let cell = sketch.cell(ServerId(1), 0).unwrap();
        assert!(cell.is_lossy());
        assert_eq!(cell.retained(), 2);
        let r_k = cell.retained_domains().map(|r| r.rank).max().unwrap() as f64 / u64::MAX as f64;
        let estimate = cell.distinct_estimate();
        assert!(estimate.is_finite(), "estimate {estimate}");
        assert_eq!(estimate, (2.0 - 1.0) / r_k);
        assert_eq!(cell.distinct_error_bound(2), 1.0);
    }
}
