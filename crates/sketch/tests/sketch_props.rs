//! Property-based tests for the sketch algebra.
//!
//! The load-bearing invariant: retention is a pure function of the distinct
//! domain *set* a cell has seen — never of arrival order, chunking, or
//! merge order. That is what makes sharded accumulation bit-identical to
//! single-shot ingest across every execution plan. These properties pin it
//! with randomized streams, alongside the `lossy ⟺ distinct > width`
//! oracle.

use botmeter_dns::{DomainName, ObservedLookup, ServerId, SimDuration, SimInstant};
use botmeter_sketch::{SketchConfig, SketchedTraffic};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const WIDTH: usize = 8;
const EPOCH_MS: u64 = 86_400_000;

fn config() -> SketchConfig {
    SketchConfig::new(SimDuration::from_millis(EPOCH_MS))
        .and_then(|c| c.width(WIDTH))
        .expect("valid sketch config")
}

/// `(t_ms, server, domain-pool index)` triples → an arrival-order stream
/// over a pool small enough to exercise both under- and over-width cells.
fn stream(entries: &[(u64, u32, u8)]) -> Vec<ObservedLookup> {
    entries
        .iter()
        .map(|&(ms, server, idx)| {
            let domain: DomainName = format!("d{idx}.example").parse().expect("valid name");
            ObservedLookup::new(SimInstant::from_millis(ms), ServerId(server), domain)
        })
        .collect()
}

fn sketch_of(lookups: &[ObservedLookup]) -> SketchedTraffic {
    let mut sketch = SketchedTraffic::new(config());
    for lookup in lookups {
        sketch.push(lookup);
    }
    sketch
}

fn entry_strategy() -> impl Strategy<Value = Vec<(u64, u32, u8)>> {
    prop::collection::vec((0u64..3 * EPOCH_MS, 0u32..4, 0u8..40), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharded accumulation ≡ single-shot ingest: splitting the stream at
    /// any point, sketching each shard independently, and absorbing the
    /// tail shard lands on the exact same state.
    #[test]
    fn split_ingest_is_bit_identical_to_single_shot(
        entries in entry_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let lookups = stream(&entries);
        let reference = sketch_of(&lookups);
        let cut = (cut_seed as usize) % (lookups.len() + 1);
        let mut head = sketch_of(&lookups[..cut]);
        let tail = sketch_of(&lookups[cut..]);
        head.absorb(&tail);
        prop_assert_eq!(head, reference);
    }

    /// Merge is commutative: `a ∪ b == b ∪ a`, bit for bit.
    #[test]
    fn merge_is_commutative(a in entry_strategy(), b in entry_strategy()) {
        let (sa, sb) = (sketch_of(&stream(&a)), sketch_of(&stream(&b)));
        let mut ab = sa.clone();
        ab.absorb(&sb);
        let mut ba = sb.clone();
        ba.absorb(&sa);
        prop_assert_eq!(ab, ba);
    }

    /// Merge is associative: `(a ∪ b) ∪ c == a ∪ (b ∪ c)`, bit for bit.
    #[test]
    fn merge_is_associative(
        a in entry_strategy(),
        b in entry_strategy(),
        c in entry_strategy(),
    ) {
        let (sa, sb, sc) = (
            sketch_of(&stream(&a)),
            sketch_of(&stream(&b)),
            sketch_of(&stream(&c)),
        );
        let mut left = sa.clone();
        left.absorb(&sb);
        left.absorb(&sc);
        let mut bc = sb.clone();
        bc.absorb(&sc);
        let mut right = sa;
        right.absorb(&bc);
        prop_assert_eq!(left, right);
    }

    /// `lossy` is exact, not heuristic: a cell is lossy iff it saw more
    /// than `width` distinct domains; retention and totals track the
    /// per-cell ground truth computed independently here.
    #[test]
    fn lossy_flag_matches_the_distinct_count_oracle(entries in entry_strategy()) {
        let lookups = stream(&entries);
        let sketch = sketch_of(&lookups);

        let mut distinct: BTreeMap<(ServerId, u64), BTreeSet<&DomainName>> = BTreeMap::new();
        let mut totals: BTreeMap<(ServerId, u64), u64> = BTreeMap::new();
        for lookup in &lookups {
            let key = (lookup.server, lookup.t.as_millis() / EPOCH_MS);
            distinct.entry(key).or_default().insert(&lookup.domain);
            *totals.entry(key).or_default() += 1;
        }

        prop_assert_eq!(sketch.cell_count(), distinct.len());
        for (server, epoch, cell) in sketch.cells() {
            let truth = &distinct[&(server, epoch)];
            prop_assert_eq!(
                cell.is_lossy(),
                truth.len() > WIDTH,
                "cell ({:?}, {}) distinct {}",
                server, epoch, truth.len()
            );
            prop_assert_eq!(cell.retained(), truth.len().min(WIDTH));
            prop_assert_eq!(cell.total(), totals[&(server, epoch)]);
            prop_assert!(cell.retained_domains().all(|r| truth.contains(r.domain)));
        }
        prop_assert!(sketch.any_lossy() == distinct.values().any(|s| s.len() > WIDTH));
    }
}
