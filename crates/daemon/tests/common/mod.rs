//! Deterministic synthetic epoch traffic for the soak, chaos and journal
//! tests.
//!
//! The soak drives over a hundred epochs through the engine; full botnet
//! simulations per epoch would dominate the run. This generator
//! synthesizes the *matched* side directly: each epoch, a rotating subset
//! of local servers forwards a handful of pool-domain lookups with strictly
//! increasing timestamps. Traffic is a pure function of
//! `(family, epoch, layout)` — no RNG — so the runs are reproducible, and
//! rotation makes each epoch's change *localized*: only the active servers'
//! cells of the new epoch go dirty, which is exactly the workload
//! incremental re-charting exists for.

use botmeter_dga::DgaFamily;
use botmeter_dns::{ObservedLookup, ServerId, SimDuration, SimInstant};

/// The synthetic-traffic layout: how many servers exist, how many are
/// active per epoch, and how many lookups each active server forwards.
#[derive(Debug, Clone, Copy)]
pub struct SoakLayout {
    /// Total local servers in the network.
    pub servers: u32,
    /// Servers active in any one epoch (rotating window, clamped to
    /// `servers`).
    pub active: u32,
    /// Matched lookups each active server forwards per epoch.
    pub per_server: u32,
}

impl Default for SoakLayout {
    fn default() -> Self {
        SoakLayout {
            servers: 6,
            active: 2,
            per_server: 4,
        }
    }
}

/// One epoch of synthetic border traffic: the epoch's rotating active
/// servers each forward `per_server` distinct pool domains, interleaved on
/// a strictly increasing one-second lattice (so the stream carries no
/// ordering or duplication anomalies). Returned in stream (= time) order.
pub fn epoch_traffic(family: &DgaFamily, epoch: u64, layout: SoakLayout) -> Vec<ObservedLookup> {
    let active = layout.active.min(layout.servers).max(1) as u64;
    let servers = layout.servers.max(1) as u64;
    let pool = family.pool_for_epoch(epoch);
    assert!(!pool.is_empty(), "family pool must not be empty");
    let start = SimInstant::ZERO + family.epoch_len() * epoch;
    let step = SimDuration::from_secs(1);
    let mut out = Vec::with_capacity((active * layout.per_server as u64) as usize);
    for i in 0..layout.per_server as u64 {
        for slot in 0..active {
            let server = ServerId((1 + (epoch + slot) % servers) as u32);
            let domain = pool[((i * active + slot) % pool.len() as u64) as usize].clone();
            let t = start + step * (i * active + slot);
            out.push(ObservedLookup::new(t, server, domain));
        }
    }
    out
}
