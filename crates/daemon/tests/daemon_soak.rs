//! Soak: a hundred-odd synthetic epochs through the daemon on each
//! estimator route, asserting the long-haul properties batch charting
//! cannot give you — bounded memory, exact deltas, and cheap publishes —
//! without ever giving up bit-identity to batch charting.

mod common;

use botmeter_core::{BotMeter, BotMeterConfig, LandscapeVersion};
use botmeter_daemon::{BotMeterDaemon, DaemonOptions};
use botmeter_dga::DgaFamily;
use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use common::{epoch_traffic, SoakLayout};

const CLOSE_LAG: u64 = 1;
/// Epochs soaked on the Poisson route (murofet).
const MUROFET_EPOCHS: u64 = 120;
/// Epochs soaked on the Bernoulli route (newGoZ), whose Theorem-1 kernels
/// cost more per cell.
const NEWGOZ_EPOCHS: u64 = 24;

struct SoakRun {
    daemon: BotMeterDaemon,
    registry: std::sync::Arc<botmeter_obs::MetricsRegistry>,
    full: Vec<ObservedLookup>,
    family: DgaFamily,
    layout: SoakLayout,
}

/// Drives `epochs` epochs of the default layout's traffic through a fresh
/// daemon, checking every epoch, then the long-haul properties.
fn soak(family: DgaFamily, epochs: u64) -> SoakRun {
    let (obs, registry) = Obs::collecting();
    let meter = BotMeter::new(BotMeterConfig::new(family.clone()));
    let daemon = BotMeterDaemon::new(
        meter,
        DaemonOptions::new(0..epochs)
            .policy(ExecPolicy::Sequential)
            .close_lag(CLOSE_LAG)
            .retention(3)
            .auto_publish(false)
            .obs(obs),
    )
    .expect("valid options");
    let mut run = SoakRun {
        daemon,
        registry,
        full: Vec::new(),
        family,
        layout: SoakLayout::default(),
    };
    for epoch in 0..epochs {
        run.run_epoch(epoch);
    }
    run.assert_long_haul(epochs);
    run
}

impl SoakRun {
    /// Ingests one epoch's synthetic traffic, publishes, and checks the
    /// per-epoch invariants: snapshot == batch chart over everything so
    /// far, and the adjacent delta round-trips.
    fn run_epoch(&mut self, epoch: u64) {
        let traffic = epoch_traffic(&self.family, epoch, self.layout);
        self.daemon.ingest(&traffic);
        self.full.extend(traffic);
        let version = self.daemon.publish_now();

        // (a) Bit-identical to a from-scratch chart over the same prefix.
        let (_, snapshot) = self.daemon.latest().expect("published");
        let reference = self.daemon.reference_chart(&self.full);
        assert_eq!(
            snapshot, &reference,
            "snapshot diverged from batch chart at epoch {epoch}"
        );

        // (c) prev.apply(delta) == next, for the adjacent retained pair.
        if version.0 >= 2 {
            let prev = LandscapeVersion(version.0 - 1);
            let delta = self
                .daemon
                .store()
                .delta(prev, version)
                .expect("adjacent versions retained");
            let rebuilt = self
                .daemon
                .store()
                .at(prev)
                .expect("retained")
                .apply(&delta)
                .expect("delta applies to its own base");
            assert_eq!(
                &rebuilt,
                self.daemon.store().at(version).expect("retained"),
                "delta {prev}->{version} rebuilt a different snapshot"
            );
            // An epoch of localized traffic only adds/re-estimates the
            // active servers' cells — never the whole landscape.
            assert!(
                delta.len() <= self.layout.active as usize + 1,
                "epoch {epoch}: delta touched {} cells",
                delta.len()
            );
        }
    }

    /// Residency bound, flat residency, gauge = peak and incrementality,
    /// after `epochs` epochs of [`run_epoch`](Self::run_epoch).
    fn assert_long_haul(&self, epochs: u64) {
        let stats = self.daemon.stats();
        let name = self.family.name();
        assert_eq!(stats.publishes, epochs);
        assert_eq!(stats.stale_records, 0);
        assert_eq!(
            stats.matched as usize,
            self.full.len(),
            "synthetic traffic all matches"
        );

        // (b) Flat memory: the peak stays within the close window's worth
        // of traffic, however many epochs ran.
        let per_epoch = (self.layout.active * self.layout.per_server) as usize;
        let bound = per_epoch * (CLOSE_LAG as usize + 2);
        assert!(
            stats.peak_resident_records <= bound,
            "{name}: peak residency {} exceeds bound {bound} ({per_epoch}/epoch, lag {CLOSE_LAG})",
            stats.peak_resident_records
        );
        assert!(
            stats.peak_resident_records * 2 <= self.full.len(),
            "{name}: peak residency {} is not flat against {} matched records",
            stats.peak_resident_records,
            self.full.len()
        );
        // The obs gauge mirrors the engine's own high-water mark.
        let snap = self.registry.snapshot();
        assert_eq!(
            snap.counter("daemon.resident_records"),
            Some(stats.peak_resident_records as u64),
            "{name}: daemon.resident_records gauge disagrees with the engine's peak"
        );
        assert_eq!(snap.counter("daemon.publishes"), Some(epochs));
        assert_eq!(
            snap.histogram("daemon.rechart_ns").map(|h| h.count),
            Some(epochs)
        );

        // (d) Incrementality: each publish re-estimated only that epoch's
        // active cells, so total re-estimations are linear in epochs while
        // the landscape itself grew to active × epochs cells.
        let expected_cells = self.layout.active as u64 * epochs;
        assert_eq!(self.daemon.cell_count() as u64, expected_cells);
        assert_eq!(
            stats.cells_reestimated, expected_cells,
            "{name}: one estimate per cell, ever"
        );
        let full_rechart_cost: u64 = (1..=epochs).map(|e| e * self.layout.active as u64).sum();
        assert!(
            stats.cells_reestimated * 10 < full_rechart_cost,
            "{name}: re-estimated {} cells; full recharting would cost {full_rechart_cost}",
            stats.cells_reestimated
        );
    }
}

#[test]
fn poisson_soak_stays_flat_and_bit_identical() {
    let run = soak(DgaFamily::murofet(), MUROFET_EPOCHS);
    // Over a long soak the peak is orders of magnitude under "hold
    // everything".
    let peak = run.daemon.stats().peak_resident_records;
    assert!(peak * 10 <= run.full.len(), "peak {peak}");
}

#[test]
fn bernoulli_soak_stays_flat_and_reuses_the_kernel_cache() {
    // newGoZ routes to the Bernoulli estimator, whose Theorem-1 segment
    // kernels are memoized in the daemon's long-lived estimation context:
    // later epochs re-hit shapes earlier epochs computed.
    let run = soak(DgaFamily::new_goz(), NEWGOZ_EPOCHS);
    let snap = run.registry.snapshot();
    let hits = snap.counter("chart.kernel.memo_hits").unwrap_or(0);
    let misses = snap.counter("chart.kernel.memo_misses").unwrap_or(0);
    assert!(misses > 0, "kernels were computed");
    assert!(
        hits > misses,
        "cache persistence must turn repeat shapes into hits ({hits} hits / {misses} misses)"
    );
}

#[test]
fn traffic_is_deterministic_ordered_and_localized() {
    let family = DgaFamily::murofet();
    let layout = SoakLayout::default();
    let a = epoch_traffic(&family, 3, layout);
    let b = epoch_traffic(&family, 3, layout);
    assert_eq!(a, b, "pure function of (family, epoch, layout)");
    assert_eq!(a.len(), (layout.active * layout.per_server) as usize);
    assert!(a.windows(2).all(|w| w[0].t < w[1].t), "strictly increasing");
    let epoch_len = family.epoch_len();
    assert!(a.iter().all(|l| l.t.epoch_day(epoch_len) == 3));
    // Exactly `active` distinct servers, rotating with the epoch.
    let servers = |t: &[ObservedLookup]| {
        t.iter()
            .map(|l| l.server)
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(servers(&a).len(), layout.active as usize);
    let next = epoch_traffic(&family, 4, layout);
    assert_ne!(servers(&a), servers(&next), "active set rotates");
}
