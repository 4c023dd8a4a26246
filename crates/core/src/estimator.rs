//! The estimator interface and the one per-cell statistic it reads.

use crate::config::{EstimationContext, PoolIndex};
use botmeter_dns::{DomainName, ObservedLookup};
use botmeter_exec::ExecPolicy;
use botmeter_obs::{saturating_ns, Obs};
use botmeter_sketch::CellSketch;
use std::borrow::Cow;
use std::fmt;

/// One statistic a [`CellStats`] carries; each model declares the lanes it
/// reads ([`Estimator::lanes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Sorted distinct in-pool NXD positions (`MB`).
    Positions,
    /// The number of those positions (`MS`).
    Distinct,
    /// Matched in-pool NXD sightings (`MC`).
    Volume,
    /// The matched lookups in arrival order (`MT`, `MP`, `MW`, `MH`).
    Lookups,
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Lane::Positions => "positions",
            Lane::Distinct => "distinct",
            Lane::Volume => "volume",
            Lane::Lookups => "lookups",
        })
    }
}

/// What one landscape cell — one (server, epoch) pair — hands its model.
///
/// An *exact* cell holds the matched lookups and derives every other lane
/// from them on demand, inside whichever task reads it, so a model never
/// pays for a lane it does not read. A *summary* cell (sketch telemetry)
/// carries the lanes it could fill instead: distinct and volume always,
/// positions only when it kept every distinct domain, lookups never.
///
/// This module is the one place a cell's domains are mapped to pool
/// positions.
#[derive(Debug, Clone)]
pub struct CellStats<'a> {
    epoch: u64,
    lanes: Lanes<'a>,
}

#[derive(Debug, Clone)]
enum Lanes<'a> {
    Exact(&'a [ObservedLookup]),
    Summary {
        positions: Option<Vec<usize>>,
        distinct: f64,
        volume: f64,
        bound: Option<f64>,
    },
}

/// The position of `domain` in the epoch's pool when it is an NXD there;
/// registered domains carry no NXD information and names from other
/// epochs' pools none at all.
fn nxd_position(index: &PoolIndex, domain: &DomainName) -> Option<usize> {
    index.position(domain).filter(|&i| !index.is_valid(i))
}

impl<'a> CellStats<'a> {
    /// An exact cell: the matched lookups of one server during `epoch`, in
    /// arrival order.
    pub fn exact(epoch: u64, lookups: &'a [ObservedLookup]) -> Self {
        CellStats {
            epoch,
            lanes: Lanes::Exact(lookups),
        }
    }

    /// An exact cell over a single-epoch slice, dated by its first lookup.
    pub(crate) fn of_slice(lookups: &'a [ObservedLookup], ctx: &EstimationContext) -> Self {
        let epoch_len = ctx.family().epoch_len();
        CellStats::exact(
            lookups.first().map_or(0, |l| l.t.epoch_day(epoch_len)),
            lookups,
        )
    }

    /// The summary of one sketch cell against its epoch's pool.
    ///
    /// A lossless cell kept every distinct domain with its exact count, so
    /// positions, distinct and volume are exactly the exact cell's. A lossy
    /// cell kept a bottom-k sample — a uniform sample of its distinct
    /// domains — so it scales the sample's in-pool NXD share up to the
    /// cell: distinct from the KMV estimate, volume from the exact matched
    /// total. Both carry the sample's KMV relative error `1/√(width − 2)`;
    /// positions it cannot fill.
    pub(crate) fn from_sketch(
        epoch: u64,
        cell: &CellSketch,
        index: &PoolIndex,
        width: usize,
    ) -> Self {
        let mut positions = Vec::new();
        let (mut nxd_volume, mut sample_volume) = (0u64, 0u64);
        for r in cell.retained_domains() {
            sample_volume += r.count;
            if let Some(i) = nxd_position(index, r.domain) {
                positions.push(i);
                nxd_volume += r.count;
            }
        }
        let lanes = if cell.is_lossy() {
            let sampled = positions.len() as f64;
            Lanes::Summary {
                positions: None,
                distinct: cell.distinct_estimate() * sampled / cell.retained().max(1) as f64,
                volume: cell.total() as f64 * nxd_volume as f64 / sample_volume.max(1) as f64,
                bound: Some(cell.distinct_error_bound(width)),
            }
        } else {
            positions.sort_unstable();
            Lanes::Summary {
                distinct: positions.len() as f64,
                positions: Some(positions),
                volume: nxd_volume as f64,
                bound: None,
            }
        };
        CellStats { epoch, lanes }
    }

    /// The cell's epoch (day) index.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the cell fills every lane of `lanes` (an exact cell fills
    /// all of them).
    pub(crate) fn fills(&self, lanes: &[Lane]) -> bool {
        match &self.lanes {
            Lanes::Exact(_) => true,
            Lanes::Summary { positions, .. } => lanes.iter().all(|lane| match lane {
                Lane::Positions => positions.is_some(),
                Lane::Distinct | Lane::Volume => true,
                Lane::Lookups => false,
            }),
        }
    }

    /// The relative error the summary's lanes carry against the exact
    /// cell's; `None` when they are exact.
    pub(crate) fn error_bound(&self) -> Option<f64> {
        match &self.lanes {
            Lanes::Exact(_) => None,
            Lanes::Summary { bound, .. } => *bound,
        }
    }

    /// The lookups lane; empty for a summary, which never fills it.
    pub fn lookups(&self) -> &'a [ObservedLookup] {
        match self.lanes {
            Lanes::Exact(lookups) => lookups,
            Lanes::Summary { .. } => &[],
        }
    }

    /// The positions lane: the sorted distinct positions of the in-pool
    /// NXDs the cell saw. `None` for a summary that cannot fill it.
    pub fn positions(&self, ctx: &EstimationContext) -> Option<Cow<'_, [usize]>> {
        match &self.lanes {
            Lanes::Exact(lookups) => {
                let index = ctx.pool_index(self.epoch);
                let mut seen = vec![false; index.pool().len()];
                for i in lookups
                    .iter()
                    .filter_map(|l| nxd_position(&index, &l.domain))
                {
                    seen[i] = true;
                }
                let positions = (0..seen.len()).filter(|&i| seen[i]).collect();
                Some(Cow::Owned(positions))
            }
            Lanes::Summary { positions, .. } => positions.as_deref().map(Cow::Borrowed),
        }
    }

    /// The distinct lane: how many positions the positions lane holds.
    pub fn distinct(&self, ctx: &EstimationContext) -> f64 {
        match &self.lanes {
            Lanes::Exact(_) => self.positions(ctx).map_or(0, |p| p.len()) as f64,
            Lanes::Summary { distinct, .. } => *distinct,
        }
    }

    /// The volume lane: how many matched lookups hit an in-pool NXD.
    pub fn volume(&self, ctx: &EstimationContext) -> f64 {
        match &self.lanes {
            Lanes::Exact(lookups) => {
                let index = ctx.pool_index(self.epoch);
                let hits = lookups
                    .iter()
                    .filter_map(|l| nxd_position(&index, &l.domain));
                hits.count() as f64
            }
            Lanes::Summary { volume, .. } => *volume,
        }
    }
}

/// A bot-population estimator (one entry of the paper's "analytical model
/// library", Fig. 2 step 5).
///
/// # Contract
///
/// [`estimate_cell`](Self::estimate_cell) reads the lanes
/// [`lanes`](Self::lanes) declares from one cell — the matched traffic one
/// local server forwarded during one epoch — and returns the estimated
/// number of bots active behind that server during the epoch; a cell with
/// no matched traffic estimates `0.0`.
///
/// Multi-epoch observation windows are handled by the caller: estimate each
/// epoch separately and average, as the paper does for Fig. 6(b).
///
/// Estimation is a pure function of `(cell, ctx)`, so the trait requires
/// `Send + Sync`: the parallel charting path fans work out across worker
/// threads sharing one estimator.
pub trait Estimator: Send + Sync {
    /// A short display name (`"Timing"`, `"Poisson"`, ...).
    fn name(&self) -> &'static str;

    /// The lanes of a [`CellStats`] this model reads.
    fn lanes(&self) -> &'static [Lane];

    /// Estimates the bot population behind one cell's forwarding server.
    fn estimate_cell(&self, cell: &CellStats<'_>, ctx: &EstimationContext) -> f64;

    /// [`estimate_cell`](Self::estimate_cell) on the exact cell of
    /// `lookups`: the matched lookups one server forwarded during one
    /// epoch, in arrival order (the shape [`botmeter_matcher::match_stream`]
    /// produces after per-epoch slicing), dated by the first of them.
    fn estimate(&self, lookups: &[ObservedLookup], ctx: &EstimationContext) -> f64 {
        self.estimate_cell(&CellStats::of_slice(lookups, ctx), ctx)
    }

    /// Estimates every cell of a chart, returning one estimate per cell in
    /// input order.
    ///
    /// The default schedules one [`estimate_cell`](Self::estimate_cell)
    /// call per cell — fanned out across workers under a parallel
    /// `policy` — and records each cell's latency in the
    /// `chart.estimate_ns` and `chart.epoch{e}.estimate_ns` histograms.
    /// Estimators whose cells share redundant work (notably
    /// [`BernoulliEstimator`](crate::BernoulliEstimator)) override this
    /// with finer-grained scheduling; overrides must keep the result equal
    /// to per-cell [`estimate_cell`](Self::estimate_cell) calls, observe
    /// the same per-cell histograms, and produce scheduling-independent
    /// (non-`sched.*`) counters so charts stay bit-identical across
    /// [`ExecPolicy`] values.
    fn estimate_batch(
        &self,
        cells: &[CellStats<'_>],
        ctx: &EstimationContext,
        policy: ExecPolicy,
        obs: &Obs,
    ) -> Vec<f64> {
        let estimate_cell = |i: usize| -> f64 {
            let cell = &cells[i];
            let start = obs.clock();
            let estimate = self.estimate_cell(cell, ctx);
            if let Some(start) = start {
                let ns = saturating_ns(start.elapsed());
                obs.observe_ns("chart.estimate_ns", ns);
                obs.observe_ns(&format!("chart.epoch{}.estimate_ns", cell.epoch), ns);
            }
            estimate
        };
        if !policy.is_sequential() && cells.len() > 1 {
            botmeter_exec::run_indexed_with(policy, obs, cells.len(), estimate_cell)
        } else {
            (0..cells.len()).map(estimate_cell).collect()
        }
    }
}
