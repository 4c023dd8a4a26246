//! What a chart pays before it reads a lookup: enumerating the family's
//! pools into a matcher and tearing it down again. The `pool_build` block
//! of `BENCH_pipeline.json`, written by `--bin perf` and held to by
//! `perf_smoke`.

use botmeter_dga::DgaFamily;
use botmeter_matcher::ExactMatcher;
use botmeter_obs::AllocSnapshot;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Epochs pooled per pass: the chart window of `enterprise_trace`.
const EPOCHS: u64 = 20;

/// `ExactMatcher::from_family(newGoZ, 0..20)` built **and dropped** — what
/// `estimate` and every `botmeterd` open do per family. The drop is timed
/// because it was a third of the cost while every name was a heap object.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolBuildBench {
    /// Names pooled per pass (20 epochs of 10 000).
    pub names: usize,
    /// Best wall time of one build-and-drop.
    pub secs: f64,
    /// `names / secs`.
    pub names_per_sec: f64,
    /// Heap allocations of the first pass per pooled name. A count, so it
    /// repeats exactly: a batch-built pool spends a handful per *epoch*
    /// (≈0.0005 per name), a name that owns its text two per *name*. Zero
    /// unless the binary installs [`botmeter_obs::CountingAlloc`].
    pub allocs_per_name: f64,
}

impl PoolBuildBench {
    /// Builds and drops the matcher `runs` times (at least once), keeping
    /// the best time; allocations are counted over the first pass.
    pub fn measure(runs: usize) -> PoolBuildBench {
        let family = DgaFamily::new_goz();
        let pass = || {
            let matcher = ExactMatcher::from_family(std::hint::black_box(&family), 0..EPOCHS);
            std::hint::black_box(&matcher).len()
        };
        let before = AllocSnapshot::now();
        let names = pass();
        let allocs = AllocSnapshot::now().since(&before).count;
        let mut secs = f64::INFINITY;
        for _ in 0..runs.max(1) {
            let started = Instant::now();
            pass();
            secs = secs.min(started.elapsed().as_secs_f64());
        }
        PoolBuildBench {
            names,
            secs,
            names_per_sec: names as f64 / secs.max(1e-9),
            allocs_per_name: allocs as f64 / names.max(1) as f64,
        }
    }
}
