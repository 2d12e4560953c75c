//! Fig 11: normalized write traffic to the PM physical media, for five
//! schemes × seven benchmarks × {1, 2, 4, 8} cores (§VI-B).

use silo_sim::SimStats;

use crate::exp::{ExpKind, ExperimentSpec, GridSpec};
use crate::{FIG11_BENCHMARKS, SCHEMES};

fn media_writes(stats: &SimStats) -> f64 {
    stats.media_writes() as f64
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig11",
        description: "write traffic to the PM media, normalized to Base (5 schemes x 7 benchmarks x 1/2/4/8 cores)",
        default_txs: 10_000,
        kind: ExpKind::Grid(GridSpec {
            title: "Fig 11: write traffic to PM (media line programs), normalized to Base",
            schemes: &SCHEMES,
            benchmarks: &FIG11_BENCHMARKS,
            core_counts: &[1, 2, 4, 8],
            metric_name: "media_writes",
            metric: media_writes,
            reference: 0,
        }),
    }
}
