//! `bench-engine`: the engine hot-loop microbenchmark.
//!
//! Runs every implemented scheme on the selected workloads as **full**
//! simulations (setup transaction included, no steady-state delta, no
//! cycle accounting) at a fixed transaction budget and core count. This is
//! the rawest path through the engine — trace generation, the per-op
//! execute loop, the PM media, and the memory controllers, with nothing
//! else attached — so its wall-clock tracks exactly the allocation and
//! hashing costs the hot-path optimizations target.
//!
//! The rendered `total_cycles` per cell (summed per-core clocks) is fully
//! deterministic: CI's `BENCH_engine.json` pairs the host-dependent
//! wall-clock with the summed cycles so a perf win that changes simulated
//! behaviour cannot slip through the perf gate.

use std::fmt::Write as _;

use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, RunSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec, Taken};
use crate::ALL_SCHEMES;

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / p.cores).max(1);
    let mut cells = Vec::new();
    for bench in &p.benches {
        for scheme in ALL_SCHEMES {
            cells.push(CellSpec::new(
                CellLabel::swc(scheme, bench, p.cores),
                p.seed,
                CellWork::Full {
                    run: RunSpec::table_ii(
                        scheme,
                        WorkloadSpec::plain(bench),
                        p.cores,
                        txs_per_core,
                    ),
                    record_throughput: false,
                },
            ));
        }
    }
    cells
}

fn render(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(
        out,
        "Engine hot-loop microbenchmark ({} cores, full runs, no accounting)",
        p.cores
    )
    .unwrap();
    let mut rows_json = Vec::new();
    for bench in &p.benches {
        writeln!(out, "\n{bench}").unwrap();
        writeln!(
            out,
            "{:<11}{:>14}{:>11}{:>12}{:>14}",
            "", "total_cycles", "committed", "pm_writes", "mc_busy"
        )
        .unwrap();
        for scheme in ALL_SCHEMES {
            let stats = taken.next_stats();
            // Summed per-core clocks, not the max: every core's work
            // counts, and the sum is what the cycle accountant would
            // attribute if it were enabled.
            let total: u64 = stats.per_core.iter().map(|c| c.cycles.as_u64()).sum();
            writeln!(
                out,
                "{scheme:<11}{total:>14}{:>11}{:>12}{:>14}",
                stats.txs_committed, stats.pm.accepted_writes, stats.mc.busy_cycles
            )
            .unwrap();
            rows_json.push(
                JsonValue::object()
                    .field("scheme", scheme)
                    .field("workload", bench.as_str())
                    .field("total_cycles", total)
                    .field("txs_committed", stats.txs_committed)
                    .field("pm_writes", stats.pm.accepted_writes)
                    .field("mc_busy_cycles", stats.mc.busy_cycles)
                    .build(),
            );
        }
    }
    JsonValue::object()
        .field("metric", "summed per-core clocks over full runs")
        .field("rows", JsonValue::Arr(rows_json))
        .build()
}

/// The `bench-engine` experiment spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "bench-engine",
        description: "engine hot-loop microbenchmark (full runs, wall-clock perf gate)",
        default_txs: 2_000,
        kind: ExpKind::Custom { build, render },
    }
}
