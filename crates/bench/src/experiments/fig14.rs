//! Fig 14: Silo's behaviour on large transactions whose write sets are
//! 1–16× the log-buffer size (§VI-F): (a) normalized throughput, (b)
//! normalized PM write traffic, both relative to the 1× configuration of
//! the same benchmark.
//!
//! Larger write sets are built by batching k of a workload's transactions
//! into one (the write-set multiplier); throughput is measured per inner
//! operation so the batching itself does not distort the metric.

use std::fmt::Write as _;

use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork};
use crate::exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec, Taken};

const MULTS: [usize; 5] = [1, 2, 4, 8, 16];
const NAMES: [&str; 7] = ["Array", "Btree", "Hash", "Queue", "RBtree", "TPCC", "YCSB"];
const CORES: usize = 8;

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for name in NAMES {
        for mult in MULTS {
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("mult={mult}")),
                p.seed,
                CellWork::LargeTx {
                    workload: name.to_string(),
                    mult,
                    txs: p.txs,
                },
            ));
        }
    }
    cells
}

fn render(_p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let mut taken = Taken::new(cells);
    let mut tp: Vec<Vec<f64>> = Vec::new();
    let mut wr: Vec<Vec<f64>> = Vec::new();
    let mut overflow_note = String::new();
    for name in NAMES {
        let mut tp_row = Vec::new();
        let mut wr_row = Vec::new();
        for mult in MULTS {
            let c = taken.next();
            tp_row.push(c.value("tp"));
            wr_row.push(c.value("wr"));
            if mult == 16 {
                overflow_note.push_str(&format!(" {name}:{}", c.value("overflow") as u64));
            }
        }
        tp.push(tp_row);
        wr.push(wr_row);
    }

    writeln!(
        out,
        "Fig 14a: normalized throughput vs write-set size (Silo, 8 cores)"
    )
    .unwrap();
    write_rows(out, &NAMES, &tp);
    writeln!(
        out,
        "\nFig 14b: normalized PM write traffic vs write-set size"
    )
    .unwrap();
    write_rows(out, &NAMES, &wr);
    writeln!(out, "\noverflow events at 16x:{overflow_note}").unwrap();
    writeln!(
        out,
        "(paper: throughput -7.4% on average at 16x; write traffic up to 1.9x)"
    )
    .unwrap();

    let matrix = |rows: &[Vec<f64>]| {
        JsonValue::Arr(
            NAMES
                .iter()
                .zip(rows)
                .map(|(name, row)| {
                    JsonValue::object()
                        .field("workload", *name)
                        .field(
                            "normalized",
                            JsonValue::array(row.iter().map(|v| v / row[0])),
                        )
                        .build()
                })
                .collect(),
        )
    };
    JsonValue::object()
        .field(
            "multipliers",
            JsonValue::array(MULTS.iter().map(|&m| m as u64)),
        )
        .field("throughput", matrix(&tp))
        .field("write_traffic", matrix(&wr))
        .build()
}

fn write_rows(out: &mut String, names: &[&str], rows: &[Vec<f64>]) {
    write!(out, "{:<10}", "").unwrap();
    for m in MULTS {
        write!(out, "{:>8}", format!("{m}x")).unwrap();
    }
    writeln!(out).unwrap();
    let mut avg = vec![0.0; MULTS.len()];
    for (name, row) in names.iter().zip(rows) {
        write!(out, "{name:<10}").unwrap();
        for (i, v) in row.iter().enumerate() {
            let norm = v / row[0];
            avg[i] += norm;
            write!(out, "{norm:>8.3}").unwrap();
        }
        writeln!(out).unwrap();
    }
    write!(out, "{:<10}", "Average").unwrap();
    for a in &avg {
        write!(out, "{:>8.3}", a / names.len() as f64).unwrap();
    }
    writeln!(out).unwrap();
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig14",
        description: "Silo on large transactions: throughput and write traffic vs 1-16x write-set multipliers",
        default_txs: 4_000,
        kind: ExpKind::Custom { build, render },
    }
}
