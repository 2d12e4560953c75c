//! Shared harness and experiment framework for the evaluation binaries.
//!
//! Every experiment in this repository is an [`exp::ExperimentSpec`] in the
//! [`registry`]: a declarative description of the simulation grid plus a
//! render function reproducing the paper's tables. The [`runner`] fans the
//! independent grid cells across worker threads, [`report`] persists JSON
//! reports, and the `evaluate` binary drives it all.
//!
//! The simulation primitives build on [`run_one`]: construct the Table II
//! machine, instantiate a scheme by name, generate a workload's per-core
//! transaction streams, run the engine, and return the statistics. Figures
//! normalize exactly as the paper does (to `Base`, or to a reference
//! configuration).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellspec;
pub mod exp;
pub mod experiments;
pub mod http;
pub mod probe;
pub mod registry;
pub mod report;
pub mod result_store;
pub mod runner;
pub mod serve;
pub mod trace_cache;

pub use cellspec::{CellSpec, CellWork, ConfigDelta, FaultSpec, RunSpec, SchemeSpec, WorkloadSpec};
pub use exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec, GridSpec};
pub use probe::{run_profiled, EventTraceSink};
pub use report::{
    render_finished, render_finished_checked, run_experiment, run_experiment_checked, write_report,
    ExperimentError, ExperimentRun,
};
pub use result_store::{ResultStore, ResultStoreStats, Served};
pub use runner::{default_jobs, run_cells, run_cells_with, PanicPolicy};
pub use serve::{ServeOptions, Server};
pub use trace_cache::{TraceCache, TraceCacheStats, TraceKey};

use silo_baselines::{
    BaseScheme, EadrSwLogScheme, FwbScheme, LadScheme, MorLogScheme, SwLogScheme,
};
use silo_core::{SiloOptions, SiloScheme};
use silo_sim::{Engine, LoggingScheme, SimConfig, SimStats, Transaction, TxStreams};
use silo_workloads::Workload;

/// The evaluated designs, in the paper's legend order.
pub const SCHEMES: [&str; 5] = ["Base", "FWB", "MorLog", "LAD", "Silo"];

/// Every implemented scheme, including the software baselines that the
/// figure legends omit. This is the crash-fuzzing sweep set.
pub const ALL_SCHEMES: [&str; 7] = [
    "Base",
    "FWB",
    "MorLog",
    "LAD",
    "SwLog",
    "eADR-SwLog",
    "Silo",
];

/// The figure benchmarks, in the paper's x-axis order.
pub const FIG11_BENCHMARKS: [&str; 7] =
    ["Array", "Btree", "Hash", "Queue", "RBtree", "TPCC", "YCSB"];

/// Instantiates a scheme by its legend name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn make_scheme(name: &str, config: &SimConfig) -> Box<dyn LoggingScheme> {
    match name {
        "Base" => Box::new(BaseScheme::new(config)),
        "FWB" => Box::new(FwbScheme::new(config)),
        "MorLog" => Box::new(MorLogScheme::new(config)),
        "LAD" => Box::new(LadScheme::new(config)),
        "SwLog" => Box::new(SwLogScheme::new(config)),
        "eADR-SwLog" => Box::new(EadrSwLogScheme::new(config)),
        "Silo" => Box::new(SiloScheme::new(config)),
        other => panic!("unknown scheme {other}"),
    }
}

/// Instantiates Silo with specific mechanisms toggled (ablation studies).
pub fn make_silo_with(config: &SimConfig, options: SiloOptions) -> Box<dyn LoggingScheme> {
    Box::new(SiloScheme::with_options(config, options))
}

/// Runs `workload` under `scheme_name` on the Table II machine. The trace
/// is resolved through the process-wide [`TraceCache`], so repeated calls
/// for the same `(workload, cores, txs, seed)` share one generated
/// artifact.
pub fn run_one(
    scheme_name: &str,
    workload: &dyn Workload,
    cores: usize,
    txs_per_core: usize,
    seed: u64,
) -> SimStats {
    let config = SimConfig::table_ii(cores);
    let trace = TraceCache::global().get_or_build(workload, cores, txs_per_core, seed);
    run_streams(scheme_name, &config, &trace)
}

/// Steady-state measurement of `workload` under `scheme_name`: the
/// difference between the deterministic workload's 2N- and N-transaction
/// runs, which excludes the setup transaction and any cold-start effects.
/// This is how every figure generator measures; see [`run_delta_with`].
pub fn run_one_delta(
    scheme_name: &str,
    workload: &dyn Workload,
    cores: usize,
    txs_per_core: usize,
    seed: u64,
) -> SimStats {
    let config = SimConfig::table_ii(cores);
    run_delta_with(
        &config,
        || make_scheme(scheme_name, &config),
        workload,
        txs_per_core,
        seed,
    )
}

/// Steady-state delta measurement with an explicit scheme factory (for
/// ablations and parameter sweeps). The factory must produce equivalent
/// fresh schemes for both runs.
///
/// Only the 2N trace is resolved. The N-run executes its per-core
/// N-prefixes ([`silo_sim::TraceSet::prefix`]) and captures a fork
/// checkpoint where the first core finishes; the 2N-run continues from
/// that checkpoint, so the shared prefix (the setup transaction and the
/// first N transactions) is simulated once.
///
/// # Panics
///
/// Panics if the workload's trace has an arrival schedule (open-system
/// runs are measured whole, not as deltas), or if the scheme does not
/// support state snapshotting.
pub fn run_delta_with(
    config: &SimConfig,
    mut factory: impl FnMut() -> Box<dyn LoggingScheme>,
    workload: &dyn Workload,
    txs_per_core: usize,
    seed: u64,
) -> SimStats {
    let trace = TraceCache::global().get_or_build(workload, config.cores, txs_per_core * 2, seed);
    assert!(
        trace.arrivals().is_none(),
        "steady-state deltas need a closed-loop trace, but {} has an arrival schedule",
        trace.provenance().workload
    );
    let mut s1 = factory();
    let mut engine = Engine::new(config, s1.as_mut());
    EventTraceSink::global().attach(engine.machine_mut());
    let (short, fork) = engine.run_forking(trace.prefix(txs_per_core));
    probe::sink_outcome(&short);
    let mut s2 = factory();
    // The restored probe carries the N-run's switches and the timeline
    // recorded up to the fork, so no attach here.
    let long = Engine::new(config, s2.as_mut()).run_from_checkpoint(&trace, fork);
    probe::sink_outcome(&long);
    long.stats.delta_from(&short.stats)
}

/// Runs pre-generated streams (owned `Vec`s or a shared
/// [`silo_sim::TraceSet`]) under `scheme_name` and `config`.
pub fn run_streams(
    scheme_name: &str,
    config: &SimConfig,
    streams: impl Into<TxStreams>,
) -> SimStats {
    let mut scheme = make_scheme(scheme_name, config);
    run_with_scheme(scheme.as_mut(), config, streams)
}

/// Runs pre-generated streams under an explicit scheme instance. When the
/// process-wide [`EventTraceSink`] is enabled (`--trace-events`), the
/// run's event timeline drains into the trace file.
pub fn run_with_scheme(
    scheme: &mut dyn LoggingScheme,
    config: &SimConfig,
    streams: impl Into<TxStreams>,
) -> SimStats {
    let mut engine = Engine::new(config, scheme);
    EventTraceSink::global().attach(engine.machine_mut());
    let outcome = engine.run(streams, None);
    probe::sink_outcome(&outcome);
    outcome.stats
}

/// Renders a normalized table: one row per benchmark, one column per
/// scheme, each cell `value[bench][scheme] / value[bench][reference]`.
///
/// An empty benchmark list renders the title and header only — no
/// `Average` row, so no 0/0 `NaN` cells.
pub fn format_normalized(
    title: &str,
    benches: &[String],
    schemes: &[&str],
    values: &[Vec<f64>],
    reference: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "\n{title}").unwrap();
    write!(out, "{:<10}", "").unwrap();
    for s in schemes {
        write!(out, "{s:>9}").unwrap();
    }
    writeln!(out).unwrap();
    if benches.is_empty() {
        return out;
    }
    let mut sums = vec![0.0; schemes.len()];
    for (b, row) in benches.iter().zip(values) {
        write!(out, "{b:<10}").unwrap();
        let norm = row[reference];
        for (i, v) in row.iter().enumerate() {
            let x = if norm == 0.0 { 0.0 } else { v / norm };
            sums[i] += x;
            write!(out, "{x:>9.3}").unwrap();
        }
        writeln!(out).unwrap();
    }
    write!(out, "{:<10}", "Average").unwrap();
    for s in &sums {
        write!(out, "{:>9.3}", s / benches.len() as f64).unwrap();
    }
    writeln!(out).unwrap();
    out
}

/// Prints [`format_normalized`] to stdout.
pub fn print_normalized(
    title: &str,
    benches: &[String],
    schemes: &[&str],
    values: &[Vec<f64>],
    reference: usize,
) {
    print!(
        "{}",
        format_normalized(title, benches, schemes, values, reference)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_workloads::workload_by_name;

    #[test]
    fn all_schemes_instantiate() {
        let cfg = SimConfig::table_ii(2);
        for s in ALL_SCHEMES {
            assert_eq!(make_scheme(s, &cfg).name(), s);
        }
        assert!(SCHEMES.iter().all(|s| ALL_SCHEMES.contains(s)));
    }

    #[test]
    #[should_panic(expected = "unknown scheme")]
    fn unknown_scheme_panics() {
        make_scheme("Nope", &SimConfig::table_ii(1));
    }

    #[test]
    fn smoke_run_every_scheme_on_one_workload() {
        let w = workload_by_name("Bank").expect("bank exists");
        for s in SCHEMES {
            let stats = run_one(s, w.as_ref(), 1, 20, 42);
            assert_eq!(stats.txs_committed, 21, "{s}: setup + 20 txs");
            assert!(stats.sim_cycles.as_u64() > 0);
        }
    }
}

/// Wraps a workload so that every `group` consecutive measured
/// transactions execute as **one** transaction, multiplying the write set —
/// the knob behind the paper's Fig 14 large-transaction study.
pub struct Batched<W> {
    inner: W,
    group: usize,
}

impl<W: Workload> Batched<W> {
    /// Groups `group` inner transactions per emitted transaction.
    ///
    /// # Panics
    ///
    /// Panics if `group` is zero.
    pub fn new(inner: W, group: usize) -> Self {
        assert!(group > 0, "group must be positive");
        Batched { inner, group }
    }
}

impl<W: Workload> Workload for Batched<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn trace_ident(&self) -> String {
        format!("{}[batch={}]", self.inner.trace_ident(), self.group)
    }

    fn raw_streams(&self, cores: usize, txs_per_core: usize, seed: u64) -> Vec<Vec<Transaction>> {
        // The inner trace resolves through the cache: the five Fig 14
        // batch multipliers often share the same inner stream.
        let raw = TraceCache::global()
            .get_or_build(&self.inner, cores, txs_per_core * self.group, seed)
            .to_vecs();
        raw.into_iter()
            .map(|stream| {
                let mut out = Vec::with_capacity(txs_per_core + 1);
                let mut iter = stream.into_iter();
                // The setup transaction stays as-is.
                if let Some(setup) = iter.next() {
                    out.push(setup);
                }
                let mut ops = Vec::new();
                let mut n = 0;
                for tx in iter {
                    ops.extend_from_slice(tx.ops());
                    n += 1;
                    if n == self.group {
                        out.push(Transaction::new(std::mem::take(&mut ops)));
                        n = 0;
                    }
                }
                if !ops.is_empty() {
                    out.push(Transaction::new(ops));
                }
                out
            })
            .collect()
    }
}

/// Parses a `--flag value` override from an argument list.
///
/// Returns `Ok(None)` when the flag is absent, `Ok(Some(v))` on a
/// well-formed value, and `Err` with a user-facing message when the flag
/// is present but the value is missing or malformed. Malformed overrides
/// must never be silently replaced by the default — an experiment would
/// quietly run with the wrong parameters.
pub fn try_arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(raw) = args.get(i + 1) else {
        return Err(format!("{flag} expects a value"));
    };
    raw.parse()
        .map(Some)
        .map_err(|_| format!("invalid value {raw:?} for {flag}"))
}

fn arg_or_exit<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match try_arg(args, flag) {
        Ok(Some(v)) => v,
        Ok(None) => default,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Parses `--txs N` style overrides; returns `default` when the flag is
/// absent and exits with an error message on a malformed value.
pub fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    arg_or_exit(args, flag, default)
}

/// Parses `--seed S` style `u64` overrides; returns `default` when the
/// flag is absent and exits with an error message on a malformed value.
pub fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    arg_or_exit(args, flag, default)
}

/// Parses a `--flag value` string override; `None` when absent, fatal
/// when the value is missing.
pub fn arg_string(args: &[String], flag: &str) -> Option<String> {
    match try_arg::<String>(args, flag) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod batched_tests {
    use super::*;
    use silo_workloads::BankWorkload;

    #[test]
    fn batching_multiplies_write_sets() {
        let plain = BankWorkload::default().raw_streams(1, 8, 1);
        let batched = Batched::new(BankWorkload::default(), 4).raw_streams(1, 2, 1);
        // Same setup tx; 2 batched txs covering the same 8 inner txs.
        assert_eq!(batched[0].len(), 3);
        let plain_words: usize = plain[0][1..].iter().map(|t| t.store_count()).sum();
        let batched_words: usize = batched[0][1..].iter().map(|t| t.store_count()).sum();
        assert_eq!(plain_words, batched_words);
        assert!(batched[0][1].store_count() >= 3 * plain[0][1].store_count());
    }

    /// Batching keeps the prefix contract that delta cells rely on.
    #[test]
    fn batched_n_streams_are_prefixes_of_2n_streams() {
        let w = Batched::new(BankWorkload::default(), 3);
        let short = w.raw_streams(2, 5, 4);
        let long = w.raw_streams(2, 10, 4);
        for (s, l) in short.iter().zip(&long) {
            assert_eq!(l.len() - s.len(), 5);
            assert!(l[..s.len()] == s[..]);
        }
    }

    #[test]
    #[should_panic(expected = "steady-state deltas need a closed-loop trace")]
    fn delta_rejects_open_system_traces() {
        let w = silo_workloads::OpenLoop::new(
            BankWorkload::default(),
            silo_workloads::ArrivalProcess::Poisson { mean_gap: 500 },
        );
        run_one_delta("Base", &w, 1, 4, 1);
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let args = argv(&["bin", "--txs", "500", "--seed", "9"]);
        assert_eq!(arg_usize(&args, "--txs", 100), 500);
        assert_eq!(arg_usize(&args, "--cores", 8), 8);
        assert_eq!(arg_u64(&args, "--seed", 42), 9);
        assert_eq!(arg_u64(&args, "--other", 42), 42);
    }

    #[test]
    fn malformed_arg_values_are_errors_not_defaults() {
        let args = argv(&["bin", "--txs", "5oo"]);
        let err = try_arg::<usize>(&args, "--txs").unwrap_err();
        assert!(err.contains("--txs"), "message names the flag: {err}");
        assert!(err.contains("5oo"), "message shows the bad value: {err}");
        // A flag at the end of the line is missing its value.
        let args = argv(&["bin", "--seed"]);
        let err = try_arg::<u64>(&args, "--seed").unwrap_err();
        assert!(err.contains("expects a value"), "{err}");
        // Negative numbers don't parse as unsigned overrides.
        let args = argv(&["bin", "--seed", "-1"]);
        assert!(try_arg::<u64>(&args, "--seed").is_err());
    }

    #[test]
    fn well_formed_and_absent_args_round_trip() {
        let args = argv(&["bin", "--txs", "500"]);
        assert_eq!(try_arg::<usize>(&args, "--txs").unwrap(), Some(500));
        assert_eq!(try_arg::<usize>(&args, "--cores").unwrap(), None);
        assert_eq!(arg_string(&args, "--bench"), None);
    }

    #[test]
    fn empty_benchmark_list_renders_without_nan() {
        let out = format_normalized("(0 cores)", &[], &["Base", "Silo"], &[], 0);
        assert!(out.contains("(0 cores)"));
        assert!(out.contains("Base"));
        assert!(!out.contains("NaN"), "no 0/0 Average row: {out:?}");
        assert!(!out.contains("Average"));
    }

    #[test]
    fn format_and_print_normalized_agree_on_populated_tables() {
        let benches = vec!["Hash".to_string(), "TPCC".to_string()];
        let values = vec![vec![10.0, 5.0], vec![8.0, 2.0]];
        let out = format_normalized("(2 cores)", &benches, &["Base", "Silo"], &values, 0);
        assert!(out.contains("Hash          1.000    0.500"));
        assert!(out.contains("Average       1.000    0.375"));
        assert!(out.ends_with('\n'));
    }
}
