//! The `grid` workload: a cold Fig 11/12 grid of steady-state delta cells.
//!
//! Each grid runs in a fresh worker process (this binary, re-executed)
//! against a fresh, empty result store, so every grid is as cold as a first
//! `evaluate fig11`: the 5 paper schemes × 7 benchmarks × {1, 2, 4, 8}
//! cores, dispatched over [`JOBS`] workers through the store as `evaluate`
//! dispatches them, then rendered and validated. Trace generation, the
//! cache, memory controller, PM, scheme hooks and store writes do all the
//! work. The parent repeats the same grid until the run's time is up.

use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use silo_bench::exp::{CellLabel, CellOutcome, ExpParams};
use silo_bench::{
    registry, render_finished_checked, write_report, CellSpec, CellWork, ResultStore, Served,
    TraceCache, FIG11_BENCHMARKS,
};
use silo_sim::SimStats;
use silo_types::JsonValue;

use crate::stats::{self, Tally};
use crate::{span, Outcome};

/// The hidden subcommand a grid worker process runs.
pub const WORKER: &str = "grid-worker";
/// Transactions per benchmark, split across the cores (`evaluate --txs`).
pub const TXS: usize = 500;
/// Workers per grid: the host's two cores.
pub const JOBS: usize = 2;
/// Cells per grid: 5 schemes × 7 benchmarks × 4 core counts.
pub const CELLS: usize = 140;

/// Paper headline factors at 8 cores (EXPERIMENTS.md): Silo/MorLog
/// throughput, Silo/LAD throughput, media-write cut vs MorLog in percent.
pub const PAPER: [(&str, f64); 3] = [
    ("silo_tp_x_morlog", 4.3),
    ("silo_tp_x_lad", 1.5),
    ("silo_traffic_cut_morlog", 76.5),
];

/// The exact simulated results of one grid. A change that only makes the
/// simulator faster must leave every field unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct Identity {
    /// Sum of every cell's simulated cycles.
    pub cycles_sum: u64,
    /// FNV-1a of every cell's statistics, folded to 48 bits so it is exact
    /// as a JSON number.
    pub stats_digest: u64,
    /// The 8-core headline factors, in [`PAPER`] order.
    pub factors: [f64; 3],
}

impl Identity {
    /// Mean relative error of the factors against the paper, in percent.
    pub fn paper_err_pct(&self) -> f64 {
        let errs: Vec<f64> = self
            .factors
            .iter()
            .zip(PAPER)
            .map(|(x, (_, p))| (x - p).abs() / p * 100.0)
            .collect();
        stats::mean(&errs)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("cycles_sum", self.cycles_sum)
            .field("stats_digest", self.stats_digest)
            .field("factors", JsonValue::array(self.factors))
            .build()
    }

    fn from_json(v: &JsonValue) -> Option<Identity> {
        let f = v.get("factors")?.as_array()?;
        Some(Identity {
            cycles_sum: v.get("cycles_sum")?.as_u64()?,
            stats_digest: v.get("stats_digest")?.as_u64()?,
            factors: [
                f.first()?.as_f64()?,
                f.get(1)?.as_f64()?,
                f.get(2)?.as_f64()?,
            ],
        })
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The grid's [`Identity`] from its finished cells (in build order).
pub fn identity(cells: &[(CellLabel, CellOutcome)]) -> Identity {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut cycles_sum = 0;
    for (_, o) in cells {
        if let Some(s) = &o.stats {
            cycles_sum += s.sim_cycles.as_u64();
            fnv(&mut digest, s.to_json().to_string().as_bytes());
        }
    }
    // Base-normalized averages over the benchmarks at 8 cores, as the
    // figures' `Average` rows compute them.
    let avg = |scheme: &str, metric: fn(&SimStats) -> f64| {
        let per_bench: Vec<f64> = FIG11_BENCHMARKS
            .iter()
            .filter_map(|b| {
                let get = |s: &str| {
                    cells.iter().find_map(|(l, o)| {
                        (l.cores == 8 && l.workload == *b && l.scheme == s)
                            .then(|| o.stats.as_ref().map(metric))
                            .flatten()
                    })
                };
                Some(get(scheme)? / get("Base")?)
            })
            .collect();
        stats::mean(&per_bench)
    };
    let tp = |s: &SimStats| s.throughput();
    let mw = |s: &SimStats| s.media_writes() as f64;
    Identity {
        cycles_sum,
        stats_digest: digest & ((1 << 48) - 1),
        factors: [
            avg("Silo", tp) / avg("MorLog", tp),
            avg("Silo", tp) / avg("LAD", tp),
            (1.0 - avg("Silo", mw) / avg("MorLog", mw)) * 100.0,
        ],
    }
}

/// The checks `evaluate check` applies to a written report, plus the
/// grid's own shape: well-formed JSON naming the experiment, one cell per
/// grid cell, statistics on every cell, and no `NaN` in the text.
pub fn validate_report(path: &Path, text: &str, cells: usize) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading report: {e}"))?;
    let v = JsonValue::parse(&raw).map_err(|e| format!("report is not JSON: {e}"))?;
    if v.get("experiment").and_then(JsonValue::as_str) != Some("fig11") {
        return Err("report does not name fig11".into());
    }
    let got = v.get("cells").and_then(JsonValue::as_array).unwrap_or(&[]);
    if got.len() != cells {
        return Err(format!("report has {} cells, expected {cells}", got.len()));
    }
    if got.iter().any(|c| c.get("stats").is_none()) {
        return Err("a report cell carries no statistics".into());
    }
    if text.is_empty() || text.contains("NaN") {
        return Err("rendered text is empty or holds NaN".into());
    }
    Ok(())
}

/// The `(cores, measured transactions per core)` of a delta cell.
fn cell_shape(spec: &CellSpec) -> (usize, usize) {
    match &spec.work {
        CellWork::Delta(run) => (run.cores, run.txs_per_core),
        _ => (0, 0),
    }
}

/// One finished grid, as the worker reports it.
pub struct GridResult {
    /// Seconds from the first dispatched cell to the validated report.
    pub wall_s: f64,
    /// Per-cell host milliseconds, in cell order.
    pub cell_ms: Vec<f64>,
    /// Transactions simulated (the N and 2N runs of every cell).
    pub sim_txs: u64,
    /// Peak RSS of the worker, MiB.
    pub rss_mb: f64,
    /// Trace-cache hits and generations.
    pub trace_hits: u64,
    /// Trace generations.
    pub trace_gens: u64,
    /// Milliseconds to render and validate the report.
    pub render_ms: f64,
    /// The exact simulated results.
    pub identity: Identity,
    /// Checked cells (plus the report) and failures.
    pub tally: Tally,
}

/// Entry point of a worker process: `grid-worker --seed N --jobs J
/// --store DIR [--spans PATH]`. Prints `ready` once set up, then one JSON
/// line with the [`GridResult`].
pub fn worker_main(args: &[String]) -> i32 {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(seed), Some(jobs), Some(store_dir)) = (
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--jobs").and_then(|s| s.parse::<usize>().ok()),
        get("--store"),
    ) else {
        eprintln!("error: {WORKER} needs --seed N --jobs J --store DIR");
        return 2;
    };
    let spans = get("--spans").map(PathBuf::from);
    span::set_enabled(spans.is_some());

    // Set-up: the store (its directory comes from SILO_RESULT_STORE, set
    // by the parent) and the grid's cell specs.
    let store = ResultStore::global();
    store.set_enabled(true);
    let spec = registry::find("fig11").expect("fig11 is registered");
    let mut params = ExpParams::defaults(&spec);
    params.txs = TXS;
    params.seed = seed;
    let cells = spec.build(&params);
    println!("ready");
    let _ = std::io::stdout().flush();

    let start = Instant::now();
    let mut tally = Tally::default();
    let done = crate::closed_loop(
        jobs,
        |i| i >= cells.len(),
        |i| {
            let cell = &cells[i as usize];
            let t = Instant::now();
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g = span::span("result_store", "ResultStore::get_or_run_traced", i);
                store.get_or_run_traced(cell)
            }));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let outcome = match got {
                Ok((o, Served::Executed)) => o,
                Ok((_, served)) => CellOutcome::failed(format!(
                    "cold store served {} from {}",
                    cell.label.describe(),
                    served.name()
                )),
                Err(_) => CellOutcome::failed(format!("{} panicked", cell.label.describe())),
            };
            Some((outcome, ms))
        },
    );
    let mut finished = Vec::with_capacity(cells.len());
    let mut cell_ms = Vec::with_capacity(cells.len());
    let mut sim_txs = 0;
    for (cell, (mut outcome, ms)) in cells.iter().zip(done) {
        let (cores, per_core) = cell_shape(cell);
        let want = (cores * per_core) as u64;
        let committed = outcome.stats.as_ref().map(|s| s.txs_committed);
        let ok = outcome.error.is_none() && committed == Some(want);
        tally.check(ok, || {
            format!(
                "cell {}: {}",
                cell.label.describe(),
                outcome
                    .error
                    .clone()
                    .unwrap_or(format!("committed {committed:?}, expected {want}"))
            )
        });
        // The N and 2N runs both simulate their measured transactions.
        sim_txs += 3 * want;
        outcome.origin = cell.label.describe();
        finished.push((cell.label.clone(), outcome));
        cell_ms.push(ms);
    }

    let t = Instant::now();
    let rendered = {
        let _g = span::span("report", "render_finished_checked", 0);
        render_finished_checked(&spec, &params, &finished)
    };
    let report_dir = Path::new(&store_dir).join("report");
    let report = rendered.map_err(|e| e.to_string()).and_then(|run| {
        let path = write_report(&run, &report_dir, jobs, 0.0).map_err(|e| e.to_string())?;
        validate_report(&path, &run.text, cells.len())
    });
    let render_ms = t.elapsed().as_secs_f64() * 1e3;
    tally.check(report.is_ok(), || {
        format!("report: {}", report.unwrap_err())
    });
    let wall_s = start.elapsed().as_secs_f64();

    let identity = identity(&finished);
    let cache = TraceCache::global().stats();
    if let Some(path) = spans {
        if let Err(err) = span::write_out(&path) {
            eprintln!("warning: writing spans to {}: {err}", path.display());
        }
    }
    let doc = JsonValue::object()
        .field("wall_s", wall_s)
        .field("cell_ms", JsonValue::array(cell_ms))
        .field("sim_txs", sim_txs)
        .field("rss_mb", crate::peak_rss_mb())
        .field("trace_hits", cache.hits)
        .field("trace_gens", cache.generations)
        .field("render_ms", render_ms)
        .field("identity", identity.to_json())
        .field("attempted", tally.attempted)
        .field("failed", tally.failed)
        .field(
            "messages",
            JsonValue::array(tally.messages().iter().map(String::as_str)),
        )
        .build();
    println!("{doc}");
    0
}

/// Runs one grid in a fresh worker process. Returns the set-up seconds
/// (spawn until the worker is ready) and the worker's result.
pub fn spawn_grid(
    seed: u64,
    jobs: usize,
    spans: Option<&Path>,
) -> Result<(f64, GridResult), String> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let store = crate::scratch_dir().join(format!("grid-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        WORKER,
        "--seed",
        &seed.to_string(),
        "--jobs",
        &jobs.to_string(),
    ])
    .arg("--store")
    .arg(&store)
    .env("SILO_RESULT_STORE", &store)
    .stdout(Stdio::piped());
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let t = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawning grid worker: {e}"))?;
    let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let _ = out.read_line(&mut line);
    let setup_s = t.elapsed().as_secs_f64();
    let mut rest = String::new();
    let _ = out.read_line(&mut rest);
    let status = child.wait().map_err(|e| e.to_string());
    let _ = std::fs::remove_dir_all(&store);
    if line.trim() != "ready" || !status.as_ref().is_ok_and(|s| s.success()) {
        return Err(format!("grid worker failed ({status:?})"));
    }
    let v = JsonValue::parse(rest.trim()).map_err(|e| format!("grid worker output: {e}"))?;
    let num = |k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
    let mut tally = Tally::default();
    let attempted = num("attempted") as u64;
    let failed = num("failed") as u64;
    let messages: Vec<String> = v
        .get("messages")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.as_str().map(str::to_string))
        .collect();
    tally.attempted = attempted;
    for i in 0..failed as usize {
        tally.fail(messages.get(i).cloned().unwrap_or_default());
    }
    let identity = v
        .get("identity")
        .and_then(Identity::from_json)
        .ok_or("grid worker output lacks the identity")?;
    Ok((
        setup_s,
        GridResult {
            wall_s: num("wall_s"),
            cell_ms: v
                .get("cell_ms")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(JsonValue::as_f64)
                .collect(),
            sim_txs: num("sim_txs") as u64,
            rss_mb: num("rss_mb"),
            trace_hits: num("trace_hits") as u64,
            trace_gens: num("trace_gens") as u64,
            render_ms: num("render_ms"),
            identity,
            tally,
        },
    ))
}

/// The untraced `grid` run: the same cold grid, repeated until `seconds`
/// have passed (at least three times).
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let deadline = crate::Deadline::new(seconds);
    let mut tally = Tally::default();
    // One sample of each metric per grid; the run reports their medians.
    let (mut setups, mut rates, mut sim_rates, mut p50, mut p90, mut rss) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        0.0f64,
    );
    let mut walls = Vec::new();
    let mut first: Option<Identity> = None;
    let mut grids = 0;
    // Stop once the next grid would likely end past the deadline.
    while grids < 3 || deadline.elapsed_s() + stats::median(&walls) < deadline.run_s() {
        grids += 1;
        match spawn_grid(seed, JOBS, None) {
            Ok((setup_s, g)) => {
                setups.push(setup_s);
                walls.push(setup_s + g.wall_s);
                rates.push(g.cell_ms.len() as f64 / g.wall_s);
                sim_rates.push(g.sim_txs as f64 / g.wall_s);
                p50.push(stats::percentile(&g.cell_ms, 50.0).unwrap_or(f64::NAN));
                p90.push(stats::percentile(&g.cell_ms, 90.0).unwrap_or(f64::NAN));
                rss = rss.max(g.rss_mb);
                match &first {
                    None => first = Some(g.identity.clone()),
                    Some(id) if *id != g.identity => tally.fail(format!(
                        "grid {grids} simulated differently from grid 1: {:?} vs {id:?}",
                        g.identity
                    )),
                    Some(_) => {}
                }
                tally.merge(g.tally);
            }
            Err(msg) => {
                tally.check(false, || msg);
            }
        }
    }
    let series = crate::Series {
        ops_per_s: rates,
        sim_tx_per_s: sim_rates,
        op_p50_ms: p50,
        op_p90_ms: p90,
    };
    let (metrics, mut notes) = series.metrics(&setups, rss);
    notes.push(format!(
        "{grids} cold grids of {CELLS} cells ({TXS} txs, {JOBS} workers)"
    ));
    if let Some(id) = &first {
        notes.push(format!(
            "paper_err_pct {:.3} % (sim; Silo/MorLog {:.3}x vs paper 4.3x, Silo/LAD {:.3}x vs 1.5x, \
             traffic cut {:.2} % vs 76.5 %)",
            id.paper_err_pct(),
            id.factors[0],
            id.factors[1],
            id.factors[2]
        ));
    }
    notes.push(format!(
        "fail_ratio {:.4} failed/attempted",
        tally.fail_ratio()
    ));
    Outcome {
        metrics,
        tally,
        notes,
    }
}
