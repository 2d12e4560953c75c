//! `silo-perfbench`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|crash|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of stdout
//! is one JSON object with the end-to-end metrics of the workload; with
//! `--trace 1` it carries the per-layer metrics of the traced run instead
//! (see `README.md` for the metric → layer → workload map). A human
//! summary goes to stderr. Scratch files (result stores, span dumps) live
//! under `.perfbench/` in the working directory.

mod crash;
mod grid;
mod layers;
mod serve;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stats::Tally;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end timings of a run, one sample per window.
pub struct Series {
    /// Operations per second.
    pub ops_per_s: Vec<f64>,
    /// Simulated transactions per second.
    pub sim_tx_per_s: Vec<f64>,
    /// Median operation milliseconds.
    pub op_p50_ms: Vec<f64>,
    /// 90th-percentile operation milliseconds.
    pub op_p90_ms: Vec<f64>,
}

impl Series {
    /// The six end-to-end metrics: the window series' medians, the median
    /// set-up time, and the peak RSS. Notes carry each series.
    pub fn metrics(&self, setups: &[f64], rss_mb: f64) -> (Vec<Metric>, Vec<String>) {
        let series = [
            ("ops_per_s", &self.ops_per_s, "op/s"),
            ("sim_tx_per_s", &self.sim_tx_per_s, "tx/s"),
            ("op_p50_ms", &self.op_p50_ms, "ms"),
            ("op_p90_ms", &self.op_p90_ms, "ms"),
            ("setup_s", &setups.to_vec(), "s"),
        ];
        let mut metrics = Vec::new();
        let mut notes = Vec::new();
        for (name, xs, unit) in series {
            metrics.push(metric(name, stats::median(xs), unit));
            let shown: Vec<String> = xs.iter().map(|x| format!("{x:.5}")).collect();
            notes.push(format!("series {name}: {}", shown.join(" ")));
        }
        metrics.push(metric("peak_rss_mb", rss_mb, "MiB"));
        (metrics, notes)
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Checked operations and failures.
    pub tally: Tally,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra lines for the human summary.
    pub notes: Vec<String>,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["grid", "crash", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn value<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    let i = args
        .iter()
        .position(|a| a == flag)
        .ok_or_else(|| format!("missing {flag}"))?;
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} expects a value"))
}

fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let raw = value(args, flag)?;
    raw.parse()
        .map_err(|_| format!("invalid value {raw:?} for {flag}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = value(args, "--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let trace = match value(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, not {other:?}")),
    };
    let seconds: u64 = number(args, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: number(args, "--seed")?,
        seconds,
        trace,
    })
}

/// The benchmark's scratch directory for this process, removed at exit.
pub fn scratch_dir() -> PathBuf {
    Path::new(".perfbench").join(format!("tmp-{}", std::process::id()))
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The measured window of a run: `seconds` from its creation.
pub struct Deadline {
    start: Instant,
    run: Duration,
}

impl Deadline {
    /// Measurement for `seconds` from now.
    pub fn new(seconds: u64) -> Deadline {
        Deadline {
            start: Instant::now(),
            run: Duration::from_secs(seconds),
        }
    }

    /// Whether the measured time is up.
    pub fn passed(&self) -> bool {
        self.start.elapsed() >= self.run
    }

    /// Seconds since the start.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The length of the measured window, in seconds.
    pub fn run_s(&self) -> f64 {
        self.run.as_secs_f64()
    }
}

/// Width a measured window aims for, in seconds (see [`stats::Windows`]).
pub const WINDOW_S: f64 = 2.0;

/// The worker and connection cap: at most one per host core.
pub fn connections(requested: usize) -> usize {
    requested.clamp(1, silo_bench::default_jobs())
}

/// Runs `op(0), op(1), ...` over at most [`connections`]`(conns)`
/// workers or connections, each issuing its next operation only once its
/// previous one finished; request `i` is not issued once `stop(i)` holds.
/// The `Some` results come back in issue order.
pub fn closed_loop<T: Send>(
    conns: usize,
    stop: impl Fn(usize) -> bool + Sync,
    op: impl Fn(u64) -> Option<T> + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..connections(conns) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if stop(i) {
                    break;
                }
                if let Some(r) = op(i as u64) {
                    results
                        .lock()
                        .expect("no panic holds the lock")
                        .push((i, r));
                }
            });
        }
    });
    let mut results = results.into_inner().expect("no panic holds the lock");
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// A splitmix64 step: the benchmark's deterministic input generator.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `(seed, i)`.
pub fn unit(seed: u64, i: u64) -> f64 {
    (mix(seed ^ mix(i)) >> 11) as f64 / (1u64 << 53) as f64
}

fn print_result(correct: bool, tally: &Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn run(args: &Args) -> Outcome {
    if args.trace {
        return layers::run(&args.workload, args.seed);
    }
    match args.workload.as_str() {
        "grid" => grid::run(args.seed, args.seconds),
        "crash" => crash::run(args.seed, args.seconds),
        _ => serve::run(args.seed, args.seconds),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(grid::WORKER) {
        std::process::exit(grid::worker_main(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: silo-perfbench --workload grid|crash|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let scratch = scratch_dir();
    if let Err(err) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: creating {}: {err}", scratch.display());
        std::process::exit(1);
    }
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&scratch);

    let mode = if args.trace { "traced" } else { "untraced" };
    eprintln!(
        "== {} seed {} ({mode}): {} ops attempted, {} failed (fail_ratio {:.4})",
        args.workload,
        args.seed,
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.fail_ratio()
    );
    for m in outcome.tally.messages() {
        eprintln!("   failure: {m}");
    }
    for m in &outcome.metrics {
        eprintln!("   {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        eprintln!("   {note}");
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("error: a metric is not a finite number");
        std::process::exit(1);
    }
    if outcome.tally.attempted == 0 {
        eprintln!("error: no operation was attempted");
        std::process::exit(1);
    }
    let correct = outcome.tally.failed == 0;
    print_result(correct, &outcome.tally, &outcome.metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_client_never_exceeds_its_connection_cap() {
        let cap = silo_bench::default_jobs();
        for requested in [1, 2, 64] {
            let inflight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let got = closed_loop(
                requested,
                |n| n >= 200,
                |i| {
                    let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    Some(i)
                },
            );
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= requested.min(cap),
                "requested {requested}: peak {peak}"
            );
            // Results come back in issue order, none lost or repeated.
            assert_eq!(got.len(), 200);
            assert!(got.iter().enumerate().all(|(i, &x)| x == i as u64));
        }
        assert_eq!(connections(0), 1);
        assert_eq!(connections(usize::MAX), cap);
    }
}
