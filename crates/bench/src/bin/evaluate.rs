//! The unified evaluation driver: runs any registered experiment (or all
//! of them) across parallel workers and writes one JSON report per
//! experiment.
//!
//! ```text
//! evaluate <experiment|all|list> [--txs N] [--seed S] [--jobs J] [--json-dir D]
//!          [--cores C] [--bench Name[,Name...]] [--trace-events PATH]
//! evaluate check <report.json>
//! ```
//!
//! Experiments resolve by registry name (`fig11`); the text output is
//! byte-identical at any `--jobs`. Reports land in
//! `target/reports/` unless `--json-dir` says otherwise; progress lines go
//! to stderr so stdout stays comparable.

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::Path;

use silo_bench::{
    arg_string, arg_u64, arg_usize, default_jobs, http, registry, run_experiment_checked, try_arg,
    write_report, EventTraceSink, ExpParams, ExperimentError, ExperimentSpec, PanicPolicy,
    ResultStore, ServeOptions, Server, TraceCache,
};
use silo_types::JsonValue;

const USAGE: &str = "\
usage: evaluate <experiment|all|list> [--txs N] [--seed S] [--jobs J] [--json-dir D]
                [--cores C] [--bench Name[,Name...]] [--no-trace-cache]
                [--no-result-store] [--trace-events PATH] [--catch-cell-panics]
       evaluate check <report.json>
       evaluate store-gc
       evaluate serve [--addr A] [--serve-workers N] [--queue-cap N]
                      [--lru-cap N] [--store-dir D]
       evaluate serve-submit <experiment> --addr A [run flags] [--report-out F]
       evaluate serve-stats --addr A
       evaluate serve-stop --addr A
       evaluate serve-bench [--txs N] [--out F] [--store-dir D]

serve runs the memoized simulation daemon: POST /cell and POST
/experiment submit work, GET /progress/<id> and GET /result/<id> follow
a detached job, GET /stats reports the queue/cache counters, and POST
/shutdown drains and stops (there is no signal handler; use serve-stop).
serve-submit mirrors the CLI run surface over HTTP: stdout is the
experiment text, byte-identical to running it locally, and --report-out
writes the report body (the CLI report minus the jobs/wall_ms
envelope). serve-bench self-hosts a daemon and measures cold/warm grid
wall time plus cached single-cell serve latency into BENCH_serve.json.

A cell that fails exits 3; a render failure exits 4 (serve-submit maps
the daemon's 500-with-origin bodies onto the same codes).
--catch-cell-panics turns a panicking cell into a recorded failed
outcome instead of aborting the run.

--trace-events writes a schema-versioned JSONL event timeline (tx
begin/commit, log merge/ignore/overflow, buffer drains, WPQ admissions,
crash/recovery) for every run to PATH.

Cell outcomes are memoized on disk under target/result-store/ (override
with SILO_RESULT_STORE=<dir>), keyed by spec hash, trace content, and
code fingerprint, so re-evaluating unchanged work replays stored
results. --no-result-store computes everything fresh and records
nothing; `evaluate store-gc` prunes entries left by old builds.

crashfuzz resimulates crash points from periodic checkpoints of the
clean reference run; --checkpoint-every N sets the capture cadence in
durability events and --no-checkpoints runs every point from scratch.
Both are perf-only: resumed and from-scratch runs are byte-identical.
--points K (default 4) sets how many crash points each cell scans and,
unlike the checkpoint flags, is part of the computed result.

fuzz runs the coverage-guided crash search: --execs N sets the per-cell
execution budget, --fault adr|torn-line|battery (with --torn-keep /
--battery-bytes) restricts the fault models, --arrival IDENT fuzzes an
open-system workload, and --crash-event E (with one --fault, optional
--recovery-crash R) replays one exact candidate. Interesting candidates
persist under target/fuzz-corpus/ (--corpus DIR overrides,
--no-corpus disables); the search itself is a pure function of --seed.

Run `evaluate list` for the registered experiments.";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--no-trace-cache") {
        TraceCache::global().set_enabled(false);
    }
    let mut store_on = !args.iter().any(|a| a == "--no-result-store");
    if let Some(path) = arg_string(&args, "--trace-events") {
        if let Err(err) = EventTraceSink::global().enable(Path::new(&path)) {
            eprintln!("error: opening event trace {path}: {err}");
            std::process::exit(1);
        }
        // A replayed outcome emits no events, so a run that asks for the
        // timeline must compute every cell fresh.
        store_on = false;
    }
    ResultStore::global().set_enabled(store_on);
    let Some(cmd) = args.get(1).map(String::as_str) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match cmd {
        "-h" | "--help" => println!("{USAGE}"),
        "list" => {
            for spec in registry::all() {
                println!("{:<24}{}", spec.name, spec.description);
            }
        }
        "check" => check(args.get(2).map(String::as_str)),
        "serve" => serve_cmd(&args),
        "serve-submit" => serve_submit(&args),
        "serve-stats" => client_get(&args, "/stats"),
        "serve-stop" => client_post(&args, "/shutdown"),
        "serve-bench" => serve_bench(&args),
        "store-gc" => match ResultStore::global().gc() {
            Ok((dirs, files)) => {
                println!("result store gc: removed {dirs} stale fingerprint dirs, {files} entries")
            }
            Err(err) => {
                eprintln!("error: result store gc: {err}");
                std::process::exit(1);
            }
        },
        "all" => {
            for spec in registry::all() {
                run(&spec, &args);
            }
        }
        name => match registry::find(name) {
            Some(spec) => run(&spec, &args),
            None => {
                eprintln!("error: unknown experiment {name:?}; run `evaluate list`");
                std::process::exit(2);
            }
        },
    }
}

fn run(spec: &ExperimentSpec, args: &[String]) {
    let mut params = ExpParams::defaults(spec);
    params.txs = arg_usize(args, "--txs", params.txs);
    params.seed = arg_u64(args, "--seed", params.seed);
    params.cores = arg_usize(args, "--cores", params.cores);
    if let Some(list) = arg_string(args, "--bench") {
        params.benches = list.split(',').map(str::to_string).collect();
    }
    params.extra = args.to_vec();
    let jobs = arg_usize(args, "--jobs", default_jobs());
    if jobs == 0 {
        eprintln!("error: --jobs must be at least 1");
        std::process::exit(2);
    }
    let dir = arg_string(args, "--json-dir").unwrap_or_else(|| "target/reports".to_string());
    let policy = if args.iter().any(|a| a == "--catch-cell-panics") {
        PanicPolicy::Capture
    } else {
        PanicPolicy::Propagate
    };

    let start = std::time::Instant::now();
    let run = match run_experiment_checked(spec, &params, jobs, policy) {
        Ok(run) => run,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(match err {
                ExperimentError::Cell { .. } => 3,
                ExperimentError::Render { .. } => 4,
            });
        }
    };
    print!("{}", run.text);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    // Cumulative process-wide counts; stderr so stdout stays comparable.
    let cache = TraceCache::global().stats();
    eprintln!(
        "[trace-cache] {} unique keys, {} generated, {} hits{}",
        cache.unique_keys,
        cache.generations,
        cache.hits,
        if TraceCache::global().enabled() {
            ""
        } else {
            " (disabled)"
        }
    );
    let store = ResultStore::global().stats();
    eprintln!(
        "[result-store] {} hits, {} misses, {} invalidated{}",
        store.hits,
        store.misses,
        store.invalidated,
        if ResultStore::global().enabled() {
            ""
        } else {
            " (disabled)"
        }
    );
    match write_report(&run, Path::new(&dir), jobs, wall_ms) {
        Ok(path) => eprintln!(
            "[{}] done in {:.0} ms ({} jobs), report {}",
            spec.name,
            wall_ms,
            jobs,
            path.display()
        ),
        Err(err) => {
            eprintln!("error: writing report for {}: {err}", spec.name);
            std::process::exit(1);
        }
    }
}

fn check(path: Option<&str>) {
    let Some(path) = path else {
        eprintln!("usage: evaluate check <report.json>");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("error: reading {path}: {err}");
        std::process::exit(1);
    });
    let v = JsonValue::parse(&text).unwrap_or_else(|err| {
        eprintln!("error: {path} is not well-formed JSON: {err}");
        std::process::exit(1);
    });
    let name = v
        .get("experiment")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    let cells = v.get("cells").and_then(JsonValue::as_array).unwrap_or(&[]);
    let mut breakdowns = 0usize;
    let mut violations = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let Some(stats) = cell.get("stats") else {
            continue;
        };
        if stats.get("breakdown").is_none() {
            continue;
        }
        breakdowns += 1;
        violations.extend(breakdown_violations(i, stats));
    }
    if !violations.is_empty() {
        for msg in &violations {
            eprintln!("error: {path}: {msg}");
        }
        std::process::exit(1);
    }
    if breakdowns > 0 {
        println!(
            "{path}: ok (experiment {name}, {} cells, {breakdowns} breakdowns validated)",
            cells.len()
        );
    } else {
        println!("{path}: ok (experiment {name}, {} cells)", cells.len());
    }
}

/// Validates one cell's cycle-attribution invariant: each per-core
/// category row sums to that core's reported clock, per-category totals
/// match the column sums, and the grand total matches everything.
fn breakdown_violations(cell: usize, stats: &JsonValue) -> Vec<String> {
    let mut out = Vec::new();
    let b = stats.get("breakdown").expect("caller checked presence");
    let rows: Vec<Vec<u64>> = b
        .get("per_core")
        .and_then(JsonValue::as_array)
        .map(|rows| {
            rows.iter()
                .map(|row| {
                    row.as_array()
                        .map(|xs| {
                            xs.iter()
                                .map(|x| x.as_f64().unwrap_or(f64::NAN) as u64)
                                .collect()
                        })
                        .unwrap_or_default()
                })
                .collect()
        })
        .unwrap_or_default();
    let core_cycles: Vec<u64> = stats
        .get("per_core")
        .and_then(JsonValue::as_array)
        .map(|cs| {
            cs.iter()
                .map(|c| {
                    c.get("cycles")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(f64::NAN) as u64
                })
                .collect()
        })
        .unwrap_or_default();
    if rows.len() != core_cycles.len() {
        out.push(format!(
            "cell {cell}: breakdown covers {} cores but per_core reports {}",
            rows.len(),
            core_cycles.len()
        ));
        return out;
    }
    for (i, (row, &cycles)) in rows.iter().zip(&core_cycles).enumerate() {
        let sum: u64 = row.iter().sum();
        if sum != cycles {
            out.push(format!(
                "cell {cell}: core {i} categories sum to {sum}, clock is {cycles}"
            ));
        }
    }
    let categories: Vec<String> = b
        .get("categories")
        .and_then(JsonValue::as_array)
        .map(|cs| {
            cs.iter()
                .filter_map(|c| c.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let Some(totals) = b.get("totals") else {
        out.push(format!("cell {cell}: breakdown has no totals object"));
        return out;
    };
    let mut grand = 0u64;
    for (k, cat) in categories.iter().enumerate() {
        let column: u64 = rows
            .iter()
            .map(|row| row.get(k).copied().unwrap_or(0))
            .sum();
        grand += column;
        let reported = totals
            .get(cat)
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN) as u64;
        if reported != column {
            out.push(format!(
                "cell {cell}: totals.{cat} is {reported}, column sums to {column}"
            ));
        }
    }
    let total = totals
        .get("total")
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN) as u64;
    if total != grand {
        out.push(format!(
            "cell {cell}: totals.total is {total}, categories sum to {grand}"
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// serve: daemon + HTTP client subcommands
// ---------------------------------------------------------------------------

/// `evaluate serve`: run the simulation daemon until `POST /shutdown`.
fn serve_cmd(args: &[String]) {
    let mut options = ServeOptions::default();
    if let Some(addr) = arg_string(args, "--addr") {
        options.addr = addr;
    }
    options.workers = arg_usize(args, "--serve-workers", options.workers);
    options.queue_cap = arg_usize(args, "--queue-cap", options.queue_cap);
    options.lru_cap = arg_usize(args, "--lru-cap", options.lru_cap);
    if let Some(dir) = arg_string(args, "--store-dir") {
        options.store_dir = Some(dir.into());
    }
    if options.workers == 0 || options.queue_cap == 0 {
        eprintln!("error: --serve-workers and --queue-cap must be at least 1");
        std::process::exit(2);
    }
    let server = Server::start(options).unwrap_or_else(|err| {
        eprintln!("error: starting daemon: {err}");
        std::process::exit(1);
    });
    // Scripts scrape this exact line for the bound port.
    println!("serving on {}", server.addr());
    let _ = std::io::stdout().flush();
    server.wait();
    eprintln!("[serve] drained and stopped");
}

/// Parses the mandatory `--addr host:port` of the client subcommands.
fn client_addr(args: &[String]) -> SocketAddr {
    let Some(addr) = arg_string(args, "--addr") else {
        eprintln!("error: --addr <host:port> is required");
        std::process::exit(2);
    };
    addr.parse().unwrap_or_else(|_| {
        eprintln!("error: bad --addr {addr:?} (expected host:port)");
        std::process::exit(2);
    })
}

fn request_or_die(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> http::Response {
    http::http_request(addr, method, path, body).unwrap_or_else(|err| {
        eprintln!("error: {method} {path} on {addr}: {err}");
        std::process::exit(1);
    })
}

/// `serve-stats`: print one endpoint's JSON body (exit 1 on a non-200).
fn client_get(args: &[String], path: &str) {
    let resp = request_or_die(client_addr(args), "GET", path, None);
    println!("{}", resp.body);
    if resp.status != 200 {
        std::process::exit(1);
    }
}

/// `serve-stop`: POST to an endpoint and print the JSON body.
fn client_post(args: &[String], path: &str) {
    let resp = request_or_die(client_addr(args), "POST", path, Some("{}"));
    println!("{}", resp.body);
    if resp.status != 200 {
        std::process::exit(1);
    }
}

/// `serve-submit`: run a registry experiment on the daemon. Stdout is the
/// experiment text, byte-identical to running it locally; exit codes
/// mirror the CLI (2 bad request, 1 backpressure/transport, 3 cell
/// failure, 4 render failure).
fn serve_submit(args: &[String]) {
    let name = match args.get(2) {
        Some(name) if !name.starts_with("--") => name.clone(),
        _ => {
            eprintln!("usage: evaluate serve-submit <experiment> --addr A [run flags]");
            std::process::exit(2);
        }
    };
    let addr = client_addr(args);
    let mut body = JsonValue::object().field("name", name.as_str());
    for (flag, key) in [
        ("--txs", "txs"),
        ("--seed", "seed"),
        ("--cores", "cores"),
        ("--jobs", "jobs"),
        ("--points", "points"),
        ("--point", "point"),
        ("--torn-keep", "torn_keep"),
        ("--battery-bytes", "battery_bytes"),
    ] {
        match try_arg::<u64>(args, flag) {
            Ok(Some(v)) => body = body.field(key, v),
            Ok(None) => {}
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }
    for (flag, key) in [
        ("--bench", "bench"),
        ("--scheme", "scheme"),
        ("--fault", "fault"),
        ("--arrival", "arrival"),
    ] {
        if let Some(v) = arg_string(args, flag) {
            body = body.field(key, v);
        }
    }
    let resp = request_or_die(addr, "POST", "/experiment", Some(&body.build().to_string()));
    match resp.status {
        200 => {
            let parsed = JsonValue::parse(&resp.body).unwrap_or_else(|err| {
                eprintln!("error: daemon sent malformed JSON: {err}");
                std::process::exit(1);
            });
            print!(
                "{}",
                parsed.get("text").and_then(JsonValue::as_str).unwrap_or("")
            );
            if let Some(served) = parsed.get("served") {
                eprintln!("[serve] {name}: served {served}");
            }
            if let Some(out) = arg_string(args, "--report-out") {
                let report = parsed.get("report").cloned().unwrap_or(JsonValue::Null);
                if let Err(err) = std::fs::write(&out, format!("{report}\n")) {
                    eprintln!("error: writing {out}: {err}");
                    std::process::exit(1);
                }
            }
        }
        429 => {
            let retry = resp.header("retry-after").unwrap_or("?");
            eprintln!(
                "error: daemon queue full (Retry-After: {retry}s): {}",
                resp.body
            );
            std::process::exit(1);
        }
        500 => {
            let parsed = JsonValue::parse(&resp.body).ok();
            let origin = parsed
                .as_ref()
                .and_then(|p| p.get("origin"))
                .and_then(JsonValue::as_str)
                .unwrap_or("render")
                .to_string();
            let message = parsed
                .as_ref()
                .and_then(|p| p.get("error"))
                .and_then(JsonValue::as_str)
                .unwrap_or(resp.body.as_str())
                .to_string();
            eprintln!("error: {origin} failure: {message}");
            std::process::exit(if origin == "cell" { 3 } else { 4 });
        }
        status => {
            eprintln!("error: daemon answered {status}: {}", resp.body);
            std::process::exit(2);
        }
    }
}

fn ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn expect_status(resp: &http::Response, want: u16, what: &str) {
    if resp.status != want {
        eprintln!(
            "error: serve-bench {what}: daemon answered {} (wanted {want}): {}",
            resp.status, resp.body
        );
        std::process::exit(1);
    }
}

/// `serve-bench`: self-host a daemon on a scratch store and measure the
/// serve layer — cold and warm full-grid wall time, cached single-cell
/// serve latency (p50/p99 over 200 requests), and a duplicate burst for
/// the singleflight counters. Writes `BENCH_serve.json`.
fn serve_bench(args: &[String]) {
    let txs = arg_usize(args, "--txs", 500);
    let out = arg_string(args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let store_dir =
        arg_string(args, "--store-dir").unwrap_or_else(|| "target/serve-bench-store".to_string());
    // Cold means cold: start from an empty scratch store.
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = Server::start(ServeOptions {
        store_dir: Some(store_dir.into()),
        ..ServeOptions::default()
    })
    .unwrap_or_else(|err| {
        eprintln!("error: starting bench daemon: {err}");
        std::process::exit(1);
    });
    let addr = server.addr();
    eprintln!("[serve-bench] daemon on {addr}");

    let grid = JsonValue::object()
        .field("name", "fig11")
        .field("txs", txs)
        .build()
        .to_string();
    let t = std::time::Instant::now();
    let cold = request_or_die(addr, "POST", "/experiment", Some(&grid));
    let grid_cold_wall_ms = ms_since(t);
    expect_status(&cold, 200, "cold fig11 grid");

    let t = std::time::Instant::now();
    let warm = request_or_die(addr, "POST", "/experiment", Some(&grid));
    let grid_warm_wall_ms = ms_since(t);
    expect_status(&warm, 200, "warm fig11 grid");
    let report_of = |body: &str| {
        JsonValue::parse(body)
            .ok()
            .and_then(|p| p.get("report").map(|r| r.to_string()))
    };
    if report_of(&cold.body) != report_of(&warm.body) {
        eprintln!("error: serve-bench: warm grid report differs from cold");
        std::process::exit(1);
    }

    // Cached single-cell serves: the whole grid is warm now, so every one
    // of these must come from the memory tier.
    let spec = registry::find("fig11").expect("fig11 is registered");
    let params = ExpParams {
        txs,
        ..ExpParams::defaults(&spec)
    };
    let cells = spec.build(&params);
    let cell_requests = 200usize;
    let cell_body = cells[0].to_json().to_string();
    let mut latencies = Vec::with_capacity(cell_requests);
    for _ in 0..cell_requests {
        let t = std::time::Instant::now();
        let resp = request_or_die(addr, "POST", "/cell", Some(&cell_body));
        latencies.push(ms_since(t));
        expect_status(&resp, 200, "cached cell");
    }
    latencies.sort_by(f64::total_cmp);
    let cached_p50_wall_ms = percentile(&latencies, 0.50);
    let cached_p99_wall_ms = percentile(&latencies, 0.99);

    // Duplicate burst: eight concurrent submissions of one cold spec.
    // The singleflight table must collapse them to a single execution
    // (visible as merges + executed=1 deltas in /stats).
    let cold_params = ExpParams {
        seed: 4242,
        ..params
    };
    let dup_body = spec.build(&cold_params)[0].to_json().to_string();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| request_or_die(addr, "POST", "/cell", Some(&dup_body))))
            .collect();
        // The `served` provenance legitimately differs (one submission
        // executes, the rest merge); the cell payload must not.
        let mut cells: Vec<String> = handles
            .into_iter()
            .map(|h| {
                let resp = h.join().expect("burst thread");
                expect_status(&resp, 200, "duplicate burst cell");
                JsonValue::parse(&resp.body)
                    .ok()
                    .and_then(|p| p.get("cell").map(|c| c.to_string()))
                    .unwrap_or_default()
            })
            .collect();
        cells.dedup();
        if cells.len() != 1 || cells[0].is_empty() {
            eprintln!("error: serve-bench: duplicate submissions got different cells");
            std::process::exit(1);
        }
    });

    let stats = request_or_die(addr, "GET", "/stats", None);
    eprintln!("[serve-bench] stats: {}", stats.body);

    let bench = JsonValue::object()
        .field("experiment", "serve")
        .field("txs", txs)
        .field("cell_requests", cell_requests)
        .field("grid_cold_wall_ms", grid_cold_wall_ms)
        .field("grid_warm_wall_ms", grid_warm_wall_ms)
        .field("cached_p50_wall_ms", cached_p50_wall_ms)
        .field("cached_p99_wall_ms", cached_p99_wall_ms)
        .build();
    if let Err(err) = std::fs::write(&out, format!("{bench}\n")) {
        eprintln!("error: writing {out}: {err}");
        std::process::exit(1);
    }
    println!("{bench}");

    let stop = request_or_die(addr, "POST", "/shutdown", Some("{}"));
    expect_status(&stop, 200, "shutdown");
    server.wait();
}
