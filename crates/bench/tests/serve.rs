//! End-to-end tests of the serve daemon: singleflight exactness,
//! structured rejections, graceful drain, detached jobs, and
//! byte-identity between daemon responses and the CLI.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;

use silo_bench::http::{http_request, Response};
use silo_bench::{registry, ExpParams, ServeOptions, Server};
use silo_types::JsonValue;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silo-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(store: &Path, workers: usize, queue_cap: usize) -> Server {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap,
        lru_cap: 4096,
        store_dir: Some(store.to_path_buf()),
    })
    .expect("daemon starts")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    http_request(addr, "POST", path, Some(body)).expect("request succeeds")
}

fn get(addr: SocketAddr, path: &str) -> Response {
    http_request(addr, "GET", path, None).expect("request succeeds")
}

fn parse(resp: &Response) -> JsonValue {
    JsonValue::parse(&resp.body)
        .unwrap_or_else(|err| panic!("malformed response body {:?}: {err}", resp.body))
}

fn num(v: &JsonValue, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {key} in {v}"));
    }
    cur.as_u64().unwrap_or_else(|| panic!("{path:?} not a u64"))
}

/// One cheap fig11 cell spec as a wire body.
fn fig11_cell_body(txs: usize, seed: u64) -> String {
    let spec = registry::find("fig11").expect("registered");
    let params = ExpParams {
        txs,
        seed,
        ..ExpParams::defaults(&spec)
    };
    spec.build(&params)[0].to_json().to_string()
}

#[test]
fn eight_identical_submissions_execute_exactly_once() {
    let store = scratch("singleflight");
    let server = start(&store, 4, 64);
    let addr = server.addr();
    let body = fig11_cell_body(24, 977);

    let cells: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| post(addr, "/cell", &body)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let resp = h.join().expect("submitter thread");
                assert_eq!(resp.status, 200, "{}", resp.body);
                parse(&resp).get("cell").expect("cell payload").to_string()
            })
            .collect()
    });
    for cell in &cells[1..] {
        assert_eq!(cell, &cells[0], "every waiter gets the one outcome");
    }

    let stats = parse(&get(addr, "/stats"));
    assert_eq!(
        num(&stats, &["served", "executed"]),
        1,
        "exactly one execution: {stats}"
    );
    assert_eq!(
        num(&stats, &["store", "misses"]),
        1,
        "exactly one store miss: {stats}"
    );

    // Exactly-once store write: one entry file under the fingerprint dir.
    let entries: usize = std::fs::read_dir(&store)
        .expect("store dir exists")
        .map(|d| {
            std::fs::read_dir(d.expect("dir").path())
                .expect("fp dir")
                .count()
        })
        .sum();
    assert_eq!(entries, 1, "one persisted entry");

    post(addr, "/shutdown", "{}");
    server.wait();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn bad_requests_are_structured_400s_and_consume_no_worker() {
    let store = scratch("badreq");
    let server = start(&store, 2, 8);
    let addr = server.addr();

    let cases: [(&str, &str, &str); 7] = [
        ("/cell", "this is not json", "not JSON"),
        (
            "/experiment",
            r#"{"name":"no_such_exp"}"#,
            "unknown experiment",
        ),
        (
            "/experiment",
            r#"{"name":"fig11","scheme":"Nope"}"#,
            "unknown scheme",
        ),
        (
            "/experiment",
            r#"{"name":"fig11","warp":9}"#,
            "unknown field",
        ),
        ("/experiment", r#"{"name":"fuzz"}"#, "not memoizable"),
        (
            "/cell",
            r#"{"seed":1,"work":{"kind":"teleport"}}"#,
            "unknown work kind",
        ),
        (
            "/cell",
            r#"{"seed":1,"work":{"kind":"delta","run":{"scheme":"Silo","workload":{"name":"Hash","arrival":"poisson2000"},"cores":1,"txs_per_core":4}}}"#,
            "steady-state deltas need a closed-loop trace",
        ),
    ];
    for (path, body, needle) in cases {
        let resp = post(addr, path, body);
        assert_eq!(resp.status, 400, "{path} {body} -> {}", resp.body);
        let error = parse(&resp)
            .get("error")
            .and_then(|e| e.as_str().map(str::to_string))
            .expect("structured error field");
        assert!(error.contains(needle), "{error:?} lacks {needle:?}");
    }

    // The unknown-experiment message lists what *is* known.
    let resp = post(addr, "/experiment", r#"{"name":"no_such_exp"}"#);
    assert!(resp.body.contains("fig11"), "{}", resp.body);

    // Routing errors are structured too.
    assert_eq!(get(addr, "/no-such-endpoint").status, 404);
    assert_eq!(get(addr, "/cell").status, 405);

    // None of the rejections reached the execution core.
    let stats = parse(&get(addr, "/stats"));
    assert_eq!(num(&stats, &["served", "executed"]), 0, "{stats}");
    assert_eq!(num(&stats, &["queue_depth"]), 0, "{stats}");
    assert_eq!(num(&stats, &["store", "misses"]), 0, "{stats}");

    post(addr, "/shutdown", "{}");
    server.wait();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn tiny_queue_rejects_whole_experiments_with_429() {
    let store = scratch("backpressure");
    let server = start(&store, 1, 1);
    let addr = server.addr();

    // A full fig11 grid needs far more than one queue slot, and admission
    // is all-or-nothing: 429, Retry-After, and nothing enqueued.
    let resp = post(addr, "/experiment", r#"{"name":"fig11","txs":24}"#);
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(resp.header("retry-after").is_some(), "Retry-After present");
    let stats = parse(&get(addr, "/stats"));
    assert_eq!(
        num(&stats, &["queue_depth"]),
        0,
        "nothing admitted: {stats}"
    );
    assert_eq!(num(&stats, &["rejected"]), 1, "{stats}");

    // A single cell still fits and runs.
    let resp = post(addr, "/cell", &fig11_cell_body(24, 978));
    assert_eq!(resp.status, 200, "{}", resp.body);

    post(addr, "/shutdown", "{}");
    server.wait();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn shutdown_drains_inflight_cells() {
    let store = scratch("drain");
    let server = start(&store, 1, 16);
    let addr = server.addr();

    // Three distinct cold cells through a single worker: at least two sit
    // queued when shutdown lands, and all three must still answer 200.
    let bodies: Vec<String> = (0..3).map(|i| fig11_cell_body(24, 3000 + i)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| scope.spawn(move || post(addr, "/cell", body)))
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let stop = post(addr, "/shutdown", "{}");
        assert_eq!(stop.status, 200, "{}", stop.body);
        assert_eq!(
            parse(&stop).get("state").and_then(JsonValue::as_str),
            Some("draining")
        );
        for h in handles {
            let resp = h.join().expect("submitter thread");
            assert_eq!(resp.status, 200, "drained cell answers: {}", resp.body);
            assert!(parse(&resp).get("cell").is_some(), "{}", resp.body);
        }
    });
    server.wait();

    // The daemon is gone: new connections fail outright (the listener is
    // dropped) or are refused with 503 by the exiting accept loop.
    if let Ok(resp) = http_request(addr, "GET", "/stats", None) {
        assert_eq!(resp.status, 503, "{}", resp.body);
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn detached_jobs_report_progress_and_results() {
    let store = scratch("jobs");
    let server = start(&store, 4, 256);
    let addr = server.addr();

    let resp = post(
        addr,
        "/experiment",
        r#"{"name":"profile","txs":60,"bench":"Hash","wait":false}"#,
    );
    assert_eq!(resp.status, 202, "{}", resp.body);
    let accepted = parse(&resp);
    let id = num(&accepted, &["job"]);
    let cells = num(&accepted, &["cells"]);
    assert!(cells > 0);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let final_progress = loop {
        let progress = parse(&get(addr, &format!("/progress/{id}")));
        if progress.get("complete") == Some(&JsonValue::Bool(true)) {
            break progress;
        }
        let states: Vec<&str> = progress
            .get("cells")
            .and_then(JsonValue::as_array)
            .expect("cells array")
            .iter()
            .filter_map(|c| c.get("state").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(states.len() as u64, cells, "every cell has a state");
        assert!(
            states
                .iter()
                .all(|s| ["queued", "running", "done"].contains(s)),
            "{states:?}"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "job never completed: {progress}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    assert_eq!(num(&final_progress, &["done"]), cells);
    let done_cells = final_progress
        .get("cells")
        .and_then(JsonValue::as_array)
        .expect("cells");
    for cell in done_cells {
        assert_eq!(cell.get("state").and_then(JsonValue::as_str), Some("done"));
        assert!(
            cell.get("sim_cycles").and_then(JsonValue::as_u64) > Some(0),
            "probe counters surface in progress: {cell}"
        );
        assert!(cell.get("served").is_some(), "{cell}");
    }

    let result = get(addr, &format!("/result/{id}"));
    assert_eq!(result.status, 200, "{}", result.body);
    let result = parse(&result);
    assert!(
        !result
            .get("text")
            .and_then(JsonValue::as_str)
            .expect("text")
            .is_empty(),
        "rendered text present"
    );
    assert!(result.get("report").is_some());

    assert_eq!(get(addr, "/result/99999").status, 404);
    assert_eq!(get(addr, "/progress/not-a-number").status, 400);

    post(addr, "/shutdown", "{}");
    server.wait();
    let _ = std::fs::remove_dir_all(&store);
}

/// The committed acceptance check: a daemon answer for a warm fig11 grid
/// must be byte-identical (envelope-stripped) to what the CLI computes
/// over the same result store.
#[test]
fn daemon_fig11_matches_cli_bytes() {
    let store = scratch("parity");
    let reports = scratch("parity-reports");

    let out = Command::new(env!("CARGO_BIN_EXE_evaluate"))
        .args(["fig11", "--txs", "24", "--jobs", "2", "--json-dir"])
        .arg(&reports)
        .env("SILO_RESULT_STORE", &store)
        .output()
        .expect("run evaluate");
    assert!(out.status.success(), "CLI run failed");
    let cli_text = String::from_utf8(out.stdout).expect("UTF-8 text");
    let cli_report = std::fs::read_to_string(reports.join("fig11.json")).expect("report");
    let stripped_cli = {
        // Drop the host-dependent envelope the CLI appends to the body.
        let JsonValue::Obj(fields) = JsonValue::parse(&cli_report).expect("well-formed") else {
            panic!("report is not an object");
        };
        let body: Vec<(String, JsonValue)> = fields
            .into_iter()
            .filter(|(k, _)| k != "jobs" && k != "wall_ms")
            .collect();
        format!("{}\n", JsonValue::Obj(body))
    };

    let server = start(&store, 4, 256);
    let addr = server.addr();
    let resp = post(addr, "/experiment", r#"{"name":"fig11","txs":24}"#);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let answer = parse(&resp);
    assert_eq!(
        answer.get("text").and_then(JsonValue::as_str),
        Some(cli_text.as_str()),
        "daemon text == CLI stdout"
    );
    let daemon_report = format!("{}\n", answer.get("report").expect("report field"));
    assert_eq!(daemon_report, stripped_cli, "daemon report == CLI body");

    // Same store, same specs: the grid the CLI just computed serves warm.
    let stats = parse(&get(addr, "/stats"));
    assert_eq!(num(&stats, &["served", "executed"]), 0, "{stats}");

    post(addr, "/shutdown", "{}");
    server.wait();
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&reports);
}
