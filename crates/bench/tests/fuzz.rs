//! End-to-end tests of the coverage-guided crash search and the oracle's
//! per-word localization: the oracle must hold across the clean scheme
//! matrix, localize an injected battery violation to the exact word, and
//! the CLI's corpus entries and printed repro commands must replay
//! bit-for-bit.

use std::path::PathBuf;
use std::process::Command;

use silo_bench::{make_scheme, TraceCache, ALL_SCHEMES};
use silo_sim::{ConsistencyReport, CrashPlan, Engine, FaultModel, SimConfig};
use silo_types::JsonValue;
use silo_workloads::workload_by_name;

fn evaluate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_evaluate"))
}

/// A per-test scratch directory under the target dir (removed on entry so
/// reruns start clean; left behind on failure for inspection).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs one crash plan and returns the oracle's report.
fn crash_report(
    scheme: &str,
    config: &SimConfig,
    streams: &silo_sim::TraceSet,
    plan: CrashPlan,
) -> ConsistencyReport {
    let mut s = make_scheme(scheme, config);
    let out = Engine::new(config, s.as_mut()).run_with_plan(streams, Some(plan));
    out.crash.expect("crash injected").consistency
}

/// On every scheme of the clean matrix, under every event-indexed fault
/// model, the oracle must check words and find the image consistent
/// (these schemes are correct).
#[test]
fn oracle_is_consistent_across_the_clean_matrix() {
    let config = SimConfig::table_ii(2);
    let w = workload_by_name("Hash").expect("Hash workload");
    let streams = TraceCache::global().get_or_build(&w, 2, 8, 42);
    for scheme in ALL_SCHEMES {
        let mut s = make_scheme(scheme, &config);
        let clean = Engine::new(&config, s.as_mut()).run(&streams, None);
        let total = clean.pm.events().total();
        assert!(total > 2, "{scheme}: too few durability events to crash");
        for fault in [
            FaultModel::perfect_adr(),
            FaultModel::torn_line(64),
            FaultModel::bounded_battery(64 * 1024),
        ] {
            for event in [total / 4, total / 2, (3 * total) / 4] {
                let plan = CrashPlan::at_event(event.max(1)).with_fault(fault);
                let report = crash_report(scheme, &config, &streams, plan);
                assert!(
                    report.is_consistent(),
                    "{scheme} @ event {event}: clean scheme violated: {:?}",
                    report.violations
                );
                assert!(
                    report.words_checked > 0,
                    "{scheme}: oracle checked no words"
                );
            }
        }
    }
}

/// An undersized battery on Silo must violate, and the oracle must
/// localize the failure to its lowest offending word, with the legal value
/// set excluding the recovered value and an event index attached.
#[test]
fn battery_violation_is_localized_to_the_exact_word() {
    let config = SimConfig::table_ii(2);
    let w = workload_by_name("Hash").expect("Hash workload");
    let streams = TraceCache::global().get_or_build(&w, 2, 8, 42);
    let mut s = make_scheme("Silo", &config);
    let clean = Engine::new(&config, s.as_mut()).run(&streams, None);
    let total = clean.pm.events().total();
    let plan = CrashPlan::at_event(total / 8).with_fault(FaultModel::bounded_battery(64));
    let report = crash_report("Silo", &config, &streams, plan);
    assert!(
        !report.is_consistent(),
        "64 B battery must break Silo recovery"
    );
    let first = report.first_offender().expect("at least one violation");
    // The first offender is the lowest flagged address...
    for v in &report.violations {
        assert!(
            first.addr <= v.addr,
            "first_offender is not the lowest word"
        );
    }
    // ...and carries the evidence: an illegal value plus an event index.
    assert!(
        !first.legal.contains(&first.actual),
        "violation lists the recovered value as legal"
    );
    assert!(first.event > 0, "violation has no event index");
}

/// A corpus entry written by one search replays bit-for-bit: feeding its
/// recorded candidate back through the CLI as an exact `--crash-event`
/// run must reproduce the entry's coverage-signature digest.
#[test]
fn corpus_entry_replays_to_its_recorded_signature() {
    let dir = scratch("fuzz-corpus-replay");
    let corpus = dir.join("corpus");
    let out = evaluate()
        .args(["fuzz", "--txs", "16", "--seed", "42", "--bench", "Hash"])
        .args(["--scheme", "Silo", "--execs", "8", "--no-result-store"])
        .arg("--corpus")
        .arg(&corpus)
        .arg("--json-dir")
        .arg(dir.join("search"))
        .output()
        .expect("run evaluate fuzz");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let cell_dir = corpus.join("Hash").join("Silo");
    let mut entries: Vec<_> = std::fs::read_dir(&cell_dir)
        .expect("corpus cell dir exists")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .map(|e| e.path())
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "search persisted no corpus entries");
    let entry = JsonValue::parse(&std::fs::read_to_string(&entries[0]).expect("read entry"))
        .expect("entry is valid JSON");
    let fault = entry
        .get("fault")
        .and_then(JsonValue::as_str)
        .expect("fault");
    let arg = entry.get("arg").and_then(JsonValue::as_u64).expect("arg");
    let event = entry
        .get("event")
        .and_then(JsonValue::as_u64)
        .expect("event");
    let sig = entry.get("sig").and_then(JsonValue::as_str).expect("sig");

    let mut replay = evaluate();
    replay
        .args(["fuzz", "--txs", "16", "--seed", "42", "--bench", "Hash"])
        .args([
            "--scheme",
            "Silo",
            "--execs",
            "1",
            "--no-corpus",
            "--no-result-store",
        ])
        .args(["--fault", fault])
        .args(["--crash-event", &event.to_string()]);
    match fault {
        "battery" => {
            replay.args(["--battery-bytes", &arg.to_string()]);
        }
        "torn-line" => {
            replay.args(["--torn-keep", &arg.to_string()]);
        }
        _ => {}
    }
    if let Some(rc) = entry.get("rc").and_then(JsonValue::as_u64) {
        replay.args(["--recovery-crash", &rc.to_string()]);
    }
    let replay_out = replay
        .arg("--json-dir")
        .arg(dir.join("replay"))
        .output()
        .expect("run replay");
    assert!(
        replay_out.status.success(),
        "{}",
        String::from_utf8_lossy(&replay_out.stderr)
    );
    let report =
        JsonValue::parse(&std::fs::read_to_string(dir.join("replay").join("fuzz.json")).unwrap())
            .expect("replay report parses");
    let rows = report
        .get("derived")
        .expect("derived summary")
        .get("rows")
        .and_then(JsonValue::as_array)
        .expect("rows");
    let replay_sig = rows[0]
        .get("signature")
        .and_then(JsonValue::as_str)
        .expect("signature field");
    assert_eq!(
        replay_sig, sig,
        "replayed candidate produced a different coverage signature"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The printed `minimal repro:` command — including the arrival-process
/// ident for open-system runs — must reproduce the violation and the
/// first-offending-word line verbatim when fed back through the CLI.
#[test]
fn emitted_repro_round_trips_through_the_cli() {
    let dir = scratch("fuzz-repro-roundtrip");
    let out = evaluate()
        .args(["fuzz", "--txs", "16", "--seed", "42", "--bench", "Hash"])
        .args([
            "--scheme",
            "Silo",
            "--fault",
            "battery",
            "--battery-bytes",
            "64",
        ])
        .args(["--execs", "6", "--arrival", "poisson2000"])
        .args(["--no-corpus", "--no-result-store"])
        .arg("--json-dir")
        .arg(dir.join("search"))
        .output()
        .expect("run evaluate fuzz");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("total: 0 violations"),
        "undersized battery found nothing:\n{stdout}"
    );
    let word_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("first offending word:"))
        .expect("violation names its first offending word")
        .trim()
        .to_string();
    let repro = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("minimal repro: evaluate "))
        .expect("violation prints a repro command");
    assert!(
        repro.contains("--arrival poisson2000"),
        "repro dropped the arrival ident: {repro}"
    );

    let mut args: Vec<&str> = repro.split_whitespace().collect();
    args.extend(["--no-result-store"]);
    let replay_out = evaluate()
        .args(&args)
        .arg("--json-dir")
        .arg(dir.join("replay"))
        .output()
        .expect("run repro");
    assert!(
        replay_out.status.success(),
        "{}",
        String::from_utf8_lossy(&replay_out.stderr)
    );
    let replay_stdout = String::from_utf8_lossy(&replay_out.stdout);
    assert!(
        replay_stdout.contains("total: 1 violations across 1 executions"),
        "repro did not reproduce exactly one violation:\n{replay_stdout}"
    );
    assert!(
        replay_stdout.contains(&word_line),
        "repro localized a different word:\nwant {word_line}\ngot:\n{replay_stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
