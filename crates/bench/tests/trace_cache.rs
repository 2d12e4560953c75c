//! Integration tests for the shared trace artifact layer: cache identity,
//! report invariance with the cache on/off at any worker count, engine
//! equivalence between owned and Arc-shared streams, and the exactly-once
//! generation guarantee across the fig11 grid.
//!
//! The cache is process-global, so tests that toggle `set_enabled` or
//! assert per-seed generation counts serialize on [`ENABLED_LOCK`] and use
//! seeds unique to this file, keeping them independent of each other and
//! of any other traffic through the global cache.

use std::sync::Mutex;

use silo_bench::{registry, run_experiment, ExpParams, TraceCache};
use silo_sim::{Engine, SimConfig};
use silo_workloads::{workload_by_name, Workload};

/// Serializes tests that flip the global cache switch or count
/// generations, so they never observe each other mid-toggle.
static ENABLED_LOCK: Mutex<()> = Mutex::new(());

/// A cached trace is the same artifact a fresh build produces: identical
/// provenance and identical content hash.
#[test]
fn cached_trace_matches_fresh_build() {
    let seed = 90_001;
    let w = workload_by_name("Hash").expect("workload");
    let fresh = w.build_trace(4, 25, seed);
    let cached = TraceCache::global().get_or_build(&w, 4, 25, seed);
    assert_eq!(fresh.content_hash(), cached.content_hash());
    assert_eq!(fresh.provenance(), cached.provenance());
    // And a second lookup hands back the same Arc, not a rebuild.
    let again = TraceCache::global().get_or_build(&w, 4, 25, seed);
    assert_eq!(cached.content_hash(), again.content_hash());
}

/// Arc-shared streams drive the engine to the exact same statistics as
/// the owned `Vec<Vec<Transaction>>` path did before the refactor.
#[test]
fn arc_shared_streams_reproduce_vec_results() {
    let seed = 90_002;
    let w = workload_by_name("TPCC").expect("workload");
    let config = SimConfig::table_ii(2);
    let owned = w.raw_streams(2, 30, seed);
    let trace = w.build_trace(2, 30, seed);

    for scheme in ["Base", "Silo"] {
        let mut a = silo_bench::make_scheme(scheme, &config);
        let via_vec = Engine::new(&config, a.as_mut()).run(owned.clone(), None);
        let mut b = silo_bench::make_scheme(scheme, &config);
        let via_trace = Engine::new(&config, b.as_mut()).run(&trace, None);
        assert_eq!(
            via_vec.stats.to_json().to_string(),
            via_trace.stats.to_json().to_string(),
            "scheme {scheme}: shared streams diverged from owned streams"
        );
    }
}

/// Runs fig11 (small budget) with the given cache state and worker count,
/// returning the rendered text and the deterministic report body.
fn fig11_run(enabled: bool, jobs: usize, seed: u64) -> (String, String) {
    let spec = registry::find("fig11").expect("fig11 registered");
    let mut params = ExpParams::defaults(&spec);
    params.txs = 40;
    params.seed = seed;
    let was = TraceCache::global().enabled();
    TraceCache::global().set_enabled(enabled);
    let run = run_experiment(&spec, &params, jobs);
    TraceCache::global().set_enabled(was);
    (run.text, run.body.to_string())
}

/// One pass over the fig11 grid in each cache/jobs configuration checks
/// both halves of the contract: the cache is invisible in the output
/// (byte-identical text and report bodies, enabled or disabled, serial or
/// eight workers), and with the cache enabled the grid's 28 unique trace
/// keys (7 benchmarks x 4 core counts; each steady-state delta resolves
/// only its 2N trace and cuts the N-run's streams from it, and the 5
/// schemes share) are each generated exactly once per process — even when
/// the grid runs again across 8 workers.
#[test]
fn fig11_cache_is_invisible_and_generates_each_trace_exactly_once() {
    let _guard = ENABLED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seed = 90_003;
    let reference = fig11_run(false, 1, seed);
    let got = fig11_run(false, 8, seed);
    assert_eq!(reference, got, "report differs (cache off, jobs 8)");

    let got = fig11_run(true, 1, seed);
    assert_eq!(reference, got, "report differs (cache on, jobs 1)");
    // 7 benchmarks x 4 core counts, one 2N trace each (the N-run is its
    // prefix); the 5 schemes all share the same per-benchmark traces.
    let (keys, generations) = TraceCache::global().stats_for_seed(seed);
    assert_eq!(keys, 28, "unexpected unique trace keys for the fig11 grid");
    assert_eq!(generations, 28, "some trace was generated more than once");

    // A second pass over the same grid, fanned out across workers, hits
    // the cache for every cell: the generation count must not move.
    let got = fig11_run(true, 8, seed);
    assert_eq!(reference, got, "report differs (cache on, jobs 8)");
    let (keys_after, generations_after) = TraceCache::global().stats_for_seed(seed);
    assert_eq!(keys_after, 28);
    assert_eq!(
        generations_after, 28,
        "rerunning the grid regenerated cached traces"
    );
}
