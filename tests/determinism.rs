//! Reproducibility: identical seeds produce bit-identical simulations for
//! every scheme, and different seeds genuinely change the workload.

use silo::baselines::{BaseScheme, FwbScheme, LadScheme, MorLogScheme};
use silo::core::SiloScheme;
use silo::sim::{Engine, LoggingScheme, SimConfig, SimStats};
use silo::workloads::{workload_by_name, Workload};

fn run(scheme_idx: usize, seed: u64) -> SimStats {
    let config = SimConfig::table_ii(4);
    let mut scheme: Box<dyn LoggingScheme> = match scheme_idx {
        0 => Box::new(BaseScheme::new(&config)),
        1 => Box::new(FwbScheme::new(&config)),
        2 => Box::new(MorLogScheme::new(&config)),
        3 => Box::new(LadScheme::new(&config)),
        _ => Box::new(SiloScheme::new(&config)),
    };
    let w = workload_by_name("TPCC").expect("tpcc");
    let streams = w.raw_streams(4, 60, seed);
    Engine::new(&config, scheme.as_mut())
        .run(streams, None)
        .stats
}

#[test]
fn same_seed_same_everything() {
    for scheme_idx in 0..5 {
        let a = run(scheme_idx, 99);
        let b = run(scheme_idx, 99);
        assert_eq!(a.sim_cycles, b.sim_cycles, "scheme {scheme_idx}");
        assert_eq!(a.txs_committed, b.txs_committed, "scheme {scheme_idx}");
        assert_eq!(a.pm, b.pm, "scheme {scheme_idx}");
        assert_eq!(a.mc, b.mc, "scheme {scheme_idx}");
        assert_eq!(a.cache, b.cache, "scheme {scheme_idx}");
        assert_eq!(a.scheme_stats, b.scheme_stats, "scheme {scheme_idx}");
    }
}

#[test]
fn different_seed_different_execution() {
    let a = run(4, 1);
    let b = run(4, 2);
    assert_eq!(a.txs_committed, b.txs_committed, "same workload size");
    assert_ne!(
        (a.sim_cycles, a.pm.accepted_bytes),
        (b.sim_cycles, b.pm.accepted_bytes),
        "different seeds must explore different address streams"
    );
}

#[test]
fn crash_runs_are_deterministic_too() {
    use silo::types::Cycles;
    let config = SimConfig::table_ii(2);
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let mut scheme = SiloScheme::new(&config);
            let w = workload_by_name("Btree").expect("btree");
            let streams = w.raw_streams(2, 50, 5);
            let out = Engine::new(&config, &mut scheme).run(streams, Some(Cycles::new(9_999)));
            let crash = out.crash.expect("crash injected");
            (
                crash.committed_txs,
                crash.inflight_txs,
                crash.recovery,
                out.stats.pm,
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn forked_delta_runs_match_scratch_runs() {
    // A steady-state delta's 2N-run continues from the N-run's fork
    // checkpoint; both runs must equal their from-scratch counterparts.
    let config = SimConfig::table_ii(2);
    let w = workload_by_name("Hash").expect("hash");
    let long = w.build_trace(2, 20, 3);
    let scratch = |txs: usize| {
        let mut scheme = SiloScheme::new(&config);
        Engine::new(&config, &mut scheme)
            .run(w.build_trace(2, txs, 3), None)
            .stats
    };
    let mut s1 = SiloScheme::new(&config);
    let (short, fork) = Engine::new(&config, &mut s1).run_forking(long.prefix(10));
    let mut s2 = SiloScheme::new(&config);
    let forked_long = Engine::new(&config, &mut s2).run_from_checkpoint(&long, fork);
    assert_eq!(
        short.stats.to_json().to_string(),
        scratch(10).to_json().to_string()
    );
    assert_eq!(
        forked_long.stats.to_json().to_string(),
        scratch(20).to_json().to_string()
    );
}

#[test]
fn feeding_the_oracle_leaves_clean_run_stats_unchanged() {
    // A checkpoint-recording run feeds the oracle, and only such runs
    // keep each transaction's write set; a plain run keeps neither. The
    // simulated machine must not notice: for every scheme, the clean-run
    // statistics of both runs are identical.
    use silo::baselines::{EadrSwLogScheme, SwLogScheme};
    use silo::sim::CheckpointPolicy;
    let config = SimConfig::table_ii(2);
    let trace = workload_by_name("TPCC")
        .expect("tpcc")
        .build_trace(2, 40, 11);
    type MakeScheme = fn(&SimConfig) -> Box<dyn LoggingScheme>;
    let schemes: [MakeScheme; 7] = [
        |c| Box::new(BaseScheme::new(c)),
        |c| Box::new(FwbScheme::new(c)),
        |c| Box::new(MorLogScheme::new(c)),
        |c| Box::new(LadScheme::new(c)),
        |c| Box::new(SwLogScheme::new(c)),
        |c| Box::new(EadrSwLogScheme::new(c)),
        |c| Box::new(SiloScheme::new(c)),
    ];
    for make in schemes {
        let mut plain = make(&config);
        let name = plain.name();
        let clean = Engine::new(&config, plain.as_mut()).run(&trace, None);
        let mut recorded = make(&config);
        let (fed, cps) = Engine::new(&config, recorded.as_mut())
            .run_recording(&trace, CheckpointPolicy::every(64));
        assert!(!cps.is_empty(), "{name}: the recording run fed the oracle");
        assert_eq!(
            clean.stats.to_json().to_string(),
            fed.stats.to_json().to_string(),
            "{name}: clean-run stats differ with the oracle fed"
        );
    }
}
