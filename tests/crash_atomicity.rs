//! Atomic durability under crash injection, for every scheme.
//!
//! The oracle checks the recovered PM image for the paper's §II-A
//! property: all-or-nothing per transaction, durable after commit. The
//! banking workload adds a semantic check on top: money is conserved
//! across any crash, because every transfer either fully applies or fully
//! rolls back.
//!
//! Two crash surfaces are swept: the legacy cycle-sampled triggers (power
//! fails at an op boundary once a core's clock passes the cut) and the
//! event-indexed triggers (power fails at the N-th durability event —
//! store, log drain, WPQ admission, line program — which lands *inside*
//! commit protocols instead of between transactions).

use silo::baselines::{
    BaseScheme, EadrSwLogScheme, FwbScheme, LadScheme, MorLogScheme, SwLogScheme,
};
use silo::core::SiloScheme;
use silo::sim::{CheckpointPolicy, CrashPlan, Engine, FaultModel, LoggingScheme, SimConfig};
use silo::types::Cycles;
use silo::workloads::{workload_by_name, BankWorkload, HashWorkload, QueueWorkload, Workload};

fn schemes(config: &SimConfig) -> Vec<Box<dyn LoggingScheme>> {
    vec![
        Box::new(BaseScheme::new(config)),
        Box::new(FwbScheme::new(config)),
        Box::new(MorLogScheme::new(config)),
        Box::new(LadScheme::new(config)),
        Box::new(SwLogScheme::new(config)),
        Box::new(EadrSwLogScheme::new(config)),
        Box::new(SiloScheme::new(config)),
    ]
}

#[test]
fn all_schemes_survive_crash_sweep_on_bank() {
    let cores = 2;
    let workload = BankWorkload {
        accounts: 128,
        initial_balance: 500,
    };
    for crash_at in (100..40_000).step_by(2_341) {
        let config = SimConfig::table_ii(cores);
        for mut scheme in schemes(&config) {
            let name = scheme.name();
            let streams = workload.raw_streams(cores, 120, 11);
            let out =
                Engine::new(&config, scheme.as_mut()).run(streams, Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "[{name}] crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
            // Money conservation: every account balance word as recovered.
            // Accounts written by no committed tx read as their setup value.
            // Only check core 0's region (core 1's uses its own base).
            let total: u64 = (0..128u64)
                .map(|a| out.pm.peek_word(workload.account_addr(0, a)).as_u64())
                .fold(0, |acc, b| acc.wrapping_add(b));
            if crash.committed_txs > 0 {
                assert_eq!(
                    total,
                    128 * 500,
                    "[{name}] money not conserved at {crash_at}"
                );
            }
        }
    }
}

#[test]
fn all_schemes_survive_crash_sweep_on_hash() {
    let cores = 2;
    let workload = HashWorkload {
        buckets: 64,
        setup_inserts: 8,
        ..HashWorkload::default()
    };
    for crash_at in (500..30_000).step_by(3_163) {
        let config = SimConfig::table_ii(cores);
        for mut scheme in schemes(&config) {
            let name = scheme.name();
            let streams = workload.raw_streams(cores, 60, 13);
            let out =
                Engine::new(&config, scheme.as_mut()).run(streams, Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "[{name}] crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
        }
    }
}

#[test]
fn all_schemes_survive_crash_sweep_on_queue() {
    let cores = 1;
    let workload = QueueWorkload { setup_elements: 4 };
    for crash_at in (200..25_000).step_by(1_987) {
        let config = SimConfig::table_ii(cores);
        for mut scheme in schemes(&config) {
            let name = scheme.name();
            let streams = workload.raw_streams(cores, 80, 17);
            let out =
                Engine::new(&config, scheme.as_mut()).run(streams, Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "[{name}] crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
        }
    }
}

/// Event-indexed sweep: for each scheme × workload, measure the clean
/// run's durability-event total, then crash at a handful of evenly spaced
/// event indices. Unlike the cycle sweeps above, these cuts land in the
/// middle of log drains and commit-marker writes.
#[test]
fn all_schemes_survive_event_indexed_crashes_on_btree_tpcc_ycsb() {
    let cores = 2;
    let txs_per_core = 24;
    const POINTS: u64 = 4;
    for bench in ["Btree", "TPCC", "YCSB"] {
        let workload = workload_by_name(bench).expect("benchmark");
        let config = SimConfig::table_ii(cores);
        for clean_scheme in schemes(&config) {
            let name = clean_scheme.name();
            let mut clean_scheme = clean_scheme;
            let clean = Engine::new(&config, clean_scheme.as_mut())
                .run(workload.raw_streams(cores, txs_per_core, 23), None);
            let total = clean.pm.events().total();
            assert!(total > POINTS, "[{name}/{bench}] too few events: {total}");
            for i in 0..POINTS {
                // Evenly spaced interior points: (2i+1)/(2K) of the run.
                let n = (total * (2 * i + 1)) / (2 * POINTS);
                let mut scheme = schemes(&config)
                    .into_iter()
                    .find(|s| s.name() == name)
                    .expect("same scheme");
                let out = Engine::new(&config, scheme.as_mut()).run_with_plan(
                    workload.raw_streams(cores, txs_per_core, 23),
                    Some(CrashPlan::at_event(n)),
                );
                let crash = out.crash.expect("crash injected");
                assert_eq!(crash.events_at_crash.total(), n, "[{name}/{bench}]");
                assert!(
                    crash.consistency.is_consistent(),
                    "[{name}/{bench}] crash at event {n}: {:?}",
                    crash.consistency.violations
                );
            }
        }
    }
}

/// Double crash: power fails again after the first recovery write. The
/// second recovery pass must be idempotent — same consistent image.
#[test]
fn silo_and_lad_survive_a_crash_during_recovery() {
    let workload = BankWorkload {
        accounts: 64,
        initial_balance: 200,
    };
    let config = SimConfig::table_ii(1);
    type SchemeMaker<'a> = Box<dyn Fn() -> Box<dyn LoggingScheme> + 'a>;
    let makers: Vec<(&str, SchemeMaker)> = vec![
        ("Silo", Box::new(|| Box::new(SiloScheme::new(&config)))),
        ("LAD", Box::new(|| Box::new(LadScheme::new(&config)))),
    ];
    for (name, make) in makers {
        let mut saw_double_crash = false;
        for crash_at in (1_000..20_000).step_by(3_777) {
            for recovery_steps in [1, 2, 5] {
                let mut scheme = make();
                let plan =
                    CrashPlan::at_cycle(Cycles::new(crash_at)).with_recovery_crash(recovery_steps);
                let out = Engine::new(&config, scheme.as_mut())
                    .run_with_plan(workload.raw_streams(1, 80, 29), Some(plan));
                let crash = out.crash.expect("crash injected");
                saw_double_crash |= crash.double_crash;
                assert!(
                    crash.consistency.is_consistent(),
                    "[{name}] crash at {crash_at}, re-crash after {recovery_steps} \
                     recovery writes: {:?}",
                    crash.consistency.violations
                );
            }
        }
        assert!(
            saw_double_crash,
            "[{name}] sweep never hit a mid-recovery re-crash"
        );
    }
}

/// Fault models: torn line programs and a generously sized battery must
/// both recover consistently (the ADR copy of a torn line survives, and
/// the budget covers the full staged working set).
#[test]
fn silo_survives_torn_lines_and_bounded_battery_crashes() {
    let workload = HashWorkload {
        buckets: 64,
        setup_inserts: 8,
        ..HashWorkload::default()
    };
    let config = SimConfig::table_ii(2);
    for fault in [
        FaultModel::torn_line(64),
        FaultModel::bounded_battery(64 * 1024),
        FaultModel::torn_line(16).with_battery_budget(64 * 1024),
    ] {
        for n in [40u64, 400, 4_000] {
            let mut scheme = SiloScheme::new(&config);
            let out = Engine::new(&config, &mut scheme).run_with_plan(
                workload.raw_streams(2, 40, 31),
                Some(CrashPlan::at_event(n).with_fault(fault)),
            );
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "crash at event {n} under {fault:?}: {:?}",
                crash.consistency.violations
            );
        }
    }
}

/// Regression: the image the oracle certified is the image the run
/// returns, and crash-run traffic counters freeze at power loss — the
/// post-crash drain and recovery traffic must not leak into them.
#[test]
fn crash_outcome_image_and_stats_are_the_verified_snapshot() {
    let workload = BankWorkload {
        accounts: 64,
        initial_balance: 100,
    };
    let config = SimConfig::table_ii(1);
    let mut scheme = SiloScheme::new(&config);
    let out = Engine::new(&config, &mut scheme)
        .run(workload.raw_streams(1, 60, 37), Some(Cycles::new(9_000)));
    let crash = out.crash.expect("crash injected");
    assert!(crash.consistency.is_consistent());
    // The returned device accumulated the crash-sequence traffic (drain,
    // recovery); the run's stats stopped counting at the power cut.
    let final_stats = out.pm.stats();
    assert!(
        final_stats.accepted_writes > out.stats.pm.accepted_writes,
        "recovery traffic should be visible on the device ({} vs {}), \
         never in the frozen run counters",
        final_stats.accepted_writes,
        out.stats.pm.accepted_writes
    );
    // And a clean run of the same workload keeps the two in lockstep.
    let mut scheme = SiloScheme::new(&config);
    let clean = Engine::new(&config, &mut scheme).run(workload.raw_streams(1, 60, 37), None);
    assert_eq!(clean.stats.pm, clean.pm.stats());
}

/// A violating crash resumed from a checkpoint reports exactly what the
/// same crash from scratch reports, down to each violation's word, legal
/// values and event index: checkpoints carry the oracle. A 64 B battery
/// is too small for Silo's crash records, so the point violates. The
/// crash falls late, after commits that precede the checkpoint, so the
/// violations depend on oracle state the checkpoint carried over.
#[test]
fn resumed_crash_localizes_violations_like_a_scratch_run() {
    let config = SimConfig::table_ii(2);
    let trace = workload_by_name("Hash")
        .expect("Hash workload")
        .build_trace(2, 16, 11);
    let mut scheme = SiloScheme::new(&config);
    let (clean, ckpts) =
        Engine::new(&config, &mut scheme).run_recording(&trace, CheckpointPolicy::default());
    let plan = CrashPlan::at_event(clean.pm.events().total() * 15 / 16)
        .with_fault(FaultModel::bounded_battery(64));
    let cp = ckpts
        .nearest(plan.trigger)
        .expect("checkpoint before the crash");
    assert!(cp.event_pos() > 0, "resume from a real prefix");

    let mut scheme = SiloScheme::new(&config);
    let scratch = Engine::new(&config, &mut scheme).run_with_plan(&trace, Some(plan));
    let mut scheme = SiloScheme::new(&config);
    let resumed = Engine::new(&config, &mut scheme).run_resumed(&trace, plan, cp);
    let scratch = scratch.crash.expect("crash injected").consistency;
    let resumed = resumed.crash.expect("crash injected").consistency;
    let first = scratch.first_offender().expect("64 B battery breaks Silo");
    assert!(first.event > 0 && !first.legal.contains(&first.actual));
    assert!(
        scratch.violations.iter().any(|v| v.event < cp.event_pos()),
        "some violating word was last committed before the checkpoint"
    );
    assert_eq!(scratch, resumed);
}
