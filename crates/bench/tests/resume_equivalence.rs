//! Contract tests for checkpointed resimulation.
//!
//! The headline invariant: a crash run resumed from a clean-run checkpoint
//! is **byte-identical** to the same crash plan executed from scratch —
//! same `SimStats` JSON (including the probe cycle breakdown), same oracle
//! verdict, same recovered PM image — for every scheme and every fault
//! model. The same holds for steady-state deltas, whose 2N-run continues
//! from a fork checkpoint of the N-run: both runs, the delta and the event
//! timeline match two from-scratch runs. The [`silo_types::Snapshot`]
//! round-trip tests below pin the building block: restoring a snapshot
//! reproduces the captured state exactly, under randomized operation
//! sequences.

use std::sync::Mutex;

use silo_bench::{
    make_scheme, run_delta_with, run_with_scheme, EventTraceSink, TraceCache, ALL_SCHEMES,
};
use silo_pm::{PagedMedia, PmDevice, PmDeviceConfig};
use silo_sim::{CheckpointPolicy, CrashPlan, Engine, FaultModel, RunOutcome, SimConfig};
use silo_types::{Cycles, PhysAddr, Snapshot, SplitMix64};
use silo_workloads::workload_by_name;

const CORES: usize = 2;
const TXS_PER_CORE: usize = 16;
const SEED: u64 = 11;

/// Dense checkpoints so even a small test run resumes from a real prefix.
fn dense_policy() -> CheckpointPolicy {
    CheckpointPolicy {
        every_events: 8,
        every_cycles: 512,
        max: 64,
    }
}

/// Every word address the trace writes, in sorted order.
fn footprint(trace: &silo_sim::TraceSet) -> Vec<PhysAddr> {
    let mut addrs: Vec<u64> = trace
        .streams()
        .iter()
        .flat_map(|s| s.iter())
        .flat_map(|tx| tx.ops())
        .filter_map(|op| match op {
            silo_sim::Op::Write(a, _) => Some(a.as_u64()),
            _ => None,
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs.into_iter().map(PhysAddr::new).collect()
}

fn assert_identical(scratch: &RunOutcome, resumed: &RunOutcome, fp: &[PhysAddr], what: &str) {
    assert_eq!(
        scratch.stats.to_json().to_string(),
        resumed.stats.to_json().to_string(),
        "{what}: SimStats (incl. probe breakdown) diverged"
    );
    let (s, r) = (
        scratch.crash.as_ref().expect("crash injected"),
        resumed.crash.as_ref().expect("crash injected"),
    );
    assert_eq!(
        s.consistency.violations.len(),
        r.consistency.violations.len(),
        "{what}: oracle verdict diverged"
    );
    assert_eq!(
        s.ambiguous_txs, r.ambiguous_txs,
        "{what}: ambiguity diverged"
    );
    for &a in fp {
        assert_eq!(
            scratch.pm.peek_word(a),
            resumed.pm.peek_word(a),
            "{what}: recovered image diverged at {a:?}"
        );
    }
}

/// Resume-vs-scratch equality across every scheme × every fault model,
/// with probe cycle accounting enabled so the comparison also covers the
/// checkpointed observability state.
#[test]
fn resume_matches_scratch_for_every_scheme_and_fault() {
    let config = SimConfig::table_ii(CORES);
    let w = workload_by_name("Hash").expect("registered workload");
    let trace = TraceCache::global().get_or_build(w.as_ref(), CORES, TXS_PER_CORE, SEED);
    let fp = footprint(&trace);

    for scheme in ALL_SCHEMES {
        let mut s = make_scheme(scheme, &config);
        let mut engine = Engine::new(&config, s.as_mut());
        engine.machine_mut().probe.enable_accounting(CORES);
        let (clean, ckpts) = engine.run_recording(&trace, dense_policy());
        assert!(
            !ckpts.is_empty(),
            "{scheme}: dense policy captured no checkpoints"
        );

        let cycle_total = clean.stats.sim_cycles.as_u64();
        let event_total = clean.pm.events().total();
        let plans = [
            CrashPlan::at_cycle(Cycles::new(cycle_total * 3 / 4)),
            CrashPlan::at_event(event_total * 3 / 4).with_fault(FaultModel::torn_line(64)),
            CrashPlan::at_event(event_total * 3 / 4)
                .with_fault(FaultModel::bounded_battery(64 * 1024)),
        ];
        for plan in plans {
            let cp = ckpts
                .nearest(plan.trigger)
                .unwrap_or_else(|| panic!("{scheme}: no checkpoint before {:?}", plan.trigger));
            let what = format!("{scheme} @ {:?}", plan.trigger);

            let mut s1 = make_scheme(scheme, &config);
            let mut e1 = Engine::new(&config, s1.as_mut());
            e1.machine_mut().probe.enable_accounting(CORES);
            let scratch = e1.run_with_plan(&trace, Some(plan));

            let mut s2 = make_scheme(scheme, &config);
            let mut e2 = Engine::new(&config, s2.as_mut());
            e2.machine_mut().probe.enable_accounting(CORES);
            let resumed = e2.run_resumed(&trace, plan, cp);

            assert_identical(&scratch, &resumed, &fp, &what);
        }
    }
}

/// Any checkpoint whose position precedes the crash point must yield the
/// same outcome as the nearest one — they are all states of the same
/// deterministic prefix.
#[test]
fn every_valid_checkpoint_yields_the_same_outcome() {
    let config = SimConfig::table_ii(CORES);
    let w = workload_by_name("Bank").expect("registered workload");
    let trace = TraceCache::global().get_or_build(w.as_ref(), CORES, TXS_PER_CORE, SEED);
    let fp = footprint(&trace);

    let mut s = make_scheme("Silo", &config);
    let (clean, ckpts) = Engine::new(&config, s.as_mut()).run_recording(&trace, dense_policy());
    let n = clean.pm.events().total() * 3 / 4;
    let plan = CrashPlan::at_event(n).with_fault(FaultModel::bounded_battery(64 * 1024));

    let mut s0 = make_scheme("Silo", &config);
    let scratch = Engine::new(&config, s0.as_mut()).run_with_plan(&trace, Some(plan));

    let mut resumed_any = 0;
    for cp in ckpts.iter().filter(|cp| cp.event_pos() < n) {
        let mut s1 = make_scheme("Silo", &config);
        let resumed = Engine::new(&config, s1.as_mut()).run_resumed(&trace, plan, cp);
        assert_identical(
            &scratch,
            &resumed,
            &fp,
            &format!("Silo event {n} from checkpoint at event {}", cp.event_pos()),
        );
        resumed_any += 1;
    }
    assert!(resumed_any > 0, "no checkpoint preceded event {n}");
}

/// Serializes the tests that run through the process-wide event-trace
/// sink, so one test's timelines never land in another's trace file.
static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Measured transactions per core of the fork tests' N-run.
const DELTA_TXS: usize = 8;

/// The N-run and 2N-run of one steady-state delta, each from scratch on
/// its own generated trace, with cycle accounting on.
fn scratch_pair(scheme: &str, workload: &str, cores: usize) -> (RunOutcome, RunOutcome) {
    let config = SimConfig::table_ii(cores);
    let w = workload_by_name(workload).expect("registered workload");
    let run = |txs| {
        let trace = TraceCache::global().get_or_build(w.as_ref(), cores, txs, SEED);
        let mut s = make_scheme(scheme, &config);
        let mut engine = Engine::new(&config, s.as_mut());
        engine.machine_mut().probe.enable_accounting(cores);
        engine.run(&trace, None)
    };
    (run(DELTA_TXS), run(2 * DELTA_TXS))
}

/// The same pair through the fork: the N-run executes the 2N trace's
/// prefixes and the 2N-run continues from its fork checkpoint.
fn forked_pair(scheme: &str, workload: &str, cores: usize) -> (RunOutcome, RunOutcome) {
    let config = SimConfig::table_ii(cores);
    let w = workload_by_name(workload).expect("registered workload");
    let trace = TraceCache::global().get_or_build(w.as_ref(), cores, 2 * DELTA_TXS, SEED);
    let mut s1 = make_scheme(scheme, &config);
    let mut e1 = Engine::new(&config, s1.as_mut());
    e1.machine_mut().probe.enable_accounting(cores);
    let (short, fork) = e1.run_forking(trace.prefix(DELTA_TXS));
    let mut s2 = make_scheme(scheme, &config);
    let mut e2 = Engine::new(&config, s2.as_mut());
    e2.machine_mut().probe.enable_accounting(cores);
    (short, e2.run_from_checkpoint(&trace, fork))
}

/// The forked N- and 2N-runs equal two from-scratch runs (`SimStats` JSON
/// with the probe cycle breakdown), and the production delta path equals
/// the delta of two plain `run_with_scheme` runs, for every scheme at 1,
/// 2, 4 and 8 cores on two workloads.
#[test]
fn forked_delta_matches_two_scratch_runs() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for workload in ["Hash", "TPCC"] {
        let w = workload_by_name(workload).expect("registered workload");
        for cores in [1, 2, 4, 8] {
            let config = SimConfig::table_ii(cores);
            for scheme in ALL_SCHEMES {
                let what = format!("{scheme} on {workload} at {cores} cores");
                let (short, long) = scratch_pair(scheme, workload, cores);
                let (fshort, flong) = forked_pair(scheme, workload, cores);
                assert!(short.stats.breakdown.is_some(), "{what}: accounting off");
                assert_eq!(
                    short.stats.to_json().to_string(),
                    fshort.stats.to_json().to_string(),
                    "{what}: N-run diverged"
                );
                assert_eq!(
                    long.stats.to_json().to_string(),
                    flong.stats.to_json().to_string(),
                    "{what}: 2N-run diverged"
                );

                let cache = TraceCache::global();
                let plain = |txs| {
                    let mut s = make_scheme(scheme, &config);
                    let trace = cache.get_or_build(w.as_ref(), cores, txs, SEED);
                    run_with_scheme(s.as_mut(), &config, &trace)
                };
                let reference = plain(2 * DELTA_TXS).delta_from(&plain(DELTA_TXS));
                let forked = run_delta_with(
                    &config,
                    || make_scheme(scheme, &config),
                    w.as_ref(),
                    DELTA_TXS,
                    SEED,
                );
                assert_eq!(
                    reference.to_json().to_string(),
                    forked.to_json().to_string(),
                    "{what}: delta diverged"
                );
            }
        }
    }
}

/// With the event timeline on, the forked delta writes the same JSONL as
/// two from-scratch runs: the 2N-run's timeline includes the prefix it
/// took over from the fork, and the N-run is still sunk before it.
#[test]
fn forked_delta_sinks_the_same_timelines_in_run_order() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("silo-fork-timeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sink = EventTraceSink::global();
    for scheme in ["Base", "Silo"] {
        let cores = 2;
        let config = SimConfig::table_ii(cores);
        let w = workload_by_name("Hash").expect("registered workload");
        let traced = |name: &str, run: &dyn Fn()| {
            let path = dir.join(format!("{scheme}-{name}.jsonl"));
            sink.enable(&path).expect("open trace file");
            run();
            sink.disable().expect("close trace file");
            std::fs::read_to_string(&path).expect("read trace file")
        };
        let reference = traced("scratch", &|| {
            for txs in [DELTA_TXS, 2 * DELTA_TXS] {
                let trace = TraceCache::global().get_or_build(w.as_ref(), cores, txs, SEED);
                let mut s = make_scheme(scheme, &config);
                run_with_scheme(s.as_mut(), &config, &trace);
            }
        });
        let forked = traced("fork", &|| {
            run_delta_with(
                &config,
                || make_scheme(scheme, &config),
                w.as_ref(),
                DELTA_TXS,
                SEED,
            );
        });
        let headers: Vec<&str> = reference
            .lines()
            .filter(|l| l.contains("\"run\":"))
            .collect();
        assert_eq!(headers.len(), 2, "{scheme}: expected two run headers");
        assert!(
            reference.lines().count() > 3,
            "{scheme}: the timelines recorded no events"
        );
        assert_eq!(reference, forked, "{scheme}: forked timeline diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Randomized [`Snapshot`] round-trip on the wear-tracked media: capture,
/// observe, mutate arbitrarily, restore — every observable must match the
/// capture-time value.
#[test]
fn paged_media_snapshot_round_trip_randomized() {
    const LINE: u64 = 256;
    const LINES: u64 = 64;
    let mut rng = SplitMix64::new(0x5110_c0de);
    for _trial in 0..8 {
        let mut media = PagedMedia::new();
        let scribble = |media: &mut PagedMedia, rng: &mut SplitMix64| {
            for _ in 0..32 {
                let base = PhysAddr::new((rng.next_u64() % LINES) * LINE);
                let offset = (rng.next_u64() % 31) as usize * 8;
                let len = (8 + (rng.next_u64() % 3) as usize * 8).min(256 - offset);
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                media.write_masked(base, &bytes, offset);
            }
        };
        scribble(&mut media, &mut rng);

        let snap = media.snapshot();
        let image: Vec<Vec<u8>> = (0..LINES)
            .map(|i| media.read(PhysAddr::new(i * LINE), LINE as usize))
            .collect();
        let counters = (
            media.line_writes(),
            media.bits_programmed(),
            media.dcw_suppressed(),
            media.touched_lines(),
            media.touched_pages(),
            media.wear().total_programs(),
            media.wear().max_wear(),
        );

        scribble(&mut media, &mut rng);
        media.restore(&snap);

        for (i, want) in image.iter().enumerate() {
            assert_eq!(
                &media.read(PhysAddr::new(i as u64 * LINE), LINE as usize),
                want,
                "line {i} not restored"
            );
        }
        assert_eq!(
            (
                media.line_writes(),
                media.bits_programmed(),
                media.dcw_suppressed(),
                media.touched_lines(),
                media.touched_pages(),
                media.wear().total_programs(),
                media.wear().max_wear(),
            ),
            counters,
            "media counters not restored"
        );
    }
}

/// Randomized [`Snapshot`] round-trip on the full device: buffer staging,
/// drains, traffic stats, and durability-event counters all restore.
#[test]
fn pm_device_snapshot_round_trip_randomized() {
    let mut rng = SplitMix64::new(0xd1_90_be_ef);
    for _trial in 0..8 {
        let mut dev = PmDevice::new(PmDeviceConfig::default());
        let scribble = |dev: &mut PmDevice, rng: &mut SplitMix64| {
            for _ in 0..48 {
                let addr = PhysAddr::new((rng.next_u64() % 2048) * 8);
                dev.write(addr, &rng.next_u64().to_le_bytes());
                if rng.next_u64().is_multiple_of(13) {
                    dev.flush_all();
                }
            }
        };
        scribble(&mut dev, &mut rng);

        let snap = dev.snapshot();
        let peeks: Vec<(PhysAddr, u64)> = (0..2048)
            .map(|i| {
                let a = PhysAddr::new(i * 8);
                (a, dev.peek_word(a).as_u64())
            })
            .collect();
        let stats = dev.stats();
        let events = dev.events().total();

        scribble(&mut dev, &mut rng);
        dev.restore(&snap);

        for &(a, want) in &peeks {
            assert_eq!(
                dev.peek_word(a).as_u64(),
                want,
                "word at {a:?} not restored"
            );
        }
        assert_eq!(dev.stats(), stats, "traffic stats not restored");
        assert_eq!(dev.events().total(), events, "event counters not restored");
    }
}
