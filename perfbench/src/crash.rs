//! The `crash` workload: dense crash scans over every scheme.
//!
//! All 7 schemes run Hash and TPCC at 2 cores. Set-up builds each trace
//! once and records the clean run of every (scheme, benchmark) row with
//! checkpoints. Each operation is then one crash run under one of the three
//! clean fault models — an op-boundary point indexed by cycle, a torn-line
//! or a correctly sized battery point indexed by durability event —
//! resumed from the nearest checkpoint and verified by the oracle, on at
//! most `nproc` workers. Every [`SPEC_EVERY`]-th point also reruns from
//! scratch with the executable spec enabled; its consistency report must
//! equal the resumed one.

use std::sync::Mutex;
use std::time::Instant;

use silo_bench::{make_scheme, ALL_SCHEMES};
use silo_sim::{
    CheckpointPolicy, CheckpointSet, CrashPlan, Engine, FaultModel, RunOutcome, SimConfig, TraceSet,
};
use silo_types::Cycles;
use silo_workloads::workload_by_name;

use crate::stats::{self, Tally};
use crate::{span, Outcome};

/// Simulated cores.
pub const CORES: usize = 2;
/// Measured transactions per core.
pub const TXS_PER_CORE: usize = 200;
/// The scanned benchmarks.
pub const BENCHES: [&str; 2] = ["Hash", "TPCC"];
/// Every this-many resumed points, one from-scratch rerun with the spec.
pub const SPEC_EVERY: u64 = 16;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Checkpoints every 4096 durability events and never thinned. The
/// engine's default policy halves its checkpoints whenever a run outgrows
/// them, so a point's resume cost would jump by 2x depending on where a
/// seed's run length falls between powers of two; a fixed spacing keeps
/// the cost per point independent of the seed.
pub const POLICY: CheckpointPolicy = CheckpointPolicy {
    every_events: 4096,
    every_cycles: u64::MAX,
    max: 1024,
};

/// The three clean fault models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Cycle-indexed crash at an op boundary, perfect ADR drain.
    OpBoundary,
    /// Event-indexed crash keeping a 64 B prefix of the in-flight line.
    TornLine,
    /// Event-indexed crash with a 64 KiB residual-energy budget, enough
    /// for the on-PM buffer plus the crash records.
    Battery,
}

/// The fault models, in scan order.
pub const FAULTS: [Fault; 3] = [Fault::OpBoundary, Fault::TornLine, Fault::Battery];

impl Fault {
    fn plan(self, point: u64) -> CrashPlan {
        match self {
            Fault::OpBoundary => CrashPlan::at_cycle(Cycles::new(point)),
            Fault::TornLine => CrashPlan::at_event(point).with_fault(FaultModel::torn_line(64)),
            Fault::Battery => {
                CrashPlan::at_event(point).with_fault(FaultModel::bounded_battery(64 * 1024))
            }
        }
    }

    /// The length of this fault's crash axis on a clean run.
    fn axis(self, clean: &RunOutcome) -> u64 {
        match self {
            Fault::OpBoundary => clean.stats.sim_cycles.as_u64(),
            _ => clean.pm.events().total(),
        }
    }
}

/// One scanned (scheme, benchmark) row: its clean run and checkpoints.
pub struct Row {
    /// Scheme legend name.
    pub scheme: &'static str,
    /// Index into the trace list.
    pub trace: usize,
    /// The clean reference run.
    pub clean: RunOutcome,
    /// Checkpoints of the clean run.
    pub ckpts: CheckpointSet,
}

/// The scan's inputs, ready to crash.
pub struct Scan {
    /// One trace per benchmark.
    pub traces: Vec<TraceSet>,
    /// One row per scheme × benchmark.
    pub rows: Vec<Row>,
    config: SimConfig,
}

/// Builds the traces and records every row's clean run.
pub fn set_up(seed: u64) -> Scan {
    let config = SimConfig::table_ii(CORES);
    let traces: Vec<TraceSet> = BENCHES
        .iter()
        .map(|b| {
            let w = workload_by_name(b).expect("benchmark exists");
            let _g = span::span("workloads", "Workload::build_trace", 0);
            w.build_trace(CORES, TXS_PER_CORE, seed)
        })
        .collect();
    let mut rows = Vec::new();
    for (t, trace) in traces.iter().enumerate() {
        for scheme in ALL_SCHEMES {
            let mut s = make_scheme(scheme, &config);
            let _g = span::span("sim.engine", "Engine::run_recording", 0);
            let (clean, ckpts) = Engine::new(&config, s.as_mut()).run_recording(trace, POLICY);
            rows.push(Row {
                scheme,
                trace: t,
                clean,
                ckpts,
            });
        }
    }
    Scan {
        traces,
        rows,
        config,
    }
}

/// What one crash point did.
pub struct PointRun {
    /// Host milliseconds of the resumed run.
    pub resume_ms: f64,
    /// The resumed run.
    pub out: RunOutcome,
    /// Durability events resimulated after the checkpoint.
    pub resim_events: u64,
}

impl Scan {
    /// The `(row, fault, point)` of operation `i` under `seed`: rows and
    /// faults round-robin, the point uniform on the fault's axis.
    pub fn point(&self, seed: u64, i: u64) -> (usize, Fault, u64) {
        let cell = (i % (self.rows.len() * FAULTS.len()) as u64) as usize;
        let (row, fault) = (cell / FAULTS.len(), FAULTS[cell % FAULTS.len()]);
        let axis = fault.axis(&self.rows[row].clean).max(2);
        let point = 1 + (crate::unit(seed, i) * (axis - 1) as f64) as u64;
        (row, fault, point)
    }

    /// Crashes `row` at `point` under `fault`, resumed from the nearest
    /// checkpoint (or from scratch when there is none).
    pub fn resumed(&self, row: usize, fault: Fault, point: u64, op: u64) -> PointRun {
        let r = &self.rows[row];
        let plan = fault.plan(point);
        let mut s = make_scheme(r.scheme, &self.config);
        let engine = Engine::new(&self.config, s.as_mut());
        let trace = &self.traces[r.trace];
        let t = Instant::now();
        let (out, from) = match r.ckpts.nearest(plan.trigger) {
            Some(cp) => {
                let _g = span::span("sim.crash", "Engine::run_resumed", op);
                (engine.run_resumed(trace, plan, cp), cp.event_pos())
            }
            None => {
                let _g = span::span("sim.crash", "Engine::run_with_plan", op);
                (engine.run_with_plan(trace, Some(plan)), 0)
            }
        };
        let resume_ms = t.elapsed().as_secs_f64() * 1e3;
        let at_crash = out.crash.as_ref().map_or(0, |c| c.events_at_crash.total());
        PointRun {
            resume_ms,
            out,
            resim_events: at_crash.saturating_sub(from),
        }
    }

    /// Reruns the point from t=0, optionally with the executable spec.
    pub fn scratch(
        &self,
        row: usize,
        fault: Fault,
        point: u64,
        spec: bool,
        op: u64,
    ) -> (f64, RunOutcome) {
        let r = &self.rows[row];
        let mut s = make_scheme(r.scheme, &self.config);
        let mut engine = Engine::new(&self.config, s.as_mut());
        if spec {
            engine.enable_spec();
        }
        let t = Instant::now();
        let out = {
            let name = if spec {
                "Engine::run_with_plan+spec"
            } else {
                "Engine::run_with_plan"
            };
            let _g = span::span("sim.crash", name, op);
            engine.run_with_plan(&self.traces[r.trace], Some(fault.plan(point)))
        };
        (t.elapsed().as_secs_f64() * 1e3, out)
    }

    /// Transactions' worth of simulation in `events` durability events of
    /// `row`: the events scaled by the clean run's transactions per event.
    pub fn txs_in(&self, row: usize, events: u64) -> f64 {
        let clean = &self.rows[row].clean;
        events as f64 * clean.stats.txs_committed as f64 / clean.pm.events().total().max(1) as f64
    }

    /// Describes a point for failure messages.
    pub fn describe(&self, row: usize, fault: Fault, point: u64) -> String {
        let r = &self.rows[row];
        format!("{} {} {fault:?} @{point}", r.scheme, BENCHES[r.trace])
    }
}

/// Checks a resumed crash run: the oracle found the recovered image
/// atomic-durable.
pub fn check_resumed(tally: &mut Tally, run: &PointRun, what: &str) {
    let ok = run
        .out
        .crash
        .as_ref()
        .is_some_and(|c| c.consistency.is_consistent());
    tally.check(ok, || format!("{what}: oracle violation after resume"));
}

/// Checks a from-scratch spec rerun against the resumed run of the same
/// point: no spec violations, and the same consistency report and stats.
pub fn check_scratch(tally: &mut Tally, resumed: &RunOutcome, scratch: &RunOutcome, what: &str) {
    let (Some(a), Some(b)) = (resumed.crash.as_ref(), scratch.crash.as_ref()) else {
        tally.check(false, || format!("{what}: no crash outcome"));
        return;
    };
    let spec_ok = b.spec.as_ref().is_some_and(|s| s.is_consistent());
    let same = a.consistency == b.consistency
        && resumed.stats.to_json().to_string() == scratch.stats.to_json().to_string();
    tally.check(spec_ok && same && b.consistency.is_consistent(), || {
        format!("{what}: spec ok {spec_ok}, resumed == scratch {same}")
    });
}

/// Runs crash points `0, 1, 2, ...` over at most `nproc` workers until
/// `stop(points issued)` says so, handing each crash run to `record(run
/// ms, simulated transactions)`. A resumed run simulates only the events
/// after its checkpoint, a from-scratch rerun every event up to the crash;
/// both count them in transactions' worth ([`Scan::txs_in`]).
pub fn scan(
    input: &Scan,
    seed: u64,
    tally: &mut Tally,
    stop: impl Fn(usize) -> bool + Sync,
    record: impl Fn(f64, f64) + Sync,
) {
    let shared = Mutex::new(std::mem::take(tally));
    crate::closed_loop(usize::MAX, stop, |i| {
        let mut t = Tally::default();
        let (row, fault, point) = input.point(seed, i);
        let what = input.describe(row, fault, point);
        let run = input.resumed(row, fault, point, i);
        record(run.resume_ms, input.txs_in(row, run.resim_events));
        check_resumed(&mut t, &run, &what);
        if i % SPEC_EVERY == SPEC_EVERY - 1 {
            let (ms, out) = input.scratch(row, fault, point, true, i);
            let events = out.crash.as_ref().map_or(0, |c| c.events_at_crash.total());
            record(ms, input.txs_in(row, events));
            check_scratch(&mut t, &run.out, &out, &what);
        }
        shared.lock().expect("no panic holds the lock").merge(t);
        None::<()>
    });
    *tally = shared.into_inner().expect("no panic holds the lock");
}

/// The untraced `crash` run.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(set_up(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let scan_in = built.expect("set up at least once");
    let mut tally = Tally::default();
    let deadline = crate::Deadline::new(seconds);
    let windows = Mutex::new(stats::Windows::covering(deadline.run_s(), crate::WINDOW_S));
    scan(
        &scan_in,
        seed,
        &mut tally,
        |_| deadline.passed(),
        |ms, simulated| {
            let end = deadline.elapsed_s();
            let mut w = windows.lock().expect("no panic holds the lock");
            w.add(end, ms, simulated);
        },
    );
    let windows = windows.into_inner().expect("no panic holds the lock");
    let series = crate::Series {
        ops_per_s: windows.rates(),
        sim_tx_per_s: windows.weight_rates(),
        op_p50_ms: windows.percentiles(50.0),
        op_p90_ms: windows.percentiles(90.0),
    };
    let (metrics, mut notes) = series.metrics(&setups, crate::peak_rss_mb());
    notes.push(format!(
        "{} crash runs over {} rows x {} faults; {} setups",
        windows.len(),
        scan_in.rows.len(),
        FAULTS.len(),
        setups.len()
    ));
    notes.push(format!(
        "fail_ratio {:.4} failed/attempted",
        tally.fail_ratio()
    ));
    Outcome {
        metrics,
        notes,
        tally,
    }
}
