//! The traced run: host time per layer, measured from outside.
//!
//! The inner layers are called by the engine, not by the benchmark, so
//! this run replays their real inputs through each layer alone: the ops of
//! the `grid` traces go to the cache hierarchy, the L3 writebacks and
//! stores that replay produces go to the memory controller and the PM
//! device, and each transaction's write set goes to the log buffer. The
//! program's own `SimStats` (of Silo runs on the same traces) give the
//! counts beside the host times. Scheme hooks are `Engine::run` with the
//! scheme minus `Engine::run` with `NullScheme` on the same trace. The
//! crash path, result store, codec, daemon and report are timed around the
//! benchmark's own calls. Every timing is a span (see [`crate::span`]).
//!
//! Every layer is timed again on a held-out seed (its own traces, crash
//! scan and daemon pool), and the run reports how well the per-layer cost
//! ranking agrees between the two seeds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use silo_bench::{make_scheme, CellSpec, ResultStore, Served, ALL_SCHEMES, FIG11_BENCHMARKS};
use silo_cache::{CacheHierarchy, HierarchyConfig};
use silo_core::{LogBuffer, LogEntry};
use silo_memctrl::{MemCtrl, MemCtrlConfig};
use silo_pm::{PmDevice, PmDeviceConfig};
use silo_sim::schemes::NullScheme;
use silo_sim::{Engine, Op, SimConfig, SimStats, TraceSet};
use silo_types::{CoreId, Cycles, JsonValue, LineAddr, PhysAddr, ThreadId, TxId, TxTag, Word};
use silo_workloads::workload_by_name;

use crate::stats::{self, Tally};
use crate::{crash, grid, metric, serve, span, Metric, Outcome};

/// Core counts of the grid traces.
const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Entries a log-buffer overflow evicts at once in the replay.
const OVERFLOW_BATCH: usize = 4;
/// Crash operations in each pass of the crash overhead measurement.
const CRASH_BATCH: usize = 252;
/// Traced/untraced pairs behind `trace.overhead_ratio`.
const OVERHEAD_PAIRS: usize = 3;
/// Requests in each pass of the serve overhead measurement.
const SERVE_BATCH: usize = 1000;
/// Requests of the traced daemon session.
const SERVE_SESSION: usize = 5000;
/// Cells of the result-store measurement.
const STORE_CELLS: usize = 12;
/// The held-out seed is the run's seed xor this.
pub const HELD_OUT: u64 = 0x4e1d_5eed;

fn timed_ns<T>(layer: &'static str, name: &str, op: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let _g = span::span(layer, name, op);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn op_count(trace: &TraceSet) -> u64 {
    trace
        .streams()
        .iter()
        .flat_map(|s| s.iter())
        .map(|tx| tx.ops().len() as u64)
        .sum()
}

/// The counts of the Silo runs on the replayed traces, summed.
#[derive(Default)]
struct Counts {
    l1: (u64, u64),
    l3: (u64, u64),
    pm_writebacks: u64,
    mc_writes: u64,
    mc_stall: u64,
    mc_max_occupancy: usize,
    pm_accepted: u64,
    pm_coalesced: u64,
    media_writes: u64,
    dcw_suppressed: u64,
    generated: u64,
    ignored: u64,
    merged: u64,
    overflows: u64,
    txs: u64,
}

impl Counts {
    fn add(&mut self, s: &SimStats) {
        self.l1.0 += s.cache.l1.0;
        self.l1.1 += s.cache.l1.1;
        self.l3.0 += s.cache.l3.0;
        self.l3.1 += s.cache.l3.1;
        self.pm_writebacks += s.cache.pm_writebacks;
        self.mc_writes += s.mc.writes;
        self.mc_stall += s.mc.stall_cycles;
        self.mc_max_occupancy = self.mc_max_occupancy.max(s.mc.max_occupancy);
        self.pm_accepted += s.pm.accepted_writes;
        self.pm_coalesced += s.pm.coalesced_hits;
        self.media_writes += s.pm.media_line_writes;
        self.dcw_suppressed += s.pm.dcw_suppressed;
        self.generated += s.scheme_stats.log_entries_generated;
        self.ignored += s.scheme_stats.log_entries_ignored;
        self.merged += s.scheme_stats.log_entries_merged;
        self.overflows += s.scheme_stats.overflow_events;
        self.txs += s.scheme_stats.transactions;
    }
}

/// Host nanoseconds of every replayed layer on one seed's grid traces.
#[derive(Default)]
struct Replay {
    built_ops: u64,
    build_ns: u64,
    trace_ops: u64,
    null_ns: u64,
    scheme_ns: Vec<(&'static str, u64)>,
    accesses: u64,
    cache_ns: u64,
    mc_writes: u64,
    mc_ns: u64,
    pm_writes: u64,
    pm_ns: u64,
    pm_through_ns: u64,
    inserts: u64,
    log_ns: u64,
    silo: Counts,
}

/// One replayed access: the core, the line, whether it is a store, and
/// the stored word.
type Access = (CoreId, LineAddr, bool, Option<(PhysAddr, Word)>);

/// A PM-bound write the cache replay produced.
enum PmWrite {
    /// A dirty line written back from L3.
    Line(LineAddr),
    /// A word store (Silo's in-place update of new data).
    Word(PhysAddr, Word),
}

/// The `(core, op)` sequence of a trace, transaction by transaction,
/// round-robin over the cores.
fn interleave(trace: &TraceSet) -> Vec<(usize, usize, &[Op])> {
    let streams = trace.streams();
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for t in 0..longest {
        for (c, s) in streams.iter().enumerate() {
            if let Some(tx) = s.get(t) {
                out.push((c, t, tx.ops()));
            }
        }
    }
    out
}

impl Replay {
    fn run(seed: u64) -> Replay {
        let mut r = Replay {
            scheme_ns: ALL_SCHEMES.iter().map(|s| (*s, 0)).collect(),
            ..Replay::default()
        };
        let mut long = Vec::new();
        for bench in FIG11_BENCHMARKS {
            let w = workload_by_name(bench).expect("benchmark exists");
            for cores in CORE_COUNTS {
                let n = (grid::TXS / cores).max(1);
                for txs in [n, 2 * n] {
                    let (trace, ns) = timed_ns("workloads", "Workload::build_trace", 0, || {
                        w.build_trace(cores, txs, seed)
                    });
                    r.build_ns += ns;
                    r.built_ops += op_count(&trace);
                    if txs == 2 * n {
                        long.push(trace);
                    }
                }
            }
        }
        for trace in &long {
            r.engine(trace);
            let writes = r.cache(trace);
            r.memctrl(&writes);
            r.pm(&writes);
            r.log_buffer(trace);
        }
        r
    }

    fn engine(&mut self, trace: &TraceSet) {
        let config = SimConfig::table_ii(trace.cores());
        let ops = op_count(trace);
        self.trace_ops += ops;
        let mut null = NullScheme::default();
        let (_, ns) = timed_ns("sim.engine", "Engine::run[Null]", ops, || {
            Engine::new(&config, &mut null).run(trace, None)
        });
        self.null_ns += ns;
        for (name, total) in &mut self.scheme_ns {
            let mut s = make_scheme(name, &config);
            let (out, ns) = timed_ns("scheme", name, ops, || {
                Engine::new(&config, s.as_mut()).run(trace, None)
            });
            *total += ns;
            if *name == "Silo" {
                self.silo.add(&out.stats);
            }
        }
    }

    fn cache(&mut self, trace: &TraceSet) -> Vec<(u64, PmWrite)> {
        let accesses: Vec<Access> = interleave(trace)
            .into_iter()
            .flat_map(|(c, _, ops)| {
                ops.iter().filter_map(move |op| match *op {
                    Op::Read(a) => Some((CoreId::new(c), LineAddr::containing(a), false, None)),
                    Op::Write(a, v) => {
                        Some((CoreId::new(c), LineAddr::containing(a), true, Some((a, v))))
                    }
                    Op::Compute(_) => None,
                })
            })
            .collect();
        let mut h = CacheHierarchy::new(HierarchyConfig::table_ii(trace.cores()));
        let mut writes = Vec::new();
        let mut now = 0u64;
        let (_, ns) = timed_ns(
            "cache",
            "CacheHierarchy::access",
            accesses.len() as u64,
            || {
                for &(core, line, is_write, word) in &accesses {
                    let a = h.access(core, line, is_write);
                    now += a.latency.as_u64();
                    for wb in a.pm_writebacks {
                        writes.push((now, PmWrite::Line(wb)));
                    }
                    if let Some((addr, value)) = word {
                        writes.push((now, PmWrite::Word(addr, value)));
                    }
                }
            },
        );
        self.accesses += accesses.len() as u64;
        self.cache_ns += ns;
        writes
    }

    fn memctrl(&mut self, writes: &[(u64, PmWrite)]) {
        let mut mc = MemCtrl::new(MemCtrlConfig::table_ii());
        let (_, ns) = timed_ns(
            "memctrl",
            "MemCtrl::enqueue_write",
            writes.len() as u64,
            || {
                for (now, w) in writes {
                    match w {
                        PmWrite::Line(_) => mc.enqueue_write(Cycles::new(*now), 64, 1),
                        PmWrite::Word(..) => mc.enqueue_write(Cycles::new(*now), 8, 0),
                    };
                }
            },
        );
        self.mc_writes += writes.len() as u64;
        self.mc_ns += ns;
    }

    fn pm(&mut self, writes: &[(u64, PmWrite)]) {
        let config = SimConfig::table_ii(1);
        let device = || {
            PmDevice::new(PmDeviceConfig {
                buffer_lines: config.onpm_buffer_lines,
                log_region_start: Some(config.log_region_start),
            })
        };
        let bytes: Vec<(PhysAddr, Vec<u8>)> = writes
            .iter()
            .map(|(_, w)| match *w {
                PmWrite::Line(l) => {
                    let fill = crate::mix(l.index()).to_le_bytes();
                    (l.base(), fill.repeat(8))
                }
                PmWrite::Word(a, v) => (a, v.to_le_bytes().to_vec()),
            })
            .collect();
        let mut coalescing = device();
        let (_, ns) = timed_ns("pm", "PmDevice::write", bytes.len() as u64, || {
            for (a, b) in &bytes {
                coalescing.write(*a, b);
            }
        });
        self.pm_ns += ns;
        let mut through = device();
        let (_, ns) = timed_ns("pm", "PmDevice::write_through", bytes.len() as u64, || {
            for (a, b) in &bytes {
                through.write_through(*a, b);
            }
        });
        self.pm_through_ns += ns;
        self.pm_writes += bytes.len() as u64;
    }

    fn log_buffer(&mut self, trace: &TraceSet) {
        let capacity = SimConfig::table_ii(trace.cores()).log_buffer_entries;
        let mut shadow: HashMap<u64, Word> = HashMap::new();
        let txs: Vec<(usize, Vec<LogEntry>)> = interleave(trace)
            .into_iter()
            .map(|(c, t, ops)| {
                let tag = TxTag::new(ThreadId::new(c as u8), TxId::new(t as u16));
                let entries = ops
                    .iter()
                    .filter_map(|op| match *op {
                        Op::Write(a, new) => {
                            let old = shadow.insert(a.as_u64(), new).unwrap_or(Word::new(0));
                            // Log ignorance: an unchanged word logs nothing.
                            (old != new).then(|| LogEntry::new(tag, a, old, new))
                        }
                        _ => None,
                    })
                    .collect();
                (c, entries)
            })
            .collect();
        let inserts: u64 = txs.iter().map(|(_, e)| e.len() as u64).sum();
        let mut bufs: Vec<LogBuffer> = (0..trace.cores())
            .map(|_| LogBuffer::new(capacity))
            .collect();
        let (_, ns) = timed_ns("core", "LogBuffer::insert", inserts, || {
            for (c, entries) in &txs {
                let buf = &mut bufs[*c];
                for e in entries {
                    if buf.needs_overflow_for(e) {
                        buf.take_overflow_batch(OVERFLOW_BATCH);
                    }
                    buf.insert(*e);
                }
                buf.drain_all();
            }
        });
        self.inserts += inserts;
        self.log_ns += ns;
    }

    /// Host ns per trace op of every replayed layer, most expensive first.
    fn ranking(&self) -> Vec<(String, f64)> {
        let per_op = |ns: u64| ns as f64 / self.trace_ops as f64;
        let mut layers = vec![
            (
                "workloads".to_string(),
                self.build_ns as f64 / self.built_ops as f64,
            ),
            ("sim.engine".to_string(), per_op(self.null_ns)),
            ("cache".to_string(), per_op(self.cache_ns)),
            ("memctrl".to_string(), per_op(self.mc_ns)),
            ("pm".to_string(), per_op(self.pm_ns)),
            ("core".to_string(), per_op(self.log_ns)),
        ];
        for (name, ns) in &self.scheme_ns {
            layers.push((
                format!("scheme.{name}"),
                per_op(ns.saturating_sub(self.null_ns)),
            ));
        }
        ranked(layers)
    }

    fn metrics(&self, out: &mut Vec<Metric>) {
        let c = &self.silo;
        out.extend([
            metric(
                "workloads.build_ns_per_op",
                self.build_ns as f64 / self.built_ops as f64,
                "ns/op",
            ),
            metric("workloads.ops", self.built_ops as f64, "count"),
            metric(
                "sim.engine.null_ns_per_op",
                self.null_ns as f64 / self.trace_ops as f64,
                "ns/op",
            ),
            metric(
                "cache.ns_per_access",
                self.cache_ns as f64 / self.accesses as f64,
                "ns/op",
            ),
            metric(
                "cache.l1_miss_ratio",
                ratio(c.l1.1, c.l1.0 + c.l1.1),
                "ratio",
            ),
            metric(
                "cache.l3_miss_ratio",
                ratio(c.l3.1, c.l3.0 + c.l3.1),
                "ratio",
            ),
            metric("cache.pm_writebacks", c.pm_writebacks as f64, "count"),
            metric(
                "memctrl.ns_per_write",
                self.mc_ns as f64 / self.mc_writes as f64,
                "ns/op",
            ),
            metric(
                "memctrl.stall_cycles_per_write",
                ratio(c.mc_stall, c.mc_writes),
                "cycles",
            ),
            metric(
                "memctrl.max_occupancy",
                c.mc_max_occupancy as f64,
                "entries",
            ),
            metric(
                "pm.ns_per_write",
                self.pm_ns as f64 / self.pm_writes as f64,
                "ns/op",
            ),
            metric(
                "pm.ns_per_write_through",
                self.pm_through_ns as f64 / self.pm_writes as f64,
                "ns/op",
            ),
            metric(
                "pm.coalesce_ratio",
                ratio(c.pm_coalesced, c.pm_accepted),
                "ratio",
            ),
            metric(
                "pm.dcw_ratio",
                ratio(c.dcw_suppressed, c.media_writes + c.dcw_suppressed),
                "ratio",
            ),
            metric(
                "core.log_ns_per_insert",
                self.log_ns as f64 / self.inserts as f64,
                "ns/op",
            ),
            metric("core.merge_ratio", ratio(c.merged, c.generated), "ratio"),
            metric("core.ignore_ratio", ratio(c.ignored, c.generated), "ratio"),
            metric("core.overflow_per_tx", ratio(c.overflows, c.txs), "ratio"),
        ]);
        for (name, ns) in &self.scheme_ns {
            out.push(metric(
                format!("scheme.{name}.ns_per_op"),
                ns.saturating_sub(self.null_ns) as f64 / self.trace_ops as f64,
                "ns/op",
            ));
        }
    }
}

/// Layer pairs ranked within one group, and how many of them the two
/// rankings order the same way.
fn concordant(a: &[(String, f64)], b: &[(String, f64)]) -> (u64, u64) {
    let pos = |list: &[(String, f64)], name: &str| list.iter().position(|(n, _)| n == name);
    let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
    let (mut same, mut pairs) = (0u64, 0u64);
    for i in 0..names.len() {
        for j in i + 1..names.len() {
            if let (Some(x), Some(y)) = (pos(b, names[i]), pos(b, names[j])) {
                pairs += 1;
                same += u64::from(x < y);
            }
        }
    }
    (same, pairs)
}

/// Fraction of layer pairs the two rankings order the same way. Layers
/// are compared only within their group (`a[g]` against `b[g]`), since
/// groups measure cost in different units.
pub fn rank_agreement(a: &[Vec<(String, f64)>], b: &[Vec<(String, f64)>]) -> f64 {
    let (same, pairs) = a
        .iter()
        .zip(b)
        .map(|(x, y)| concordant(x, y))
        .fold((0, 0), |(s, p), (x, y)| (s + x, p + y));
    ratio(same, pairs)
}

/// `layers` by cost, most expensive first.
fn ranked(mut layers: Vec<(String, f64)>) -> Vec<(String, f64)> {
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    layers
}

/// The values of the named metrics, as one ranking group.
fn group(metrics: &[Metric], names: &[&str]) -> Vec<(String, f64)> {
    ranked(
        names
            .iter()
            .filter_map(|n| {
                let m = metrics.iter().find(|m| m.name == *n)?;
                Some((m.name.clone(), m.value))
            })
            .collect(),
    )
}

/// The crash-path timings that form one ranking group (ms per run).
const CRASH_GROUP: [&str; 4] = [
    "sim.checkpoint.record_ms",
    "sim.crash.resume_ms_per_run",
    "sim.crash.scratch_ms_per_run",
    "sim.spec.ms_per_run",
];
/// The store, codec and daemon timings that form one ranking group (us
/// per call).
const SERVE_GROUP: [&str; 6] = [
    "result_store.write_us",
    "result_store.memory_hit_us",
    "result_store.peek_us",
    "result_store.disk_hit_us",
    "cellspec.codec_us",
    "serve.overhead_us",
];

/// The crash path on `seed`'s scan: its clean-run recordings, and one
/// crash point per (row, fault) cell.
fn crash_layer(seed: u64, tally: &mut Tally, out: &mut Vec<Metric>) {
    let recorded = || span::total(&span::snapshot(), "sim.engine", "Engine::run_recording");
    let before = recorded();
    let scan = crash::set_up(seed);
    let after = recorded();
    let (rec_ns, recs) = (after.0 - before.0, after.1 - before.1);
    let cells = (scan.rows.len() * crash::FAULTS.len()) as u64;
    let (mut resume, mut scratch, mut spec, mut resim, mut drain, mut recovery) =
        (Vec::new(), Vec::new(), Vec::new(), 0u64, 0u64, 0u64);
    for i in 0..cells {
        let (row, fault, point) = scan.point(seed, i);
        let what = scan.describe(row, fault, point);
        let run = scan.resumed(row, fault, point, i);
        crash::check_resumed(tally, &run, &what);
        resume.push(run.resume_ms);
        resim += run.resim_events;
        if let Some(c) = &run.out.crash {
            drain += c.drain.drained_bytes;
            recovery += c.recovery.replayed_words + c.recovery.revoked_words;
        }
        if i % 3 == 0 {
            let (plain_ms, _) = scan.scratch(row, fault, point, false, i);
            let (spec_ms, with_spec) = scan.scratch(row, fault, point, true, i);
            crash::check_scratch(tally, &run.out, &with_spec, &what);
            scratch.push(plain_ms);
            spec.push(spec_ms - plain_ms);
        }
    }
    out.extend([
        metric(
            "sim.checkpoint.record_ms",
            rec_ns as f64 / 1e6 / recs.max(1) as f64,
            "ms",
        ),
        metric("sim.crash.resume_ms_per_run", stats::mean(&resume), "ms"),
        metric("sim.crash.scratch_ms_per_run", stats::mean(&scratch), "ms"),
        metric(
            "sim.checkpoint.resim_events_per_run",
            ratio(resim, cells),
            "events",
        ),
        metric("sim.spec.ms_per_run", stats::mean(&spec), "ms"),
        metric("pm.drain_bytes_per_crash", ratio(drain, cells), "bytes"),
        metric(
            "pm.recovery_writes_per_crash",
            ratio(recovery, cells),
            "writes",
        ),
    ]);
}

/// The result store and the spec codec, timed on `cells`. Returns the
/// mean direct memory-hit microseconds.
fn store_layer(cells: &[CellSpec], tag: &str, tally: &mut Tally, out: &mut Vec<Metric>) -> f64 {
    let dir = crate::scratch_dir().join(format!("layer-store-{tag}"));
    let store = ResultStore::new(dir.clone(), "perfbench-layer");
    store.set_enabled(true);
    let us = |ns: u64| ns as f64 / 1e3;
    let (mut write, mut memory, mut peek, mut disk, mut codec) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, spec) in cells.iter().enumerate() {
        let op = i as u64;
        spec.trace_fingerprint();
        let (direct, exec_ns) = timed_ns("cellspec", "CellSpec::execute", op, || spec.execute());
        let ((miss, served), miss_ns) =
            timed_ns("result_store", "ResultStore::get_or_run_traced", op, || {
                store.get_or_run_traced(spec)
            });
        let same = |o: &silo_bench::CellOutcome| {
            o.stats.as_ref().map(|s| s.to_json().to_string())
                == direct.stats.as_ref().map(|s| s.to_json().to_string())
        };
        tally.check(served == Served::Executed && same(&miss), || {
            format!("store miss of {}: {served:?}", spec.label.describe())
        });
        write.push(us(miss_ns) - us(exec_ns));
        let ((hit, served), ns) =
            timed_ns("result_store", "ResultStore::get_or_run_traced", op, || {
                store.get_or_run_traced(spec)
            });
        tally.check(served == Served::Memory && same(&hit), || {
            format!("store memory hit of {}: {served:?}", spec.label.describe())
        });
        memory.push(us(ns));
        let (peeked, ns) = timed_ns("result_store", "ResultStore::peek", op, || store.peek(spec));
        tally.check(peeked.as_ref().is_some_and(same), || {
            format!("store peek of {}", spec.label.describe())
        });
        peek.push(us(ns));
        let (back, ns) = timed_ns("cellspec", "CellSpec::to_json+from_json", op, || {
            let text = spec.to_json().to_string();
            CellSpec::from_json(&JsonValue::parse(&text).unwrap_or(JsonValue::Null))
        });
        tally.check(
            back.as_ref()
                .is_ok_and(|b| b.spec_hash() == spec.spec_hash()),
            || format!("codec round trip of {}", spec.label.describe()),
        );
        codec.push(us(ns));
    }
    // A second store on the same directory starts with an empty memory
    // tier, so every lookup decodes the disk entry.
    let cold = ResultStore::new(dir, "perfbench-layer");
    cold.set_enabled(true);
    for (i, spec) in cells.iter().enumerate() {
        let ((_, served), ns) = timed_ns(
            "result_store",
            "ResultStore::get_or_run_traced",
            i as u64,
            || cold.get_or_run_traced(spec),
        );
        tally.check(served == Served::Disk, || {
            format!("store disk hit of {}: {served:?}", spec.label.describe())
        });
        disk.push(us(ns));
    }
    let memory_us = stats::mean(&memory);
    out.extend([
        metric("result_store.write_us", stats::median(&write), "us"),
        metric("result_store.memory_hit_us", memory_us, "us"),
        metric("result_store.peek_us", stats::mean(&peek), "us"),
        metric("result_store.disk_hit_us", stats::mean(&disk), "us"),
        metric("cellspec.codec_us", stats::mean(&codec), "us"),
    ]);
    memory_us
}

/// A traced daemon session: latency by tier, the `/stats` counters, and
/// the queue depth sampled while it runs.
fn serve_layer(
    session: &serve::Session,
    direct_hit_us: f64,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) {
    let stop = AtomicBool::new(false);
    let queue_max = AtomicU64::new(0);
    let replies = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let depth = session
                    .daemon_stats()
                    .and_then(|s| s.get("queue_depth").and_then(JsonValue::as_u64))
                    .unwrap_or(0);
                queue_max.fetch_max(depth, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let replies = session.drive(0, |i| i >= SERVE_SESSION, |_| true);
        stop.store(true, Ordering::Relaxed);
        replies
    });
    session.verify(&replies, tally);
    let (hits, misses) = serve::split(&replies);
    let memory_rtt: Vec<f64> = replies
        .iter()
        .filter(|r| r.served == "memory")
        .map(|r| r.ms * 1e3)
        .collect();
    let daemon = session.daemon_stats().unwrap_or(JsonValue::Null);
    let count = |path: &[&str]| {
        path.iter()
            .try_fold(&daemon, |v, k| v.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    let pct = |xs: &[f64], p: f64| stats::percentile(xs, p).unwrap_or(f64::NAN);
    out.extend([
        metric(
            "result_store.memory_hit_ratio",
            ratio(count(&["store", "memory_hits"]), count(&["store", "hits"])),
            "ratio",
        ),
        metric(
            "serve.overhead_us",
            stats::mean(&memory_rtt) - direct_hit_us,
            "us",
        ),
        metric(
            "serve.singleflight_merges",
            count(&["singleflight_merges"]) as f64,
            "count",
        ),
        metric(
            "serve.queue_max",
            queue_max.load(Ordering::Relaxed) as f64,
            "count",
        ),
        metric("serve.hit_p50_ms", pct(&hits, 50.0), "ms"),
        metric("serve.hit_p99_ms", pct(&hits, 99.0), "ms"),
        metric("serve.miss_p50_ms", pct(&misses, 50.0), "ms"),
    ]);
}

/// The grid layers seen from a traced worker: trace-cache reuse, report
/// rendering, and the exact simulated identity.
fn grid_layer(g: &grid::GridResult, out: &mut Vec<Metric>, notes: &mut Vec<String>) {
    let id = &g.identity;
    out.extend([
        metric(
            "trace_cache.hit_ratio",
            ratio(g.trace_hits, g.trace_hits + g.trace_gens),
            "ratio",
        ),
        metric("report.render_ms", g.render_ms, "ms"),
        metric("sim.cycles_sum", id.cycles_sum as f64, "cycles"),
        metric("sim.stats_digest", id.stats_digest as f64, "hash"),
        metric("sim.silo_tp_x_morlog", id.factors[0], "x"),
        metric("sim.silo_tp_x_lad", id.factors[1], "x"),
        metric("sim.silo_traffic_cut_morlog", id.factors[2], "%"),
        metric("sim.paper_err_pct", id.paper_err_pct(), "%"),
    ]);
    for ((name, paper), x) in grid::PAPER.iter().zip(id.factors) {
        notes.push(format!("sim.{name}: {x:.4} (paper {paper})"));
    }
    notes.push(
        "the three paper values are the only external reference; nothing beyond them \
         validates the model"
            .into(),
    );
}

/// Traced ÷ untraced cost of the same work; `pass(traced)` does the work
/// once and returns its cost. After one discarded warm-up pass,
/// [`OVERHEAD_PAIRS`] pairs run in alternating order (traced first, then
/// untraced first, ...) so a drift in host speed favours neither side.
/// Returns the median of the pairwise ratios.
fn overhead_ratio(mut pass: impl FnMut(bool) -> f64) -> f64 {
    pass(false);
    let ratios: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|i| {
            let traced_first = i % 2 == 0;
            let first = pass(traced_first);
            let second = pass(!traced_first);
            if traced_first {
                first / second
            } else {
                second / first
            }
        })
        .collect();
    stats::median(&ratios)
}

/// Every layer timed on `seed`: the replay of the grid traces, the crash
/// path, and the store, codec and daemon (on `session` when given, else on
/// a daemon started here). Returns the metrics and the ranking groups.
fn layers(
    seed: u64,
    tag: &str,
    session: Option<serve::Session>,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<Vec<(String, f64)>>) {
    let mut out = Vec::new();
    let replay = Replay::run(seed);
    replay.metrics(&mut out);
    crash_layer(seed, tally, &mut out);
    let session = session.or_else(
        || match serve::start(crate::mix(seed), tag, serve::LRU_CAP) {
            Ok(mut s) => {
                s.compute_reference();
                Some(s)
            }
            Err(msg) => {
                tally.check(false, || msg);
                None
            }
        },
    );
    if let Some(session) = session {
        let cells: Vec<CellSpec> = session.pool.iter().take(STORE_CELLS).cloned().collect();
        let direct_us = store_layer(&cells, tag, tally, &mut out);
        serve_layer(&session, direct_us, tally, &mut out);
        session.stop();
    }
    let groups = vec![
        replay.ranking(),
        group(&out, &CRASH_GROUP),
        group(&out, &SERVE_GROUP),
    ];
    (out, groups)
}

/// The traced run of `workload`: its trace overhead, then every layer on
/// the run's seed and again on the held-out seed. The traced run does a
/// fixed amount of work, whatever `--seconds` says.
pub fn run(workload: &str, seed: u64) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let spans_path =
        std::path::Path::new(".perfbench").join(format!("spans-{workload}-{seed}.json"));
    let worker_spans =
        std::path::Path::new(".perfbench").join(format!("spans-{workload}-{seed}-grid.json"));

    // Trace overhead of the workload itself.
    span::set_enabled(true);
    let mut grids = Vec::new();
    let mut session = None;
    let overhead = match workload {
        "grid" => {
            let overhead = overhead_ratio(|traced| {
                let spans = traced.then_some(worker_spans.as_path());
                let g = grid::spawn_grid(seed, grid::JOBS, spans);
                let wall = g.as_ref().map_or(f64::NAN, |(_, g)| g.wall_s);
                grids.push((traced, g));
                wall
            });
            grids.push((false, grid::spawn_grid(seed, 1, None)));
            overhead
        }
        "crash" => {
            let built = crash::set_up(seed);
            overhead_ratio(|traced| {
                span::set_enabled(traced);
                let t = Instant::now();
                crash::scan(&built, seed, &mut tally, |n| n >= CRASH_BATCH, |_, _| {});
                t.elapsed().as_secs_f64()
            })
        }
        _ => match serve::start(crate::mix(seed), "traced", serve::LRU_CAP) {
            Ok(mut s) => {
                s.compute_reference();
                let mut offset = 0;
                let overhead = overhead_ratio(|traced| {
                    span::set_enabled(traced);
                    offset += 1;
                    let replies = s.drive(offset << 20, |i| i >= SERVE_BATCH, |_| true);
                    s.verify(&replies, &mut tally);
                    stats::median(&serve::split(&replies).0)
                });
                session = Some(s);
                overhead
            }
            Err(msg) => {
                tally.check(false, || msg);
                f64::NAN
            }
        },
    };
    span::set_enabled(true);

    // The grid worker's layers, from a traced grid; every grid of the run
    // must simulate the same, whatever its tracing or worker count.
    if workload != "grid" {
        grids.push((
            true,
            grid::spawn_grid(seed, grid::JOBS, Some(&worker_spans)),
        ));
    }
    let mut traced_grid = None;
    let mut reference = None;
    for (n, (traced, g)) in grids.into_iter().enumerate() {
        match g {
            Ok((_, mut g)) => {
                tally.merge(std::mem::take(&mut g.tally));
                match &reference {
                    None => reference = Some(g.identity.clone()),
                    Some(id) if *id != g.identity => tally.fail(format!(
                        "grid {n} of the traced run simulated differently from the first"
                    )),
                    Some(_) => {}
                }
                if traced && traced_grid.is_none() {
                    traced_grid = Some(g);
                }
            }
            Err(msg) => {
                tally.check(false, || msg);
            }
        }
    }
    if let Some(g) = &traced_grid {
        grid_layer(g, &mut metrics, &mut notes);
    }

    // Every layer on the run's seed, then on the held-out seed.
    let (main, rank_a) = layers(seed, "traced", session, &mut tally);
    metrics.extend(main);
    let (_, rank_b) = layers(seed ^ HELD_OUT, "heldout", None, &mut tally);
    let agreement = rank_agreement(&rank_a, &rank_b);
    let names = |groups: &[Vec<(String, f64)>]| {
        groups
            .iter()
            .map(|g| {
                g.iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join(" > ")
            })
            .collect::<Vec<_>>()
            .join(" | ")
    };
    notes.push(format!("layer ranking, seed {seed}: {}", names(&rank_a)));
    notes.push(format!(
        "layer ranking, held-out seed {}: {}",
        seed ^ HELD_OUT,
        names(&rank_b)
    ));
    notes.push(format!(
        "held-out ranking agreement {agreement:.3} (identical order: {})",
        names(&rank_a) == names(&rank_b)
    ));
    metrics.push(metric("trace.overhead_ratio", overhead, "ratio"));
    metrics.push(metric("heldout.rank_agreement", agreement, "ratio"));

    span::set_enabled(false);
    if let Err(err) = span::write_out(&spans_path) {
        notes.push(format!("warning: writing spans: {err}"));
    }
    let by_layer = span::self_ns_by_layer(&span::snapshot());
    let mut self_ms: Vec<(&str, f64)> = by_layer
        .iter()
        .map(|(l, ns)| (*l, *ns as f64 / 1e6))
        .collect();
    self_ms.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!(
        "span self time (ms): {}",
        self_ms
            .iter()
            .map(|(l, ms)| format!("{l} {ms:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push(format!("spans written to {}", spans_path.display()));
    Outcome {
        tally,
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(names: &[&str]) -> Vec<(String, f64)> {
        names.iter().map(|n| (n.to_string(), 0.0)).collect()
    }

    #[test]
    fn rank_agreement_counts_concordant_pairs_within_groups() {
        let abc = || vec![r(&["a", "b", "c"])];
        assert_eq!(rank_agreement(&abc(), &abc()), 1.0);
        assert_eq!(rank_agreement(&abc(), &[r(&["c", "b", "a"])]), 0.0);
        assert!((rank_agreement(&abc(), &[r(&["b", "a", "c"])]) - 2.0 / 3.0).abs() < 1e-12);
        // Pairs across groups are never compared: one of the nine
        // within-group pairs is swapped.
        let groups = [r(&["a", "b", "c"]), r(&["x", "y", "z", "w"])];
        let swapped = [r(&["b", "a", "c"]), r(&["x", "y", "z", "w"])];
        assert!((rank_agreement(&groups, &swapped) - 8.0 / 9.0).abs() < 1e-12);
    }
}
