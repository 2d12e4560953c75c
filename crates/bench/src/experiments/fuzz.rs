//! `fuzz`: coverage-guided crash search with per-word violation
//! localization.
//!
//! Where `crashfuzz` scans evenly spaced crash points, `fuzz` *searches*
//! the crash surface: a corpus of `(fault model, crash event, recovery
//! crash)` candidates is mutated libFuzzer-style toward novel probe-event
//! **coverage signatures** — the set of `(previous event kind, event kind,
//! scheme phase)` features the [`silo_sim::Signature`] recorder observes
//! around the crash. A candidate that lights up new features joins the
//! corpus; a boring one is discarded. The whole search is a pure function
//! of one seed: the mutation RNG is seeded from `(seed, scheme,
//! workload)`, candidates run in a fixed order, and the report is
//! byte-identical at any `--jobs`.
//!
//! Every recovered image is checked by [`silo_sim::TxOracle`], which
//! localizes a violation to the first offending word with the event index
//! of that word's last transition. A violation is printed as a copy-paste
//! runnable `evaluate fuzz ... --crash-event N --execs 1 --no-corpus`
//! command (arrival-process idents included for zoo workloads).
//!
//! Candidates run from scratch, not from checkpoints: the coverage
//! signature covers the whole run from t=0, and a resumed run would miss
//! the features of its restored prefix.
//!
//! The corpus persists under `target/fuzz-corpus/<workload>/<scheme>/`
//! (override with `--corpus DIR`, disable with `--no-corpus`), one JSON
//! file per interesting candidate named by its signature digest, so a
//! nightly run resumes where the last one stopped.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use silo_sim::{CrashPlan, Engine, FaultModel, Signature, SimConfig};
use silo_types::{JsonValue, Xoshiro256};
use silo_workloads::{workload_by_name, ArrivalProcess};

use crate::cellspec::{CellSpec, CellWork, FaultSpec};
use crate::exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec};
use crate::{arg_string, arg_u64, arg_usize, make_scheme, TraceCache, ALL_SCHEMES};

/// Two cores, like `crashfuzz`: cheap, but still cross-core interleaving.
pub(crate) const CORES: usize = 2;
/// Default execution budget per cell (`--execs` overrides).
const DEFAULT_EXECS: u64 = 24;
/// Deterministic seed candidates per fault model: evenly spaced events.
const SEED_POINTS: u64 = 4;
/// Default residual-energy budget for seeded battery candidates.
const DEFAULT_BATTERY_BYTES: u64 = 64 * 1024;
/// Default torn-line prefix for seeded torn-line candidates.
const DEFAULT_TORN_KEEP: usize = 64;
/// Violations recorded in full (event/fault/word detail) per cell.
const MAX_RECORDED: usize = 8;
/// Corpus entry format version.
const CORPUS_VERSION: u64 = 1;
/// The oracle's violation kinds, indexable for the value list.
const KINDS: [&str; 3] = [
    "committed write lost or corrupted",
    "partial update of uncommitted transaction survived",
    "ambiguous commit applied partially (torn commit)",
];

/// One fault model of the search. All triggers are event-indexed: the
/// crash-event axis is the dense durability-event enumeration, so the
/// cycle-sampled op-boundary trigger of `crashfuzz` has no place here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Perfect ADR drain at the crash.
    Adr,
    /// The in-flight line program keeps `keep` bytes.
    Torn(usize),
    /// The ADR drain persists at most `bytes` bytes.
    Battery(u64),
}

impl Fault {
    /// In a Fuzz cell every trigger is event-indexed, so the otherwise
    /// cycle-sampled `OpBoundary` tag is free to denote the parameterless
    /// perfect-ADR model — the inverse of [`Fault::to_spec`].
    fn from_spec(spec: FaultSpec) -> Fault {
        match spec {
            FaultSpec::OpBoundary => Fault::Adr,
            FaultSpec::TornLine(keep) => Fault::Torn(keep),
            FaultSpec::Battery(bytes) => Fault::Battery(bytes),
        }
    }

    fn to_spec(self) -> FaultSpec {
        match self {
            Fault::Adr => FaultSpec::OpBoundary,
            Fault::Torn(keep) => FaultSpec::TornLine(keep),
            Fault::Battery(bytes) => FaultSpec::Battery(bytes),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Fault::Adr => "adr",
            Fault::Torn(_) => "torn-line",
            Fault::Battery(_) => "battery",
        }
    }

    fn describe(self) -> String {
        match self {
            Fault::Adr => "adr".to_string(),
            Fault::Torn(keep) => format!("torn-line(keep={keep})"),
            Fault::Battery(bytes) => format!("battery({bytes} B)"),
        }
    }

    fn model(self) -> FaultModel {
        match self {
            Fault::Adr => FaultModel::perfect_adr(),
            Fault::Torn(keep) => FaultModel::torn_line(keep),
            Fault::Battery(bytes) => FaultModel::bounded_battery(bytes),
        }
    }

    /// Parameter as a plain number (0 for the parameterless ADR model).
    fn arg(self) -> u64 {
        match self {
            Fault::Adr => 0,
            Fault::Torn(keep) => keep as u64,
            Fault::Battery(bytes) => bytes,
        }
    }

    fn kind_index(self) -> u64 {
        match self {
            Fault::Adr => 0,
            Fault::Torn(_) => 1,
            Fault::Battery(_) => 2,
        }
    }

    fn from_parts(kind: u64, arg: u64) -> Option<Fault> {
        match kind {
            0 => Some(Fault::Adr),
            1 => Some(Fault::Torn(arg as usize)),
            2 => Some(Fault::Battery(arg)),
            _ => None,
        }
    }

    fn from_name(name: &str, arg: u64) -> Option<Fault> {
        match name {
            "adr" => Some(Fault::Adr),
            "torn-line" => Some(Fault::Torn(arg as usize)),
            "battery" => Some(Fault::Battery(arg)),
            _ => None,
        }
    }

    /// The extra repro flags beyond `--fault <name>`.
    fn repro_flags(self) -> String {
        match self {
            Fault::Adr => String::new(),
            Fault::Torn(keep) => format!(" --torn-keep {keep}"),
            Fault::Battery(bytes) => format!(" --battery-bytes {bytes}"),
        }
    }
}

/// One crash-search candidate: where to cut power, under which fault, and
/// whether to re-crash recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Candidate {
    fault: Fault,
    event: u64,
    recovery_crash: Option<u64>,
}

impl Candidate {
    fn plan(self) -> CrashPlan {
        let mut plan = CrashPlan::at_event(self.event).with_fault(self.fault.model());
        if let Some(steps) = self.recovery_crash {
            plan = plan.with_recovery_crash(steps);
        }
        plan
    }
}

/// The corpus root directory, process-global like the crashfuzz
/// checkpoint toggles: it selects *where* interesting candidates persist,
/// never *what* the search computes on a fresh directory, so it stays out
/// of the cell spec hash. `None` (the library default) touches no
/// filesystem; the CLI layer sets the default root.
static CORPUS_ROOT: Mutex<Option<PathBuf>> = Mutex::new(None);

fn corpus_root() -> Option<PathBuf> {
    CORPUS_ROOT.lock().expect("corpus root lock").clone()
}

/// The search configuration parsed from the experiment's extra flags.
struct Config {
    schemes: Vec<String>,
    /// Candidate restriction (`--fault`), or search across all models.
    fault: Option<Fault>,
    execs: u64,
    crash_event: Option<u64>,
    recovery_crash: Option<u64>,
    arrival: Option<String>,
}

fn parse_config(p: &ExpParams) -> Config {
    let battery = arg_u64(&p.extra, "--battery-bytes", DEFAULT_BATTERY_BYTES);
    let torn = arg_usize(&p.extra, "--torn-keep", DEFAULT_TORN_KEEP);
    let fault = match arg_string(&p.extra, "--fault").as_deref() {
        None => None,
        Some("adr") => Some(Fault::Adr),
        Some("torn-line") => Some(Fault::Torn(torn)),
        Some("battery") => Some(Fault::Battery(battery)),
        Some(other) => {
            eprintln!(
                "error: unknown fault model {other:?} \
                 (expected adr, torn-line, or battery)"
            );
            std::process::exit(2);
        }
    };
    let schemes = match arg_string(&p.extra, "--scheme") {
        None => ALL_SCHEMES.iter().map(|s| s.to_string()).collect(),
        Some(list) => {
            let schemes: Vec<String> = list.split(',').map(str::to_string).collect();
            for s in &schemes {
                if !ALL_SCHEMES.contains(&s.as_str()) {
                    eprintln!("error: unknown scheme {s:?} (see ALL_SCHEMES)");
                    std::process::exit(2);
                }
            }
            schemes
        }
    };
    let execs = match crate::try_arg::<u64>(&p.extra, "--execs") {
        Ok(Some(0)) => {
            eprintln!("error: --execs must be positive");
            std::process::exit(2);
        }
        Ok(v) => v.unwrap_or(DEFAULT_EXECS),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let crash_event = match crate::try_arg::<u64>(&p.extra, "--crash-event") {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    // A fixed crash event is a single deterministic candidate — it needs
    // one fully specified fault model, exactly like crashfuzz's --point.
    if crash_event.is_some() && fault.is_none() {
        eprintln!(
            "error: --crash-event replays one exact candidate, so it \
             requires a single --fault (add e.g. --fault battery)"
        );
        std::process::exit(2);
    }
    let recovery_crash = match crate::try_arg::<u64>(&p.extra, "--recovery-crash") {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    if recovery_crash.is_some() && crash_event.is_none() {
        eprintln!("error: --recovery-crash only applies to a --crash-event replay");
        std::process::exit(2);
    }
    let arrival = arg_string(&p.extra, "--arrival");
    if let Some(ident) = &arrival {
        if ArrivalProcess::parse(ident).is_none() {
            eprintln!(
                "error: unparseable arrival ident {ident:?} \
                 (expected closed, poisson<G>, bursty<G>x<B>i<I>, or diurnal<S>-<E>)"
            );
            std::process::exit(2);
        }
    }
    // Corpus persistence: default root, explicit root, or none.
    let root = if p.extra.iter().any(|a| a == "--no-corpus") {
        None
    } else {
        Some(PathBuf::from(
            arg_string(&p.extra, "--corpus").unwrap_or_else(|| "target/fuzz-corpus".to_string()),
        ))
    };
    *CORPUS_ROOT.lock().expect("corpus root lock") = root;
    Config {
        schemes,
        fault,
        execs,
        crash_event,
        recovery_crash,
        arrival,
    }
}

/// What one candidate run produced.
#[derive(Clone)]
struct CandidateRun {
    signature: Signature,
    /// The oracle's first offending word; `None` when the recovered image
    /// is consistent.
    first_word: Option<(u64, u64, usize)>, // (addr, word event, kind index)
}

/// Runs one candidate with the signature recorder enabled. Always a
/// from-scratch run: the signature accumulates from t=0, so a run resumed
/// from a checkpoint would lose its prefix's coverage.
fn run_candidate(
    scheme: &str,
    config: &SimConfig,
    streams: &silo_sim::TraceSet,
    cand: Candidate,
) -> CandidateRun {
    let mut s = make_scheme(scheme, config);
    let mut engine = Engine::new(config, s.as_mut());
    engine.machine_mut().probe.enable_signature();
    let out = engine.run_with_plan(streams, Some(cand.plan()));
    let crash = out.crash.as_ref().expect("crash injected");
    let first_word = crash.consistency.first_offender().map(|v| {
        let kind = KINDS
            .iter()
            .position(|k| *k == v.kind)
            .expect("violation kind is in the table");
        (v.addr.as_u64(), v.event, kind)
    });
    CandidateRun {
        signature: out.signature.expect("signature recorder enabled"),
        first_word,
    }
}

/// FNV-1a 64 over the cell identity, seeding the mutation RNG.
fn rng_seed(seed: u64, scheme: &str, workload: &str, arrival: Option<&str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&seed.to_le_bytes());
    eat(scheme.as_bytes());
    eat(&[0]);
    eat(workload.as_bytes());
    eat(&[0]);
    eat(arrival.unwrap_or("").as_bytes());
    h
}

/// Evenly spaced interior points, like crashfuzz, floored to event 1.
fn spaced(total: u64, k: u64) -> Vec<u64> {
    (0..k)
        .map(|i| ((total * (2 * i + 1)) / (2 * k)).max(1))
        .collect()
}

/// One mutation step: nudge, resample, or retarget the base candidate.
/// Restricted searches (`--fault`) never leave their fault kind.
fn mutate(rng: &mut Xoshiro256, base: Candidate, total: u64, restricted: bool) -> Candidate {
    let mut c = base;
    let total = total.max(1);
    match rng.next_u64() % 6 {
        0 => c.event = (c.event + 1 + rng.next_u64() % 16).min(total),
        1 => c.event = c.event.saturating_sub(1 + rng.next_u64() % 16).max(1),
        2 => c.event = 1 + rng.next_u64() % total,
        3 if !restricted => {
            // Rotate the fault kind, entering each with its default knob.
            c.fault = match c.fault {
                Fault::Adr => Fault::Torn(DEFAULT_TORN_KEEP),
                Fault::Torn(_) => Fault::Battery(DEFAULT_BATTERY_BYTES),
                Fault::Battery(_) => Fault::Adr,
            };
        }
        3 | 4 => {
            // Tweak the fault knob in place (ADR has none: resample).
            c.fault = match c.fault {
                Fault::Adr => {
                    c.event = 1 + rng.next_u64() % total;
                    Fault::Adr
                }
                Fault::Torn(keep) => {
                    let keep = if rng.next_u64().is_multiple_of(2) {
                        (keep + 16).min(248)
                    } else {
                        keep.saturating_sub(16).max(8)
                    };
                    Fault::Torn(keep)
                }
                Fault::Battery(bytes) => {
                    let bytes = if rng.next_u64().is_multiple_of(2) {
                        (bytes * 2).min(1 << 22)
                    } else {
                        (bytes / 2).max(16)
                    };
                    Fault::Battery(bytes)
                }
            };
        }
        _ => {
            c.recovery_crash = match c.recovery_crash {
                None => Some(1 + rng.next_u64() % 8),
                Some(_) => None,
            };
        }
    }
    c
}

/// Serializes a corpus entry (one interesting candidate + the coverage
/// signature digest its run produced).
fn encode_entry(cand: Candidate, sig_digest: &str) -> String {
    let mut obj = JsonValue::object()
        .field("v", CORPUS_VERSION)
        .field("fault", cand.fault.name())
        .field("arg", cand.fault.arg())
        .field("event", cand.event);
    if let Some(rc) = cand.recovery_crash {
        obj = obj.field("rc", rc);
    }
    let mut text = obj.field("sig", sig_digest).build().to_string();
    text.push('\n');
    text
}

/// Rebuilds a candidate from its stored form; `None` on any anomaly (the
/// entry is skipped, not fatal — a stale corpus must never kill a run).
fn decode_entry(text: &str) -> Option<Candidate> {
    let v = JsonValue::parse(text).ok()?;
    if v.get("v").and_then(JsonValue::as_u64) != Some(CORPUS_VERSION) {
        return None;
    }
    let name = v.get("fault").and_then(JsonValue::as_str)?;
    let arg = v.get("arg").and_then(JsonValue::as_u64)?;
    let event = v.get("event").and_then(JsonValue::as_u64)?.max(1);
    let recovery_crash = match v.get("rc") {
        Some(rc) => Some(rc.as_u64()?),
        None => None,
    };
    Some(Candidate {
        fault: Fault::from_name(name, arg)?,
        event,
        recovery_crash,
    })
}

/// Loads the persisted corpus of one cell, sorted by file name so the
/// replay order (and therefore the whole search) is deterministic.
fn load_corpus(dir: &std::path::Path, restriction: Option<Fault>) -> Vec<Candidate> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort_unstable();
    names
        .into_iter()
        .filter_map(|n| std::fs::read_to_string(dir.join(n)).ok())
        .filter_map(|text| decode_entry(&text))
        .filter(|c| match restriction {
            Some(f) => c.fault.kind_index() == f.kind_index(),
            None => true,
        })
        .collect()
}

/// Persists one interesting candidate under its signature digest.
/// Best-effort, like the result store: a read-only disk degrades
/// persistence, never the search.
fn persist_entry(dir: &std::path::Path, cand: Candidate, sig_digest: &str) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{sig_digest}.json"));
    let tmp = dir.join(format!("{sig_digest}.tmp.{}", std::process::id()));
    if std::fs::write(&tmp, encode_entry(cand, sig_digest)).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Executor entry point for [`CellWork::Fuzz`]: one cell's full search —
/// clean reference run, corpus + deterministic seeds, mutation loop to
/// the execution budget, double-checked verdict on every recovered image.
#[allow(clippy::too_many_arguments)] // mirrors the CellWork::Fuzz fields
pub(crate) fn execute_fuzz(
    scheme: &str,
    workload: &str,
    txs_per_core: usize,
    seed: u64,
    execs: u64,
    fault: Option<FaultSpec>,
    crash_event: Option<u64>,
    recovery_crash: Option<u64>,
    arrival: Option<&str>,
) -> CellOutcome {
    let restriction = fault.map(Fault::from_spec);
    if workload_by_name(workload).is_none() {
        return CellOutcome::failed(format!(
            "unknown workload {workload:?} in cell {scheme}/{workload}/txs={txs_per_core}"
        ));
    }
    if let Some(ident) = arrival {
        if ArrivalProcess::parse(ident).is_none() {
            return CellOutcome::failed(format!(
                "unparseable arrival ident {ident:?} in cell \
                 {scheme}/{workload}/txs={txs_per_core}"
            ));
        }
    }
    let config = SimConfig::table_ii(CORES);
    // Same construction the trace fingerprint hashes, so the streams the
    // search crashes are exactly the streams the cell key describes.
    let w = crate::cellspec::fuzz_workload_spec(workload, arrival).instantiate();
    let streams = TraceCache::global().get_or_build(&*w, CORES, txs_per_core, seed);
    // Clean reference run: fixes the durability-event axis length.
    let clean = {
        let mut s = make_scheme(scheme, &config);
        Engine::new(&config, s.as_mut()).run(&streams, None)
    };
    let total = clean.pm.events().total();

    // Initial candidates: the persisted corpus (sorted), then the evenly
    // spaced deterministic seeds per allowed fault model. A fixed
    // --crash-event collapses the whole search to one exact candidate.
    let cell_dir = corpus_root().map(|root| root.join(workload).join(scheme));
    let mut initial: Vec<Candidate> = Vec::new();
    match crash_event {
        Some(event) => initial.push(Candidate {
            fault: restriction.expect("--crash-event requires one --fault"),
            event: event.max(1),
            recovery_crash,
        }),
        None => {
            if let Some(dir) = &cell_dir {
                initial.extend(load_corpus(dir, restriction));
            }
            let seed_faults = match restriction {
                Some(f) => vec![f],
                None => vec![
                    Fault::Adr,
                    Fault::Torn(DEFAULT_TORN_KEEP),
                    Fault::Battery(DEFAULT_BATTERY_BYTES),
                ],
            };
            for f in seed_faults {
                for event in spaced(total, SEED_POINTS) {
                    initial.push(Candidate {
                        fault: f,
                        event,
                        recovery_crash: None,
                    });
                }
            }
            initial.dedup();
        }
    }

    let mut coverage = Signature::default();
    let mut corpus: Vec<Candidate> = Vec::new();
    let mut executed = 0u64;
    let mut violations: Vec<(Candidate, CandidateRun)> = Vec::new();
    let mut violation_count = 0u64;
    let mut run_one = |cand: Candidate,
                       coverage: &mut Signature,
                       corpus: &mut Vec<Candidate>,
                       executed: &mut u64| {
        let run = run_candidate(scheme, &config, &streams, cand);
        *executed += 1;
        if run.first_word.is_some() {
            violation_count += 1;
            if violations.len() < MAX_RECORDED && !violations.iter().any(|(c, _)| *c == cand) {
                violations.push((cand, run.clone()));
            }
        }
        // Violating candidates merge too: a crash that breaks recovery is
        // the most interesting neighborhood to keep mutating around.
        if coverage.merge(&run.signature) > 0 && !corpus.contains(&cand) {
            if let Some(dir) = &cell_dir {
                persist_entry(dir, cand, &run.signature.digest());
            }
            corpus.push(cand);
        }
    };
    for cand in initial {
        if executed >= execs {
            break;
        }
        run_one(cand, &mut coverage, &mut corpus, &mut executed);
    }
    let mut rng = Xoshiro256::seeded(rng_seed(seed, scheme, workload, arrival));
    while executed < execs && !corpus.is_empty() && crash_event.is_none() {
        let base = corpus[(rng.next_u64() % corpus.len() as u64) as usize];
        let cand = mutate(&mut rng, base, total, restriction.is_some());
        run_one(cand, &mut coverage, &mut corpus, &mut executed);
    }

    let digest = coverage.digest();
    let (hi, lo) = {
        let d = u64::from_str_radix(&digest, 16).expect("digest is 16 hex chars");
        ((d >> 32) as u32, d as u32)
    };
    let mut out = CellOutcome::from_stats(clean.stats.clone())
        .with_value("execs", executed as f64)
        .with_value("corpus", corpus.len() as f64)
        .with_value("cov", coverage.count() as f64)
        .with_value("cov_hi", hi as f64)
        .with_value("cov_lo", lo as f64)
        .with_value("viols", violation_count as f64)
        .with_value("recorded", violations.len() as f64);
    for (i, (cand, run)) in violations.iter().enumerate() {
        let (addr, wevent, kind) = run.first_word.expect("recorded runs violate");
        // `v{i}_spec` repeats the oracle verdict so the report keeps its
        // value set byte for byte.
        out = out
            .with_value(&format!("v{i}_event"), cand.event as f64)
            .with_value(&format!("v{i}_fault"), cand.fault.kind_index() as f64)
            .with_value(&format!("v{i}_arg"), cand.fault.arg() as f64)
            .with_value(
                &format!("v{i}_rc"),
                cand.recovery_crash.map(|r| r as f64).unwrap_or(-1.0),
            )
            .with_value(&format!("v{i}_oracle"), 1.0)
            .with_value(&format!("v{i}_spec"), 1.0)
            .with_value(&format!("v{i}_addr_hi"), (addr >> 32) as u32 as f64)
            .with_value(&format!("v{i}_addr_lo"), addr as u32 as f64)
            .with_value(&format!("v{i}_wevent"), wevent as f64)
            .with_value(&format!("v{i}_kind"), kind as f64);
    }
    out
}

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let cfg = parse_config(p);
    let txs_per_core = (p.txs / CORES).max(1);
    let mut cells = Vec::new();
    for bench in &p.benches {
        if workload_by_name(bench).is_none() {
            eprintln!("error: unknown benchmark {bench:?}");
            std::process::exit(2);
        }
        for scheme in &cfg.schemes {
            let mut label = CellLabel::swc(scheme, bench, CORES);
            if let Some(ident) = &cfg.arrival {
                label = label.with_param(format!("arrival={ident}"));
            }
            cells.push(CellSpec::new(
                label,
                p.seed,
                CellWork::Fuzz {
                    scheme: scheme.clone(),
                    workload: bench.clone(),
                    txs_per_core,
                    execs: cfg.execs,
                    fault: cfg.fault.map(Fault::to_spec),
                    crash_event: cfg.crash_event,
                    recovery_crash: cfg.recovery_crash,
                    arrival: cfg.arrival.clone(),
                },
            ));
        }
    }
    cells
}

fn render(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let cfg = parse_config(p);
    let txs_per_core = (p.txs / CORES).max(1);
    writeln!(out, "Coverage-guided crash search ({CORES} cores)").unwrap();
    let faults = match cfg.fault {
        Some(f) => f.describe(),
        None => {
            format!("adr, torn-line(keep={DEFAULT_TORN_KEEP}), battery({DEFAULT_BATTERY_BYTES} B)")
        }
    };
    let arrival_note = match &cfg.arrival {
        Some(ident) => format!(", arrival {ident}"),
        None => String::new(),
    };
    writeln!(
        out,
        "{} txs/core, seed {}, budget {} execs/cell, faults: {}{}",
        txs_per_core, p.seed, cfg.execs, faults, arrival_note
    )
    .unwrap();
    writeln!(
        out,
        "{:<12}{:<10}{:>6}{:>8}{:>10}  {:<18}{:>10}",
        "scheme", "bench", "execs", "corpus", "coverage", "signature", "violations"
    )
    .unwrap();

    let mut total_execs = 0u64;
    let mut total_violations = 0u64;
    let mut rows = Vec::new();
    let mut repros: Vec<(String, Vec<String>)> = Vec::new();
    for (label, outcome) in cells {
        if let Some(err) = &outcome.error {
            writeln!(out, "ERROR {:<12}{:<10}{err}", label.scheme, label.workload).unwrap();
            rows.push(
                JsonValue::object()
                    .field("scheme", label.scheme.as_str())
                    .field("workload", label.workload.as_str())
                    .field("error", err.as_str())
                    .build(),
            );
            continue;
        }
        let execs = outcome.value("execs") as u64;
        let corpus = outcome.value("corpus") as u64;
        let cov = outcome.value("cov") as u64;
        let digest = format!(
            "{:08x}{:08x}",
            outcome.value("cov_hi") as u32,
            outcome.value("cov_lo") as u32
        );
        let viols = outcome.value("viols") as u64;
        total_execs += execs;
        total_violations += viols;
        writeln!(
            out,
            "{:<12}{:<10}{:>6}{:>8}{:>10}  {:<18}{:>10}",
            label.scheme, label.workload, execs, corpus, cov, digest, viols
        )
        .unwrap();
        let mut row = JsonValue::object()
            .field("scheme", label.scheme.as_str())
            .field("workload", label.workload.as_str())
            .field("execs", execs as f64)
            .field("corpus", corpus as f64)
            .field("coverage_bits", cov as f64)
            .field("signature", digest.as_str())
            .field("violations", viols as f64);
        if viols > 0 {
            let recorded = outcome.value("recorded") as usize;
            let mut detail = Vec::new();
            let mut row_repros = Vec::new();
            for i in 0..recorded {
                let fault = Fault::from_parts(
                    outcome.value(&format!("v{i}_fault")) as u64,
                    outcome.value(&format!("v{i}_arg")) as u64,
                )
                .expect("stored fault kind is valid");
                let event = outcome.value(&format!("v{i}_event")) as u64;
                let rc = outcome.value(&format!("v{i}_rc"));
                let arrival_flag = match &cfg.arrival {
                    Some(ident) => format!(" --arrival {ident}"),
                    None => String::new(),
                };
                let rc_flag = if rc >= 0.0 {
                    format!(" --recovery-crash {}", rc as u64)
                } else {
                    String::new()
                };
                let repro = format!(
                    "evaluate fuzz --scheme {} --bench {} --txs {} --seed {} \
                     --fault {}{} --crash-event {event}{rc_flag}{arrival_flag} \
                     --execs 1 --no-corpus",
                    label.scheme,
                    label.workload,
                    txs_per_core * CORES,
                    p.seed,
                    fault.name(),
                    fault.repro_flags(),
                );
                let word = outcome
                    .values
                    .iter()
                    .any(|(k, _)| k == &format!("v{i}_wevent"))
                    .then(|| {
                        let addr = ((outcome.value(&format!("v{i}_addr_hi")) as u64) << 32)
                            | outcome.value(&format!("v{i}_addr_lo")) as u64;
                        let wevent = outcome.value(&format!("v{i}_wevent")) as u64;
                        let kind = KINDS[outcome.value(&format!("v{i}_kind")) as usize];
                        (addr, wevent, kind)
                    });
                detail.push((fault, event, rc, word, repro.clone()));
                row_repros.push(repro);
            }
            let mut blocks = Vec::new();
            for (fault, event, rc, word, repro) in &detail {
                let mut block = format!(
                    "VIOLATION {} / {} / {} @ event {event}",
                    label.scheme,
                    label.workload,
                    fault.describe()
                );
                if *rc >= 0.0 {
                    write!(block, " (recovery re-crash after {} writes)", *rc as u64).unwrap();
                }
                block.push('\n');
                if let Some((addr, wevent, kind)) = word {
                    writeln!(
                        block,
                        "  first offending word: {addr:#018x} ({kind}, word event {wevent})"
                    )
                    .unwrap();
                }
                writeln!(block, "  minimal repro: {repro}").unwrap();
                blocks.push(block);
            }
            repros.push((blocks.concat(), row_repros.clone()));
            row = row.field(
                "repros",
                JsonValue::Arr(
                    row_repros
                        .iter()
                        .map(|r| JsonValue::Str(r.clone()))
                        .collect(),
                ),
            );
        }
        rows.push(row.build());
    }
    writeln!(
        out,
        "total: {total_violations} violations across {total_execs} executions"
    )
    .unwrap();
    for (block, _) in &repros {
        out.push_str(block);
    }
    JsonValue::object()
        .field("total_violations", total_violations as f64)
        .field("executions", total_execs as f64)
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// The `fuzz` spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fuzz",
        description: "coverage-guided crash search with the per-word executable spec",
        default_txs: 16,
        kind: ExpKind::Custom { build, render },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaced_points_never_hit_event_zero() {
        assert_eq!(spaced(100, 4), vec![12, 37, 62, 87]);
        assert!(spaced(1, 4).iter().all(|&e| e >= 1));
        assert!(spaced(0, 4).iter().all(|&e| e >= 1));
    }

    #[test]
    fn corpus_entries_round_trip() {
        for cand in [
            Candidate {
                fault: Fault::Adr,
                event: 17,
                recovery_crash: None,
            },
            Candidate {
                fault: Fault::Torn(48),
                event: 3,
                recovery_crash: Some(5),
            },
            Candidate {
                fault: Fault::Battery(64),
                event: 999,
                recovery_crash: None,
            },
        ] {
            let text = encode_entry(cand, "0123456789abcdef");
            assert_eq!(decode_entry(&text), Some(cand), "{text}");
        }
        assert_eq!(decode_entry(""), None);
        assert_eq!(decode_entry("{\"v\":999}"), None);
        assert_eq!(
            decode_entry("{\"v\":1,\"fault\":\"nope\",\"arg\":0,\"event\":1}"),
            None
        );
    }

    #[test]
    fn mutation_is_deterministic_and_stays_in_bounds() {
        let base = Candidate {
            fault: Fault::Battery(64),
            event: 50,
            recovery_crash: None,
        };
        let run = || {
            let mut rng = Xoshiro256::seeded(7);
            let mut c = base;
            let mut trail = Vec::new();
            for _ in 0..64 {
                c = mutate(&mut rng, c, 100, true);
                assert!(c.event >= 1 && c.event <= 100, "event {c:?} out of axis");
                assert!(
                    matches!(c.fault, Fault::Battery(_)),
                    "restricted mutation left its fault kind: {c:?}"
                );
                trail.push(c);
            }
            trail
        };
        assert_eq!(run(), run());
        // Unrestricted mutation reaches every fault kind.
        let mut rng = Xoshiro256::seeded(7);
        let mut c = base;
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..256 {
            c = mutate(&mut rng, c, 100, false);
            kinds.insert(c.fault.kind_index());
        }
        assert_eq!(kinds.len(), 3, "mutation never rotated to some fault kind");
    }

    #[test]
    fn rng_seed_separates_cells() {
        let a = rng_seed(42, "Silo", "Hash", None);
        assert_ne!(a, rng_seed(42, "Base", "Hash", None));
        assert_ne!(a, rng_seed(42, "Silo", "TPCC", None));
        assert_ne!(a, rng_seed(43, "Silo", "Hash", None));
        assert_ne!(a, rng_seed(42, "Silo", "Hash", Some("poisson2000")));
        assert_eq!(a, rng_seed(42, "Silo", "Hash", None));
    }

    #[test]
    fn single_candidate_search_finds_battery_violation() {
        // The undersized battery must violate at a mid-stream event on
        // Silo, localized to a word.
        let out = execute_fuzz(
            "Silo",
            "Hash",
            8,
            42,
            6,
            Some(FaultSpec::Battery(64)),
            None,
            None,
            None,
        );
        assert!(out.error.is_none());
        assert!(out.value("viols") > 0.0, "64 B battery must violate");
        assert_eq!(out.value("v0_oracle"), 1.0);
        assert_eq!(out.value("v0_spec"), 1.0);
        assert!(out.values.iter().any(|(k, _)| k == "v0_wevent"));
    }

    #[test]
    fn search_is_a_pure_function_of_its_inputs() {
        let run = || {
            let out = execute_fuzz("Silo", "Hash", 8, 42, 10, None, None, None, None);
            (
                out.value("execs"),
                out.value("corpus"),
                out.value("cov"),
                out.value("cov_hi"),
                out.value("cov_lo"),
                out.value("viols"),
            )
        };
        assert_eq!(run(), run());
    }
}
