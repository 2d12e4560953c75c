//! The `serve` workload: an in-process `Server` on a warmed store.
//!
//! Set-up starts a daemon on a fresh store and warms it with a pool of
//! [`POOL`] small delta cells. The measured phase is a closed loop of
//! `POST /cell` requests over at most `nproc` connections: a zipf mix over
//! the pool with the daemon's LRU capped at [`LRU_CAP`] (below the pool, so
//! both the memory and the disk tier serve), plus a [`MISS_SHARE`] of
//! fresh, small cells that miss and simulate. Every 200 body's statistics
//! must equal a direct `CellSpec::execute` of the same spec.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;

use silo_bench::exp::CellLabel;
use silo_bench::http::http_request;
use silo_bench::{
    CellSpec, CellWork, RunSpec, ServeOptions, Server, WorkloadSpec, FIG11_BENCHMARKS, SCHEMES,
};
use silo_types::JsonValue;

use crate::stats::{self, Tally};
use crate::{closed_loop, connections, span, Outcome};

/// Distinct cells in the warm pool: 5 schemes × 7 benchmarks × {1, 2} cores.
pub const POOL: usize = 70;
/// The daemon's in-memory LRU capacity, below the pool.
pub const LRU_CAP: usize = 24;
/// Share of requests for a fresh cell that must simulate.
pub const MISS_SHARE: f64 = 0.01;
/// Zipf exponent of the pool mix.
pub const ZIPF_S: f64 = 1.0;
/// Measured transactions of a pool cell, split across its cores, so every
/// pool answer carries the same work whichever cells the seed makes hot.
const POOL_TXS: usize = 40;
/// Measured transactions per core of a fresh cell.
const FRESH_TXS: usize = 10;
/// Set-up repetitions; `setup_s` is their median. Each set-up leaves its
/// pool's traces in the process's trace cache, so more set-ups would
/// raise the peak RSS this workload reports.
pub const SETUPS: u64 = 3;

fn delta(scheme: &str, bench: &str, cores: usize, txs: usize, seed: u64) -> CellSpec {
    CellSpec::new(
        CellLabel::swc(scheme, bench, cores),
        seed,
        CellWork::Delta(RunSpec::table_ii(
            scheme,
            WorkloadSpec::plain(bench),
            cores,
            txs,
        )),
    )
}

/// The warm pool, most popular first (the order is a seeded shuffle).
pub fn pool(seed: u64) -> Vec<CellSpec> {
    let mut cells = Vec::with_capacity(POOL);
    for cores in [1, 2] {
        for bench in FIG11_BENCHMARKS {
            for scheme in SCHEMES {
                cells.push(delta(scheme, bench, cores, POOL_TXS / cores, seed));
            }
        }
    }
    let mut keyed: Vec<(u64, CellSpec)> = cells
        .into_iter()
        .enumerate()
        .map(|(i, c)| (crate::mix(seed ^ crate::mix(i as u64)), c))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    keyed.into_iter().map(|(_, c)| c).collect()
}

/// What request `i` asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ask {
    /// Pool cell at this popularity rank.
    Pool(usize),
    /// A fresh cell, unique to this request.
    Fresh(u64),
}

/// Request `i` of the mix under `seed`.
pub fn ask(seed: u64, i: u64, cdf: &[f64]) -> Ask {
    if crate::unit(seed, i) < MISS_SHARE {
        return Ask::Fresh(i);
    }
    let u = crate::unit(seed ^ 0x5eed, i);
    Ask::Pool(cdf.partition_point(|&c| c < u).min(cdf.len() - 1))
}

/// The zipf cumulative distribution over `n` ranks.
pub fn zipf_cdf(n: usize) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = w.iter().sum();
    w.iter()
        .scan(0.0, |acc, x| {
            *acc += x / total;
            Some(*acc)
        })
        .collect()
}

/// The fresh cell of request `i`: a tiny one-core delta whose log-buffer
/// latency override (`i + 1` cycles) makes its spec unique. The override
/// leaves the trace alone, so fresh cells share seven traces and the
/// process's trace cache stays bounded however many requests run.
pub fn fresh(seed: u64, i: u64) -> CellSpec {
    let scheme = SCHEMES[(i % SCHEMES.len() as u64) as usize];
    let bench = FIG11_BENCHMARKS[((i / 5) % FIG11_BENCHMARKS.len() as u64) as usize];
    let mut cell = delta(scheme, bench, 1, FRESH_TXS, crate::mix(seed ^ 0xf7e5));
    if let CellWork::Delta(run) = &mut cell.work {
        run.config.log_buffer_latency = Some(i + 1);
    }
    cell
}

/// The statistics of an outcome as canonical JSON text (parsed and
/// re-serialized, so the daemon's body and a direct run compare equal
/// exactly when their values do).
pub fn canonical_stats(stats: &JsonValue) -> String {
    JsonValue::parse(&stats.to_string())
        .map(|v| v.to_string())
        .unwrap_or_default()
}

/// One answered request.
pub struct Reply {
    /// Which cell was asked for.
    pub ask: Ask,
    /// When the answer arrived.
    pub end: Instant,
    /// Round-trip milliseconds.
    pub ms: f64,
    /// HTTP status, 0 when the connection failed.
    pub status: u16,
    /// The daemon's `served` tier (`memory`, `disk`, `executed`, `merged`).
    pub served: &'static str,
    /// Canonical statistics of the answer; emptied once checked.
    pub stats: String,
    /// Whether the statistics equal the reference, once checked.
    pub matches: Option<bool>,
    /// Simulated measured transactions of the answer.
    pub txs: u64,
}

/// A running daemon with its pool and reference answers.
pub struct Session {
    server: Server,
    /// The pool this daemon was warmed with.
    pub pool: Vec<CellSpec>,
    /// The zipf CDF over the pool.
    pub cdf: Vec<f64>,
    /// The seed of the pool and the mix.
    pub seed: u64,
    reference: Vec<String>,
}

/// Starts a daemon on a fresh store and warms it with the pool. Returns
/// the session and the warm-up's failures.
pub fn start(seed: u64, tag: &str, lru_cap: usize) -> Result<Session, String> {
    let store = crate::scratch_dir().join(format!("serve-{tag}"));
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: connections(usize::MAX),
        queue_cap: 64,
        lru_cap,
        store_dir: Some(store),
    })
    .map_err(|e| format!("starting the daemon: {e}"))?;
    let pool = pool(seed);
    let addr = server.addr();
    let warm = closed_loop(
        usize::MAX,
        |n| n >= pool.len(),
        |i| Some(post_cell(addr, &pool[i as usize], Ask::Pool(i as usize))),
    );
    let session = Session {
        server,
        pool,
        cdf: zipf_cdf(POOL),
        seed,
        reference: Vec::new(),
    };
    match warm
        .iter()
        .find(|r| r.status != 200 || r.served != "executed")
    {
        Some(r) => {
            let msg = format!(
                "warming {:?}: status {} served {:?}",
                r.ask, r.status, r.served
            );
            session.stop();
            Err(msg)
        }
        None => Ok(session),
    }
}

/// Sends one `POST /cell` and reads the answer.
pub fn post_cell(addr: SocketAddr, spec: &CellSpec, ask: Ask) -> Reply {
    let body = {
        let _g = span::span("cellspec", "CellSpec::to_json", 0);
        spec.to_json().to_string()
    };
    let t = Instant::now();
    let got = {
        let _g = span::span("serve", "POST /cell", 0);
        http_request(addr, "POST", "/cell", Some(&body))
    };
    let end = Instant::now();
    let mut reply = Reply {
        ask,
        end,
        ms: (end - t).as_secs_f64() * 1e3,
        status: 0,
        served: "",
        stats: String::new(),
        matches: None,
        txs: 0,
    };
    if let Ok(resp) = got {
        reply.status = resp.status;
        if let Ok(v) = JsonValue::parse(&resp.body) {
            let tier = v.get("served").and_then(JsonValue::as_str);
            reply.served = ["memory", "disk", "executed", "merged"]
                .into_iter()
                .find(|t| Some(*t) == tier)
                .unwrap_or("unknown");
            if let Some(stats) = v.get("cell").and_then(|c| c.get("stats")) {
                reply.txs = stats
                    .get("txs_committed")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                reply.stats = canonical_stats(stats);
            }
        }
    }
    reply
}

impl Session {
    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Computes the reference answer of every pool cell by direct
    /// execution.
    pub fn compute_reference(&mut self) {
        self.reference = self
            .pool
            .iter()
            .map(|spec| {
                let _g = span::span("cellspec", "CellSpec::execute", 0);
                spec.execute()
                    .stats
                    .map(|s| canonical_stats(&s.to_json()))
                    .unwrap_or_default()
            })
            .collect();
    }

    /// The spec request `ask` names.
    pub fn spec(&self, ask: Ask) -> CellSpec {
        match ask {
            Ask::Pool(rank) => self.pool[rank].clone(),
            Ask::Fresh(i) => fresh(self.seed, i),
        }
    }

    /// Drives requests `offset, offset + 1, ...` of the mix until
    /// `stop(issued)`. Pool answers are checked against the reference as
    /// they arrive and drop their statistics. Every reply goes to
    /// `record`, and only those it returns `true` for are kept, so memory
    /// need not grow with the request count.
    pub fn drive(
        &self,
        offset: u64,
        stop: impl Fn(usize) -> bool + Sync,
        record: impl Fn(&Reply) -> bool + Sync,
    ) -> Vec<Reply> {
        let addr = self.addr();
        closed_loop(usize::MAX, stop, |i| {
            let ask = ask(self.seed, offset + i, &self.cdf);
            let mut reply = post_cell(addr, &self.spec(ask), ask);
            if let Ask::Pool(rank) = ask {
                reply.matches = Some(reply.stats == self.reference[rank]);
                reply.stats = String::new();
            }
            record(&reply).then_some(reply)
        })
    }

    /// Checks every reply: status 200 and statistics equal to a direct
    /// execution (pool cells against the reference, fresh cells executed
    /// now).
    pub fn verify(&self, replies: &[Reply], tally: &mut Tally) {
        let fresh_asks: Vec<u64> = replies
            .iter()
            .filter_map(|r| match r.ask {
                Ask::Fresh(i) => Some(i),
                Ask::Pool(_) => None,
            })
            .collect();
        // The fresh cells' direct executions, on as many threads as the
        // daemon has workers.
        let mut fresh_refs = closed_loop(
            usize::MAX,
            |n| n >= fresh_asks.len(),
            |n| {
                let outcome = fresh(self.seed, fresh_asks[n as usize]).execute();
                Some(
                    outcome
                        .stats
                        .map_or_else(String::new, |s| canonical_stats(&s.to_json())),
                )
            },
        )
        .into_iter();
        for r in replies {
            let matches = match r.ask {
                Ask::Pool(_) => r.matches == Some(true),
                Ask::Fresh(_) => {
                    let want = fresh_refs.next().unwrap_or_default();
                    !want.is_empty() && r.stats == want
                }
            };
            tally.check(r.status == 200 && matches, || {
                format!(
                    "{:?}: status {}, served {:?}, stats match {matches}",
                    r.ask, r.status, r.served
                )
            });
        }
    }

    /// Reads the daemon's `GET /stats`.
    pub fn daemon_stats(&self) -> Option<JsonValue> {
        let resp = http_request(self.addr(), "GET", "/stats", None).ok()?;
        JsonValue::parse(&resp.body).ok()
    }

    /// Stops the daemon and waits for it.
    pub fn stop(self) {
        let _ = http_request(self.server.addr(), "POST", "/shutdown", None);
        self.server.wait();
    }
}

/// Latency summaries of a reply set: `(hits, misses)` milliseconds.
pub fn split(replies: &[Reply]) -> (Vec<f64>, Vec<f64>) {
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for r in replies {
        if r.served == "executed" {
            misses.push(r.ms);
        } else {
            hits.push(r.ms);
        }
    }
    (hits, misses)
}

/// Sets the workload up [`SETUPS`] times (each on its own store and pool
/// seed) and keeps the last daemon. Returns it with the set-up seconds.
pub fn set_up(seed: u64, tally: &mut Tally) -> Option<(Session, Vec<f64>)> {
    let mut setups = Vec::new();
    let mut kept: Option<Session> = None;
    for r in 0..SETUPS {
        if let Some(old) = kept.take() {
            old.stop();
        }
        let t = Instant::now();
        match start(crate::mix(seed ^ r), &format!("setup{r}"), LRU_CAP) {
            Ok(s) => {
                setups.push(t.elapsed().as_secs_f64());
                kept = Some(s);
            }
            Err(msg) => {
                tally.check(false, || msg);
                return None;
            }
        }
    }
    kept.map(|s| (s, setups))
}

/// A percentile for the summary, with its sample count; when too few
/// samples lie beyond it, names the highest percentile that may be shown.
fn pct(xs: &[f64], p: f64) -> String {
    match stats::percentile(xs, p) {
        Some(v) => format!("{v:.4} ms (n = {})", xs.len()),
        None => format!(
            "n/a: n = {}, highest reportable percentile {:?}",
            xs.len(),
            stats::highest_reportable(xs.len(), &[50.0, 90.0, 99.0])
        ),
    }
}

/// The untraced `serve` run.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut tally = Tally::default();
    let Some((mut session, setups)) = set_up(seed, &mut tally) else {
        return Outcome {
            tally,
            metrics: Vec::new(),
            notes: Vec::new(),
        };
    };
    session.compute_reference();
    struct Sink {
        windows: stats::Windows,
        hits: Vec<f64>,
        misses: Vec<f64>,
        passed: u64,
    }
    let deadline = crate::Deadline::new(seconds);
    let start = Instant::now();
    let sink = Mutex::new(Sink {
        windows: stats::Windows::covering(deadline.run_s(), crate::WINDOW_S),
        // Reserved up front: a doubling vector would add a copy's worth of
        // memory to the peak RSS whenever the count crossed a power of two.
        hits: Vec::with_capacity(1 << 20),
        misses: Vec::new(),
        passed: 0,
    });
    // Keeps only the replies that still need checking: fresh cells, and
    // pool answers that did not match.
    let kept = session.drive(
        0,
        |_| deadline.passed(),
        |r| {
            let mut s = sink.lock().expect("no panic holds the lock");
            // Only a miss simulates: the N- and 2N-transaction runs of its
            // cell. A hit only reads the store.
            let simulated = if r.served == "executed" { 3 * r.txs } else { 0 };
            s.windows
                .add((r.end - start).as_secs_f64(), r.ms, simulated as f64);
            if r.served == "executed" {
                s.misses.push(r.ms);
            } else {
                s.hits.push(r.ms);
            }
            let passed = r.status == 200 && r.matches == Some(true);
            s.passed += u64::from(passed);
            !passed
        },
    );
    // Taken before the answers are checked: the direct executions of the
    // check are the benchmark's work, not the daemon's.
    let rss = crate::peak_rss_mb();
    session.verify(&kept, &mut tally);
    session.stop();
    let Sink {
        windows,
        hits,
        misses,
        passed,
    } = sink.into_inner().expect("no panic holds the lock");
    for _ in 0..passed {
        tally.check(true, String::new);
    }

    let series = crate::Series {
        ops_per_s: windows.rates(),
        sim_tx_per_s: windows.weight_rates(),
        op_p50_ms: windows.percentiles(50.0),
        op_p90_ms: windows.percentiles(90.0),
    };
    let (metrics, mut notes) = series.metrics(&setups, rss);
    notes.extend([
        format!(
            "{} requests over {} connections: {} hits, {} misses",
            hits.len() + misses.len(),
            connections(usize::MAX),
            hits.len(),
            misses.len()
        ),
        format!("hit_p50_ms  {}", pct(&hits, 50.0)),
        format!("hit_p99_ms  {}", pct(&hits, 99.0)),
        format!("miss_p50_ms {}", pct(&misses, 50.0)),
        format!("fail_ratio  {:.4} failed/attempted", tally.fail_ratio()),
    ]);
    Outcome {
        metrics,
        notes,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_seeded_and_mostly_pool() {
        let cdf = zipf_cdf(POOL);
        assert!((cdf[POOL - 1] - 1.0).abs() < 1e-12);
        let a: Vec<Ask> = (0..5000).map(|i| ask(7, i, &cdf)).collect();
        let b: Vec<Ask> = (0..5000).map(|i| ask(7, i, &cdf)).collect();
        assert_eq!(a, b);
        let misses = a.iter().filter(|x| matches!(x, Ask::Fresh(_))).count();
        assert!((20..80).contains(&misses), "{misses} fresh of 5000");
        let top = a.iter().filter(|x| **x == Ask::Pool(0)).count();
        let tail = a.iter().filter(|x| **x == Ask::Pool(POOL - 1)).count();
        assert!(top > 10 * tail.max(1), "zipf skew: top {top}, tail {tail}");
        assert_eq!(pool(7).len(), POOL);
        assert_ne!(fresh(7, 1).spec_hash(), fresh(7, 36).spec_hash());
    }
}
