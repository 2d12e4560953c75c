//! The span recorder of the traced run.
//!
//! A span times one call the benchmark makes into a layer of the program
//! (or one batch of calls, for layers whose single calls are too short to
//! time alone). Each span records its layer, name, start, end, parent and
//! op id. Spans stay in memory until [`write_out`], which also writes the
//! self time per layer: a span's duration minus the durations of its
//! direct children.
//!
//! The recorder starts disabled. A disabled [`span`] is one atomic load, so
//! the untraced run carries no tracing cost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use silo_types::JsonValue;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The program layer the call enters (`cache`, `result_store`, ...).
    pub layer: &'static str,
    /// The call, e.g. `CacheHierarchy::access`.
    pub name: String,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// The workload operation the call belongs to (cell, crash run,
    /// request) or the number of calls a batch span covers.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// The recorded spans. A panic elsewhere never leaves the list half
/// updated (each change is one push or one store), so a poisoned lock is
/// recovered rather than propagated, which also keeps [`Guard`]'s drop
/// from panicking.
fn spans() -> MutexGuard<'static, Vec<Span>> {
    recorder()
        .spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

/// Closes its span when dropped.
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span; it ends when the returned guard drops.
pub fn span(layer: &'static str, name: impl Into<String>, op: u64) -> Guard {
    let r = recorder();
    if !r.enabled.load(Ordering::Relaxed) {
        return Guard { index: None };
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let name = name.into();
    let mut spans = spans();
    let index = spans.len();
    spans.push(Span {
        layer,
        name,
        start_ns: r.epoch.elapsed().as_nanos() as u64,
        end_ns: 0,
        parent,
        op,
    });
    drop(spans);
    OPEN.with(|open| open.borrow_mut().push(index));
    Guard { index: Some(index) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let r = recorder();
        let end = r.epoch.elapsed().as_nanos() as u64;
        spans()[index].end_ns = end;
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == index) {
                open.remove(pos);
            }
        });
    }
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    spans().clone()
}

/// Total nanoseconds and count of the spans named `name` in `layer`.
pub fn total(spans: &[Span], layer: &str, name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
}

/// Self time per layer: each span's duration minus its direct children's.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *by_layer.entry(s.layer).or_insert(0) += s.ns().saturating_sub(children);
    }
    by_layer
}

/// Writes every span and the self time per layer to `path` as JSON.
pub fn write_out(path: &Path) -> std::io::Result<()> {
    let spans = snapshot();
    let rows: Vec<JsonValue> = spans
        .iter()
        .map(|s| {
            let parent = match s.parent {
                Some(p) => JsonValue::from(p),
                None => JsonValue::Null,
            };
            JsonValue::object()
                .field("layer", s.layer)
                .field("name", s.name.as_str())
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("parent", parent)
                .field("op", s.op)
                .build()
        })
        .collect();
    let self_ns = JsonValue::Obj(
        self_ns_by_layer(&spans)
            .into_iter()
            .map(|(layer, ns)| (layer.to_string(), JsonValue::from(ns)))
            .collect(),
    );
    let doc = JsonValue::object()
        .field("self_ns_by_layer", self_ns)
        .field("spans", JsonValue::Arr(rows))
        .build();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{doc}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // store [0, 100) holds execute [10, 80), which holds engine [20, 70).
        let spans = vec![
            s("result_store", 0, 100, None),
            s("cellspec", 10, 80, Some(0)),
            s("sim.engine", 20, 70, Some(1)),
            s("result_store", 200, 230, None),
        ];
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["result_store"], 30 + 30);
        assert_eq!(by_layer["cellspec"], 20);
        assert_eq!(by_layer["sim.engine"], 50);
        // Self times partition the top-level wall time.
        assert_eq!(by_layer.values().sum::<u64>(), 130);
        assert_eq!(total(&spans, "result_store", ""), (130, 2));
    }

    #[test]
    fn live_spans_nest_per_thread_and_vanish_when_disabled() {
        set_enabled(false);
        drop(span("off", "ignored", 0));
        set_enabled(true);
        {
            let _outer = span("outer", "a", 7);
            let _inner = span("inner", "b", 7);
        }
        let other = std::thread::spawn(|| drop(span("thread", "c", 1)));
        other.join().unwrap();
        set_enabled(false);
        let spans = snapshot();
        assert!(spans.iter().all(|s| s.layer != "off"));
        let outer = spans.iter().position(|s| s.layer == "outer").unwrap();
        let inner = spans.iter().find(|s| s.layer == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(inner.op, 7);
        assert!(inner.start_ns >= spans[outer].start_ns && inner.end_ns <= spans[outer].end_ns);
        let on_thread = spans.iter().find(|s| s.layer == "thread").unwrap();
        assert_eq!(on_thread.parent, None, "parents never cross threads");
    }
}
