//! In-memory spans recorded around the public calls the benchmark makes
//! into `swdnn` and `sw_runtime`.
//!
//! A span has a name, a start and an end (seconds since the recorder was
//! created), the index of the span that was open when it started (its
//! parent) and the step or request id it belongs to. Spans stay in memory
//! and are written out once, when the benchmark ends. With tracing off
//! [`span`] only calls its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub id: u64,
}

struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn recording on or off for the calls that follow.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Run `f` inside a span named `name` for step or request `id`.
pub fn span<R>(name: &str, id: u64, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start = r.t0.elapsed().as_secs_f64();
        let parent = r.open.last().copied();
        let idx = r.spans.len();
        r.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            id,
        });
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.t0.elapsed().as_secs_f64();
            r.spans[idx].end = end;
            r.open.pop();
        });
    }
    out
}

/// Spans recorded since index `from`.
pub fn spans_since(from: usize) -> Vec<Span> {
    REC.with(|r| r.borrow().spans[from..].to_vec())
}

pub fn span_count() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// Per-name totals over a set of spans: `(calls, inclusive s, self s)`.
/// Self time is a span's duration minus the time its direct children
/// cover.
pub fn totals(spans: &[Span], base: usize) -> BTreeMap<String, (u64, f64, f64)> {
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < spans.len() {
                child_time[p] += s.end - s.start;
            }
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name.clone()).or_default();
        let d = s.end - s.start;
        e.0 += 1;
        e.1 += d;
        e.2 += d - child_time[i];
    }
    out
}

/// Share of a pass's wall time, in percent, that the spans attribute to a
/// layer. Only spans without children count, so the time a wrapper such as
/// `cluster.step` spends outside its child calls is unattributed. The
/// benchmark's own `bench.*` spans (checks and replays) and everything
/// inside them are taken out of both the attributed and the wall time.
pub fn coverage_pct(spans: &[Span], base: usize, wall: f64) -> f64 {
    let local = |s: &Span| s.parent.and_then(|p| p.checked_sub(base));
    let mut has_child = vec![false; spans.len()];
    let mut in_bench = vec![false; spans.len()];
    // Parents precede their children, so one forward sweep settles both.
    for (i, s) in spans.iter().enumerate() {
        let parent = local(s);
        if let Some(p) = parent {
            has_child[p] = true;
        }
        in_bench[i] = s.name.starts_with("bench.") || parent.is_some_and(|p| in_bench[p]);
    }
    let (mut attributed, mut bench) = (0.0, 0.0);
    for (i, s) in spans.iter().enumerate() {
        let d = s.end - s.start;
        if in_bench[i] {
            if local(s).is_none() {
                bench += d;
            }
        } else if !has_child[i] {
            attributed += d;
        }
    }
    100.0 * attributed / (wall - bench)
}

/// Every span as one JSON document (`{"spans": [...]}`); `base` is the
/// recorder index of `spans[0]`, so parents are indices into `spans`.
pub fn to_json(spans: &[Span], base: usize) -> String {
    let mut out = String::from("{\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s
            .parent
            .and_then(|p| p.checked_sub(base))
            .map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"i\":{i},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent},\"id\":{}}}",
            s.name, s.start, s.end, s.id
        ));
    }
    out.push_str("\n]}\n");
    out
}
