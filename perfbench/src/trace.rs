//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! the program's layers. When tracing is off every entry point returns
//! after one relaxed atomic load, so the untraced run pays nothing
//! measurable. Spans are kept in memory and written once, at the end, as
//! Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
    /// Request id for served requests; 0 elsewhere.
    pub req: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The innermost open span on this thread (0 at top level).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// An open span; it closes, and is recorded, when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Guard {
    /// The span's id (0 when tracing is off), for explicit children.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The instant the span opened.
    pub fn start(&self) -> Instant {
        self.start
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        push(
            self.id,
            self.parent,
            self.name.to_string(),
            self.start,
            Instant::now(),
            0,
        );
    }
}

/// Opens a span named `name` as a child of this thread's innermost span.
pub fn span(name: &'static str) -> Guard {
    let start = Instant::now();
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        start,
    }
}

/// Records an already-closed span with an explicit parent, returning its
/// id (0 when tracing is off). Used for served requests, whose spans
/// start at their scheduled send instant on another thread, and for the
/// phase durations a program call reports about itself.
pub fn record(name: &str, start: Instant, end: Instant, parent: u64, req: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(id, parent, name.to_string(), start, end, req);
    id
}

fn push(id: u64, parent: u64, name: String, start: Instant, end: Instant, req: u64) {
    let span = Span {
        id,
        parent,
        name,
        start_ns: ns(start),
        end_ns: ns(end).max(ns(start)),
        tid: TID.with(|t| *t),
        req,
    };
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span buffer poisoned").clone()
}

/// Self time of every span in seconds: its duration minus the part of its
/// interval covered by the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            (s.name.clone(), own as f64 * 1e-9)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Renders spans as Chrome trace-event JSON ("X" complete events, times
/// in microseconds).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            escape(&s.name),
            escape(s.name.split('.').next().unwrap_or("")),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req
        )
        .expect("writing to a String");
    }
    out.push_str("\n]}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns: a,
            end_ns: b,
            tid: 1,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0,100); children [10,30) and [20,50) overlap → 40 covered;
        // a child poking out past the parent is clipped.
        let spans = vec![
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 30),
            sp(3, 1, 20, 50),
            sp(4, 1, 90, 120),
        ];
        let st = self_times(&spans);
        assert!((st[0].1 - 50e-9).abs() < 1e-15, "{st:?}");
        assert!((st[1].1 - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn chrome_json_is_one_complete_event_per_span() {
        let json = chrome_json(&[sp(1, 0, 1000, 3000), sp(2, 1, 1500, 2000)]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"ts\":1.000,\"dur\":2.000"));
    }
}
