//! In-memory spans around the benchmark's calls into the program.
//!
//! A span has a name, a start and end (ns since the run began), the id
//! of the span that caused it, and a request id shared by the spans of
//! one client request. Recording is off unless [`init`] enables it;
//! then every span lands in one in-memory list that [`write_out`]
//! dumps when the run ends, and [`self_times`] turns into each layer's
//! self time: a span's duration minus the part of it its children
//! cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Client request id; 0 outside requests.
    pub req: u64,
    /// Layer-qualified name, e.g. `hoplabels.serialize`.
    pub name: &'static str,
    /// Start, ns since the run began.
    pub start: u64,
    /// End, ns since the run began.
    pub end: u64,
}

struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static TRACER: OnceLock<Option<Tracer>> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off for the whole run. Only the first call
/// counts.
pub fn init(enabled: bool) {
    let _ = TRACER.set(enabled.then(|| Tracer {
        epoch: Instant::now(),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    }));
}

fn tracer() -> Option<&'static Tracer> {
    TRACER.get().and_then(Option::as_ref)
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    tracer().is_some()
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<(u64, u64, &'static str, Instant)>,
}

impl Guard {
    /// This span's id (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.open.map_or(0, |(id, ..)| id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let (Some(t), Some((id, parent, name, start))) = (tracer(), self.open) else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        let ns = |at: Instant| at.duration_since(t.epoch).as_nanos() as u64;
        let span = Span { id, parent, req: 0, name, start: ns(start), end: ns(end) };
        t.spans.lock().expect("span list lock poisoned").push(span);
    }
}

/// Open a span nested under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    let Some(t) = tracer() else { return Guard { open: None } };
    let id = t.next.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Guard { open: Some((id, parent, name, Instant::now())) }
}

/// Record a finished request span with an explicit parent and request
/// id, for requests whose send and receive happen on different
/// threads or interleave on one.
pub fn record(name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) {
    let Some(t) = tracer() else { return };
    let id = t.next.fetch_add(1, Ordering::Relaxed);
    let ns = |at: Instant| at.saturating_duration_since(t.epoch).as_nanos() as u64;
    let span = Span { id, parent, req, name, start: ns(start), end: ns(end) };
    t.spans.lock().expect("span list lock poisoned").push(span);
}

/// Run `f` inside a span and return its result with its wall time.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let guard = span(name);
    let start = Instant::now();
    let out = f();
    let took = start.elapsed();
    drop(guard);
    (out, took)
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    tracer().map(|t| t.spans.lock().expect("span list lock poisoned").clone()).unwrap_or_default()
}

/// Each span's self time (ns) — its duration minus the union of its
/// children's intervals clipped to it — grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        out.entry(s.name).or_default().push(s.end.saturating_sub(s.start).saturating_sub(covered));
    }
    out
}

/// Median self time of the spans named `name`, in seconds.
pub fn median_self_s(selfs: &BTreeMap<&'static str, Vec<u64>>, name: &str) -> Option<f64> {
    let ns: Vec<f64> = selfs.get(name)?.iter().map(|&v| v as f64).collect();
    crate::stats::median(&ns).map(|v| v / 1e9)
}

/// Write every span as one JSON object per line.
pub fn write_out(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.req, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, req: 0, name, start, end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp(1, 0, "phase", 0, 100),
            // Two overlapping requests cover 10..60; a third 80..90.
            sp(2, 1, "req", 10, 50),
            sp(3, 1, "req", 30, 60),
            sp(4, 1, "req", 80, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["phase"], vec![100 - 50 - 10]);
        assert_eq!(selfs["req"], vec![40, 30, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![sp(1, 0, "p", 100, 200), sp(2, 1, "c", 50, 150), sp(3, 1, "c", 190, 250)];
        assert_eq!(self_times(&spans)["p"], vec![100 - 50 - 10]);
    }

    #[test]
    fn leaf_self_time_is_its_duration_and_median_is_in_seconds() {
        let spans = vec![sp(1, 0, "x", 0, 1_000), sp(2, 0, "x", 0, 3_000), sp(3, 0, "x", 0, 2_000)];
        let selfs = self_times(&spans);
        assert_eq!(median_self_s(&selfs, "x"), Some(2e-6));
        assert_eq!(median_self_s(&selfs, "missing"), None);
    }
}
