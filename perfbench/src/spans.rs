//! In-memory span recording for the traced replay.
//!
//! A [`Tracer`] records one [`Span`] per call into a layer: its name, start
//! and end (nanoseconds since the tracer was created), the span that was
//! open on the same thread when it started (its parent), and the digest of
//! the point it served, which every span of one point shares. Spans stay in
//! memory until [`Tracer::write_jsonl`] writes them out at the end of a run.
//! [`self_times`] turns them into per-layer self time: a span's duration
//! minus the part of it its child spans cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within its tracer, assigned when the span opens.
    pub id: u64,
    /// The span open on the same thread when this one opened.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `sim.single`.
    pub name: &'static str,
    /// The content digest of the point the span served, when known.
    pub point: Option<Arc<str>>,
    /// Nanoseconds since the tracer's creation.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's creation.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span on the current thread's stack.
struct OpenSpan {
    id: u64,
    point: Option<Arc<str>>,
}

thread_local! {
    /// The spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// Closes a span when dropped, so a panic inside the span still pops it
/// off the thread's stack.
struct Closer<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Closer<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        // The point may have been tagged while the span was open.
        let point = OPEN.with(|open| open.borrow_mut().pop().and_then(|s| s.point));
        // A poisoned list only loses this span; `Drop` must not panic.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                point,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Records spans from any number of threads into one in-memory list.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the span open on this
    /// thread, and returns its result.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let outer = open.last().map(|s| (s.id, s.point.clone()));
            open.push(OpenSpan {
                id,
                point: outer.as_ref().and_then(|(_, point)| point.clone()),
            });
            outer.map(|(id, _)| id)
        });
        let _open = Closer {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        };
        f()
    }

    /// Tags the innermost open span on this thread, and every span opened
    /// inside it from now on, with the point digest `point`.
    pub fn tag_point(&self, point: &str) {
        OPEN.with(|open| {
            if let Some(top) = open.borrow_mut().last_mut() {
                top.point = Some(Arc::from(point));
            }
        });
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }

    /// Writes every recorded span to `path` as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            let line = serde::Value::Object(vec![
                ("id".into(), serde::Value::UInt(span.id)),
                (
                    "parent".into(),
                    span.parent.map_or(serde::Value::Null, serde::Value::UInt),
                ),
                ("name".into(), serde::Value::Str(span.name.into())),
                (
                    "point".into(),
                    span.point
                        .as_deref()
                        .map_or(serde::Value::Null, |p| serde::Value::Str(p.into())),
                ),
                ("start_ns".into(), serde::Value::UInt(span.start_ns)),
                ("end_ns".into(), serde::Value::UInt(span.end_ns)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

/// Each span's self time in nanoseconds: its duration minus the length of
/// the union of its children's intervals, clipped to its own.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children.get_mut(&span.id).map_or(0, |intervals| {
                covered_ns(intervals, span.start_ns, span.end_ns)
            });
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// The length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Total self time in seconds per span name.
#[must_use]
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut totals = BTreeMap::new();
    for span in spans {
        *totals.entry(span.name).or_insert(0.0) += own[&span.id] as f64 * 1e-9;
    }
    totals
}
