//! In-memory span recorder for the traced run, plus the order statistics
//! every report uses.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (name, start, end, parent span) and kept in
//! memory until the run ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover, so parallel
//! children (sweep candidates evaluated on several threads) are counted
//! once.

use dagchkpt_core::{Objective, Schedule};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a top-level span.
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start: u64,
    end: u64,
}

/// Per-name totals of a finished trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration (nanoseconds).
    pub total_ns: u64,
    /// Summed self time: duration minus the union of child intervals.
    pub self_ns: u64,
}

/// Thread-safe span store; ids are unique within one recorder.
pub struct Recorder {
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            next: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Runs `f` inside a span named `name`; `f` gets the new span's id to
    /// parent its own children.
    pub fn span<R>(&self, parent: u32, name: &'static str, f: impl FnOnce(u32) -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        out
    }

    /// Durations (milliseconds) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.lock().expect("span store lock");
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter() {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| union_within(c, s.start, s.end));
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end - s.start;
            t.self_ns += (s.end - s.start).saturating_sub(covered);
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

/// An [`Objective`] that records one span per evaluation and counts them:
/// the traced run hands it to the optimizers in place of the evaluator it
/// wraps, so evaluator calls are counted from outside the core crate.
pub struct Counted<'a, O: Objective + ?Sized> {
    inner: &'a O,
    rec: &'a Recorder,
    parent: u32,
    name: &'static str,
    calls: AtomicU64,
}

impl<'a, O: Objective + ?Sized> Counted<'a, O> {
    pub fn new(inner: &'a O, rec: &'a Recorder, parent: u32, name: &'static str) -> Self {
        Counted {
            inner,
            rec,
            parent,
            name,
            calls: AtomicU64::new(0),
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<O: Objective + ?Sized> Objective for Counted<'_, O> {
    fn cost(&self, schedule: &Schedule) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rec
            .span(self.parent, self.name, |_| self.inner.cost(schedule))
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (`NaN` when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median seconds per call of `f` over `reps` calls.
pub fn time_each<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}
