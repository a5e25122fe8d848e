//! The outside-in span ledger of a traced run.
//!
//! Spans are recorded by the benchmark around its calls into the program's
//! public functions: a span has a name, the layer it bills, a start, an
//! end, a parent, and the id of the trace it belongs to (all spans of one
//! campaign cell share a trace id). Calls too small and too many to record
//! one by one — an `AccessIter::next`, a `TraceSink::on_event` — are folded
//! into one *aggregate* span per parent that carries the call count and
//! the summed busy time.
//!
//! Spans stay in memory until the run ends. A layer's self time is the
//! duration of its spans minus the part their children cover; a pool span
//! that fans out to `k` worker threads owns `k` threads' worth of time, so
//! its self time is the idle part of those threads.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sgx_preloading::kernel::LoggedEvent;
use sgx_preloading::prelude::{GaugeSample, TraceSink};
use sgx_preloading::workloads::{Access, AccessIter};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the ledger.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one cell (or one workload step).
    pub trace: u64,
    /// What was called.
    pub name: &'static str,
    /// The layer the span's self time is billed to.
    pub layer: &'static str,
    /// Start, nanoseconds since the ledger's epoch.
    pub start: u64,
    /// End, nanoseconds since the ledger's epoch.
    pub end: u64,
    /// For an aggregate span: `(calls, busy nanoseconds)`.
    pub agg: Option<(u64, u64)>,
    /// Worker threads the span fans out to (1 for an ordinary span).
    pub fanout: u32,
}

impl Span {
    /// Wall duration of the span.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from every thread of a traced run.
pub struct Ledger {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Calibrated cost of one timed call.
    pub timer: TimerCost,
}

/// What timing one call costs, in nanoseconds: the part that falls inside
/// the measured interval, and the whole.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimerCost {
    /// Nanoseconds per call counted in the call's measured interval.
    pub inside: f64,
    /// Nanoseconds per call in all.
    pub total: f64,
}

impl Ledger {
    /// A fresh ledger with a calibrated timer cost.
    pub fn new() -> Self {
        Ledger {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            timer: TimerCost::calibrate(),
        }
    }

    /// Nanoseconds since the ledger's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u32 {
        // A plain counter: it publishes no other data.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a local recorder for the spans of trace `trace`; its spans
    /// join the ledger when it is dropped.
    pub fn trace(&self, trace: u64) -> Recorder<'_> {
        Recorder {
            ledger: self,
            trace,
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far, sorted by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer lock"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Per-thread span buffer for one trace id.
pub struct Recorder<'a> {
    ledger: &'a Ledger,
    trace: u64,
    spans: Vec<Span>,
}

impl<'l> Recorder<'l> {
    /// The ledger this recorder feeds.
    pub fn ledger(&self) -> &'l Ledger {
        self.ledger
    }

    /// Runs `f` inside a span; `f` receives the recorder and the new
    /// span's id (to parent children on).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u32>,
        f: impl FnOnce(&mut Self, u32) -> R,
    ) -> R {
        self.span_fanout(name, layer, parent, 1, f)
    }

    /// Like [`Recorder::span`] for a span whose children run on `fanout`
    /// worker threads.
    pub fn span_fanout<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u32>,
        fanout: u32,
        f: impl FnOnce(&mut Self, u32) -> R,
    ) -> R {
        let id = self.ledger.fresh_id();
        let start = self.ledger.now();
        let out = f(self, id);
        let end = self.ledger.now();
        self.spans.push(Span {
            id,
            parent,
            trace: self.trace,
            name,
            layer,
            start,
            end,
            agg: None,
            fanout,
        });
        out
    }

    /// Records an aggregate span under `parent` from a probe's tallies.
    pub fn aggregate(&mut self, parent: u32, name: &'static str, layer: &'static str, p: &Probe) {
        let (calls, busy, first, last) = p.get();
        if calls == 0 {
            return;
        }
        self.spans.push(Span {
            id: self.ledger.fresh_id(),
            parent: Some(parent),
            trace: self.trace,
            name,
            layer,
            start: first,
            end: last,
            agg: Some((calls, busy)),
            fanout: 1,
        });
    }

    /// A fresh probe on this recorder's clock.
    pub fn probe(&self) -> Probe {
        Probe {
            epoch: self.ledger.epoch,
            tally: Rc::new(Cell::new((0, 0, u64::MAX, 0))),
        }
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        if let Ok(mut all) = self.ledger.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

/// Shared tally of many small timed calls: `(calls, busy ns, first start,
/// last end)`. Cloning shares the tally.
#[derive(Clone)]
pub struct Probe {
    epoch: Instant,
    tally: Rc<Cell<(u64, u64, u64, u64)>>,
}

impl Probe {
    /// Times one call of `f`.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let t1 = self.epoch.elapsed().as_nanos() as u64;
        let (n, busy, first, last) = self.tally.get();
        self.tally
            .set((n + 1, busy + (t1 - t0), first.min(t0), last.max(t1)));
        out
    }

    /// The tally so far.
    pub fn get(&self) -> (u64, u64, u64, u64) {
        self.tally.get()
    }
}

/// An `AccessIter` wrapper that times every `next` call and forwards the
/// access unchanged.
pub struct TimedIter {
    inner: AccessIter,
    probe: Probe,
}

impl TimedIter {
    /// Wraps `inner`; the probe accumulates its generation time.
    pub fn wrap(inner: AccessIter, probe: Probe) -> AccessIter {
        Box::new(TimedIter { inner, probe })
    }
}

impl Iterator for TimedIter {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let inner = &mut self.inner;
        self.probe.time(|| inner.next())
    }
}

/// A `TraceSink` decorator that times every call into the wrapped sink,
/// and the sink's drop (where buffering sinks render their output).
pub struct TimedSink {
    inner: Option<Box<dyn TraceSink>>,
    calls: Probe,
    finish: Probe,
}

impl TimedSink {
    /// Wraps `inner`: `calls` times `on_event`/`on_sample`, `finish` times
    /// the drop.
    pub fn wrap(inner: Box<dyn TraceSink>, calls: Probe, finish: Probe) -> Box<dyn TraceSink> {
        Box::new(TimedSink {
            inner: Some(inner),
            calls,
            finish,
        })
    }
}

impl TraceSink for TimedSink {
    fn on_event(&mut self, event: &LoggedEvent) {
        if let Some(inner) = self.inner.as_mut() {
            self.calls.time(|| inner.on_event(event));
        }
    }

    fn on_sample(&mut self, sample: &GaugeSample) {
        if let Some(inner) = self.inner.as_mut() {
            self.calls.time(|| inner.on_sample(sample));
        }
    }
}

impl Drop for TimedSink {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            self.finish.time(|| drop(inner));
        }
    }
}

impl TimerCost {
    /// Times an empty call through a [`Probe`]: the busy time the probe
    /// reports is the inside part, the wall time per call the whole.
    fn calibrate() -> Self {
        const CALLS: u64 = 4_000;
        let epoch = Instant::now();
        let mut samples: Vec<(f64, f64)> = (0..16)
            .map(|_| {
                let probe = Probe {
                    epoch,
                    tally: Rc::new(Cell::new((0, 0, u64::MAX, 0))),
                };
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    probe.time(|| std::hint::black_box(()));
                }
                let total = t0.elapsed().as_nanos() as f64 / CALLS as f64;
                (probe.get().1 as f64 / CALLS as f64, total)
            })
            .collect();
        samples.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let (inside, total) = samples[samples.len() / 2];
        TimerCost { inside, total }
    }
}

/// Self time per layer, in nanoseconds, over `spans`.
///
/// * An ordinary span's self time is its duration minus the union of its
///   ordinary children's intervals and minus its aggregate children's
///   coverage.
/// * An aggregate span of `n` calls bills `busy - n * timer.inside` to its
///   own layer, covers `busy + n * (timer.total - timer.inside)` of its
///   parent (the timing work outside the measured intervals), and bills
///   `n * timer.total` to the `trace` layer.
/// * A span with `fanout = k > 1` owns `k` threads for its duration; its
///   self time is `k * dur` minus the summed durations of its children
///   (the idle part of the pool).
pub fn layer_self_ns(spans: &[Span], timer: TimerCost) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let own = if let Some((calls, busy)) = s.agg {
            let (inside, outside) = agg_overhead(calls, busy, timer);
            *out.entry("trace").or_default() += inside + outside;
            busy as f64 - inside
        } else if s.fanout > 1 {
            let busy: u64 = kids.iter().map(|k| k.dur()).sum();
            (s.fanout as f64 * s.dur() as f64 - busy as f64).max(0.0)
        } else {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .filter(|k| k.agg.is_none())
                .map(|k| (k.start.max(s.start), k.end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let agg_cover: f64 = kids
                .iter()
                .filter_map(|k| k.agg)
                .map(|(calls, busy)| busy as f64 + agg_overhead(calls, busy, timer).1)
                .sum();
            (s.dur() as f64 - covered as f64 - agg_cover).max(0.0)
        };
        *out.entry(s.layer).or_default() += own;
    }
    out
}

/// The timing overhead of an aggregate span's `calls`: the part inside its
/// measured `busy` time (never more than all of it) and the part outside.
fn agg_overhead(calls: u64, busy: u64, timer: TimerCost) -> (f64, f64) {
    let inside = (calls as f64 * timer.inside).min(busy as f64);
    let outside = calls as f64 * (timer.total - timer.inside).max(0.0);
    (inside, outside)
}

/// Renders spans as a JSON array (written out when a traced run ends).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.trace,
            s.name,
            s.layer,
            s.start,
            s.end
        ));
        if let Some((calls, busy)) = s.agg {
            out.push_str(&format!(",\"calls\":{calls},\"busy_ns\":{busy}"));
        }
        if s.fanout > 1 {
            out.push_str(&format!(",\"fanout\":{}", s.fanout));
        }
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name: layer,
            layer,
            start,
            end,
            agg: None,
            fanout: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100 ─┬─ a 10..40 ─── c 20..30
        //              ├─ b 30..60   (overlaps a: union 10..60)
        //              └─ agg: 5 calls, 8 ns busy
        let mut agg = span(4, Some(0), "gen", 0, 100);
        agg.agg = Some((5, 8));
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 30, 60),
            span(3, Some(1), "c", 20, 30),
            agg,
        ];
        let t = layer_self_ns(&spans, TimerCost::default());
        assert_eq!(t["root"], 100.0 - 50.0 - 8.0);
        assert_eq!(t["a"], 30.0 - 10.0);
        assert_eq!(t["b"], 30.0);
        assert_eq!(t["c"], 10.0);
        assert_eq!(t["gen"], 8.0);
    }

    #[test]
    fn timer_cost_moves_from_aggregates_to_its_own_layer() {
        // root 0..100 ─┬─ a 10..40 ─── c 20..30
        //              └─ agg: 5 calls, 8 ns busy; timing a call costs
        //                 2 ns, 1 ns of it inside the measured interval
        let mut agg = span(3, Some(0), "gen", 0, 100);
        agg.agg = Some((5, 8));
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "c", 20, 30),
            agg,
        ];
        let timer = TimerCost {
            inside: 1.0,
            total: 2.0,
        };
        let t = layer_self_ns(&spans, timer);
        // The aggregate keeps 8 - 5 = 3 ns, covers 8 + 5 = 13 ns of its
        // parent, and bills 5 * 2 = 10 ns to the timer.
        assert_eq!(t["gen"], 3.0);
        assert_eq!(t["root"], 100.0 - 30.0 - 13.0);
        assert_eq!(t["trace"], 10.0);
        // Every nanosecond of a sequential tree is billed exactly once.
        assert_eq!(t.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn a_pool_span_owns_its_workers_idle_time() {
        let mut pool = span(1, Some(0), "pool", 10, 110);
        pool.fanout = 2;
        let spans = vec![
            span(0, None, "root", 0, 120),
            pool,
            span(2, Some(1), "cell", 10, 110),
            span(3, Some(1), "cell", 10, 70),
        ];
        let t = layer_self_ns(&spans, TimerCost::default());
        assert_eq!(t["root"], 20.0);
        assert_eq!(t["pool"], 200.0 - 160.0);
        assert_eq!(t["cell"], 160.0);
        // Thread time: the root's own 20 ns plus two workers for 100 ns.
        assert_eq!(t.values().sum::<f64>(), 220.0);
    }
}
