//! The stage/counter/gauge registry behind an enabled [`Recorder`].

use crate::gauge::Gauge;
use crate::histogram::LatencyHistogram;
use crate::render::{CounterSnapshot, GaugeSnapshot, MetricsSnapshot, StageSnapshot};
use crate::trace::{SpanCtx, TraceLog, TraceSnapshot};
use crate::{Recorder, Span};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Accumulated statistics for one named stage.
#[derive(Debug)]
pub struct StageStats {
    name: String,
    calls: AtomicU64,
    records: AtomicU64,
    wall_nanos: AtomicU64,
    hist: LatencyHistogram,
}

impl StageStats {
    fn new(name: &str) -> Self {
        StageStats {
            name: name.to_string(),
            calls: AtomicU64::new(0),
            records: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            hist: LatencyHistogram::new(),
        }
    }

    /// Folds one timed call into the stats.
    pub fn record_call(&self, nanos: u64, records: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.records.fetch_add(records, Ordering::Relaxed);
        self.wall_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.hist.record(nanos);
    }

    /// Attributes records to the stage without a timed call.
    pub fn add_records(&self, n: u64) {
        self.records.fetch_add(n, Ordering::Relaxed);
    }

    /// Stage name (dotted, e.g. `datagen.stream.plan`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of timed calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Records attributed to the stage.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Total wall time across calls, in nanoseconds.
    pub fn wall_nanos(&self) -> u64 {
        self.wall_nanos.load(Ordering::Relaxed)
    }

    /// Per-call latency histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }

    fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            name: self.name.clone(),
            calls: self.calls(),
            records: self.records(),
            wall_nanos: self.wall_nanos(),
            p50_nanos: self.hist.quantile(0.50),
            p90_nanos: self.hist.quantile(0.90),
            p99_nanos: self.hist.quantile(0.99),
            p999_nanos: self.hist.quantile(0.999),
            max_nanos: self.hist.max(),
        }
    }
}

/// Insertion-ordered name → value map (render order follows first use).
#[derive(Debug)]
struct OrderedMap<T> {
    index: HashMap<String, usize>,
    entries: Vec<T>,
}

impl<T> Default for OrderedMap<T> {
    fn default() -> Self {
        OrderedMap {
            index: HashMap::new(),
            entries: Vec::new(),
        }
    }
}

impl<T> OrderedMap<T> {
    fn get_or_insert_with(&mut self, name: &str, create: impl FnOnce() -> T) -> &T {
        let next = self.entries.len();
        let index = *self.index.entry(name.to_string()).or_insert(next);
        if index == next {
            self.entries.push(create());
        }
        &self.entries[index]
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.index.get(name).map(|&i| &self.entries[i])
    }
}

/// A thread-safe registry of stages, counters and gauges; the enabled
/// [`Recorder`]. Optionally carries a [`TraceLog`] (see
/// [`Registry::with_trace`]) into which explicitly-parented spans log a
/// hierarchical trace.
#[derive(Debug)]
pub struct Registry {
    stages: RwLock<OrderedMap<Arc<StageStats>>>,
    counters: RwLock<OrderedMap<(String, Arc<AtomicU64>)>>,
    gauges: RwLock<OrderedMap<(String, Arc<Gauge>)>>,
    trace: Option<Arc<TraceLog>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry (no trace).
    pub fn new() -> Self {
        Registry {
            stages: RwLock::new(OrderedMap::default()),
            counters: RwLock::new(OrderedMap::default()),
            gauges: RwLock::new(OrderedMap::default()),
            trace: None,
        }
    }

    /// Creates a registry that additionally logs a span tree: spans
    /// opened through [`Recorder::span_at`] with a traced parent write
    /// one trace event each, assembled by [`Registry::trace_snapshot`].
    pub fn with_trace() -> Self {
        Registry {
            trace: Some(Arc::new(TraceLog::new())),
            ..Self::new()
        }
    }

    /// The stats cell for `name`, creating it on first use.
    pub fn stage(&self, name: &str) -> Arc<StageStats> {
        if let Some(stats) = self.stages.read().get(name) {
            return Arc::clone(stats);
        }
        Arc::clone(
            self.stages
                .write()
                .get_or_insert_with(name, || Arc::new(StageStats::new(name))),
        )
    }

    /// The counter cell for `name`, creating it (at zero) on first use.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some((_, cell)) = self.counters.read().get(name) {
            return Arc::clone(cell);
        }
        Arc::clone(
            &self
                .counters
                .write()
                .get_or_insert_with(name, || (name.to_string(), Arc::new(AtomicU64::new(0))))
                .1,
        )
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .read()
            .get(name)
            .map(|(_, cell)| cell.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The gauge cell for `name`, creating it (at zero) on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some((_, cell)) = self.gauges.read().get(name) {
            return Arc::clone(cell);
        }
        Arc::clone(
            &self
                .gauges
                .write()
                .get_or_insert_with(name, || (name.to_string(), Arc::new(Gauge::new())))
                .1,
        )
    }

    /// Current level of a gauge (0 when never touched).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.gauges
            .read()
            .get(name)
            .map(|(_, cell)| cell.value())
            .unwrap_or(0)
    }

    /// Peak level of a gauge (0 when never touched).
    pub fn gauge_peak(&self, name: &str) -> u64 {
        self.gauges
            .read()
            .get(name)
            .map(|(_, cell)| cell.peak())
            .unwrap_or(0)
    }

    /// The assembled span tree, when tracing is on.
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.trace.as_ref().map(|log| log.snapshot())
    }

    /// A point-in-time copy of every stage and counter, in first-use order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stages = self
            .stages
            .read()
            .entries
            .iter()
            .map(|s| s.snapshot())
            .collect();
        let counters = self
            .counters
            .read()
            .entries
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = self
            .gauges
            .read()
            .entries
            .iter()
            .map(|(name, cell)| GaugeSnapshot {
                name: name.clone(),
                value: cell.value(),
                peak: cell.peak(),
            })
            .collect();
        MetricsSnapshot {
            stages,
            counters,
            gauges,
        }
    }
}

impl Recorder for Registry {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&self, name: &str) -> Span {
        Span::active(self.stage(name))
    }

    fn record_nanos(&self, name: &str, nanos: u64) {
        self.stage(name).record_call(nanos, 0);
    }

    fn add_records(&self, name: &str, n: u64) {
        self.stage(name).add_records(n);
    }

    fn add(&self, name: &str, n: u64) {
        self.counter(name).fetch_add(n, Ordering::Relaxed);
    }

    fn span_at(&self, name: &str, parent: SpanCtx, index: u64) -> Span {
        let stats = self.stage(name);
        match &self.trace {
            Some(log) if parent.is_traced() => {
                Span::active_traced(stats, Arc::clone(log), parent, index)
            }
            _ => Span::active(stats),
        }
    }

    fn trace_group(&self, name: &str, parent: SpanCtx, index: u64) -> SpanCtx {
        match &self.trace {
            Some(log) => log.group(name, parent, index),
            None => SpanCtx::NONE,
        }
    }

    fn gauge_set(&self, name: &str, v: u64) {
        self.gauge(name).set(v);
    }

    fn gauge_max(&self, name: &str, v: u64) {
        self.gauge(name).fetch_max(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoopRecorder;

    #[test]
    fn spans_accumulate_calls_and_records() {
        let registry = Registry::new();
        for i in 0..3u64 {
            let mut span = registry.span("stage.a");
            span.add_records(i);
        }
        let stats = registry.stage("stage.a");
        assert_eq!(stats.calls(), 3);
        assert_eq!(stats.records(), 3);
        assert_eq!(stats.histogram().count(), 3);
    }

    #[test]
    fn counters_register_at_zero_and_accumulate() {
        let registry = Registry::new();
        registry.add("c.zero", 0);
        registry.incr("c.hits");
        registry.add("c.hits", 4);
        assert_eq!(registry.counter_value("c.zero"), 0);
        assert_eq!(registry.counter_value("c.hits"), 5);
        assert_eq!(registry.counter_value("c.never"), 0);
        // Zero-valued registered counters still appear in snapshots.
        let snap = registry.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters[0].name, "c.zero");
    }

    #[test]
    fn snapshot_preserves_first_use_order() {
        let registry = Registry::new();
        registry.record_nanos("z.last", 10);
        registry.record_nanos("a.first", 10);
        registry.record_nanos("z.last", 10);
        let names: Vec<_> = registry
            .snapshot()
            .stages
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(names, ["z.last", "a.first"]);
    }

    #[test]
    fn preregister_pins_snapshot_order() {
        let registry = Registry::new();
        registry.preregister(&["scan.b", "scan.a", "scan.c"]);
        // Worker threads touching counters in any order cannot move them.
        registry.add("scan.c", 7);
        registry.incr("scan.a");
        let snap = registry.snapshot();
        let names: Vec<_> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["scan.b", "scan.a", "scan.c"]);
        assert_eq!(registry.counter_value("scan.c"), 7);
        assert_eq!(registry.counter_value("scan.b"), 0);
    }

    #[test]
    fn noop_recorder_is_inert() {
        let noop = NoopRecorder;
        assert!(!noop.enabled());
        let mut span = noop.span("anything");
        span.add_records(5);
        noop.incr("anything");
        drop(span);
    }

    #[test]
    fn gauges_snapshot_with_value_and_peak() {
        let registry = Registry::new();
        registry.gauge_set("mem.resident", 10);
        registry.gauge_set("mem.resident", 4);
        registry.gauge_max("mem.other", 7);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges.len(), 2);
        assert_eq!(snap.gauges[0].name, "mem.resident");
        assert_eq!(snap.gauges[0].value, 4);
        assert_eq!(snap.gauges[0].peak, 10);
        assert_eq!(registry.gauge_value("mem.other"), 7);
        assert_eq!(registry.gauge_peak("mem.never"), 0);
    }

    #[test]
    fn plain_registry_traces_nothing() {
        let registry = Registry::new();
        assert!(registry.trace_snapshot().is_none());
        let span = registry.span_at("a.stage", SpanCtx::ROOT, 0);
        assert!(!span.ctx().is_traced());
        assert_eq!(registry.trace_group("g", SpanCtx::ROOT, 0), SpanCtx::NONE);
        drop(span);
        // Stats still accumulate through span_at.
        assert_eq!(registry.stage("a.stage").calls(), 1);
    }

    #[test]
    fn traced_spans_form_a_tree() {
        let registry = Registry::with_trace();
        {
            let parent = registry.span_at("build", SpanCtx::ROOT, 0);
            assert!(parent.ctx().is_traced());
            let group = registry.trace_group("build.steps", parent.ctx(), 0);
            drop(registry.span_at("build.step", group, 1));
            drop(registry.span_at("build.step", group, 0));
        }
        // Spans parented NONE stay out of the trace but keep stats.
        drop(registry.span_at("hidden", SpanCtx::NONE, 0));
        let snap = registry.trace_snapshot().unwrap();
        let build = snap.root.child("build").expect("build under root");
        let steps = build.child("build.steps").expect("group under build");
        assert_eq!(steps.children.len(), 2);
        assert_eq!(steps.children[0].index, 0);
        assert!(snap.root.child("hidden").is_none());
        assert_eq!(registry.stage("hidden").calls(), 1);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let registry = Arc::new(Registry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        registry.incr("shared");
                        registry.record_nanos("stage.shared", 7);
                    }
                });
            }
        });
        assert_eq!(registry.counter_value("shared"), 4_000);
        assert_eq!(registry.stage("stage.shared").calls(), 4_000);
    }
}
