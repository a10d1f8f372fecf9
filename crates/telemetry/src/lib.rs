//! Pipeline observability: stage spans, counters and latency histograms.
//!
//! The reproduction pipeline (datagen → detectors → crawler → reports) is
//! instrumented against the [`Recorder`] trait. The default recorder,
//! [`NoopRecorder`], compiles every probe down to nothing — no clock
//! reads, no allocation — so instrumented code paths stay byte-identical
//! in output and effectively free when telemetry is off. The enabled
//! implementation, [`Registry`], keeps lock-free per-stage statistics
//! ([`StageStats`]: calls, records, wall time, a log-linear
//! [`LatencyHistogram`]) plus named counters and level [`Gauge`]s, and
//! snapshots into a text table or schema-stable JSON
//! (`idnre-metrics/2`).
//!
//! Stage names are dotted paths (`datagen.stream.plan`, `crawler.resolve`,
//! `report.table5`), which gives the flat registry a hierarchy for free.
//! On top of the flat registry sit three optional layers:
//!
//! - **traces** ([`TraceLog`], [`SpanCtx`]): a registry built with
//!   [`Registry::with_trace`] additionally logs explicitly-parented
//!   spans ([`Recorder::span_at`]) into a tree exportable as Chrome
//!   trace-event JSON (`idnre-trace/1`);
//! - **gauges** ([`Gauge`]): levels with peaks, for resource residency;
//! - **SLOs** ([`SloSpec`]): per-stage latency bounds evaluated from a
//!   snapshot, with the 0/3/4 clean/degraded/exceeded exit contract.
//!
//! # Examples
//!
//! ```
//! use idnre_telemetry::{Recorder, Registry};
//!
//! let registry = Registry::new();
//! {
//!     let mut span = registry.span("demo.stage");
//!     span.add_records(3);
//! } // span drop records the elapsed wall time
//! registry.incr("demo.counter");
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.stages[0].name, "demo.stage");
//! assert!(snapshot.render_json().contains("\"records\":3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gauge;
mod histogram;
mod registry;
mod render;
mod slo;
mod trace;

pub use gauge::Gauge;
pub use histogram::{bucket_bounds, bucket_index, LatencyHistogram, BUCKETS};
pub use registry::{Registry, StageStats};
pub use render::{CounterSnapshot, GaugeSnapshot, MetricsSnapshot, StageSnapshot, SCHEMA};
pub use slo::{SloReport, SloRule, SloSpec, SloStatus, SloViolation};
pub use trace::{SpanCtx, TraceEvent, TraceLog, TraceNode, TraceSnapshot, TRACE_SCHEMA};

use std::sync::Arc;
use std::time::Instant;

/// Counter names of the epoch engine's per-advance shard accounting, in
/// snapshot order: how many shards an epoch's delta stream marked dirty,
/// how many stayed clean (their resident partials were reused verbatim),
/// and how many were actually re-folded (dirty shards plus cache misses,
/// e.g. a tail shard whose boundary moved). Pre-registered by
/// `EpochState::advance` before its fan-out, like every scan counter family.
pub const EPOCH_SHARD_COUNTERS: [&str; 3] = [
    "epoch.shards.dirty",
    "epoch.shards.clean",
    "epoch.shards.refolded",
];

/// Gauge name for the number of per-(shard, pass) partials held resident
/// by the epoch engine's cache after an advance (level + peak).
pub const EPOCH_RESIDENT_PARTIALS: &str = "epoch.partials.resident";

/// The instrumentation hook threaded through the pipeline.
///
/// Every method has a no-op default, so implementations opt into exactly
/// what they observe. All methods take `&self`; implementations must be
/// internally synchronized (the pipeline records from worker threads).
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. Instrumented code may use
    /// this to skip building labels for a recorder that discards them.
    fn enabled(&self) -> bool {
        false
    }

    /// Opens a timed span for `name`; the drop records elapsed wall time.
    fn span(&self, _name: &str) -> Span {
        Span::disabled()
    }

    /// Opens a timed span for `name` positioned in the span tree: a child
    /// of `parent` at sibling slot `index` (shard number, stage position
    /// — whatever makes the slot deterministic across thread counts).
    ///
    /// Stage statistics accumulate exactly as with [`Recorder::span`];
    /// the position only matters to recorders that keep a trace, and only
    /// when `parent` is traced ([`SpanCtx::ROOT`] for top-level pipeline
    /// spans). The default ignores the position.
    fn span_at(&self, name: &str, _parent: SpanCtx, _index: u64) -> Span {
        self.span(name)
    }

    /// Creates a purely structural trace node (no stage stats, timing
    /// computed as the envelope of its children) under `parent`, and
    /// returns its context for parenting children — e.g. one group per
    /// analysis pass, created in registration order before fan-out so
    /// the tree shape never depends on worker scheduling. The default
    /// (and any recorder without a trace) returns [`SpanCtx::NONE`].
    fn trace_group(&self, _name: &str, _parent: SpanCtx, _index: u64) -> SpanCtx {
        SpanCtx::NONE
    }

    /// Sets gauge `name` to `v` (registering it at first touch).
    fn gauge_set(&self, _name: &str, _v: u64) {}

    /// Raises gauge `name` (level and peak) to at least `v` — the merge
    /// operation for folding an externally-tracked [`Gauge`]'s peak into
    /// the registry.
    fn gauge_max(&self, _name: &str, _v: u64) {}

    /// Records one pre-timed call of `name` (for latencies measured
    /// externally, e.g. per-item inside a tight loop).
    fn record_nanos(&self, _name: &str, _nanos: u64) {}

    /// Attributes `n` records to stage `name` without a timed call.
    fn add_records(&self, _name: &str, _n: u64) {}

    /// Adds `n` to counter `name` (registering it at first touch, so
    /// `add(name, 0)` pins a counter into the snapshot at zero).
    fn add(&self, _name: &str, _n: u64) {}

    /// Increments counter `name`.
    fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Pins `names` into the counter snapshot, in order, at zero.
    ///
    /// The registry renders counters in first-use order, so a
    /// multi-threaded stage whose workers race to touch counters first
    /// would make snapshot order depend on scheduling. Calling
    /// `preregister` before spawning workers fixes the order in one
    /// place; later `add`s merely accumulate.
    fn preregister(&self, names: &[&str]) {
        for name in names {
            self.add(name, 0);
        }
    }

    /// [`Recorder::preregister`] over several counter groups at once, in
    /// group order — one call covers a survey that touches e.g. outcome,
    /// retry and fault counter families from its workers.
    fn preregister_groups(&self, groups: &[&[&str]]) {
        for group in groups {
            self.preregister(group);
        }
    }

    /// Pins `names` into the *stage* snapshot, in order, with zero calls
    /// and zero records. Same first-use-order rationale as
    /// [`Recorder::preregister`], for stages whose first span may open on
    /// a racing worker thread.
    fn preregister_stages(&self, names: &[&str]) {
        for name in names {
            self.add_records(name, 0);
        }
    }
}

/// The do-nothing recorder: telemetry off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A span's reservation in a [`TraceLog`]: the id is allocated when the
/// span opens (so children can parent to it immediately via
/// [`Span::ctx`]); the event itself is pushed on drop.
struct TraceTicket {
    log: Arc<TraceLog>,
    id: u64,
    parent: u64,
    index: u64,
}

struct ActiveSpan {
    stats: Arc<StageStats>,
    started: Instant,
    records: u64,
    trace: Option<TraceTicket>,
}

/// An RAII stage timer: created by [`Recorder::span`], records one call
/// with the elapsed wall time when dropped. Disabled spans (from
/// [`NoopRecorder`]) never read the clock.
pub struct Span {
    inner: Option<ActiveSpan>,
}

impl Span {
    /// A span that records nothing.
    pub fn disabled() -> Self {
        Span { inner: None }
    }

    pub(crate) fn active(stats: Arc<StageStats>) -> Self {
        Span {
            inner: Some(ActiveSpan {
                stats,
                started: Instant::now(),
                records: 0,
                trace: None,
            }),
        }
    }

    pub(crate) fn active_traced(
        stats: Arc<StageStats>,
        log: Arc<TraceLog>,
        parent: SpanCtx,
        index: u64,
    ) -> Self {
        let id = log.alloc_id();
        Span {
            inner: Some(ActiveSpan {
                stats,
                started: Instant::now(),
                records: 0,
                trace: Some(TraceTicket {
                    log,
                    id,
                    parent: parent.id(),
                    index,
                }),
            }),
        }
    }

    /// Whether the span will record on drop.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's position in the trace tree, for parenting child
    /// spans; [`SpanCtx::NONE`] when the span is untraced, so children
    /// of an untraced span log no events either.
    pub fn ctx(&self) -> SpanCtx {
        self.inner
            .as_ref()
            .and_then(|a| a.trace.as_ref())
            .map(|t| SpanCtx::from_id(t.id))
            .unwrap_or(SpanCtx::NONE)
    }

    /// Attributes `n` records to the span's stage.
    pub fn add_records(&mut self, n: u64) {
        if let Some(active) = &mut self.inner {
            active.records += n;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.inner.take() {
            let nanos = active
                .started
                .elapsed()
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            active.stats.record_call(nanos, active.records);
            if let Some(ticket) = active.trace {
                let start = active
                    .started
                    .saturating_duration_since(ticket.log.origin())
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64;
                ticket.log.push(TraceEvent {
                    id: ticket.id,
                    parent: ticket.parent,
                    name: active.stats.name().to_string(),
                    index: ticket.index,
                    group: false,
                    start_nanos: start,
                    duration_nanos: nanos,
                });
            }
        }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop_only() {
        let registry = Registry::new();
        let span = registry.span("lifecycle");
        assert!(span.is_enabled());
        assert_eq!(registry.stage("lifecycle").calls(), 0);
        drop(span);
        assert_eq!(registry.stage("lifecycle").calls(), 1);
    }

    #[test]
    fn disabled_span_is_inert() {
        let mut span = Span::disabled();
        assert!(!span.is_enabled());
        span.add_records(10);
    }

    #[test]
    fn recorder_is_object_safe() {
        let recorders: Vec<Box<dyn Recorder>> =
            vec![Box::new(NoopRecorder), Box::new(Registry::new())];
        for recorder in &recorders {
            let mut span = recorder.span("dyn.stage");
            span.add_records(1);
            recorder.incr("dyn.counter");
        }
    }
}
