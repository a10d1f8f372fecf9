//! Sharded streaming analysis engine.
//!
//! The batch pipeline materialized the whole synthetic corpus and let every
//! report generator rescan it; this crate inverts that shape. A
//! [`ShardedScan`] streams the corpus from a [`RecordSource`] in fixed-size
//! shards over `idnre-par`, feeds **every registered [`AnalysisPass`] in one
//! fused traversal**, and merges the per-shard [`Merge`] partials in
//! deterministic shard order. Because partial merge is associative and the
//! fold order is fixed by shard index (never by scheduling), the finished
//! outputs are byte-identical across thread counts *and* shard sizes — the
//! same mergeable-partial-aggregate contract Janus uses for incremental DNS
//! verification, applied to the paper's measurement tables.
//!
//! Memory stays bounded: a [`RecordSource`] materializes one shard per
//! worker at a time, so peak resident records ≈ `shard_size × workers`
//! regardless of corpus scale (see `datagen.peak_resident_records`).

use idnre_datagen::{DomainRegistration, KeyedCorpus};
use idnre_telemetry::{Recorder, SpanCtx};
use std::any::Any;
use std::marker::PhantomData;
use std::time::Instant;

pub mod aggregate;
pub mod epoch;

pub use aggregate::KeyedTally;
pub use epoch::{DeltaKind, DeltaStream, EpochSource, EpochState, EpochStats, RecordDelta};

/// Span name of the fused traversal; its record count equals the corpus
/// size, which is how "exactly one corpus traversal" is asserted.
pub const SCAN_SPAN: &str = "analyze.scan";

/// A partial aggregate that can be combined with a later one.
///
/// `merge` MUST be associative: `(a·b)·c == a·(b·c)` for partials built
/// from consecutive record ranges. The scan only ever merges *adjacent*
/// ranges in shard order, so commutativity is NOT required — order-sensitive
/// accumulators (concatenated finding lists, first-occurrence key orders)
/// are valid partials.
pub trait Merge: Sized {
    /// Combines `self` (earlier records) with `later` (subsequent records).
    #[must_use]
    fn merge(self, later: Self) -> Self;
}

impl<T> Merge for Vec<T> {
    fn merge(mut self, mut later: Self) -> Self {
        self.append(&mut later);
        self
    }
}

impl Merge for u64 {
    fn merge(self, later: Self) -> Self {
        self + later
    }
}

impl Merge for () {
    fn merge(self, (): Self) -> Self {}
}

impl<A: Merge, B: Merge> Merge for (A, B) {
    fn merge(self, later: Self) -> Self {
        (self.0.merge(later.0), self.1.merge(later.1))
    }
}

impl<A: Merge, B: Merge, C: Merge> Merge for (A, B, C) {
    fn merge(self, later: Self) -> Self {
        (
            self.0.merge(later.0),
            self.1.merge(later.1),
            self.2.merge(later.2),
        )
    }
}

/// Which corpus population a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Population {
    /// IDN registrations (bulk + ordinary + injected attacks).
    Idn,
    /// The non-IDN comparison population.
    NonIdn,
}

/// One record as seen by a pass during the fused traversal.
#[derive(Debug, Clone, Copy)]
pub struct Observed<'a> {
    /// The registration record.
    pub reg: &'a DomainRegistration,
    /// Which population it came from.
    pub population: Population,
    /// Global index within its population (0-based, corpus order).
    pub index: u64,
}

/// One analysis dimension folded over the shared corpus traversal.
///
/// Implementations observe records into a [`Merge`]-able `Partial` and
/// convert the fully merged partial into their `Output`. `name` doubles as
/// the telemetry span name (one span per shard, records = shard length);
/// `counters` are pre-registered before the fan-out so multi-threaded
/// observation cannot perturb snapshot order.
pub trait AnalysisPass: Sync {
    /// The mergeable per-shard accumulator.
    type Partial: Merge + Clone + PartialEq + Send + 'static;
    /// The finished analysis product.
    type Output: 'static;

    /// Stable pass name, used as the telemetry span name.
    fn name(&self) -> &'static str;

    /// Counters this pass may touch from worker threads.
    fn counters(&self) -> &'static [&'static str] {
        &[]
    }

    /// A partial representing "no records observed".
    fn empty(&self) -> Self::Partial;

    /// Folds one record into a partial.
    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, recorder: &dyn Recorder);

    /// Called once after each shard's record loop (inside the pass's
    /// shard span). Passes that tally counters accumulate them in the
    /// partial during [`AnalysisPass::observe`] and flush here in one
    /// batched [`Recorder::add`] per shard — per-record recorder calls
    /// from `observe` would put a synchronized counter touch in the hot
    /// loop and break the scan's instrumentation budget. Default: no-op.
    fn shard_end(&self, _partial: &mut Self::Partial, _recorder: &dyn Recorder) {}

    /// Converts the fully merged partial into the pass output.
    fn finish(&self, partial: Self::Partial) -> Self::Output;
}

/// Object-safe shim over [`AnalysisPass`] so one scan can drive passes with
/// heterogeneous partial/output types.
trait DynPass: Sync {
    fn name(&self) -> &'static str;
    fn counters(&self) -> &'static [&'static str];
    fn empty_box(&self) -> Box<dyn Any + Send>;
    fn observe_box(
        &self,
        partial: &mut (dyn Any + Send),
        rec: &Observed<'_>,
        recorder: &dyn Recorder,
    );
    fn shard_end_box(&self, partial: &mut (dyn Any + Send), recorder: &dyn Recorder);
    fn merge_box(&self, a: Box<dyn Any + Send>, b: Box<dyn Any + Send>) -> Box<dyn Any + Send>;
    fn clone_box(&self, partial: &(dyn Any + Send)) -> Box<dyn Any + Send>;
    fn eq_box(&self, a: &(dyn Any + Send), b: &(dyn Any + Send)) -> bool;
    fn finish_box(&self, partial: Box<dyn Any + Send>) -> Box<dyn Any>;
}

/// One type-erased partial per registered pass, in registration order.
type Partials = Vec<Box<dyn Any + Send>>;

fn downcast<P: 'static>(partial: Box<dyn Any + Send>) -> P {
    *partial
        .downcast::<P>()
        .unwrap_or_else(|_| panic!("pass partial type mismatch"))
}

impl<P: AnalysisPass> DynPass for P {
    fn name(&self) -> &'static str {
        AnalysisPass::name(self)
    }

    fn counters(&self) -> &'static [&'static str] {
        AnalysisPass::counters(self)
    }

    fn empty_box(&self) -> Box<dyn Any + Send> {
        Box::new(self.empty())
    }

    fn observe_box(
        &self,
        partial: &mut (dyn Any + Send),
        rec: &Observed<'_>,
        recorder: &dyn Recorder,
    ) {
        let partial = partial
            .downcast_mut::<P::Partial>()
            .expect("pass partial type mismatch");
        self.observe(partial, rec, recorder);
    }

    fn shard_end_box(&self, partial: &mut (dyn Any + Send), recorder: &dyn Recorder) {
        let partial = partial
            .downcast_mut::<P::Partial>()
            .expect("pass partial type mismatch");
        self.shard_end(partial, recorder);
    }

    fn merge_box(&self, a: Box<dyn Any + Send>, b: Box<dyn Any + Send>) -> Box<dyn Any + Send> {
        Box::new(downcast::<P::Partial>(a).merge(downcast::<P::Partial>(b)))
    }

    fn clone_box(&self, partial: &(dyn Any + Send)) -> Box<dyn Any + Send> {
        Box::new(
            partial
                .downcast_ref::<P::Partial>()
                .expect("pass partial type mismatch")
                .clone(),
        )
    }

    fn eq_box(&self, a: &(dyn Any + Send), b: &(dyn Any + Send)) -> bool {
        a.downcast_ref::<P::Partial>() == b.downcast_ref::<P::Partial>()
    }

    fn finish_box(&self, partial: Box<dyn Any + Send>) -> Box<dyn Any> {
        Box::new(self.finish(downcast::<P::Partial>(partial)))
    }
}

/// Streams corpus records shard by shard.
///
/// Implementations materialize (or borrow) one shard at a time; the scan
/// never asks for the whole population at once, which is what keeps peak
/// residency at `shard_size × workers`.
pub trait RecordSource: Sync {
    /// Size of `population`'s **index space**. For dense sources this is
    /// the record count; an epoch overlay reports the full span including
    /// removal holes, so indices (and the shard grid) stay stable as
    /// records come and go.
    fn population_len(&self, population: Population) -> u64;

    /// Calls `f` exactly once with the records of index range
    /// `[start, start + len)` of `population`, in corpus order. Sources
    /// with holes yield only the surviving records.
    fn with_shard(
        &self,
        population: Population,
        start: u64,
        len: usize,
        f: &mut dyn FnMut(&[DomainRegistration]),
    );

    /// Like [`RecordSource::with_shard`], additionally yielding each
    /// record's **stable global index** (parallel to the record slice).
    /// The default supplies the dense enumeration `start..start + n` —
    /// exactly what the scan used to compute inline — so existing sources
    /// need no changes. Overlay sources with removal holes override this
    /// to keep surviving records at their original indices, which is what
    /// keeps index-addressed pass state (column rows, head-sample cutoffs)
    /// valid across epochs.
    fn with_shard_indexed(
        &self,
        population: Population,
        start: u64,
        len: usize,
        f: &mut dyn FnMut(&[DomainRegistration], &[u64]),
    ) {
        self.with_shard(population, start, len, &mut |records| {
            let indices: Vec<u64> = (start..start + records.len() as u64).collect();
            f(records, &indices);
        });
    }
}

/// A [`RecordSource`] over fully materialized batch vectors.
#[derive(Debug, Clone, Copy)]
pub struct SliceSource<'a> {
    idn: &'a [DomainRegistration],
    non_idn: &'a [DomainRegistration],
}

impl<'a> SliceSource<'a> {
    /// Wraps the two batch populations.
    pub fn new(idn: &'a [DomainRegistration], non_idn: &'a [DomainRegistration]) -> Self {
        SliceSource { idn, non_idn }
    }

    fn slice(&self, population: Population) -> &'a [DomainRegistration] {
        match population {
            Population::Idn => self.idn,
            Population::NonIdn => self.non_idn,
        }
    }
}

impl RecordSource for SliceSource<'_> {
    fn population_len(&self, population: Population) -> u64 {
        self.slice(population).len() as u64
    }

    fn with_shard(
        &self,
        population: Population,
        start: u64,
        len: usize,
        f: &mut dyn FnMut(&[DomainRegistration]),
    ) {
        let start = start as usize;
        f(&self.slice(population)[start..start + len]);
    }
}

/// A [`RecordSource`] that regenerates each shard on demand from a
/// streaming [`KeyedCorpus`] plan. Residency is tracked by the corpus's
/// gauge: only the shards currently being observed are materialized.
#[derive(Debug, Clone, Copy)]
pub struct StreamSource<'a> {
    corpus: &'a KeyedCorpus,
}

impl<'a> StreamSource<'a> {
    /// Wraps a streaming corpus plan.
    pub fn new(corpus: &'a KeyedCorpus) -> Self {
        StreamSource { corpus }
    }
}

impl RecordSource for StreamSource<'_> {
    fn population_len(&self, population: Population) -> u64 {
        match population {
            Population::Idn => self.corpus.idn_len(),
            Population::NonIdn => self.corpus.non_idn_len(),
        }
    }

    fn with_shard(
        &self,
        population: Population,
        start: u64,
        len: usize,
        f: &mut dyn FnMut(&[DomainRegistration]),
    ) {
        match population {
            Population::Idn => self.corpus.with_idn_shard(start, len, f),
            Population::NonIdn => self.corpus.with_non_idn_shard(start, len, f),
        }
    }
}

/// Typed receipt for a registered pass; redeem against the [`ScanResult`].
pub struct PassHandle<O> {
    index: usize,
    _marker: PhantomData<fn() -> O>,
}

/// Outputs of one completed scan, keyed by [`PassHandle`].
pub struct ScanResult {
    outputs: Vec<Option<Box<dyn Any>>>,
    idn_len: u64,
    non_idn_len: u64,
}

impl ScanResult {
    /// Takes the finished output of `handle`'s pass.
    ///
    /// # Panics
    ///
    /// Panics if the output was already taken (each handle redeems once).
    pub fn take<O: 'static>(&mut self, handle: &PassHandle<O>) -> O {
        let output = self.outputs[handle.index]
            .take()
            .expect("pass output already taken");
        *output.downcast::<O>().expect("pass output type mismatch")
    }

    /// Records scanned in the IDN population.
    pub fn idn_len(&self) -> u64 {
        self.idn_len
    }

    /// Records scanned in the non-IDN population.
    pub fn non_idn_len(&self) -> u64 {
        self.non_idn_len
    }
}

#[derive(Debug, Clone, Copy)]
struct Shard {
    population: Population,
    start: u64,
    len: usize,
}

fn shards_of(source: &dyn RecordSource, shard_size: usize) -> Vec<Shard> {
    let shard_size = shard_size.max(1);
    let mut shards = Vec::new();
    for population in [Population::Idn, Population::NonIdn] {
        let total = source.population_len(population);
        let mut start = 0u64;
        while start < total {
            let len = (total - start).min(shard_size as u64) as usize;
            shards.push(Shard {
                population,
                start,
                len,
            });
            start += len as u64;
        }
    }
    shards
}

/// The fused-traversal driver: registered passes plus the shard/merge plan.
///
/// Passes may borrow surrounding context (detectors, artifact stores) for
/// the scan's lifetime `'p`.
#[derive(Default)]
pub struct ShardedScan<'p> {
    passes: Vec<Box<dyn DynPass + 'p>>,
}

impl<'p> ShardedScan<'p> {
    /// Creates a scan with no passes.
    pub fn new() -> Self {
        ShardedScan { passes: Vec::new() }
    }

    /// Registers `pass`; its span and counters are pre-registered (in
    /// registration order) before any worker runs.
    pub fn register<P: AnalysisPass + 'p>(&mut self, pass: P) -> PassHandle<P::Output> {
        let index = self.passes.len();
        self.passes.push(Box::new(pass));
        PassHandle {
            index,
            _marker: PhantomData,
        }
    }

    /// Runs the fused traversal: shards fan out over `threads` workers,
    /// every pass observes every record exactly once, and partials merge
    /// sequentially in shard order (never in completion order). The scan
    /// is parented at `parent` in the span tree ([`SpanCtx::NONE`] keeps
    /// it out of any trace).
    ///
    /// Each registered pass is attributed its full cost in its own
    /// `analyze.pass.<name>` stage: one timed span per shard (amortized
    /// over the whole shard, so the per-record overhead is one batched
    /// clock pair instead of a read per record), plus one pre-timed call
    /// each for the sequential merge and the finish step. The per-pass
    /// calls therefore total `shards + 2` regardless of thread count,
    /// and their summed wall accounts for what `analyze.scan` spends.
    ///
    /// Under a tracing recorder the spans assemble into
    /// `analyze.scan → analyze.pass.<name> (group) → shard spans`; the
    /// groups are created in registration order before fan-out, so both
    /// snapshot order and trace structure are deterministic across
    /// thread counts.
    pub fn run_at(
        self,
        source: &dyn RecordSource,
        shard_size: usize,
        threads: usize,
        recorder: &dyn Recorder,
        parent: SpanCtx,
    ) -> ScanResult {
        let mut scan_span = recorder.span_at(SCAN_SPAN, parent, 0);
        let groups = self.pin(recorder, scan_span.ctx());
        let shards: Vec<(u64, Shard)> = shards_of(source, shard_size)
            .into_iter()
            .enumerate()
            .map(|(i, shard)| (i as u64, shard))
            .collect();
        let folded = self.fold(source, &shards, &groups, threads, recorder);
        let merged = self.merge(folded.into_iter().map(|(partials, _)| partials), recorder);
        scan_span.add_records(
            source.population_len(Population::Idn) + source.population_len(Population::NonIdn),
        );
        drop(scan_span);
        self.finish(merged, source, recorder)
    }

    /// First-use order determinism: pins every pass's stage, counters
    /// and trace group (under `parent`) in registration order, before
    /// any nondeterministic fan-out. Returns the groups, one per pass.
    fn pin(&self, recorder: &dyn Recorder, parent: SpanCtx) -> Vec<SpanCtx> {
        self.passes
            .iter()
            .enumerate()
            .map(|(pass_index, pass)| {
                recorder.add_records(pass.name(), 0);
                recorder.preregister(pass.counters());
                recorder.trace_group(pass.name(), parent, pass_index as u64)
            })
            .collect()
    }

    /// Folds `shards` (each with its grid index) on `threads` workers:
    /// every pass observes the shard's records inside its own timed span
    /// under its group, then flushes in [`AnalysisPass::shard_end`].
    /// Returns each shard's per-pass partials and its record count, in
    /// `shards` order.
    fn fold(
        &self,
        source: &dyn RecordSource,
        shards: &[(u64, Shard)],
        groups: &[SpanCtx],
        threads: usize,
        recorder: &dyn Recorder,
    ) -> Vec<(Partials, u64)> {
        idnre_par::par_map(shards, threads, |(shard_index, shard)| {
            let mut result = None;
            source.with_shard_indexed(
                shard.population,
                shard.start,
                shard.len,
                &mut |records, indices| {
                    let partials = self
                        .passes
                        .iter()
                        .zip(groups)
                        .map(|(pass, group)| {
                            let mut span = recorder.span_at(pass.name(), *group, *shard_index);
                            let mut partial = observe_shard(
                                pass.as_ref(),
                                shard.population,
                                records,
                                indices,
                                recorder,
                            );
                            pass.shard_end_box(partial.as_mut(), recorder);
                            span.add_records(records.len() as u64);
                            partial
                        })
                        .collect();
                    result = Some((partials, records.len() as u64));
                },
            );
            result.expect("RecordSource::with_shard_indexed did not invoke its callback")
        })
    }

    /// Merges per-shard partials sequentially in the iterator's (shard)
    /// order. Merge cost is attributed per pass, but batched: one clock
    /// pair per (shard, pass) merge accumulated locally, recorded as a
    /// single pre-timed call per pass.
    fn merge(
        &self,
        shards: impl IntoIterator<Item = Partials>,
        recorder: &dyn Recorder,
    ) -> Partials {
        let timing = recorder.enabled();
        let mut merged: Partials = self.passes.iter().map(|p| p.empty_box()).collect();
        let mut merge_nanos = vec![0u64; self.passes.len()];
        for partials in shards {
            for (((pass, slot), partial), nanos) in self
                .passes
                .iter()
                .zip(merged.iter_mut())
                .zip(partials)
                .zip(merge_nanos.iter_mut())
            {
                let started = timing.then(Instant::now);
                let earlier = std::mem::replace(slot, pass.empty_box());
                *slot = pass.merge_box(earlier, partial);
                if let Some(started) = started {
                    *nanos += started.elapsed().as_nanos() as u64;
                }
            }
        }
        if timing {
            for (pass, nanos) in self.passes.iter().zip(&merge_nanos) {
                recorder.record_nanos(pass.name(), *nanos);
            }
        }
        merged
    }

    /// Finishes every pass from its merged partial, one pre-timed call
    /// per pass.
    fn finish(
        self,
        merged: Partials,
        source: &dyn RecordSource,
        recorder: &dyn Recorder,
    ) -> ScanResult {
        let timing = recorder.enabled();
        let outputs = self
            .passes
            .iter()
            .zip(merged)
            .map(|(pass, partial)| {
                let started = timing.then(Instant::now);
                let output = pass.finish_box(partial);
                if let Some(started) = started {
                    recorder.record_nanos(pass.name(), started.elapsed().as_nanos() as u64);
                }
                Some(output)
            })
            .collect();
        ScanResult {
            outputs,
            idn_len: source.population_len(Population::Idn),
            non_idn_len: source.population_len(Population::NonIdn),
        }
    }

    /// Associativity + identity probe for the test suite: builds per-chunk
    /// partials of `chunk_size` records sequentially, checks that the
    /// empty partial is a two-sided [`Merge`] identity against every chunk
    /// (`e·p == p == p·e` — the property dirty-shard re-folds rely on:
    /// a clean shard's resident partial must pass through merges with
    /// freshly re-folded neighbours unchanged, and a shard emptied by
    /// removals must merge as a no-op), then checks `(a·b)·c == a·(b·c)`
    /// over every consecutive chunk triple (padding with empty partials
    /// when fewer than three chunks exist) for every registered pass.
    /// Chunks are observed without [`AnalysisPass::shard_end`], so the
    /// probe flushes no counters. Returns the name of the first
    /// violating pass.
    ///
    /// # Errors
    ///
    /// Returns `Err(pass_name)` if any pass's merge is not associative, or
    /// its empty partial is not a merge identity, on this corpus split.
    pub fn merge_is_associative(
        &self,
        source: &dyn RecordSource,
        chunk_size: usize,
        recorder: &dyn Recorder,
    ) -> Result<(), &'static str> {
        let shards = shards_of(source, chunk_size);
        for pass in &self.passes {
            let pass = pass.as_ref();
            let mut chunks: Partials = Vec::new();
            for shard in &shards {
                source.with_shard_indexed(
                    shard.population,
                    shard.start,
                    shard.len,
                    &mut |records, indices| {
                        chunks.push(observe_shard(
                            pass,
                            shard.population,
                            records,
                            indices,
                            recorder,
                        ));
                    },
                );
            }
            for chunk in &chunks {
                let left = pass.merge_box(pass.empty_box(), pass.clone_box(chunk.as_ref()));
                let right = pass.merge_box(pass.clone_box(chunk.as_ref()), pass.empty_box());
                if !pass.eq_box(left.as_ref(), chunk.as_ref())
                    || !pass.eq_box(right.as_ref(), chunk.as_ref())
                {
                    return Err(pass.name());
                }
            }
            while chunks.len() < 3 {
                chunks.push(pass.empty_box());
            }
            for triple in chunks.windows(3) {
                let (a, b, c) = (&triple[0], &triple[1], &triple[2]);
                let left = pass.merge_box(
                    pass.merge_box(pass.clone_box(a.as_ref()), pass.clone_box(b.as_ref())),
                    pass.clone_box(c.as_ref()),
                );
                let right = pass.merge_box(
                    pass.clone_box(a.as_ref()),
                    pass.merge_box(pass.clone_box(b.as_ref()), pass.clone_box(c.as_ref())),
                );
                if !pass.eq_box(left.as_ref(), right.as_ref()) {
                    return Err(pass.name());
                }
            }
        }
        Ok(())
    }
}

/// Folds one shard's records into a fresh partial of `pass`.
fn observe_shard(
    pass: &dyn DynPass,
    population: Population,
    records: &[DomainRegistration],
    indices: &[u64],
    recorder: &dyn Recorder,
) -> Box<dyn Any + Send> {
    let mut partial = pass.empty_box();
    for (reg, &index) in records.iter().zip(indices) {
        let rec = Observed {
            reg,
            population,
            index,
        };
        pass.observe_box(partial.as_mut(), &rec, recorder);
    }
    partial
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_datagen::{Ecosystem, EcosystemConfig};
    use idnre_telemetry::{NoopRecorder, Registry};

    struct CountPass;

    impl AnalysisPass for CountPass {
        type Partial = (u64, u64);
        type Output = (u64, u64);

        fn name(&self) -> &'static str {
            "analyze.test.count"
        }

        fn empty(&self) -> Self::Partial {
            (0, 0)
        }

        fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
            match rec.population {
                Population::Idn => partial.0 += 1,
                Population::NonIdn => partial.1 += 1,
            }
        }

        fn finish(&self, partial: Self::Partial) -> Self::Output {
            partial
        }
    }

    struct DomainsPass;

    impl AnalysisPass for DomainsPass {
        type Partial = Vec<String>;
        type Output = Vec<String>;

        fn name(&self) -> &'static str {
            "analyze.test.domains"
        }

        fn empty(&self) -> Self::Partial {
            Vec::new()
        }

        fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
            if rec.population == Population::Idn {
                partial.push(rec.reg.domain.clone());
            }
        }

        fn finish(&self, partial: Self::Partial) -> Self::Output {
            partial
        }
    }

    fn corpus() -> Ecosystem {
        let config = EcosystemConfig {
            scale: 5000,
            attack_scale: 50,
            brand_count: 50,
            ..EcosystemConfig::default()
        };
        Ecosystem::generate(&config)
    }

    #[test]
    fn fused_scan_counts_every_record_once() {
        let eco = corpus();
        let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
        let registry = Registry::new();
        let mut scan = ShardedScan::new();
        let counts = scan.register(CountPass);
        let result = {
            let mut result = scan.run_at(&source, 64, 4, &registry, SpanCtx::NONE);
            assert_eq!(result.idn_len(), eco.idn_registrations.len() as u64);
            assert_eq!(result.non_idn_len(), eco.non_idn_registrations.len() as u64);
            result.take(&counts)
        };
        assert_eq!(result.0, eco.idn_registrations.len() as u64);
        assert_eq!(result.1, eco.non_idn_registrations.len() as u64);
        let scan_stage = registry
            .snapshot()
            .stages
            .into_iter()
            .find(|s| s.name == SCAN_SPAN)
            .expect("analyze.scan span recorded");
        assert_eq!(
            scan_stage.records,
            (eco.idn_registrations.len() + eco.non_idn_registrations.len()) as u64
        );
    }

    #[test]
    fn outputs_invariant_across_threads_and_shard_sizes() {
        let eco = corpus();
        let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
        let mut reference: Option<Vec<String>> = None;
        for threads in [1, 2, 8] {
            for shard_size in [7, 64, 100_000] {
                let mut scan = ShardedScan::new();
                let domains = scan.register(DomainsPass);
                let mut result =
                    scan.run_at(&source, shard_size, threads, &NoopRecorder, SpanCtx::NONE);
                let domains = result.take(&domains);
                match &reference {
                    None => reference = Some(domains),
                    Some(expected) => assert_eq!(
                        &domains, expected,
                        "threads={threads} shard_size={shard_size}"
                    ),
                }
            }
        }
        assert_eq!(
            reference.expect("at least one run").len(),
            corpus().idn_registrations.len()
        );
    }

    #[test]
    fn stream_source_matches_slice_source() {
        let config = EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 50,
            ..EcosystemConfig::default()
        };
        let batch = Ecosystem::generate(&config);
        let (_, corpus, _) = idnre_datagen::generate_streamed(&config, 128, &NoopRecorder);
        let slice = SliceSource::new(&batch.idn_registrations, &batch.non_idn_registrations);
        let stream = StreamSource::new(&corpus);

        let run = |source: &dyn RecordSource| {
            let mut scan = ShardedScan::new();
            let domains = scan.register(DomainsPass);
            let mut result = scan.run_at(source, 128, 4, &NoopRecorder, SpanCtx::NONE);
            result.take(&domains)
        };
        assert_eq!(run(&stream), run(&slice));
    }

    #[test]
    fn associativity_probe_accepts_order_preserving_passes() {
        let eco = corpus();
        let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
        let mut scan = ShardedScan::new();
        let _ = scan.register(CountPass);
        let _ = scan.register(DomainsPass);
        assert_eq!(
            scan.merge_is_associative(&source, 37, &NoopRecorder),
            Ok(())
        );
    }

    #[derive(Clone, PartialEq)]
    struct KeepLater(u64);

    impl Merge for KeepLater {
        fn merge(self, later: Self) -> Self {
            // Deliberately broken: discards all but the later partial's
            // count unless the later side is empty.
            if later.0 == 0 {
                self
            } else {
                KeepLater(later.0 / 2)
            }
        }
    }

    #[test]
    fn associativity_probe_rejects_non_associative_merges() {
        struct Lossy;
        impl AnalysisPass for Lossy {
            type Partial = KeepLater;
            type Output = u64;
            fn name(&self) -> &'static str {
                "analyze.test.lossy"
            }
            fn empty(&self) -> Self::Partial {
                KeepLater(0)
            }
            fn observe(&self, partial: &mut Self::Partial, _: &Observed<'_>, _: &dyn Recorder) {
                partial.0 += 1;
            }
            fn finish(&self, partial: Self::Partial) -> Self::Output {
                partial.0
            }
        }
        let eco = corpus();
        let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
        let mut scan = ShardedScan::new();
        let _ = scan.register(Lossy);
        assert_eq!(
            scan.merge_is_associative(&source, 37, &NoopRecorder),
            Err("analyze.test.lossy")
        );
    }
}
