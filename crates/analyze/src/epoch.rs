//! The epoch engine: resident shard partials, dirty tracking, and
//! re-fold-only-dirty scans.
//!
//! A [`crate::ShardedScan`] folds every shard once, merges, and drops the
//! per-shard partials. [`EpochState`] converts that into *fold, cache,
//! invalidate, re-fold*: after an advance, every (shard, pass) partial
//! stays resident, the IDN indices a day's deltas touched mark their
//! shards dirty, and the next advance re-folds **only** dirty
//! shards (plus cache misses — e.g. a tail shard whose boundary moved as
//! the index space grew), reusing every clean shard's partial verbatim.
//! Partials then merge sequentially in shard order exactly as the
//! one-shot scan would, so an epoch's outputs are **byte-identical to a
//! from-scratch rebuild** over the same effective corpus, at the cost of
//! re-folding only the shards a day's churn touched.
//!
//! Three contracts make this sound, and all are checked by
//! [`crate::ShardedScan::merge_is_associative`]:
//!
//! - **Associativity** — partials merge in shard order regardless of
//!   which subset was re-folded.
//! - **Identity** — the empty partial is a two-sided merge identity, so
//!   a shard emptied by removals merges as a no-op and clean partials
//!   pass through unchanged.
//! - **Removal is shard re-fold, not retraction.** `Merge` has no
//!   inverse (finding lists, first-occurrence orders and saturating
//!   tallies are not groups), so a removed record's contribution is
//!   erased by re-folding its shard over the overlay corpus — which is
//!   cheap precisely because shards are small and indices are stable.
//!
//! Stable indices are the load-bearing detail: [`crate::RecordSource::
//! with_shard_indexed`] yields each surviving record at its original
//! global index, holes and all, so index-addressed pass state (corpus
//! column rows, head-sample cutoffs) written at epoch 0 stays valid in
//! every later epoch, and side tables only ever grow append-only.

use crate::{shards_of, Partials, Population, RecordSource, ScanResult, Shard, ShardedScan};
use idnre_datagen::epoch::EpochCorpus;
use idnre_datagen::DomainRegistration;
use idnre_telemetry::{Recorder, SpanCtx, EPOCH_RESIDENT_PARTIALS, EPOCH_SHARD_COUNTERS};
use std::collections::{HashMap, HashSet};

/// Span name of one epoch advance; its record count is the number of
/// records actually re-folded (not corpus size — that asymmetry *is* the
/// incremental win, and the scan-records metric exposes it).
pub const EPOCH_SPAN: &str = "analyze.epoch";

/// Shard accounting for one [`EpochState::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStats {
    /// Which advance this was (0-based).
    pub epoch: u64,
    /// Shards in the grid this epoch.
    pub total_shards: u64,
    /// Shards the touched indices marked dirty.
    pub dirty: u64,
    /// Shards whose resident partials were reused verbatim.
    pub clean: u64,
    /// Shards actually re-folded: dirty plus cache misses.
    pub refolded: u64,
    /// Records observed while re-folding (the epoch's actual fold work).
    pub refolded_records: u64,
    /// (shard, pass) partials resident in the cache after the advance.
    pub resident_partials: u64,
}

/// A [`RecordSource`] over a datagen [`EpochCorpus`] delta overlay.
///
/// `population_len(Idn)` reports the **index space** (base plan + append
/// tail, including removal holes) so the shard grid stays aligned across
/// epochs; `with_shard_indexed` yields surviving records at their stable
/// original indices. The non-IDN population passes through unchanged.
#[derive(Debug, Clone, Copy)]
pub struct EpochSource<'a> {
    corpus: &'a EpochCorpus<'a>,
}

impl<'a> EpochSource<'a> {
    /// Wraps an overlay corpus.
    pub fn new(corpus: &'a EpochCorpus<'a>) -> Self {
        EpochSource { corpus }
    }
}

impl RecordSource for EpochSource<'_> {
    fn population_len(&self, population: Population) -> u64 {
        match population {
            Population::Idn => self.corpus.idn_index_space(),
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
            Population::Idn => self
                .corpus
                .with_idn_shard_indexed(start, len, &mut |records, _| f(records)),
            Population::NonIdn => self.corpus.with_non_idn_shard(start, len, f),
        }
    }

    fn with_shard_indexed(
        &self,
        population: Population,
        start: u64,
        len: usize,
        f: &mut dyn FnMut(&[DomainRegistration], &[u64]),
    ) {
        match population {
            Population::Idn => self.corpus.with_idn_shard_indexed(start, len, f),
            Population::NonIdn => self.corpus.with_non_idn_shard(start, len, &mut |records| {
                let indices: Vec<u64> = (start..start + records.len() as u64).collect();
                f(records, &indices);
            }),
        }
    }
}

type ShardKey = (Population, u64, u64);

fn key_of(shard: &Shard) -> ShardKey {
    (shard.population, shard.start, shard.len as u64)
}

/// The resident-partial cache and epoch driver.
///
/// One `EpochState` serves a sequence of advances over the *same*
/// logical corpus at the *same* shard size. The registered passes must be
/// reconstructed for every advance (they typically borrow per-epoch
/// context such as grown corpus columns), but must be the **same pass
/// types registered in the same order** — resident partials are merged
/// against freshly re-folded ones by concrete type, and registration
/// order is the cache's schema. Symbols and column rows referenced by
/// resident partials stay valid because the arena layer grows
/// append-only (the per-epoch high-water-mark rule; DESIGN.md §14).
///
/// Counter note: pass counters flush per *re-folded* shard, so counter
/// totals under an incremental advance reflect only the work actually
/// done — by design (they are instrumentation, not outputs). The
/// finished pass outputs are what the byte-identity contract covers.
#[derive(Default)]
pub struct EpochState {
    shard_size: usize,
    epoch: u64,
    cache: HashMap<ShardKey, Partials>,
}

impl EpochState {
    /// A state with an empty cache: the first advance folds every shard.
    pub fn new(shard_size: usize) -> Self {
        EpochState {
            shard_size: shard_size.max(1),
            epoch: 0,
            cache: HashMap::new(),
        }
    }

    /// The shard size every advance folds at.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// How many advances have completed.
    pub fn epochs_advanced(&self) -> u64 {
        self.epoch
    }

    /// Resident (shard, pass) partials currently cached.
    pub fn resident_partials(&self) -> usize {
        self.cache.values().map(Vec::len).sum()
    }

    /// Advances one epoch: maps the `touched` IDN indices to owning
    /// shards, re-folds only dirty shards and cache misses over `source`
    /// (fanned out across `threads` workers), refreshes the resident
    /// cache, merges all partials sequentially in shard order, and
    /// finishes every pass.
    ///
    /// `touched` names every IDN record the epoch added, removed or
    /// changed in place; the `source` must already reflect those changes,
    /// since the indices only say which shards to re-fold. An index
    /// outside the source's index space maps to no shard and is ignored,
    /// which is what makes a remove of a nonexistent record inert.
    ///
    /// The returned [`ScanResult`] is byte-identical to
    /// [`ShardedScan::run_at`] over the same source and shard size —
    /// the proof-of-equivalence tests pin this across thread counts and
    /// shard sizes. Telemetry: one `analyze.epoch` span per advance
    /// (records = re-folded records), per-pass shard spans under
    /// per-pass trace groups as in the one-shot scan, the
    /// `epoch.shards.{dirty,clean,refolded}` counters, and the
    /// `epoch.partials.resident` gauge.
    pub fn advance(
        &mut self,
        scan: ShardedScan<'_>,
        source: &dyn RecordSource,
        threads: usize,
        touched: &[u64],
        recorder: &dyn Recorder,
        parent: SpanCtx,
    ) -> (ScanResult, EpochStats) {
        let epoch = self.epoch;
        self.epoch += 1;
        let mut epoch_span = recorder.span_at(EPOCH_SPAN, parent, epoch);
        recorder.preregister(&EPOCH_SHARD_COUNTERS);
        let groups = scan.pin(recorder, epoch_span.ctx());

        // Sorted, deduplicated indices, for binary-searched shard
        // ownership tests.
        let mut touched = touched.to_vec();
        touched.sort_unstable();
        touched.dedup();
        let shard_is_dirty = |shard: &Shard| {
            shard.population == Population::Idn && {
                let at = touched.partition_point(|&i| i < shard.start);
                touched
                    .get(at)
                    .is_some_and(|&i| i < shard.start + shard.len as u64)
            }
        };

        let shards = shards_of(source, self.shard_size);
        let mut dirty = 0u64;
        let mut refold: Vec<(u64, Shard)> = Vec::new();
        for (shard_index, shard) in shards.iter().enumerate() {
            let is_dirty = shard_is_dirty(shard);
            if is_dirty {
                dirty += 1;
            }
            // A cache miss re-folds too: a tail shard whose boundary
            // moved (the index space grew) keys differently now, and a
            // pass-roster change invalidates the entry's schema.
            let resident = self
                .cache
                .get(&key_of(shard))
                .is_some_and(|partials| partials.len() == scan.passes.len());
            if is_dirty || !resident {
                refold.push((shard_index as u64, *shard));
            }
        }
        let refolded_partials = scan.fold(source, &refold, &groups, threads, recorder);

        // Refresh the cache: evict keys no longer on the shard grid
        // (stale tail boundaries), then install the re-folded partials.
        let keep: HashSet<ShardKey> = shards.iter().map(key_of).collect();
        self.cache.retain(|key, _| keep.contains(key));
        let mut refolded_records = 0u64;
        for ((_, shard), (partials, records)) in refold.iter().zip(refolded_partials) {
            refolded_records += records;
            self.cache.insert(key_of(shard), partials);
        }

        let total_shards = shards.len() as u64;
        let refolded = refold.len() as u64;
        let clean = total_shards - refolded;
        let resident_partials = self.resident_partials() as u64;
        recorder.add(EPOCH_SHARD_COUNTERS[0], dirty);
        recorder.add(EPOCH_SHARD_COUNTERS[1], clean);
        recorder.add(EPOCH_SHARD_COUNTERS[2], refolded);
        recorder.gauge_set(EPOCH_RESIDENT_PARTIALS, resident_partials);

        // Merge clones of the resident partials, so the cache survives
        // for the next epoch.
        let cache = &self.cache;
        let merged = scan.merge(
            shards.iter().map(|shard| {
                let partials = cache
                    .get(&key_of(shard))
                    .expect("every grid shard is cached after refold");
                scan.passes
                    .iter()
                    .zip(partials)
                    .map(|(pass, partial)| pass.clone_box(partial.as_ref()))
                    .collect()
            }),
            recorder,
        );
        epoch_span.add_records(refolded_records);
        drop(epoch_span);
        (
            scan.finish(merged, source, recorder),
            EpochStats {
                epoch,
                total_shards,
                dirty,
                clean,
                refolded,
                refolded_records,
                resident_partials,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisPass, Observed, StreamSource};
    use idnre_datagen::epoch::DaySimulator;
    use idnre_datagen::{generate_streamed, EcosystemConfig, KeyedCorpus};
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

    /// Order-sensitive and index-witnessing: domains concatenate in shard
    /// order and every observation records its stable global index, so
    /// any re-fold that shifted indices or reordered merges would show.
    struct IndexedDomainsPass;

    impl AnalysisPass for IndexedDomainsPass {
        type Partial = Vec<(u64, String)>;
        type Output = Vec<(u64, String)>;

        fn name(&self) -> &'static str {
            "analyze.test.indexed_domains"
        }

        fn empty(&self) -> Self::Partial {
            Vec::new()
        }

        fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
            if rec.population == Population::Idn {
                partial.push((rec.index, rec.reg.domain.clone()));
            }
        }

        fn finish(&self, partial: Self::Partial) -> Self::Output {
            partial
        }
    }

    fn small_config() -> EcosystemConfig {
        EcosystemConfig {
            scale: 200,
            ..EcosystemConfig::default()
        }
    }

    fn small_corpus() -> KeyedCorpus {
        generate_streamed(&small_config(), 64, &NoopRecorder).1
    }

    /// A scan over both test passes, with their handles.
    type TestScan = (
        ShardedScan<'static>,
        crate::PassHandle<(u64, u64)>,
        crate::PassHandle<Vec<(u64, String)>>,
    );

    fn scan() -> TestScan {
        let mut scan = ShardedScan::new();
        let counts = scan.register(CountPass);
        let domains = scan.register(IndexedDomainsPass);
        (scan, counts, domains)
    }

    #[test]
    fn default_with_shard_indexed_is_dense() {
        let base = small_corpus();
        let source = StreamSource::new(&base);
        source.with_shard_indexed(Population::Idn, 5, 4, &mut |records, indices| {
            assert_eq!(records.len(), 4);
            assert_eq!(indices, [5, 6, 7, 8]);
        });
    }

    #[test]
    fn quiet_epoch_reuses_every_resident_partial() {
        let base = small_corpus();
        let overlay = EpochCorpus::new(&base);
        let source = EpochSource::new(&overlay);
        let quiet: &[u64] = &[];
        let mut state = EpochState::new(64);

        let (scan0, counts0, domains0) = scan();
        let (mut first, stats0) =
            state.advance(scan0, &source, 2, quiet, &NoopRecorder, SpanCtx::NONE);
        assert_eq!(stats0.refolded, stats0.total_shards, "cold cache folds all");
        assert_eq!(stats0.clean, 0);

        let (scan1, counts1, domains1) = scan();
        let (mut second, stats1) =
            state.advance(scan1, &source, 2, quiet, &NoopRecorder, SpanCtx::NONE);
        assert_eq!(stats1.refolded, 0, "quiet epoch re-folds nothing");
        assert_eq!(stats1.refolded_records, 0);
        assert_eq!(stats1.clean, stats1.total_shards);
        assert_eq!(first.take(&counts0), second.take(&counts1));
        assert_eq!(first.take(&domains0), second.take(&domains1));
        assert_eq!(state.epochs_advanced(), 2);
    }

    #[test]
    fn epochs_match_from_scratch_rebuilds() {
        let (_, base, columns) = generate_streamed(&small_config(), 64, &NoopRecorder);
        let mut overlay = EpochCorpus::new(&base);
        let mut sim = DaySimulator::new(30, &columns);
        let mut state = EpochState::new(64);
        for epoch in 0..3u64 {
            let touched: Vec<u64> = sim
                .advance(&mut overlay, epoch, &columns)
                .iter()
                .map(|d| d.index)
                .collect();
            let source = EpochSource::new(&overlay);

            let (inc_scan, inc_counts, inc_domains) = scan();
            let (mut incremental, stats) =
                state.advance(inc_scan, &source, 2, &touched, &NoopRecorder, SpanCtx::NONE);

            let (re_scan, re_counts, re_domains) = scan();
            let mut rebuild = re_scan.run_at(&source, 64, 2, &NoopRecorder, SpanCtx::NONE);

            assert_eq!(
                incremental.take(&inc_counts),
                rebuild.take(&re_counts),
                "epoch {epoch} counts"
            );
            assert_eq!(
                incremental.take(&inc_domains),
                rebuild.take(&re_domains),
                "epoch {epoch} indexed domains"
            );
            assert_eq!(incremental.idn_len(), rebuild.idn_len());
            assert_eq!(incremental.non_idn_len(), rebuild.non_idn_len());
            if epoch > 0 {
                assert!(
                    stats.refolded < stats.total_shards,
                    "epoch {epoch} re-folded {}/{} shards — churn must stay \
                     shard-local",
                    stats.refolded,
                    stats.total_shards
                );
            }
        }
    }

    #[test]
    fn out_of_space_deltas_dirty_no_shard() {
        let base = small_corpus();
        let overlay = EpochCorpus::new(&base);
        let source = EpochSource::new(&overlay);
        let mut state = EpochState::new(64);
        let (scan0, _, _) = scan();
        state.advance(scan0, &source, 1, &[], &NoopRecorder, SpanCtx::NONE);

        let (scan1, _, _) = scan();
        let (_, stats) =
            state.advance(scan1, &source, 1, &[u64::MAX], &NoopRecorder, SpanCtx::NONE);
        assert_eq!(stats.dirty, 0, "remove-nonexistent maps to no shard");
        assert_eq!(stats.refolded, 0);
    }

    #[test]
    fn counters_and_gauge_pin_shard_accounting() {
        let base = small_corpus();
        let overlay = EpochCorpus::new(&base);
        let source = EpochSource::new(&overlay);
        let registry = Registry::new();
        let mut state = EpochState::new(64);
        let (scan0, _, _) = scan();
        let (_, stats) = state.advance(scan0, &source, 2, &[], &registry, SpanCtx::NONE);
        let snapshot = registry.snapshot();
        let counter = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("counter {name} registered"))
                .value
        };
        assert_eq!(counter("epoch.shards.dirty"), 0);
        assert_eq!(counter("epoch.shards.clean"), 0);
        assert_eq!(counter("epoch.shards.refolded"), stats.total_shards);
        let gauge = snapshot
            .gauges
            .iter()
            .find(|g| g.name == EPOCH_RESIDENT_PARTIALS)
            .expect("resident-partials gauge registered");
        assert_eq!(gauge.value, stats.resident_partials);
        let epoch_stage = snapshot
            .stages
            .iter()
            .find(|s| s.name == EPOCH_SPAN)
            .expect("analyze.epoch span recorded");
        assert_eq!(epoch_stage.records, stats.refolded_records);
    }
}
