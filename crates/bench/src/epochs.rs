//! The incremental epoch driver behind `repro --stream --epochs N`.
//!
//! One call to [`run_epochs`] plays the zone-diff loop end to end:
//!
//! 1. Stream-generate the base corpus and fold epoch 0 **cold** through an
//!    [`EpochState`] — every shard misses the partial cache, so the cold
//!    fold is exactly the one-shot scan, but it leaves the per-(shard,
//!    pass) partials resident.
//! 2. Per warm epoch: let the [`DaySimulator`] mutate the
//!    [`EpochCorpus`] overlay, grow the interned columns append-only over
//!    the new tail (the epoch high-water-mark rule — existing symbol ids
//!    never move), extend the resident [`SkeletonCache`] past the same
//!    high-water mark, and re-fold **only the dirty shards**.
//! 3. Shadow every incremental epoch with a from-scratch rebuild over the
//!    same effective corpus, render both reports, and panic unless they
//!    are byte-identical — the proof-of-equivalence contract, enforced on
//!    every run, not just under `cargo test`.
//!
//! Both legs share the grown columns and skeleton cache, so the measured
//! [`EpochRun::speedup`] isolates the fold itself: resident partials
//! versus re-folding every shard.

use crate::passes::{self, ScanPlan};
use crate::{CandidateSurvey, ReproContext};
use idnre_analyze::{DeltaStream, EpochSource, EpochState, EpochStats};
use idnre_arena::CorpusColumns;
use idnre_core::{HomographDetector, SemanticDetector, SkeletonCache};
use idnre_datagen::{
    column_row, DaySimulator, Ecosystem, EcosystemConfig, EpochCorpus, EpochDelta, EpochDeltaKind,
};
use idnre_langid::Classifier;
use idnre_telemetry::{NoopRecorder, Recorder, SpanCtx};
use std::sync::Arc;
use std::time::Instant;

/// Day-simulator event rate `repro --epochs` defaults to: ~2% of the base
/// corpus churns per epoch, the ballpark of public new-gTLD zone-file
/// day-over-day diffs.
pub const DEFAULT_CHURN_PER_MILLE: u64 = 20;

/// One warm epoch's fold accounting: the engine's shard bookkeeping plus
/// the wall-clock of the incremental fold and of its shadow rebuild.
#[derive(Debug, Clone)]
pub struct EpochBenchStats {
    /// Zone-diff events the day simulator emitted this epoch.
    pub deltas: usize,
    /// Live (non-hole) IDN records after applying the epoch's deltas.
    pub live_idn: u64,
    /// Records the shadow rebuild folded: the full IDN index space
    /// (holes included — the shard grid covers them) plus the non-IDN
    /// population.
    pub index_space: u64,
    /// The engine's dirty/clean/refolded accounting for the epoch.
    pub stats: EpochStats,
    /// Wall-clock of the incremental fold (dirty shards only).
    pub incremental_ns: u64,
    /// Wall-clock of the from-scratch shadow rebuild over the same corpus.
    pub rebuild_ns: u64,
}

/// The result of [`run_epochs`]: per-epoch accounting, the cold epoch-0
/// fold, and the final epoch's rendered report.
#[derive(Debug)]
pub struct EpochRun {
    /// Shard size every fold (incremental and shadow) ran at.
    pub shard_size: usize,
    /// Epoch 0: the cold fold that seeds the partial cache. Every shard
    /// is a cache miss, so `refolded == total_shards`.
    pub initial: EpochStats,
    /// Warm epochs `1..=N`, in order.
    pub epochs: Vec<EpochBenchStats>,
    /// The final epoch's full report (byte-identical to a from-scratch
    /// rebuild over the same effective corpus — asserted per epoch).
    pub final_report: String,
}

impl EpochRun {
    /// Shards in the final epoch's grid.
    pub fn total_shards(&self) -> u64 {
        self.epochs
            .last()
            .map(|e| e.stats.total_shards)
            .unwrap_or(self.initial.total_shards)
    }

    /// Shards re-folded across all warm epochs.
    pub fn total_refolded(&self) -> u64 {
        self.epochs.iter().map(|e| e.stats.refolded).sum()
    }

    /// Records the incremental legs actually observed across warm epochs.
    pub fn refolded_records(&self) -> u64 {
        self.epochs.iter().map(|e| e.stats.refolded_records).sum()
    }

    /// Records the shadow rebuilds folded across warm epochs.
    pub fn rebuild_records(&self) -> u64 {
        self.epochs.iter().map(|e| e.index_space).sum()
    }

    /// Summed incremental fold wall-clock across warm epochs.
    pub fn incremental_ns(&self) -> u64 {
        self.epochs.iter().map(|e| e.incremental_ns).sum()
    }

    /// Summed shadow-rebuild wall-clock across warm epochs.
    pub fn rebuild_ns(&self) -> u64 {
        self.epochs.iter().map(|e| e.rebuild_ns).sum()
    }

    /// Rebuild wall over incremental wall, summed across warm epochs.
    pub fn speedup(&self) -> f64 {
        let incremental = self.incremental_ns().max(1);
        self.rebuild_ns() as f64 / incremental as f64
    }
}

/// Appends this epoch's new registrations to the interned columns and
/// flips the malicious bit for lagged blacklist listings. Each row comes
/// from [`column_row`], the emitter every column build shares, and each
/// label gets the same classification [`passes::build_columns`] gives
/// it. Columns only ever grow — the
/// [`idnre_arena::ColumnsMark`] taken before the epoch must report
/// monotonic growth after it. Public so adversarial delta-stream tests
/// can drive the engine with hand-built overlays.
pub fn grow_columns(
    columns: &mut CorpusColumns,
    overlay: &EpochCorpus<'_>,
    eco: &Ecosystem,
    deltas: &[EpochDelta],
) {
    let base = overlay.base_idn_len() as usize;
    let have = columns.mark().rows;
    debug_assert!(have >= base, "columns shorter than the base corpus");
    for reg in &overlay.appended()[have - base..] {
        columns.push_row(column_row(reg, &eco.blacklist), |label| {
            Classifier::global().classify(label).id()
        });
    }
    for delta in deltas {
        if delta.kind == EpochDeltaKind::Blacklist {
            columns.set_malicious(delta.index as usize, true);
        }
    }
}

/// Panics with a compact diff location unless the incremental and shadow
/// reports are byte-identical. The reports are multi-kilobyte; quoting
/// them whole would bury the divergence, so only the first differing
/// offset and its context lines are shown.
fn assert_reports_match(epoch: u64, incremental: &str, rebuild: &str) {
    if incremental == rebuild {
        return;
    }
    let a = incremental.as_bytes();
    let b = rebuild.as_bytes();
    let at = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let context = |s: &str| {
        let lo = s[..at.min(s.len())].rfind('\n').map_or(0, |i| i + 1);
        let hi = s[lo..].find('\n').map_or(s.len(), |i| lo + i);
        s[lo..hi].to_string()
    };
    panic!(
        "epoch {epoch}: incremental report diverges from rebuild at byte {at} \
         (incremental {} bytes, rebuild {} bytes)\n  incremental: {:?}\n  rebuild:     {:?}",
        a.len(),
        b.len(),
        context(incremental),
        context(rebuild),
    );
}

/// Runs the full incremental-epoch loop: a cold epoch-0 fold, then
/// `epochs` simulated zone-diff days at `churn_per_mille` (events per
/// thousand base records per epoch), re-folding only dirty shards and
/// shadow-rebuilding every epoch to prove byte-equivalence.
///
/// Engine telemetry (the `analyze.epoch` spans, `epoch.shards.*`
/// counters, resident-partials gauge) and the one [`CandidateSurvey`]
/// every epoch's reports share go to `recorder`; the shadow rebuilds and
/// report renders run against a [`NoopRecorder`] so the run's trace
/// reflects only the incremental leg.
pub fn run_epochs(
    config: &EcosystemConfig,
    shard_size: usize,
    epochs: u64,
    churn_per_mille: u64,
    recorder: Arc<dyn Recorder>,
) -> EpochRun {
    let threads = config.threads;
    let mut span = recorder.span_at("build.ecosystem", SpanCtx::ROOT, 0);
    let (eco, corpus, rows) =
        idnre_datagen::generate_streamed_traced(config, shard_size, &*recorder, span.ctx());
    span.add_records(corpus.idn_len() + corpus.non_idn_len());
    drop(span);

    let mut overlay = EpochCorpus::new(&corpus);
    let mut simulator = DaySimulator::new(churn_per_mille);
    let mut state = EpochState::new(shard_size);

    let brand_domains: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
    let detector = HomographDetector::new(&brand_domains, 0.95);
    let semantic_detector = SemanticDetector::new(&brand_domains);
    let table3_wanted = passes::table3_wanted(&eco.whois);
    let candidates = CandidateSurvey::build(&eco.brands, threads, &*recorder);
    let fig6_candidates = candidates.fig6_pool();

    // Columns and skeletons are built once over the base corpus (its rows
    // came out of the artifact traversal) and then only ever extended past
    // their high-water marks; both the incremental and the shadow legs
    // borrow the same instances, so the speedup below measures the fold,
    // not detector precompute.
    let mut columns = passes::finish_columns(rows, threads, &*recorder, SpanCtx::ROOT);
    let mut skeletons = SkeletonCache::build(&columns, threads);

    // Epoch 0: cold fold. Every shard misses the cache; the fold is the
    // ordinary one-shot scan that happens to leave its partials resident.
    let (homographs, semantic, outputs, initial) = {
        let source = EpochSource::new(&overlay);
        let plan = ScanPlan::with_homograph_cache(
            &detector,
            &semantic_detector,
            &columns,
            &eco.pdns,
            table3_wanted.clone(),
            fig6_candidates.clone(),
            &skeletons,
        );
        plan.run_epoch(
            &mut state,
            &source,
            threads,
            &DeltaStream::new(),
            &*recorder,
            SpanCtx::ROOT,
        )
    };
    recorder.gauge_max(idnre_datagen::PEAK_RESIDENT_RECORDS, corpus.gauge().peak());
    recorder.add(
        idnre_datagen::SHARDS_REGENERATED,
        corpus.shards_regenerated(),
    );

    let mut ctx = ReproContext {
        eco,
        homographs,
        semantic,
        outputs,
        candidates,
        recorder: Arc::new(NoopRecorder),
        health: None,
        mining: None,
    };
    // Each warm epoch's report supersedes the last, so epoch 0's renders
    // only when it is the final one.
    let mut final_report = None;
    let mut per_epoch = Vec::with_capacity(epochs as usize);

    for epoch in 1..=epochs {
        let raw_deltas = simulator.advance(&mut overlay, epoch);
        let mark = columns.mark();
        grow_columns(&mut columns, &overlay, &ctx.eco, &raw_deltas);
        assert!(
            mark.grew_monotonically_to(&columns.mark()),
            "epoch {epoch}: columns shrank — the append-only contract broke"
        );
        skeletons.extend_to(&columns, threads);
        let deltas = DeltaStream::from_epoch_deltas(&raw_deltas);
        let source = EpochSource::new(&overlay);

        // Incremental leg: re-fold only the shards the deltas dirtied.
        let plan = ScanPlan::with_homograph_cache(
            &detector,
            &semantic_detector,
            &columns,
            &ctx.eco.pdns,
            table3_wanted.clone(),
            fig6_candidates.clone(),
            &skeletons,
        );
        let started = Instant::now();
        let (homographs, semantic, outputs, stats) =
            plan.run_epoch(&mut state, &source, threads, &deltas, &*recorder, SpanCtx::ROOT);
        let incremental_ns = started.elapsed().as_nanos() as u64;
        ctx.homographs = homographs;
        ctx.semantic = semantic;
        ctx.outputs = outputs;
        let incremental_report = ctx.full_report();

        // Shadow leg: fold every shard of the same effective corpus from
        // scratch, exactly as a batch rebuild would.
        let plan = ScanPlan::with_homograph_cache(
            &detector,
            &semantic_detector,
            &columns,
            &ctx.eco.pdns,
            table3_wanted.clone(),
            fig6_candidates.clone(),
            &skeletons,
        );
        let started = Instant::now();
        let (homographs, semantic, outputs, _bucket) =
            plan.run_at(&source, shard_size, threads, &NoopRecorder, SpanCtx::NONE);
        let rebuild_ns = started.elapsed().as_nanos() as u64;
        ctx.homographs = homographs;
        ctx.semantic = semantic;
        ctx.outputs = outputs;
        let rebuild_report = ctx.full_report();

        assert_reports_match(epoch, &incremental_report, &rebuild_report);
        per_epoch.push(EpochBenchStats {
            deltas: raw_deltas.len(),
            live_idn: overlay.live_idn_len(),
            index_space: overlay.idn_index_space() + corpus.non_idn_len(),
            stats,
            incremental_ns,
            rebuild_ns,
        });
        final_report = Some(incremental_report);
    }

    EpochRun {
        shard_size,
        initial,
        epochs: per_epoch,
        final_report: final_report.unwrap_or_else(|| ctx.full_report()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_telemetry::NoopRecorder;

    fn config(scale: u64) -> EcosystemConfig {
        EcosystemConfig {
            scale,
            ..EcosystemConfig::default()
        }
    }

    #[test]
    fn cold_epoch_matches_the_streamed_one_shot_build() {
        // Epoch 0 with no deltas is the ordinary streamed pipeline: the
        // epoch engine's report must equal the streamed build's byte for
        // byte.
        let cfg = config(4000);
        let run = run_epochs(&cfg, 64, 0, 20, Arc::new(NoopRecorder));
        let spec = crate::RunSpec {
            shard_size: Some(64),
            ..crate::RunSpec::default()
        };
        let ctx = ReproContext::build(&cfg, &spec, Arc::new(NoopRecorder));
        assert_eq!(run.final_report, ctx.full_report());
        assert_eq!(run.initial.refolded, run.initial.total_shards);
        assert!(run.epochs.is_empty());
    }

    /// One survey serves all four reports two epochs render (an
    /// incremental and a shadow report per epoch).
    #[test]
    fn candidates_are_enumerated_once_across_epochs() {
        let registry = Arc::new(idnre_telemetry::Registry::new());
        let _ = run_epochs(&config(4000), 64, 2, 20, registry.clone());
        let stage = registry.stage(crate::candidates::SURVEY_SPAN);
        assert_eq!(stage.calls(), 1);
    }

    #[test]
    fn warm_epochs_refold_a_strict_subset() {
        let run = run_epochs(&config(4000), 64, 3, 25, Arc::new(NoopRecorder));
        assert_eq!(run.epochs.len(), 3);
        for epoch in &run.epochs {
            assert!(epoch.stats.refolded < epoch.stats.total_shards);
            assert!(epoch.deltas > 0);
        }
        // run_epochs itself asserted per-epoch byte-equivalence; the run
        // completing is the proof. Pin the accounting invariants on top.
        assert!(run.total_refolded() >= run.epochs.len() as u64);
        assert!(run.speedup() > 0.0);
    }
}
