//! The incremental epoch stage of [`ReproContext::build`], behind
//! `repro --stream --epochs N` ([`crate::RunSpec::epochs`]).
//!
//! An epochs build is the streamed build with its fold run through an
//! [`EpochState`]: the cold epoch-0 fold misses every shard of the empty
//! partial cache, so it is exactly the one-shot scan, but it leaves the
//! per-(shard, pass) partials resident. `play` then runs the zone-diff
//! loop on the built context:
//!
//! 1. Per warm epoch: let the [`DaySimulator`] mutate the
//!    [`EpochCorpus`] overlay, grow the interned columns append-only over
//!    the new tail through the generator's column emitter (the epoch
//!    high-water-mark rule — existing symbol ids never move, and a fresh
//!    label's skeleton is stored as it is interned), and re-fold **only
//!    the dirty shards**.
//! 2. Shadow every incremental epoch with a from-scratch rebuild over the
//!    same effective corpus, and panic unless the two [`ScanOutputs`] are
//!    equal — the proof-of-equivalence contract, enforced on every run,
//!    not just under `cargo test`. Both legs share the ecosystem and the
//!    candidate survey, and every report generator is a pure function of
//!    those and the fold, so equal folds render equal report bytes for
//!    any experiment. Nothing renders here: the built context holds the
//!    final epoch's incremental fold, and the caller renders it once.
//!
//! Both legs share the grown columns, so the measured
//! [`EpochRun::speedup`] isolates the fold itself: resident partials
//! versus re-folding every shard. The incremental fold reports to the
//! run's recorder; the shadow fold runs on a [`NoopRecorder`] inside one
//! [`EPOCH_REBUILD_SPAN`], so the pass counters count only the
//! incremental leg.

use crate::passes::{ScanInputs, ScanOutputs};
use crate::ReproContext;
use idnre_analyze::{EpochSource, EpochState, EpochStats};
use idnre_arena::CorpusColumns;
use idnre_datagen::{column_row, DaySimulator, Ecosystem, EpochCorpus, EpochDelta, EpochDeltaKind};
use idnre_telemetry::{NoopRecorder, SpanCtx};
use std::time::Instant;

/// Day-simulator event rate `repro --epochs` defaults to: ~2% of the base
/// corpus churns per epoch, the ballpark of public new-gTLD zone-file
/// day-over-day diffs.
pub const DEFAULT_CHURN_PER_MILLE: u64 = 20;

/// Span name of one epoch's shadow rebuild (top level, index = epoch);
/// its record count is the index space the rebuild folded.
pub const EPOCH_REBUILD_SPAN: &str = "analyze.epoch.rebuild";

/// The zone-diff loop an epochs build plays after its cold fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSpec {
    /// Warm epochs (simulated days) to play.
    pub count: u64,
    /// Day-simulator events per thousand base records per epoch.
    pub churn_per_mille: u64,
}

/// One warm epoch's fold accounting: the engine's shard bookkeeping plus
/// the wall-clock of the incremental fold and of its shadow rebuild.
#[derive(Debug, Clone)]
pub struct EpochBenchStats {
    /// Zone-diff events the day simulator emitted this epoch.
    pub deltas: usize,
    /// Live (non-hole) IDN records after applying the epoch's deltas.
    pub live_idn: u64,
    /// The engine's dirty/clean/refolded accounting for the epoch.
    pub stats: EpochStats,
    /// Wall-clock of the incremental fold (dirty shards only).
    pub incremental_ns: u64,
    /// Wall-clock of the from-scratch shadow rebuild over the same corpus.
    pub rebuild_ns: u64,
}

/// What an epochs build played ([`ReproContext::epochs`]): the cold
/// epoch-0 fold's and each warm epoch's accounting. The final epoch's fold
/// itself is [`ReproContext::outputs`].
#[derive(Debug)]
pub struct EpochRun {
    /// Shard size every fold (incremental and shadow) ran at.
    pub shard_size: usize,
    /// Epoch 0: the cold fold that seeds the partial cache. Every shard
    /// is a cache miss, so `refolded == total_shards`.
    pub initial: EpochStats,
    /// Warm epochs `1..=N`, in order.
    pub epochs: Vec<EpochBenchStats>,
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
/// from [`column_row`], the emitter every column build shares, so each
/// label gets the language id and skeleton the generator gives it.
/// Columns only ever grow — the
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
        columns.push_row(column_row(reg, &eco.blacklist));
    }
    for delta in deltas {
        if delta.kind == EpochDeltaKind::Blacklist {
            columns.set_malicious(delta.index as usize, true);
        }
    }
}

/// Panics unless the incremental fold equals the shadow rebuild, naming
/// the epoch and the first field that differs. The outputs run to
/// megabytes, so neither is quoted.
fn assert_folds_match(epoch: u64, incremental: &ScanOutputs, rebuild: &ScanOutputs) {
    // Field by field, as the derived `==` compares, so the panic can name
    // the first difference; destructured so that no field can be missed.
    let ScanOutputs {
        homographs,
        semantic1,
        tld,
        language,
        content,
        semantic2,
        fig6_registered,
        idn_len,
        non_idn_len,
    } = incremental;
    let fields = [
        ("homographs", *homographs == rebuild.homographs),
        ("semantic1", *semantic1 == rebuild.semantic1),
        ("tld", *tld == rebuild.tld),
        ("language", *language == rebuild.language),
        ("content", *content == rebuild.content),
        ("semantic2", *semantic2 == rebuild.semantic2),
        (
            "fig6_registered",
            *fig6_registered == rebuild.fig6_registered,
        ),
        ("idn_len", *idn_len == rebuild.idn_len),
        ("non_idn_len", *non_idn_len == rebuild.non_idn_len),
    ];
    if let Some((field, _)) = fields.iter().find(|(_, same)| !same) {
        panic!("epoch {epoch}: the incremental fold differs from the shadow rebuild in `{field}`");
    }
}

/// Plays `spec`'s warm epochs over `ctx.corpus` on a built context whose
/// fold ran cold through `cold`'s state, leaving `ctx` holding the final
/// epoch. The columns are the ones the cold fold read; they only grow.
pub(crate) fn play(
    ctx: &mut ReproContext,
    spec: EpochSpec,
    cold: (EpochState, EpochStats),
    mut columns: CorpusColumns,
    inputs: &ScanInputs,
) -> EpochRun {
    let (mut state, initial) = cold;
    let threads = ctx.eco.config.threads;
    let shard_size = state.shard_size();
    let mut overlay = EpochCorpus::new(&ctx.corpus);
    let mut simulator = DaySimulator::new(spec.churn_per_mille, &columns);
    let mut per_epoch = Vec::with_capacity(spec.count as usize);

    for epoch in 1..=spec.count {
        let deltas = simulator.advance(&mut overlay, epoch, &columns);
        let mark = columns.mark();
        grow_columns(&mut columns, &overlay, &ctx.eco, &deltas);
        assert!(
            mark.grew_monotonically_to(&columns.mark()),
            "epoch {epoch}: columns shrank — the append-only contract broke"
        );
        let touched: Vec<u64> = deltas.iter().map(|d| d.index).collect();
        let source = EpochSource::new(&overlay);

        // Incremental leg: re-fold only the shards the deltas dirtied.
        let plan = inputs.plan(&columns, None);
        let started = Instant::now();
        let (outputs, stats) = plan.run_epoch(
            &mut state,
            &source,
            threads,
            &touched,
            &*ctx.recorder,
            SpanCtx::ROOT,
        );
        let incremental_ns = started.elapsed().as_nanos() as u64;

        // Shadow leg: fold every shard of the same effective corpus from
        // scratch, exactly as a batch rebuild would, on a no-op recorder
        // so the pass counters count only the incremental leg.
        let mut span = ctx
            .recorder
            .span_at(EPOCH_REBUILD_SPAN, SpanCtx::ROOT, epoch);
        let plan = inputs.plan(&columns, None);
        let started = Instant::now();
        let (rebuild, _bucket) =
            plan.run_at(&source, shard_size, threads, &NoopRecorder, SpanCtx::NONE);
        let rebuild_ns = started.elapsed().as_nanos() as u64;
        span.add_records(overlay.idn_index_space() + overlay.non_idn_len());
        drop(span);

        assert_folds_match(epoch, &outputs, &rebuild);
        ctx.outputs = outputs;
        per_epoch.push(EpochBenchStats {
            deltas: deltas.len(),
            live_idn: overlay.live_idn_len(),
            stats,
            incremental_ns,
            rebuild_ns,
        });
    }

    EpochRun {
        shard_size,
        initial,
        epochs: per_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunSpec;
    use idnre_datagen::EcosystemConfig;
    use idnre_telemetry::{Recorder, Registry};
    use std::sync::Arc;

    fn config(scale: u64) -> EcosystemConfig {
        EcosystemConfig {
            scale,
            ..EcosystemConfig::default()
        }
    }

    fn epochs(count: u64, churn_per_mille: u64) -> RunSpec {
        RunSpec {
            shard_size: Some(64),
            epochs: Some(EpochSpec {
                count,
                churn_per_mille,
            }),
            ..RunSpec::default()
        }
    }

    fn play_out(cfg: &EcosystemConfig, spec: &RunSpec, recorder: Arc<dyn Recorder>) -> EpochRun {
        ReproContext::build(cfg, spec, recorder)
            .epochs
            .expect("an epochs build records its run")
    }

    #[test]
    fn cold_epoch_matches_the_streamed_one_shot_build() {
        // Epoch 0 with no deltas is the ordinary streamed pipeline: the
        // epoch engine's report must equal the streamed build's byte for
        // byte.
        let cfg = config(4000);
        let played = ReproContext::build(&cfg, &epochs(0, 20), Arc::new(NoopRecorder));
        let run = played
            .epochs
            .as_ref()
            .expect("an epochs build records its run");
        let spec = RunSpec {
            shard_size: Some(64),
            ..RunSpec::default()
        };
        let ctx = ReproContext::build(&cfg, &spec, Arc::new(NoopRecorder));
        assert_eq!(played.full_report(), ctx.full_report());
        assert_eq!(run.initial.refolded, run.initial.total_shards);
        assert!(run.epochs.is_empty());
    }

    /// Every fold of an epochs build reports to the run's recorder: the
    /// cold fold plus one advance per warm epoch, one shadow-rebuild span
    /// per warm epoch, and one candidate survey for all of them. The build
    /// renders nothing; the built context holds the final epoch, and
    /// rendering it is the run's one render.
    #[test]
    fn epochs_build_meters_through_the_run_recorder() {
        let registry = Arc::new(Registry::new());
        let ctx = ReproContext::build(&config(4000), &epochs(2, 20), registry.clone());
        let calls = |stage: &str| registry.stage(stage).calls();
        assert_eq!(calls("report.table1"), 0);
        assert_eq!(calls(idnre_analyze::epoch::EPOCH_SPAN), 3);
        assert_eq!(calls(EPOCH_REBUILD_SPAN), 2);
        assert_eq!(calls(crate::candidates::SURVEY_SPAN), 1);
        let _ = ctx.full_report();
        assert_eq!(calls("report.table1"), 1);
    }

    /// The fold check names the epoch and the first field that differs,
    /// here a fold missing one homograph finding.
    #[test]
    #[should_panic(
        expected = "epoch 7: the incremental fold differs from the shadow rebuild in `homographs`"
    )]
    fn a_diverging_fold_names_its_epoch_and_field() {
        let ctx = ReproContext::build(&config(4000), &RunSpec::default(), Arc::new(NoopRecorder));
        let mut short = ctx.outputs.clone();
        assert!(short.homographs.pop().is_some(), "no homograph findings");
        assert_folds_match(7, &ctx.outputs, &short);
    }

    /// Heavy churn removes records that the one-shot build reads. Table
    /// III still reads only the run's WHOIS fold, so it is the one-shot
    /// build's table: each row's topic is that of the whole portfolio its
    /// `# IDN` counts. Figures 2–4 and Tables VI–VII read the artifact
    /// folds of the base snapshot, so they are the one-shot build's too.
    /// Table V divides each count by the records its sample crawled,
    /// which removed head records push below the sample size.
    #[test]
    fn heavy_churn_keeps_the_whois_tables_and_rates_table_v_over_its_crawl() {
        let cfg = EcosystemConfig {
            attack_scale: 25,
            ..config(2000)
        };
        let streamed = |epochs| RunSpec {
            shard_size: Some(32),
            epochs,
            ..RunSpec::default()
        };
        let churned = streamed(Some(EpochSpec {
            count: 8,
            churn_per_mille: 500,
        }));
        let played = ReproContext::build(&cfg, &churned, Arc::new(NoopRecorder));
        let one_shot = ReproContext::build(&cfg, &streamed(None), Arc::new(NoopRecorder));
        let base_snapshot: [crate::reports::Generator; 6] = [
            crate::reports::table3,
            crate::reports::fig2,
            crate::reports::fig3,
            crate::reports::fig4,
            crate::reports::table6,
            crate::reports::table7,
        ];
        for generator in base_snapshot {
            assert_eq!(generator(&played), generator(&one_shot));
        }

        let counts = played.outputs.content.idn;
        let crawled: u64 = counts.iter().sum();
        assert!(
            crawled < crate::passes::CONTENT_SAMPLE,
            "no head record was removed: {crawled} crawled"
        );
        let table = crate::reports::table5(&played);
        for (category, n) in idnre_crawler::UsageCategory::ALL.iter().zip(counts) {
            let row = table
                .lines()
                .find(|line| line.starts_with(&format!("| {} ", category.label())))
                .unwrap_or_else(|| panic!("no {category:?} row"));
            let idn_cell = row.split('|').nth(2).map(str::trim);
            let expected = format!("{n} ({})", idnre_stats::percent(n, crawled));
            assert_eq!(idn_cell, Some(expected.as_str()), "{row}");
        }
    }

    #[test]
    fn warm_epochs_refold_a_strict_subset() {
        let run = play_out(&config(4000), &epochs(3, 25), Arc::new(NoopRecorder));
        assert_eq!(run.epochs.len(), 3);
        for epoch in &run.epochs {
            assert!(epoch.stats.refolded < epoch.stats.total_shards);
            assert!(epoch.deltas > 0);
        }
        // The build itself asserted per-epoch fold equality; the run
        // completing is the proof. Pin the accounting invariants on top.
        assert!(run.total_refolded() >= run.epochs.len() as u64);
        assert!(run.speedup() > 0.0);
    }
}
