//! The reproduction harness: one generator per table and figure of the
//! paper's evaluation, all driven by a single [`ReproContext`].
//!
//! Each generator returns a markdown fragment containing the paper's
//! anchor numbers next to the values measured on the synthetic ecosystem,
//! so `repro all` regenerates the complete `EXPERIMENTS.md`.
//!
//! # Examples
//!
//! ```
//! use idnre_bench::{ReproContext, RunSpec};
//! use idnre_datagen::EcosystemConfig;
//! use idnre_telemetry::NoopRecorder;
//! use std::sync::Arc;
//!
//! let config = EcosystemConfig {
//!     scale: 5000,
//!     attack_scale: 50,
//!     ..EcosystemConfig::default()
//! };
//! let ctx = ReproContext::build(&config, &RunSpec::default(), Arc::new(NoopRecorder));
//! let table = idnre_bench::reports::table2(&ctx);
//! assert!(table.contains("Chinese"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod cli;
pub mod epochs;
pub mod mine;
pub mod passes;
pub mod pipeline_bench;
pub mod reports;
pub mod robust;
pub mod slo;

pub use candidates::CandidateSurvey;
pub use cli::{validate_flags, CliFlags, FLAG_CONFLICTS, FLAG_REQUIRES};
pub use epochs::{run_epochs, EpochBenchStats, EpochRun, DEFAULT_CHURN_PER_MILLE};
pub use mine::{MiningOutputs, Portfolio, PortfolioMember};
pub use pipeline_bench::{
    render_bench_json, render_bench_text, run_pipeline_bench, run_pipeline_bench_sharded,
    run_pipeline_sweep, run_pipeline_sweep_sharded, EpochSummary, LedgerRow, PipelineBench,
    RunLedger,
};
pub use robust::{FaultSetup, IngestStats, RunHealth, SurveyStats};
pub use slo::{slo_profile, SLO_PROFILES};

use idnre_analyze::{Population, RecordSource, SliceSource, StreamSource};
use idnre_core::{HomographDetector, HomographFinding, SemanticDetector, SemanticFinding};
use idnre_datagen::{DomainRegistration, Ecosystem, EcosystemConfig};
use idnre_telemetry::{Recorder, SpanCtx};
use std::ops::Range;
use std::sync::Arc;

/// Default shard size of the fused corpus traversal (and of `--stream`).
pub const DEFAULT_SHARD_SIZE: usize = 1024;

/// Which pipeline one [`ReproContext::build`] runs. The default is the
/// plain batch run (`repro all`); each field is one `repro` mode, and the
/// report bytes depend on none of them except the sections `mine` and
/// `faults` append.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSpec {
    /// `Some(n)` streams the corpus (`--stream --shard-size n`): the
    /// registration vectors are never materialized, and the column build,
    /// the fused scan and the surveys (clean or faulted) regenerate
    /// `n`-record shards on demand. `None` materializes the corpus and
    /// scans it in [`DEFAULT_SHARD_SIZE`] shards.
    pub shard_size: Option<usize>,
    /// Runs the two-pass skeleton-LSH portfolio miner
    /// (`--mine-portfolios`): pass A folds the bucket index on the fused
    /// scan, pass B verifies and clusters the non-singleton buckets, and
    /// [`ReproContext::mining`] carries the result.
    pub mine: bool,
    /// Runs the surveys under a fault schedule (`--faults`): the zone
    /// corpus round-trips through lenient ingest with seeded corruption,
    /// the WHOIS crawl sees corrupted transfers, and the crawl survey runs
    /// the full retry schedule; [`ReproContext::health`] carries the
    /// verdict. The faulted surveys walk the same [`CorpusView`] as the
    /// clean ones, so a streamed faulted build reports the batch faulted
    /// build's bytes.
    pub faults: Option<FaultSetup>,
}

/// Shared state for all report generators: the generated ecosystem plus the
/// one fused analysis scan over it.
pub struct ReproContext {
    /// The synthetic ecosystem (registration vectors are empty after a
    /// streamed build; the artifacts are complete either way).
    pub eco: Ecosystem,
    /// Homograph-detector findings over the registered IDN corpus.
    pub homographs: Vec<HomographFinding>,
    /// Type-1 semantic findings over the registered IDN corpus.
    pub semantic: Vec<SemanticFinding>,
    /// Every corpus-derived aggregate the report generators read, folded by
    /// the one fused [`idnre_analyze::ShardedScan`] traversal.
    pub outputs: passes::ScanOutputs,
    /// The Section VI-D lookalike candidates of the top brands, enumerated
    /// once for Figures 6 and 7 and the two candidate-pool extensions.
    pub candidates: CandidateSurvey,
    /// Telemetry sink every pipeline stage and report generator records
    /// into.
    pub recorder: Arc<dyn Recorder>,
    /// Fault accounting of the run, present only under
    /// [`RunSpec::faults`]. Its verdict becomes the process exit code, and
    /// [`ReproContext::full_report`] appends its section.
    pub health: Option<RunHealth>,
    /// Zone-wide confusable portfolios, present only under
    /// [`RunSpec::mine`]. [`ReproContext::full_report`] appends its
    /// section.
    pub mining: Option<MiningOutputs>,
}

impl std::fmt::Debug for ReproContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReproContext")
            .field("eco", &self.eco)
            .field("homographs", &self.homographs)
            .field("semantic", &self.semantic)
            .field("recorder_enabled", &self.recorder.enabled())
            .finish()
    }
}

impl ReproContext {
    /// Generates the ecosystem, enumerates the [`CandidateSurvey`], runs
    /// the fused analysis scan (both detectors, every report aggregator
    /// and, under [`RunSpec::mine`], the miner), then the crawl and WHOIS
    /// surveys — clean, or under [`RunSpec::faults`]. Every stage reports
    /// to `recorder`; the built context, and therefore every report, is
    /// byte-identical for any recorder, thread count and
    /// [`RunSpec::shard_size`].
    pub fn build(config: &EcosystemConfig, spec: &RunSpec, recorder: Arc<dyn Recorder>) -> Self {
        let shard_size = spec.shard_size.unwrap_or(DEFAULT_SHARD_SIZE);
        let mut span = recorder.span_at("build.ecosystem", SpanCtx::ROOT, 0);
        let (eco, corpus) = match spec.shard_size {
            None => {
                let eco = Ecosystem::generate_traced(config, &*recorder, span.ctx());
                (eco, None)
            }
            Some(_) => {
                let (eco, corpus) = idnre_datagen::generate_streamed_traced(
                    config,
                    shard_size,
                    &*recorder,
                    span.ctx(),
                );
                (eco, Some(corpus))
            }
        };
        let slice_source;
        let stream_source;
        let view = match &corpus {
            None => {
                slice_source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
                CorpusView::resident(&slice_source)
            }
            Some(corpus) => {
                stream_source = StreamSource::new(corpus);
                CorpusView {
                    source: &stream_source,
                    walk: shard_size,
                }
            }
        };
        span.add_records(view.len());
        drop(span);

        let candidates = CandidateSurvey::build(&eco.brands, config.threads, &*recorder);
        let (homographs, semantic, outputs, mining) = run_scan(
            &eco,
            view.source,
            shard_size,
            config.threads,
            spec.mine,
            &candidates,
            &*recorder,
            SpanCtx::ROOT,
        );
        let health = match &spec.faults {
            None => {
                robust::crawl_survey(
                    &view,
                    &eco.zones,
                    None,
                    config.threads,
                    None,
                    &*recorder,
                    SpanCtx::ROOT,
                );
                robust::whois_survey(&view, &eco, None, None, &*recorder, SpanCtx::ROOT);
                None
            }
            Some(setup) => Some(robust::faulted_surveys(
                &view,
                &eco,
                setup,
                config.threads,
                &*recorder,
            )),
        };
        if let Some(corpus) = &corpus {
            // Recorded last so the gauge covers the surveys' shard walks too.
            recorder.gauge_max(idnre_datagen::PEAK_RESIDENT_RECORDS, corpus.gauge().peak());
        }
        ReproContext {
            eco,
            homographs,
            semantic,
            outputs,
            candidates,
            recorder,
            health,
            mining,
        }
    }

    /// The full `EXPERIMENTS.md` document.
    ///
    /// The report generators are independent pure functions of the built
    /// context, so they run on the work-queue executor and are stitched
    /// together in [`reports::ALL`] order — the document is byte-identical
    /// to a serial run for every thread count. Stage names the generators
    /// record are pre-registered up front so the metrics snapshot order is
    /// scheduling-independent. Each `report.*` span records wall time
    /// only.
    pub fn full_report(&self) -> String {
        let scale = self.eco.config.scale;
        let attack_scale = self.eco.config.attack_scale;
        let mut out = String::new();
        out.push_str(&format!(
            "# EXPERIMENTS — paper vs. measured\n\n\
             Regenerated by `cargo run -p idnre-bench --release --bin repro -- all`.\n\n\
             Ecosystem scale 1:{scale} (attack populations 1:{attack_scale}), seed \
             {:#x}. \"Paper\" numbers are the published values; \"measured\" numbers \
             come from the synthetic ecosystem, so absolute counts scale down by \
             the denominator while *shapes* (rates, rankings, crossovers) are the \
             reproduction target.\n\n\
             Paper-scale invocation: `--scale` divides the paper's populations, \
             so `repro --stream --shard-size 1024 --scale 1 all` runs the paper's \
             1:1 corpus (1,481,378 IDNs plus the 1.2M non-IDN sample) in bounded \
             memory — peak resident records stay ≤ 4 × shard_size × threads at \
             any scale. `repro --bench --stream` records the measured peak as \
             `peak_resident_records` in `BENCH_pipeline.json`.\n\n",
            self.eco.config.seed
        ));
        let enabled = self.recorder.enabled();
        if enabled {
            for (name, _) in reports::ALL {
                self.recorder.add_records(&format!("report.{name}"), 0);
            }
        }
        let fragments = idnre_par::par_map(
            reports::ALL,
            self.eco.config.threads,
            |(name, generator)| {
                let _span = if enabled {
                    self.recorder
                        .span_at(&format!("report.{name}"), SpanCtx::ROOT, 0)
                } else {
                    idnre_telemetry::Span::disabled()
                };
                generator(self)
            },
        );
        for fragment in fragments {
            out.push_str(&fragment);
            out.push('\n');
        }
        if let Some(mining) = &self.mining {
            out.push_str(&mine::render_mining(mining));
            out.push('\n');
        }
        if let Some(health) = &self.health {
            out.push_str(&health.render());
            out.push('\n');
        }
        out
    }
}

/// How the surveys walk the registration corpus: a [`RecordSource`] read
/// at most `walk` records at a time, in corpus order (the IDN population
/// first, then the non-IDN one). Over the resident vectors the walk is
/// one slice per population; over a streaming source it regenerates
/// bounded shards. Both modes hand the same records in the same order,
/// so everything fed from a view is byte-identical across them.
pub struct CorpusView<'a> {
    /// The records.
    pub(crate) source: &'a dyn RecordSource,
    /// Most records handed to a callback per call.
    pub(crate) walk: usize,
}

impl<'a> CorpusView<'a> {
    /// Walks resident vectors whole: one call per population.
    pub fn resident(source: &'a SliceSource<'a>) -> Self {
        CorpusView {
            source,
            walk: usize::MAX,
        }
    }

    /// Records in both populations.
    pub(crate) fn len(&self) -> u64 {
        self.source.population_len(Population::Idn) + self.source.population_len(Population::NonIdn)
    }

    /// Calls `f` with consecutive slices covering positions `range` of the
    /// corpus order. A range may straddle the two populations; no slice
    /// does.
    pub(crate) fn for_each_shard(
        &self,
        range: Range<u64>,
        f: &mut dyn FnMut(&[DomainRegistration]),
    ) {
        let idn_len = self.source.population_len(Population::Idn);
        let walk = self.walk.max(1) as u64;
        for (population, offset) in [(Population::Idn, 0), (Population::NonIdn, idn_len)] {
            let total = self.source.population_len(population);
            let end = range.end.saturating_sub(offset).min(total);
            let mut start = range.start.saturating_sub(offset).min(end);
            while start < end {
                let len = (end - start).min(walk) as usize;
                self.source.with_shard(population, start, len, f);
                start += len as u64;
            }
        }
    }

    /// Calls `f` once per record at positions `range` of the corpus
    /// order.
    pub(crate) fn for_each(&self, range: Range<u64>, f: &mut dyn FnMut(&DomainRegistration)) {
        self.for_each_shard(range, &mut |records| records.iter().for_each(&mut *f));
    }
}

/// Builds both detectors and the full report-aggregator roster, then runs
/// the one fused traversal every corpus-derived number comes from; Figure
/// 6's pass tests the corpus against `candidates`. With `mine` set, the
/// skeleton-LSH bucket index folds on the same traversal (pass A) and the
/// pair miner (pass B) runs over its non-singleton buckets afterwards,
/// under the same parent span.
#[allow(clippy::too_many_arguments)]
fn run_scan(
    eco: &Ecosystem,
    source: &dyn RecordSource,
    shard_size: usize,
    threads: usize,
    mine: bool,
    candidates: &CandidateSurvey,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (
    Vec<HomographFinding>,
    Vec<SemanticFinding>,
    passes::ScanOutputs,
    Option<MiningOutputs>,
) {
    let brand_domains: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
    let detector = HomographDetector::new(&brand_domains, 0.95);
    let semantic_detector = SemanticDetector::new(&brand_domains);
    let columns = passes::build_columns(
        source,
        &eco.blacklist,
        shard_size,
        threads,
        recorder,
        parent,
    );
    let mining_plan = mine.then(|| mine::MiningPlan::new(&columns, threads));
    let plan = passes::ScanPlan::new(
        &detector,
        &semantic_detector,
        &columns,
        &eco.pdns,
        passes::table3_wanted(&eco.whois),
        candidates.fig6_pool(),
        threads,
        mining_plan.as_ref(),
    );
    let (homographs, semantic, outputs, index) =
        plan.run_at(source, shard_size, threads, recorder, parent);
    let mining = index.zip(mining_plan.as_ref()).map(|(index, mining_plan)| {
        mine::mine_portfolios(
            &index,
            &columns,
            mining_plan,
            eco,
            threads,
            recorder,
            parent,
        )
    });
    (homographs, semantic, outputs, mining)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_crawler::OUTCOME_COUNTERS;
    use idnre_telemetry::NoopRecorder;

    fn config() -> EcosystemConfig {
        EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            ..EcosystemConfig::default()
        }
    }

    fn small() -> ReproContext {
        ReproContext::build(&config(), &RunSpec::default(), Arc::new(NoopRecorder))
    }

    #[test]
    fn context_detects_injected_attacks() {
        let ctx = small();
        // The detector must recover a healthy share of the injected
        // homograph population (Identical/High-fidelity spoofs clear 0.95;
        // Medium ones legitimately fall below).
        let injected = ctx.eco.homograph_attacks.len();
        assert!(injected > 20, "too few injected: {injected}");
        let recovered = ctx.homographs.len();
        assert!(
            recovered * 2 >= injected,
            "recovered {recovered} of {injected}"
        );
        // Semantic detector recovers essentially all Type-1 injections.
        let injected_sem = ctx.eco.semantic_attacks.len();
        let recovered_sem = ctx.semantic.len();
        assert!(
            recovered_sem * 10 >= injected_sem * 9,
            "recovered {recovered_sem} of {injected_sem}"
        );
    }

    #[test]
    fn every_report_generates() {
        let ctx = small();
        for (name, generator) in reports::ALL {
            let text = generator(&ctx);
            assert!(text.contains("Paper"), "{name} lacks a paper anchor");
            assert!(text.len() > 100, "{name} suspiciously short");
        }
    }

    #[test]
    fn telemetry_never_perturbs_the_report() {
        let plain = small().full_report();

        let registry = Arc::new(idnre_telemetry::Registry::new());
        let recorded =
            ReproContext::build(&config(), &RunSpec::default(), registry.clone()).full_report();
        assert_eq!(plain, recorded, "telemetry must not perturb report bytes");

        let snapshot = registry.snapshot();
        let stage_names: Vec<&str> = snapshot.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(
            stage_names.len() >= 8,
            "expected >= 8 stages, got {stage_names:?}"
        );
        for stage in &snapshot.stages {
            assert!(stage.calls > 0, "{} never called", stage.name);
        }
        for name in OUTCOME_COUNTERS {
            assert!(
                snapshot.counters.iter().any(|c| c.name == name),
                "missing pre-registered counter {name}"
            );
        }
        let json = snapshot.render_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{}\"", idnre_telemetry::SCHEMA)));
    }

    /// The candidate survey is enumerated once per build; rendering the
    /// report reads it and enumerates nothing. The span's records are
    /// the candidates of every pool.
    #[test]
    fn candidates_are_enumerated_once_per_run() {
        let registry = Arc::new(idnre_telemetry::Registry::new());
        let ctx = ReproContext::build(&config(), &RunSpec::default(), registry.clone());
        let _ = ctx.full_report();
        let stage = registry.stage(candidates::SURVEY_SPAN);
        assert_eq!(stage.calls(), 1);
        let survey = &ctx.candidates;
        let enumerated: usize = survey
            .singles
            .iter()
            .chain(&survey.pairs)
            .map(|r| r.generated)
            .sum();
        assert_eq!(stage.records(), enumerated as u64);
    }

    /// Mining rides the fused scan and faults only touch the surveys, so
    /// the two compose: a mined faulted run keeps the unmined faulted
    /// run's verdict, and its report is the unmined faulted report with
    /// the mining section inserted just before the health section.
    #[test]
    fn mining_composes_with_faults() {
        let config = EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            ..EcosystemConfig::default()
        };
        let plan = idnre_fault::FaultPlan::from_spec("smoke").expect("known profile");
        let build = |mine| {
            let spec = RunSpec {
                mine,
                faults: Some(FaultSetup::from_plan(plan)),
                ..RunSpec::default()
            };
            ReproContext::build(&config, &spec, Arc::new(NoopRecorder))
        };
        let (plain, mined) = (build(false), build(true));
        let exit_code = |ctx: &ReproContext| ctx.health.as_ref().map(|h| h.status.exit_code());
        assert_eq!(exit_code(&mined), exit_code(&plain));
        assert!(exit_code(&plain).is_some_and(|code| code != 0));

        let plain_report = plain.full_report();
        let health_at = plain_report.find("## Run health").expect("health section");
        let section = mine::render_mining(mined.mining.as_ref().expect("mined outputs"));
        assert!(section.starts_with("## Portfolio mining"));
        let expected = format!(
            "{}{section}\n{}",
            &plain_report[..health_at],
            &plain_report[health_at..]
        );
        assert_eq!(mined.full_report(), expected);
    }

    #[test]
    fn full_report_assembles() {
        let ctx = small();
        let report = ctx.full_report();
        for heading in ["Table I ", "Table XIV", "Figure 7", "Figure 8"] {
            assert!(report.contains(heading), "missing {heading}");
        }
    }
}
