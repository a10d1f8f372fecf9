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
pub mod reports;
pub mod robust;
pub mod slo;
pub mod whois_facts;

pub use candidates::CandidateSurvey;
pub use cli::{validate_flags, CliFlags, FLAG_CONFLICTS, FLAG_REQUIRES};
pub use epochs::{EpochBenchStats, EpochRun, EpochSpec, DEFAULT_CHURN_PER_MILLE};
pub use mine::{MiningOutputs, Portfolio, PortfolioMember};
pub use robust::{FaultSetup, IngestStats, RunHealth, SurveyStats};
pub use slo::{slo_profile, SLO_PROFILES};
pub use whois_facts::WhoisFacts;

use idnre_analyze::{EpochState, Population, RecordSource, SliceSource, StreamSource};
use idnre_datagen::{DomainRegistration, Ecosystem, EcosystemConfig, KeyedCorpus};
use idnre_telemetry::{Recorder, SpanCtx};
use std::ops::Range;
use std::sync::Arc;

/// Default shard size of the fused corpus traversal (and of `--stream`).
pub const DEFAULT_SHARD_SIZE: usize = 1024;

/// Which pipeline one [`ReproContext::build`] runs. The default is the
/// plain batch run (`repro all`); each field is one `repro` mode, and the
/// report bytes depend on none of them except the sections `mine` and
/// `faults` append (and, under `epochs`, the simulated days' churn).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSpec {
    /// `Some(n)` streams the corpus (`--stream --shard-size n`): the
    /// generator drops each `n`-record shard once its artifacts and column
    /// rows are emitted, so the registration vectors stay empty, and the
    /// fused scan and (under `faults`) the surveys regenerate `n`-record
    /// shards on demand. `None` keeps the regenerated records resident and
    /// scans them in [`DEFAULT_SHARD_SIZE`] shards.
    pub shard_size: Option<usize>,
    /// Runs the two-pass skeleton-LSH portfolio miner
    /// (`--mine-portfolios`): pass A folds the bucket index on the fused
    /// scan, pass B verifies and clusters the non-singleton buckets, and
    /// [`ReproContext::mining`] carries the result.
    pub mine: bool,
    /// Runs the corpus-wide surveys under a fault schedule (`--faults`):
    /// the zones, derived from the corpus, round-trip through lenient
    /// ingest with seeded corruption, the WHOIS crawl sees corrupted
    /// transfers, and the crawl survey runs the full retry schedule;
    /// [`ReproContext::health`] carries the verdict. A clean build runs no
    /// survey: Table V's only crawl is its 500-domain samples, inside the
    /// fused scan. The faulted surveys walk the same [`CorpusView`] as the
    /// scan, so a streamed faulted build reports the batch faulted build's
    /// bytes.
    pub faults: Option<FaultSetup>,
    /// Plays incremental zone-diff epochs after the fold (`--epochs`): the
    /// fold runs cold through an epoch engine that keeps its partials
    /// resident, then each simulated day re-folds only its dirty shards,
    /// and its fold must equal a shadow rebuild's ([`epochs`]). The built
    /// context holds the final day's fold, so every report renders that
    /// day; [`ReproContext::epochs`] carries the run's accounting.
    /// Requires `shard_size`; excludes `mine` and `faults`.
    pub epochs: Option<EpochSpec>,
}

/// Shared state for all report generators: the generated ecosystem plus the
/// one fused analysis scan over it.
pub struct ReproContext {
    /// The synthetic ecosystem (registration vectors are empty after a
    /// streamed build; the WHOIS and pDNS artifacts and the artifact
    /// folds are complete either way).
    pub eco: Ecosystem,
    /// The corpus plan both builds return: regenerates any shard of the
    /// base corpus on demand (`--dump-dataset` walks it).
    pub corpus: KeyedCorpus,
    /// Both detectors' findings and every corpus-derived aggregate the
    /// report generators read, folded by the one fused
    /// [`idnre_analyze::ShardedScan`] traversal.
    pub outputs: passes::ScanOutputs,
    /// The Section VI-D lookalike candidates of the top brands, enumerated
    /// once for Figures 6 and 7 and the two candidate-pool extensions.
    pub candidates: CandidateSurvey,
    /// The WHOIS aggregates of Tables I, III and IV and Figure 1, folded
    /// once from `eco.whois`.
    pub whois: WhoisFacts,
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
    /// The played epochs' accounting, present only under
    /// [`RunSpec::epochs`]; [`ReproContext::outputs`], and so every
    /// report, is then the final epoch's fold.
    pub epochs: Option<EpochRun>,
}

impl std::fmt::Debug for ReproContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReproContext")
            .field("eco", &self.eco)
            .field("outputs", &self.outputs)
            .field("recorder_enabled", &self.recorder.enabled())
            .finish()
    }
}

impl ReproContext {
    /// Generates the ecosystem, enumerates the [`CandidateSurvey`], folds
    /// the [`WhoisFacts`], runs the fused analysis scan (both detectors,
    /// every report aggregator — Table V's sample crawl among them — and,
    /// under [`RunSpec::mine`], the miner), then, under
    /// [`RunSpec::faults`] only, the crawl and WHOIS surveys, or, under
    /// [`RunSpec::epochs`] only, the epoch loop.
    /// Every stage reports to `recorder`; the built context, and
    /// therefore every report, is byte-identical for any recorder, thread
    /// count and [`RunSpec::shard_size`].
    ///
    /// # Panics
    ///
    /// Panics on a [`RunSpec::epochs`] spec without `shard_size`, or with
    /// `mine` or `faults` (the combinations `repro` rejects as usage
    /// errors), and when an epoch's incremental fold differs from its
    /// shadow rebuild.
    pub fn build(config: &EcosystemConfig, spec: &RunSpec, recorder: Arc<dyn Recorder>) -> Self {
        if spec.epochs.is_some() {
            assert!(
                spec.shard_size.is_some(),
                "RunSpec::epochs requires shard_size: epochs fold the streamed corpus"
            );
            assert!(
                !spec.mine,
                "RunSpec::epochs cannot be combined with mine: the bucket index is one-shot"
            );
            assert!(
                spec.faults.is_none(),
                "RunSpec::epochs cannot be combined with faults: the faulted surveys would \
                 walk the base corpus, not the final epoch's"
            );
        }
        let shard_size = spec.shard_size.unwrap_or(DEFAULT_SHARD_SIZE);
        let mut span = recorder.span_at("build.ecosystem", SpanCtx::ROOT, 0);
        let (eco, corpus, columns) =
            idnre_datagen::generate_traced(config, spec.shard_size, &*recorder, span.ctx());
        let slice_source;
        let stream_source;
        let view = match spec.shard_size {
            None => {
                slice_source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
                CorpusView::resident(&slice_source)
            }
            Some(walk) => {
                stream_source = StreamSource::new(&corpus);
                CorpusView {
                    source: &stream_source,
                    walk,
                }
            }
        };
        span.add_records(view.len());
        drop(span);

        let candidates = CandidateSurvey::build(&eco.brands, config.threads, &*recorder);
        // The inputs every scan plan of the run borrows.
        let span = recorder.span_at("analyze.inputs", SpanCtx::ROOT, 0);
        let whois = WhoisFacts::build(&eco.whois, &eco.blacklist, config.threads);
        let inputs = passes::ScanInputs::new(&eco.brands, &candidates);
        drop(span);
        let mining_plan = spec.mine.then(|| mine::MiningPlan::new(&columns));
        let plan = inputs.plan(&columns, mining_plan.as_ref());
        let mut cold = None;
        let (outputs, index) = match spec.epochs {
            None => plan.run_at(
                view.source,
                shard_size,
                config.threads,
                &*recorder,
                SpanCtx::ROOT,
            ),
            Some(_) => {
                // The epoch engine's cold fold: every shard misses the
                // empty cache, so this is the one-shot scan, leaving its
                // partials resident for the epoch loop.
                let mut state = EpochState::new(shard_size);
                let (outputs, stats) = plan.run_epoch(
                    &mut state,
                    view.source,
                    config.threads,
                    &[],
                    &*recorder,
                    SpanCtx::ROOT,
                );
                cold = Some((state, stats));
                (outputs, None)
            }
        };
        // Figures 5 and 8 count their pDNS joins on racing report workers:
        // registered here, after the scan's counters, the pair keeps one
        // snapshot position.
        recorder.preregister(&idnre_pdns::LOOKUP_COUNTERS);
        // Pass B of the miner runs over the non-singleton buckets of the
        // index pass A folded, under the same parent span.
        let mining = index.zip(mining_plan.as_ref()).map(|(index, mining_plan)| {
            mine::mine_portfolios(
                &index,
                &columns,
                mining_plan,
                &eco,
                config.threads,
                &*recorder,
                SpanCtx::ROOT,
            )
        });
        let health = spec
            .faults
            .as_ref()
            .map(|setup| robust::faulted_surveys(&view, &eco, setup, config.threads, &*recorder));
        let mut ctx = ReproContext {
            eco,
            corpus,
            outputs,
            candidates,
            whois,
            recorder,
            health,
            mining,
            epochs: None,
        };
        if let (Some(epoch_spec), Some(cold)) = (spec.epochs, cold) {
            ctx.epochs = Some(epochs::play(&mut ctx, epoch_spec, cold, columns, &inputs));
        }
        if spec.shard_size.is_some() {
            // Recorded last so the gauge and the counter cover every
            // stage's shard walks: the faulted surveys' or the epochs'.
            ctx.recorder.gauge_max(
                idnre_datagen::PEAK_RESIDENT_RECORDS,
                ctx.corpus.gauge().peak(),
            );
            ctx.recorder.add(
                idnre_datagen::SHARDS_REGENERATED,
                ctx.corpus.shards_regenerated(),
            );
        }
        ctx
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
             1:1 corpus (1,481,378 IDNs plus the 1.2M non-IDN sample) with bounded \
             registration residency — peak resident records stay ≤ 4 × shard_size × \
             threads at any scale, and `--metrics` reports the peak as the \
             `datagen.peak_resident_records` gauge. The process's memory is not \
             bounded: the WHOIS and pDNS artifacts stay resident.\n\n",
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
        let recovered = ctx.outputs.homographs.len();
        assert!(
            recovered * 2 >= injected,
            "recovered {recovered} of {injected}"
        );
        // Semantic detector recovers essentially all Type-1 injections.
        let injected_sem = ctx.eco.semantic_attacks.len();
        let recovered_sem = ctx.outputs.semantic1.len();
        assert!(
            recovered_sem * 10 >= injected_sem * 9,
            "recovered {recovered_sem} of {injected_sem}"
        );
    }

    /// Tables I, III and IV and Figure 1 read the run's WHOIS fold, not
    /// the records: with the records cleared after the build they render
    /// the same bytes.
    #[test]
    fn whois_reports_read_the_fold_not_the_records() {
        let mut ctx = small();
        let generators: [reports::Generator; 4] = [
            reports::table1,
            reports::fig1,
            reports::table3,
            reports::table4,
        ];
        let before: Vec<String> = generators.iter().map(|g| g(&ctx)).collect();
        assert!(!ctx.eco.whois.is_empty());
        ctx.eco.whois.clear();
        let after: Vec<String> = generators.iter().map(|g| g(&ctx)).collect();
        assert_eq!(before, after);
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
        let json = snapshot.render_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{}\"", idnre_telemetry::SCHEMA)));

        // Only a faulted build surveys the corpus, and its crawl survey
        // pre-registers the full outcome set.
        let plan = idnre_fault::FaultPlan::from_spec("smoke").expect("known profile");
        let spec = RunSpec {
            faults: Some(FaultSetup::from_plan(plan)),
            ..RunSpec::default()
        };
        let registry = Arc::new(idnre_telemetry::Registry::new());
        let _ = ReproContext::build(&config(), &spec, registry.clone());
        let snapshot = registry.snapshot();
        for name in OUTCOME_COUNTERS {
            assert!(
                snapshot.counters.iter().any(|c| c.name == name),
                "missing pre-registered counter {name}"
            );
        }
    }

    /// Table V is a measurement: the content pass crawls its sample
    /// through `robust::host_model`'s hosts. Over every record of both
    /// populations the crawl recovers the generator's category, so the
    /// crawled-vs-ground-truth confusion matrix is exactly diagonal, and
    /// the folded counts equal the ground-truth tally of each population's
    /// first [`passes::CONTENT_SAMPLE`] records. The sample crawl records
    /// nothing: a clean build registers no `crawler.*` counter or stage.
    #[test]
    fn table_v_crawl_recovers_the_ground_truth() {
        use idnre_crawler::UsageCategory;
        let registry = Arc::new(idnre_telemetry::Registry::new());
        let ctx = ReproContext::build(&config(), &RunSpec::default(), registry.clone());
        let mut confusion = [[0u64; UsageCategory::ALL.len()]; UsageCategory::ALL.len()];
        let mut truth = passes::ContentCounts {
            idn: [0; UsageCategory::ALL.len()],
            non_idn: [0; UsageCategory::ALL.len()],
        };
        for (registrations, sample) in [
            (&ctx.eco.idn_registrations, &mut truth.idn),
            (&ctx.eco.non_idn_registrations, &mut truth.non_idn),
        ] {
            for (i, reg) in registrations.iter().enumerate() {
                let expected = robust::usage_index(reg.content);
                confusion[expected][robust::usage_index(robust::sample_crawl(reg))] += 1;
                if (i as u64) < passes::CONTENT_SAMPLE {
                    sample[expected] += 1;
                }
            }
        }
        for (expected, row) in confusion.iter().enumerate() {
            for (crawled, &count) in row.iter().enumerate() {
                if crawled == expected {
                    assert!(
                        count > 0,
                        "{:?} never crawled",
                        UsageCategory::ALL[expected]
                    );
                } else {
                    assert_eq!(
                        count,
                        0,
                        "{:?} crawled as {:?}",
                        UsageCategory::ALL[expected],
                        UsageCategory::ALL[crawled]
                    );
                }
            }
        }
        assert_eq!(ctx.outputs.content, truth);

        let snapshot = registry.snapshot();
        assert!(snapshot
            .stages
            .iter()
            .all(|s| !s.name.starts_with("crawler.") && !s.name.starts_with("crawl.")));
        assert!(snapshot
            .counters
            .iter()
            .all(|c| !c.name.starts_with("crawler.")));
    }

    /// A clean streamed build regenerates every shard exactly twice: once
    /// in the artifact traversal, which also emits the column rows, and
    /// once in the fused scan.
    #[test]
    fn clean_streamed_build_regenerates_each_shard_twice() {
        for shard_size in [64usize, 1024] {
            let registry = Arc::new(idnre_telemetry::Registry::new());
            let spec = RunSpec {
                shard_size: Some(shard_size),
                ..RunSpec::default()
            };
            let ctx = ReproContext::build(&config(), &spec, registry.clone());
            let size = shard_size as u64;
            let shards =
                ctx.outputs.idn_len.div_ceil(size) + ctx.outputs.non_idn_len.div_ceil(size);
            assert_eq!(
                registry.counter_value(idnre_datagen::SHARDS_REGENERATED),
                2 * shards,
                "shard size {shard_size}"
            );
        }
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

    /// `repro` rejects `--epochs` without `--stream`; a library caller
    /// gets the same rule as a panic naming the conflict.
    #[test]
    #[should_panic(expected = "RunSpec::epochs requires shard_size")]
    fn epochs_without_a_shard_size_are_rejected() {
        let spec = RunSpec {
            epochs: Some(EpochSpec {
                count: 1,
                churn_per_mille: DEFAULT_CHURN_PER_MILLE,
            }),
            ..RunSpec::default()
        };
        let _ = ReproContext::build(&config(), &spec, Arc::new(NoopRecorder));
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
