//! The `repro --bench` measurement: the timed stages of the run the other
//! flags describe, written as `BENCH_pipeline.json` so every change leaves
//! a perf-trajectory point behind.
//!
//! `repro --bench` builds and renders its run exactly as it would without
//! `--bench`, under a [`Registry`]; then [`measure`] reads that registry.
//! Every stage the build and the render recorded (generation sub-stages,
//! the fused scan's passes, the miner's `mine.pairs`, an epochs run's
//! folds and shadow rebuilds, a faulted run's surveys, the dataset render
//! of `--dump-dataset`, each report generator) becomes one entry with its
//! measured wall time and record count. The bench runs nothing of its
//! own, so a stage has an entry exactly when the run executed it:
//! `--faults none` times lenient zone ingest, the WHOIS survey and the
//! crawl survey (`crawl.survey.faulted`, or `crawl.survey.sched` under
//! `--crawl-sched`), and `--dump-dataset` times `dataset.render`. The two
//! crawler histograms that record something other than wall time,
//! `crawler.retry.attempts` (attempt counts) and `crawler.sched.latency`
//! (virtual latency), are not entries; `--metrics` and `--slo` read them.
//!
//! The exhaustive oracles the indexed paths are checked against run in
//! tests, not here: `tests/oracles.rs` holds the run's homograph findings
//! to `HomographDetector::scan_exhaustive` and the LSH miner's pairs to
//! `mine::verified_pairs_exhaustive`, and counts the SSIM verifications
//! each path makes; `benches/bench_homograph_scan.rs` times the indexed
//! scan against the exhaustive one, `benches/bench_punycode.rs` the
//! punycode codec; `tests/scan_overhead.rs` holds the per-pass
//! attribution to its ≤ 1.05× budget.
//!
//! # Schema (`idnre-bench-pipeline/9`)
//!
//! ```json
//! {
//!   "schema": "idnre-bench-pipeline/9", "mode": "batch",
//!   "scale": 50, "attack_scale": 1, "threads": 8, "seed": 497885208,
//!   "shard_size": 1024, "peak_resident_records": 0,
//!   "mining": {"candidate_pairs": 18022, "verified_pairs": 13345, "portfolios": 771},
//!   "entries": [
//!     {"stage": "build.ecosystem", "pass": "", "wall_ns": 75630000,
//!      "records": 56241, "ns_per_record": 1344}
//!   ]
//! }
//! ```
//!
//! `mode` is the build's: `batch`, or `streamed` under `--stream`.
//! `shard_size` is the shard the run's scan walked (`--shard-size` under
//! `--stream`, else [`crate::DEFAULT_SHARD_SIZE`]), and
//! `peak_resident_records` is the run's `datagen.peak_resident_records`
//! gauge peak, 0 in batch. The paper-scale contract
//! `peak_resident_records ≤ 4 × shard_size × threads` is readable straight
//! from a streamed run's JSON. `mining` is present only when the run mined
//! (`--mine-portfolios`).
//!
//! Per entry, `pass` is the short pass name of an `analyze.pass.<name>`
//! attribution stage (`"homograph"`, `"tld"`, …) and the empty string for
//! every other stage. `records` is the number of domains (or zone lines,
//! dataset bytes) the stage processed; `ns_per_record` is the per-domain
//! throughput the perf trajectory tracks (`report.candidates` counts
//! candidates enumerated). Stages that record wall time only — the
//! `report.*` generators — carry their call count instead, so their
//! `ns_per_record` is the wall per call. Wall times are measurements, not
//! part of the byte-identical report contract.

use crate::{ReproContext, RunSpec};
use idnre_crawler::{ATTEMPTS_HISTOGRAM, SCHED_LATENCY_HISTOGRAM};
use idnre_telemetry::Registry;

/// Schema tag of the JSON this module writes.
pub const BENCH_SCHEMA: &str = "idnre-bench-pipeline/9";

/// Prefix of the per-pass attribution stages the fused scan records.
pub const PASS_STAGE_PREFIX: &str = "analyze.pass.";

/// Registry stages [`measure`] leaves out: the crawler feeds them through
/// `Recorder::record_nanos` with attempt counts and virtual latency, which
/// are not wall time.
const NOT_WALL_TIME: [&str; 2] = [ATTEMPTS_HISTOGRAM, SCHED_LATENCY_HISTOGRAM];

/// One timed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Dotted stage name (`build.ecosystem`, `report.table1`, …).
    pub stage: String,
    /// Wall time of the stage, in nanoseconds.
    pub wall_ns: u64,
    /// Records the stage processed (domains, zone lines, dataset bytes),
    /// or its call count for wall-only stages.
    pub records: u64,
}

impl BenchEntry {
    /// Per-record wall time (0 when the stage processed nothing).
    pub fn ns_per_record(&self) -> u64 {
        self.wall_ns.checked_div(self.records).unwrap_or(0)
    }

    /// Short pass name for `analyze.pass.<name>` attribution stages, the
    /// empty string for everything else — the per-entry `pass` key.
    pub fn pass(&self) -> &str {
        self.stage.strip_prefix(PASS_STAGE_PREFIX).unwrap_or("")
    }
}

/// The top-level `mining` summary block: the mined result of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiningSummary {
    /// In-bucket candidate pairs pass B generated.
    pub candidate_pairs: u64,
    /// SSIM-verified confusable pairs.
    pub verified_pairs: u64,
    /// Clustered squatter portfolios.
    pub portfolios: u64,
}

/// A `repro --bench` result: the run's timed stages.
#[derive(Debug, Clone)]
pub struct PipelineBench {
    /// Which build the run was: `batch`, or `streamed` under `--stream`.
    pub mode: &'static str,
    /// Ecosystem scale denominator the run used.
    pub scale: u64,
    /// Attack-population scale denominator.
    pub attack_scale: u64,
    /// Worker threads the run ran on.
    pub threads: usize,
    /// RNG seed (the run is reproducible from `scale` + `seed`).
    pub seed: u64,
    /// Shard size the run's fused scan walked.
    pub shard_size: usize,
    /// Peak of the run's `datagen.peak_resident_records` gauge (0 in
    /// batch, which records no gauge) — the memory-budget number the
    /// paper-scale contract (`≤ 4 × shard_size × threads`) is checked
    /// against.
    pub peak_resident_records: u64,
    /// The mined-portfolio summary, present only when the run mined.
    pub mining: Option<MiningSummary>,
    /// The run's stages in first-use order.
    pub entries: Vec<BenchEntry>,
}

impl PipelineBench {
    /// The entry for `stage`, if the run recorded it.
    pub fn entry(&self, stage: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.stage == stage)
    }
}

/// One `analyze.pass.<name>` row of a [`RunLedger`].
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// Full stage name (`analyze.pass.homograph`).
    pub stage: String,
    /// Short pass name (`homograph`).
    pub pass: String,
    /// Summed wall across the pass's shard spans, merge and finish.
    pub wall_ns: u64,
    /// Records the pass observed.
    pub records: u64,
}

impl LedgerRow {
    /// Per-record attribution cost (0 when nothing was observed).
    pub fn ns_per_record(&self) -> u64 {
        self.wall_ns.checked_div(self.records).unwrap_or(0)
    }
}

/// The per-pass cost ledger of the benchmarked run: every
/// `analyze.pass.<name>` stage's wall and ns/record next to the
/// `analyze.scan` wall they decompose. Rendered on stderr by
/// `repro --bench` — never into the report, whose bytes stay identical
/// with and without instrumentation.
#[derive(Debug, Clone)]
pub struct RunLedger {
    /// Which build produced the rows: `batch` or `streamed`.
    pub mode: &'static str,
    /// Worker threads the run used.
    pub threads: usize,
    /// Wall of the enclosing `analyze.scan` span.
    pub scan_wall_ns: u64,
    /// One row per registered pass, snapshot (registration) order.
    pub rows: Vec<LedgerRow>,
}

impl RunLedger {
    /// The run's ledger: its `analyze.scan` entry and the pass rows.
    /// `None` for a run without a one-shot scan (an epochs run folds
    /// through `analyze.epoch` instead).
    pub fn collect(bench: &PipelineBench) -> Option<RunLedger> {
        let scan = bench.entry(idnre_analyze::SCAN_SPAN)?;
        let rows = bench
            .entries
            .iter()
            .filter(|e| e.stage.starts_with(PASS_STAGE_PREFIX))
            .map(|e| LedgerRow {
                stage: e.stage.clone(),
                pass: e.pass().to_string(),
                wall_ns: e.wall_ns,
                records: e.records,
            })
            .collect();
        Some(RunLedger {
            mode: bench.mode,
            threads: bench.threads,
            scan_wall_ns: scan.wall_ns,
            rows,
        })
    }

    /// Summed wall across every pass row.
    pub fn pass_wall_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.wall_ns).sum()
    }

    /// Fraction of the `analyze.scan` wall the pass rows account for.
    /// Can exceed 1.0: shard spans on different workers overlap in time.
    pub fn coverage(&self) -> f64 {
        if self.scan_wall_ns == 0 {
            return 0.0;
        }
        self.pass_wall_ns() as f64 / self.scan_wall_ns as f64
    }

    /// Renders the ledger as the stderr table `repro --bench` prints.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pass ledger — mode {}, {} threads, analyze.scan {:.3} ms\n",
            self.mode,
            self.threads,
            self.scan_wall_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "  {:<12} {:>12} {:>12} {:>10} {:>8}\n",
            "pass", "wall_ms", "records", "ns/rec", "share"
        ));
        for row in &self.rows {
            let share = if self.scan_wall_ns == 0 {
                0.0
            } else {
                100.0 * row.wall_ns as f64 / self.scan_wall_ns as f64
            };
            out.push_str(&format!(
                "  {:<12} {:>12.3} {:>12} {:>10} {:>7.1}%\n",
                row.pass,
                row.wall_ns as f64 / 1e6,
                row.records,
                row.ns_per_record(),
                share,
            ));
        }
        out.push_str(&format!(
            "  attributed: {:.1}% of analyze.scan\n",
            100.0 * self.coverage()
        ));
        out
    }
}

/// Benchmarks a built run: one entry per stage `registry` recorded while
/// `ctx` was built from `spec` (and rendered), in first-use order, except
/// the crawler's attempt-count and virtual-latency histograms. Reads the
/// registry only.
pub fn measure(ctx: &ReproContext, spec: &RunSpec, registry: &Registry) -> PipelineBench {
    let config = &ctx.eco.config;
    let entries = registry
        .snapshot()
        .stages
        .iter()
        .filter(|s| !NOT_WALL_TIME.contains(&s.name.as_str()))
        .map(|s| BenchEntry {
            stage: s.name.clone(),
            wall_ns: s.wall_nanos,
            records: s.records.max(s.calls),
        })
        .collect();
    PipelineBench {
        mode: if spec.shard_size.is_some() {
            "streamed"
        } else {
            "batch"
        },
        scale: config.scale,
        attack_scale: config.attack_scale,
        threads: config.threads,
        seed: config.seed,
        shard_size: spec.shard_size.unwrap_or(crate::DEFAULT_SHARD_SIZE),
        peak_resident_records: registry.gauge_peak(idnre_datagen::PEAK_RESIDENT_RECORDS),
        mining: ctx.mining.as_ref().map(|m| MiningSummary {
            candidate_pairs: m.candidate_pairs,
            verified_pairs: m.verified_pairs,
            portfolios: m.portfolios.len() as u64,
        }),
        entries,
    }
}

/// Renders a bench result as schema-stable JSON (`idnre-bench-pipeline/9`).
pub fn render_bench_json(bench: &PipelineBench) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{BENCH_SCHEMA}\",\"mode\":\"{}\",\"scale\":{},\
         \"attack_scale\":{},\"threads\":{},\"seed\":{},\
         \"shard_size\":{},\"peak_resident_records\":{},",
        bench.mode,
        bench.scale,
        bench.attack_scale,
        bench.threads,
        bench.seed,
        bench.shard_size,
        bench.peak_resident_records
    ));
    if let Some(mining) = &bench.mining {
        out.push_str(&format!(
            "\"mining\":{{\"candidate_pairs\":{},\"verified_pairs\":{},\
             \"portfolios\":{}}},",
            mining.candidate_pairs, mining.verified_pairs, mining.portfolios
        ));
    }
    out.push_str("\"entries\":[");
    for (i, entry) in bench.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"stage\":\"{}\",\"pass\":\"{}\",\"wall_ns\":{},\"records\":{},\
             \"ns_per_record\":{}}}",
            entry.stage,
            entry.pass(),
            entry.wall_ns,
            entry.records,
            entry.ns_per_record(),
        ));
    }
    out.push_str("]}");
    out
}

/// Renders the human summary `--bench` prints on stderr.
pub fn render_bench_text(bench: &PipelineBench) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "pipeline bench — mode {}, scale 1:{}, {} threads\n",
        bench.mode, bench.scale, bench.threads
    ));
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>10}\n",
        "stage", "wall_ms", "records", "ns/rec"
    ));
    for entry in &bench.entries {
        out.push_str(&format!(
            "{:<28} {:>12.3} {:>12} {:>10}\n",
            entry.stage,
            entry.wall_ns as f64 / 1e6,
            entry.records,
            entry.ns_per_record(),
        ));
    }
    out.push_str(&format!(
        "peak residency: {} records (shard size {})\n",
        bench.peak_resident_records, bench.shard_size
    ));
    if let Some(mining) = &bench.mining {
        out.push_str(&format!(
            "portfolio mining: {} candidate pairs, {} verified, {} portfolios\n",
            mining.candidate_pairs, mining.verified_pairs, mining.portfolios
        ));
    }
    if let Some(ledger) = RunLedger::collect(bench) {
        out.push_str(&ledger.render_text());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultSetup;
    use idnre_datagen::EcosystemConfig;
    use idnre_fault::FaultPlan;
    use idnre_sched::SchedConfig;
    use std::sync::Arc;

    fn config() -> EcosystemConfig {
        EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            ..EcosystemConfig::default()
        }
    }

    /// `spec`'s run, built and rendered under a registry, as
    /// `repro --bench all` runs it.
    fn run(config: &EcosystemConfig, spec: &RunSpec) -> (ReproContext, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let ctx = ReproContext::build(config, spec, registry.clone());
        let _ = ctx.full_report();
        (ctx, registry)
    }

    /// A mined run at `shard_size`, as `--mine-portfolios` runs it.
    fn mined(shard_size: Option<usize>) -> RunSpec {
        RunSpec {
            shard_size,
            mine: true,
            ..RunSpec::default()
        }
    }

    fn measured_batch() -> PipelineBench {
        let spec = mined(None);
        let (ctx, registry) = run(&config(), &spec);
        measure(&ctx, &spec, &registry)
    }

    #[test]
    fn bench_json_is_well_formed_and_gated() {
        let bench = measured_batch();
        // Stage coverage: the run's generation, passes, miner and reports.
        for stage in [
            "build.ecosystem",
            "analyze.pass.semantic1",
            "analyze.pass.bucket_index",
            "mine.pairs",
        ] {
            assert!(bench.entry(stage).is_some(), "missing stage {stage}");
        }
        assert!(bench.entries.iter().any(|e| e.stage.starts_with("report.")));
        // A clean run executes no survey, no dataset render and no oracle,
        // so the bench times none of them.
        for stage in [
            "idna.decode",
            "zone.ingest.lenient",
            "dataset.render",
            "crawl.survey.faulted",
            "crawl.survey.sync",
            "crawl.survey.sched",
            "homograph.scan.exhaustive",
            "mine.pairs.exhaustive",
            "analyze.scan.uninstrumented",
        ] {
            assert!(bench.entry(stage).is_none(), "{stage} is not a run stage");
        }

        let mining = bench.mining.expect("the run mined");
        assert!(mining.candidate_pairs >= mining.verified_pairs);
        assert!(mining.verified_pairs >= mining.portfolios);

        // A batch run scans in the default shard and records no residency
        // gauge.
        assert_eq!(bench.mode, "batch");
        assert_eq!(bench.shard_size, crate::DEFAULT_SHARD_SIZE);
        assert_eq!(bench.peak_resident_records, 0);

        let json = render_bench_json(&bench);
        assert!(json.starts_with("{\"schema\":\"idnre-bench-pipeline/9\",\"mode\":\"batch\","));
        assert!(json.contains("\"shard_size\":1024,\"peak_resident_records\":0,"));
        assert!(json.contains("\"mining\":{\"candidate_pairs\":"));
        assert!(json.contains("\"verified_pairs\":"));
        assert!(json.contains("\"portfolios\":"));
        assert!(!json.contains("\"epochs\""));
        assert!(!json.contains("dataset_fingerprint"));
        assert!(json
            .contains("{\"stage\":\"analyze.pass.homograph\",\"pass\":\"homograph\",\"wall_ns\":"));
        assert!(json.contains("{\"stage\":\"build.ecosystem\",\"pass\":\"\",\"wall_ns\":"));
        assert_eq!(json.matches("\"mode\"").count(), 1);
        assert_eq!(json.matches("\"stage\"").count(), bench.entries.len());
        assert!(json.ends_with("]}"));
        // Balanced braces — the render is hand-built.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);

        let text = render_bench_text(&bench);
        assert!(text.contains("pipeline bench — mode batch"));
        assert!(text.contains("peak residency"));
        assert!(text.contains("portfolio mining:"));
        assert!(text.contains("pass ledger"));
    }

    #[test]
    fn ledger_decomposes_the_scan_wall() {
        let bench = measured_batch();
        let ledger = RunLedger::collect(&bench).expect("a one-shot run scans");
        assert_eq!(ledger.mode, "batch");
        // Exactly the registered passes show up: 3 core detectors + 6
        // report aggregation passes + the miner's pass A. Pass B runs
        // after the scan as `mine.pairs`, outside the ledger.
        assert_eq!(ledger.rows.len(), 10);
        assert!(ledger.scan_wall_ns > 0);
        for row in &ledger.rows {
            assert_eq!(row.stage, format!("{PASS_STAGE_PREFIX}{}", row.pass));
            assert!(row.records > 0, "{} observed nothing", row.stage);
        }
        // The pass rows account for the bulk of the scan wall even at this
        // small scale (the CI gate holds >= 90% at scale 50).
        assert!(ledger.coverage() > 0.5, "coverage {:.3}", ledger.coverage());
    }

    /// The entries are the run's wall-time stages: every stage its
    /// registry recorded, in order, except the crawler's attempt-count and
    /// virtual-latency histograms, which a scheduled storm run feeds.
    #[test]
    fn entries_are_the_registry_stages_minus_the_crawler_histograms() {
        let config = EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            ..EcosystemConfig::default()
        };
        let plan = FaultPlan::from_spec("storm").expect("a known profile");
        let spec = RunSpec {
            faults: Some(FaultSetup::from_plan(plan).with_sched(SchedConfig::default())),
            ..RunSpec::default()
        };
        let (ctx, registry) = run(&config, &spec);
        let recorded: Vec<String> = registry
            .snapshot()
            .stages
            .into_iter()
            .map(|s| s.name)
            .collect();
        for histogram in [ATTEMPTS_HISTOGRAM, SCHED_LATENCY_HISTOGRAM] {
            assert!(
                recorded.iter().any(|name| name == histogram),
                "the storm run recorded no {histogram}"
            );
        }
        let wall_time: Vec<&str> = recorded
            .iter()
            .map(String::as_str)
            .filter(|name| *name != ATTEMPTS_HISTOGRAM && *name != SCHED_LATENCY_HISTOGRAM)
            .collect();
        let bench = measure(&ctx, &spec, &registry);
        let stages: Vec<&str> = bench.entries.iter().map(|e| e.stage.as_str()).collect();
        assert_eq!(stages, wall_time);
        // The faulted surveys are run stages, timed by the run.
        for stage in ["zone.ingest.lenient", "whois.survey", "crawl.survey.sched"] {
            assert!(stages.contains(&stage), "missing run stage {stage}");
        }
    }

    /// A streamed run's bench carries its own mode, shard and residency
    /// peak, and the batch run's mined result; measuring records nothing
    /// into the run's registry.
    #[test]
    fn streamed_bench_reads_its_own_run() {
        let config = EcosystemConfig {
            threads: 2,
            ..config()
        };
        let measured = |shard_size| {
            let spec = mined(shard_size);
            let (ctx, registry) = run(&config, &spec);
            let before = registry.snapshot().render_deterministic_json();
            let bench = measure(&ctx, &spec, &registry);
            assert_eq!(
                registry.snapshot().render_deterministic_json(),
                before,
                "measure recorded into the run's registry"
            );
            bench
        };
        let (batch, streamed) = (measured(None), measured(Some(64)));
        assert_eq!(streamed.mode, "streamed");
        assert!(batch.mining.is_some());
        assert_eq!(batch.mining, streamed.mining);
        assert!(render_bench_json(&streamed).contains("\"mode\":\"streamed\""));

        assert_eq!(streamed.shard_size, 64);
        assert!(streamed.peak_resident_records > 0);
        assert!(
            streamed.peak_resident_records <= (4 * 64 * config.threads) as u64,
            "peak {} exceeds 4 × 64 × {}",
            streamed.peak_resident_records,
            config.threads
        );
    }
}
