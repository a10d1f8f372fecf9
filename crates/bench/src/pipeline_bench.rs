//! The `repro --bench` measurement: the timed stages of the run the other
//! flags describe, plus a fixed set of probes, written as
//! `BENCH_pipeline.json` so every change leaves a perf-trajectory point
//! behind.
//!
//! `repro --bench` builds and renders its run exactly as it would without
//! `--bench`, under a [`Registry`]; then [`measure`] reads that registry
//! and runs the probes. Two sources feed the entries:
//!
//! 1. **The run's stage spans.** Every stage the build and the render
//!    recorded (generation sub-stages, the fused scan's passes or an
//!    epochs run's folds and shadow rebuilds, each report generator)
//!    becomes one entry with its measured wall time and record count. Its
//!    `mode` is the build's: `batch`, or `streamed` under `--stream`.
//! 2. **Probes** (`mode` `probe`). Stages the spans do not isolate are
//!    timed directly over one resident batch corpus that [`measure`]
//!    regenerates untimed, so the probes see the same inputs in every
//!    mode and record nothing into the run's registry: punycode decode,
//!    lenient zone ingest, the homograph scan indexed over a size ladder
//!    and against its exhaustive oracle, the dataset render (whose
//!    fingerprint the JSON carries), the portfolio miner's LSH pairs
//!    against the all-pairs oracle, the fused scan instrumented and
//!    uninstrumented, and the crawl survey synchronous and scheduled.
//!    The indexed-vs-exhaustive pairs are the regression gates CI holds
//!    every future change to.
//!
//! # Schema (`idnre-bench-pipeline/7`)
//!
//! ```json
//! {
//!   "schema": "idnre-bench-pipeline/7",
//!   "scale": 50, "attack_scale": 1, "threads": 8, "seed": 497885208,
//!   "dataset_fingerprint": "0xa30479eed80c6bdf",
//!   "shard_size": 1024, "peak_resident_records": 0,
//!   "mining": {"candidate_pairs": 18022, "verified_pairs": 13345, "portfolios": 771},
//!   "entries": [
//!     {"stage": "build.ecosystem", "pass": "", "mode": "batch", "scale": 50,
//!      "threads": 8, "wall_ns": 75630000, "records": 56241, "ns_per_record": 1344}
//!   ]
//! }
//! ```
//!
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

use crate::passes::{finish_columns, ScanInputs};
use crate::{CorpusView, FaultSetup, ReproContext, RunSpec};
use idnre_analyze::SliceSource;
use idnre_core::SkeletonCache;
use idnre_telemetry::{NoopRecorder, Recorder, Registry, SpanCtx};
use std::time::Instant;

/// Schema tag of the JSON this module writes.
pub const BENCH_SCHEMA: &str = "idnre-bench-pipeline/7";

/// Prefix of the per-pass attribution stages the fused scan records.
pub const PASS_STAGE_PREFIX: &str = "analyze.pass.";

/// Rounds of the instrumented/uninstrumented probe pair; the entries keep
/// the minimum wall of each, so transient scheduler noise on one round
/// cannot masquerade as instrumentation overhead.
pub const OVERHEAD_PROBE_ROUNDS: usize = 2;

/// Corpus sizes the indexed homograph scan is timed at (intersected with
/// the generated corpus); the exhaustive oracle runs only at the capped
/// size ([`EXHAUSTIVE_CAP`]).
pub const HOMOGRAPH_BENCH_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// The exhaustive oracle is O(brands) per domain, so its probe corpus is
/// capped to keep a bench run in seconds; the indexed path is measured at
/// the same capped size so the pair stays comparable.
pub const EXHAUSTIVE_CAP: usize = 10_000;

/// One timed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Dotted stage name (`homograph.scan.indexed`, `report.table1`, …).
    pub stage: String,
    /// What produced the entry: the run's `batch` or `streamed` build, or
    /// a `probe`.
    pub mode: &'static str,
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

/// A `repro --bench` result: the run's timed stages, then the probes.
#[derive(Debug, Clone)]
pub struct PipelineBench {
    /// Ecosystem scale denominator the run used.
    pub scale: u64,
    /// Attack-population scale denominator.
    pub attack_scale: u64,
    /// Worker threads the run and the probes ran on.
    pub threads: usize,
    /// RNG seed (the run is reproducible from `scale` + `seed`).
    pub seed: u64,
    /// FNV-1a fingerprint of the rendered `idnre-dataset/2` artifact.
    pub dataset_fingerprint: u64,
    /// Shard size the run's fused scan walked.
    pub shard_size: usize,
    /// Peak of the run's `datagen.peak_resident_records` gauge (0 in
    /// batch, which records no gauge) — the memory-budget number the
    /// paper-scale contract (`≤ 4 × shard_size × threads`) is checked
    /// against.
    pub peak_resident_records: u64,
    /// The mined-portfolio summary, present only when the run mined.
    pub mining: Option<MiningSummary>,
    /// The run's stages in first-use order, then the probes.
    pub entries: Vec<BenchEntry>,
}

impl PipelineBench {
    /// The entry for `stage` with the largest record count, if any.
    pub fn entry(&self, stage: &str) -> Option<&BenchEntry> {
        self.entries
            .iter()
            .filter(|e| e.stage == stage)
            .max_by_key(|e| e.records)
    }

    /// Indexed-over-exhaustive speedup on the capped comparison corpus
    /// (>1 means the index wins). `None` before both probes ran.
    pub fn homograph_speedup(&self) -> Option<f64> {
        let indexed = self.entry("homograph.scan.indexed")?;
        let exhaustive = self.entry("homograph.scan.exhaustive")?;
        if indexed.wall_ns == 0 {
            return None;
        }
        Some(exhaustive.wall_ns as f64 / indexed.wall_ns as f64)
    }

    /// LSH-over-exhaustive speedup of the portfolio pair miner on the
    /// capped comparison prefix (>1 means the bucket index wins). `None`
    /// before both probes ran.
    pub fn mining_speedup(&self) -> Option<f64> {
        let lsh = self.entry("mine.pairs.lsh")?;
        let exhaustive = self.entry("mine.pairs.exhaustive")?;
        if lsh.wall_ns == 0 {
            return None;
        }
        Some(exhaustive.wall_ns as f64 / lsh.wall_ns as f64)
    }

    /// Instrumented-over-uninstrumented wall ratio of the fused scan
    /// (1.03 = 3% attribution overhead). `None` before both probes ran.
    pub fn instrumentation_overhead(&self) -> Option<f64> {
        let on = self.entry("analyze.scan.instrumented")?;
        let off = self.entry("analyze.scan.uninstrumented")?;
        if off.wall_ns == 0 {
            return None;
        }
        Some(on.wall_ns as f64 / off.wall_ns as f64)
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
    /// The run's ledger: its `analyze.scan` entry and the pass rows of the
    /// same mode. `None` for a run without a one-shot scan (an epochs run
    /// folds through `analyze.epoch` instead).
    pub fn collect(bench: &PipelineBench) -> Option<RunLedger> {
        let scan = bench
            .entries
            .iter()
            .find(|e| e.stage == idnre_analyze::SCAN_SPAN)?;
        let rows = bench
            .entries
            .iter()
            .filter(|e| e.mode == scan.mode && e.stage.starts_with(PASS_STAGE_PREFIX))
            .map(|e| LedgerRow {
                stage: e.stage.clone(),
                pass: e.pass().to_string(),
                wall_ns: e.wall_ns,
                records: e.records,
            })
            .collect();
        Some(RunLedger {
            mode: scan.mode,
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
/// `ctx` was built from `spec` (and rendered), then the probes. The
/// probes regenerate one resident batch corpus from `ctx`'s config,
/// untimed, and record nothing into `registry`, so their entries do not
/// depend on `spec` and the registry keeps only the run's own stages.
///
/// # Panics
///
/// Panics when the indexed homograph scan differs from its exhaustive
/// oracle, or the LSH miner verifies a pair the all-pairs oracle rejects.
pub fn measure(ctx: &ReproContext, spec: &RunSpec, registry: &Registry) -> PipelineBench {
    let config = &ctx.eco.config;
    let threads = config.threads;
    let mode = if spec.shard_size.is_some() {
        "streamed"
    } else {
        "batch"
    };
    let mut entries: Vec<BenchEntry> = registry
        .snapshot()
        .stages
        .iter()
        .map(|s| BenchEntry {
            stage: s.name.clone(),
            mode,
            wall_ns: s.wall_nanos,
            records: s.records.max(s.calls),
        })
        .collect();
    let mut probe = |stage: &str, wall_ns: u64, records: u64| {
        entries.push(BenchEntry {
            stage: stage.to_string(),
            mode: "probe",
            wall_ns,
            records,
        });
    };

    // The probes' corpus: the records, zones and interned columns of a
    // batch build of the run's config.
    let (eco, _, rows) = idnre_datagen::generate_traced(config, None, &NoopRecorder, SpanCtx::NONE);
    let columns = finish_columns(rows, threads, &NoopRecorder, SpanCtx::NONE);
    let skeletons = SkeletonCache::build(&columns, threads);
    let zones = eco.derive_zones().zones;
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let corpus_len = (eco.idn_registrations.len() + eco.non_idn_registrations.len()) as u64;
    let domains: Vec<&str> = eco
        .idn_registrations
        .iter()
        .map(|r| r.domain.as_str())
        .collect();

    // Punycode decode throughput over the registered IDN corpus.
    let started = Instant::now();
    let decoded = idnre_par::par_map(&domains, threads, |d| idnre_idna::to_unicode(d).is_ok());
    probe(
        "idna.decode",
        elapsed_ns(started),
        decoded.iter().filter(|ok| **ok).count() as u64,
    );

    // Lenient ingest throughput: the derived zones round-tripped through
    // master-file text and re-parsed with the skip-and-count parser.
    let started = Instant::now();
    let attempted: u64 = idnre_par::par_map(&zones, threads, |zone| {
        let text = idnre_zonefile::write_zone(zone);
        idnre_zonefile::parse_zone_lenient(&zone.origin.to_string(), &text).attempted as u64
    })
    .into_iter()
    .sum();
    probe("zone.ingest.lenient", elapsed_ns(started), attempted);

    // The indexed scan across the size ladder, then the indexed-vs-
    // exhaustive pair at the capped size — the entries CI gates on. The
    // rung at the cap is timed once, as the exhaustive probe's partner.
    let inputs = ScanInputs::new(&eco, &ctx.candidates);
    let detector = &inputs.homograph;
    let cap = domains.len().min(EXHAUSTIVE_CAP);
    for size in HOMOGRAPH_BENCH_SIZES {
        if size > domains.len() {
            break;
        }
        if size == cap {
            continue;
        }
        let started = Instant::now();
        let _ = detector.scan(domains[..size].iter().copied(), threads);
        probe("homograph.scan.indexed", elapsed_ns(started), size as u64);
    }
    let slice = &domains[..cap];
    let started = Instant::now();
    let indexed = detector.scan(slice.iter().copied(), threads);
    let indexed_ns = elapsed_ns(started);
    let started = Instant::now();
    let exhaustive = detector.scan_exhaustive(slice.iter().copied(), threads);
    let exhaustive_ns = elapsed_ns(started);
    assert_eq!(
        indexed, exhaustive,
        "indexed scan diverged from the exhaustive oracle"
    );
    probe("homograph.scan.indexed", indexed_ns, cap as u64);
    probe("homograph.scan.exhaustive", exhaustive_ns, cap as u64);

    // Render the canonical dataset — the byte artifact `--dump-dataset`
    // writes; its fingerprint identifies the corpus in the JSON.
    let started = Instant::now();
    let dataset = idnre_datagen::render_dataset(&eco);
    probe("dataset.render", elapsed_ns(started), dataset.len() as u64);

    // The portfolio-mining pair: skeleton-LSH bucketed pair verification
    // vs the all-pairs oracle over the same capped corpus prefix — the
    // second indexed-vs-exhaustive regression gate CI holds. Containment
    // is asserted, not equality: the oracle also surfaces pairs that clear
    // the SSIM bar without sharing a confusable skeleton (visual
    // near-misses outside the confusables table), which skeleton blocking
    // deliberately does not chase. Equality is the contract on forged
    // confusable corpora, pinned by the proptest oracle-equivalence test.
    let mining_plan = crate::mine::MiningPlan::new(&columns, &skeletons);
    let mine_cap = columns.len().min(EXHAUSTIVE_CAP);
    let started = Instant::now();
    let lsh_pairs = crate::mine::verified_pairs_lsh(&columns, &mining_plan, mine_cap, threads);
    let lsh_ns = elapsed_ns(started);
    let started = Instant::now();
    let oracle_pairs =
        crate::mine::verified_pairs_exhaustive(&columns, &mining_plan, mine_cap, threads);
    let oracle_ns = elapsed_ns(started);
    let oracle_set: std::collections::HashSet<_> =
        oracle_pairs.iter().map(|p| (p.a, p.b)).collect();
    for pair in &lsh_pairs {
        assert!(
            oracle_set.contains(&(pair.a, pair.b)),
            "LSH mined a pair the exhaustive oracle rejects: {pair:?}"
        );
    }
    probe("mine.pairs.lsh", lsh_ns, mine_cap as u64);
    probe("mine.pairs.exhaustive", oracle_ns, mine_cap as u64);

    // Attribution-overhead pair: the same fused scan re-run back to back
    // under a live registry and under the no-op recorder, timed
    // externally. Rounds alternate and each probe keeps its minimum wall,
    // so `instrumented / uninstrumented` read from the JSON is the
    // per-pass-attribution overhead the <5% budget gates.
    let mut instrumented_ns = u64::MAX;
    let mut uninstrumented_ns = u64::MAX;
    for _ in 0..OVERHEAD_PROBE_ROUNDS {
        for (recorder, wall_ns) in [
            (&Registry::new() as &dyn Recorder, &mut instrumented_ns),
            (&NoopRecorder, &mut uninstrumented_ns),
        ] {
            let started = Instant::now();
            let _ = inputs.plan(&columns, &skeletons, &eco.pdns, None).run_at(
                &source,
                crate::DEFAULT_SHARD_SIZE,
                threads,
                recorder,
                SpanCtx::NONE,
            );
            *wall_ns = (*wall_ns).min(elapsed_ns(started));
        }
    }
    probe("analyze.scan.instrumented", instrumented_ns, corpus_len);
    probe("analyze.scan.uninstrumented", uninstrumented_ns, corpus_len);

    // Crawl-survey throughput pair: the same fault-free population walked
    // by the synchronous per-domain path and by the event-driven scheduler
    // (wheel, rate limits, breakers). `crawl.survey.sched` vs
    // `crawl.survey.sync` read from the JSON is the scheduler's overhead
    // on a clean run — the throughput floor CI gates.
    let clean = FaultSetup::from_plan(idnre_fault::FaultPlan::new(
        config.seed,
        idnre_fault::FaultProfile::none(),
    ));
    let view = CorpusView::resident(&source);
    for (stage, setup) in [
        ("crawl.survey.sync", clean),
        (
            "crawl.survey.sched",
            clean.with_sched(idnre_sched::SchedConfig::default()),
        ),
    ] {
        let started = Instant::now();
        let _ = crate::robust::crawl_survey(
            &view,
            &zones,
            &setup,
            threads,
            &idnre_fault::ErrorBudget::new(0),
            &NoopRecorder,
            SpanCtx::NONE,
        );
        probe(stage, elapsed_ns(started), corpus_len);
    }

    PipelineBench {
        scale: config.scale,
        attack_scale: config.attack_scale,
        threads,
        seed: config.seed,
        dataset_fingerprint: idnre_datagen::dataset_fingerprint(&dataset),
        shard_size: spec.shard_size.unwrap_or(crate::DEFAULT_SHARD_SIZE),
        peak_resident_records: registry.gauge_peak(idnre_datagen::PEAK_RESIDENT_RECORDS),
        mining: ctx.mining.as_ref().map(|m| MiningSummary {
            candidate_pairs: m.candidate_pairs,
            verified_pairs: m.verified.len() as u64,
            portfolios: m.portfolios.len() as u64,
        }),
        entries,
    }
}

/// Renders a bench result as schema-stable JSON (`idnre-bench-pipeline/7`).
pub fn render_bench_json(bench: &PipelineBench) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"{BENCH_SCHEMA}\",\"scale\":{},\"attack_scale\":{},\
         \"threads\":{},\"seed\":{},\"dataset_fingerprint\":\"{:#018x}\",\
         \"shard_size\":{},\"peak_resident_records\":{},",
        bench.scale,
        bench.attack_scale,
        bench.threads,
        bench.seed,
        bench.dataset_fingerprint,
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
            "{{\"stage\":\"{}\",\"pass\":\"{}\",\"mode\":\"{}\",\"scale\":{},\"threads\":{},\
             \"wall_ns\":{},\"records\":{},\"ns_per_record\":{}}}",
            entry.stage,
            entry.pass(),
            entry.mode,
            bench.scale,
            bench.threads,
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
        "pipeline bench — scale 1:{}, {} threads, dataset {:#018x}\n",
        bench.scale, bench.threads, bench.dataset_fingerprint
    ));
    out.push_str(&format!(
        "{:<28} {:>8} {:>12} {:>12} {:>10}\n",
        "stage", "mode", "wall_ms", "records", "ns/rec"
    ));
    for entry in &bench.entries {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12} {:>10}\n",
            entry.stage,
            entry.mode,
            entry.wall_ns as f64 / 1e6,
            entry.records,
            entry.ns_per_record(),
        ));
    }
    out.push_str(&format!(
        "peak residency: {} records (shard size {})\n",
        bench.peak_resident_records, bench.shard_size
    ));
    if let Some(speedup) = bench.homograph_speedup() {
        out.push_str(&format!(
            "homograph index speedup over exhaustive oracle: {speedup:.1}x\n"
        ));
    }
    if let Some(mining) = &bench.mining {
        out.push_str(&format!(
            "portfolio mining: {} candidate pairs, {} verified, {} portfolios\n",
            mining.candidate_pairs, mining.verified_pairs, mining.portfolios
        ));
    }
    if let Some(speedup) = bench.mining_speedup() {
        out.push_str(&format!(
            "pair-mining LSH speedup over exhaustive oracle: {speedup:.1}x\n"
        ));
    }
    if let Some(overhead) = bench.instrumentation_overhead() {
        out.push_str(&format!(
            "scan attribution overhead (instrumented/uninstrumented): {overhead:.3}x\n"
        ));
    }
    if let Some(ledger) = RunLedger::collect(bench) {
        out.push_str(&ledger.render_text());
    }
    out
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_datagen::EcosystemConfig;
    use std::sync::Arc;

    fn config() -> EcosystemConfig {
        EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            ..EcosystemConfig::default()
        }
    }

    /// A mined run at `shard_size`, built and rendered under a registry,
    /// as `repro --bench --mine-portfolios all` runs it.
    fn mined_run(
        config: &EcosystemConfig,
        shard_size: Option<usize>,
    ) -> (ReproContext, RunSpec, Arc<Registry>) {
        let spec = RunSpec {
            shard_size,
            mine: true,
            ..RunSpec::default()
        };
        let registry = Arc::new(Registry::new());
        let ctx = ReproContext::build(config, &spec, registry.clone());
        let _ = ctx.full_report();
        (ctx, spec, registry)
    }

    fn measured_batch() -> (ReproContext, PipelineBench) {
        let (ctx, spec, registry) = mined_run(&config(), None);
        let bench = measure(&ctx, &spec, &registry);
        (ctx, bench)
    }

    #[test]
    fn bench_json_is_well_formed_and_gated() {
        let (ctx, bench) = measured_batch();
        // Stage coverage: the run's generation, passes and reports, then
        // decode, ingest, both scan paths, both miners and the dataset.
        for stage in [
            "build.ecosystem",
            "idna.decode",
            "zone.ingest.lenient",
            "homograph.scan.indexed",
            "homograph.scan.exhaustive",
            "analyze.pass.semantic1",
            "analyze.pass.bucket_index",
            "mine.pairs",
            "mine.pairs.lsh",
            "mine.pairs.exhaustive",
            "analyze.scan.instrumented",
            "analyze.scan.uninstrumented",
            "dataset.render",
        ] {
            assert!(bench.entry(stage).is_some(), "missing stage {stage}");
        }
        assert!(bench.entries.iter().any(|e| e.stage.starts_with("report.")));
        assert!(bench.homograph_speedup().is_some());
        assert!(bench.mining_speedup().is_some());
        assert!(bench.instrumentation_overhead().is_some());

        // The probes' batch corpus is the run's: same dataset bytes.
        let dataset = idnre_datagen::render_dataset(&ctx.eco);
        assert_eq!(
            bench.dataset_fingerprint,
            idnre_datagen::dataset_fingerprint(&dataset)
        );
        let mining = bench.mining.expect("the run mined");
        assert!(mining.candidate_pairs >= mining.verified_pairs);
        assert!(mining.verified_pairs >= mining.portfolios);

        // A batch run scans in the default shard and records no residency
        // gauge.
        assert_eq!(bench.shard_size, crate::DEFAULT_SHARD_SIZE);
        assert_eq!(bench.peak_resident_records, 0);

        let json = render_bench_json(&bench);
        assert!(json.starts_with("{\"schema\":\"idnre-bench-pipeline/7\""));
        assert!(json.contains("\"shard_size\":1024,\"peak_resident_records\":0,"));
        assert!(json.contains("\"mining\":{\"candidate_pairs\":"));
        assert!(json.contains("\"verified_pairs\":"));
        assert!(json.contains("\"portfolios\":"));
        assert!(!json.contains("\"epochs\""));
        assert!(json.contains("\"stage\":\"mine.pairs.lsh\""));
        assert!(json.contains("\"stage\":\"homograph.scan.exhaustive\""));
        assert!(json.contains("\"stage\":\"analyze.pass.homograph\",\"pass\":\"homograph\""));
        assert!(json.contains("\"stage\":\"build.ecosystem\",\"pass\":\"\""));
        assert!(json.contains("\"mode\":\"batch\""));
        assert!(json.contains("\"mode\":\"probe\""));
        assert!(!json.contains("\"mode\":\"streamed\""));
        assert!(json.contains("\"dataset_fingerprint\":\"0x"));
        assert!(json.ends_with("]}"));
        // Balanced braces — the render is hand-built.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);

        let text = render_bench_text(&bench);
        assert!(text.contains("pipeline bench"));
        assert!(text.contains("peak residency"));
        assert!(text.contains("homograph index speedup"));
        assert!(text.contains("portfolio mining:"));
        assert!(text.contains("pair-mining LSH speedup"));
        assert!(text.contains("scan attribution overhead"));
        assert!(text.contains("pass ledger"));
    }

    #[test]
    fn ledger_decomposes_the_scan_wall() {
        let (_, bench) = measured_batch();
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

    /// The probes read their own batch corpus, so a streamed run measures
    /// the same probe work, dataset and mined result as a batch run, plus
    /// its own residency peak; and measuring records nothing into the
    /// run's registry.
    #[test]
    fn measure_is_mode_independent() {
        let config = EcosystemConfig {
            threads: 2,
            ..config()
        };
        let measured = |shard_size| {
            let (ctx, spec, registry) = mined_run(&config, shard_size);
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
        let probes = |bench: &PipelineBench| -> Vec<(String, u64)> {
            bench
                .entries
                .iter()
                .filter(|e| e.mode == "probe")
                .map(|e| (e.stage.clone(), e.records))
                .collect()
        };
        assert!(!probes(&batch).is_empty());
        assert_eq!(probes(&batch), probes(&streamed));
        assert_eq!(batch.dataset_fingerprint, streamed.dataset_fingerprint);
        assert!(batch.mining.is_some());
        assert_eq!(batch.mining, streamed.mining);
        assert!(streamed
            .entries
            .iter()
            .all(|e| e.mode == "streamed" || e.mode == "probe"));

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
