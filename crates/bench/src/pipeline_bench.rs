//! The `repro --bench` harness: one timed pass over the end-to-end
//! pipeline, written as `BENCH_pipeline.json` so every PR leaves a
//! perf-trajectory point behind.
//!
//! Two sources feed the entries:
//!
//! 1. **Telemetry spans.** The pipeline runs once under a
//!    [`Registry`]; every stage span it records (generation sub-stages,
//!    the fused scan's passes, each report generator) becomes one entry
//!    with its measured wall time and record count.
//! 2. **Explicit probes.** Stages whose cost the spans do not isolate are
//!    re-measured directly: punycode decode over the IDN corpus, lenient
//!    zone ingest over the derived zones, the corpus-wide crawl survey
//!    (synchronous and scheduled, fault-free), and the homograph scan in
//!    both its indexed and exhaustive forms over several corpus sizes —
//!    the indexed-vs-exhaustive pair is the regression gate CI holds every
//!    future change to.
//!
//! # Schema (`idnre-bench-pipeline/6`)
//!
//! ```json
//! {
//!   "schema": "idnre-bench-pipeline/6",
//!   "scale": 50, "attack_scale": 1, "threads": 8, "seed": 497885208,
//!   "dataset_fingerprint": "0xffbab908278775d0",
//!   "shard_size": 1024, "peak_resident_records": 12288,
//!   "mining": {"candidate_pairs": 420, "verified_pairs": 37, "portfolios": 9},
//!   "epochs": {"count": 3, "churn_per_mille": 20, "shard_size": 64,
//!              "total_shards": 890, "refolded": 21,
//!              "incremental_wall_ns": 1234, "rebuild_wall_ns": 56789},
//!   "entries": [
//!     {"stage": "build.ecosystem", "pass": "", "mode": "batch", "scale": 50,
//!      "threads": 8, "wall_ns": 1234, "records": 29000, "ns_per_record": 42}
//!   ]
//! }
//! ```
//!
//! Schema 6 adds the incremental-epoch probe: an epochs build
//! ([`RunSpec::epochs`]) plays [`EPOCH_PROBE_EPOCHS`] simulated zone-diff
//! days at [`EPOCH_PROBE_CHURN_PER_MILLE`] churn over its own shard grid
//! ([`EPOCH_PROBE_SHARD_SIZE`]), re-folding only dirty shards with a
//! from-scratch shadow rebuild per epoch (fold equality asserted inside
//! the build). The summed walls land as the `analyze.epoch.incremental` /
//! `analyze.epoch.rebuild` entry pair plus the top-level `epochs` block —
//! the re-fold-only-dirty speedup CI gates, next to the other two
//! indexed-vs-exhaustive pairs.
//!
//! Schema 5 runs both legs with the portfolio miner enabled — the two
//! mining stages (`analyze.pass.bucket_index`, `analyze.pass.pair_mine`)
//! join the per-pass ledger, the top-level `mining` block summarizes the
//! mined result, and an LSH-vs-exhaustive probe pair (`mine.pairs.lsh`,
//! `mine.pairs.exhaustive`, equality-asserted on the capped corpus
//! prefix) pins the measured speedup CI gates.
//!
//! Schema 4 adds the two top-level memory-budget keys: `shard_size` (the
//! shard the streamed leg regenerated at, settable via
//! `repro --bench --stream --shard-size N`) and `peak_resident_records`
//! (the streamed build's `datagen.peak_resident_records` gauge peak). The
//! paper-scale contract `peak_resident_records ≤ 4 × shard_size × threads`
//! is readable straight from the JSON, which is how CI's streamed bench
//! proxy gates it.
//!
//! Schema 3 adds a per-entry `pass` key: the short pass name for
//! `analyze.pass.<name>` attribution stages (`"homograph"`, `"tld"`, …)
//! and the empty string for every other stage. It also adds two
//! externally timed probes, `analyze.scan.instrumented` and
//! `analyze.scan.uninstrumented` — the same fused scan re-run under a
//! live [`Registry`] and under the no-op recorder — so the attribution
//! overhead is measurable straight from `BENCH_pipeline.json`.
//!
//! `mode` says which build produced the entry: `batch` (fully materialized
//! corpus) or `streamed` (the bounded-memory shard-regenerating build; its
//! stage spans come from a second timed run whose report the harness
//! asserts byte-identical to the batch one).
//!
//! `records` is the number of domains (or zone lines, dataset bytes) the
//! stage processed; `ns_per_record` is the per-domain throughput the
//! perf trajectory tracks (`report.candidates` counts candidates
//! enumerated). Stages that record wall time only — the `report.*`
//! generators — carry their call count instead, so their
//! `ns_per_record` is the wall per call. Wall times are measurements, not
//! part of the byte-identical report contract. A thread sweep
//! ([`run_pipeline_sweep`]) concatenates the per-thread-count entries into
//! one result — each entry carries the worker count it ran at — after
//! asserting the report bytes and the `idnre-dataset/2` fingerprint are
//! identical across every count.

use crate::epochs::EPOCH_REBUILD_SPAN;
use crate::passes::ScanInputs;
use crate::{EpochSpec, ReproContext, RunSpec};
use idnre_analyze::SliceSource;
use idnre_core::SkeletonCache;
use idnre_datagen::EcosystemConfig;
use idnre_telemetry::{NoopRecorder, Recorder, Registry, SpanCtx};
use std::sync::Arc;
use std::time::Instant;

/// Schema tag of the JSON this module writes.
pub const BENCH_SCHEMA: &str = "idnre-bench-pipeline/6";

/// Warm epochs the schema-6 incremental-epoch probe plays.
pub const EPOCH_PROBE_EPOCHS: u64 = 3;

/// Day-simulator churn (events per thousand base records per epoch) of
/// the epoch probe.
pub const EPOCH_PROBE_CHURN_PER_MILLE: u64 = 20;

/// Shard size of the epoch probe's grid — small enough that a day's
/// cohort-clustered deltas dirty a thin slice of the grid at bench scale.
pub const EPOCH_PROBE_SHARD_SIZE: usize = 64;

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

/// One timed pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Dotted stage name (`homograph.scan.indexed`, `report.table1`, …).
    pub stage: String,
    /// Which build produced the entry: `batch` or `streamed`.
    pub mode: &'static str,
    /// Worker threads the stage's parallel sections ran on.
    pub threads: usize,
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
    /// empty string for everything else — the schema-3 `pass` key.
    pub fn pass(&self) -> &str {
        self.stage.strip_prefix(PASS_STAGE_PREFIX).unwrap_or("")
    }
}

/// The schema-5 top-level `mining` summary block: the mined result of the
/// batch leg (byte-identical across legs and thread counts, which the
/// sweep asserts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiningSummary {
    /// In-bucket candidate pairs pass B generated.
    pub candidate_pairs: u64,
    /// SSIM-verified confusable pairs.
    pub verified_pairs: u64,
    /// Clustered squatter portfolios.
    pub portfolios: u64,
}

/// The schema-6 top-level `epochs` summary block: the incremental-epoch
/// probe's shard accounting and summed walls. The walls are measurements;
/// the shard accounting is deterministic and asserted identical across a
/// sweep's thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSummary {
    /// Warm epochs the probe played.
    pub epochs: u64,
    /// Day-simulator churn rate the probe ran at.
    pub churn_per_mille: u64,
    /// Shard size of the probe's grid.
    pub shard_size: usize,
    /// Shards in the final epoch's grid.
    pub total_shards: u64,
    /// Shards re-folded across all warm epochs.
    pub refolded: u64,
    /// Summed incremental fold wall across warm epochs.
    pub incremental_wall_ns: u64,
    /// Summed shadow-rebuild wall across warm epochs.
    pub rebuild_wall_ns: u64,
}

/// A full `repro --bench` result.
#[derive(Debug, Clone)]
pub struct PipelineBench {
    /// Ecosystem scale denominator the run used.
    pub scale: u64,
    /// Attack-population scale denominator.
    pub attack_scale: u64,
    /// Worker threads the run was configured with (a sweep reports the
    /// per-entry counts instead).
    pub threads: usize,
    /// RNG seed (the run is reproducible from `scale` + `seed`).
    pub seed: u64,
    /// FNV-1a fingerprint of the rendered `idnre-dataset/2` artifact — the
    /// schedule-independence oracle a sweep asserts across thread counts.
    pub dataset_fingerprint: u64,
    /// Shard size the streamed leg regenerated the corpus at.
    pub shard_size: usize,
    /// Peak of the streamed build's `datagen.peak_resident_records` gauge —
    /// the memory-budget number the paper-scale contract
    /// (`≤ 4 × shard_size × threads`) is checked against. A sweep keeps
    /// the maximum across its per-count runs.
    pub peak_resident_records: u64,
    /// The mined-portfolio summary (a sweep asserts it identical across
    /// counts and keeps the first).
    pub mining: Option<MiningSummary>,
    /// The incremental-epoch probe summary (a sweep asserts the shard
    /// accounting identical across counts and keeps the first).
    pub epochs: Option<EpochSummary>,
    /// Timed stages, in pipeline order.
    pub entries: Vec<BenchEntry>,
    /// The regenerated report (so `--bench` still honours `--write`).
    pub report: String,
    /// The rendered `idnre-dataset/2` artifact (for `--dump-dataset`).
    pub dataset: String,
}

impl PipelineBench {
    /// The entry for `stage` with the largest record count, if any.
    pub fn entry(&self, stage: &str) -> Option<&BenchEntry> {
        self.entries
            .iter()
            .filter(|e| e.stage == stage)
            .max_by_key(|e| e.records)
    }

    /// The entry for `stage` at a specific worker count — the lookup the
    /// CI scaling gate uses on sweep results.
    pub fn entry_at(&self, stage: &str, threads: usize) -> Option<&BenchEntry> {
        self.entries
            .iter()
            .filter(|e| e.stage == stage && e.threads == threads)
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

    /// Rebuild-over-incremental speedup of the epoch probe (>1 means
    /// re-folding only dirty shards wins). `None` before both probes ran.
    pub fn epoch_speedup(&self) -> Option<f64> {
        let incremental = self.entry("analyze.epoch.incremental")?;
        let rebuild = self.entry("analyze.epoch.rebuild")?;
        if incremental.wall_ns == 0 {
            return None;
        }
        Some(rebuild.wall_ns as f64 / incremental.wall_ns as f64)
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

/// The per-pass cost ledger of one (mode, threads) pipeline run: every
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
    /// Builds one ledger per (mode, threads) group of `bench` that carries
    /// an `analyze.scan` entry, in first-seen entry order.
    pub fn collect(bench: &PipelineBench) -> Vec<RunLedger> {
        let mut ledgers: Vec<RunLedger> = Vec::new();
        for entry in &bench.entries {
            if entry.stage != idnre_analyze::SCAN_SPAN {
                continue;
            }
            if ledgers
                .iter()
                .any(|l| l.mode == entry.mode && l.threads == entry.threads)
            {
                continue;
            }
            let rows = bench
                .entries
                .iter()
                .filter(|e| {
                    e.mode == entry.mode
                        && e.threads == entry.threads
                        && e.stage.starts_with(PASS_STAGE_PREFIX)
                })
                .map(|e| LedgerRow {
                    stage: e.stage.clone(),
                    pass: e.pass().to_string(),
                    wall_ns: e.wall_ns,
                    records: e.records,
                })
                .collect();
            ledgers.push(RunLedger {
                mode: entry.mode,
                threads: entry.threads,
                scan_wall_ns: entry.wall_ns,
                rows,
            });
        }
        ledgers
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

/// Runs the full pipeline once under telemetry and the explicit probes on
/// top, returning every timed stage. Wall times vary run to run; the
/// report inside is byte-identical to a plain `repro all` at the same
/// config.
pub fn run_pipeline_bench(config: &EcosystemConfig) -> PipelineBench {
    run_pipeline_bench_sharded(config, crate::DEFAULT_SHARD_SIZE)
}

/// [`run_pipeline_bench`] with the streamed leg regenerating `shard_size`
/// records at a time — the `repro --bench --stream --shard-size N` path.
/// A smaller shard tightens the `peak_resident_records` budget the result
/// reports; the report and dataset bytes do not depend on it.
pub fn run_pipeline_bench_sharded(config: &EcosystemConfig, shard_size: usize) -> PipelineBench {
    let registry = Arc::new(Registry::new());
    let mined = RunSpec {
        mine: true,
        ..RunSpec::default()
    };
    let ctx = ReproContext::build(config, &mined, registry.clone());
    let report = ctx.full_report();
    let mining = ctx.mining.as_ref().map(|m| MiningSummary {
        candidate_pairs: m.candidate_pairs,
        verified_pairs: m.verified.len() as u64,
        portfolios: m.portfolios.len() as u64,
    });

    let threads = config.threads;
    let mut entries: Vec<BenchEntry> = registry
        .snapshot()
        .stages
        .iter()
        .map(|s| BenchEntry {
            stage: s.name.clone(),
            mode: "batch",
            threads,
            wall_ns: s.wall_nanos,
            records: s.records.max(s.calls),
        })
        .collect();
    let domains: Vec<&str> = ctx
        .eco
        .idn_registrations
        .iter()
        .map(|r| r.domain.as_str())
        .collect();

    // Punycode decode throughput over the registered IDN corpus.
    let started = Instant::now();
    let decoded = idnre_par::par_map(&domains, threads, |d| idnre_idna::to_unicode(d).is_ok());
    entries.push(BenchEntry {
        stage: "idna.decode".to_string(),
        mode: "batch",
        threads,
        wall_ns: elapsed_ns(started),
        records: decoded.iter().filter(|ok| **ok).count() as u64,
    });

    // Lenient ingest throughput: the derived zones round-tripped through
    // master-file text and re-parsed with the skip-and-count parser. The
    // zones are derived once, untimed; the crawl-survey probe loads them
    // too.
    let zones = ctx.eco.derive_zones().zones;
    let started = Instant::now();
    let attempted: u64 = idnre_par::par_map(&zones, threads, |zone| {
        let text = idnre_zonefile::write_zone(zone);
        idnre_zonefile::parse_zone_lenient(&zone.origin.to_string(), &text).attempted as u64
    })
    .into_iter()
    .sum();
    entries.push(BenchEntry {
        stage: "zone.ingest.lenient".to_string(),
        mode: "batch",
        threads,
        wall_ns: elapsed_ns(started),
        records: attempted,
    });

    // The indexed scan across the size ladder, then the indexed-vs-
    // exhaustive pair at the capped size — the entries CI gates on. The
    // rung at the cap is timed once, as the exhaustive probe's partner.
    let inputs = ScanInputs::new(&ctx.eco, &ctx.candidates);
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
        entries.push(BenchEntry {
            stage: "homograph.scan.indexed".to_string(),
            mode: "batch",
            threads,
            wall_ns: elapsed_ns(started),
            records: size as u64,
        });
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
    entries.push(BenchEntry {
        stage: "homograph.scan.indexed".to_string(),
        mode: "batch",
        threads,
        wall_ns: indexed_ns,
        records: cap as u64,
    });
    entries.push(BenchEntry {
        stage: "homograph.scan.exhaustive".to_string(),
        mode: "batch",
        threads,
        wall_ns: exhaustive_ns,
        records: cap as u64,
    });

    // Render the canonical dataset — the byte artifact `--dump-dataset`
    // writes and the sweep diffs across thread counts.
    let started = Instant::now();
    let dataset = idnre_datagen::render_dataset(&ctx.eco);
    entries.push(BenchEntry {
        stage: "dataset.render".to_string(),
        mode: "batch",
        threads,
        wall_ns: elapsed_ns(started),
        records: dataset.len() as u64,
    });

    // The portfolio-mining pair: skeleton-LSH bucketed pair verification
    // vs the all-pairs oracle over the same capped corpus prefix — the
    // second indexed-vs-exhaustive regression gate CI holds. Containment
    // is asserted, not equality: the oracle also surfaces pairs that clear
    // the SSIM bar without sharing a confusable skeleton (visual
    // near-misses outside the confusables table), which skeleton blocking
    // deliberately does not chase. Equality is the contract on forged
    // confusable corpora, pinned by the proptest oracle-equivalence test.
    let probe_source = SliceSource::new(&ctx.eco.idn_registrations, &ctx.eco.non_idn_registrations);
    // The context keeps no columns, so the probe regenerates the rows.
    let (_, _, rows) = idnre_datagen::generate_traced(config, None, &NoopRecorder, SpanCtx::NONE);
    let columns = crate::passes::finish_columns(rows, threads, &NoopRecorder, SpanCtx::NONE);
    let skeletons = SkeletonCache::build(&columns, threads);
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
    for (stage, wall_ns) in [
        ("mine.pairs.lsh", lsh_ns),
        ("mine.pairs.exhaustive", oracle_ns),
    ] {
        entries.push(BenchEntry {
            stage: stage.to_string(),
            mode: "batch",
            threads,
            wall_ns,
            records: mine_cap as u64,
        });
    }

    // Attribution-overhead pair: the same fused scan re-run back to back
    // under a live registry and under the no-op recorder, timed
    // externally. Rounds alternate and each probe keeps its minimum wall,
    // so `instrumented / uninstrumented` read from the JSON is the
    // per-pass-attribution overhead the <5% budget gates.
    let corpus_len = (ctx.eco.idn_registrations.len() + ctx.eco.non_idn_registrations.len()) as u64;
    let mut instrumented_ns = u64::MAX;
    let mut uninstrumented_ns = u64::MAX;
    for _ in 0..OVERHEAD_PROBE_ROUNDS {
        for (recorder, wall_ns) in [
            (&Registry::new() as &dyn Recorder, &mut instrumented_ns),
            (&NoopRecorder, &mut uninstrumented_ns),
        ] {
            let started = Instant::now();
            let _ = inputs
                .plan(&columns, &skeletons, &ctx.eco.pdns, None)
                .run_at(
                    &probe_source,
                    crate::DEFAULT_SHARD_SIZE,
                    threads,
                    recorder,
                    SpanCtx::NONE,
                );
            *wall_ns = (*wall_ns).min(elapsed_ns(started));
        }
    }
    for (stage, wall_ns) in [
        ("analyze.scan.instrumented", instrumented_ns),
        ("analyze.scan.uninstrumented", uninstrumented_ns),
    ] {
        entries.push(BenchEntry {
            stage: stage.to_string(),
            mode: "batch",
            threads,
            wall_ns,
            records: corpus_len,
        });
    }

    // Crawl-survey throughput pair: the same fault-free population walked
    // by the synchronous per-domain path and by the event-driven scheduler
    // (wheel, rate limits, breakers). `crawl.survey.sched` vs
    // `crawl.survey.sync` read from the JSON is the scheduler's overhead
    // on a clean run — the throughput floor CI's storm-smoke job gates.
    let clean = crate::FaultSetup::from_plan(idnre_fault::FaultPlan::new(
        config.seed,
        idnre_fault::FaultProfile::none(),
    ));
    let view = crate::CorpusView::resident(&probe_source);
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
        entries.push(BenchEntry {
            stage: stage.to_string(),
            mode: "batch",
            threads,
            wall_ns: elapsed_ns(started),
            records: corpus_len,
        });
    }

    // The incremental-epoch probe: a short zone-diff loop on its own
    // shard grid. The epochs build shadow-rebuilds every epoch and asserts
    // the two folds equal, so the entry pair below is measured over a
    // proven-equivalent pair of folds — the third indexed-vs-exhaustive
    // regression gate.
    let epoch_spec = RunSpec {
        shard_size: Some(EPOCH_PROBE_SHARD_SIZE),
        epochs: Some(EpochSpec {
            count: EPOCH_PROBE_EPOCHS,
            churn_per_mille: EPOCH_PROBE_CHURN_PER_MILLE,
        }),
        ..RunSpec::default()
    };
    let epoch_run = ReproContext::build(config, &epoch_spec, Arc::new(NoopRecorder))
        .epochs
        .expect("an epochs build records its run");
    entries.push(BenchEntry {
        stage: "analyze.epoch.incremental".to_string(),
        mode: "streamed",
        threads,
        wall_ns: epoch_run.incremental_ns(),
        records: epoch_run.refolded_records(),
    });
    entries.push(BenchEntry {
        stage: EPOCH_REBUILD_SPAN.to_string(),
        mode: "streamed",
        threads,
        wall_ns: epoch_run.rebuild_ns(),
        records: epoch_run.rebuild_records(),
    });
    let epochs = Some(EpochSummary {
        epochs: EPOCH_PROBE_EPOCHS,
        churn_per_mille: EPOCH_PROBE_CHURN_PER_MILLE,
        shard_size: EPOCH_PROBE_SHARD_SIZE,
        total_shards: epoch_run.total_shards(),
        refolded: epoch_run.total_refolded(),
        incremental_wall_ns: epoch_run.incremental_ns(),
        rebuild_wall_ns: epoch_run.rebuild_ns(),
    });

    // The streamed counterpart: the bounded-memory build timed under its
    // own registry. Its report is the cross-mode oracle — byte-identical
    // to the batch run or the bench aborts — and its stage spans land as
    // `streamed` entries (including `datagen.peak_resident_records`-backed
    // shard regeneration inside `build.ecosystem`).
    let streamed_registry = Arc::new(Registry::new());
    let streamed = RunSpec {
        shard_size: Some(shard_size),
        ..mined
    };
    let streamed_ctx = ReproContext::build(config, &streamed, streamed_registry.clone());
    let streamed_report = streamed_ctx.full_report();
    assert_eq!(
        report, streamed_report,
        "streamed report diverged from batch"
    );
    let peak_resident_records = streamed_registry.gauge_peak(idnre_datagen::PEAK_RESIDENT_RECORDS);
    entries.extend(
        streamed_registry
            .snapshot()
            .stages
            .iter()
            .map(|s| BenchEntry {
                stage: s.name.clone(),
                mode: "streamed",
                threads,
                wall_ns: s.wall_nanos,
                records: s.records.max(s.calls),
            }),
    );

    PipelineBench {
        scale: config.scale,
        attack_scale: config.attack_scale,
        threads,
        seed: config.seed,
        dataset_fingerprint: idnre_datagen::dataset_fingerprint(&dataset),
        shard_size,
        peak_resident_records,
        mining,
        epochs,
        entries,
        report,
        dataset,
    }
}

/// Runs [`run_pipeline_bench`] once per worker count in `thread_counts`
/// and concatenates the timed entries into one result (each entry carries
/// its own `threads`). Panics unless the report bytes and the dataset
/// fingerprint are identical across every count — the sweep is the
/// schedule-independence oracle, not just a timing table.
pub fn run_pipeline_sweep(config: &EcosystemConfig, thread_counts: &[usize]) -> PipelineBench {
    run_pipeline_sweep_sharded(config, thread_counts, crate::DEFAULT_SHARD_SIZE)
}

/// [`run_pipeline_sweep`] at an explicit streamed shard size. The result's
/// `peak_resident_records` is the maximum across the per-count runs, so
/// the budget bound must be read against the largest swept worker count.
pub fn run_pipeline_sweep_sharded(
    config: &EcosystemConfig,
    thread_counts: &[usize],
    shard_size: usize,
) -> PipelineBench {
    assert!(!thread_counts.is_empty(), "sweep needs at least one count");
    let mut sweep: Option<PipelineBench> = None;
    for &threads in thread_counts {
        let run = run_pipeline_bench_sharded(
            &EcosystemConfig {
                threads,
                ..config.clone()
            },
            shard_size,
        );
        match &mut sweep {
            None => sweep = Some(run),
            Some(first) => {
                assert_eq!(
                    first.dataset_fingerprint, run.dataset_fingerprint,
                    "dataset bytes diverged at {threads} threads"
                );
                assert_eq!(
                    first.report, run.report,
                    "report bytes diverged at {threads} threads"
                );
                assert_eq!(
                    first.mining, run.mining,
                    "mined summary diverged at {threads} threads"
                );
                // The epoch walls are measurements, but the shard
                // accounting is a pure function of the corpus and deltas.
                if let (Some(a), Some(b)) = (&first.epochs, &run.epochs) {
                    assert_eq!(
                        (a.total_shards, a.refolded),
                        (b.total_shards, b.refolded),
                        "epoch shard accounting diverged at {threads} threads"
                    );
                }
                first.peak_resident_records =
                    first.peak_resident_records.max(run.peak_resident_records);
                first.entries.extend(run.entries);
            }
        }
    }
    sweep.expect("at least one sweep run")
}

/// Renders a bench result as schema-stable JSON (`idnre-bench-pipeline/6`).
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
    if let Some(epochs) = &bench.epochs {
        out.push_str(&format!(
            "\"epochs\":{{\"count\":{},\"churn_per_mille\":{},\"shard_size\":{},\
             \"total_shards\":{},\"refolded\":{},\"incremental_wall_ns\":{},\
             \"rebuild_wall_ns\":{}}},",
            epochs.epochs,
            epochs.churn_per_mille,
            epochs.shard_size,
            epochs.total_shards,
            epochs.refolded,
            epochs.incremental_wall_ns,
            epochs.rebuild_wall_ns
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
            entry.threads,
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
        "pipeline bench — scale 1:{}, dataset {:#018x}\n",
        bench.scale, bench.dataset_fingerprint
    ));
    out.push_str(&format!(
        "{:<28} {:>7} {:>12} {:>12} {:>10}\n",
        "stage", "threads", "wall_ms", "records", "ns/rec"
    ));
    for entry in &bench.entries {
        out.push_str(&format!(
            "{:<28} {:>7} {:>12.3} {:>12} {:>10}\n",
            entry.stage,
            entry.threads,
            entry.wall_ns as f64 / 1e6,
            entry.records,
            entry.ns_per_record(),
        ));
    }
    out.push_str(&format!(
        "streamed peak residency: {} records (shard size {})\n",
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
    if let (Some(epochs), Some(speedup)) = (&bench.epochs, bench.epoch_speedup()) {
        out.push_str(&format!(
            "incremental epoch speedup over per-epoch rebuild: {speedup:.1}x \
             ({}/{} shards refolded across {} epochs at {}\u{2030} churn)\n",
            epochs.refolded,
            epochs.total_shards * epochs.epochs,
            epochs.epochs,
            epochs.churn_per_mille
        ));
    }
    if let Some(overhead) = bench.instrumentation_overhead() {
        out.push_str(&format!(
            "scan attribution overhead (instrumented/uninstrumented): {overhead:.3}x\n"
        ));
    }
    for ledger in RunLedger::collect(bench) {
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

    #[test]
    fn bench_json_is_well_formed_and_gated() {
        let bench = run_pipeline_bench(&EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            ..EcosystemConfig::default()
        });
        // Stage coverage: generation, decode, ingest, both scan paths,
        // reports.
        for stage in [
            "build.ecosystem",
            "idna.decode",
            "zone.ingest.lenient",
            "homograph.scan.indexed",
            "homograph.scan.exhaustive",
            "analyze.pass.semantic1",
            "analyze.pass.bucket_index",
            "analyze.pass.pair_mine",
            "mine.pairs.lsh",
            "mine.pairs.exhaustive",
            "analyze.epoch.incremental",
            "analyze.epoch.rebuild",
            "analyze.scan.instrumented",
            "analyze.scan.uninstrumented",
            "dataset.render",
        ] {
            assert!(bench.entry(stage).is_some(), "missing stage {stage}");
        }
        assert!(bench.entries.iter().any(|e| e.stage.starts_with("report.")));
        assert!(bench.homograph_speedup().is_some());
        assert!(bench.mining_speedup().is_some());
        assert!(bench.epoch_speedup().is_some());
        assert!(bench.instrumentation_overhead().is_some());

        // The schema-6 epoch block: accounting is deterministic at a
        // fixed config; the incremental leg must have skipped shards.
        let epochs = bench.epochs.expect("schema 6 always probes epochs");
        assert_eq!(epochs.epochs, EPOCH_PROBE_EPOCHS);
        assert!(epochs.refolded < epochs.total_shards * epochs.epochs);
        assert!(epochs.refolded >= epochs.epochs);
        assert!(bench.dataset.starts_with(idnre_datagen::DATASET_SCHEMA));
        let mining = bench.mining.expect("schema 5 always mines");
        assert!(mining.candidate_pairs >= mining.verified_pairs);
        assert!(mining.verified_pairs >= mining.portfolios);

        // The streamed leg's residency gauge lands as the schema-4
        // memory-budget pair, within the paper-scale bound.
        assert!(bench.peak_resident_records > 0);
        assert_eq!(bench.shard_size, crate::DEFAULT_SHARD_SIZE);
        assert!(
            bench.peak_resident_records <= (4 * bench.shard_size * bench.threads) as u64,
            "peak {} exceeds 4 × {} × {}",
            bench.peak_resident_records,
            bench.shard_size,
            bench.threads
        );

        let json = render_bench_json(&bench);
        assert!(json.starts_with("{\"schema\":\"idnre-bench-pipeline/6\""));
        assert!(json.contains("\"shard_size\":1024"));
        assert!(json.contains("\"mining\":{\"candidate_pairs\":"));
        assert!(json.contains("\"epochs\":{\"count\":"));
        assert!(json.contains("\"refolded\":"));
        assert!(json.contains("\"stage\":\"analyze.epoch.incremental\""));
        assert!(json.contains("\"verified_pairs\":"));
        assert!(json.contains("\"portfolios\":"));
        assert!(json.contains("\"stage\":\"mine.pairs.lsh\""));
        assert!(json.contains(&format!(
            "\"peak_resident_records\":{}",
            bench.peak_resident_records
        )));
        assert!(json.contains("\"stage\":\"homograph.scan.exhaustive\""));
        assert!(json.contains("\"stage\":\"analyze.pass.homograph\",\"pass\":\"homograph\""));
        assert!(json.contains("\"stage\":\"build.ecosystem\",\"pass\":\"\""));
        assert!(json.contains("\"mode\":\"batch\""));
        assert!(json.contains("\"mode\":\"streamed\""));
        assert!(json.contains("\"dataset_fingerprint\":\"0x"));
        assert!(json.ends_with("]}"));
        // Balanced braces — the render is hand-built.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);

        let text = render_bench_text(&bench);
        assert!(text.contains("pipeline bench"));
        assert!(text.contains("streamed peak residency"));
        assert!(text.contains("homograph index speedup"));
        assert!(text.contains("portfolio mining:"));
        assert!(text.contains("pair-mining LSH speedup"));
        assert!(text.contains("incremental epoch speedup"));
        assert!(text.contains("scan attribution overhead"));
        assert!(text.contains("pass ledger"));
    }

    /// The `--bench --stream --shard-size N` path: a smaller shard
    /// tightens the reported residency budget without touching the report
    /// or dataset bytes.
    #[test]
    fn sharded_bench_tightens_the_residency_budget() {
        let config = EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            threads: 2,
            ..EcosystemConfig::default()
        };
        let small = run_pipeline_bench_sharded(&config, 64);
        assert_eq!(small.shard_size, 64);
        assert!(small.peak_resident_records > 0);
        assert!(
            small.peak_resident_records <= (4 * 64 * config.threads) as u64,
            "peak {} exceeds 4 × 64 × {}",
            small.peak_resident_records,
            config.threads
        );
        let default = run_pipeline_bench(&config);
        assert_eq!(small.report, default.report);
        assert_eq!(small.dataset_fingerprint, default.dataset_fingerprint);
    }

    #[test]
    fn ledger_decomposes_the_scan_wall() {
        let bench = run_pipeline_bench(&EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            ..EcosystemConfig::default()
        });
        let ledgers = RunLedger::collect(&bench);
        // One batch group and one streamed group at this config.
        assert_eq!(ledgers.len(), 2);
        for ledger in &ledgers {
            // Every registered pass shows up: 3 core detectors + 6 report
            // aggregation passes + the two mining stages (pass A fused on
            // the scan, pass B's bucket fold).
            assert_eq!(ledger.rows.len(), 11, "{} ledger rows", ledger.mode);
            assert!(ledger.scan_wall_ns > 0);
            for row in &ledger.rows {
                assert_eq!(row.stage, format!("{PASS_STAGE_PREFIX}{}", row.pass));
                assert!(row.records > 0, "{} observed nothing", row.stage);
            }
            // The pass rows account for the bulk of the scan wall even at
            // this small scale (the CI gate holds >= 90% at scale 50).
            assert!(
                ledger.coverage() > 0.5,
                "{} coverage {:.3}",
                ledger.mode,
                ledger.coverage()
            );
        }
    }

    #[test]
    fn bench_report_matches_plain_run() {
        let config = EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            brand_count: 200,
            ..EcosystemConfig::default()
        };
        let bench = run_pipeline_bench(&config);
        let mined = crate::RunSpec {
            mine: true,
            ..crate::RunSpec::default()
        };
        let plain =
            crate::ReproContext::build(&config, &mined, Arc::new(NoopRecorder)).full_report();
        assert_eq!(bench.report, plain, "--bench must not perturb the report");
        // The unmined report is a byte-prefix of the mined one: mining
        // only ever appends its section.
        let unmined =
            crate::ReproContext::build(&config, &crate::RunSpec::default(), Arc::new(NoopRecorder))
                .full_report();
        assert!(bench.report.starts_with(&unmined));
    }

    #[test]
    fn sweep_concatenates_and_holds_the_identity_oracle() {
        let config = EcosystemConfig {
            scale: 5000,
            attack_scale: 60,
            brand_count: 100,
            ..EcosystemConfig::default()
        };
        // The sweep itself asserts report + dataset identity per count.
        let sweep = run_pipeline_sweep(&config, &[1, 2]);
        for threads in [1usize, 2] {
            let entry = sweep
                .entry_at("build.ecosystem", threads)
                .unwrap_or_else(|| panic!("no build.ecosystem entry at {threads} threads"));
            assert!(entry.wall_ns > 0);
        }
        // Per-entry thread counts survive the JSON render.
        let json = render_bench_json(&sweep);
        assert!(json.contains("\"threads\":1"));
        assert!(json.contains("\"threads\":2"));
    }
}
