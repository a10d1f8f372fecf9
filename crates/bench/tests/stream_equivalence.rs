//! Golden equivalence of the streamed build: the sharded, bounded-memory
//! pipeline must produce the same `EXPERIMENTS.md` bytes as the fully
//! materialized batch build, for every shard size and worker count — and
//! the algebra that makes that true (associative per-pass merges, one
//! fused corpus traversal, a bounded resident-set gauge) is checked
//! directly rather than trusted.

mod common;

use idnre_analyze::{SliceSource, SCAN_SPAN};
use idnre_bench::{passes, CandidateSurvey, FaultSetup, ReproContext, RunSpec};
use idnre_datagen::{generate_traced, EcosystemConfig, PEAK_RESIDENT_RECORDS};
use idnre_telemetry::{NoopRecorder, Registry, SpanCtx};
use std::sync::Arc;

/// Large enough that every pass sees real work (all TLDs, all languages,
/// both attack populations), small enough to afford ten builds.
fn config(threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        brand_count: 200,
        threads,
        ..EcosystemConfig::default()
    }
}

fn streamed(shard_size: usize) -> RunSpec {
    RunSpec {
        shard_size: Some(shard_size),
        ..RunSpec::default()
    }
}

/// The headline guarantee: streamed report bytes equal batch report bytes
/// across a grid of shard sizes and thread counts. Shard boundaries and
/// scheduling must be invisible in the output, and in every cell the
/// artifact folds equal the lookup-per-record oracle.
#[test]
fn streamed_report_is_byte_identical_to_batch() {
    let batch = ReproContext::build(&config(4), &RunSpec::default(), Arc::new(NoopRecorder));
    common::assert_artifact_folds(&batch.eco, &batch.corpus, "batch");
    let batch = batch.full_report();
    for threads in [1usize, 2, 8] {
        for shard_size in [64usize, 1024, 8192] {
            let what = format!("threads={threads} shard_size={shard_size}");
            let ctx = ReproContext::build(
                &config(threads),
                &streamed(shard_size),
                Arc::new(NoopRecorder),
            );
            common::assert_artifact_folds(&ctx.eco, &ctx.corpus, &what);
            assert_eq!(
                batch,
                ctx.full_report(),
                "streamed report diverged at {what}"
            );
        }
    }
}

/// Every registered pass merges associatively — the property the sharded
/// fold's correctness rests on. Checked over real corpus partials, not
/// synthetic ones, with a chunk size coprime to every shard size above.
#[test]
fn every_pass_merge_is_associative() {
    let (eco, _, columns) = generate_traced(&config(4), None, &NoopRecorder, SpanCtx::NONE);
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let candidates = CandidateSurvey::build(&eco.brands, 4, &NoopRecorder);
    let inputs = passes::ScanInputs::new(&eco.brands, &candidates);
    let plan = inputs.plan(&columns, None);
    plan.check_associative(&source, 97, &NoopRecorder)
        .unwrap_or_else(|pass| panic!("pass {pass} has a non-associative merge"));
}

/// `full_report` performs exactly one corpus traversal: the fused scan
/// span is entered once and attributes every record, and rendering all
/// reports afterwards adds nothing to it.
#[test]
fn full_report_traverses_the_corpus_once() {
    let registry = Arc::new(Registry::new());
    let ctx = ReproContext::build(&config(4), &RunSpec::default(), registry.clone());
    let _ = ctx.full_report();
    let corpus = ctx.outputs.idn_len + ctx.outputs.non_idn_len;
    let scan = registry
        .snapshot()
        .stages
        .into_iter()
        .find(|s| s.name == SCAN_SPAN)
        .expect("fused scan span missing");
    assert_eq!(scan.calls, 1, "corpus was traversed more than once");
    assert_eq!(scan.records, corpus, "scan did not attribute every record");
}

/// The generator emits no zone records; only the callers that read zones
/// derive them. A clean build, batch or streamed, records no
/// `datagen.zones.skipped` counter, and the artifact traversal's records
/// are exactly its WHOIS, pDNS and certificate records.
#[test]
fn clean_builds_emit_no_zone_records() {
    for spec in [RunSpec::default(), streamed(64)] {
        let registry = Arc::new(Registry::new());
        let ctx = ReproContext::build(&config(4), &spec, registry.clone());
        let snapshot = registry.snapshot();
        assert!(
            snapshot
                .counters
                .iter()
                .all(|c| c.name != "datagen.zones.skipped"),
            "a clean build counted zone records ({spec:?})"
        );
        let artifacts = snapshot
            .stages
            .iter()
            .find(|s| s.name == "datagen.stream.artifacts")
            .expect("artifact traversal span missing");
        let eco = &ctx.eco;
        assert_eq!(
            artifacts.records,
            eco.whois.len() as u64 + eco.pdns.len() as u64 + eco.certificate_tally.total(),
            "the traversal emitted more than WHOIS, pDNS and certificates ({spec:?})"
        );
    }
}

/// The streamed build's resident-set gauge stays proportional to
/// shard_size × workers, never to the corpus: at most one live shard per
/// worker per pipelined stage (generation, scan, surveys), with a 4×
/// allowance for handoff overlap. The faulted surveys walk the same
/// bounded shards as the clean ones.
#[test]
fn streamed_peak_residency_is_bounded_by_shard_size() {
    let smoke = FaultSetup::from_plan(idnre_fault::FaultPlan::from_spec("smoke").unwrap());
    for faults in [None, Some(smoke)] {
        assert_peak_residency_is_bounded(RunSpec {
            faults,
            ..streamed(64)
        });
    }
}

fn assert_peak_residency_is_bounded(spec: RunSpec) {
    let threads = 4usize;
    let shard_size = spec.shard_size.expect("a streamed build");
    let registry = Arc::new(Registry::new());
    let ctx = ReproContext::build(&config(threads), &spec, registry.clone());
    let peak = registry.gauge_peak(PEAK_RESIDENT_RECORDS);
    assert!(peak > 0, "gauge never recorded");
    // The gauge is first-class in the snapshot: its own section, with the
    // peak alongside the (possibly drained-to-zero) current value.
    let snapshot = registry.snapshot();
    let gauge = snapshot
        .gauges
        .iter()
        .find(|g| g.name == PEAK_RESIDENT_RECORDS)
        .expect("residency gauge missing from snapshot");
    assert_eq!(gauge.peak, peak);
    assert!(
        peak <= (4 * shard_size * threads) as u64,
        "peak residency {peak} exceeds 4 × {shard_size} × {threads}"
    );
    // The bound is meaningful: the corpus is far larger than the cap.
    assert!(ctx.outputs.idn_len + ctx.outputs.non_idn_len > (4 * shard_size * threads) as u64);
}
