//! Golden equivalence of the streamed build: the sharded, bounded-memory
//! pipeline must produce the same `EXPERIMENTS.md` bytes as the fully
//! materialized batch build, for every shard size and worker count — and
//! the algebra that makes that true (associative per-pass merges, one
//! fused corpus traversal, a bounded resident-set gauge) is checked
//! directly rather than trusted.

use idnre_analyze::{SliceSource, SCAN_SPAN};
use idnre_bench::{passes, CandidateSurvey, FaultSetup, ReproContext, RunSpec};
use idnre_core::{HomographDetector, SemanticDetector};
use idnre_datagen::{Ecosystem, EcosystemConfig, PEAK_RESIDENT_RECORDS};
use idnre_telemetry::{NoopRecorder, Registry};
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
/// scheduling must be invisible in the output.
#[test]
fn streamed_report_is_byte_identical_to_batch() {
    let batch =
        ReproContext::build(&config(4), &RunSpec::default(), Arc::new(NoopRecorder)).full_report();
    for threads in [1usize, 2, 8] {
        for shard_size in [64usize, 1024, 8192] {
            let streamed = ReproContext::build(
                &config(threads),
                &streamed(shard_size),
                Arc::new(NoopRecorder),
            )
            .full_report();
            assert_eq!(
                batch, streamed,
                "streamed report diverged at threads={threads} shard_size={shard_size}"
            );
        }
    }
}

/// Every registered pass merges associatively — the property the sharded
/// fold's correctness rests on. Checked over real corpus partials, not
/// synthetic ones, with a chunk size coprime to every shard size above.
#[test]
fn every_pass_merge_is_associative() {
    let eco = Ecosystem::generate(&config(4));
    let brand_domains: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
    let detector = HomographDetector::new(&brand_domains, 0.95);
    let semantic_detector = SemanticDetector::new(&brand_domains);
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let columns = passes::build_columns(
        &source,
        &eco.blacklist,
        1024,
        4,
        &NoopRecorder,
        idnre_telemetry::SpanCtx::NONE,
    );
    let plan = passes::ScanPlan::new(
        &detector,
        &semantic_detector,
        &columns,
        &eco.pdns,
        passes::table3_wanted(&eco.whois),
        CandidateSurvey::build(&eco.brands, 4, &NoopRecorder).fig6_pool(),
        4,
        None,
    );
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
