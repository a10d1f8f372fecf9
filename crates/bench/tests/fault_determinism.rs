//! Properties of the fault-and-recovery layer: a fixed fault spec replays
//! byte-identically across runs *and* across worker-thread counts, and a
//! corrupted corpus still completes in lenient mode with the damage
//! accounted instead of aborting.

use idnre_analyze::SliceSource;
use idnre_bench::robust::{self, FaultSetup, RunHealth};
use idnre_bench::{CorpusView, ReproContext, RunSpec};
use idnre_crawler::{SURVEY_SLICE_RECORDS, SURVEY_SLICE_SPAN};
use idnre_datagen::{Ecosystem, EcosystemConfig};
use idnre_fault::{FaultPlan, FaultProfile};
use idnre_telemetry::{NoopRecorder, Registry};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One small ecosystem shared across cases: generation dominates the cost
/// and is independent of the fault layer under test.
fn eco() -> &'static Ecosystem {
    static ECO: OnceLock<Ecosystem> = OnceLock::new();
    ECO.get_or_init(|| {
        Ecosystem::generate(&EcosystemConfig {
            scale: 8000,
            attack_scale: 100,
            brand_count: 50,
            ..EcosystemConfig::default()
        })
    })
}

/// Scale 1000: 5,346 records, 4,146 of them IDNs, so the crawl survey
/// runs three windows and the third straddles the IDN/non-IDN boundary.
/// Every other input here fits one window.
fn multi_window_config(threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        scale: 1000,
        threads,
        ..EcosystemConfig::default()
    }
}

fn multi_window_eco() -> &'static Ecosystem {
    static ECO: OnceLock<Ecosystem> = OnceLock::new();
    ECO.get_or_init(|| {
        let eco = Ecosystem::generate(&multi_window_config(4));
        let idn = eco.idn_registrations.len();
        assert!(
            (2 * SURVEY_SLICE_RECORDS..3 * SURVEY_SLICE_RECORDS).contains(&idn),
            "{idn} IDNs: the third window no longer straddles the boundary"
        );
        eco
    })
}

fn profile(index: u8) -> FaultProfile {
    match index % 4 {
        0 => FaultProfile::none(),
        1 => FaultProfile::smoke(),
        2 => FaultProfile::flaky(),
        _ => FaultProfile::storm(),
    }
}

/// Runs the whole faulted pipeline (lenient zone ingest → WHOIS survey →
/// retried crawl survey) and returns everything observable: the health
/// verdict and the deterministic slice of the telemetry snapshot.
fn faulted_run(seed: u64, profile_index: u8, threads: usize) -> (RunHealth, String) {
    let setup = FaultSetup::from_plan(FaultPlan::new(seed, profile(profile_index)));
    faulted_run_on(eco(), &setup, threads)
}

fn faulted_run_on(eco: &Ecosystem, setup: &FaultSetup, threads: usize) -> (RunHealth, String) {
    let registry = Registry::new();
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let view = CorpusView::resident(&source);
    let health = robust::faulted_surveys(&view, eco, setup, threads, &registry);
    let metrics = registry.snapshot().render_deterministic_json();
    (health, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same fault seed and policy replay byte-identically, run to run.
    #[test]
    fn schedules_replay_across_runs(seed in any::<u64>(), profile_index in 0u8..4) {
        let (health_a, metrics_a) = faulted_run(seed, profile_index, 4);
        let (health_b, metrics_b) = faulted_run(seed, profile_index, 4);
        prop_assert_eq!(health_a, health_b);
        prop_assert_eq!(metrics_a, metrics_b);
    }

    /// Thread count changes wall time only, never a counter or a verdict.
    #[test]
    fn schedules_replay_across_thread_counts(
        seed in any::<u64>(),
        profile_index in 0u8..4,
        threads in 2usize..9,
    ) {
        let (health_single, metrics_single) = faulted_run(seed, profile_index, 1);
        let (health_multi, metrics_multi) = faulted_run(seed, profile_index, threads);
        prop_assert_eq!(health_single, health_multi);
        prop_assert_eq!(metrics_single, metrics_multi);
    }
}

/// A storm-corrupted corpus completes in lenient mode: records are lost
/// and accounted, but the pipeline produces a full report rather than
/// aborting on the first bad line.
#[test]
fn corrupt_corpus_completes_leniently() {
    let (health, _) = faulted_run(0xBAD_C0DE, 3, 4);
    assert!(health.zones.skipped > 0, "storm corrupted no zone lines");
    assert!(
        health.zones.attempted > health.zones.skipped,
        "lenient ingest salvaged nothing"
    );
    assert!(health.whois.parse_failures > 0);
    assert!(
        health.survey.domains > 0,
        "survey did not run to completion"
    );
    assert!(health.errors > 0);
    assert_eq!(health.status, idnre_fault::RunStatus::BudgetExceeded);
}

/// The full context path: two faulted builds with the same spec produce
/// byte-identical `EXPERIMENTS.md` documents, Run health section
/// included — at any thread count, and streamed at any shard size.
#[test]
fn full_reports_replay_byte_identically() {
    let setup = FaultSetup::from_plan(FaultPlan::from_spec("smoke").unwrap());
    let report = |threads, shard_size| {
        let config = EcosystemConfig {
            scale: 8000,
            attack_scale: 100,
            brand_count: 50,
            threads,
            ..EcosystemConfig::default()
        };
        faulted_report(&config, &setup, shard_size)
    };
    let first = report(4, None);
    assert_eq!(first, report(4, None), "same spec, same bytes");
    assert_eq!(
        first,
        report(1, None),
        "thread count leaked into the report"
    );
    for shard_size in [64, 1024] {
        assert_eq!(
            first,
            report(4, Some(shard_size)),
            "streamed faulted report diverged at shard size {shard_size}"
        );
    }
    assert!(first.contains("## Run health"));
    assert!(first.contains("**degraded**"));
}

fn faulted_report(
    config: &EcosystemConfig,
    setup: &FaultSetup,
    shard_size: Option<usize>,
) -> String {
    let spec = RunSpec {
        shard_size,
        faults: Some(*setup),
        ..RunSpec::default()
    };
    ReproContext::build(config, &spec, Arc::new(NoopRecorder)).full_report()
}

/// Thread count stays invisible once the crawl survey fans out over
/// several windows: the health and every counter of the synchronous
/// faulted surveys match at 1 and 4 workers.
#[test]
fn multi_window_surveys_replay_across_thread_counts() {
    for spec in ["smoke", "storm"] {
        let setup = FaultSetup::from_plan(FaultPlan::from_spec(spec).unwrap());
        let single = faulted_run_on(multi_window_eco(), &setup, 1);
        assert!(single.0.survey.domains > 2 * SURVEY_SLICE_RECORDS as u64);
        assert_eq!(
            single,
            faulted_run_on(multi_window_eco(), &setup, 4),
            "{spec}"
        );
    }
}

/// The clean build's counters and stage totals are thread-invariant; the
/// smoke-faulted build's crawl survey runs three windows, and its streamed
/// report equals the batch faulted report at any thread count.
#[test]
fn multi_window_builds_replay_across_modes_and_threads() {
    let clean_metrics = |threads| {
        let registry = Arc::new(Registry::new());
        let _ = ReproContext::build(
            &multi_window_config(threads),
            &RunSpec::default(),
            registry.clone(),
        );
        registry.snapshot().render_deterministic_json()
    };
    assert_eq!(
        clean_metrics(1),
        clean_metrics(4),
        "clean build metrics diverged"
    );

    let setup = FaultSetup::from_plan(FaultPlan::from_spec("smoke").unwrap());
    let registry = Arc::new(Registry::new());
    let spec = RunSpec {
        faults: Some(setup),
        ..RunSpec::default()
    };
    let batch = ReproContext::build(&multi_window_config(4), &spec, registry.clone()).full_report();
    assert_eq!(
        registry.stage(SURVEY_SLICE_SPAN).calls(),
        3,
        "survey windows"
    );
    for threads in [1, 4] {
        assert_eq!(
            batch,
            faulted_report(&multi_window_config(threads), &setup, Some(64)),
            "streamed faulted report diverged at {threads} threads"
        );
    }
}
