//! Properties of the event-driven crawl scheduler: a fixed fault spec and
//! scheduler config replay byte-identically across runs *and* across
//! worker-thread counts, no query outlives its deadline by more than one
//! wheel tick, and a storm run degrades (sheds, trips breakers, exits 3)
//! instead of exceeding its budget.

use idnre_analyze::SliceSource;
use idnre_bench::robust::{self, FaultSetup, RunHealth};
use idnre_bench::{CorpusView, ReproContext, RunSpec};
use idnre_crawler::SURVEY_SLICE_RECORDS;
use idnre_datagen::{generate_traced, Ecosystem, EcosystemConfig, KeyedCorpus};
use idnre_fault::{FaultPlan, FaultProfile, RunStatus};
use idnre_sched::SchedConfig;
use idnre_telemetry::{NoopRecorder, Registry, SpanCtx};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A batch build's ecosystem and the corpus plan the WHOIS survey joins
/// through.
type Built = (Ecosystem, KeyedCorpus);

fn generate(config: &EcosystemConfig) -> Built {
    let (eco, corpus, _) = generate_traced(config, None, &NoopRecorder, SpanCtx::NONE);
    (eco, corpus)
}

/// One small ecosystem shared across cases: generation dominates the cost
/// and is independent of the scheduler under test.
fn eco() -> &'static Built {
    static ECO: OnceLock<Built> = OnceLock::new();
    ECO.get_or_init(|| {
        generate(&EcosystemConfig {
            scale: 8000,
            attack_scale: 100,
            brand_count: 50,
            ..EcosystemConfig::default()
        })
    })
}

/// The storm-smoke corpus: the scale the CLI exit-code contract is
/// calibrated at (a full slice's worth of crawl domains, so breakers
/// trip early enough in the population to shed the bulk of a storm).
fn smoke_eco() -> &'static Built {
    static ECO: OnceLock<Built> = OnceLock::new();
    ECO.get_or_init(|| {
        generate(&EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            ..EcosystemConfig::default()
        })
    })
}

/// Scale 1000: 5,346 records, 4,146 of them IDNs — three scheduler
/// windows, the third straddling the IDN/non-IDN boundary. Every other
/// input here fits one window.
fn multi_window_eco() -> &'static Built {
    static ECO: OnceLock<Built> = OnceLock::new();
    ECO.get_or_init(|| {
        let built = generate(&EcosystemConfig {
            scale: 1000,
            ..EcosystemConfig::default()
        });
        let idn = built.0.idn_registrations.len();
        assert!(
            (2 * SURVEY_SLICE_RECORDS..3 * SURVEY_SLICE_RECORDS).contains(&idn),
            "{idn} IDNs: the third window no longer straddles the boundary"
        );
        built
    })
}

fn profile(index: u8) -> FaultProfile {
    match index % 3 {
        0 => FaultProfile::none(),
        1 => FaultProfile::flaky(),
        _ => FaultProfile::storm(),
    }
}

/// Runs the scheduled pipeline (lenient zone ingest → WHOIS survey →
/// event-driven crawl survey) and returns everything observable: the
/// health verdict and the deterministic slice of the telemetry snapshot.
fn scheduled_run(seed: u64, profile_index: u8, threads: usize) -> (RunHealth, String) {
    scheduled_run_on(eco(), seed, profile_index, threads)
}

fn scheduled_run_on(
    built: &Built,
    seed: u64,
    profile_index: u8,
    threads: usize,
) -> (RunHealth, String) {
    let setup = FaultSetup::from_plan(FaultPlan::new(seed, profile(profile_index)))
        .with_sched(SchedConfig::default());
    surveys_on(built, &setup, threads)
}

/// Runs the faulted surveys over `eco`'s resident corpus and returns the
/// health verdict plus the deterministic slice of the telemetry snapshot.
fn surveys_on((eco, corpus): &Built, setup: &FaultSetup, threads: usize) -> (RunHealth, String) {
    let registry = Registry::new();
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let view = CorpusView::resident(&source);
    let health = robust::faulted_surveys(&view, corpus, setup, threads, &registry);
    let metrics = registry.snapshot().render_deterministic_json();
    (health, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same fault seed and scheduler config replay byte-identically,
    /// run to run.
    #[test]
    fn scheduled_runs_replay_across_runs(seed in any::<u64>(), profile_index in 0u8..3) {
        let (health_a, metrics_a) = scheduled_run(seed, profile_index, 4);
        let (health_b, metrics_b) = scheduled_run(seed, profile_index, 4);
        prop_assert_eq!(health_a, health_b);
        prop_assert_eq!(metrics_a, metrics_b);
    }

    /// Thread count changes wall time only: every scheduler counter, shed
    /// tally, breaker transition and the deterministic metrics slice are
    /// identical at 1, 2 and 8 workers.
    #[test]
    fn scheduled_runs_replay_across_thread_counts(
        seed in any::<u64>(),
        profile_index in 0u8..3,
    ) {
        let (health_single, metrics_single) = scheduled_run(seed, profile_index, 1);
        for threads in [2usize, 8] {
            let (health_multi, metrics_multi) = scheduled_run(seed, profile_index, threads);
            prop_assert_eq!(health_single.clone(), health_multi, "threads={}", threads);
            prop_assert_eq!(metrics_single.clone(), metrics_multi, "threads={}", threads);
        }
    }

    /// The deadline contract holds under every profile: no query's
    /// end-to-end latency exceeds its deadline by more than one wheel
    /// tick (a timer never fires early, and at most one tick late).
    #[test]
    fn no_query_outlives_its_deadline_by_more_than_one_tick(
        seed in any::<u64>(),
        profile_index in 0u8..3,
    ) {
        let (health, _) = scheduled_run(seed, profile_index, 4);
        let config = SchedConfig::default();
        let sched = health.sched.expect("scheduled run carries sched stats");
        prop_assert!(
            sched.max_latency_nanos <= config.policy.deadline_nanos + config.wheel_tick_nanos,
            "max latency {} exceeds deadline {} + tick {}",
            sched.max_latency_nanos,
            config.policy.deadline_nanos,
            config.wheel_tick_nanos,
        );
    }
}

/// The storm contract end to end: the scheduler run sheds, trips
/// breakers, and lands *degraded* (exit 3) where the synchronous path
/// exceeds its budget (exit 4).
#[test]
fn storm_degrades_where_the_synchronous_path_exceeds() {
    let (health, metrics) = scheduled_run_on(smoke_eco(), 0xBAD_C0DE, 2, 4);
    let sched = health.sched.expect("scheduled run carries sched stats");
    assert!(sched.shed_total() > 0, "storm shed nothing");
    assert!(sched.breaker_opened > 0, "storm tripped no breakers");
    assert_eq!(health.shed, sched.shed_total());
    assert_eq!(
        health.status,
        RunStatus::Degraded,
        "exit code 3 contract: {} ok / {} errors / {} shed, {}‰ observed vs {}‰ allowed",
        health.ok,
        health.errors,
        health.shed,
        health.error_per_mille,
        health.allowed_per_mille,
    );
    assert!(metrics.contains("\"crawler.shed.breaker_open\""));
    assert!(metrics.contains("\"crawler.breaker.open\""));

    // Same corpus, same seed, synchronous survey: errors instead of shed,
    // and the budget blows.
    let (sync_health, _) = sync_run(smoke_eco(), 0xBAD_C0DE, 4);
    assert_eq!(sync_health.shed, 0);
    assert_eq!(sync_health.status, RunStatus::BudgetExceeded);
    assert!(
        sync_health.error_per_mille > health.error_per_mille,
        "shedding did not reduce the observed error rate ({}‰ sync vs {}‰ sched)",
        sync_health.error_per_mille,
        health.error_per_mille,
    );
}

/// A clean (no-fault) population flows through the scheduler without a
/// single shed query or breaker transition: back-pressure machinery is
/// invisible until there is pressure.
#[test]
fn clean_runs_never_shed() {
    let (health, _) = scheduled_run(0xC1EA4, 0, 4);
    let sched = health.sched.expect("scheduled run carries sched stats");
    assert_eq!(sched.shed_total(), 0);
    assert_eq!(sched.breaker_opened, 0);
    assert_eq!(health.shed, 0);
    assert_eq!(health.status, RunStatus::Clean, "exit code 0 contract");
}

/// The full context path: two scheduled faulted builds with the same spec
/// produce byte-identical `EXPERIMENTS.md` documents, scheduler paragraph
/// included, at any thread count — and streamed at any shard size, since
/// the streamed survey walks the same windows.
#[test]
fn scheduled_reports_replay_byte_identically() {
    let setup = FaultSetup::from_plan(FaultPlan::from_spec("storm").unwrap())
        .with_sched(SchedConfig::default());
    let report = |threads, shard_size| {
        // The storm-smoke scale: the scheduler's "**degraded**" verdict is
        // part of the asserted bytes.
        let config = EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            threads,
            ..EcosystemConfig::default()
        };
        let spec = RunSpec {
            shard_size,
            faults: Some(setup),
            ..RunSpec::default()
        };
        ReproContext::build(
            &config,
            &spec,
            std::sync::Arc::new(idnre_telemetry::NoopRecorder),
        )
        .full_report()
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
            "streamed scheduled report diverged at shard size {shard_size}"
        );
    }
    assert!(first.contains("## Run health"));
    assert!(first.contains("Crawl scheduler:"));
    assert!(first.contains("**degraded**"));
}

fn sync_run(built: &Built, seed: u64, threads: usize) -> (RunHealth, String) {
    let setup = FaultSetup::from_plan(FaultPlan::new(seed, FaultProfile::storm()));
    surveys_on(built, &setup, threads)
}

/// Thread count stays invisible once the scheduled survey runs several
/// windows: the storm's health, scheduler accounting and every counter
/// match at 1 and 4 workers.
#[test]
fn multi_window_schedules_replay_across_thread_counts() {
    let setup = FaultSetup::from_plan(FaultPlan::from_spec("storm").unwrap())
        .with_sched(SchedConfig::default());
    let single = surveys_on(multi_window_eco(), &setup, 1);
    assert!(single.0.survey.domains > 2 * SURVEY_SLICE_RECORDS as u64);
    assert!(single.0.sched.expect("scheduled run").shed_total() > 0);
    assert_eq!(single, surveys_on(multi_window_eco(), &setup, 4));
}
