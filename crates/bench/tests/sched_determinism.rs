//! Properties of the event-driven crawl scheduler: a fixed fault spec and
//! scheduler config replay byte-identically across runs *and* across
//! worker-thread counts, no query outlives its deadline by more than one
//! wheel tick, and a storm run degrades (sheds, trips breakers, exits 3)
//! instead of exceeding its budget.

use idnre_bench::robust::{self, FaultSetup, RunHealth};
use idnre_bench::{ReproContext, RunSpec};
use idnre_datagen::{Ecosystem, EcosystemConfig};
use idnre_fault::{ErrorBudget, FaultPlan, FaultProfile, RetryPolicy, RunStatus};
use idnre_sched::SchedConfig;
use idnre_telemetry::Registry;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One small ecosystem shared across cases: generation dominates the cost
/// and is independent of the scheduler under test.
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

/// The storm-smoke corpus: the scale the CLI exit-code contract is
/// calibrated at (a full slice's worth of crawl domains, so breakers
/// trip early enough in the population to shed the bulk of a storm).
fn smoke_eco() -> &'static Ecosystem {
    static ECO: OnceLock<Ecosystem> = OnceLock::new();
    ECO.get_or_init(|| {
        Ecosystem::generate(&EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            ..EcosystemConfig::default()
        })
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
    eco: &Ecosystem,
    seed: u64,
    profile_index: u8,
    threads: usize,
) -> (RunHealth, String) {
    let config = SchedConfig::default();
    let setup = FaultSetup {
        plan: FaultPlan::new(seed, profile(profile_index)),
        policy: RetryPolicy::default(),
        threads,
        sched: Some(config),
    };
    let registry = Registry::new();
    let budget = ErrorBudget::new(setup.plan.profile().budget_per_mille);
    let (zones, zone_stats) =
        robust::ingest_zones_faulted(&eco.zones, &setup.plan, &budget, threads, &registry);
    let whois_stats = robust::whois_survey(eco, Some(&setup.plan), Some(&budget), &registry);
    let (survey, sched) = robust::crawl_survey_scheduled(
        eco,
        &zones,
        &setup.plan,
        &config,
        threads,
        &budget,
        &registry,
    );
    let health = RunHealth::with_sched(
        &setup,
        zone_stats,
        whois_stats,
        survey,
        &budget,
        Some(sched),
    );
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
/// included, at any thread count.
#[test]
fn scheduled_reports_replay_byte_identically() {
    // The storm-smoke scale: the scheduler's "**degraded**" verdict is
    // part of the asserted bytes.
    let config = EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        ..EcosystemConfig::default()
    };
    let setup = FaultSetup::from_plan(FaultPlan::from_spec("storm").unwrap())
        .with_sched(SchedConfig::default());
    let report = |threads| {
        let setup = FaultSetup { threads, ..setup };
        let spec = RunSpec {
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
    let first = report(4);
    assert_eq!(first, report(4), "same spec, same bytes");
    assert_eq!(first, report(1), "thread count leaked into the report");
    assert!(first.contains("## Run health"));
    assert!(first.contains("Crawl scheduler:"));
    assert!(first.contains("**degraded**"));
}

fn sync_run(eco: &Ecosystem, seed: u64, threads: usize) -> (RunHealth, String) {
    let setup = FaultSetup {
        plan: FaultPlan::new(seed, FaultProfile::storm()),
        policy: RetryPolicy::default(),
        threads,
        sched: None,
    };
    let registry = Registry::new();
    let budget = ErrorBudget::new(setup.plan.profile().budget_per_mille);
    let (zones, zone_stats) =
        robust::ingest_zones_faulted(&eco.zones, &setup.plan, &budget, threads, &registry);
    let whois_stats = robust::whois_survey(eco, Some(&setup.plan), Some(&budget), &registry);
    let ctx = idnre_crawler::FaultContext {
        plan: setup.plan,
        policy: setup.policy,
    };
    let survey = robust::crawl_survey_faulted(eco, &zones, &ctx, setup.threads, &budget, &registry);
    let health = RunHealth::new(&setup, zone_stats, whois_stats, survey, &budget);
    let metrics = registry.snapshot().render_deterministic_json();
    (health, metrics)
}
