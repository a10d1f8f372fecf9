//! Built-in SLO profiles for `repro --slo PROFILE`.
//!
//! A profile is a named [`SloSpec`] evaluated against the run's metrics
//! snapshot after the pipeline finishes; its verdict becomes the process
//! exit code (0 clean / 3 degraded / 4 exceeded — the `idnre-fault`
//! contract). Two profiles ship:
//!
//! * `smoke` — generous bounds on the stages every run records; CI's
//!   trace-smoke job asserts it exits 0 at scale 50.
//! * `tight` — a deliberately unmeetable 1 ns median bound on
//!   `build.ecosystem`; CI asserts it exits 3, proving the gate actually
//!   trips.
//!
//! Both name only stages that every build mode records (batch, streamed,
//! mined and epochs), so a profile's verdict never depends on the mode:
//! the fold is `analyze.scan` in a one-shot build but `analyze.epoch` in
//! an epochs build, and a family rule covers both.

use idnre_telemetry::{SloRule, SloSpec};

/// Names of the built-in profiles, for `--help` and flag validation.
pub const SLO_PROFILES: [&str; 2] = ["smoke", "tight"];

/// Looks up a built-in profile by name.
pub fn slo_profile(name: &str) -> Option<SloSpec> {
    match name {
        "smoke" => Some(smoke()),
        "tight" => Some(tight()),
        _ => None,
    }
}

/// Generous bounds a healthy run clears with wide margin: generation and
/// the content pass (which carries Table V's sample crawl, and which
/// every fold records) must exist, and they and every analysis stage —
/// the one-shot scan or the epoch folds, the scan inputs, the shadow
/// rebuilds — must finish inside ten minutes per call; no pass shard —
/// nor the miner's pair verification, which only a mined run records —
/// may median above a minute.
fn smoke() -> SloSpec {
    const MINUTE: u64 = 60_000_000_000;
    SloSpec::new("smoke")
        .rule(
            SloRule::stage("build.ecosystem")
                .p50_max_nanos(5 * MINUTE)
                .max_nanos(10 * MINUTE),
        )
        .rule(
            SloRule::stage("analyze.*")
                .p50_max_nanos(5 * MINUTE)
                .max_nanos(10 * MINUTE),
        )
        .rule(
            SloRule::stage("analyze.pass.content")
                .p50_max_nanos(5 * MINUTE)
                .max_nanos(10 * MINUTE),
        )
        .rule(
            SloRule::stage("analyze.pass.*")
                .p50_max_nanos(MINUTE)
                .p99_max_nanos(5 * MINUTE),
        )
        .rule(
            SloRule::stage("mine.*")
                .p50_max_nanos(MINUTE)
                .p99_max_nanos(5 * MINUTE),
        )
}

/// A bound no real run can meet — 1 ns median on generation, which every
/// build mode records — so the degraded path (exit 3) is exercisable on
/// demand. Quantile-only on purpose: a hard `max` bound would escalate to
/// exit 4.
fn tight() -> SloSpec {
    SloSpec::new("tight").rule(SloRule::stage("build.ecosystem").p50_max_nanos(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_telemetry::{Recorder, Registry, SloStatus};

    fn fast_run_snapshot() -> idnre_telemetry::MetricsSnapshot {
        let registry = Registry::new();
        for stage in ["build.ecosystem", "analyze.scan"] {
            registry.record_nanos(stage, 1_000_000);
        }
        registry.record_nanos("analyze.pass.homograph", 50_000);
        registry.record_nanos("analyze.pass.content", 50_000);
        registry.snapshot()
    }

    #[test]
    fn profile_lookup_knows_every_listed_name() {
        for name in SLO_PROFILES {
            let spec = slo_profile(name).unwrap_or_else(|| panic!("missing profile {name}"));
            assert_eq!(spec.profile(), name);
            assert!(!spec.is_empty());
        }
        assert!(slo_profile("nope").is_none());
    }

    #[test]
    fn smoke_is_clean_on_a_fast_run() {
        let report = smoke().evaluate(&fast_run_snapshot());
        assert_eq!(report.status, SloStatus::Clean);
        assert_eq!(report.status.exit_code(), 0);
    }

    #[test]
    fn smoke_degrades_when_an_expected_stage_is_missing() {
        let report = smoke().evaluate(&Registry::new().snapshot());
        assert_eq!(report.status, SloStatus::Degraded);
        assert_eq!(report.status.exit_code(), 3);
    }

    #[test]
    fn smoke_degrades_on_a_slow_pair_verification() {
        let registry = Registry::new();
        for stage in ["build.ecosystem", "analyze.scan", "analyze.pass.content"] {
            registry.record_nanos(stage, 1_000_000);
        }
        // Two minutes: over the one-minute median bound, under the p99.
        registry.record_nanos("mine.pairs", 120_000_000_000);
        let report = smoke().evaluate(&registry.snapshot());
        assert_eq!(report.status, SloStatus::Degraded);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].stage, "mine.pairs");
        assert_eq!(report.violations[0].metric, "p50");
    }

    #[test]
    fn tight_always_degrades_but_never_exceeds() {
        let report = tight().evaluate(&fast_run_snapshot());
        assert_eq!(report.status, SloStatus::Degraded);
        assert_eq!(report.status.exit_code(), 3);
        assert!(report.violations.iter().all(|v| !v.hard));
    }

    /// An epochs build folds under `analyze.epoch`, not `analyze.scan`:
    /// `smoke` must judge it clean, and `tight` must degrade it by its
    /// bound, not by a stage the mode never records.
    #[test]
    fn profiles_judge_an_epochs_build_by_its_bounds() {
        let config = idnre_datagen::EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            threads: 2,
            ..idnre_datagen::EcosystemConfig::default()
        };
        let spec = crate::RunSpec {
            shard_size: Some(64),
            epochs: Some(crate::EpochSpec {
                count: 2,
                churn_per_mille: crate::DEFAULT_CHURN_PER_MILLE,
            }),
            ..crate::RunSpec::default()
        };
        let registry = std::sync::Arc::new(Registry::new());
        let _ = crate::ReproContext::build(&config, &spec, registry.clone());
        let snapshot = registry.snapshot();

        let report = smoke().evaluate(&snapshot);
        assert_eq!(report.status, SloStatus::Clean, "{}", report.render_text());

        let report = tight().evaluate(&snapshot);
        assert_eq!(report.status, SloStatus::Degraded);
        assert_eq!(report.violations.len(), 1, "{}", report.render_text());
        assert_eq!(report.violations[0].stage, "build.ecosystem");
        assert_eq!(report.violations[0].metric, "p50");
    }

    #[test]
    fn zero_max_bound_exceeds_with_exit_4() {
        let spec = SloSpec::new("zero").rule(SloRule::stage("analyze.scan").max_nanos(0));
        let report = spec.evaluate(&fast_run_snapshot());
        assert_eq!(report.status, SloStatus::Exceeded);
        assert_eq!(report.status.exit_code(), 4);
    }
}
