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
//!   `analyze.scan`; CI asserts it exits 3, proving the gate actually
//!   trips.

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

/// Generous bounds a healthy run clears with wide margin: the three
/// stages every build mode records (generation, the fused scan and its
/// Table V sample crawl) must exist and finish inside ten minutes per
/// call, and no pass shard may median above a minute.
fn smoke() -> SloSpec {
    const MINUTE: u64 = 60_000_000_000;
    SloSpec::new("smoke")
        .rule(
            SloRule::stage("build.ecosystem")
                .p50_max_nanos(5 * MINUTE)
                .max_nanos(10 * MINUTE),
        )
        .rule(
            SloRule::stage("analyze.scan")
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
}

/// A bound no real run can meet — 1 ns median on the fused scan — so the
/// degraded path (exit 3) is exercisable on demand. Quantile-only on
/// purpose: a hard `max` bound would escalate to exit 4.
fn tight() -> SloSpec {
    SloSpec::new("tight").rule(SloRule::stage("analyze.scan").p50_max_nanos(1))
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
    fn tight_always_degrades_but_never_exceeds() {
        let report = tight().evaluate(&fast_run_snapshot());
        assert_eq!(report.status, SloStatus::Degraded);
        assert_eq!(report.status.exit_code(), 3);
        assert!(report.violations.iter().all(|v| !v.hard));
    }

    #[test]
    fn zero_max_bound_exceeds_with_exit_4() {
        let spec = SloSpec::new("zero").rule(SloRule::stage("analyze.scan").max_nanos(0));
        let report = spec.evaluate(&fast_run_snapshot());
        assert_eq!(report.status, SloStatus::Exceeded);
        assert_eq!(report.status.exit_code(), 4);
    }
}
