//! The committed `EXPERIMENTS.md` is the output of `repro all` at the
//! default configuration. Thread-count and batch-vs-streamed comparisons
//! only check that every mode agrees with every other; this pin checks
//! that they all still agree with the document in the repository, so a
//! change that moves every mode at once cannot go unnoticed.

use idnre_bench::{ReproContext, RunSpec};
use idnre_datagen::EcosystemConfig;
use idnre_telemetry::NoopRecorder;
use std::sync::Arc;

const COMMITTED: &str = include_str!("../../../EXPERIMENTS.md");

#[test]
fn default_report_matches_the_committed_document() {
    let ctx = ReproContext::build(
        &EcosystemConfig::default(),
        &RunSpec::default(),
        Arc::new(NoopRecorder),
    );
    let report = ctx.full_report();
    if report != COMMITTED {
        let at = report
            .bytes()
            .zip(COMMITTED.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(report.len().min(COMMITTED.len()));
        let line = report.as_bytes()[..at]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1;
        panic!(
            "report diverges from EXPERIMENTS.md at byte {at} (line {line}); \
             regenerate it with `repro all` if the change is intended"
        );
    }
}
