//! The per-pass attribution budget: timing every registered pass must not
//! make the fused scan measurably slower. Instrumentation is batched —
//! one span per (shard, pass), one accumulated merge probe and one finish
//! probe per pass — so the clock is read O(shards × passes) times, never
//! per record. This test holds the instrumented scan to ≤ 1.05× the
//! uninstrumented wall at CI's smoke scale (1:50).

use idnre_analyze::SliceSource;
use idnre_bench::{passes, CandidateSurvey};
use idnre_datagen::{generate_traced, EcosystemConfig};
use idnre_telemetry::{NoopRecorder, Recorder, Registry, SpanCtx};
use std::time::Instant;

/// Attempts before the test gives up: the ratio of two wall-clock
/// measurements on a shared machine is noisy, so each attempt interleaves
/// the pair and the best (minimum-noise) attempt is the verdict.
const ATTEMPTS: usize = 3;
const BUDGET: f64 = 1.05;

#[test]
fn instrumented_scan_stays_within_five_percent_of_uninstrumented() {
    let config = EcosystemConfig {
        scale: 50,
        threads: 4,
        ..EcosystemConfig::default()
    };
    let (eco, _, columns) = generate_traced(&config, None, &NoopRecorder, SpanCtx::NONE);
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let candidates = CandidateSurvey::build(&eco.brands, config.threads, &NoopRecorder);
    let inputs = passes::ScanInputs::new(&eco.brands, &candidates);
    let scan_once = |recorder: &dyn Recorder| {
        inputs
            .plan(&columns, None)
            .run_at(&source, 1024, config.threads, recorder, SpanCtx::NONE)
    };

    // Warm caches and allocator before anything is timed.
    let _ = scan_once(&NoopRecorder);

    let mut best = f64::INFINITY;
    for attempt in 0..ATTEMPTS {
        let registry = Registry::new();
        let started = Instant::now();
        let _ = scan_once(&registry);
        let instrumented = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let _ = scan_once(&NoopRecorder);
        let uninstrumented = started.elapsed().as_secs_f64();
        let ratio = instrumented / uninstrumented;
        best = best.min(ratio);
        eprintln!(
            "attempt {attempt}: instrumented {instrumented:.3}s / \
             uninstrumented {uninstrumented:.3}s = {ratio:.4}x"
        );
        if best <= BUDGET {
            break;
        }
    }
    assert!(
        best <= BUDGET,
        "instrumented scan is {best:.4}x the uninstrumented wall (budget {BUDGET}x)"
    );
}
