//! The epoch engine's proof of equivalence: every epoch's incrementally
//! re-folded report must be byte-identical to a from-scratch batch
//! rebuild over the same effective corpus — across worker counts and
//! shard sizes, for several consecutive epochs.
//!
//! An epochs build ([`idnre_bench::RunSpec::epochs`]) already
//! shadow-rebuilds and asserts the per-epoch byte-equality *inside* each
//! run; this test adds the cross-
//! configuration axis: the final report must also be identical across
//! every (threads, shard_size) combination, because the simulated deltas
//! are a pure function of (seed, epoch) and the fold order is pinned by
//! shard order, not scheduling.

use idnre_bench::{EpochRun, EpochSpec, ReproContext, RunSpec};
use idnre_datagen::EcosystemConfig;
use idnre_telemetry::NoopRecorder;
use std::sync::Arc;

const EPOCHS: u64 = 3;
const CHURN_PER_MILLE: u64 = 25;

fn config(threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        scale: 4000,
        threads,
        ..EcosystemConfig::default()
    }
}

fn played(config: &EcosystemConfig, shard_size: usize) -> EpochRun {
    let spec = RunSpec {
        shard_size: Some(shard_size),
        epochs: Some(EpochSpec {
            count: EPOCHS,
            churn_per_mille: CHURN_PER_MILLE,
        }),
        ..RunSpec::default()
    };
    ReproContext::build(config, &spec, Arc::new(NoopRecorder))
        .epochs
        .expect("an epochs build records its run")
}

#[test]
fn epoch_reports_are_identical_across_threads_and_shard_sizes() {
    let mut baseline: Option<String> = None;
    for shard_size in [64usize, 1024] {
        for threads in [1usize, 2, 8] {
            let run = played(&config(threads), shard_size);
            assert_eq!(run.epochs.len(), EPOCHS as usize);
            match &baseline {
                None => baseline = Some(run.final_report),
                Some(expected) => assert!(
                    *expected == run.final_report,
                    "final report diverged at shard {shard_size}, {threads} threads \
                     (baseline {} bytes, this run {} bytes)",
                    expected.len(),
                    run.final_report.len()
                ),
            }
        }
    }
}

#[test]
fn small_shards_refold_a_strict_subset_per_epoch() {
    // At shard 64 the cohort-clustered day deltas touch a thin slice of
    // the grid; the whole point of resident partials is refolded < total.
    let run = played(&config(2), 64);
    for (i, epoch) in run.epochs.iter().enumerate() {
        assert!(
            epoch.stats.refolded < epoch.stats.total_shards,
            "epoch {}: {}/{} shards refolded — nothing was reused",
            i + 1,
            epoch.stats.refolded,
            epoch.stats.total_shards
        );
        assert!(
            epoch.stats.refolded_records <= epoch.stats.refolded * 64,
            "refolded more records than the dirty shards can hold"
        );
        assert_eq!(
            epoch.stats.clean + epoch.stats.refolded,
            epoch.stats.total_shards
        );
    }
    // The cold fold seeds the cache by folding everything exactly once.
    assert_eq!(run.initial.refolded, run.initial.total_shards);
    assert_eq!(run.initial.dirty, 0);
}

#[test]
fn coarse_shards_still_prove_equivalence() {
    // At shard 1024 a scale-4000 corpus is one shard per population, so
    // every epoch re-folds everything — no reuse, but the equivalence
    // contract (asserted inside the build) must still hold, and the
    // accounting must say so honestly.
    let run = played(&config(2), 1024);
    for epoch in &run.epochs {
        assert!(epoch.stats.refolded >= 1);
        assert_eq!(
            epoch.stats.clean + epoch.stats.refolded,
            epoch.stats.total_shards
        );
    }
}
