//! Determinism and oracle-equivalence guarantees of the two-pass
//! skeleton-LSH portfolio miner.
//!
//! Mining rides the fused scan, so it inherits the same contracts the
//! report does — and they are checked the same way: byte-identity of the
//! mined report and its deterministic metrics across a thread × shard
//! grid, associativity of the bucket-index merge on real corpus partials
//! (chunk size coprime to every shard size), equality of the pair
//! verifier against the all-pairs oracle on forged confusable corpora,
//! and a pinned scale-50 regression for the mined counts.

use idnre_analyze::SliceSource;
use idnre_arena::{ColumnRow, CorpusColumns};
use idnre_bench::{mine, passes, CandidateSurvey, ReproContext, RunSpec};
use idnre_datagen::{generate_traced, EcosystemConfig};
use idnre_telemetry::{NoopRecorder, Registry, SpanCtx};
use idnre_unicode::{homoglyphs_of, skeleton};
use proptest::prelude::*;
use std::sync::Arc;

fn mined(shard_size: Option<usize>) -> RunSpec {
    RunSpec {
        shard_size,
        mine: true,
        ..RunSpec::default()
    }
}

fn config(threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        brand_count: 200,
        threads,
        ..EcosystemConfig::default()
    }
}

/// The headline guarantee: the mined report — portfolio section included —
/// is byte-identical across worker counts and streamed shard sizes, and
/// at each shard size (batch included) so is the `--metrics det` JSON:
/// stage calls and records and every counter. The batch build at one
/// worker anchors the report grid.
#[test]
fn mined_report_is_byte_identical_across_threads_and_shards() {
    let mut anchor: Option<String> = None;
    for shard_size in [None, Some(64usize), Some(1024)] {
        let mut det: Option<String> = None;
        for threads in [1usize, 2, 8] {
            let registry = Arc::new(Registry::new());
            let report =
                ReproContext::build(&config(threads), &mined(shard_size), registry.clone())
                    .full_report();
            let metrics = registry.snapshot().render_deterministic_json();
            match &anchor {
                None => {
                    assert!(
                        report.contains("## Portfolio mining"),
                        "mined build lost its report section"
                    );
                    anchor = Some(report);
                }
                Some(expected) => assert_eq!(
                    &report, expected,
                    "mined report diverged at threads={threads} shard_size={shard_size:?}"
                ),
            }
            match &det {
                None => det = Some(metrics),
                Some(expected) => assert_eq!(
                    &metrics, expected,
                    "mined det metrics diverged at threads={threads} shard_size={shard_size:?}"
                ),
            }
        }
    }
}

/// The bucket-index fold (pass A) merges associatively over real corpus
/// partials, checked by the plan-wide probe at a chunk size coprime to
/// every shard size the grid uses.
#[test]
fn bucket_index_merge_is_associative_at_chunk_97() {
    let (eco, _, columns) = generate_traced(&config(4), None, &NoopRecorder, SpanCtx::NONE);
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let mining_plan = mine::MiningPlan::new(&columns);
    let candidates = CandidateSurvey::build(&eco.brands, 4, &NoopRecorder);
    let inputs = passes::ScanInputs::new(&eco.brands, &candidates);
    inputs
        .plan(&columns, Some(&mining_plan))
        .check_associative(&source, 97, &NoopRecorder)
        .unwrap_or_else(|pass| panic!("pass {pass} has a non-associative merge"));
}

/// Mining is additive: the default report is a byte-prefix of the mined
/// one, so `--mine-portfolios` can never perturb a published number.
#[test]
fn mining_only_appends_to_the_report() {
    let plain =
        ReproContext::build(&config(4), &RunSpec::default(), Arc::new(NoopRecorder)).full_report();
    let mined = ReproContext::build(&config(4), &mined(None), Arc::new(NoopRecorder)).full_report();
    assert!(
        mined.starts_with(&plain),
        "mining altered existing sections"
    );
    assert!(mined.len() > plain.len(), "mining appended nothing");
}

/// Scale-50 regression: the mined counts at CI's smoke scale are pinned
/// exactly. A drift here means the bucket keys, the SSIM verification or
/// the clustering changed behaviour — rerun `repro --mine-portfolios
/// --scale 50 all` and re-pin deliberately if that was intended.
#[test]
fn scale_50_mined_counts_are_pinned() {
    let ctx = ReproContext::build(
        &EcosystemConfig {
            scale: 50,
            threads: 4,
            ..EcosystemConfig::default()
        },
        &mined(None),
        Arc::new(NoopRecorder),
    );
    let mining = ctx.mining.as_ref().expect("mined build carries outputs");
    assert!(mining.buckets > 0);
    assert!(mining.non_singleton_buckets > 0);
    let pinned = (
        mining.candidate_pairs,
        mining.verified_pairs,
        mining.portfolios.len() as u64,
    );
    assert_eq!(
        pinned,
        (18022, 13345, 771),
        "scale-50 mined counts drifted (candidate_pairs, verified, portfolios)"
    );
    // Every portfolio is a genuine cluster with resolvable joins.
    for portfolio in &mining.portfolios {
        assert!(portfolio.members.len() >= 2);
        for member in &portfolio.members {
            assert!(member.domain.is_ascii());
            assert!(!member.unicode.is_empty());
        }
    }
}

/// Builds mining columns from forged unicode SLDs under `.com`.
fn forged_columns(slds: &[String]) -> CorpusColumns {
    let mut columns = CorpusColumns::default();
    for sld in slds {
        columns.push_row(ColumnRow {
            sld,
            tld: "com",
            skeleton: (!sld.is_ascii()).then(|| skeleton(sld).into()),
            ..ColumnRow::default()
        });
    }
    columns
}

/// Applies a substitution recipe to a base label: confusable homoglyphs
/// at the selected positions (mirrors the homograph proptest forge).
fn forge(base: &str, recipe: &[(bool, usize)]) -> String {
    base.chars()
        .enumerate()
        .map(|(i, ch)| {
            let (substitute, pick) = recipe[i % recipe.len()];
            if !substitute {
                return ch;
            }
            let glyphs = homoglyphs_of(ch);
            if glyphs.is_empty() {
                ch
            } else {
                glyphs[pick % glyphs.len()].ch
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LSH path (pass B's `verify_buckets` over pass A's keys) returns
    /// exactly the pairs the all-pairs oracle returns, on corpora
    /// engineered for skeleton collisions: confusable substitutions of a
    /// small label pool, so many rows fold to one bucket, plus the
    /// untouched ASCII bases as negatives.
    #[test]
    fn lsh_pairs_match_exhaustive_oracle(
        bases in proptest::collection::vec("[a-z]{4,10}", 2..6),
        recipes in proptest::collection::vec(
            (0usize..1024, proptest::collection::vec((any::<bool>(), 0usize..1024), 10)),
            1..16,
        ),
    ) {
        let mut slds: Vec<String> = recipes
            .iter()
            .map(|(which, recipe)| forge(&bases[which % bases.len()], recipe))
            .collect();
        slds.extend(bases.iter().cloned());
        slds.sort();
        slds.dedup();
        let columns = forged_columns(&slds);
        let plan = mine::MiningPlan::new(&columns);
        let lsh = mine::verified_pairs_lsh(&columns, &plan, 2);
        let oracle = mine::verified_pairs_exhaustive(&columns, &plan, 2);
        prop_assert_eq!(lsh, oracle);
    }
}
