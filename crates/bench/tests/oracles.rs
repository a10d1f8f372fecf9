//! The exhaustive oracles the run's indexed paths are held to, over a
//! generated corpus.
//!
//! The paper's homograph search scores every IDN against every brand
//! (Section VI-B, 102 CPU-hours); the run probes a confusable-skeleton
//! index instead, and the portfolio miner scores only in-bucket pairs of
//! a skeleton-LSH index instead of all pairs. Each indexed path must
//! return what its oracle returns, and must do a small fraction of the
//! oracle's SSIM work. The work is counted, not timed, so the check holds
//! on any host: a path whose pruning broke stays correct but scores as
//! many pairs as the oracle.

mod common;

use idnre_arena::{CorpusColumns, LabelRef};
use idnre_bench::{mine, ReproContext, RunSpec};
use idnre_core::HomographDetector;
use idnre_datagen::{EcosystemConfig, KeyedCorpus};
use idnre_render::TextBitmap;
use idnre_telemetry::{NoopRecorder, SpanCtx};
use idnre_unicode::skeleton;
use idnre_whois::WhoisRecord;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

const THREADS: usize = 2;

fn config() -> EcosystemConfig {
    EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        threads: THREADS,
        ..EcosystemConfig::default()
    }
}

/// A mined batch run and the interned columns its scan read.
struct Fixture {
    ctx: ReproContext,
    columns: CorpusColumns,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = RunSpec {
            mine: true,
            ..RunSpec::default()
        };
        let ctx = ReproContext::build(&config(), &spec, Arc::new(NoopRecorder));
        // The build drops its columns after the scan; the same generator
        // walk emits the same columns again.
        let (_, _, columns) =
            idnre_datagen::generate_traced(&config(), None, &NoopRecorder, SpanCtx::NONE);
        Fixture { ctx, columns }
    })
}

/// The brand detector as the run builds it, and its brands in index
/// order (the indices [`HomographDetector::bucket`] returns).
fn detector(ctx: &ReproContext) -> (HomographDetector, Vec<String>) {
    let brands: Vec<String> = ctx.eco.brands.iter().map(|b| b.domain()).collect();
    (HomographDetector::new(&brands, 0.95), brands)
}

fn idn_domains(ctx: &ReproContext) -> Vec<&str> {
    ctx.eco
        .idn_registrations
        .iter()
        .map(|r| r.domain.as_str())
        .collect()
}

/// The run's homograph findings, from the columned skeleton-index pass of
/// its fused scan, equal the paper's exhaustive procedure over the same
/// IDNs: no lookalike the index skips clears the SSIM bar.
#[test]
fn run_homographs_equal_the_exhaustive_oracle() {
    let Fixture { ctx, .. } = fixture();
    let (detector, _) = detector(ctx);
    let oracle = detector.scan_exhaustive(idn_domains(ctx), THREADS);
    assert!(!oracle.is_empty(), "the corpus holds no homographs");
    let findings: Vec<_> = ctx
        .outputs
        .homographs
        .iter()
        .map(|f| f.finding.clone())
        .collect();
    assert_eq!(
        findings, oracle,
        "the run's indexed scan diverged from the exhaustive oracle"
    );
}

/// SSIM verifications per path. A brand is scored when its cell count
/// equals the domain's (`pair_score` is `None` otherwise): the index
/// scores the brands in the probed skeleton bucket, the oracle every
/// brand.
#[test]
fn skeleton_index_scores_a_fraction_of_the_oracles_brands() {
    let Fixture { ctx, .. } = fixture();
    let (detector, brands) = detector(ctx);
    let brand_cells: Vec<usize> = brands.iter().map(|b| TextBitmap::new(b).cells()).collect();
    let (mut indexed, mut exhaustive) = (0usize, 0usize);
    for domain in idn_domains(ctx) {
        let unicode = idnre_idna::to_unicode(domain).expect("generated IDNs decode");
        if unicode.split('.').next().is_some_and(str::is_ascii) {
            continue; // neither path scores an ASCII label
        }
        let cells = TextBitmap::new(&unicode).cells();
        let scored = |&i: &usize| brands[i] != unicode && brand_cells[i] == cells;
        exhaustive += (0..brands.len()).filter(scored).count();
        if let Some(bucket) = detector.bucket(&skeleton(&unicode)) {
            indexed += bucket.iter().copied().filter(scored).count();
        }
    }
    eprintln!("homograph SSIM verifications: indexed {indexed}, exhaustive {exhaustive}");
    assert!(indexed > 0, "the index scored nothing");
    assert!(
        exhaustive >= 50 * indexed,
        "the skeleton index scored {indexed} brands, the oracle {exhaustive}: \
         under 50x fewer"
    );
}

/// Every pair the LSH miner verifies is one the all-pairs oracle
/// verifies (containment, not equality: the oracle also finds visual
/// near-misses that share no confusable skeleton), and the standalone
/// LSH path is the run's: it verifies as many pairs as the mined run.
#[test]
fn lsh_pairs_are_a_subset_of_the_exhaustive_oracle() {
    let Fixture { ctx, columns } = fixture();
    let plan = mine::MiningPlan::new(columns);
    let lsh = mine::verified_pairs_lsh(columns, &plan, THREADS);
    let oracle: HashSet<(LabelRef, LabelRef)> =
        mine::verified_pairs_exhaustive(columns, &plan, THREADS)
            .iter()
            .map(|p| (p.a, p.b))
            .collect();
    assert!(!lsh.is_empty(), "the LSH miner verified no pairs");
    let mining = ctx.mining.as_ref().expect("the run mined");
    assert_eq!(lsh.len() as u64, mining.verified_pairs);
    for pair in &lsh {
        assert!(
            oracle.contains(&(pair.a, pair.b)),
            "LSH mined a pair the exhaustive oracle rejects: {pair:?}"
        );
    }
}

/// Candidate pairs per path: the run's miner pairs the distinct members
/// of each skeleton bucket, the oracle every two distinct members of
/// equal cell count.
#[test]
fn lsh_candidates_are_a_fraction_of_the_oracles_same_cell_pairs() {
    let Fixture { ctx, columns } = fixture();
    let mut members: Vec<LabelRef> = (0..columns.len())
        .map(|row| LabelRef {
            sld: columns.sld_symbol(row),
            tld: columns.tld_id(row),
        })
        .collect();
    members.sort_unstable();
    members.dedup();
    let mut by_cells: HashMap<usize, u64> = HashMap::new();
    for member in &members {
        let tld = columns.tld_name(member.tld);
        let tld = idnre_idna::to_unicode(tld).unwrap_or_else(|_| tld.to_string());
        let display = format!("{}.{tld}", columns.labels().resolve(member.sld));
        *by_cells
            .entry(TextBitmap::new(&display).cells())
            .or_default() += 1;
    }
    let same_cell: u64 = by_cells.values().map(|n| n * (n - 1) / 2).sum();
    let candidates = ctx.mining.as_ref().expect("the run mined").candidate_pairs;
    eprintln!("miner candidate pairs: LSH {candidates}, oracle same-cell {same_cell}");
    assert!(candidates > 0, "the LSH index paired nothing");
    assert!(
        same_cell >= 50 * candidates,
        "the LSH index generated {candidates} candidate pairs, the oracle \
         {same_cell}: under 50x fewer"
    );
    // The columns hold one row per IDN record the run scanned.
    assert_eq!(ctx.outputs.idn_len, columns.len() as u64);
}

/// The artifact folds against the lookup-per-record oracle
/// ([`common::assert_artifact_folds`]) and every IDN record's by-index
/// joins against lookups by domain ([`assert_joins`]), on corpora whose
/// bulk registrations share domains: those records' aggregates are folded,
/// and their artifacts joined, through their domain's last record, as a
/// store keyed by domain returns them.
#[test]
fn artifact_folds_and_joins_equal_the_store_oracles() {
    let seed = EcosystemConfig::default().seed;
    for (scale, seed) in [(50, seed + 1), (100, seed), (10, seed)] {
        let config = EcosystemConfig {
            scale,
            seed,
            threads: THREADS,
            ..EcosystemConfig::default()
        };
        let (eco, corpus, _) = idnre_datagen::generate_streamed(&config, 4096, &NoopRecorder);
        let mut domains = HashSet::new();
        let mut shared = 0;
        corpus.for_each_shard(true, &mut |records, _| {
            shared += records
                .iter()
                .filter(|reg| !domains.insert(reg.domain.clone()))
                .count();
        });
        assert!(shared > 0, "scale {scale}: no record shares a domain");
        let what = format!("scale {scale}, seed {seed:#x}");
        common::assert_artifact_folds(&eco, &corpus, &what);
        assert_joins(&corpus, &what);
    }
}

/// The WHOIS records of [`KeyedCorpus::whois_records`] by domain, the
/// last record of a domain winning, as a store keyed by domain holds them.
fn whois_by_domain(corpus: &KeyedCorpus) -> HashMap<String, WhoisRecord> {
    let mut store = HashMap::new();
    for record in corpus.whois_records() {
        store.insert(record.domain.clone(), record);
    }
    store
}

/// Asserts that every IDN record's by-index joins
/// ([`KeyedCorpus::whois_record`], [`KeyedCorpus::pdns_aggregate`]) equal
/// the by-domain lookups into the rebuilt stores.
fn assert_joins(corpus: &KeyedCorpus, what: &str) {
    let whois = whois_by_domain(corpus);
    let pdns = corpus.pdns_store();
    let mut index = 0u64;
    corpus.for_each_shard(true, &mut |records, _| {
        for reg in records {
            assert_eq!(
                corpus.whois_record(index).as_ref(),
                whois.get(&reg.domain),
                "{what}: WHOIS of record {index} ({})",
                reg.domain
            );
            assert_eq!(
                corpus.pdns_aggregate(index).as_ref(),
                pdns.lookup(&reg.domain),
                "{what}: pDNS of record {index} ({})",
                reg.domain
            );
            index += 1;
        }
    });
    assert_eq!(index, corpus.idn_len());
}
