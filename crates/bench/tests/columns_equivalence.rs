//! The struct-of-arrays corpus layout against its definition. Building
//! [`CorpusColumns`] from the same corpus must yield identical symbol
//! ids, TLD ids, language ids, skeletons and verdict bits for every
//! worker count, shard size and build mode — the interner's insertion
//! order (and therefore every `Symbol(u32)`) is part of the deterministic
//! contract, not an artifact of scheduling. Every cell is also held to
//! the per-label oracle: each stored skeleton is the label's
//! [`skeleton`], each language id the classifier's, and epoch growth
//! equals a fresh column build of the same rows. The artifact folds the
//! same traversal emits are held to the lookup-per-record oracle in
//! every cell too.

mod common;

use idnre_arena::{CorpusColumns, Symbol};
use idnre_bench::epochs::grow_columns;
use idnre_datagen::{
    column_row, generate_traced, DaySimulator, Ecosystem, EcosystemConfig, EpochCorpus,
    EpochDeltaKind, KeyedCorpus,
};
use idnre_langid::Classifier;
use idnre_telemetry::{NoopRecorder, SpanCtx};
use idnre_unicode::skeleton;

fn config(threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        brand_count: 200,
        threads,
        ..EcosystemConfig::default()
    }
}

/// One build's columns, as the generator's artifact traversal emits them
/// (`None` is the batch build, `Some(n)` the streamed one at `n`-record
/// shards), with the ecosystem and plan they came from.
fn build(threads: usize, shard_size: Option<usize>) -> (Ecosystem, KeyedCorpus, CorpusColumns) {
    generate_traced(&config(threads), shard_size, &NoopRecorder, SpanCtx::NONE)
}

fn assert_identical(a: &CorpusColumns, b: &CorpusColumns, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: record counts differ");
    assert_eq!(
        a.labels().len(),
        b.labels().len(),
        "{what}: distinct label counts differ"
    );
    // Interner determinism: same corpus → same arena, in the same order,
    // so every symbol id means the same string in both builds.
    assert!(
        a.labels().iter().eq(b.labels().iter()),
        "{what}: label arenas diverged"
    );
    assert!(
        a.tlds().iter().eq(b.tlds().iter()),
        "{what}: TLD arenas diverged"
    );
    for i in 0..a.labels().len() {
        let sym = Symbol::from_index(i);
        assert_eq!(
            a.label_skeleton(sym),
            b.label_skeleton(sym),
            "{what}: skeleton of label {i}"
        );
    }
    for i in 0..a.len() {
        assert_eq!(a.sld_symbol(i), b.sld_symbol(i), "{what}: symbol at {i}");
        assert_eq!(a.tld_id(i), b.tld_id(i), "{what}: tld id at {i}");
        assert_eq!(a.lang_id(i), b.lang_id(i), "{what}: lang id at {i}");
        assert_eq!(
            a.is_malicious(i),
            b.is_malicious(i),
            "{what}: malicious bit at {i}"
        );
        assert_eq!(
            a.is_organic(i),
            b.is_organic(i),
            "{what}: organic bit at {i}"
        );
        assert_eq!(
            a.blacklist_bits(i),
            b.blacklist_bits(i),
            "{what}: verdict bits at {i}"
        );
    }
}

/// The per-label oracle: each symbol's stored skeleton is
/// `skeleton(label)`, absent exactly for ASCII labels, and each row's
/// language id is the classifier's verdict on its label.
fn assert_label_facts(columns: &CorpusColumns, what: &str) {
    for (i, label) in columns.labels().iter().enumerate() {
        let stored = columns.label_skeleton(Symbol::from_index(i));
        let expected = (!label.is_ascii()).then(|| skeleton(label));
        assert_eq!(stored, expected.as_deref(), "{what}: skeleton of {label:?}");
    }
    let classifier = Classifier::global();
    for i in 0..columns.len() {
        let label = columns.labels().resolve(columns.sld_symbol(i));
        assert_eq!(
            columns.lang_id(i),
            classifier.classify(label).id(),
            "{what}: lang id of row {i} ({label:?})"
        );
    }
}

/// Grows `columns` over three heavily churned epochs, as an epochs build
/// does, and holds the result to a fresh column build of the same rows:
/// the base records, then the appended tail, with the lagged listings'
/// malicious bits set.
fn assert_growth_matches_a_fresh_build(
    eco: &Ecosystem,
    corpus: &KeyedCorpus,
    columns: &CorpusColumns,
    what: &str,
) {
    let mut grown = columns.clone();
    let mut overlay = EpochCorpus::new(corpus);
    let mut simulator = DaySimulator::new(100, columns);
    let mut listed = Vec::new();
    for epoch in 1..=3 {
        let deltas = simulator.advance(&mut overlay, epoch, &grown);
        grow_columns(&mut grown, &overlay, eco, &deltas);
        listed.extend(
            deltas
                .iter()
                .filter(|d| d.kind == EpochDeltaKind::Blacklist)
                .map(|d| d.index as usize),
        );
    }
    assert!(!overlay.appended().is_empty(), "{what}: no epoch appended");

    let mut fresh = CorpusColumns::default();
    corpus.with_idn_shard(0, corpus.idn_len() as usize, &mut |records| {
        for reg in records {
            fresh.push_row(column_row(reg, &eco.blacklist));
        }
    });
    for reg in overlay.appended() {
        fresh.push_row(column_row(reg, &eco.blacklist));
    }
    for index in listed {
        fresh.set_malicious(index, true);
    }
    let what = format!("{what} grown");
    assert_identical(&grown, &fresh, &what);
    assert_label_facts(&grown, &what);
}

/// Same corpus → same columns, for every (threads, shard size) cell of
/// both builds, and every cell's columns hold the per-label oracle. The
/// thread count only parallelizes the per-shard row emission, label facts
/// included; the shard size only decides which rows travel together to
/// the sequential intern loop.
#[test]
fn columns_are_identical_across_threads_and_shards() {
    let (_, _, reference) = build(4, None);
    assert!(reference.len() > 500, "corpus too small to be meaningful");
    assert!(reference.labels().len() > 50);
    for threads in [1usize, 2, 8] {
        for shard_size in [None, Some(7usize), Some(64), Some(1024)] {
            let what = format!("threads={threads} shard_size={shard_size:?}");
            let (eco, corpus, columns) = build(threads, shard_size);
            assert_identical(&reference, &columns, &what);
            assert_label_facts(&columns, &what);
            common::assert_artifact_folds(&eco, &corpus, &what);
            assert_growth_matches_a_fresh_build(&eco, &corpus, &columns, &what);
        }
    }
}
