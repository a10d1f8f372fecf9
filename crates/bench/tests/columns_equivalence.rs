//! Determinism of the struct-of-arrays corpus layout: building
//! [`CorpusColumns`] from the same corpus must yield identical symbol
//! ids, TLD ids, language ids and verdict bits for every worker count,
//! shard size and build mode — the interner's insertion order (and
//! therefore every `Symbol(u32)`) is part of the deterministic contract,
//! not an artifact of scheduling.

use idnre_arena::CorpusColumns;
use idnre_bench::passes;
use idnre_datagen::{generate_traced, EcosystemConfig};
use idnre_telemetry::{NoopRecorder, SpanCtx};

fn config(threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        brand_count: 200,
        threads,
        ..EcosystemConfig::default()
    }
}

/// One build's columns: rows emitted and interned by the generator's
/// artifact traversal (`None` is the batch build, `Some(n)` the streamed
/// one at `n`-record shards), then classified.
fn build(threads: usize, shard_size: Option<usize>) -> CorpusColumns {
    let (_, _, rows) = generate_traced(&config(threads), shard_size, &NoopRecorder, SpanCtx::NONE);
    passes::finish_columns(rows, threads, &NoopRecorder, SpanCtx::NONE)
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

/// Same corpus → same columns, for every (threads, shard size) cell of
/// both builds. The thread count only parallelizes the per-shard row
/// emission and the per-distinct-label language classification; the
/// shard size only decides which rows travel together to the sequential
/// intern loop.
#[test]
fn columns_are_identical_across_threads_and_shards() {
    let reference = build(4, None);
    assert!(reference.len() > 500, "corpus too small to be meaningful");
    assert!(reference.labels().len() > 50);
    for threads in [1usize, 2, 8] {
        for shard_size in [None, Some(7usize), Some(64), Some(1024)] {
            assert_identical(
                &reference,
                &build(threads, shard_size),
                &format!("threads={threads} shard_size={shard_size:?}"),
            );
        }
    }
}
