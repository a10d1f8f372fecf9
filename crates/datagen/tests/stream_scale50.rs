//! Regression grid at the benchmark's trajectory point (scale 50): this
//! corpus volume is where bulk registrants first draw duplicate domains,
//! which desynchronizes any code that assumes one arena slot per record.
//! The scale-500 unit tests never hit that case, so this test pins the
//! streamed planner's record/artifact equivalence at the scale the
//! committed BENCH_pipeline.json snapshot is metered at, and pins that
//! config's dataset fingerprint so the corpus has an oracle independent
//! of any batch-vs-streamed comparison. (EXPERIMENTS.md is `repro all` at
//! the default config, scale 100 and attack scale 1; the
//! `experiments_pin` test in `idnre-bench` pins it.)

use idnre_datagen::{
    dataset_fingerprint, generate_streamed, generate_traced, render_dataset, DerivedZones,
    Ecosystem, EcosystemConfig,
};
use idnre_telemetry::{NoopRecorder, SpanCtx};

/// `idnre-dataset/2` fingerprint of `repro --scale 50` (default seed,
/// attack scale and brand list) — the value `repro --scale 50
/// --dump-dataset PATH all` prints on stderr.
const SCALE50_FINGERPRINT: u64 = 0xa304_79ee_d80c_6bdf;

#[test]
fn scale50_dataset_fingerprint_is_pinned() {
    let config = EcosystemConfig {
        scale: 50,
        ..EcosystemConfig::default()
    };
    let (eco, corpus, _) = generate_traced(&config, None, &NoopRecorder, SpanCtx::NONE);
    let rendered = render_dataset(&eco, &corpus);
    assert_eq!(
        dataset_fingerprint(&rendered),
        SCALE50_FINGERPRINT,
        "scale-50 dataset bytes changed (new fingerprint {:#018x}, {} bytes)",
        dataset_fingerprint(&rendered),
        rendered.len(),
    );
}

#[test]
fn streamed_matches_batch_at_reference_scale() {
    for threads in [1usize, idnre_par::default_threads()] {
        check(threads);
    }
}

fn check(threads: usize) {
    let config = EcosystemConfig {
        scale: 50,
        threads,
        ..EcosystemConfig::default()
    };
    let batch = Ecosystem::generate(&config);
    let (eco, corpus, _) = generate_streamed(&config, 1024, &NoopRecorder);

    assert_eq!(corpus.idn_len(), batch.idn_registrations.len() as u64);
    // The streamed corpus's zones, derived shard by shard in corpus order.
    let mut zones = DerivedZones::derive([]);
    let mut streamed = Vec::new();
    let mut start = 0u64;
    while start < corpus.idn_len() {
        let len = 1024.min(corpus.idn_len() - start) as usize;
        corpus.with_idn_shard(start, len, &mut |records| {
            streamed.extend_from_slice(records);
            zones.append(DerivedZones::derive([records]));
        });
        start += len as u64;
    }
    for (i, (s, b)) in streamed.iter().zip(&batch.idn_registrations).enumerate() {
        assert_eq!(s, b, "IDN record {i} diverged");
    }
    let mut start = 0u64;
    while start < corpus.non_idn_len() {
        let len = 1024.min(corpus.non_idn_len() - start) as usize;
        corpus.with_non_idn_shard(start, len, &mut |records| {
            zones.append(DerivedZones::derive([records]))
        });
        start += len as u64;
    }

    assert_eq!(eco.blacklist, batch.blacklist);
    assert_eq!(eco.whois_facts, batch.whois_facts);
    assert_eq!(zones, batch.derive_zones());
    // The streamed build's dump renders from its regenerated shards.
    assert_eq!(
        dataset_fingerprint(&render_dataset(&eco, &corpus)),
        SCALE50_FINGERPRINT
    );
}
