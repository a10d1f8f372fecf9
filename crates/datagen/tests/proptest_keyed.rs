//! Property tests for the keyed counter-based generation pipeline
//! (`idnre-dataset/2`): schedule independence and window stability.
//!
//! The oracle in both cases is the sequential keyed path (`threads == 1`
//! runs inline, with no worker threads at all), so these tests pin the
//! parallel fan-out to the exact bytes a single-threaded pass produces —
//! not merely to "some deterministic output".

use idnre_datagen::{
    generate_streamed, generate_traced, render_dataset, Ecosystem, EcosystemConfig,
};
use idnre_telemetry::{NoopRecorder, SpanCtx};
use proptest::prelude::*;

/// A configuration small enough to generate dozens of times per test run
/// while still exercising every stage (bulk, ordinary, attacks, WHOIS,
/// pDNS, certificates, zones).
fn config(seed: u64, threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        seed,
        scale: 3000,
        attack_scale: 60,
        threads,
        ..EcosystemConfig::default()
    }
}

/// The rendered dataset of `config`'s batch build.
fn render(config: &EcosystemConfig) -> String {
    let (eco, corpus, _) = generate_traced(config, None, &NoopRecorder, SpanCtx::NONE);
    render_dataset(&eco, &corpus)
}

/// A window of `len` records (at most) starting `start_frac` of the way
/// into a population of `total`.
fn window(total: u64, start_frac: f64, len: usize) -> (u64, usize) {
    let start = ((total as f64 * start_frac) as u64).min(total.saturating_sub(1));
    (start, len.min((total - start) as usize))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (a) Parallel generation is byte-identical to the sequential keyed
    /// path for any worker count: the rendered dataset — every
    /// registration, attack, WHOIS record, aggregate, certificate and
    /// zone byte — survives `cmp` across thread counts. The executor
    /// derives its steal-unit size from the thread count, so sweeping
    /// widely different worker counts also varies the chunk boundaries
    /// across every record.
    #[test]
    fn dataset_bytes_are_thread_count_invariant(seed in 0u64..1_000_000, threads in 2usize..33) {
        let sequential = render(&config(seed, 1));
        let parallel = render(&config(seed, threads));
        prop_assert_eq!(sequential, parallel);
    }

    /// (b) Window stability: regenerating any window `[start, start +
    /// len)` of either population equals that slice of a full
    /// regeneration. Each record's randomness is keyed by `(seed, stage,
    /// index)`, never by which records precede it in the call or how
    /// many draws they consumed; the streamed scan and the epoch overlay
    /// regenerate shards this way.
    #[test]
    fn regenerated_windows_equal_slices_of_the_full_corpus(
        seed in 0u64..1_000_000,
        idn_at in 0.0f64..1.0,
        non_idn_at in 0.0f64..1.0,
        len in 1usize..200,
    ) {
        let full = Ecosystem::generate(&config(seed, 1));
        let (_, corpus, _) = generate_streamed(&config(seed, 4), 64, &NoopRecorder);
        prop_assert_eq!(corpus.idn_len(), full.idn_registrations.len() as u64);
        prop_assert_eq!(corpus.non_idn_len(), full.non_idn_registrations.len() as u64);

        let (start, n) = window(corpus.idn_len(), idn_at, len);
        let mut shard = Vec::new();
        corpus.with_idn_shard(start, n, &mut |records| shard.extend_from_slice(records));
        prop_assert_eq!(&shard[..], &full.idn_registrations[start as usize..start as usize + n]);

        let (start, n) = window(corpus.non_idn_len(), non_idn_at, len);
        let mut shard = Vec::new();
        corpus.with_non_idn_shard(start, n, &mut |records| shard.extend_from_slice(records));
        prop_assert_eq!(
            &shard[..],
            &full.non_idn_registrations[start as usize..start as usize + n]
        );
    }
}
