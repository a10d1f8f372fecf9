//! Every IDN record a scan can observe carries its display form:
//! `to_unicode(reg.domain) == Ok(reg.unicode)`. The semantic passes read
//! `reg.unicode` instead of decoding `reg.domain`, so this is the premise
//! that keeps their findings and counters equal to a decode per record.
//! It is checked on each corpus a scan reads: the batch build, the
//! streamed build's regenerated shards at two shard sizes, and an epoch
//! overlay after days that add, expire and re-register names.

use idnre_datagen::{
    generate_streamed, DaySimulator, DomainRegistration, Ecosystem, EcosystemConfig, EpochCorpus,
    EpochDeltaKind, KeyedCorpus,
};
use idnre_telemetry::NoopRecorder;

/// Asserts the premise on each record; returns how many were checked.
fn check_records(records: &[DomainRegistration], what: &str) -> u64 {
    for reg in records {
        assert_eq!(
            idnre_idna::to_unicode(&reg.domain).as_deref(),
            Ok(reg.unicode.as_str()),
            "{what}: display form of {} is not its decoding",
            reg.domain
        );
    }
    records.len() as u64
}

/// Walks the streamed corpus in `shard_size` shards.
fn check_streamed(corpus: &KeyedCorpus, shard_size: usize) -> u64 {
    let what = format!("streamed shard {shard_size}");
    let mut checked = 0;
    let mut start = 0;
    while start < corpus.idn_len() {
        let len = shard_size.min((corpus.idn_len() - start) as usize);
        corpus.with_idn_shard(start, len, &mut |records| {
            checked += check_records(records, &what);
        });
        start += len as u64;
    }
    checked
}

/// Walks the epoch overlay in `shard_size` shards.
fn check_overlay(overlay: &EpochCorpus<'_>, shard_size: usize, epoch: u64) -> u64 {
    let what = format!("epoch {epoch}");
    let mut checked = 0;
    let mut start = 0;
    while start < overlay.idn_index_space() {
        overlay.with_idn_shard_indexed(start, shard_size, &mut |records, _| {
            checked += check_records(records, &what);
        });
        start += shard_size as u64;
    }
    checked
}

fn check(config: EcosystemConfig) {
    let batch = Ecosystem::generate(&config);
    let total = check_records(&batch.idn_registrations, "batch");
    assert!(total > 0);

    for shard_size in [7, 64] {
        let (_, corpus, columns) = generate_streamed(&config, shard_size, &NoopRecorder);
        assert_eq!(check_streamed(&corpus, shard_size), total);
        if shard_size != 64 {
            continue;
        }
        let mut overlay = EpochCorpus::new(&corpus);
        let mut days = DaySimulator::new(20, &columns);
        let mut reregistered = 0;
        for epoch in 1..=3 {
            let deltas = days.advance(&mut overlay, epoch, &columns);
            reregistered += deltas
                .iter()
                .filter(|d| d.kind == EpochDeltaKind::Reregister)
                .count();
            assert_eq!(
                check_overlay(&overlay, shard_size, epoch),
                overlay.live_idn_len()
            );
        }
        assert!(reregistered > 0, "no re-registration was simulated");
        assert!(!overlay.appended().is_empty(), "no registration was added");
    }
}

#[test]
fn display_forms_decode_at_scale_50() {
    check(EcosystemConfig {
        scale: 50,
        ..EcosystemConfig::default()
    });
}

#[test]
fn display_forms_decode_at_scale_2000_with_attacks() {
    check(EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        ..EcosystemConfig::default()
    });
}
