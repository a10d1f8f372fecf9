//! Canonical dataset serialization: the byte-level identity oracle.
//!
//! [`render_dataset`] flattens a generated [`Ecosystem`] and the
//! [`KeyedCorpus`] it was generated with into one deterministic text
//! artifact. Two renders are byte-identical iff the ecosystems are
//! semantically identical, which is what the CI bench-smoke job and the
//! schedule-independence proptests diff across thread counts: `cmp` on
//! this artifact catches any stage whose output leaks scheduling order.
//!
//! # Schema
//!
//! The `idnre-dataset/2` version marks the keyed counter-based RNG
//! (DESIGN.md §8). Version 1 was the implicit byte stream of the old
//! sequential `StdRng` pipeline; the switch to per-record keyed streams
//! was a one-time versioned break of every generated byte. The header
//! records the generation parameters that determine the bytes —
//! deliberately **excluding** `threads`, which must never affect them.

use crate::ecosystem::{DerivedZones, Ecosystem};
use crate::stream::KeyedCorpus;
use idnre_pdns::PdnsStore;

/// Schema tag on the first line of every rendered dataset.
pub const DATASET_SCHEMA: &str = "idnre-dataset/2";

/// Renders `eco` and its `corpus` to the canonical text form (schema
/// [`DATASET_SCHEMA`]).
///
/// Sections appear in pipeline order; collections without an inherent
/// order (the pDNS store) are sorted by domain. Record lines use the
/// stable `Debug` forms of the underlying types.
///
/// The registrations, their artifacts (WHOIS, pDNS, certificates) and the
/// zones come from one walk of the corpus's regenerated shards
/// ([`KeyedCorpus::for_each_shard`], [`DerivedZones::derive`]), so a
/// batch and a streamed build render the same bytes.
pub fn render_dataset(eco: &Ecosystem, corpus: &KeyedCorpus) -> String {
    let mut out = String::new();
    let config = &eco.config;
    out.push_str(DATASET_SCHEMA);
    out.push('\n');
    out.push_str(&format!(
        "seed={:#x} scale={} attack_scale={} snapshot={} non_idn_sample={} brand_count={}\n",
        config.seed,
        config.scale,
        config.attack_scale,
        config.snapshot,
        config.non_idn_sample,
        config.brand_count,
    ));

    let mut whois = Vec::new();
    let mut pdns = PdnsStore::new();
    let mut certificates = Vec::new();
    let mut zones = DerivedZones::derive([]);
    for (idn, name, len) in [
        (true, "idn_registrations", corpus.idn_len()),
        (false, "non_idn_registrations", corpus.non_idn_len()),
    ] {
        section(&mut out, name, len as usize);
        corpus.for_each_shard(idn, &mut |records, artifacts| {
            for reg in records {
                out.push_str(&format!("{reg:?}\n"));
            }
            whois.extend(artifacts.whois.iter().map(|record| format!("{record:?}\n")));
            pdns.extend(artifacts.aggregates);
            certificates.extend(
                artifacts
                    .certificates
                    .into_iter()
                    .map(|(reg, cert)| format!("{} {cert:?}\n", reg.domain)),
            );
            zones.append(DerivedZones::derive([records]));
        });
    }

    for (name, attacks) in [
        ("homograph_attacks", &eco.homograph_attacks),
        ("semantic_attacks", &eco.semantic_attacks),
        ("semantic2_attacks", &eco.semantic2_attacks),
    ] {
        section(&mut out, name, attacks.len());
        for attack in attacks {
            out.push_str(&format!("{attack:?}\n"));
        }
    }

    section(&mut out, "whois", whois.len());
    for line in whois {
        out.push_str(&line);
    }

    let mut aggregates: Vec<String> = pdns.iter().map(|agg| format!("{agg:?}")).collect();
    aggregates.sort_unstable();
    section(&mut out, "pdns", aggregates.len());
    for line in aggregates {
        out.push_str(&line);
        out.push('\n');
    }

    section(&mut out, "certificates", certificates.len());
    for line in certificates {
        out.push_str(&line);
    }

    section(&mut out, "blacklist", eco.blacklist.union_count());
    out.push_str(&format!("{:?}\n", eco.blacklist));

    section(&mut out, "zones", zones.zones.len());
    for zone in &zones.zones {
        out.push_str(&idnre_zonefile::write_zone(zone));
    }

    out
}

/// FNV-1a 64-bit hash of a rendered dataset — the compact fingerprint the
/// golden-snapshot test pins and the bench sweep reports.
pub fn dataset_fingerprint(rendered: &str) -> u64 {
    idnre_arena::fnv1a(rendered.as_bytes())
}

fn section(out: &mut String, name: &str, count: usize) {
    out.push_str(&format!("[{name} {count}]\n"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcosystemConfig;
    use crate::stream::generate_traced;
    use idnre_telemetry::{NoopRecorder, SpanCtx};

    fn small_config() -> EcosystemConfig {
        EcosystemConfig {
            scale: 2000,
            attack_scale: 50,
            ..EcosystemConfig::default()
        }
    }

    /// The dataset of `config`'s batch build (`None`) or streamed build
    /// (`Some(n)`, `n`-record shards).
    fn render(config: &EcosystemConfig, shard_size: Option<usize>) -> String {
        let (eco, corpus, _) = generate_traced(config, shard_size, &NoopRecorder, SpanCtx::NONE);
        render_dataset(&eco, &corpus)
    }

    #[test]
    fn render_is_deterministic_and_versioned() {
        let (eco, corpus, _) = generate_traced(&small_config(), None, &NoopRecorder, SpanCtx::NONE);
        let a = render_dataset(&eco, &corpus);
        let b = render_dataset(&eco, &corpus);
        assert_eq!(a, b);
        assert!(a.starts_with("idnre-dataset/2\n"));
        assert!(a.contains("[idn_registrations "));
        assert!(a.contains("[zones "));
    }

    #[test]
    fn header_excludes_threads() {
        // The dataset bytes must be a pure function of the generation
        // parameters — `threads` is scheduling, not content.
        let one = render(
            &EcosystemConfig {
                threads: 1,
                ..small_config()
            },
            None,
        );
        let eight = render(
            &EcosystemConfig {
                threads: 8,
                ..small_config()
            },
            None,
        );
        assert_eq!(one, eight);
    }

    /// The render walks the corpus's shards, which both builds return: a
    /// streamed build renders the batch build's bytes at any shard size.
    #[test]
    fn streamed_builds_render_the_batch_bytes() {
        let batch = render(&small_config(), None);
        for shard_size in [7, 1024] {
            assert_eq!(render(&small_config(), Some(shard_size)), batch);
        }
    }

    #[test]
    fn fingerprint_tracks_content() {
        let other = EcosystemConfig {
            seed: 7,
            ..small_config()
        };
        assert_ne!(
            dataset_fingerprint(&render(&small_config(), None)),
            dataset_fingerprint(&render(&other, None))
        );
        assert_eq!(dataset_fingerprint(""), 0xCBF2_9CE4_8422_2325);
    }

    /// Golden snapshot for `idnre-dataset/2`: pins the exact bytes the
    /// keyed pipeline generates for a fixed config. Any change to key
    /// derivation, stage numbering, draw order, or serialization shows up
    /// here and requires a deliberate schema bump.
    #[test]
    fn golden_snapshot_v2() {
        let rendered = render(&small_config(), None);
        assert_eq!(
            dataset_fingerprint(&rendered),
            GOLDEN_V2_FINGERPRINT,
            "idnre-dataset/2 bytes changed; if intended, bump the schema \
             and update this snapshot (new fingerprint: {:#018x}, {} bytes)",
            dataset_fingerprint(&rendered),
            rendered.len(),
        );
    }

    const GOLDEN_V2_FINGERPRINT: u64 = 0xFFBA_B908_2787_75D0;
}
