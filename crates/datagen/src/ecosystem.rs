//! Ecosystem assembly: generates registrations, WHOIS coverage,
//! passive-DNS aggregates, certificates, blacklist feeds and the injected
//! attack populations, and derives the zone files on demand.
//!
//! # Keyed generation
//!
//! Every record's randomness is a pure function of
//! `(config.seed, stage, record index)` via the counter-based streams of
//! [`idnre_rng`]: no stage shares a sequential RNG with any other, so
//! every RNG-bearing stage fans out on the work-queue executor and the
//! output is byte-identical for every thread count (the
//! `idnre-dataset/2` schedule-independence contract, DESIGN.md §8).
//!
//! Both builds run one generator ([`crate::stream::generate_traced`]):
//! stages 1–5 (registrations, dedup, blacklist, attack injection, the
//! non-IDN sample) run once in the corpus planner, and one per-shard
//! traversal regenerates every planned record once and derives stages
//! 6–8 from it through the per-record emitters below (WHOIS, pDNS,
//! certificates), plus each IDN record's [`column_row`]. The batch build
//! keeps the regenerated records in the resident vectors; the streamed
//! build drops them.
//!
//! No report reads a zone record, so the generator emits none. The zone
//! files are derived on demand by [`DerivedZones::derive`], from record
//! slices in corpus order, by the few callers that read them: the
//! dataset renderer and the faulted surveys' lenient ingest.

use crate::attacks::AttackDomain;
use crate::brands::BrandList;
use crate::config::{EcosystemConfig, TABLE_I};
use crate::content;
use crate::folds::{CertificateTally, PopulationActivity};
use crate::hosting::HostingProfile;
use crate::registration::{
    sample_creation_date, sample_malicious_creation_date, sample_registrant, sample_registrar,
    DomainRegistration, MaliciousKind,
};
use crate::stream;
use idnre_arena::ColumnRow;
use idnre_blacklist::{BlacklistSet, Source};
use idnre_certs::Certificate;
use idnre_crawler::UsageCategory;
use idnre_langid::{Classifier, Language};
use idnre_pdns::{DomainAggregate, PdnsStore, PopulationClass, TrafficModel};
use idnre_rng::Key;
use idnre_telemetry::{NoopRecorder, SpanCtx};
use idnre_whois::{WhoisDialect, WhoisRecord};
use idnre_zonefile::{RData, ResourceRecord, Zone};
use rand::Rng;

/// A fully generated synthetic ecosystem.
#[derive(Debug, Clone)]
pub struct Ecosystem {
    /// The configuration it was generated from.
    pub config: EcosystemConfig,
    /// The brand target list.
    pub brands: BrandList,
    /// All IDN registrations, including the injected attack populations.
    pub idn_registrations: Vec<DomainRegistration>,
    /// The sampled non-IDN comparison population.
    pub non_idn_registrations: Vec<DomainRegistration>,
    /// Ground truth: injected homographic IDNs.
    pub homograph_attacks: Vec<AttackDomain>,
    /// Ground truth: injected Type-1 semantic IDNs.
    pub semantic_attacks: Vec<AttackDomain>,
    /// Ground truth: injected Type-2 (translated-brand) semantic IDNs.
    pub semantic2_attacks: Vec<AttackDomain>,
    /// WHOIS records (coverage-limited, like the real crawl).
    pub whois: Vec<WhoisRecord>,
    /// Passive-DNS aggregates.
    pub pdns: PdnsStore,
    /// Figures 2–4's activity populations, folded from the pDNS
    /// aggregates as they were emitted.
    pub activity: PopulationActivity,
    /// Tables VI–VII's tallies of the certificates HTTPS-enabled domains
    /// serve, folded as they were emitted. The certificates are not kept:
    /// [`crate::KeyedCorpus::certificates`] regenerates them.
    pub certificate_tally: CertificateTally,
    /// The aggregated URL blacklist.
    pub blacklist: BlacklistSet,
}

impl Ecosystem {
    /// Generates the full ecosystem from `config`. Deterministic in
    /// `config.seed`; byte-identical for every `config.threads`. Shorthand
    /// for the batch build of [`crate::generate_traced`].
    pub fn generate(config: &EcosystemConfig) -> Self {
        stream::generate_traced(config, None, &NoopRecorder, SpanCtx::NONE).0
    }

    /// The zone files of the resident registration vectors:
    /// [`DerivedZones::derive`] over the IDNs, then the non-IDNs. Needs a
    /// batch build. A streamed build leaves the vectors empty, so this
    /// returns zones without records for it; derive from the shards of its
    /// [`crate::KeyedCorpus`] instead.
    pub fn derive_zones(&self) -> DerivedZones {
        DerivedZones::derive([&self.idn_registrations[..], &self.non_idn_registrations[..]])
    }

    /// Looks up a registration by ACE domain.
    pub fn registration(&self, domain: &str) -> Option<&DomainRegistration> {
        self.idn_registrations
            .iter()
            .chain(&self.non_idn_registrations)
            .find(|r| r.domain == domain)
    }
}

/// The domain-construction prefix of an IDN record's keyed stream: the
/// decorative confusable pick (ASCII labels only) and one IDNA conversion
/// to the ACE and display forms; `None` when the label fails IDNA
/// validation (rare). Split from [`finish_idn`] so the corpus planner can
/// decide record survival from exactly the stream positions regeneration
/// consumes — any draw-order divergence here breaks the `idnre-dataset/2`
/// golden fingerprint.
pub(crate) fn draw_idn_domain<R: Rng + ?Sized>(
    rng: &mut R,
    label: &str,
    tld: &str,
) -> Option<(String, String)> {
    // Labels that come out pure-ASCII (English vocabulary) get a decorative
    // diacritic so the domain is a genuine IDN — mirroring the squatting
    // registrations observed under Latin scripts.
    let mut unicode_sld = label.to_string();
    if unicode_sld.is_ascii() {
        unicode_sld = decorate_ascii(rng, &unicode_sld)?;
    }
    // The display form is `to_unicode` of the ACE form, so it decodes an
    // ACE TLD (iTLDs) too.
    idnre_idna::to_ascii_and_unicode(&format!("{unicode_sld}.{tld}")).ok()
}

/// The record-body suffix of an IDN record's keyed stream, continuing on
/// the same RNG after [`draw_idn_domain`].
pub(crate) fn finish_idn<R: Rng + ?Sized>(
    rng: &mut R,
    config: &EcosystemConfig,
    domain: String,
    unicode: String,
    language: Language,
    tld: &str,
    email: Option<String>,
) -> DomainRegistration {
    let content = content::sample_idn(rng);
    let hosting = HostingProfile::sample(rng, content);
    let privacy = email.is_none();
    DomainRegistration {
        domain,
        unicode,
        tld: tld.to_string(),
        language,
        created: sample_creation_date(rng, config.snapshot),
        registrar: sample_registrar(rng),
        registrant_email: email,
        privacy,
        malicious: None,
        content,
        // Paper: certificates retrieved from 4.55% of IDNs.
        https: hosting.is_some() && rng.gen_ratio(91, 1000),
        hosting,
    }
}

/// Replaces one character of a pure-ASCII label with a High-fidelity
/// confusable so it becomes an IDN.
fn decorate_ascii<R: Rng + ?Sized>(rng: &mut R, label: &str) -> Option<String> {
    let chars: Vec<char> = label.chars().collect();
    let candidates: Vec<usize> = (0..chars.len())
        .filter(|&i| !idnre_unicode::homoglyphs_of(chars[i]).is_empty())
        .collect();
    // Fail before drawing: an undecoratable label must not consume stream
    // positions that a decoratable one would spend on the pick itself.
    if candidates.is_empty() {
        return None;
    }
    let pos = candidates[rng.gen_range(0..candidates.len())];
    let glyphs = idnre_unicode::homoglyphs_of(chars[pos]);
    let pick = glyphs[rng.gen_range(0..glyphs.len())];
    let mut out = chars;
    out[pos] = pick.ch;
    Some(out.into_iter().collect())
}

pub(crate) fn build_non_idn<R: Rng + ?Sized>(
    rng: &mut R,
    config: &EcosystemConfig,
    index: u64,
    tld: &str,
) -> DomainRegistration {
    let sld = format!("{}{}", pronounceable(rng), index);
    let (email, privacy) = sample_registrant(rng, index);
    let content = content::sample_non_idn(rng);
    let hosting = HostingProfile::sample(rng, content);
    DomainRegistration {
        domain: format!("{sld}.{tld}"),
        unicode: format!("{sld}.{tld}"),
        tld: tld.to_string(),
        language: Language::English,
        created: sample_creation_date(rng, config.snapshot),
        registrar: sample_registrar(rng),
        registrant_email: email,
        privacy,
        malicious: None,
        content,
        // Paper: certificates from 2.92% of non-IDNs.
        https: hosting.is_some() && rng.gen_ratio(58, 1000),
        hosting,
    }
}

fn pronounceable<R: Rng + ?Sized>(rng: &mut R) -> String {
    const CONSONANTS: &[u8] = b"bcdfghklmnprstvwz";
    const VOWELS: &[u8] = b"aeiou";
    let mut out = String::new();
    for _ in 0..rng.gen_range(2..4) {
        out.push(CONSONANTS[rng.gen_range(0..CONSONANTS.len())] as char);
        out.push(VOWELS[rng.gen_range(0..VOWELS.len())] as char);
    }
    out
}

/// The two rolls that open an attack's keyed stream: whether the attack
/// is blacklisted (`per_mille`) and whether Qihoo 360 lists it too. The
/// planner draws only these; [`attack_registration`] replays them before
/// the record body.
pub(crate) fn attack_rolls<R: Rng + ?Sized>(rng: &mut R, per_mille: u32) -> (bool, bool) {
    let blacklisted = rng.gen_ratio(per_mille, 1000);
    let qihoo_too = rng.gen_ratio(1, 3);
    (blacklisted, qihoo_too)
}

/// One attack's registration, on the keyed stream [`attack_rolls`] opens.
pub(crate) fn attack_registration<R: Rng + ?Sized>(
    rng: &mut R,
    config: &EcosystemConfig,
    attack: &AttackDomain,
    kind: MaliciousKind,
    per_mille: u32,
) -> DomainRegistration {
    let tld = attack
        .domain
        .rsplit('.')
        .next()
        .unwrap_or("com")
        .to_string();
    let (blacklisted, _) = attack_rolls(rng, per_mille);
    let (email, privacy) = if attack.protective {
        let brand_sld = attack.target.split('.').next().unwrap_or("brand");
        (Some(format!("legal@{brand_sld}.com")), false)
    } else if rng.gen_ratio(1, 6) {
        (
            Some(format!("attacker{}@gmail.com", rng.gen_range(0..500u32))),
            false,
        )
    } else {
        (None, true)
    };
    let content = content::sample_idn(rng);
    let hosting = HostingProfile::sample(rng, content);
    DomainRegistration {
        domain: attack.domain.clone(),
        unicode: attack.unicode.clone(),
        tld,
        language: Language::Unknown,
        created: sample_malicious_creation_date(rng, config.snapshot),
        registrar: sample_registrar(rng),
        registrant_email: email,
        privacy,
        malicious: blacklisted.then_some(kind),
        content,
        https: hosting.is_some() && rng.gen_ratio(91, 1000),
        hosting,
    }
}

/// One registration's WHOIS emission: the coverage roll and (when covered)
/// the record body, on the stream keyed by corpus position `i`, so it
/// does not depend on any other record's coverage.
pub(crate) fn whois_record_for(key: Key, i: u64, reg: &DomainRegistration) -> Option<WhoisRecord> {
    let coverage = TABLE_I
        .iter()
        .find(|spec| spec.tld == reg.tld)
        .map(|spec| spec.declared_whois as f64 / spec.declared_idns as f64)
        .unwrap_or(0.5);
    let mut rng = key.record(i).rng();
    if !rng.gen_bool(coverage.clamp(0.0, 1.0)) {
        return None;
    }
    let mut record = WhoisRecord::new(&reg.domain, WhoisDialect::KeyValue);
    record.registrar = Some(reg.registrar.clone());
    record.registrant_email = reg.registrant_email.clone();
    record.creation_date = Some(reg.created);
    record.expiry_date = Some(reg.created.plus_days(365));
    record.privacy_protected = reg.privacy;
    record.name_servers = vec![format!("ns1.{}", reg.domain)];
    Some(record)
}

/// One registration's passive-DNS aggregate (`None` when it does not
/// resolve), on the stream keyed by chained corpus position `i` (IDNs
/// first, then non-IDNs).
pub(crate) fn traffic_for(
    key: Key,
    i: u64,
    reg: &DomainRegistration,
    is_idn: bool,
    snapshot_day: i64,
) -> Option<DomainAggregate> {
    if reg.content == UsageCategory::NotResolved {
        return None;
    }
    let class = match (is_idn, reg.malicious) {
        (false, _) => PopulationClass::NonIdn,
        (true, Some(MaliciousKind::Homograph)) => PopulationClass::Homographic,
        (true, Some(MaliciousKind::SemanticType1 | MaliciousKind::SemanticType2)) => {
            PopulationClass::SemanticType1
        }
        (true, Some(_)) => PopulationClass::MaliciousIdn,
        (true, None) => PopulationClass::BenignIdn,
    };
    let mut rng = key.record(i).rng();
    let ip = reg.hosting.as_ref().map(|h| h.assign_ip(&mut rng));
    TrafficModel::for_class(class).sample_aggregate(&mut rng, &reg.domain, snapshot_day, ip)
}

/// The certificate an HTTPS host serves for `reg.domain`, on the stream
/// keyed by chained corpus position `i`, so issuance is independent of
/// every other record's HTTPS flag.
pub(crate) fn certificate_for(
    key: Key,
    i: u64,
    reg: &DomainRegistration,
    snapshot_day: i64,
) -> Option<Certificate> {
    if !reg.https {
        return None;
    }
    let hosting = reg.hosting.as_ref()?;
    let mut rng = key.record(i).rng();
    Some(hosting.issue_certificate(&mut rng, &reg.domain, snapshot_day))
}

/// One registration's delegation record (`None` when its name fails the
/// zone grammar, e.g. an NS owner pushing past the 253-octet limit).
/// RNG-free, so deriving zones moves no keyed stream. Its one caller is
/// [`DerivedZones::derive`], which counts the `None`s as skipped.
fn ns_record_for(reg: &DomainRegistration) -> Option<ResourceRecord> {
    let owner = reg.domain.parse().ok()?;
    let ns = format!("ns1.{}", reg.domain).parse().ok()?;
    Some(ResourceRecord {
        owner,
        ttl: 86_400,
        rdata: RData::Ns(ns),
    })
}

/// Per-TLD zone files derived from registrations: one NS delegation per
/// record, under its Table I origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivedZones {
    /// One zone per Table I origin, in Table I order; records in corpus
    /// order.
    pub zones: Vec<Zone>,
    /// Records that got no NS line: names that fail the zone grammar, plus
    /// records whose TLD has no Table I origin.
    pub skipped: u64,
}

impl DerivedZones {
    /// Derives the zones of `slices`, read in corpus order (the IDN
    /// population, then the non-IDN one). The one zone derivation: every
    /// NS record comes from `ns_record_for`.
    ///
    /// Deriving consecutive windows of the corpus separately and
    /// [appending](DerivedZones::append) the results in window order
    /// equals one pass over the whole corpus, so callers may split the
    /// work over workers or regenerated shards.
    pub fn derive<'a>(slices: impl IntoIterator<Item = &'a [DomainRegistration]>) -> Self {
        let mut zones: Vec<Zone> = TABLE_I
            .iter()
            .filter_map(|spec| spec.tld.parse::<idnre_idna::DomainName>().ok())
            .map(Zone::new)
            .collect();
        let origins: Vec<String> = zones.iter().map(|z| z.origin.to_string()).collect();
        let mut skipped = 0;
        for reg in slices.into_iter().flatten() {
            let origin = origins.iter().position(|tld| *tld == reg.tld);
            match origin.zip(ns_record_for(reg)) {
                Some((origin, record)) => zones[origin].records.push(record),
                None => skipped += 1,
            }
        }
        DerivedZones { zones, skipped }
    }

    /// Appends the zones derived from the window that follows this one.
    pub fn append(&mut self, next: DerivedZones) {
        for (zone, next) in self.zones.iter_mut().zip(next.zones) {
            zone.records.extend(next.records);
        }
        self.skipped += next.skipped;
    }
}

/// One IDN registration's column row: its Unicode SLD label with the
/// label's classifier language id and confusable skeleton (`None` for an
/// ASCII label), its TLD, malicious and organic bits, and per-source
/// blacklist verdict. The one place a label's facts are derived: the
/// artifact traversal calls it on its workers, and epoch growth for each
/// appended record, so every column build derives the same row from a
/// record.
pub fn column_row<'r>(reg: &'r DomainRegistration, blacklist: &BlacklistSet) -> ColumnRow<'r> {
    let sld = &reg.unicode[..reg.unicode.find('.').unwrap_or(reg.unicode.len())];
    let verdict = blacklist.verdict(&reg.domain);
    ColumnRow {
        sld,
        tld: &reg.tld,
        lang: Classifier::global().classify(sld).id(),
        skeleton: (!sld.is_ascii()).then(|| idnre_unicode::skeleton(sld).into()),
        malicious: reg.malicious.is_some(),
        organic: reg.language != Language::Unknown,
        vt: verdict.contains(&Source::VirusTotal),
        q: verdict.contains(&Source::Qihoo360),
        b: verdict.contains(&Source::Baidu),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> EcosystemConfig {
        EcosystemConfig {
            scale: 500,
            attack_scale: 10,
            ..EcosystemConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = small_config();
        let a = Ecosystem::generate(&config);
        let b = Ecosystem::generate(&config);
        assert_eq!(a.idn_registrations, b.idn_registrations);
        assert_eq!(a.certificate_tally, b.certificate_tally);
        assert_eq!(a.blacklist, b.blacklist);
    }

    #[test]
    fn recorded_generation_is_identical_and_observable() {
        let config = small_config();
        let registry = idnre_telemetry::Registry::new();
        let plain = Ecosystem::generate(&config);
        let (recorded, _, _) = stream::generate_traced(&config, None, &registry, SpanCtx::NONE);
        // Telemetry must not perturb the RNG stream.
        assert_eq!(plain.idn_registrations, recorded.idn_registrations);
        assert_eq!(plain.non_idn_registrations, recorded.non_idn_registrations);
        assert_eq!(plain.blacklist, recorded.blacklist);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["datagen.stream.plan", "datagen.stream.artifacts"],
            "one span per generation phase"
        );
        for stage in &snapshot.stages {
            assert_eq!(stage.calls, 1, "{}", stage.name);
            assert!(stage.records > 0, "{} recorded nothing", stage.name);
        }
    }

    #[test]
    fn generation_is_thread_count_invariant() {
        let one = Ecosystem::generate(&EcosystemConfig {
            threads: 1,
            ..small_config()
        });
        for threads in [2, 8] {
            let many = Ecosystem::generate(&EcosystemConfig {
                threads,
                ..small_config()
            });
            assert_eq!(one.idn_registrations, many.idn_registrations);
            assert_eq!(one.non_idn_registrations, many.non_idn_registrations);
            assert_eq!(one.whois, many.whois);
            assert_eq!(one.blacklist, many.blacklist);
            assert_eq!(one.activity, many.activity);
            assert_eq!(one.certificate_tally, many.certificate_tally);
            let (one_zones, many_zones) = (one.derive_zones(), many.derive_zones());
            assert_eq!(one_zones, many_zones, "zones diverged at {threads} threads");
            assert_eq!(
                one_zones
                    .zones
                    .iter()
                    .map(idnre_zonefile::write_zone)
                    .collect::<String>(),
                many_zones
                    .zones
                    .iter()
                    .map(idnre_zonefile::write_zone)
                    .collect::<String>(),
                "rendered zone bytes diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Ecosystem::generate(&small_config());
        let b = Ecosystem::generate(&EcosystemConfig {
            seed: 999,
            ..small_config()
        });
        assert_ne!(a.idn_registrations, b.idn_registrations);
    }

    #[test]
    fn idn_population_is_all_idn() {
        let eco = Ecosystem::generate(&small_config());
        for reg in &eco.idn_registrations {
            assert!(idnre_idna::is_idn(&reg.domain), "{}", reg.domain);
        }
        for reg in &eco.non_idn_registrations {
            assert!(!idnre_idna::is_idn(&reg.domain), "{}", reg.domain);
        }
    }

    #[test]
    fn no_duplicate_domains() {
        let eco = Ecosystem::generate(&small_config());
        let mut seen = std::collections::HashSet::new();
        for reg in &eco.idn_registrations {
            assert!(seen.insert(&reg.domain), "duplicate {}", reg.domain);
        }
    }

    #[test]
    fn blacklist_and_malicious_flags_agree() {
        let eco = Ecosystem::generate(&small_config());
        for reg in &eco.idn_registrations {
            if reg.malicious.is_some() {
                assert!(
                    eco.blacklist.is_malicious(&reg.domain),
                    "{} flagged but not blacklisted",
                    reg.domain
                );
            }
        }
        assert!(eco.blacklist.union_count() > 0);
    }

    #[test]
    fn attack_ground_truth_is_registered() {
        let eco = Ecosystem::generate(&small_config());
        for attack in eco.homograph_attacks.iter().take(20) {
            assert!(
                eco.registration(&attack.domain).is_some(),
                "{} not registered",
                attack.domain
            );
        }
    }

    #[test]
    fn whois_coverage_is_partial() {
        let eco = Ecosystem::generate(&small_config());
        let coverage = eco.whois.len() as f64 / eco.idn_registrations.len() as f64;
        assert!(
            (0.25..0.75).contains(&coverage),
            "whois coverage {coverage}"
        );
    }

    #[test]
    fn zones_scan_back_to_the_population() {
        let eco = Ecosystem::generate(&small_config());
        let scanner = idnre_zonefile::ZoneScanner::new();
        let report = scanner.scan_all(&eco.derive_zones().zones);
        let scanned_idns = report.total_idns();
        let expected = eco.idn_registrations.len();
        // Zone scan recovers the registered IDN population exactly.
        assert_eq!(scanned_idns, expected);
    }

    #[test]
    fn https_rates_are_low() {
        let eco = Ecosystem::generate(&small_config());
        let https = eco.idn_registrations.iter().filter(|r| r.https).count();
        let rate = https as f64 / eco.idn_registrations.len() as f64;
        assert!((0.01..0.12).contains(&rate), "https rate {rate}");
        assert_eq!(
            eco.certificate_tally.total() as usize,
            eco.idn_registrations
                .iter()
                .chain(&eco.non_idn_registrations)
                .filter(|r| r.https && r.hosting.is_some())
                .count()
        );
    }

    #[test]
    fn pdns_contains_traffic_for_both_populations() {
        let eco = Ecosystem::generate(&small_config());
        assert!(!eco.pdns.is_empty());
        let idn_hits = eco
            .idn_registrations
            .iter()
            .filter(|r| eco.pdns.lookup(&r.domain).is_some())
            .count();
        assert!(idn_hits > eco.idn_registrations.len() / 4);
    }
}
