//! The one generator: plan once, regenerate any shard on demand.
//!
//! `plan` is the one implementation of generation stages 1–5 (bulk
//! registrations, the ordinary dedup ladder, blacklist assignment, attack
//! injection, the non-IDN sample). It draws only the randomness that
//! decides which records exist and which are flagged, and compacts the
//! result into a `Recipe` table of a few bytes per record plus the
//! blacklist. Because every record's randomness is a pure function of
//! `(seed, stage, record index)`, a [`KeyedCorpus`] regenerates shard `k`
//! byte-identically whenever it is asked for, in any order, from any
//! thread.
//!
//! [`generate_traced`] is the one implementation of stages 6–8 and of the
//! IDN corpus columns. After the plan, one fused traversal regenerates
//! each shard once and emits its WHOIS, pDNS and certificates and, for IDN
//! shards, each record's [`column_row`] (with its label's language id and
//! skeleton), which the calling thread interns. It folds every artifact
//! into its report aggregates as it emits it ([`crate::WhoisFacts`],
//! [`crate::PopulationActivity`], [`crate::CertificateTally`]) and keeps
//! none: the reports that join a finding to its artifacts regenerate them
//! by record index ([`KeyedCorpus::whois_record`],
//! [`KeyedCorpus::pdns_aggregate`]). It emits no zone records: no report
//! reads them, and the callers that do derive them on demand
//! ([`crate::DerivedZones`]). The batch build
//! ([`crate::Ecosystem::generate`]) keeps each regenerated shard in the
//! registration vectors; the streamed build ([`generate_streamed`]) drops
//! it, so registrations exist only as the plan.
//!
//! Peak registration residency of the streamed build is
//! `shard_size × workers`, tracked by a shared [`Gauge`] and reported as
//! the `datagen.peak_resident_records` gauge (level + peak) in the metrics
//! snapshot.

use crate::attacks::{self, AttackDomain};
use crate::brands::BrandList;
use crate::config::{EcosystemConfig, TABLE_I};
use crate::ecosystem::{
    attack_registration, attack_rolls, build_non_idn, certificate_for, column_row, draw_idn_domain,
    finish_idn, traffic_for, whois_record_for, Ecosystem,
};
use crate::folds::{CertificateTally, PopulationActivity, WhoisTally};
use crate::labels;
use crate::registration::{
    sample_malicious_creation_date, sample_registrant, themed_label, BulkTheme, DomainRegistration,
    MaliciousKind, BULK_REGISTRANTS,
};
use idnre_arena::{ColumnRows, CorpusColumns, Interner, Symbol};
use idnre_blacklist::{BlacklistSet, Source};
use idnre_certs::{Certificate, Validator};
use idnre_langid::Language;
use idnre_pdns::{DomainAggregate, PdnsStore};
use idnre_rng::{Key, StageId};
use idnre_telemetry::{Gauge, Recorder, SpanCtx};
use idnre_whois::{Date, WhoisRecord};
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Gauge name of the peak-residency level.
pub const PEAK_RESIDENT_RECORDS: &str = "datagen.peak_resident_records";

/// Counter name of [`KeyedCorpus::shards_regenerated`].
pub const SHARDS_REGENERATED: &str = "datagen.stream.shards_regenerated";

/// A certificate next to the record whose host serves it, as
/// [`KeyedCorpus::for_each_shard`] hands them out.
pub type ServedCertificate<'r> = (&'r DomainRegistration, Certificate);

/// The artifacts of one shard of the corpus, emitted as the artifact
/// traversal emits them and handed out by [`KeyedCorpus::for_each_shard`].
#[derive(Debug)]
pub struct ShardArtifacts<'r> {
    /// The WHOIS records of the shard's covered records, in corpus order;
    /// none for a non-IDN shard.
    pub whois: Vec<WhoisRecord>,
    /// The passive-DNS aggregate of each record that resolves, in corpus
    /// order.
    pub aggregates: Vec<DomainAggregate>,
    /// The certificate each HTTPS host among the records serves.
    pub certificates: Vec<ServedCertificate<'r>>,
}

/// Attack-injection channels in injection order: the blacklisted share per
/// mille for each attack class. Homograph: paper 100/1516 ≈ 6.6%; Type-1
/// semantic: a few of 1,497 observed malicious; Type-2: the Gree case was
/// an active fraud.
const ATTACK_CHANNELS: [(MaliciousKind, u32); 3] = [
    (MaliciousKind::Homograph, 66),
    (MaliciousKind::SemanticType1, 13),
    (MaliciousKind::SemanticType2, 100),
];

/// How many draws a colliding registration gets, the first one and its
/// label-grow retries: the ordinary ladder's, and the day simulator's.
pub(crate) const ORDINARY_ATTEMPTS: u64 = 4;

/// Records per shard of the batch build's artifact traversal. Scheduling
/// only: the bytes do not depend on it.
const BATCH_SHARD: usize = 1024;

/// How many shards per worker the artifact traversal may finish ahead of
/// its in-order apply loop: the most per-shard outputs ever buffered.
/// Scheduling only: the bytes do not depend on it.
const SHARDS_AHEAD_PER_WORKER: usize = 4;

/// How one IDN record regenerates: which keyed stream to replay and (for
/// ordinary registrations) which retry-ladder rung won the dedup race.
/// Twelve bytes per record instead of a full [`DomainRegistration`].
#[derive(Debug, Clone, Copy)]
enum Recipe {
    /// Bulk job `index` of `registrant`'s portfolio.
    Bulk { registrant: u32, index: u32 },
    /// Ordinary record `index` of TLD spec `spec`, surviving at `attempt`.
    Ordinary { spec: u8, index: u32, attempt: u8 },
    /// Attack `index` of channel `kind` (0 homograph, 1 type-1, 2 type-2).
    Attack { kind: u8, index: u32 },
}

/// The compact corpus plan: enough to regenerate any corpus shard
/// byte-identically, without holding any records.
#[derive(Debug)]
pub struct KeyedCorpus {
    config: EcosystemConfig,
    /// Attack ground-truth lists, indexed by [`Recipe::Attack`] recipes.
    attacks: [Vec<AttackDomain>; 3],
    idn_recipes: Vec<Recipe>,
    /// The IDN indices whose domain another record also has, ascending,
    /// each with its domain's group id: bulk registrations, which the
    /// planner does not deduplicate.
    shared: Vec<(u64, u32)>,
    /// Stage-3 blacklist mutations: IDN corpus index → (kind, created).
    overrides: HashMap<u64, (MaliciousKind, Date)>,
    /// Per-spec non-IDN population spans: `(global start, count)`.
    non_idn_spans: Vec<(u64, u64)>,
    gauge: Arc<Gauge>,
    /// Shards regenerated so far, across every walk and worker.
    regenerated: AtomicU64,
}

impl KeyedCorpus {
    /// Records in the IDN population.
    pub fn idn_len(&self) -> u64 {
        self.idn_recipes.len() as u64
    }

    /// Records in the non-IDN population.
    pub fn non_idn_len(&self) -> u64 {
        self.non_idn_spans
            .last()
            .map_or(0, |&(start, count)| start + count)
    }

    /// The residency gauge shared by every shard this corpus
    /// materializes: how many registration records are resident across
    /// all worker threads right now, with a high-water mark.
    pub fn gauge(&self) -> &Gauge {
        &self.gauge
    }

    /// How many shards this corpus has regenerated so far: one per
    /// [`KeyedCorpus::with_idn_shard`] or
    /// [`KeyedCorpus::with_non_idn_shard`] call, and one per IDN shard an
    /// [`crate::EpochCorpus`] overlay regenerates from it.
    pub fn shards_regenerated(&self) -> u64 {
        self.regenerated.load(Ordering::Relaxed)
    }

    /// Counts one shard toward [`KeyedCorpus::shards_regenerated`].
    pub(crate) fn count_shard(&self) {
        self.regenerated.fetch_add(1, Ordering::Relaxed);
    }

    /// Materializes IDN records `[start, start + len)` and calls `f` once
    /// with the slice. Residency is gauge-tracked for the call's duration.
    pub fn with_idn_shard(&self, start: u64, len: usize, f: &mut dyn FnMut(&[DomainRegistration])) {
        self.regen_shard(true, start, len, |records| f(&records));
    }

    /// Non-IDN counterpart of [`KeyedCorpus::with_idn_shard`].
    pub fn with_non_idn_shard(
        &self,
        start: u64,
        len: usize,
        f: &mut dyn FnMut(&[DomainRegistration]),
    ) {
        self.regen_shard(false, start, len, |records| f(&records));
    }

    /// Regenerates records `[start, start + len)` of the IDN (`idn`) or
    /// non-IDN population and hands them to `f`: the one shard
    /// regeneration behind every walk of the plan. Counts the shard toward
    /// [`KeyedCorpus::shards_regenerated`] and holds `len` records on the
    /// residency gauge until `f` returns.
    fn regen_shard<R>(
        &self,
        idn: bool,
        start: u64,
        len: usize,
        f: impl FnOnce(Vec<DomainRegistration>) -> R,
    ) -> R {
        self.count_shard();
        self.gauge.add(len as u64);
        let regen = if idn {
            Self::regen_idn
        } else {
            Self::regen_non_idn
        };
        let records = (start..start + len as u64)
            .map(|i| regen(self, i))
            .collect();
        let out = f(records);
        self.gauge.sub(len as u64);
        out
    }

    /// Regenerates the IDN (`idn`) or non-IDN population once, in corpus
    /// order, and calls `f` with each shard of its records and their
    /// artifacts, emitted as the artifact traversal emits them. Shard
    /// boundaries are scheduling only.
    pub fn for_each_shard(
        &self,
        idn: bool,
        f: &mut dyn FnMut(&[DomainRegistration], ShardArtifacts<'_>),
    ) {
        let (total, chained) = if idn {
            (self.idn_len(), 0)
        } else {
            (self.non_idn_len(), self.idn_len())
        };
        let keys = ArtifactKeys::new(&self.config);
        for (start, len) in shard_spans(total, BATCH_SHARD) {
            self.regen_shard(idn, start, len, |records| {
                let keyed = || (0u64..).zip(&records);
                let chained = chained + start;
                let artifacts = ShardArtifacts {
                    whois: if idn {
                        keyed()
                            .filter_map(|(k, reg)| whois_record_for(keys.whois, start + k, reg))
                            .collect()
                    } else {
                        Vec::new()
                    },
                    aggregates: keyed()
                        .filter_map(|(k, reg)| keys.traffic(chained + k, reg, idn))
                        .collect(),
                    certificates: keyed()
                        .filter_map(|(k, reg)| {
                            certificate_for(keys.cert, chained + k, reg, keys.snapshot_day)
                                .map(|cert| (reg, cert))
                        })
                        .collect(),
                };
                f(&records, artifacts);
            });
        }
    }

    /// Every `(domain, certificate)` pair of the corpus, in corpus order:
    /// the certificates the artifact traversal folded into Tables VI and
    /// VII, regenerated by [`KeyedCorpus::for_each_shard`].
    pub fn certificates(&self) -> Vec<(String, Certificate)> {
        let mut out = Vec::new();
        for idn in [true, false] {
            self.for_each_shard(idn, &mut |_, artifacts| {
                out.extend(
                    artifacts
                        .certificates
                        .into_iter()
                        .map(|(reg, cert)| (reg.domain.clone(), cert)),
                );
            });
        }
        out
    }

    /// Every WHOIS record of the corpus, in corpus order: the records the
    /// artifact traversal folded into [`crate::WhoisFacts`], regenerated
    /// by [`KeyedCorpus::for_each_shard`].
    pub fn whois_records(&self) -> Vec<WhoisRecord> {
        let mut out = Vec::new();
        self.for_each_shard(true, &mut |_, artifacts| out.extend(artifacts.whois));
        out
    }

    /// The passive-DNS store of the corpus's aggregates, regenerated by
    /// [`KeyedCorpus::for_each_shard`] and inserted in corpus order, so a
    /// domain that several records share keeps the last one's.
    pub fn pdns_store(&self) -> PdnsStore {
        let mut store = PdnsStore::new();
        for idn in [true, false] {
            self.for_each_shard(idn, &mut |_, artifacts| store.extend(artifacts.aggregates));
        }
        store
    }

    /// The WHOIS record of IDN record `index`'s domain: the one
    /// [`KeyedCorpus::whois_records`] holds for it, and for a domain that
    /// several bulk records share, the last such record's. Regenerates the base record, so an epoch overlay's
    /// patched record joins the base record's artifact. `None` when the
    /// domain has no WHOIS record, or `index` is past the base corpus (an
    /// epoch-appended record, whose domain the base corpus never held).
    pub fn whois_record(&self, index: u64) -> Option<WhoisRecord> {
        if index >= self.idn_len() {
            return None;
        }
        self.whois_record_of(index, &self.regen_idn(index))
    }

    /// [`KeyedCorpus::whois_record`] of base IDN record `index`, given that
    /// record as a walk of this corpus hands it out: regenerates nothing
    /// unless its domain is shared.
    pub fn whois_record_of(&self, index: u64, reg: &DomainRegistration) -> Option<WhoisRecord> {
        let key = ArtifactKeys::new(&self.config).whois;
        self.join(index, reg, |i, reg| whois_record_for(key, i, reg))
    }

    /// The passive-DNS aggregate of IDN record `index`'s domain: the one
    /// [`KeyedCorpus::pdns_store`] holds for it, under the same rules as
    /// [`KeyedCorpus::whois_record`].
    pub fn pdns_aggregate(&self, index: u64) -> Option<DomainAggregate> {
        if index >= self.idn_len() {
            return None;
        }
        let keys = ArtifactKeys::new(&self.config);
        let mut aggregate = self.join(index, &self.regen_idn(index), |i, reg| {
            keys.traffic(i, reg, true)
        })?;
        // The store keys, and so returns, each aggregate by its lowercase
        // name.
        aggregate.domain.make_ascii_lowercase();
        Some(aggregate)
    }

    /// The domain group of IDN record `index`, when another record shares
    /// its domain.
    pub(crate) fn shared_group(&self, index: u64) -> Option<u32> {
        let at = self.shared.binary_search_by_key(&index, |&(i, _)| i).ok()?;
        Some(self.shared[at].1)
    }

    /// The records of domain group `group`, last first.
    fn group_members_rev(&self, group: u32) -> impl Iterator<Item = u64> + '_ {
        self.shared
            .iter()
            .rev()
            .filter(move |&&(_, g)| g == group)
            .map(|&(i, _)| i)
    }

    /// The artifact `emit` gives base IDN record `index` (`reg`) as a
    /// store keyed by domain holds it: for a shared domain, that of the
    /// last record of the domain, in corpus order, that has one.
    fn join<T>(
        &self,
        index: u64,
        reg: &DomainRegistration,
        emit: impl Fn(u64, &DomainRegistration) -> Option<T>,
    ) -> Option<T> {
        let Some(group) = self.shared_group(index) else {
            return emit(index, reg);
        };
        self.group_members_rev(group).find_map(|i| {
            if i == index {
                emit(i, reg)
            } else {
                emit(i, &self.regen_idn(i))
            }
        })
    }

    /// The configuration this plan was generated under (the epoch overlay
    /// derives day-simulator keys from its seed and snapshot date).
    pub(crate) fn config(&self) -> &EcosystemConfig {
        &self.config
    }

    /// Regenerates IDN record `index` from its keyed stream.
    pub(crate) fn regen_idn(&self, index: u64) -> DomainRegistration {
        let root = Key::root(self.config.seed);
        let mut reg = match self.idn_recipes[index as usize] {
            Recipe::Bulk {
                registrant,
                index: i,
            } => {
                let (email, _, theme) = BULK_REGISTRANTS[registrant as usize];
                let mut rng = root
                    .stage(StageId::BulkRegistrations)
                    .derive(u64::from(registrant))
                    .record(u64::from(i))
                    .rng();
                let label = themed_label(&mut rng, theme);
                let label = format!("{label}{i}");
                let (domain, unicode) =
                    draw_idn_domain(&mut rng, &label, "com").expect("planned bulk record");
                finish_idn(
                    &mut rng,
                    &self.config,
                    domain,
                    unicode,
                    Language::Chinese,
                    "com",
                    Some(email.to_string()),
                )
            }
            Recipe::Ordinary {
                spec,
                index: i,
                attempt,
            } => {
                let tld = TABLE_I[spec as usize].tld;
                let record_key = root
                    .stage(StageId::OrdinaryRegistrations)
                    .derive(u64::from(spec))
                    .record(u64::from(i));
                let mut meta = record_key.rng();
                let language = labels::sample_language(&mut meta);
                let mut label = labels::generate_label(&mut meta, language);
                let (email, _) = sample_registrant(&mut meta, u64::from(i));
                // Replay the suffix growth of every losing rung before the
                // winning one: the label accumulates across the ladder.
                for a in 1..u64::from(attempt) {
                    let mut rung = record_key.derive(a + 1).rng();
                    label.push_str(&rung.gen_range(2..1000u32).to_string());
                }
                let mut rng = record_key.derive(u64::from(attempt) + 1).rng();
                if attempt > 0 {
                    label.push_str(&rng.gen_range(2..1000u32).to_string());
                }
                let (domain, unicode) =
                    draw_idn_domain(&mut rng, &label, tld).expect("planned ordinary record");
                finish_idn(
                    &mut rng,
                    &self.config,
                    domain,
                    unicode,
                    language,
                    tld,
                    email,
                )
            }
            Recipe::Attack { kind, index: i } => {
                let (malicious_kind, per_mille) = ATTACK_CHANNELS[kind as usize];
                let mut rng = root
                    .stage(StageId::AttackInjection)
                    .derive(u64::from(kind))
                    .record(u64::from(i))
                    .rng();
                attack_registration(
                    &mut rng,
                    &self.config,
                    &self.attacks[kind as usize][i as usize],
                    malicious_kind,
                    per_mille,
                )
            }
        };
        if let Some(&(kind, created)) = self.overrides.get(&index) {
            reg.malicious = Some(kind);
            reg.created = created;
        }
        reg
    }

    /// Regenerates non-IDN record `index` from its keyed stream.
    fn regen_non_idn(&self, index: u64) -> DomainRegistration {
        let (spec_idx, start) = self
            .non_idn_spans
            .iter()
            .enumerate()
            .rev()
            .find(|&(_, &(start, _))| start <= index)
            .map(|(s, &(start, _))| (s, start))
            .expect("non-IDN index in range");
        let i = index - start;
        let mut rng = Key::root(self.config.seed)
            .stage(StageId::NonIdnSample)
            .derive(spec_idx as u64)
            .record(i)
            .rng();
        build_non_idn(&mut rng, &self.config, i, TABLE_I[spec_idx].tld)
    }
}

/// The keyed streams of the stage 6–8 artifacts. A record's artifact is
/// a pure function of its stream, its index and the record: IDN WHOIS is
/// keyed by the IDN index, pDNS and certificates by the chained
/// IDN-then-non-IDN index.
#[derive(Debug, Clone, Copy)]
struct ArtifactKeys {
    whois: Key,
    pdns: Key,
    cert: Key,
    snapshot_day: i64,
}

impl ArtifactKeys {
    fn new(config: &EcosystemConfig) -> Self {
        let root = Key::root(config.seed);
        ArtifactKeys {
            whois: root.stage(StageId::Whois),
            pdns: root.stage(StageId::PdnsTraffic),
            cert: root.stage(StageId::Certificates),
            snapshot_day: config.snapshot.day_number(),
        }
    }

    /// The pDNS aggregate of the record at chained index `chained`.
    fn traffic(
        &self,
        chained: u64,
        reg: &DomainRegistration,
        idn: bool,
    ) -> Option<DomainAggregate> {
        traffic_for(self.pdns, chained, reg, idn, self.snapshot_day)
    }
}

/// Evenly sized `(start, len)` shard spans covering `total` records.
fn shard_spans(total: u64, shard_size: usize) -> Vec<(u64, usize)> {
    let shard_size = shard_size.max(1);
    let mut spans = Vec::new();
    let mut start = 0u64;
    while start < total {
        let len = (total - start).min(shard_size as u64) as usize;
        spans.push((start, len));
        start += len as u64;
    }
    spans
}

/// The streamed build: shorthand for [`generate_traced`] with
/// `Some(shard_size)` and no parent span.
pub fn generate_streamed(
    config: &EcosystemConfig,
    shard_size: usize,
    recorder: &dyn Recorder,
) -> (Ecosystem, KeyedCorpus, CorpusColumns) {
    generate_traced(config, Some(shard_size), recorder, SpanCtx::NONE)
}

/// Generates the ecosystem: the one generator behind both builds.
///
/// Stages 1–5 run in the corpus planner (span `datagen.stream.plan`).
/// Then one traversal (span `datagen.stream.artifacts`) regenerates every
/// planned record exactly once, shard by shard on the workers, and emits
/// the stage 6–8 artifacts (WHOIS, pDNS, certificates) plus each IDN
/// record's [`column_row`], whose label facts (language id, skeleton) are
/// thus derived on the workers. Each shard folds its WHOIS records into
/// Tables I, III and IV's and Figure 1's tallies, its pDNS aggregates into
/// Figures 2–4's populations and its certificates into Tables VI–VII's
/// tallies, and keeps no artifact. The calling thread applies finished
/// shards in shard order while the workers run ahead, so every fold
/// merges in corpus order and labels intern in corpus order. Then the
/// WHOIS fold regenerates its top registrants' domains, and the few
/// records whose domain another record shares are folded with the
/// aggregate [`KeyedCorpus::pdns_aggregate`] joins to their domain. The
/// traversal's records are the artifacts a store would hold: the WHOIS
/// records, the distinct pDNS domains and the certificates. Both spans are
/// children of `parent`, at sibling indexes 0 and 1.
///
/// `shard_size` picks the build:
///
/// * `None` is the batch build. It walks fixed 1,024-record shards and
///   moves each one into the registration vectors once its artifacts are
///   emitted.
/// * `Some(n)` is the streamed build. It walks `n`-record shards and drops
///   each one, so the registration vectors stay empty and the returned
///   [`KeyedCorpus`] regenerates any shard on demand.
///
/// The folds, the finished [`CorpusColumns`] and the plan are
/// byte-identical across both builds and any shard size, thread count and
/// recorder.
pub fn generate_traced(
    config: &EcosystemConfig,
    shard_size: Option<usize>,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (Ecosystem, KeyedCorpus, CorpusColumns) {
    let (corpus, brands, blacklist) = plan(config, recorder, parent);

    let mut span = recorder.span_at("datagen.stream.artifacts", parent, 1);
    let keep = shard_size.is_none();
    let keys = ArtifactKeys::new(config);

    struct ShardFolds {
        idn: bool,
        whois: WhoisTally,
        activity: PopulationActivity,
        /// Aggregates emitted for records whose domain is their own.
        aggregates: u64,
        /// Records whose domain another record shares, as (IDN index,
        /// malicious): folded once the traversal has ended.
        deferred: Vec<(u64, bool)>,
        certificate_tally: CertificateTally,
        rows: ColumnRows,
        /// The shard's records, kept only by the batch build.
        records: Vec<DomainRegistration>,
    }

    let idn_len = corpus.idn_len();
    let non_idn_len = corpus.non_idn_len();
    let shard_size = shard_size.unwrap_or(BATCH_SHARD);
    let shards: Vec<(bool, u64, usize)> = shard_spans(idn_len, shard_size)
        .into_iter()
        .map(|(start, len)| (true, start, len))
        .chain(
            shard_spans(non_idn_len, shard_size)
                .into_iter()
                .map(|(start, len)| (false, start, len)),
        )
        .collect();
    let validator = Validator::with_default_roots(keys.snapshot_day);
    // Emission is stage-major: one loop over the shard per artifact, so
    // each artifact's heap allocations stay adjacent. Each artifact is
    // folded into its report aggregate as it is emitted.
    let emit_shard = |&(idn, start, len): &(bool, u64, usize)| {
        corpus.regen_shard(idn, start, len, |records| {
            // The pDNS/certificate streams are keyed by the chained
            // idn-then-non-idn enumeration.
            let chained = if idn { start } else { idn_len + start };
            let keyed = || (0u64..).zip(&records);
            let mut whois = WhoisTally::default();
            if idn {
                for (k, reg) in keyed() {
                    if let Some(record) = whois_record_for(keys.whois, start + k, reg) {
                        whois.add(start + k, record, &blacklist);
                    }
                }
            }
            let mut activity = PopulationActivity::default();
            let mut aggregates = 0;
            let mut deferred = Vec::new();
            for (k, reg) in keyed() {
                let malicious = reg.malicious.is_some();
                if idn && corpus.shared_group(start + k).is_some() {
                    deferred.push((start + k, malicious));
                } else if let Some(aggregate) = keys.traffic(chained + k, reg, idn) {
                    activity.add(idn, malicious, &aggregate);
                    aggregates += 1;
                }
            }
            let mut certificate_tally = CertificateTally::default();
            for (k, reg) in keyed() {
                if let Some(cert) = certificate_for(keys.cert, chained + k, reg, keys.snapshot_day)
                {
                    certificate_tally.observe(&validator, idn, &reg.domain, &cert);
                }
            }
            let mut rows = ColumnRows::default();
            if idn {
                for reg in &records {
                    rows.push(column_row(reg, &blacklist));
                }
            }
            ShardFolds {
                idn,
                whois,
                activity,
                aggregates,
                deferred,
                certificate_tally,
                rows,
                records: if keep { records } else { Vec::new() },
            }
        })
    };

    let capacity = |len: u64| if keep { len as usize } else { 0 };
    let mut idn_registrations = Vec::with_capacity(capacity(idn_len));
    let mut non_idn_registrations = Vec::with_capacity(capacity(non_idn_len));
    let mut whois = WhoisTally::default();
    let mut activity = PopulationActivity::default();
    let mut aggregates = 0u64;
    let mut deferred = Vec::new();
    let mut certificate_tally = CertificateTally::default();
    let mut columns = CorpusColumns::default();
    let ahead = SHARDS_AHEAD_PER_WORKER * config.threads;
    idnre_par::par_map_ordered(&shards, config.threads, ahead, emit_shard, |shard| {
        whois.merge(shard.whois);
        activity.merge(shard.activity);
        aggregates += shard.aggregates;
        deferred.extend(shard.deferred);
        certificate_tally.merge(shard.certificate_tally);
        for row in shard.rows.iter() {
            columns.push_row(row);
        }
        if shard.idn {
            idn_registrations.extend(shard.records);
        } else {
            non_idn_registrations.extend(shard.records);
        }
    });
    let whois_facts = whois.finish(|index| corpus.regen_idn(index).domain);
    // A shared domain's records each get the aggregate a store would keep
    // for it, the last one emitted; the store would hold it once, so it
    // is counted at the group's last record.
    for (index, malicious) in deferred {
        if let Some(aggregate) = corpus.pdns_aggregate(index) {
            activity.add(true, malicious, &aggregate);
            let group = corpus
                .shared_group(index)
                .expect("a deferred record is shared");
            aggregates += u64::from(corpus.group_members_rev(group).next() == Some(index));
        }
    }
    span.add_records(whois_facts.records + aggregates + certificate_tally.total());
    drop(span);

    let [homograph_attacks, semantic_attacks, semantic2_attacks] = corpus.attacks.clone();
    let eco = Ecosystem {
        config: config.clone(),
        brands,
        idn_registrations,
        non_idn_registrations,
        homograph_attacks,
        semantic_attacks,
        semantic2_attacks,
        whois_facts,
        activity,
        certificate_tally,
        blacklist,
    };
    (eco, corpus, columns)
}

/// Generation stages 1–5 — the one corpus planner —
/// timed as the `datagen.stream.plan` span (sibling index 0 under
/// `parent`). Draws only what decides record survival (domain
/// construction and dedup), blacklist flags and feed inserts; everything
/// else about a record is left to regeneration. Returns the plan, the
/// brand list the attacks target, and the finished blacklist.
pub(crate) fn plan(
    config: &EcosystemConfig,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (KeyedCorpus, BrandList, BlacklistSet) {
    let root = Key::root(config.seed);
    let threads = config.threads;
    let brands = BrandList::with_size(config.brand_count);
    let mut span = recorder.span_at("datagen.stream.plan", parent, 0);

    // Stage 1: bulk (opportunistic) registrations — Table III clusters,
    // each with a single portfolio theme. Bulk has no cross-record dedup,
    // so every job that yields a valid IDN becomes a recipe.
    let bulk_key = root.stage(StageId::BulkRegistrations);
    let mut bulk_jobs: Vec<(u32, BulkTheme, u32)> = Vec::new();
    for (registrant, &(_, declared, theme)) in BULK_REGISTRANTS.iter().enumerate() {
        let n = (u64::from(declared) / config.scale).max(1);
        for i in 0..n {
            bulk_jobs.push((registrant as u32, theme, i as u32));
        }
    }
    let bulk_domains = idnre_par::par_map(&bulk_jobs, threads, |&(registrant, theme, i)| {
        let mut rng = bulk_key
            .derive(u64::from(registrant))
            .record(u64::from(i))
            .rng();
        let label = themed_label(&mut rng, theme);
        draw_idn_domain(&mut rng, &format!("{label}{i}"), "com").map(|(domain, _)| domain)
    });
    let mut idn_recipes: Vec<Recipe> = Vec::new();
    // One interner doubles as the dedup set and the domain table; the
    // per-record `symbols` column maps recipe index → arena slot so stage 3
    // can resolve a candidate's domain without a second Vec<String> copy of
    // the corpus. (Bulk keeps duplicate domains as distinct records, so
    // arena slots are NOT 1:1 with recipes and
    // `Symbol::from_index(recipe_idx)` would misresolve.)
    let mut seen = Interner::with_capacity(bulk_jobs.len() * 2);
    let mut symbols: Vec<Symbol> = Vec::new();
    let mut tlds: Vec<&'static str> = Vec::new();
    for (&(registrant, _, i), domain) in bulk_jobs.iter().zip(bulk_domains) {
        if let Some(domain) = domain {
            idn_recipes.push(Recipe::Bulk {
                registrant,
                index: i,
            });
            symbols.push(seen.intern(&domain));
            tlds.push("com");
        }
    }
    // Every later stage deduplicates against `seen`, so the bulk records
    // whose domain repeats are the only records that share a domain.
    let mut copies = vec![0u32; seen.len()];
    for sym in &symbols {
        copies[sym.index()] += 1;
    }
    let shared: Vec<(u64, u32)> = (0u64..)
        .zip(&symbols)
        .filter(|(_, sym)| copies[sym.index()] > 1)
        .map(|(i, sym)| (i, sym.index() as u32))
        .collect();

    // Stage 2: ordinary registrations per TLD (Table I volumes). The seed
    // vocabulary is finite, so plain sampling collides: rung-0 domains are
    // planned in parallel, and later rungs are derived serially on this
    // thread whenever the sequential dedup probe collides. That is no rare
    // case: 6,544 of 14,726 ordinary records (44%) do not win at rung 0
    // at the default scale 100, 14,776 of 29,454 (50%) at scale 50 (seed
    // 0x1DAE2019) and 96,804 of 147,281 (66%) at scale 10. Rung `k` draws
    // from the record key's child `derive(k + 1)` (word 0 is the record's
    // own meta stream), so a rung's bytes never depend on which earlier
    // rungs collided.
    let ordinary_key = root.stage(StageId::OrdinaryRegistrations);
    for (spec_idx, spec) in TABLE_I.iter().enumerate() {
        let n = config.scaled_idns(spec);
        let spec_key = ordinary_key.derive(spec_idx as u64);
        let indices: Vec<u64> = (0..n).collect();
        let ladders = idnre_par::par_map(&indices, threads, |&i| {
            let record_key = spec_key.record(i);
            let mut meta = record_key.rng();
            let language = labels::sample_language(&mut meta);
            let label = labels::generate_label(&mut meta, language);
            // The registrant draw follows the label on the meta stream, so
            // the domain-only plan can stop here.
            let mut rng = record_key.derive(1).rng();
            let rung0 = draw_idn_domain(&mut rng, &label, spec.tld).map(|(domain, _)| domain);
            (label, rung0)
        });
        for (i, (mut label, rung0)) in ladders.into_iter().enumerate() {
            let mut won = None;
            if let Some(domain) = rung0 {
                let (sym, fresh) = seen.intern_full(&domain);
                if fresh {
                    won = Some((0u8, sym));
                }
            }
            if won.is_none() {
                let record_key = spec_key.record(i as u64);
                for attempt in 1..ORDINARY_ATTEMPTS {
                    let mut rng = record_key.derive(attempt + 1).rng();
                    // Digit-bearing IDNs are common in the wild corpus, so
                    // collision retries grow the label rather than resample.
                    label.push_str(&rng.gen_range(2..1000u32).to_string());
                    let Some((domain, _)) = draw_idn_domain(&mut rng, &label, spec.tld) else {
                        continue;
                    };
                    let (sym, fresh) = seen.intern_full(&domain);
                    if fresh {
                        won = Some((attempt as u8, sym));
                        break;
                    }
                }
            }
            if let Some((attempt, sym)) = won {
                idn_recipes.push(Recipe::Ordinary {
                    spec: spec_idx as u8,
                    index: i as u32,
                    attempt,
                });
                symbols.push(sym);
                tlds.push(spec.tld);
            }
        }
    }

    // Stage 3: marks the Table I blacklist proportions on the bulk +
    // ordinary population and feeds the per-source sets. Each TLD spec
    // plans in parallel against the same (domain, tld) metadata (their
    // candidate sets are disjoint by TLD); the plans apply in spec order,
    // and flag mutations become regeneration-time overrides.
    let mut blacklist = BlacklistSet::new();
    let mut overrides: HashMap<u64, (MaliciousKind, Date)> = HashMap::new();
    let blacklist_key = root.stage(StageId::Blacklist);
    let spec_indices: Vec<u64> = (0..TABLE_I.len() as u64).collect();
    let plans = idnre_par::par_map(&spec_indices, threads, |&spec_idx| {
        let spec = &TABLE_I[spec_idx as usize];
        let mut rng = blacklist_key.record(spec_idx).rng();
        let (vt, qihoo, baidu) = spec.declared_blacklisted;
        let scaled = |n: u64| -> usize { (n / config.scale.max(1)).max(u64::from(n > 0)) as usize };
        // Bulk+ordinary records all carry `malicious: None` at this stage,
        // so TLD equality is the whole candidate filter.
        let mut candidates: Vec<usize> = tlds
            .iter()
            .enumerate()
            .filter(|&(_, t)| *t == spec.tld)
            .map(|(i, _)| i)
            .collect();
        // Union structure: all of VirusTotal's finds, one third of Qihoo's
        // as unique (the rest overlap VT), and Baidu's handful mostly
        // unique — Table I's per-source totals behave this way.
        let n_vt = scaled(vt);
        let n_q = scaled(qihoo);
        let n_q_unique = n_q / 3;
        let n_b_unique = scaled(baidu).min(1) * u64::from(baidu > 0) as usize;
        let union = n_vt + n_q_unique + n_b_unique;
        let mut flags = Vec::new();
        for _ in 0..union.min(candidates.len()) {
            let idx = candidates.swap_remove(rng.gen_range(0..candidates.len()));
            let kind = if rng.gen_ratio(7, 10) {
                MaliciousKind::UndergroundBusiness
            } else {
                MaliciousKind::Other
            };
            let created = sample_malicious_creation_date(&mut rng, config.snapshot);
            flags.push((idx, kind, created));
        }
        // Per-source attribution: every flagged domain gets at least one
        // source, with the overlap block shared between VT and Qihoo.
        let q_overlap = n_q - n_q_unique;
        let mut inserts = Vec::new();
        for (k, &(idx, _, _)) in flags.iter().enumerate() {
            if k < n_vt {
                inserts.push((Source::VirusTotal, idx));
                if k >= n_vt.saturating_sub(q_overlap) {
                    inserts.push((Source::Qihoo360, idx));
                }
            } else if k < n_vt + n_q_unique {
                inserts.push((Source::Qihoo360, idx));
            } else {
                inserts.push((Source::Baidu, idx));
            }
        }
        (flags, inserts)
    });
    for (flags, inserts) in plans {
        for (idx, kind, created) in flags {
            overrides.insert(idx as u64, (kind, created));
        }
        for (source, idx) in inserts {
            blacklist.insert(source, seen.resolve(symbols[idx]));
        }
    }
    drop(tlds);
    drop(symbols);

    // Stage 4: attack populations and their injection. Each attack's
    // stream is keyed by its index, so its rolls and its record do not
    // depend on which attacks dedup skips: the plan draws only the two
    // rolls that feed the blacklist, and regeneration replays the stream
    // for the record.
    let homograph_attacks = attacks::generate_homographs(
        root.stage(StageId::HomographAttacks),
        &brands,
        config.attack_scale,
        threads,
    );
    let semantic_attacks = attacks::generate_semantic_type1(
        root.stage(StageId::SemanticType1Attacks),
        &brands,
        config.attack_scale,
        threads,
    );
    let semantic2_attacks = attacks::generate_semantic_type2(
        root.stage(StageId::SemanticType2Attacks),
        config.attack_scale,
    );
    let inject_key = root.stage(StageId::AttackInjection);
    let attack_lists = [&homograph_attacks, &semantic_attacks, &semantic2_attacks];
    for (kind_word, (list, (_, per_mille))) in
        attack_lists.into_iter().zip(ATTACK_CHANNELS).enumerate()
    {
        let key = inject_key.derive(kind_word as u64);
        for (i, attack) in list.iter().enumerate() {
            if !seen.intern_full(&attack.domain).1 {
                continue;
            }
            let (blacklisted, qihoo_too) = attack_rolls(&mut key.record(i as u64).rng(), per_mille);
            if blacklisted {
                blacklist.insert(Source::VirusTotal, &attack.domain);
                if qihoo_too {
                    blacklist.insert(Source::Qihoo360, &attack.domain);
                }
            }
            idn_recipes.push(Recipe::Attack {
                kind: kind_word as u8,
                index: i as u32,
            });
        }
    }
    drop(seen);

    // Stage 5: the non-IDN comparison sample needs no planning at all —
    // per-spec counts are a pure function of the config.
    let mut non_idn_spans = Vec::new();
    let mut non_idn_start = 0u64;
    for spec in TABLE_I {
        let count = config.scaled_non_idn_sample(&spec);
        non_idn_spans.push((non_idn_start, count));
        non_idn_start += count;
    }

    let corpus = KeyedCorpus {
        config: config.clone(),
        attacks: [homograph_attacks, semantic_attacks, semantic2_attacks],
        idn_recipes,
        shared,
        overrides,
        non_idn_spans,
        gauge: Arc::new(Gauge::new()),
        regenerated: AtomicU64::new(0),
    };
    span.add_records(corpus.idn_len() + corpus.non_idn_len());
    (corpus, brands, blacklist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DerivedZones;
    use idnre_telemetry::NoopRecorder;

    fn config() -> EcosystemConfig {
        EcosystemConfig {
            scale: 500,
            attack_scale: 10,
            ..EcosystemConfig::default()
        }
    }

    fn collect_idn(corpus: &KeyedCorpus, shard_size: usize) -> Vec<DomainRegistration> {
        let mut out = Vec::new();
        for (start, len) in shard_spans(corpus.idn_len(), shard_size) {
            corpus.with_idn_shard(start, len, &mut |records| out.extend_from_slice(records));
        }
        out
    }

    fn collect_non_idn(corpus: &KeyedCorpus, shard_size: usize) -> Vec<DomainRegistration> {
        let mut out = Vec::new();
        for (start, len) in shard_spans(corpus.non_idn_len(), shard_size) {
            corpus.with_non_idn_shard(start, len, &mut |records| out.extend_from_slice(records));
        }
        out
    }

    #[test]
    fn streamed_shards_reproduce_batch_records() {
        let config = config();
        let batch = Ecosystem::generate(&config);
        let (_, corpus, _) = generate_streamed(&config, 64, &NoopRecorder);
        assert_eq!(corpus.idn_len(), batch.idn_registrations.len() as u64);
        assert_eq!(
            corpus.non_idn_len(),
            batch.non_idn_registrations.len() as u64
        );
        assert_eq!(collect_idn(&corpus, 64), batch.idn_registrations);
        assert_eq!(collect_non_idn(&corpus, 64), batch.non_idn_registrations);
        // Shard size must not matter.
        assert_eq!(collect_idn(&corpus, 7), batch.idn_registrations);
    }

    #[test]
    fn streamed_artifacts_match_batch_artifacts() {
        let config = config();
        let batch = Ecosystem::generate(&config);
        let (eco, corpus, _) = generate_streamed(&config, 128, &NoopRecorder);
        assert_eq!(eco.whois_facts, batch.whois_facts);
        assert_eq!(eco.blacklist, batch.blacklist);
        assert_eq!(eco.activity, batch.activity);
        assert_eq!(eco.certificate_tally, batch.certificate_tally);
        let (idn, non_idn) = (collect_idn(&corpus, 128), collect_non_idn(&corpus, 128));
        assert_eq!(
            DerivedZones::derive([&idn[..], &non_idn[..]]),
            batch.derive_zones()
        );
        assert_eq!(eco.homograph_attacks, batch.homograph_attacks);
        assert_eq!(eco.semantic_attacks, batch.semantic_attacks);
        assert_eq!(eco.semantic2_attacks, batch.semantic2_attacks);
        assert!(eco.idn_registrations.is_empty());
    }

    /// The WHOIS fold counts the records the corpus walk re-emits, and its
    /// top portfolios hold the domains of those records.
    #[test]
    fn whois_facts_fold_the_records_the_walk_emits() {
        let config = EcosystemConfig {
            scale: 100,
            attack_scale: 25,
            ..EcosystemConfig::default()
        };
        let (eco, corpus, _) = generate_streamed(&config, 64, &NoopRecorder);
        let records = corpus.whois_records();
        let facts = &eco.whois_facts;
        assert_eq!(facts.records, records.len() as u64);
        assert_eq!(facts.top_registrants.len(), crate::TOP_REGISTRANTS);
        assert!(facts.opportunistic_mass > 0);
        for registrant in &facts.top_registrants {
            let portfolio: Vec<&str> = records
                .iter()
                .filter(|r| r.registrant_email.as_ref() == Some(&registrant.email))
                .map(|r| r.domain.as_str())
                .collect();
            assert_eq!(registrant.domains, portfolio, "{}", registrant.email);
        }
    }

    /// Shared domains join the artifact of their group's last record that
    /// has one, and indices past the base corpus join nothing.
    #[test]
    fn joins_resolve_shared_domains_and_end_at_the_base_corpus() {
        let config = EcosystemConfig {
            scale: 50,
            seed: EcosystemConfig::default().seed + 1,
            ..EcosystemConfig::default()
        };
        let (_, corpus, _) = generate_streamed(&config, 1024, &NoopRecorder);
        let shared: Vec<u64> = corpus.shared.iter().map(|&(index, _)| index).collect();
        assert!(!shared.is_empty(), "no shared domain to resolve");
        let pdns = corpus.pdns_store();
        let mut whois = HashMap::new();
        for record in corpus.whois_records() {
            whois.insert(record.domain.clone(), record);
        }
        for index in shared {
            let domain = corpus.regen_idn(index).domain;
            assert_eq!(corpus.whois_record(index).as_ref(), whois.get(&domain));
            assert_eq!(corpus.pdns_aggregate(index).as_ref(), pdns.lookup(&domain));
        }
        assert_eq!(corpus.whois_record(corpus.idn_len()), None);
        assert_eq!(corpus.pdns_aggregate(corpus.idn_len()), None);
    }

    #[test]
    fn residency_stays_bounded_by_shards_not_corpus() {
        let config = config();
        let (_, corpus, _) = generate_streamed(&config, 32, &NoopRecorder);
        // The artifact pass already ran with shard size 32.
        let corpus_size = corpus.idn_len() + corpus.non_idn_len();
        let bound = 32 * idnre_par::MAX_THREADS as u64;
        assert!(corpus_size > bound / 4, "corpus too small for the probe");
        assert!(
            corpus.gauge().peak() <= bound,
            "peak {} exceeds shard_size × workers {}",
            corpus.gauge().peak(),
            bound
        );
        assert!(corpus.gauge().peak() > 0);
    }

    #[test]
    fn single_record_shards_work() {
        let config = config();
        let (_, corpus, _) = generate_streamed(&config, 1024, &NoopRecorder);
        let full = collect_idn(&corpus, 1024);
        corpus.with_idn_shard(3, 1, &mut |records| {
            assert_eq!(records, &full[3..4]);
        });
    }
}
