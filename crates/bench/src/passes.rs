//! Report-side [`AnalysisPass`] implementations and the [`ScanPlan`] that
//! fuses them (plus the detector passes from `idnre-core`) into the one
//! corpus traversal behind [`crate::ReproContext`]; [`ScanInputs`] holds
//! what every plan of a run shares.
//!
//! Every aggregate a report table used to rescan the corpus for is folded
//! here instead: per-TLD blacklist tallies (Table I), the language mix
//! (Table II), the crawled content-category samples (Table V), the three
//! passive-DNS activity populations (Figures 2–4), Type-2 semantic
//! findings (Table X), the top-registrant unicode portfolio (Table III)
//! and the registered-lookalike set (Figure 6). The partials are
//! [`Merge`]-able and merged in shard order, so the outputs are
//! byte-identical across thread counts and shard sizes.

use crate::mine::{BucketIndexPass, MiningPlan};
use crate::robust::{sample_crawl, usage_index};
use crate::CandidateSurvey;
use idnre_analyze::{
    AnalysisPass, DeltaStream, EpochState, EpochStats, KeyedTally, Merge, Observed, PassHandle,
    Population, RecordSource, ScanResult, ShardedScan,
};
use idnre_arena::{BucketIndex, ColumnsBuilder, CorpusColumns, Symbol};
use idnre_core::{
    ColumnedHomographPass, HomographDetector, HomographFinding, Semantic1Pass, Semantic2Pass,
    SemanticDetector, SemanticFinding, SkeletonCache,
};
use idnre_crawler::UsageCategory;
use idnre_datagen::Ecosystem;
use idnre_langid::{Classifier, Language};
use idnre_pdns::{ActivityAnalytics, PdnsStore};
use idnre_telemetry::{Recorder, SpanCtx};
use idnre_whois::analytics::RegistrationAnalytics;
use idnre_whois::WhoisRecord;
use std::collections::{HashMap, HashSet};

/// The passive-DNS lookup counters the activity pass touches from worker
/// threads (pre-registered before the fan-out).
pub const PDNS_LOOKUP_COUNTERS: [&str; 2] = ["pdns.lookup.hit", "pdns.lookup.miss"];

/// Table V samples this many records from the head of each population.
pub const CONTENT_SAMPLE: u64 = 500;

/// The fused traversal's whole result: every finding and aggregate the
/// report generators read from the registration corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutputs {
    /// Homograph-detector findings in corpus order (Table XIII, Figures 5
    /// and 6, the browser-exposure extension).
    pub homographs: Vec<HomographFinding>,
    /// Type-1 semantic findings in corpus order (Tables IX and XIV,
    /// Figure 8).
    pub semantic1: Vec<SemanticFinding>,
    /// Per-TLD IDN and blacklist tallies (Table I).
    pub tld: TldBreakdown,
    /// Language mix of all/malicious/organic IDNs (Table II).
    pub language: LanguageMix,
    /// Content-category sample counts per population (Table V).
    pub content: ContentCounts,
    /// Passive-DNS activity split into the three report populations
    /// (Figures 2–4).
    pub activity: PopulationActivity,
    /// Type-2 semantic findings in corpus order (Table X).
    pub semantic2: Vec<SemanticFinding>,
    /// `punycode → unicode` for the top-registrant portfolios (Table III).
    pub table3_unicode: HashMap<String, String>,
    /// Enumerated lookalike candidates that are actually registered
    /// (Figure 6).
    pub fig6_registered: HashSet<String>,
    /// Records scanned in the IDN population.
    pub idn_len: u64,
    /// Records scanned in the non-IDN population.
    pub non_idn_len: u64,
}

/// Table I's per-TLD aggregates: IDN volume and per-source blacklist hits.
#[derive(Debug, Clone, PartialEq)]
pub struct TldBreakdown {
    /// IDN registrations per TLD, in corpus first-occurrence order.
    pub idns: KeyedTally<String>,
    /// VirusTotal-blacklisted IDNs per TLD.
    pub vt: KeyedTally<String>,
    /// Qihoo-360-blacklisted IDNs per TLD.
    pub q: KeyedTally<String>,
    /// Baidu-blacklisted IDNs per TLD.
    pub b: KeyedTally<String>,
    /// IDNs blacklisted by any source, per TLD.
    pub union: KeyedTally<String>,
}

impl Merge for TldBreakdown {
    fn merge(self, later: Self) -> Self {
        TldBreakdown {
            idns: self.idns.merge(later.idns),
            vt: self.vt.merge(later.vt),
            q: self.q.merge(later.q),
            b: self.b.merge(later.b),
            union: self.union.merge(later.union),
        }
    }
}

/// [`TldBreakdown`] while the scan is in flight: tallies keyed by the
/// columnar TLD id (a `u16` array index) instead of an owned `String` per
/// increment. [`TldPass::finish`] resolves the ids back to names, so the
/// output — including first-occurrence order, which TLD interning assigns
/// in corpus order — is unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TldPartial {
    idns: KeyedTally<u16>,
    vt: KeyedTally<u16>,
    q: KeyedTally<u16>,
    b: KeyedTally<u16>,
    union: KeyedTally<u16>,
}

impl Merge for TldPartial {
    fn merge(self, later: Self) -> Self {
        TldPartial {
            idns: self.idns.merge(later.idns),
            vt: self.vt.merge(later.vt),
            q: self.q.merge(later.q),
            b: self.b.merge(later.b),
            union: self.union.merge(later.union),
        }
    }
}

/// Folds the Table I aggregates: one precomputed blacklist-bit row per IDN
/// registration, tallied by columnar TLD id.
#[derive(Debug, Clone, Copy)]
pub struct TldPass<'a> {
    columns: &'a CorpusColumns,
}

impl<'a> TldPass<'a> {
    /// Tallies the blacklist-bit columns of `columns`.
    pub fn new(columns: &'a CorpusColumns) -> Self {
        TldPass { columns }
    }

    fn resolve(&self, tally: KeyedTally<u16>) -> KeyedTally<String> {
        let mut out = KeyedTally::new();
        for (&id, n) in tally.iter() {
            out.add(self.columns.tld_name(id).to_string(), n);
        }
        out
    }
}

impl AnalysisPass for TldPass<'_> {
    type Partial = TldPartial;
    type Output = TldBreakdown;

    fn name(&self) -> &'static str {
        "analyze.pass.tld"
    }

    fn empty(&self) -> Self::Partial {
        TldPartial::default()
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        if rec.population != Population::Idn {
            return;
        }
        let i = rec.index as usize;
        let tld = self.columns.tld_id(i);
        partial.idns.incr(tld);
        let (vt, q, b) = self.columns.blacklist_bits(i);
        if vt {
            partial.vt.incr(tld);
        }
        if q {
            partial.q.incr(tld);
        }
        if b {
            partial.b.incr(tld);
        }
        if vt || q || b {
            partial.union.incr(tld);
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        TldBreakdown {
            idns: self.resolve(partial.idns),
            vt: self.resolve(partial.vt),
            q: self.resolve(partial.q),
            b: self.resolve(partial.b),
            union: self.resolve(partial.union),
        }
    }
}

/// Table II's aggregates: classifier language per IDN label, split into
/// all / blacklisted / organic (non-injected) populations.
#[derive(Debug, Clone, PartialEq)]
pub struct LanguageMix {
    /// Language per IDN, all registrations, first-occurrence order.
    pub all: KeyedTally<Language>,
    /// Language per blacklisted IDN.
    pub bad: KeyedTally<Language>,
    /// Organic (non-injected) registrations classified.
    pub organic_total: u64,
    /// Organic registrations classified east-Asian.
    pub organic_ea: u64,
    /// Organic registrations classified Chinese.
    pub organic_zh: u64,
}

impl LanguageMix {
    fn empty() -> Self {
        LanguageMix {
            all: KeyedTally::new(),
            bad: KeyedTally::new(),
            organic_total: 0,
            organic_ea: 0,
            organic_zh: 0,
        }
    }
}

impl Merge for LanguageMix {
    fn merge(self, later: Self) -> Self {
        LanguageMix {
            all: self.all.merge(later.all),
            bad: self.bad.merge(later.bad),
            organic_total: self.organic_total + later.organic_total,
            organic_ea: self.organic_ea + later.organic_ea,
            organic_zh: self.organic_zh + later.organic_zh,
        }
    }
}

/// Tallies the Table II populations from the precomputed language-id
/// column. Classification ran once per **distinct** SLD label when the
/// columns were finished ([`finish_columns`]); the per-record observe is a
/// column read plus three bit probes, touching no registration fields.
#[derive(Debug, Clone, Copy)]
pub struct LanguagePass<'a> {
    columns: &'a CorpusColumns,
}

impl<'a> LanguagePass<'a> {
    /// Reads the language-id and population-bit columns of `columns`.
    pub fn new(columns: &'a CorpusColumns) -> Self {
        LanguagePass { columns }
    }
}

impl AnalysisPass for LanguagePass<'_> {
    type Partial = LanguageMix;
    type Output = LanguageMix;

    fn name(&self) -> &'static str {
        "analyze.pass.language"
    }

    fn empty(&self) -> Self::Partial {
        LanguageMix::empty()
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        if rec.population != Population::Idn {
            return;
        }
        let i = rec.index as usize;
        let lang = Language::from_id(self.columns.lang_id(i));
        partial.all.incr(lang);
        if self.columns.is_malicious(i) {
            partial.bad.incr(lang);
        }
        // The injected attack populations carry no ground-truth language;
        // the organic mix excludes them (Table II's second paragraph).
        if self.columns.is_organic(i) {
            partial.organic_total += 1;
            if lang.is_east_asian() {
                partial.organic_ea += 1;
            }
            if lang == Language::Chinese {
                partial.organic_zh += 1;
            }
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial
    }
}

/// Table V's crawled content-category counts, one bucket per
/// [`UsageCategory::ALL`] entry and population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentCounts {
    /// IDN sample counts in [`UsageCategory::ALL`] order.
    pub idn: [u64; UsageCategory::ALL.len()],
    /// Non-IDN sample counts in [`UsageCategory::ALL`] order.
    pub non_idn: [u64; UsageCategory::ALL.len()],
}

impl Merge for ContentCounts {
    fn merge(mut self, later: Self) -> Self {
        for (a, b) in self.idn.iter_mut().zip(later.idn) {
            *a += b;
        }
        for (a, b) in self.non_idn.iter_mut().zip(later.non_idn) {
            *a += b;
        }
        self
    }
}

/// Table V's measurement: crawls the first [`CONTENT_SAMPLE`] records of
/// each population (the paper samples 500 domains per population) through
/// resolve → fetch → classify, and counts the categories the crawler
/// reports.
#[derive(Debug, Clone, Copy)]
pub struct ContentPass;

impl AnalysisPass for ContentPass {
    type Partial = ContentCounts;
    type Output = ContentCounts;

    fn name(&self) -> &'static str {
        "analyze.pass.content"
    }

    fn empty(&self) -> Self::Partial {
        ContentCounts {
            idn: [0; UsageCategory::ALL.len()],
            non_idn: [0; UsageCategory::ALL.len()],
        }
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        if rec.index >= CONTENT_SAMPLE {
            return;
        }
        let bucket = usage_index(sample_crawl(rec.reg));
        match rec.population {
            Population::Idn => partial.idn[bucket] += 1,
            Population::NonIdn => partial.non_idn[bucket] += 1,
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial
    }
}

/// The three passive-DNS activity populations Figures 2–4 compare.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PopulationActivity {
    /// Benign (non-blacklisted) IDN registrations.
    pub benign: ActivityAnalytics,
    /// Blacklisted IDN registrations.
    pub malicious: ActivityAnalytics,
    /// The non-IDN comparison population.
    pub non_idn: ActivityAnalytics,
    /// pDNS lookup hits tallied since the last per-shard flush — counter
    /// traffic is batched into one `Recorder::add` per shard so the hot
    /// loop never takes the registry lock per record.
    pub unflushed_hits: u64,
    /// pDNS lookup misses since the last per-shard flush.
    pub unflushed_misses: u64,
}

impl Merge for PopulationActivity {
    fn merge(mut self, later: Self) -> Self {
        self.benign.merge(later.benign);
        self.malicious.merge(later.malicious);
        self.non_idn.merge(later.non_idn);
        self.unflushed_hits += later.unflushed_hits;
        self.unflushed_misses += later.unflushed_misses;
        self
    }
}

/// One passive-DNS lookup per record, folded into the population split the
/// activity figures read (the batch pipeline repeated this traversal once
/// per figure).
#[derive(Debug, Clone, Copy)]
pub struct ActivityPass<'a> {
    pdns: &'a PdnsStore,
}

impl<'a> ActivityPass<'a> {
    /// Looks up against `pdns`.
    pub fn new(pdns: &'a PdnsStore) -> Self {
        ActivityPass { pdns }
    }
}

impl AnalysisPass for ActivityPass<'_> {
    type Partial = PopulationActivity;
    type Output = PopulationActivity;

    fn name(&self) -> &'static str {
        "analyze.pass.activity"
    }

    fn counters(&self) -> &'static [&'static str] {
        &PDNS_LOOKUP_COUNTERS
    }

    fn empty(&self) -> Self::Partial {
        PopulationActivity::default()
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        match self.pdns.lookup(&rec.reg.domain) {
            Some(aggregate) => {
                partial.unflushed_hits += 1;
                match rec.population {
                    Population::NonIdn => partial.non_idn.add(aggregate),
                    Population::Idn if rec.reg.malicious.is_some() => {
                        partial.malicious.add(aggregate);
                    }
                    Population::Idn => partial.benign.add(aggregate),
                }
            }
            None => partial.unflushed_misses += 1,
        }
    }

    fn shard_end(&self, partial: &mut Self::Partial, recorder: &dyn Recorder) {
        recorder.add("pdns.lookup.hit", partial.unflushed_hits);
        recorder.add("pdns.lookup.miss", partial.unflushed_misses);
        partial.unflushed_hits = 0;
        partial.unflushed_misses = 0;
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial
    }
}

/// Collects `punycode → unicode` for the domains Table III needs: the
/// portfolios of the top WHOIS registrants (the batch pipeline built this
/// map over the whole corpus).
#[derive(Debug, Clone, Copy)]
pub struct Table3UnicodePass<'a> {
    wanted: &'a HashSet<String>,
}

impl<'a> Table3UnicodePass<'a> {
    /// Collects only domains in `wanted` (the top-5 registrants'
    /// portfolios, see [`ScanInputs`]).
    pub fn new(wanted: &'a HashSet<String>) -> Self {
        Table3UnicodePass { wanted }
    }
}

impl AnalysisPass for Table3UnicodePass<'_> {
    type Partial = Vec<(String, String)>;
    type Output = HashMap<String, String>;

    fn name(&self) -> &'static str {
        "analyze.pass.table3"
    }

    fn empty(&self) -> Self::Partial {
        Vec::new()
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        if rec.population == Population::Idn && self.wanted.contains(rec.reg.domain.as_str()) {
            partial.push((rec.reg.domain.clone(), rec.reg.unicode.clone()));
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial.into_iter().collect()
    }
}

/// Marks which enumerated homographic candidates are actually registered
/// (Figure 6's registered/unregistered split over the whole IDN corpus).
#[derive(Debug, Clone, Copy)]
pub struct Fig6Pass<'a> {
    candidates: &'a HashSet<String>,
}

impl<'a> Fig6Pass<'a> {
    /// Checks membership against `candidates` (see
    /// [`crate::CandidateSurvey::fig6_pool`]).
    pub fn new(candidates: &'a HashSet<String>) -> Self {
        Fig6Pass { candidates }
    }
}

impl AnalysisPass for Fig6Pass<'_> {
    type Partial = Vec<String>;
    type Output = HashSet<String>;

    fn name(&self) -> &'static str {
        "analyze.pass.fig6"
    }

    fn empty(&self) -> Self::Partial {
        Vec::new()
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        if rec.population == Population::Idn && self.candidates.contains(rec.reg.domain.as_str()) {
            partial.push(rec.reg.domain.clone());
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial.into_iter().collect()
    }
}

/// The domains whose unicode form Table III renders: every domain held by
/// one of the top-5 registrant emails in the WHOIS corpus.
fn table3_wanted(whois: &[WhoisRecord]) -> HashSet<String> {
    let mut analytics = RegistrationAnalytics::new();
    analytics.extend(whois.iter());
    let mut wanted = HashSet::new();
    for (email, _) in analytics.top_registrants(5) {
        wanted.extend(analytics.domains_of(&email).iter().cloned());
    }
    wanted
}

/// Finishes the struct-of-arrays corpus columns the report passes read,
/// from the rows the generator's artifact traversal interned
/// ([`idnre_datagen::generate_traced`]): interned SLD labels, TLD ids, and
/// the per-record malicious/organic/blacklist bits, in corpus order.
///
/// What remains is the language-id column. Each **distinct** label is
/// classified once, in parallel over the interner, and the ids are
/// broadcast to the per-record column under the `analyze.columns` span.
/// The classifier is a pure function of the label string, so the
/// broadcast ids equal a per-record classification exactly, at any
/// thread count.
pub fn finish_columns(
    builder: ColumnsBuilder,
    threads: usize,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> CorpusColumns {
    let mut span = recorder.span_at("analyze.columns", parent, 0);
    let columns = builder.finish(|labels| {
        let clf = Classifier::global();
        let indices: Vec<u32> = (0..labels.len() as u32).collect();
        idnre_par::par_map(&indices, threads, |&i| {
            clf.classify(labels.resolve(Symbol::from_index(i as usize)))
                .id()
        })
    });
    span.add_records(columns.len() as u64);
    columns
}

/// The scan inputs that stay constant for a run: both detectors over the
/// ecosystem's brands, Table III's wanted set and Figure 6's candidate
/// pool. Built once; every [`ScanPlan`] of the run — the one-shot scan,
/// or each epoch's incremental fold and shadow rebuild — borrows them.
pub struct ScanInputs {
    /// The SSIM homograph detector, at the paper's 0.95 threshold.
    pub(crate) homograph: HomographDetector,
    semantic: SemanticDetector,
    table3_wanted: HashSet<String>,
    fig6_pool: HashSet<String>,
}

impl ScanInputs {
    /// Builds the detectors over `eco`'s brands, Table III's wanted set
    /// from its WHOIS corpus, and Figure 6's pool from `candidates`.
    pub fn new(eco: &Ecosystem, candidates: &CandidateSurvey) -> Self {
        let brands: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
        ScanInputs {
            homograph: HomographDetector::new(&brands, 0.95),
            semantic: SemanticDetector::new(&brands),
            table3_wanted: table3_wanted(&eco.whois),
            fig6_pool: candidates.fig6_pool(),
        }
    }

    /// Registers every pass on one scan, in a fixed order (the order
    /// telemetry spans and counters are pinned in). The homograph pass
    /// reads its label skeletons from `skeletons`, which must cover
    /// `columns`. With `mining` set, the portfolio miner's pass A — the
    /// skeleton-LSH [`BucketIndexPass`] — is fused onto the same
    /// traversal, registered last so the default nine passes keep their
    /// telemetry positions; the folded index comes back from
    /// [`ScanPlan::run_at`].
    pub fn plan<'p>(
        &'p self,
        columns: &'p CorpusColumns,
        skeletons: &'p SkeletonCache,
        pdns: &'p PdnsStore,
        mining: Option<&'p MiningPlan>,
    ) -> ScanPlan<'p> {
        let mut scan = ShardedScan::new();
        let handles = PlanHandles {
            homograph: scan.register(ColumnedHomographPass::new(
                &self.homograph,
                columns,
                skeletons,
            )),
            semantic1: scan.register(Semantic1Pass::new(&self.semantic)),
            semantic2: scan.register(Semantic2Pass::new(&self.semantic)),
            tld: scan.register(TldPass::new(columns)),
            language: scan.register(LanguagePass::new(columns)),
            content: scan.register(ContentPass),
            activity: scan.register(ActivityPass::new(pdns)),
            table3: scan.register(Table3UnicodePass::new(&self.table3_wanted)),
            fig6: scan.register(Fig6Pass::new(&self.fig6_pool)),
            bucket: mining.map(|plan| scan.register(BucketIndexPass::new(columns, plan))),
        };
        ScanPlan { scan, handles }
    }
}

/// The full pass roster for one fold of the corpus: both detectors plus
/// every report aggregator, registered on one [`ShardedScan`] by
/// [`ScanInputs::plan`].
pub struct ScanPlan<'p> {
    scan: ShardedScan<'p>,
    handles: PlanHandles,
}

/// The receipts of a [`ScanPlan`]'s passes, redeemed after its fold.
struct PlanHandles {
    homograph: PassHandle<Vec<HomographFinding>>,
    semantic1: PassHandle<Vec<SemanticFinding>>,
    semantic2: PassHandle<Vec<SemanticFinding>>,
    tld: PassHandle<TldBreakdown>,
    language: PassHandle<LanguageMix>,
    content: PassHandle<ContentCounts>,
    activity: PassHandle<PopulationActivity>,
    table3: PassHandle<HashMap<String, String>>,
    fig6: PassHandle<HashSet<String>>,
    bucket: Option<PassHandle<BucketIndex>>,
}

impl PlanHandles {
    /// Redeems every handle against a finished fold.
    fn redeem(&self, mut result: ScanResult) -> (ScanOutputs, Option<BucketIndex>) {
        let outputs = ScanOutputs {
            homographs: result.take(&self.homograph),
            semantic1: result.take(&self.semantic1),
            tld: result.take(&self.tld),
            language: result.take(&self.language),
            content: result.take(&self.content),
            activity: result.take(&self.activity),
            semantic2: result.take(&self.semantic2),
            table3_unicode: result.take(&self.table3),
            fig6_registered: result.take(&self.fig6),
            idn_len: result.idn_len(),
            non_idn_len: result.non_idn_len(),
        };
        let bucket = self.bucket.as_ref().map(|handle| result.take(handle));
        (outputs, bucket)
    }
}

impl ScanPlan<'_> {
    /// Probes every registered pass's merge for associativity on this
    /// corpus split (see [`ShardedScan::merge_is_associative`]).
    ///
    /// # Errors
    ///
    /// Returns `Err(pass_name)` for the first non-associative pass.
    pub fn check_associative(
        &self,
        source: &dyn RecordSource,
        chunk_size: usize,
        recorder: &dyn Recorder,
    ) -> Result<(), &'static str> {
        self.scan.merge_is_associative(source, chunk_size, recorder)
    }

    /// Runs the fused traversal, parenting `analyze.scan` (and the
    /// per-pass groups beneath it) at `parent` in the span tree, and
    /// redeems every handle. Next to the fold comes the skeleton-LSH
    /// bucket index — `Some` only on plans built with a [`MiningPlan`].
    pub fn run_at(
        self,
        source: &dyn RecordSource,
        shard_size: usize,
        threads: usize,
        recorder: &dyn Recorder,
        parent: SpanCtx,
    ) -> (ScanOutputs, Option<BucketIndex>) {
        let result = self
            .scan
            .run_at(source, shard_size, threads, recorder, parent);
        self.handles.redeem(result)
    }

    /// Advances one epoch through `state` instead of folding every shard:
    /// only shards the delta stream dirtied (plus cache misses) re-fold;
    /// clean shards reuse their resident partials. Outputs are
    /// byte-identical to [`ScanPlan::run_at`] over the same source at
    /// `state`'s shard size. Mining plans are one-shot by design and not
    /// supported here ([`crate::CliFlags`] rejects the combination).
    pub fn run_epoch(
        self,
        state: &mut EpochState,
        source: &dyn RecordSource,
        threads: usize,
        deltas: &DeltaStream,
        recorder: &dyn Recorder,
        parent: SpanCtx,
    ) -> (ScanOutputs, EpochStats) {
        debug_assert!(
            self.handles.bucket.is_none(),
            "mining pass A is one-shot; epochs exclude --mine-portfolios"
        );
        let (result, stats) = state.advance(self.scan, source, threads, deltas, recorder, parent);
        (self.handles.redeem(result).0, stats)
    }
}
