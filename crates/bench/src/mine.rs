//! Zone-wide homograph portfolio mining: the two-pass skeleton-LSH plan.
//!
//! The paper only checks IDNs against a fixed brand list because all-pairs
//! confusable search over the census was compute-bound. This module mines
//! confusable *pairs* among all registered domains instead, ShamFinder
//! style, in two passes over the interned corpus columns:
//!
//! - **Pass A** ([`BucketIndexPass`], an ordinary `AnalysisPass` fused
//!   into the main [`crate::passes::ScanPlan`] traversal) folds a
//!   [`BucketIndex`] keyed by the FNV hash of each domain's
//!   confusable-folded skeleton. The hash is assembled from precomputed
//!   pieces — one partial hash per *distinct* label, one folded suffix per
//!   TLD — so the per-record cost is a few table reads and an 8-byte hash
//!   continuation; the index stores packed [`LabelRef`]s, never strings.
//! - **Pass B** ([`verify_buckets`], one parallel map over the
//!   **non-singleton** buckets) renders each bucket's members once and
//!   SSIM-verifies every in-bucket pair with the same [`pair_score`]
//!   kernel the brand detector uses. [`mine_portfolios`] runs it inside
//!   one `mine.pairs` span, records the [`MINE_COUNTERS`] totals once,
//!   then clusters the verified pairs into squatter *portfolios* by a
//!   deterministic union-find keyed by symbol order and joins them against
//!   WHOIS registrants and pDNS activity.
//!
//! Candidate generation therefore drops from `O(n²)` pairs to
//! `O(Σ bucket²)`; [`verified_pairs_exhaustive`] retains the all-pairs
//! oracle, which the tests hold the indexed result (the same
//! [`verify_buckets`], via [`verified_pairs_lsh`]) to, along with the
//! candidate pairs each path generates.
//!
//! Mined output is byte-identical across thread counts and shard sizes:
//! the bucket-index merge is associative (first-occurrence key order,
//! concatenated entry vectors), buckets are verified independently and
//! kept in index order, the pair list is sorted, and the union-find root
//! is always the minimum `(sld, tld)` member.

use idnre_analyze::{AnalysisPass, Merge, Observed, Population};
use idnre_arena::{BucketIndex, CorpusColumns, FnvHasher, LabelRef, Symbol};
use idnre_core::{pair_score, tld_suffix_skeletons};
use idnre_datagen::KeyedCorpus;
use idnre_render::TextBitmap;
use idnre_telemetry::{Recorder, SpanCtx};
use std::collections::HashMap;
use std::hash::Hasher;

/// Ledger stage of the bucket-index fold (pass A).
pub const BUCKET_STAGE: &str = "analyze.pass.bucket_index";

/// Stage of pass B and the portfolio join: one span per mined run, after
/// the fused scan and outside its `analyze.pass.` namespace.
pub const PAIRS_STAGE: &str = "mine.pairs";

/// Counters pass B totals, recorded once per mined run.
pub const MINE_COUNTERS: [&str; 3] = [
    "mine.pairs.candidates",
    "mine.pairs.skip.ascii",
    "mine.pairs.verified",
];

/// SSIM bar for a verified confusable pair — the paper's 0.95 homograph
/// threshold, unchanged.
pub const MINE_THRESHOLD: f64 = 0.95;

/// Precomputed key material for one corpus: everything both passes need
/// to turn a column row into a bucket key or a display form without
/// re-deriving strings per record.
pub struct MiningPlan {
    /// Per distinct label: the FNV-1a state after its confusable-folded
    /// skeleton, which each row's key continues over its TLD suffix.
    label_hash: Vec<FnvHasher>,
    /// Per distinct label: whether it is pure ASCII (an ASCII label can
    /// only pair *with* an IDN, never with another ASCII label).
    label_ascii: Vec<bool>,
    /// Per TLD id: the folded `.tld` suffix bytes (decoded form, because
    /// display forms decode iTLDs too).
    tld_suffix: Vec<Vec<u8>>,
    /// Per TLD id: the decoded TLD, for reassembling display forms.
    tld_unicode: Vec<String>,
}

impl MiningPlan {
    /// Hashes every distinct label's skeleton, as `columns` stores it, and
    /// folds every TLD suffix ([`tld_suffix_skeletons`], which the
    /// homograph pass reads too).
    pub fn new(columns: &CorpusColumns) -> Self {
        let (label_hash, label_ascii) = columns
            .labels()
            .iter()
            .enumerate()
            .map(|(i, label)| {
                // ASCII passes through the skeleton untouched.
                let folded = columns.label_skeleton(Symbol::from_index(i));
                let mut hasher = FnvHasher::default();
                hasher.write(folded.unwrap_or(label).as_bytes());
                (hasher, folded.is_none())
            })
            .unzip();
        let tld_suffix = tld_suffix_skeletons(columns)
            .into_iter()
            .map(String::into_bytes)
            .collect();
        let tld_unicode = columns
            .tlds()
            .iter()
            .map(|tld| idnre_idna::to_unicode(tld).unwrap_or_else(|_| tld.to_string()))
            .collect();
        MiningPlan {
            label_hash,
            label_ascii,
            tld_suffix,
            tld_unicode,
        }
    }

    /// The bucket key of one column row: the FNV-1a hash of the full
    /// folded display form, assembled from the precomputed pieces.
    #[inline]
    fn key(&self, sld: Symbol, tld: u16) -> u64 {
        let mut hasher = self.label_hash[sld.index()];
        hasher.write(&self.tld_suffix[usize::from(tld)]);
        hasher.finish()
    }

    /// The display form behind a [`LabelRef`].
    fn unicode_of(&self, columns: &CorpusColumns, member: LabelRef) -> String {
        format!(
            "{}.{}",
            columns.labels().resolve(member.sld),
            self.tld_unicode[usize::from(member.tld)]
        )
    }
}

/// Pass A: folds the skeleton-LSH bucket index during the main corpus
/// traversal (IDN population only — the columns hold one row per IDN).
pub struct BucketIndexPass<'a> {
    columns: &'a CorpusColumns,
    plan: &'a MiningPlan,
}

impl<'a> BucketIndexPass<'a> {
    /// Buckets rows of `columns` under keys from `plan`.
    pub fn new(columns: &'a CorpusColumns, plan: &'a MiningPlan) -> Self {
        BucketIndexPass { columns, plan }
    }
}

/// Newtype partial so the arena's [`BucketIndex`] can carry the analyze
/// crate's [`Merge`] contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketPartial(pub BucketIndex);

impl Merge for BucketPartial {
    fn merge(mut self, later: Self) -> Self {
        self.0.merge(later.0);
        self
    }
}

impl AnalysisPass for BucketIndexPass<'_> {
    type Partial = BucketPartial;
    type Output = BucketIndex;

    fn name(&self) -> &'static str {
        BUCKET_STAGE
    }

    fn empty(&self) -> Self::Partial {
        BucketPartial::default()
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        if rec.population != Population::Idn {
            return;
        }
        let row = rec.index as usize;
        let sld = self.columns.sld_symbol(row);
        let tld = self.columns.tld_id(row);
        partial
            .0
            .insert(self.plan.key(sld, tld), LabelRef { sld, tld });
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial.0
    }
}

/// One SSIM-verified confusable pair, in packed form. `a` precedes `b`
/// in bucket (corpus) order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifiedPair {
    /// Earlier member.
    pub a: LabelRef,
    /// Later member.
    pub b: LabelRef,
    /// Their SSIM score (≥ [`MINE_THRESHOLD`]).
    pub ssim: f64,
}

/// Renders each member of a bucket once and SSIM-scores every in-bucket
/// pair; the verification kernel [`verify_buckets`] maps over buckets.
/// Returns `(candidate_pairs, ascii_skipped, verified)`.
fn bucket_pairs(
    members: &[LabelRef],
    columns: &CorpusColumns,
    plan: &MiningPlan,
) -> (u64, u64, Vec<VerifiedPair>) {
    // Duplicate registrations of one domain share a `LabelRef`; pairing
    // them with themselves (or re-verifying the same pair through each
    // copy) is wasted SSIM work, so the bucket collapses to its distinct
    // members first.
    let mut members = members.to_vec();
    members.sort_unstable();
    members.dedup();
    let rendered: Vec<(bool, TextBitmap)> = members
        .iter()
        .map(|&m| {
            let ascii = plan.label_ascii[m.sld.index()];
            let bitmap = TextBitmap::new(&plan.unicode_of(columns, m));
            (ascii, bitmap)
        })
        .collect();
    let mut candidates = 0u64;
    let mut ascii_skipped = 0u64;
    let mut verified = Vec::new();
    for i in 0..members.len() {
        for j in i + 1..members.len() {
            candidates += 1;
            if rendered[i].0 && rendered[j].0 {
                ascii_skipped += 1; // two ASCII labels cannot homograph
                continue;
            }
            let Some(score) = pair_score(&rendered[i].1, &rendered[j].1) else {
                continue;
            };
            if score >= MINE_THRESHOLD {
                verified.push(VerifiedPair {
                    a: members[i],
                    b: members[j],
                    ssim: score,
                });
            }
        }
    }
    (candidates, ascii_skipped, verified)
}

/// One confusable cluster with its registrant/activity join.
#[derive(Debug, Clone, PartialEq)]
pub struct Portfolio {
    /// Members sorted by `(sld, tld)` symbol order.
    pub members: Vec<PortfolioMember>,
}

impl Portfolio {
    /// Distinct known registrant emails across the members.
    pub fn registrants(&self) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for member in &self.members {
            if let Some(email) = &member.registrant {
                if !seen.contains(&email.as_str()) {
                    seen.push(email);
                }
            }
        }
        seen
    }

    /// Total pDNS queries across the members.
    pub fn query_count(&self) -> u64 {
        self.members.iter().map(|m| m.query_count).sum()
    }
}

/// One portfolio member with its WHOIS registrant and pDNS activity.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioMember {
    /// ACE form.
    pub domain: String,
    /// Display form.
    pub unicode: String,
    /// WHOIS registrant email, when the record exists and is not
    /// privacy-shielded.
    pub registrant: Option<String>,
    /// pDNS query volume (0 when passive DNS never saw the domain).
    pub query_count: u64,
    /// pDNS active days (0 when never seen).
    pub active_days: i64,
}

/// Deterministic union-find over the verified pairs: the representative is
/// always the minimum `(sld, tld)` member, and unions only ever attach the
/// larger root under the smaller, so the final partition — and the order
/// below — depends only on the pair *set*, never on pair order.
/// Returns clusters sorted by root, members sorted within each.
fn cluster(pairs: &[VerifiedPair]) -> Vec<Vec<LabelRef>> {
    fn find(parents: &mut HashMap<LabelRef, LabelRef>, x: LabelRef) -> LabelRef {
        let parent = *parents.get(&x).unwrap_or(&x);
        if parent == x {
            x
        } else {
            let root = find(parents, parent);
            parents.insert(x, root);
            root
        }
    }
    let mut parents: HashMap<LabelRef, LabelRef> = HashMap::new();
    for pair in pairs {
        let ra = find(&mut parents, pair.a);
        let rb = find(&mut parents, pair.b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parents.insert(hi, lo);
        }
    }
    let mut members: Vec<LabelRef> = pairs.iter().flat_map(|p| [p.a, p.b]).collect();
    members.sort_unstable();
    members.dedup();
    let mut clusters: HashMap<LabelRef, Vec<LabelRef>> = HashMap::new();
    for member in members {
        let root = find(&mut parents, member);
        clusters.entry(root).or_default().push(member);
    }
    let mut out: Vec<(LabelRef, Vec<LabelRef>)> = clusters.into_iter().collect();
    out.sort_unstable_by_key(|(root, _)| *root);
    out.into_iter()
        .map(|(_, mut cluster)| {
            cluster.sort_unstable();
            cluster
        })
        .collect()
}

/// Everything `--mine-portfolios` adds to a run: index statistics, the
/// verified pair count and the joined portfolios. Plain strings throughout,
/// so the corpus columns can be dropped after the scan.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningOutputs {
    /// Distinct skeleton buckets over the IDN corpus.
    pub buckets: u64,
    /// Buckets with more than one member (the only ones pass B visits).
    pub non_singleton_buckets: u64,
    /// In-bucket candidate pairs generated.
    pub candidate_pairs: u64,
    /// Pairs skipped because both labels were ASCII.
    pub ascii_skipped: u64,
    /// SSIM-verified confusable pairs.
    pub verified_pairs: u64,
    /// Clustered squatter portfolios, WHOIS/pDNS-joined.
    pub portfolios: Vec<Portfolio>,
}

/// Pass B: SSIM-verifies every pair inside the non-singleton buckets of
/// `index`, the buckets mapped over `threads` workers. Buckets are
/// independent and `par_map` keeps their index order, so nothing here
/// depends on `threads`. Returns `(candidate_pairs, ascii_skipped,
/// verified)`, the pairs normalized.
pub fn verify_buckets(
    index: &BucketIndex,
    columns: &CorpusColumns,
    plan: &MiningPlan,
    threads: usize,
) -> (u64, u64, Vec<VerifiedPair>) {
    let buckets: Vec<&[LabelRef]> = index
        .iter()
        .map(|(_, members)| members)
        .filter(|members| members.len() > 1)
        .collect();
    let verdicts = idnre_par::par_map(&buckets, threads, |members| {
        bucket_pairs(members, columns, plan)
    });
    let mut candidate_pairs = 0;
    let mut ascii_skipped = 0;
    let mut verified = Vec::new();
    for (candidates, skipped, mut pairs) in verdicts {
        candidate_pairs += candidates;
        ascii_skipped += skipped;
        verified.append(&mut pairs);
    }
    (candidate_pairs, ascii_skipped, normalize(verified))
}

/// Runs pass B over `index` and assembles the full [`MiningOutputs`]:
/// clusters the verified pairs into portfolios and joins each member
/// against WHOIS registrants and pDNS activity, regenerated by `corpus`
/// from the index of the member's record. One [`PAIRS_STAGE`] span under
/// `parent` covers the whole tail, its records the non-singleton buckets
/// verified.
pub fn mine_portfolios(
    index: &BucketIndex,
    columns: &CorpusColumns,
    plan: &MiningPlan,
    corpus: &KeyedCorpus,
    threads: usize,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> MiningOutputs {
    let mut span = recorder.span_at(PAIRS_STAGE, parent, 0);
    recorder.preregister(&MINE_COUNTERS);
    let (candidate_pairs, ascii_skipped, pairs) = verify_buckets(index, columns, plan, threads);
    let totals = [candidate_pairs, ascii_skipped, pairs.len() as u64];
    for (name, total) in MINE_COUNTERS.iter().zip(totals) {
        recorder.add(name, total);
    }
    let portfolios = cluster(&pairs);
    // One pass over the column rows maps each member's (label, TLD) to the
    // index of a record with that domain: its WHOIS and pDNS join key.
    let mut record_of: HashMap<LabelRef, u64> = portfolios
        .iter()
        .flatten()
        .map(|&member| (member, 0))
        .collect();
    for row in 0..columns.len() {
        let member = LabelRef {
            sld: columns.sld_symbol(row),
            tld: columns.tld_id(row),
        };
        if let Some(record) = record_of.get_mut(&member) {
            *record = row as u64;
        }
    }
    let member_of = |member: LabelRef| {
        let unicode = plan.unicode_of(columns, member);
        let domain = idnre_idna::to_ascii(&unicode).unwrap_or_else(|_| unicode.clone());
        let record = record_of[&member];
        let (query_count, active_days) = match corpus.pdns_aggregate(record) {
            Some(aggregate) => (aggregate.query_count, aggregate.active_days()),
            None => (0, 0),
        };
        PortfolioMember {
            registrant: corpus
                .whois_record(record)
                .and_then(|whois| whois.registrant_email),
            domain,
            unicode,
            query_count,
            active_days,
        }
    };
    let portfolios = portfolios
        .into_iter()
        .map(|members| Portfolio {
            members: members.into_iter().map(&member_of).collect(),
        })
        .collect();
    let non_singleton_buckets = index.non_singleton_count() as u64;
    span.add_records(non_singleton_buckets);
    MiningOutputs {
        buckets: index.len() as u64,
        non_singleton_buckets,
        candidate_pairs,
        ascii_skipped,
        verified_pairs: pairs.len() as u64,
        portfolios,
    }
}

/// Normalizes a pair list: each pair's endpoints ordered by `(sld, tld)`,
/// the list sorted the same way, duplicates (the same pair re-observed
/// through duplicate registrations of one domain) collapsed.
fn normalize(mut pairs: Vec<VerifiedPair>) -> Vec<VerifiedPair> {
    for pair in &mut pairs {
        if pair.b < pair.a {
            std::mem::swap(&mut pair.a, &mut pair.b);
        }
    }
    pairs.sort_unstable_by_key(|p| (p.a, p.b));
    pairs.dedup_by_key(|p| (p.a, p.b));
    pairs
}

/// The LSH path over every column row, standalone: bucket the rows under
/// pass A's keys, then run pass B's [`verify_buckets`]. Returns
/// normalized pairs.
pub fn verified_pairs_lsh(
    columns: &CorpusColumns,
    plan: &MiningPlan,
    threads: usize,
) -> Vec<VerifiedPair> {
    let mut index = BucketIndex::new();
    for row in 0..columns.len() {
        let sld = columns.sld_symbol(row);
        let tld = columns.tld_id(row);
        index.insert(plan.key(sld, tld), LabelRef { sld, tld });
    }
    verify_buckets(&index, columns, plan, threads).2
}

/// The exhaustive oracle over every column row: every pair of rows (no
/// skeleton pre-filter) of equal cell count, SSIM-scored with the same
/// kernel, at least one side a genuine IDN label. `O(rows²)` pair
/// generation — the thing the LSH index exists to avoid; the tests hold
/// [`verified_pairs_lsh`] to it.
pub fn verified_pairs_exhaustive(
    columns: &CorpusColumns,
    plan: &MiningPlan,
    threads: usize,
) -> Vec<VerifiedPair> {
    let rows: Vec<usize> = (0..columns.len()).collect();
    let rendered: Vec<(LabelRef, bool, TextBitmap)> = idnre_par::par_map(&rows, threads, |&row| {
        let member = LabelRef {
            sld: columns.sld_symbol(row),
            tld: columns.tld_id(row),
        };
        let ascii = plan.label_ascii[member.sld.index()];
        let bitmap = TextBitmap::new(&plan.unicode_of(columns, member));
        (member, ascii, bitmap)
    });
    let mut by_cells: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, (_, _, bitmap)) in rendered.iter().enumerate() {
        by_cells.entry(bitmap.cells()).or_default().push(i);
    }
    let verified = idnre_par::par_map(&rows, threads, |&i| {
        let (member_i, ascii_i, bitmap_i) = &rendered[i];
        let group = &by_cells[&bitmap_i.cells()];
        let position = group.partition_point(|&j| j <= i);
        let mut found = Vec::new();
        for &j in &group[position..] {
            let (member_j, ascii_j, bitmap_j) = &rendered[j];
            if member_i == member_j {
                continue; // duplicate registrations of one domain, not a pair
            }
            if *ascii_i && *ascii_j {
                continue;
            }
            let Some(score) = pair_score(bitmap_i, bitmap_j) else {
                continue;
            };
            if score >= MINE_THRESHOLD {
                found.push(VerifiedPair {
                    a: *member_i,
                    b: *member_j,
                    ssim: score,
                });
            }
        }
        found
    });
    normalize(verified.into_iter().flatten().collect())
}

/// The `## Portfolio mining` report section appended by
/// `--mine-portfolios`.
pub fn render_mining(m: &MiningOutputs) -> String {
    let mut body = String::new();
    body.push_str(&format!(
        "Skeleton-LSH over the registered IDN corpus: {} buckets, {} \
         non-singleton; {} candidate pairs generated in-bucket ({} skipped \
         as ASCII-only), {} verified at SSIM ≥ {:.2}, clustering into {} \
         portfolios.\n\n",
        m.buckets,
        m.non_singleton_buckets,
        m.candidate_pairs,
        m.ascii_skipped,
        m.verified_pairs,
        MINE_THRESHOLD,
        m.portfolios.len(),
    ));
    body.push_str("| portfolio | members | registrants | pDNS queries | sample members |\n");
    body.push_str("|---:|---:|---:|---:|---|\n");
    for (rank, portfolio) in m.portfolios.iter().take(10).enumerate() {
        let sample: Vec<&str> = portfolio
            .members
            .iter()
            .take(3)
            .map(|member| member.unicode.as_str())
            .collect();
        let registrants = portfolio.registrants();
        body.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            rank + 1,
            portfolio.members.len(),
            registrants.len(),
            portfolio.query_count(),
            sample.join(", "),
        ));
    }
    if m.portfolios.len() > 10 {
        body.push_str(&format!(
            "\n({} further portfolios elided.)\n",
            m.portfolios.len() - 10
        ));
    }
    format!(
        "## Portfolio mining — zone-wide confusable pairs\n\n\
         *Paper anchor:* the paper stops at the Alexa-1K brand list \
         (Section VI-B); this is the registrant/activity join over \
         all-zone confusable portfolios it left on the table.\n\n{body}\n"
    )
}
