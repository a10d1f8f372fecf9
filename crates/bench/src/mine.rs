//! Zone-wide homograph portfolio mining: the two-pass skeleton-LSH plan
//! (ROADMAP item 3).
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
//! - **Pass B** ([`PairMinePass`], an [`ItemPass`] driven by
//!   [`idnre_analyze::fold_items`]) re-scans only the **non-singleton**
//!   buckets: each bucket's members are rendered once, every in-bucket
//!   pair is SSIM-verified with the same [`pair_score`] kernel the brand
//!   detector uses, and verified pairs are clustered into squatter
//!   *portfolios* by a deterministic union-find keyed by symbol order,
//!   joined against WHOIS registrants and pDNS activity.
//!
//! Candidate generation therefore drops from `O(n²)` pairs to
//! `O(Σ bucket²)`; [`verified_pairs_exhaustive`] retains the all-pairs
//! oracle (capped, like `detect_exhaustive`) that pins the indexed result
//! to the exhaustive one and anchors the measured speedup in
//! `BENCH_pipeline.json`.
//!
//! Every structure here follows the fold/merge contract: bucket-index
//! merge is associative (first-occurrence key order, concatenated entry
//! vectors), pair partials concatenate in chunk order, and the union-find
//! root is always the minimum `(sld, tld)` member — so mined output is
//! byte-identical across thread counts and shard sizes.

use idnre_analyze::{fold_items, AnalysisPass, ItemPass, Merge, Observed, Population};
use idnre_arena::{fnv1a, BucketIndex, CorpusColumns, LabelRef};
use idnre_core::{pair_score, SkeletonCache};
use idnre_datagen::Ecosystem;
use idnre_pdns::PdnsStore;
use idnre_render::{render_text, GrayImage};
use idnre_telemetry::{Recorder, SpanCtx};
use std::collections::HashMap;

/// Ledger stage of the bucket-index fold (pass A).
pub const BUCKET_STAGE: &str = "analyze.pass.bucket_index";

/// Ledger stage of the pair-mining fold (pass B).
pub const PAIR_MINE_STAGE: &str = "analyze.pass.pair_mine";

/// Counters the pair miner tallies in its partial and flushes per chunk.
pub const MINE_COUNTERS: [&str; 3] = [
    "mine.pairs.candidates",
    "mine.pairs.skip.ascii",
    "mine.pairs.verified",
];

/// SSIM bar for a verified confusable pair — the paper's 0.95 homograph
/// threshold, unchanged.
pub const MINE_THRESHOLD: f64 = 0.95;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Continues an FNV-1a hash over more bytes (the label part is hashed
/// once per distinct label; the TLD suffix continues it per record).
#[inline]
fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Precomputed key material for one corpus: everything both passes need
/// to turn a column row into a bucket key or a display form without
/// re-deriving strings per record.
pub struct MiningPlan {
    /// Per distinct label: FNV-1a over its confusable-folded skeleton.
    label_hash: Vec<u64>,
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
    /// Hashes every distinct label's skeleton and folds every TLD suffix,
    /// reading both from `skeletons` (the run's one precompute), which
    /// must cover `columns`.
    pub fn new(columns: &CorpusColumns, skeletons: &SkeletonCache) -> Self {
        let (label_hash, label_ascii) = columns
            .labels()
            .iter()
            .enumerate()
            .map(|(i, label)| match skeletons.label(i) {
                // ASCII passes through the skeleton untouched.
                None => (fnv1a(label.as_bytes()), true),
                Some(folded) => (fnv1a(folded.as_bytes()), false),
            })
            .unzip();
        let (tld_suffix, tld_unicode) = columns
            .tlds()
            .iter()
            .enumerate()
            .map(|(id, tld)| {
                let decoded = idnre_idna::to_unicode(tld).unwrap_or_else(|_| tld.to_string());
                (skeletons.tld_suffix(id as u16).as_bytes().to_vec(), decoded)
            })
            .unzip();
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
    fn key(&self, sld: idnre_arena::Symbol, tld: u16) -> u64 {
        fnv1a_extend(
            self.label_hash[sld.index()],
            &self.tld_suffix[usize::from(tld)],
        )
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

/// One non-singleton bucket handed to pass B.
#[derive(Debug, Clone)]
pub struct MineBucket {
    /// The bucket's members, in corpus first-occurrence order.
    pub members: Vec<LabelRef>,
}

/// Renders each member of a bucket once and SSIM-scores every in-bucket
/// pair; the shared verification kernel of pass B and the LSH probe.
/// Returns `(candidate_pairs, ascii_skipped, verified)`.
fn bucket_pairs(
    members: &[LabelRef],
    columns: &CorpusColumns,
    plan: &MiningPlan,
    threshold: f64,
) -> (u64, u64, Vec<VerifiedPair>) {
    // Duplicate registrations of one domain share a `LabelRef`; pairing
    // them with themselves (or re-verifying the same pair through each
    // copy) is wasted SSIM work, so the bucket collapses to its distinct
    // members first.
    let mut members = members.to_vec();
    members.sort_unstable();
    members.dedup();
    let rendered: Vec<(bool, GrayImage)> = members
        .iter()
        .map(|&m| {
            let ascii = plan.label_ascii[m.sld.index()];
            let image = render_text(&plan.unicode_of(columns, m));
            (ascii, image)
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
            if score >= threshold {
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

/// Pass B partial: totals merged across chunks, plus unflushed counter
/// tallies batched into one `Recorder::add` per chunk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairPartial {
    candidate_pairs: u64,
    ascii_skipped: u64,
    verified: Vec<VerifiedPair>,
    unflushed: [u64; 3],
}

impl Merge for PairPartial {
    fn merge(mut self, mut later: Self) -> Self {
        self.candidate_pairs += later.candidate_pairs;
        self.ascii_skipped += later.ascii_skipped;
        self.verified.append(&mut later.verified);
        for (mine, theirs) in self.unflushed.iter_mut().zip(later.unflushed) {
            *mine += theirs;
        }
        self
    }
}

/// What pass B finishes into: the verified pair list plus the clustered,
/// WHOIS/pDNS-joined portfolios.
#[derive(Debug, Clone, PartialEq)]
pub struct PairMineOutputs {
    /// In-bucket pairs generated.
    pub candidate_pairs: u64,
    /// Pairs skipped because both labels were ASCII.
    pub ascii_skipped: u64,
    /// Verified pairs, resolved to display forms.
    pub verified: Vec<VerifiedPairOut>,
    /// Clustered squatter portfolios.
    pub portfolios: Vec<Portfolio>,
}

/// A verified pair in resolved (display-form) terms.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedPairOut {
    /// Earlier member's display form.
    pub a: String,
    /// Later member's display form.
    pub b: String,
    /// SSIM score.
    pub ssim: f64,
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
    /// ACE form (the WHOIS/pDNS join key).
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

/// Pass B: SSIM-verifies every in-bucket pair and clusters the verdicts
/// into portfolios. Chunked over buckets by [`idnre_analyze::fold_items`];
/// the finish step runs the union-find and the WHOIS/pDNS join, so the
/// whole mining tail is attributed to the `analyze.pass.pair_mine` stage.
pub struct PairMinePass<'a> {
    columns: &'a CorpusColumns,
    plan: &'a MiningPlan,
    /// `ACE domain → registrant email` for the portfolio join.
    registrants: HashMap<String, String>,
    pdns: &'a PdnsStore,
    threshold: f64,
}

impl<'a> PairMinePass<'a> {
    /// Builds the pass with its WHOIS join table.
    pub fn new(columns: &'a CorpusColumns, plan: &'a MiningPlan, eco: &'a Ecosystem) -> Self {
        let mut registrants = HashMap::new();
        for record in &eco.whois {
            if let Some(email) = &record.registrant_email {
                registrants.insert(record.domain.clone(), email.clone());
            }
        }
        PairMinePass {
            columns,
            plan,
            registrants,
            pdns: &eco.pdns,
            threshold: MINE_THRESHOLD,
        }
    }

    fn member_of(&self, member: LabelRef) -> PortfolioMember {
        let unicode = self.plan.unicode_of(self.columns, member);
        let domain = idnre_idna::to_ascii(&unicode).unwrap_or_else(|_| unicode.clone());
        let (query_count, active_days) = match self.pdns.lookup(&domain) {
            Some(aggregate) => (aggregate.query_count, aggregate.active_days()),
            None => (0, 0),
        };
        PortfolioMember {
            registrant: self.registrants.get(&domain).cloned(),
            domain,
            unicode,
            query_count,
            active_days,
        }
    }
}

impl ItemPass<MineBucket> for PairMinePass<'_> {
    type Partial = PairPartial;
    type Output = PairMineOutputs;

    fn name(&self) -> &'static str {
        PAIR_MINE_STAGE
    }

    fn counters(&self) -> &'static [&'static str] {
        &MINE_COUNTERS
    }

    fn empty(&self) -> Self::Partial {
        PairPartial::default()
    }

    fn observe(&self, partial: &mut Self::Partial, bucket: &MineBucket, _: u64, _: &dyn Recorder) {
        let (candidates, ascii_skipped, mut verified) =
            bucket_pairs(&bucket.members, self.columns, self.plan, self.threshold);
        partial.candidate_pairs += candidates;
        partial.ascii_skipped += ascii_skipped;
        partial.unflushed[0] += candidates;
        partial.unflushed[1] += ascii_skipped;
        partial.unflushed[2] += verified.len() as u64;
        partial.verified.append(&mut verified);
    }

    fn shard_end(&self, partial: &mut Self::Partial, recorder: &dyn Recorder) {
        for (name, tally) in MINE_COUNTERS.iter().zip(partial.unflushed.iter_mut()) {
            if *tally > 0 {
                recorder.add(name, *tally);
                *tally = 0;
            }
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        let pairs = normalize(partial.verified);
        let portfolios = cluster(&pairs)
            .into_iter()
            .map(|members| Portfolio {
                members: members.into_iter().map(|m| self.member_of(m)).collect(),
            })
            .collect();
        let verified = pairs
            .iter()
            .map(|pair| VerifiedPairOut {
                a: self.plan.unicode_of(self.columns, pair.a),
                b: self.plan.unicode_of(self.columns, pair.b),
                ssim: pair.ssim,
            })
            .collect();
        PairMineOutputs {
            candidate_pairs: partial.candidate_pairs,
            ascii_skipped: partial.ascii_skipped,
            verified,
            portfolios,
        }
    }
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
/// verified pair list and the joined portfolios. Plain strings throughout,
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
    pub verified: Vec<VerifiedPairOut>,
    /// Clustered squatter portfolios, WHOIS/pDNS-joined.
    pub portfolios: Vec<Portfolio>,
}

/// Runs pass B over the non-singleton buckets of `index` and assembles
/// the full [`MiningOutputs`]. `chunk_size`/`threads` shape the fold the
/// same way the corpus scan is shaped — output bytes do not depend on
/// either (the fold merge is associative and chunk order is item order).
#[allow(clippy::too_many_arguments)]
pub fn mine_portfolios(
    index: &BucketIndex,
    columns: &CorpusColumns,
    plan: &MiningPlan,
    eco: &Ecosystem,
    threads: usize,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> MiningOutputs {
    let buckets: Vec<MineBucket> = index
        .iter()
        .filter(|(_, members)| members.len() > 1)
        .map(|(_, members)| MineBucket {
            members: members.to_vec(),
        })
        .collect();
    let pass = PairMinePass::new(columns, plan, eco);
    let chunk = idnre_par::chunk_size(buckets.len(), threads);
    let mined = fold_items(&pass, &buckets, chunk, threads, recorder, parent);
    MiningOutputs {
        buckets: index.len() as u64,
        non_singleton_buckets: index.non_singleton_count() as u64,
        candidate_pairs: mined.candidate_pairs,
        ascii_skipped: mined.ascii_skipped,
        verified: mined.verified,
        portfolios: mined.portfolios,
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

/// The LSH path over the first `cap` column rows, as a standalone probe:
/// bucket the rows, verify in-bucket pairs. Returns normalized pairs.
pub fn verified_pairs_lsh(
    columns: &CorpusColumns,
    plan: &MiningPlan,
    cap: usize,
    threads: usize,
) -> Vec<VerifiedPair> {
    let rows = columns.len().min(cap);
    let mut index = BucketIndex::new();
    for row in 0..rows {
        let sld = columns.sld_symbol(row);
        let tld = columns.tld_id(row);
        index.insert(plan.key(sld, tld), LabelRef { sld, tld });
    }
    let buckets: Vec<Vec<LabelRef>> = index
        .iter()
        .filter(|(_, members)| members.len() > 1)
        .map(|(_, members)| members.to_vec())
        .collect();
    let verified = idnre_par::par_map(&buckets, threads, |members| {
        bucket_pairs(members, columns, plan, MINE_THRESHOLD).2
    });
    normalize(verified.into_iter().flatten().collect())
}

/// The exhaustive oracle over the first `cap` column rows: every pair of
/// rows (no skeleton pre-filter), width-checked and SSIM-scored with the
/// same kernel, at least one side a genuine IDN label. `O(rows²)` pair
/// generation — the thing the LSH index exists to avoid; retained (and
/// capped, like `detect_exhaustive`) as the equivalence oracle and the
/// speedup baseline.
pub fn verified_pairs_exhaustive(
    columns: &CorpusColumns,
    plan: &MiningPlan,
    cap: usize,
    threads: usize,
) -> Vec<VerifiedPair> {
    let rows: Vec<usize> = (0..columns.len().min(cap)).collect();
    let rendered: Vec<(LabelRef, bool, GrayImage)> = idnre_par::par_map(&rows, threads, |&row| {
        let member = LabelRef {
            sld: columns.sld_symbol(row),
            tld: columns.tld_id(row),
        };
        let ascii = plan.label_ascii[member.sld.index()];
        let image = render_text(&plan.unicode_of(columns, member));
        (member, ascii, image)
    });
    let mut by_width: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, (_, _, image)) in rendered.iter().enumerate() {
        by_width.entry(image.width()).or_default().push(i);
    }
    let verified = idnre_par::par_map(&rows, threads, |&i| {
        let (member_i, ascii_i, image_i) = &rendered[i];
        let group = &by_width[&image_i.width()];
        let position = group.partition_point(|&j| j <= i);
        let mut found = Vec::new();
        for &j in &group[position..] {
            let (member_j, ascii_j, image_j) = &rendered[j];
            if member_i == member_j {
                continue; // duplicate registrations of one domain, not a pair
            }
            if *ascii_i && *ascii_j {
                continue;
            }
            let Some(score) = pair_score(image_i, image_j) else {
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
        m.verified.len(),
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
