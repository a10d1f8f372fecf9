//! Detector-backed [`AnalysisPass`] implementations for the sharded
//! streaming scan.
//!
//! Each pass folds the detector's per-domain probe into a concatenated
//! finding list; because the scan merges shard partials in shard order,
//! the merged list is exactly the sequential corpus-order probe result.
//! The homograph and Type-1 passes tag each finding with the index of the
//! record they observed it at ([`Indexed`]), the key its artifacts are
//! joined by.
//! The legacy batch scanners ([`HomographDetector::scan_recorded`],
//! [`SemanticDetector::scan_type1_parallel`]) remain the reference
//! implementations — the equivalence tests below hold each pass to the
//! same findings and the same counters.

use crate::homograph::{HomographDetector, HomographFinding, HOMOGRAPH_COUNTERS};
use crate::semantic::{SemanticDetector, SemanticFinding, SEMANTIC_COUNTERS};
use idnre_analyze::{AnalysisPass, Merge, Observed, Population};
use idnre_arena::CorpusColumns;
use idnre_telemetry::Recorder;
use idnre_unicode::skeleton;

/// A finding with the [`Observed::index`] of the record its pass observed
/// it at: the record's stable index in the IDN population, by which the
/// reports regenerate its WHOIS record and pDNS aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Indexed<F> {
    /// The observed record's IDN index.
    pub index: u64,
    /// The finding.
    pub finding: F,
}

/// SSIM homograph detection fed from interned [`CorpusColumns`] instead of
/// re-resolving label strings per record.
///
/// The per-record path ([`HomographDetector::detect_recorded`]) runs
/// `to_unicode` + a full [`skeleton`] fold for every domain. The corpus
/// columns store one skeleton per *distinct* label, derived with the
/// label's other facts by the generator's column emitter, so this pass
/// hoists both out of the hot loop: it reads the label's stored skeleton
/// and one decoded suffix skeleton per TLD ([`tld_suffix_skeletons`]), and
/// per record does only a scratch-buffer key assembly plus the index
/// probe. Because [`skeleton`] maps characters independently (ASCII passes
/// through untouched), `skeleton(unicode)` ==
/// `skeleton(sld) + skeleton(".tld")` — the assembled key matches the
/// per-record fold byte for byte, so findings *and* counters are identical
/// to the batch scan's (the equivalence tests below pin both).
///
/// Counters are tallied in the partial and flushed once per shard in
/// `shard_end` (the batched-flush contract from
/// [`AnalysisPass::shard_end`]). `homograph.skip.invalid_idna` is
/// structurally zero here: column rows come from display forms the corpus
/// builder already decoded, so there is nothing left to fail — the counter
/// equivalence test below holds this path to the batch scan's anyway.
pub struct ColumnedHomographPass<'d> {
    detector: &'d HomographDetector,
    columns: &'d CorpusColumns,
    /// Per TLD id of `columns`: its suffix skeleton.
    tld_suffixes: Vec<String>,
}

/// `skeleton(".<decoded tld>")` of every TLD interned in `columns`, by
/// TLD id: the suffix that continues a label's stored skeleton into the
/// skeleton of its whole display form (decoded, because display forms
/// decode iTLDs too). The homograph pass and the portfolio miner both
/// read it; a corpus interns about a dozen TLDs.
pub fn tld_suffix_skeletons(columns: &CorpusColumns) -> Vec<String> {
    columns
        .tlds()
        .iter()
        .map(|tld| {
            let decoded = idnre_idna::to_unicode(tld).unwrap_or_else(|_| tld.to_string());
            skeleton(&format!(".{decoded}"))
        })
        .collect()
}

impl<'d> ColumnedHomographPass<'d> {
    /// Probes `columns`' rows against `detector`'s skeleton index.
    pub fn new(detector: &'d HomographDetector, columns: &'d CorpusColumns) -> Self {
        ColumnedHomographPass {
            detector,
            columns,
            tld_suffixes: tld_suffix_skeletons(columns),
        }
    }
}

/// Shard partial of [`ColumnedHomographPass`]: concatenated findings plus
/// counter tallies (indexed like [`HOMOGRAPH_COUNTERS`]) and a reusable
/// key-assembly buffer. The buffer is scratch state — excluded from
/// equality, untouched by merge.
#[derive(Debug, Clone, Default)]
pub struct ColumnedHomographPartial {
    findings: Vec<Indexed<HomographFinding>>,
    tallies: [u64; HOMOGRAPH_COUNTERS.len()],
    key_scratch: String,
}

impl PartialEq for ColumnedHomographPartial {
    fn eq(&self, other: &Self) -> bool {
        self.findings == other.findings && self.tallies == other.tallies
    }
}

impl Merge for ColumnedHomographPartial {
    fn merge(mut self, mut later: Self) -> Self {
        self.findings.append(&mut later.findings);
        for (mine, theirs) in self.tallies.iter_mut().zip(later.tallies) {
            *mine += theirs;
        }
        self
    }
}

impl AnalysisPass for ColumnedHomographPass<'_> {
    type Partial = ColumnedHomographPartial;
    type Output = Vec<Indexed<HomographFinding>>;

    fn name(&self) -> &'static str {
        "analyze.pass.homograph"
    }

    fn counters(&self) -> &'static [&'static str] {
        &HOMOGRAPH_COUNTERS
    }

    fn empty(&self) -> Self::Partial {
        ColumnedHomographPartial::default()
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        if rec.population != Population::Idn {
            return;
        }
        let row = rec.index as usize;
        partial.tallies[0] += 1; // homograph.candidates
        let sym = self.columns.sld_symbol(row);
        let Some(label_skeleton) = self.columns.label_skeleton(sym) else {
            partial.tallies[2] += 1; // homograph.skip.ascii_sld
            return;
        };
        let key = &mut partial.key_scratch;
        key.clear();
        key.push_str(label_skeleton);
        key.push_str(&self.tld_suffixes[usize::from(self.columns.tld_id(row))]);
        let Some(bucket) = self.detector.bucket(key) else {
            partial.tallies[3] += 1; // homograph.skip.no_skeleton_match
            return;
        };
        match self
            .detector
            .verify_bucket(&rec.reg.domain, &rec.reg.unicode, bucket)
        {
            Some(finding) => {
                partial.tallies[5] += 1; // homograph.findings
                partial.findings.push(Indexed {
                    index: rec.index,
                    finding,
                });
            }
            None => partial.tallies[4] += 1, // homograph.skip.below_threshold
        }
    }

    fn shard_end(&self, partial: &mut Self::Partial, recorder: &dyn Recorder) {
        for (name, tally) in HOMOGRAPH_COUNTERS.iter().zip(partial.tallies.iter_mut()) {
            if *tally > 0 {
                recorder.add(name, *tally);
                *tally = 0;
            }
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        let mut findings = partial.findings;
        findings.sort_by(|a, b| a.finding.domain.cmp(&b.finding.domain));
        findings
    }
}

/// Type-1 semantic detection as a streaming pass (IDN population only).
///
/// Each record is probed through its display form `reg.unicode`, which the
/// generator produced as `to_unicode(reg.domain)`, so the pass decodes
/// nothing (`idnre-datagen`'s `display_form` test pins that premise for
/// every record a scan can observe). Findings stay in corpus order — the
/// shard-order merge concatenates per-shard lists, which is the same
/// order [`SemanticDetector::scan_type1_parallel`] produces.
#[derive(Debug, Clone, Copy)]
pub struct Semantic1Pass<'d> {
    detector: &'d SemanticDetector,
}

impl<'d> Semantic1Pass<'d> {
    /// Wraps a configured detector.
    pub fn new(detector: &'d SemanticDetector) -> Self {
        Semantic1Pass { detector }
    }
}

/// Shard partial of [`Semantic1Pass`]: findings in corpus order plus
/// counter tallies (indexed like [`SEMANTIC_COUNTERS`]), flushed once per
/// shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Semantic1Partial {
    findings: Vec<Indexed<SemanticFinding>>,
    tallies: [u64; SEMANTIC_COUNTERS.len()],
}

impl Merge for Semantic1Partial {
    fn merge(mut self, mut later: Self) -> Self {
        self.findings.append(&mut later.findings);
        for (mine, theirs) in self.tallies.iter_mut().zip(later.tallies) {
            *mine += theirs;
        }
        self
    }
}

impl AnalysisPass for Semantic1Pass<'_> {
    type Partial = Semantic1Partial;
    type Output = Vec<Indexed<SemanticFinding>>;

    fn name(&self) -> &'static str {
        "analyze.pass.semantic1"
    }

    fn counters(&self) -> &'static [&'static str] {
        &SEMANTIC_COUNTERS
    }

    fn empty(&self) -> Self::Partial {
        Semantic1Partial::default()
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        if rec.population != Population::Idn {
            return;
        }
        partial.tallies[0] += 1; // semantic.candidates
        match self
            .detector
            .detect_type1_decoded(&rec.reg.domain, &rec.reg.unicode)
        {
            Some(finding) => {
                partial.tallies[1] += 1; // semantic.findings
                partial.findings.push(Indexed {
                    index: rec.index,
                    finding,
                });
            }
            None => partial.tallies[2] += 1, // semantic.skip.no_brand_match
        }
    }

    fn shard_end(&self, partial: &mut Self::Partial, recorder: &dyn Recorder) {
        for (name, tally) in SEMANTIC_COUNTERS.iter().zip(partial.tallies.iter_mut()) {
            if *tally > 0 {
                recorder.add(name, *tally);
                *tally = 0;
            }
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial.findings
    }
}

/// Type-2 (translated-brand) semantic detection as a streaming pass (IDN
/// population only; findings in corpus order), probing each record's
/// display form like [`Semantic1Pass`]. Only the embedded
/// translation dictionary is consulted, so any [`SemanticDetector`] —
/// whatever its brand list — produces identical Type-2 findings.
#[derive(Debug, Clone, Copy)]
pub struct Semantic2Pass<'d> {
    detector: &'d SemanticDetector,
}

impl<'d> Semantic2Pass<'d> {
    /// Wraps a configured detector.
    pub fn new(detector: &'d SemanticDetector) -> Self {
        Semantic2Pass { detector }
    }
}

impl AnalysisPass for Semantic2Pass<'_> {
    type Partial = Vec<SemanticFinding>;
    type Output = Vec<SemanticFinding>;

    fn name(&self) -> &'static str {
        "analyze.pass.semantic2"
    }

    fn empty(&self) -> Self::Partial {
        Vec::new()
    }

    fn observe(&self, partial: &mut Self::Partial, rec: &Observed<'_>, _: &dyn Recorder) {
        if rec.population != Population::Idn {
            return;
        }
        if let Some(finding) = self
            .detector
            .detect_type2_decoded(&rec.reg.domain, &rec.reg.unicode)
        {
            partial.push(finding);
        }
    }

    fn finish(&self, partial: Self::Partial) -> Self::Output {
        partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_analyze::{ShardedScan, SliceSource};
    use idnre_datagen::{Ecosystem, EcosystemConfig};
    use idnre_telemetry::{Registry, SpanCtx};

    fn corpus() -> (Ecosystem, Vec<String>) {
        let config = EcosystemConfig {
            scale: 1000,
            attack_scale: 20,
            brand_count: 50,
            ..EcosystemConfig::default()
        };
        let eco = Ecosystem::generate(&config);
        let brands: Vec<String> = eco.brands.iter().map(|b| b.domain()).collect();
        (eco, brands)
    }

    fn columns_of(eco: &Ecosystem) -> CorpusColumns {
        let mut columns = CorpusColumns::default();
        for reg in &eco.idn_registrations {
            columns.push_row(idnre_datagen::column_row(reg, &eco.blacklist));
        }
        columns
    }

    #[test]
    fn passes_match_legacy_batch_scans() {
        let (eco, brands) = corpus();
        let homograph = HomographDetector::new(&brands, 0.95);
        let semantic = SemanticDetector::new(&brands);
        let idn_domains: Vec<&str> = eco
            .idn_registrations
            .iter()
            .map(|r| r.domain.as_str())
            .collect();

        let legacy_homographs = homograph.scan(idn_domains.iter().copied(), 4);
        let legacy_sem1 = semantic.scan_type1(idn_domains.iter().copied());
        let legacy_sem2 = semantic.scan_type2(idn_domains.iter().copied());
        assert!(!legacy_homographs.is_empty());
        assert!(!legacy_sem1.is_empty());

        let columns = columns_of(&eco);
        let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
        let mut scan = ShardedScan::new();
        let h = scan.register(ColumnedHomographPass::new(&homograph, &columns));
        let s1 = scan.register(Semantic1Pass::new(&semantic));
        let s2 = scan.register(Semantic2Pass::new(&semantic));
        let registry = Registry::new();
        let mut result = scan.run_at(&source, 64, 4, &registry, SpanCtx::NONE);

        // Each finding's index is the record it was found at.
        let (homographs, sem1) = (result.take(&h), result.take(&s1));
        for (index, domain) in homographs
            .iter()
            .map(|f| (f.index, &f.finding.domain))
            .chain(sem1.iter().map(|f| (f.index, &f.finding.domain)))
        {
            assert_eq!(&eco.idn_registrations[index as usize].domain, domain);
        }
        fn findings<F>(indexed: Vec<Indexed<F>>) -> Vec<F> {
            indexed.into_iter().map(|f| f.finding).collect()
        }
        assert_eq!(findings(homographs), legacy_homographs);
        assert_eq!(findings(sem1), legacy_sem1);
        assert_eq!(result.take(&s2), legacy_sem2);
    }

    #[test]
    fn pass_counters_match_legacy_batch_scans() {
        let (eco, brands) = corpus();
        let homograph = HomographDetector::new(&brands, 0.95);
        let semantic = SemanticDetector::new(&brands);
        let idn_domains: Vec<&str> = eco
            .idn_registrations
            .iter()
            .map(|r| r.domain.as_str())
            .collect();

        let legacy = Registry::new();
        let _ = homograph.scan_recorded(idn_domains.iter().copied(), 4, &legacy);
        let _ = semantic.scan_type1_parallel(idn_domains.iter().copied(), 4, &legacy);
        let legacy_counters = legacy.snapshot().counters;

        let columns = columns_of(&eco);
        let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
        let mut scan = ShardedScan::new();
        let _ = scan.register(ColumnedHomographPass::new(&homograph, &columns));
        let _ = scan.register(Semantic1Pass::new(&semantic));
        let streamed = Registry::new();
        let _ = scan.run_at(&source, 128, 2, &streamed, SpanCtx::NONE);

        assert_eq!(streamed.snapshot().counters, legacy_counters);
    }

    #[test]
    fn columned_homograph_is_associative_and_shard_invariant() {
        let (eco, brands) = corpus();
        let homograph = HomographDetector::new(&brands, 0.95);
        let columns = columns_of(&eco);
        let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
        {
            let mut scan = ShardedScan::new();
            let _ = scan.register(ColumnedHomographPass::new(&homograph, &columns));
            assert_eq!(
                scan.merge_is_associative(&source, 97, &idnre_telemetry::NoopRecorder),
                Ok(())
            );
        }
        let mut reference = None;
        for (threads, shard_size) in [(1, 64), (2, 1024), (8, 97)] {
            let mut scan = ShardedScan::new();
            let h = scan.register(ColumnedHomographPass::new(&homograph, &columns));
            let mut result = scan.run_at(
                &source,
                shard_size,
                threads,
                &idnre_telemetry::NoopRecorder,
                SpanCtx::NONE,
            );
            let findings = result.take(&h);
            match &reference {
                None => reference = Some(findings),
                Some(expected) => assert_eq!(&findings, expected, "threads={threads}"),
            }
        }
    }

    #[test]
    fn passes_are_associative() {
        let (eco, brands) = corpus();
        let semantic = SemanticDetector::new(&brands);
        let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
        let mut scan = ShardedScan::new();
        let _ = scan.register(Semantic1Pass::new(&semantic));
        let _ = scan.register(Semantic2Pass::new(&semantic));
        assert_eq!(
            scan.merge_is_associative(&source, 97, &idnre_telemetry::NoopRecorder),
            Ok(())
        );
    }
}
