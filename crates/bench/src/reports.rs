//! One generator per table/figure of the paper's evaluation.

use crate::ReproContext;
use idnre_core::{AbuseAnalysis, Indexed};
use idnre_crawler::UsageCategory;
use idnre_datagen::CertificateTally;
use idnre_langid::Language;
use idnre_pdns::{ActivityAnalytics, DomainAggregate, PopulationClass, TrafficModel};
use idnre_stats::plot::{bar_chart, ecdf_plot, Series};
use idnre_stats::table::{Align, Table};
use idnre_stats::{group_thousands, percent};
use idnre_telemetry::Recorder;
use idnre_whois::WhoisRecord;

/// A table/figure generator.
pub type Generator = fn(&ReproContext) -> String;

/// All generators in paper order: `(experiment id, generator)`.
pub const ALL: &[(&str, Generator)] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1),
    ("table3", table3),
    ("table4", table4),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("table8", table8),
    ("table9", table9),
    ("table10", table10),
    ("table11", table11),
    ("table12", table12),
    ("table13", table13),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table14", table14),
    ("fig8", fig8),
    ("ext_squatting", ext_squatting),
    ("ext_bypass", ext_bypass),
    ("ext_multichar", ext_multichar),
];

/// Looks up one generator by experiment id.
pub fn by_name(name: &str) -> Option<Generator> {
    ALL.iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, generator)| generator)
}

fn section(title: &str, anchor: &str, body: String) -> String {
    format!("## {title}\n\n*Paper anchor:* {anchor}\n\n{body}\n")
}

/// Table I — datasets collected (per-TLD zone scan, WHOIS, blacklists).
pub fn table1(ctx: &ReproContext) -> String {
    let eco = &ctx.eco;
    let mut table = Table::new(
        vec![
            "TLD",
            "# SLD (declared/scale)",
            "# IDN",
            "WHOIS",
            "VT",
            "360",
            "Baidu",
            "BL total",
        ],
        vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ],
    );
    // The per-TLD IDN and blacklist tallies come pre-folded from the fused
    // corpus scan ([`crate::passes::TldPass`]), the WHOIS split from the
    // run's WHOIS fold ([`idnre_datagen::WhoisFacts`]). A WHOIS record counts only
    // when its TLD appears in the IDN corpus, matching the batch
    // pre-pass's keying.
    let folded = &ctx.outputs.tld;
    let mut totals = [0u64; 7];
    for spec in &idnre_datagen::TABLE_I {
        let tld = spec.tld;
        let idns = folded.idns.get(tld);
        let whois = if idns > 0 {
            eco.whois_facts.records_in(tld)
        } else {
            0
        };
        let (vt, q, b, union) = (
            folded.vt.get(tld),
            folded.q.get(tld),
            folded.b.get(tld),
            folded.union.get(tld),
        );
        let declared = spec.declared_slds / eco.config.scale;
        table.row(vec![
            tld.to_string(),
            group_thousands(declared),
            group_thousands(idns),
            group_thousands(whois),
            group_thousands(vt),
            group_thousands(q),
            group_thousands(b),
            group_thousands(union),
        ]);
        for (i, v) in [declared, idns, whois, vt, q, b, union]
            .into_iter()
            .enumerate()
        {
            totals[i] += v;
        }
    }
    table.row(vec![
        "Total".into(),
        group_thousands(totals[0]),
        group_thousands(totals[1]),
        group_thousands(totals[2]),
        group_thousands(totals[3]),
        group_thousands(totals[4]),
        group_thousands(totals[5]),
        group_thousands(totals[6]),
    ]);
    let idn_rate = percent(totals[1], totals[0]);
    section(
        "Table I — Datasets collected",
        "154,600,404 SLDs, 1,472,836 IDNs (≈1%), 739,160 WHOIS (50.19%), 6,241 blacklisted (0.42%); VT ≫ 360 ≫ Baidu.",
        format!(
            "{}\nMeasured IDN share of SLDs: {idn_rate}; blacklisted share of IDNs: {}.\n",
            table.render(),
            percent(totals[6], totals[1])
        ),
    )
}

/// Table II — language mix of all vs blacklisted IDNs (via the classifier).
pub fn table2(ctx: &ReproContext) -> String {
    // The classifier ran once per record inside the fused scan
    // ([`crate::passes::LanguagePass`]); the tallies keep corpus
    // first-occurrence order, so the stable sort ties break exactly as the
    // batch fold's did.
    let mix = &ctx.outputs.language;
    let mut all: Vec<(Language, u64)> = mix.all.iter().map(|(&lang, n)| (lang, n)).collect();
    let total = mix.all.total();
    let total_bad = mix.bad.total();
    all.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let mut table = Table::new(
        vec!["Language", "Volume", "Rate", "Blacklisted", "Rate"],
        vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ],
    );
    for &(lang, volume) in all.iter().take(15) {
        let bad_volume = mix.bad.get(&lang);
        table.row(vec![
            lang.to_string(),
            group_thousands(volume),
            percent(volume, total),
            group_thousands(bad_volume),
            percent(bad_volume, total_bad.max(1)),
        ]);
    }
    let east_asian: u64 = all
        .iter()
        .filter(|(l, _)| l.is_east_asian())
        .map(|&(_, n)| n)
        .sum();
    // The attack populations are generated at 1:attack_scale while the bulk
    // ecosystem is 1:scale, so Latin-brand attack labels are overweighted
    // relative to the paper's 1.4M corpus. Report the organic mix too.
    let (organic_total, organic_ea, organic_zh) =
        (mix.organic_total, mix.organic_ea, mix.organic_zh);
    section(
        "Table II — Languages of all and malicious IDNs (top 15)",
        "Chinese 52.03% of all / 56.02% of malicious; >75% east-Asian (Finding 1).",
        format!(
            "{}\nEast-Asian share (classifier): {}. Excluding the 1:1-scale \
             injected attack populations (which overweight Latin brand labels \
             relative to the paper's 1.4M corpus): Chinese {}, east-Asian {}.\n",
            table.render(),
            percent(east_asian, total),
            percent(organic_zh, organic_total),
            percent(organic_ea, organic_total)
        ),
    )
}

/// Figure 1 — creation dates of IDNs, malicious shown separately.
pub fn fig1(ctx: &ReproContext) -> String {
    let facts = &ctx.eco.whois_facts;
    let (all, malicious) = (&facts.created, &facts.created_malicious);
    let bars_all: Vec<(String, u64)> = all.iter().map(|(y, c)| (y.to_string(), c)).collect();
    let bars_bad: Vec<(String, u64)> = malicious.iter().map(|(y, c)| (y.to_string(), c)).collect();
    let ten_years_ago = ctx.eco.config.snapshot.year - 10;
    let old: u64 = all
        .iter()
        .filter(|&(y, _)| y < ten_years_ago + 1)
        .map(|(_, c)| c)
        .sum();
    section(
        "Figure 1 — IDN creation dates",
        "Registrations rise over time with spikes in 2000 (Verisign testbed) and 2004; malicious spikes in 2015/2017; 6.16% created before 2008 (Finding 2).",
        format!(
            "{}\n{}\nSpikes (all): {:?}; spikes (malicious): {:?}. Created ≥10 years before snapshot: {} ({}).\n",
            bar_chart("All IDN registrations per year", &bars_all, 50),
            bar_chart("Malicious IDN registrations per year", &bars_bad, 50),
            all.spikes(2.0),
            malicious.spikes(2.0),
            group_thousands(old),
            percent(old, all.total())
        ),
    )
}

/// Table III — top-5 registrant emails (opportunistic clusters) with the
/// portfolio topic the paper assigned manually, here derived by the topic
/// classifier.
pub fn table3(ctx: &ReproContext) -> String {
    let mut table = Table::new(
        vec!["Email Account", "# IDN", "IDN Characteristics"],
        vec![Align::Left, Align::Right, Align::Left],
    );
    for registrant in &ctx.eco.whois_facts.top_registrants {
        // The WHOIS fold holds A-labels; the topic is read from each
        // domain's display form, its U-label SLD.
        let unicode: Vec<String> = registrant
            .domains
            .iter()
            .filter_map(|d| idnre_idna::to_unicode(d).ok())
            .collect();
        let labels = unicode.iter().filter_map(|u| u.split('.').next());
        let topic = idnre_core::topic::classify_portfolio(labels);
        table.row(vec![
            registrant.email.clone(),
            group_thousands(registrant.domains.len() as u64),
            topic.to_string(),
        ]);
    }
    let mass = ctx.eco.whois_facts.opportunistic_mass;
    section(
        "Table III — Top 5 IDN registrants",
        "Bulk registrants (776053229@qq.com 1,562; daidesheng88@gmail.com 1,453; …) hold 29,318 (4%) opportunistic IDNs (Finding 3).",
        format!(
            "{}\nDomains held by registrants with ≥10 IDNs: {}.\n",
            table.render(),
            group_thousands(mass)
        ),
    )
}

/// Table IV — top-10 registrars.
pub fn table4(ctx: &ReproContext) -> String {
    let facts = &ctx.eco.whois_facts;
    let mut table = Table::new(
        vec!["Registrar", "# IDN", "Rate"],
        vec![Align::Left, Align::Right, Align::Right],
    );
    let total = facts.records;
    for (registrar, count) in &facts.top_registrars {
        table.row(vec![
            registrar.clone(),
            group_thousands(*count),
            percent(*count, total),
        ]);
    }
    // The "top-10 hold 55%" share (Finding 4).
    let top: u64 = facts.top_registrars.iter().map(|&(_, count)| count).sum();
    let share = if total == 0 {
        0.0
    } else {
        top as f64 / total as f64
    };
    section(
        "Table IV — Top 10 most active registrars offering IDNs",
        "GMO 22.99%, HiChina 10.86%, GoDaddy only 1.88%; >700 registrars; top-10 hold 55% (Finding 4).",
        format!(
            "{}\nDistinct registrars: {}; top-10 share: {:.1}%.\n",
            table.render(),
            facts.distinct_registrars,
            share * 100.0
        ),
    )
}

fn ecdf_figure(
    title: &str,
    anchor: &str,
    series: Vec<(&str, idnre_stats::Ecdf)>,
    probe: f64,
    unit: &str,
) -> String {
    let plotted: Vec<Series> = series
        .iter()
        .map(|(name, ecdf)| Series::new(*name, ecdf.series(&ecdf.log_positions(40))))
        .collect();
    let mut probes = String::new();
    for (name, ecdf) in &series {
        if ecdf.is_empty() {
            continue;
        }
        probes.push_str(&format!(
            "P({unit} ≤ {probe:.0}) for {name}: {:.1}%; mean {:.0}\n",
            ecdf.fraction_at_or_below(probe) * 100.0,
            ecdf.mean()
        ));
    }
    section(
        title,
        anchor,
        format!("{}\n{probes}", ecdf_plot(title, &plotted, 60, 12)),
    )
}

/// Figure 2 — ECDF of active time (IDN vs non-IDN vs malicious).
pub fn fig2(ctx: &ReproContext) -> String {
    let act = &ctx.eco.activity;
    ecdf_figure(
        "Figure 2 — ECDF of active time",
        "60% of com IDNs active <100 days vs 40% of non-IDNs; malicious IDNs live longest (Finding 5).",
        vec![
            ("idn", act.benign.active_time_ecdf()),
            ("non-idn", act.non_idn.active_time_ecdf()),
            ("malicious-idn", act.malicious.active_time_ecdf()),
        ],
        100.0,
        "days",
    )
}

/// Figure 3 — ECDF of query volume.
pub fn fig3(ctx: &ReproContext) -> String {
    let act = &ctx.eco.activity;
    ecdf_figure(
        "Figure 3 — ECDF of query volume",
        "88% of com IDNs queried <100 times vs 74% of non-IDNs; malicious IDNs draw the most traffic (Finding 6).",
        vec![
            ("idn", act.benign.query_volume_ecdf()),
            ("non-idn", act.non_idn.query_volume_ecdf()),
            ("malicious-idn", act.malicious.query_volume_ecdf()),
        ],
        100.0,
        "queries",
    )
}

/// Figure 4 — IDNs over /24 segments.
pub fn fig4(ctx: &ReproContext) -> String {
    // The /24 segment report is order-insensitive, so the whole-IDN view
    // is just the benign and malicious folds merged back together.
    let act = &ctx.eco.activity;
    let mut analytics = act.benign.clone();
    analytics.merge(act.malicious.clone());
    let report = analytics.segment_report();
    let series = Series::new("idns", report.ecdf_series(40));
    let scaled_k = (1000 / ctx.eco.config.scale.max(1)).max(1) as usize;
    // Attribute the top segments to their infrastructure class — the paper
    // found "four parking, four hosting, one Akamai, one private" in its
    // top ten. The generator's address plan makes the classes identifiable
    // by prefix.
    let segment_class = |segment: [u8; 3]| match segment[0] {
        91 => "parking",
        104 => "shared hosting",
        23 => "CDN",
        _ => "self-hosted",
    };
    let top10: Vec<String> = report
        .segments
        .iter()
        .take(10)
        .map(|&(segment, count)| {
            format!(
                "{}.{}.{}.0/24 ({}, {} IDNs)",
                segment[0],
                segment[1],
                segment[2],
                segment_class(segment),
                count
            )
        })
        .collect();
    let masses: Vec<f64> = report.segments.iter().map(|&(_, c)| c as f64).collect();
    section(
        "Figure 4 — ECDF of IDNs over /24 network segments",
        "80% of IDNs hosted in 1,000 /24 segments; top-10 segments hold 24.8%, mostly parking/hosting services (Finding 7).",
        format!(
            "{}\nSegments: {}; top-{} cover {:.1}%; top-10 cover {:.1}% (Gini {:.2}).\nTop segments:\n  {}\n",
            ecdf_plot("Figure 4", &[series], 60, 12),
            group_thousands(report.segment_count() as u64),
            scaled_k,
            report.cumulative_fraction(scaled_k) * 100.0,
            report.cumulative_fraction(10) * 100.0,
            idnre_stats::gini(&masses),
            top10.join("\n  ")
        ),
    )
}

/// Table V — usage of domain names (content categories, 500 samples each).
pub fn table5(ctx: &ReproContext) -> String {
    let mut table = Table::new(
        vec!["Type", "IDN", "Non-IDN"],
        vec![Align::Left, Align::Right, Align::Right],
    );
    // Each rate is over the records that population's sample crawled: an
    // epoch can remove a head record, which then is never crawled.
    let counts = &ctx.outputs.content;
    let idn_total: u64 = counts.idn.iter().sum();
    let non_total: u64 = counts.non_idn.iter().sum();
    for (i, category) in UsageCategory::ALL.iter().enumerate() {
        let a = counts.idn[i];
        let b = counts.non_idn[i];
        table.row(vec![
            category.label().to_string(),
            format!("{a} ({})", percent(a, idn_total)),
            format!("{b} ({})", percent(b, non_total)),
        ]);
    }
    section(
        "Table V — Usage of domain names",
        "IDN: 45.6% not resolved, 19.8% meaningful. Non-IDN: 15.2% / 33.6% (Finding 8).",
        table.render(),
    )
}

/// Table VI — SSL certificate problems, IDN vs non-IDN.
pub fn table6(ctx: &ReproContext) -> String {
    let tally = &ctx.eco.certificate_tally;
    let (idn, non) = (tally.idn, tally.non_idn);
    let idn_total: u64 = idn.iter().sum();
    let non_total: u64 = non.iter().sum();
    let mut table = Table::new(
        vec!["Security Problem", "IDN", "non-IDN"],
        vec![Align::Left, Align::Right, Align::Right],
    );
    // The last bucket holds the clean certificates.
    for (i, problem) in CertificateTally::BUCKETS.iter().enumerate() {
        let Some(problem) = problem else { continue };
        table.row(vec![
            problem.to_string(),
            format!(
                "{} ({})",
                group_thousands(idn[i]),
                percent(idn[i], idn_total)
            ),
            format!(
                "{} ({})",
                group_thousands(non[i]),
                percent(non[i], non_total)
            ),
        ]);
    }
    let idn_bad = idn_total - idn[3];
    let non_bad = non_total - non[3];
    table.row(vec![
        "Total".into(),
        format!(
            "{} ({})",
            group_thousands(idn_bad),
            percent(idn_bad, idn_total)
        ),
        format!(
            "{} ({})",
            group_thousands(non_bad),
            percent(non_bad, non_total)
        ),
    ]);
    section(
        "Table VI — SSL certificate problems",
        "IDN: 12.54% expired, 18.14% invalid authority, 67.28% invalid CN — 97.95% with problems; non-IDN 97.23% with more expiry, less sharing (Finding 9).",
        format!(
            "{}\nNote: the headline shape (CN mismatch dominates; >90% of \
             certificates have a problem) reproduces; the paper's second-order \
             IDN-vs-non-IDN contrast (non-IDNs expiring more, sharing less) \
             would need population-specific certificate-issuance mixes the \
             generator currently keeps uniform.\n",
            table.render()
        ),
    )
}

/// Table VII — top-10 shared certificate common names.
pub fn table7(ctx: &ReproContext) -> String {
    let sharing = &ctx.eco.certificate_tally.sharing;
    let mut table = Table::new(
        vec!["Common Name (CN)", "Volume"],
        vec![Align::Left, Align::Right],
    );
    for (cn, volume) in sharing.top_shared(10) {
        table.row(vec![cn, group_thousands(volume)]);
    }
    section(
        "Table VII — Top shared certificates among IDNs",
        "sedoparking.com 27,139; cafe24.com 4,024; ovh.net 3,691 — parking/hosting dominate.",
        format!(
            "{}\nIDNs sharing a mismatched certificate: {}.\n",
            table.render(),
            group_thousands(sharing.shared_domain_count())
        ),
    )
}

/// Table VIII — example homographic IDNs impersonating facebook.com.
pub fn table8(ctx: &ReproContext) -> String {
    let mut table = Table::new(
        vec!["Unicode", "Punycode", "SSIM"],
        vec![Align::Left, Align::Left, Align::Right],
    );
    for attack in ctx
        .eco
        .homograph_attacks
        .iter()
        .filter(|a| a.target == "facebook.com")
        .take(12)
    {
        let score = idnre_render::ssim_strings(&attack.unicode, "facebook.com");
        table.row(vec![
            attack.unicode.clone(),
            attack.domain.clone(),
            format!("{score:.3}"),
        ]);
    }
    section(
        "Table VIII — Examples of malicious homographic IDNs (facebook.com)",
        "12 registered lookalikes replacing 1–3 letters with Vietnamese/Arabic/Icelandic/Yoruba homoglyphs.",
        table.render(),
    )
}

/// Table IX — Type-1 semantic examples.
pub fn table9(ctx: &ReproContext) -> String {
    let mut table = Table::new(
        vec!["Punycode", "Unicode", "Target"],
        vec![Align::Left, Align::Left, Align::Left],
    );
    for Indexed { finding, .. } in ctx.outputs.semantic1.iter().take(8) {
        table.row(vec![
            finding.domain.clone(),
            finding.unicode.clone(),
            finding.brand.clone(),
        ]);
    }
    section(
        "Table IX — Examples of Type-1 semantic abuse",
        "icloud登录.com, apple邮箱.com, apple激活.com — brand + service keyword.",
        table.render(),
    )
}

/// Table X — Type-2 semantic findings (translation dictionary) scanned
/// over the registered corpus.
pub fn table10(ctx: &ReproContext) -> String {
    // Type-2 detection is brand-independent, so the fused scan's
    // `Semantic2Pass` findings are exactly the dedicated rescan's.
    let findings = &ctx.outputs.semantic2;
    let mut table = Table::new(
        vec!["Punycode", "Unicode", "Brand"],
        vec![Align::Left, Align::Left, Align::Left],
    );
    for finding in findings.iter().take(10) {
        table.row(vec![
            finding.domain.clone(),
            finding.unicode.clone(),
            finding.brand.clone(),
        ]);
    }
    section(
        "Table X — Examples of Type-2 semantic abuse",
        "格力空调.net → Gree; 北京交通大学.com → Beijing Jiaotong University; 奔驰汽车.com → Mercedes-Benz (mapping Type-2 to brands is manual in the paper; here a translation dictionary).",
        format!(
            "{}\nType-2 findings in the registered corpus: {} (injected: {}).\n",
            table.render(),
            findings.len(),
            ctx.eco.semantic2_attacks.len()
        ),
    )
}

/// Table XI — browser survey (derived from the policy models).
pub fn table11(_ctx: &ReproContext) -> String {
    let rows = idnre_browser::run_survey();
    let mut table = Table::new(
        vec![
            "Browser",
            "Platform",
            "Ver.",
            "iTLD IDN",
            "Homograph Attack",
        ],
        vec![
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Left,
            Align::Left,
        ],
    );
    for row in &rows {
        table.row(vec![
            row.browser.to_string(),
            row.platform.to_string(),
            row.version.to_string(),
            row.itld.to_string(),
            row.outcome.to_string(),
        ]);
    }
    section(
        "Table XI — Surveyed browsers under homograph attack",
        "5 PC browsers + 1 Android exposed; 5 iOS + 3 Android show titles; Sogou PC fully vulnerable; QQ Android lands on about:blank.",
        table.render(),
    )
}

/// Table XII — the SSIM ladder against google.com.
pub fn table12(_ctx: &ReproContext) -> String {
    let ladder = [
        "gооgle.com",
        "googlе.com",
        "googlę.com",
        "goögle.com",
        "gõogle.com",
        "góoglě.com",
        "gõõgle.com",
        "gøøgle.com",
        "gåøgle.com",
        "böögle.com",
        "donolé.com",
    ];
    let mut rows: Vec<(String, String, f64)> = ladder
        .iter()
        .map(|spoof| {
            let ace = idnre_idna::to_ascii(spoof).unwrap_or_default();
            let score = idnre_render::ssim_strings(spoof, "google.com");
            (spoof.to_string(), ace, score)
        })
        .collect();
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let mut table = Table::new(
        vec!["SSIM", "Punycode", "Unicode"],
        vec![Align::Right, Align::Left, Align::Left],
    );
    for (unicode, ace, score) in rows {
        table.row(vec![format!("{score:.2}"), ace, unicode]);
    }
    section(
        "Table XII — SSIM indices of IDNs against google.com",
        "Ladder from 1.00 (identical Cyrillic) through 0.95 (gõõgle) down to 0.90 (donolé); 0.95 chosen as the detection threshold.",
        table.render(),
    )
}

/// Each finding's WHOIS record, joined by the index of the record its pass
/// observed it at: under `--epochs`, the base record's, as the base
/// snapshot's WHOIS held it.
fn whois_joined<F>(ctx: &ReproContext, findings: &[Indexed<F>]) -> Vec<Option<WhoisRecord>> {
    findings
        .iter()
        .map(|f| ctx.corpus.whois_record(f.index))
        .collect()
}

/// Table XIII's analysis: the homograph findings, each joined to its
/// WHOIS record by record index.
pub(crate) fn homograph_abuse(ctx: &ReproContext) -> AbuseAnalysis {
    let findings = &ctx.outputs.homographs;
    let whois = whois_joined(ctx, findings);
    let joined = findings.iter().map(|f| &f.finding);
    AbuseAnalysis::from_homographs(
        joined.zip(whois.iter().map(Option::as_ref)),
        &ctx.eco.blacklist,
    )
}

/// Table XIV's analysis: the Type-1 findings, each joined to its WHOIS
/// record by record index.
pub(crate) fn semantic_abuse(ctx: &ReproContext) -> AbuseAnalysis {
    let findings = &ctx.outputs.semantic1;
    let whois = whois_joined(ctx, findings);
    let joined = findings.iter().map(|f| &f.finding);
    AbuseAnalysis::from_semantic(
        joined.zip(whois.iter().map(Option::as_ref)),
        &ctx.eco.blacklist,
    )
}

/// Each finding's passive-DNS aggregate, joined by record index like
/// [`whois_joined`]. Each join counts as one `pdns.lookup.hit` or
/// `pdns.lookup.miss` on `recorder`.
pub(crate) fn traffic_joined<F>(
    ctx: &ReproContext,
    findings: &[Indexed<F>],
    recorder: &dyn Recorder,
) -> Vec<Option<DomainAggregate>> {
    let [hit, miss] = idnre_pdns::LOOKUP_COUNTERS;
    findings
        .iter()
        .map(|f| {
            let aggregate = ctx.corpus.pdns_aggregate(f.index);
            recorder.incr(if aggregate.is_some() { hit } else { miss });
            aggregate
        })
        .collect()
}

/// Table XIII — top brands by registered homographic IDNs.
pub fn table13(ctx: &ReproContext) -> String {
    let analysis = homograph_abuse(ctx);
    let mut table = Table::new(
        vec!["Domain", "# IDN", "Rate", "Protective"],
        vec![Align::Left, Align::Right, Align::Right, Align::Right],
    );
    for row in analysis.top_brands(10) {
        table.row(vec![
            row.brand,
            group_thousands(row.idns),
            percent(row.idns, analysis.total()),
            group_thousands(row.protective),
        ]);
    }
    section(
        "Table XIII — Top 10 brand domains ordered by homographic IDNs",
        "1,516 registered homographic IDNs over 255 brands; google 121/facebook 98/amazon 55; only 4.82% protective; 6.6% blacklisted.",
        format!(
            "{}\nDetected: {}; brands targeted: {}; blacklisted: {} ({}); protective: {} ({}).\n",
            table.render(),
            group_thousands(analysis.total()),
            analysis.targeted_brands(),
            group_thousands(analysis.blacklisted()),
            percent(analysis.blacklisted(), analysis.total()),
            group_thousands(analysis.protective()),
            percent(analysis.protective(), analysis.total())
        ),
    )
}

fn attack_traffic_figure<F>(
    ctx: &ReproContext,
    findings: &[Indexed<F>],
    title: &str,
    anchor: &str,
) -> String {
    let recorder = &*ctx.recorder;
    let aggregates = traffic_joined(ctx, findings, recorder);
    let mut analytics = ActivityAnalytics::new();
    analytics.extend_recorded(aggregates.iter().flatten(), recorder);
    let active = analytics.active_time_ecdf();
    let queries = analytics.query_volume_ecdf();
    let plot_active = Series::new("active-days", active.series(&active.log_positions(40)));
    let plot_queries = Series::new("queries", queries.series(&queries.log_positions(40)));
    let stats = if analytics.is_empty() {
        "No passive-DNS observations.".to_string()
    } else {
        format!(
            "Mean active days: {:.0}; P(active > 600d) = {:.1}%. Mean queries: {:.0}; P(q > 100) = {:.1}%; P(q > 1000) = {:.1}%.",
            active.mean(),
            (1.0 - active.fraction_at_or_below(600.0)) * 100.0,
            queries.mean(),
            (1.0 - queries.fraction_at_or_below(100.0)) * 100.0,
            (1.0 - queries.fraction_at_or_below(1000.0)) * 100.0
        )
    };
    section(
        title,
        anchor,
        format!(
            "{}\n{}\n{stats}\n",
            ecdf_plot("active time (days)", &[plot_active], 60, 10),
            ecdf_plot("query volume", &[plot_queries], 60, 10)
        ),
    )
}

/// Figure 5 — traffic to registered homographic IDNs.
pub fn fig5(ctx: &ReproContext) -> String {
    attack_traffic_figure(
        ctx,
        &ctx.outputs.homographs,
        "Figure 5 — ECDF of active time and query volume of homographic IDNs",
        "789 active days on average, 40% above 600 days; 80% get >100 queries, 10% >1000.",
    )
}

/// Figure 6 — queries to registered vs unregistered homographic IDNs.
pub fn fig6(ctx: &ReproContext) -> String {
    // Unregistered candidates: the top brands' homographic candidates,
    // minus the ones that are actually registered, with their residual
    // traffic sampled in enumeration order. The fused scan intersected
    // the candidate pool with the registered corpus
    // ([`crate::passes::Fig6Pass`]); only candidates are ever
    // membership-tested, so the intersection decides identically.
    let registered = &ctx.outputs.fig6_registered;
    let mut unregistered = 0u64;
    let mut observed = 0u64;
    let mut total_queries = 0u64;
    let model = TrafficModel::for_class(PopulationClass::UnregisteredHomographic);
    let mut rng =
        <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(ctx.eco.config.seed ^ 0xF16);
    for ace in &ctx.candidates.fig6 {
        if registered.contains(ace.as_str()) {
            continue;
        }
        unregistered += 1;
        let sample = model.sample(&mut rng);
        if sample.query_count > 0 {
            observed += 1;
            total_queries += sample.query_count;
        }
    }
    let registered_homograph_queries: u64 =
        traffic_joined(ctx, &ctx.outputs.homographs, &idnre_telemetry::NoopRecorder)
            .iter()
            .flatten()
            .map(|a| a.query_count)
            .sum();
    section(
        "Figure 6 — DNS queries to registered vs unregistered homographic IDNs",
        "Queries to unregistered lookalikes exist but are a very small proportion — cross-language 'typos' are rare.",
        format!(
            "Unregistered candidates (top-30 brands): {}; observed in passive DNS: {} ({}); their total queries: {}.\n\
             Registered homographic IDNs' total queries: {}.\n\
             Unregistered-to-registered query ratio: {:.4}.\n",
            group_thousands(unregistered),
            group_thousands(observed),
            percent(observed, unregistered),
            group_thousands(total_queries),
            group_thousands(registered_homograph_queries),
            total_queries as f64 / registered_homograph_queries.max(1) as f64
        ),
    )
}

/// Figure 7 — homographic candidates per top-100 brand.
pub fn fig7(ctx: &ReproContext) -> String {
    let reports = &ctx.candidates.singles;
    let generated: usize = reports.iter().map(|r| r.generated).sum();
    let homographic: usize = reports.iter().map(|r| r.homographic).sum();
    let mut bars: Vec<(String, u64)> = reports
        .iter()
        .map(|r| (r.brand.clone(), r.homographic as u64))
        .collect();
    bars.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    bars.truncate(20);
    section(
        "Figure 7 — Available homographic IDNs per brand (top 100)",
        "128,432 one-character candidates generated; 42,671 (33%) clear SSIM ≥ 0.95; most unregistered. (The UC-SimList's pixel-overlap table carries a longer low-fidelity tail than our curated one — ~18 vs ~10 glyphs per character — so our pass rate sits higher; the absolute pool ordering per brand is the reproduced shape.)",
        format!(
            "{}\nCandidates (top-100 brands, one substitution): {}; homographic at 0.95: {} ({}).\n",
            bar_chart("Homographic candidates (top 20 brands)", &bars, 40),
            group_thousands(generated as u64),
            group_thousands(homographic as u64),
            percent(homographic as u64, generated as u64)
        ),
    )
}

/// Table XIV — top brands by Type-1 semantic IDNs.
pub fn table14(ctx: &ReproContext) -> String {
    let analysis = semantic_abuse(ctx);
    let mut table = Table::new(
        vec!["Domain", "# Type-1 IDN", "Rate", "Protective"],
        vec![Align::Left, Align::Right, Align::Right, Align::Right],
    );
    for row in analysis.top_brands(10) {
        table.row(vec![
            row.brand,
            group_thousands(row.idns),
            percent(row.idns, analysis.total()),
            group_thousands(row.protective),
        ]);
    }
    section(
        "Table XIV — Top 10 brand domains ordered by Type-1 IDNs",
        "1,497 Type-1 IDNs over 102 brands; 58.com 270 (18%), qq.com 139, go.com 114; 45 protective.",
        format!(
            "{}\nDetected: {}; brands targeted: {}; with WHOIS: {}; personal-email registrants: {}.\n",
            table.render(),
            group_thousands(analysis.total()),
            analysis.targeted_brands(),
            group_thousands(analysis.with_whois()),
            group_thousands(analysis.personal_email())
        ),
    )
}

/// Extension — baseline squatting classes vs the homograph pool.
///
/// The paper situates IDN homographs within the squatting literature
/// (typo-, bit-, combo-squatting). This extension compares candidate-pool
/// sizes per class for the top brands, showing where the IDN attack surface
/// sits relative to the ASCII baselines.
pub fn ext_squatting(ctx: &ReproContext) -> String {
    use idnre_core::squatting::{self, SquattingClass};
    let mut table = Table::new(
        vec![
            "Brand",
            "homograph",
            "omission",
            "repetition",
            "transposition",
            "replacement",
            "insertion",
            "bitsquat",
            "combosquat",
        ],
        vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ],
    );
    let mut totals = [0usize; 8];
    // The survey's one-character pools are in rank order, so the top 10
    // brands are its first 10 rows.
    for (brand, singles) in ctx.eco.brands.top(10).iter().zip(&ctx.candidates.singles) {
        let homograph = singles.homographic;
        let pools = squatting::pool_sizes(&brand.sld);
        let mut row = vec![brand.domain(), homograph.to_string()];
        totals[0] += homograph;
        for (i, class) in SquattingClass::ALL.iter().enumerate() {
            let size = pools
                .iter()
                .find(|(c, _)| c == class)
                .map(|&(_, n)| n)
                .unwrap_or(0);
            row.push(size.to_string());
            totals[i + 1] += size;
        }
        table.row(row);
    }
    section(
        "Extension — squatting-class candidate pools (top 10 brands)",
        "Related work (typo-/bit-/combo-squatting) provides the baselines; the homograph pool is the IDN-specific surface the paper adds.",
        format!(
            "{}\nTotals: homograph {}, typo classes {} (omission+repetition+transposition+replacement+insertion), bitsquat {}, combosquat {}.\n",
            table.render(),
            totals[0],
            totals[1] + totals[2] + totals[3] + totals[4] + totals[5],
            totals[6],
            totals[7]
        ),
    )
}

/// Extension — browser exposure of the registered homograph findings.
///
/// Crosses Section VI-B (the detected lookalikes) with Section VI-A (the
/// display policies): of the registered homographic IDNs the detector
/// found, how many does each policy family actually render in Unicode —
/// i.e. how many remain *deployable* against users of that browser?
pub fn ext_bypass(ctx: &ReproContext) -> String {
    use idnre_browser::{PolicyKind, Rendering};
    let policies = [
        ("Chrome mixed-script", PolicyKind::ChromeMixedScript),
        ("Firefox single-script", PolicyKind::FirefoxSingleScript),
        ("Punycode-always", PolicyKind::PunycodeAlways),
        ("Unicode-always (Sogou PC)", PolicyKind::UnicodeAlways),
    ];
    let mut table = Table::new(
        vec!["Policy", "Spoofs shown in Unicode", "Exposure"],
        vec![Align::Left, Align::Right, Align::Right],
    );
    let total = ctx.outputs.homographs.len() as u64;
    for (name, kind) in policies {
        let policy = kind.policy();
        let exposed = ctx
            .outputs
            .homographs
            .iter()
            .filter(|f| matches!(policy.display(&f.finding.unicode), Rendering::Unicode(_)))
            .count() as u64;
        table.row(vec![
            name.to_string(),
            group_thousands(exposed),
            percent(exposed, total.max(1)),
        ]);
    }
    section(
        "Extension — browser exposure of registered homographic IDNs",
        "Most browsers responded to the 2017 attack, but single-script policies still render whole-script and diacritic spoofs; Unicode-always renders all of them.",
        format!(
            "{}\nDetected homographic IDNs evaluated: {}.\n",
            table.render(),
            group_thousands(total)
        ),
    )
}

/// Extension — beyond the one-character lower bound.
///
/// The paper notes its 42,671 candidates are "just the lower-bound, as only
/// one letter was replaced". This extension measures the next rung: the
/// two-character substitution pool for the top brands (capped enumeration).
pub fn ext_multichar(ctx: &ReproContext) -> String {
    let mut table = Table::new(
        vec![
            "Brand",
            "1-char pool",
            "1-char ≥0.95",
            "2-char pool (cap 3k)",
            "2-char ≥0.95",
        ],
        vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ],
    );
    let survey = &ctx.candidates;
    for (singles, pairs) in survey.singles.iter().zip(&survey.pairs) {
        table.row(vec![
            pairs.brand.clone(),
            singles.generated.to_string(),
            singles.homographic.to_string(),
            pairs.generated.to_string(),
            pairs.homographic.to_string(),
        ]);
    }
    section(
        "Extension — multi-character substitution pools",
        "\"The number of IDNs we found so far is just the lower-bound, as only one letter was replaced\" (Section VI-D).",
        table.render(),
    )
}

/// Figure 8 — traffic to Type-1 semantic IDNs.
pub fn fig8(ctx: &ReproContext) -> String {
    attack_traffic_figure(
        ctx,
        &ctx.outputs.semantic1,
        "Figure 8 — ECDF of active time and query volume of semantic IDNs",
        "Type-1 IDNs average 735 active days and 1,562 queries — frequently visited, mostly 'sleeping'.",
    )
}
