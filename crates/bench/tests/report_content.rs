//! Content-level tests over the regenerated tables and figures: each report
//! must carry the canonical rows/markers the paper's version carries.

use idnre_bench::{reports, ReproContext, RunSpec};
use idnre_datagen::EcosystemConfig;
use std::sync::OnceLock;

fn ctx() -> &'static ReproContext {
    static CTX: OnceLock<ReproContext> = OnceLock::new();
    CTX.get_or_init(|| {
        // Scale 1:100 keeps the Table III bulk clusters larger than the
        // brand-protective registrations injected with the attack sets.
        let config = EcosystemConfig {
            scale: 100,
            attack_scale: 2,
            ..EcosystemConfig::default()
        };
        ReproContext::build(
            &config,
            &RunSpec::default(),
            std::sync::Arc::new(idnre_telemetry::NoopRecorder),
        )
    })
}

#[test]
fn table1_lists_every_tld_row() {
    let report = reports::table1(ctx());
    for tld in ["com", "net", "org", "xn--fiqs8s", "Total"] {
        assert!(report.contains(tld), "missing row {tld}");
    }
}

#[test]
fn table2_leads_with_chinese() {
    let full = reports::table2(ctx());
    let report = &full[full.find("| Language").expect("table header")..];
    let chinese_pos = report.find("Chinese").expect("Chinese row");
    for other in ["Japanese", "Korean", "German"] {
        if let Some(pos) = report.find(other) {
            assert!(chinese_pos < pos, "{other} listed before Chinese");
        }
    }
}

#[test]
fn table3_topics_match_table_iii() {
    let report = reports::table3(ctx());
    assert!(report.contains("online gambling"), "{report}");
    assert!(report.contains("city names"), "{report}");
}

#[test]
fn table4_has_gmo_on_top() {
    let report = reports::table4(ctx());
    // Search the table body only — the paper-anchor prose above it also
    // names the registrars.
    let body = &report[report.find("| Registrar").expect("table header")..];
    let gmo = body.find("GMO Internet Inc.").expect("GMO row");
    let godaddy = body.find("GoDaddy").unwrap_or(usize::MAX);
    assert!(gmo < godaddy, "GMO must outrank GoDaddy:\n{body}");
}

#[test]
fn figures_report_the_traffic_gaps() {
    let fig2 = reports::fig2(ctx());
    assert!(fig2.contains("idn"));
    assert!(fig2.contains("malicious-idn"));
    let fig3 = reports::fig3(ctx());
    assert!(fig3.contains("non-idn"));
}

#[test]
fn fig4_attributes_top_segments() {
    let report = reports::fig4(ctx());
    assert!(
        report.contains("parking") || report.contains("shared hosting"),
        "{report}"
    );
    assert!(report.contains("Gini"));
}

#[test]
fn table5_has_all_seven_categories() {
    let report = reports::table5(ctx());
    for row in [
        "Not resolved",
        "Error",
        "Empty",
        "Parked",
        "For sale",
        "Redirected",
        "Meaningful content",
    ] {
        assert!(report.contains(row), "missing {row}");
    }
}

#[test]
fn table6_and_7_cover_certificate_findings() {
    let t6 = reports::table6(ctx());
    for row in [
        "Expired Certificate",
        "Invalid Authority",
        "Invalid Common Name",
    ] {
        assert!(t6.contains(row), "missing {row}");
    }
    let t7 = reports::table7(ctx());
    assert!(t7.contains("sedoparking.com"), "{t7}");
}

#[test]
fn table11_contains_all_surveyed_browsers() {
    let report = reports::table11(ctx());
    for browser in [
        "Chrome",
        "Firefox",
        "Opera",
        "Safari",
        "IE",
        "QQ",
        "Baidu",
        "Qihoo 360",
        "Sogou",
        "Liebao",
    ] {
        assert!(report.contains(browser), "missing {browser}");
    }
    assert!(report.contains("Vulnerable"));
    assert!(report.contains("about:blank"));
}

#[test]
fn table12_is_sorted_descending() {
    let report = reports::table12(ctx());
    let scores: Vec<f64> = report
        .lines()
        .filter_map(|line| {
            let cell = line.split('|').nth(1)?.trim();
            cell.parse::<f64>().ok()
        })
        .collect();
    assert!(scores.len() >= 8, "ladder too short: {scores:?}");
    assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");
    assert!(scores[0] >= 0.99, "top of ladder {}", scores[0]);
}

#[test]
fn table13_and_14_lead_with_the_paper_brands() {
    let t13 = reports::table13(ctx());
    assert!(t13.contains("google.com"));
    let t14 = reports::table14(ctx());
    assert!(t14.contains("58.com"));
}

#[test]
fn extensions_carry_their_signals() {
    let squatting = reports::by_name("ext_squatting").unwrap()(ctx());
    assert!(squatting.contains("bitsquat"));
    let bypass = reports::by_name("ext_bypass").unwrap()(ctx());
    assert!(bypass.contains("Punycode-always"));
    assert!(
        bypass.contains("0.00%"),
        "punycode-always must expose nothing"
    );
    let multichar = reports::by_name("ext_multichar").unwrap()(ctx());
    assert!(multichar.contains("2-char"));
}

#[test]
fn by_name_resolves_every_registered_generator() {
    for (name, _) in reports::ALL {
        assert!(reports::by_name(name).is_some(), "{name} not resolvable");
    }
    assert!(reports::by_name("nonexistent").is_none());
}
