//! The per-domain registration record the generator emits, and the
//! registrar/registrant/timeline models behind it.

use crate::hosting::HostingProfile;
use idnre_crawler::UsageCategory;
use idnre_langid::Language;
use idnre_whois::Date;
use rand::Rng;

/// Why a domain ended up on a blacklist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MaliciousKind {
    /// Illegal-business promotion (the gambling cluster of Section IV-A).
    UndergroundBusiness,
    /// Visual lookalike of a brand domain (Section VI).
    Homograph,
    /// Brand + foreign keyword (Type-1 semantic, Section VII).
    SemanticType1,
    /// Translated brand name (Type-2 semantic).
    SemanticType2,
    /// Generic malware/phishing distribution.
    Other,
}

/// One generated domain registration with every attribute the measurement
/// pipeline consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainRegistration {
    /// Registered domain in ACE form, e.g. `xn--0wwy37b.com`.
    pub domain: String,
    /// Unicode display form, e.g. `波色.com`.
    pub unicode: String,
    /// TLD (ACE form).
    pub tld: String,
    /// Ground-truth language of the label.
    pub language: Language,
    /// Creation date.
    pub created: Date,
    /// Sponsoring registrar.
    pub registrar: String,
    /// Registrant email (None under WHOIS privacy).
    pub registrant_email: Option<String>,
    /// Whether WHOIS privacy shields the registrant.
    pub privacy: bool,
    /// Whether (and why) the domain is malicious; None for benign.
    pub malicious: Option<MaliciousKind>,
    /// What its website serves.
    pub content: UsageCategory,
    /// How it is hosted (None when unresolved).
    pub hosting: Option<HostingProfile>,
    /// Whether the host has HTTPS on port 443.
    pub https: bool,
}

/// Table IV's registrar market: top-10 names with their measured shares
/// (per mille), plus a long tail.
const REGISTRARS: [(&str, u32); 10] = [
    ("GMO Internet Inc.", 230),
    ("HiChina Zhicheng Technology Limited.", 109),
    ("Name.com, Inc.", 43),
    ("Gabia, Inc.", 40),
    ("Dynadot, LLC.", 32),
    ("1&1 Internet SE.", 29),
    ("Chengdu West Dimension Digital Technology Co., Ltd.", 28),
    ("eNom, LLC.", 24),
    ("DomainSite, Inc.", 23),
    ("GoDaddy.com, LLC.", 19),
];

/// Number of long-tail registrars (paper: "over 700" total).
pub const TAIL_REGISTRARS: u32 = 720;

/// Samples a registrar name per the Table IV market shares.
pub fn sample_registrar<R: Rng + ?Sized>(rng: &mut R) -> String {
    let mut roll = rng.gen_range(0..1000u32);
    for &(name, w) in &REGISTRARS {
        if roll < w {
            return name.to_string();
        }
        roll -= w;
    }
    // Long tail: Zipf-ish across TAIL_REGISTRARS names.
    let u: f64 = rng.gen_range(0.0..1.0);
    let idx = ((TAIL_REGISTRARS as f64).powf(u) - 1.0) as u32;
    format!("Registrar-{:03} LLC", idx)
}

/// A bulk registrant's portfolio theme (Table III's "IDN Characteristics").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkTheme {
    /// Online gambling vocabulary.
    Gambling,
    /// Chinese city names.
    CityNames,
    /// Short (1–2 character) words.
    ShortWords,
}

/// Table III's opportunistic bulk registrants: email, approximate holdings
/// (scaled by the ecosystem generator), and portfolio theme.
pub const BULK_REGISTRANTS: [(&str, u32, BulkTheme); 5] = [
    ("776053229@qq.com", 1562, BulkTheme::CityNames),
    ("daidesheng88@gmail.com", 1453, BulkTheme::Gambling),
    ("tetetw@gmail.com", 1391, BulkTheme::ShortWords),
    ("840629127@qq.com", 1316, BulkTheme::CityNames),
    ("776053229@163.com", 1178, BulkTheme::CityNames),
];

/// Generates one label consistent with a bulk registrant's theme.
pub fn themed_label<R: Rng + ?Sized>(rng: &mut R, theme: BulkTheme) -> String {
    const GAMBLING: [&str; 10] = [
        "彩票",
        "博彩",
        "投注",
        "棋牌",
        "六合彩",
        "时时彩",
        "百家乐",
        "赌场",
        "开户",
        "娱乐",
    ];
    const CITIES: [&str; 10] = [
        "重庆", "成都", "昆明", "贵阳", "北京", "上海", "广州", "深圳", "武汉", "西安",
    ];
    const SHORT: [&str; 12] = [
        "爱", "美", "福", "乐", "好", "金", "龙", "花", "海", "山", "云", "星",
    ];
    match theme {
        BulkTheme::Gambling => {
            let a = GAMBLING[rng.gen_range(0..GAMBLING.len())];
            let b = GAMBLING[rng.gen_range(0..GAMBLING.len())];
            format!("{a}{b}")
        }
        BulkTheme::CityNames => {
            let city = CITIES[rng.gen_range(0..CITIES.len())];
            const SUFFIX: [&str; 5] = ["", "门户", "生活", "信息", "之家"];
            format!("{city}{}", SUFFIX[rng.gen_range(0..SUFFIX.len())])
        }
        BulkTheme::ShortWords => {
            let a = SHORT[rng.gen_range(0..SHORT.len())];
            if rng.gen_ratio(1, 2) {
                a.to_string()
            } else {
                format!("{a}{}", SHORT[rng.gen_range(0..SHORT.len())])
            }
        }
    }
}

/// Samples a registrant email for an ordinary (non-bulk) registration.
/// Roughly 40% use free-mail providers, 30% corporate addresses, and the
/// rest sit behind WHOIS privacy (returning `None`).
pub fn sample_registrant<R: Rng + ?Sized>(rng: &mut R, index: u64) -> (Option<String>, bool) {
    match rng.gen_range(0..10) {
        0..=3 => {
            let provider = ["qq.com", "gmail.com", "163.com", "hotmail.com"][rng.gen_range(0..4)];
            (Some(format!("user{index}@{provider}")), false)
        }
        4..=6 => (
            Some(format!("admin@company{}.example", index % 5000)),
            false,
        ),
        _ => (None, true),
    }
}

/// Samples a creation date reproducing Figure 1: volume rising over
/// 1999–2017 with spikes in 2000 (Verisign IDN testbed) and 2004 (German &
/// Latin characters introduced).
pub fn sample_creation_date<R: Rng + ?Sized>(rng: &mut R, snapshot: Date) -> Date {
    // Per-year weights, 1999..=2017: back-loaded growth (only ≈6% of
    // registrations predate 2008 — Finding 2) with the 2000 testbed and
    // 2004 German/Latin spikes still standing out against their neighbours.
    const WEIGHTS: [u32; 19] = [
        2, 15, 3, 3, 4, 14, 5, 6, 7, 30, 36, 44, 54, 66, 82, 102, 128, 160, 240,
    ];
    let total: u32 = WEIGHTS.iter().sum();
    let mut roll = rng.gen_range(0..total);
    let mut year = 1999;
    for (i, &w) in WEIGHTS.iter().enumerate() {
        if roll < w {
            year = 1999 + i as i32;
            break;
        }
        roll -= w;
    }
    random_date_in_year(rng, year, snapshot)
}

/// Samples a creation date for a *malicious* registration: same rising
/// baseline plus the 2015/2017 cybersquatting spikes.
pub fn sample_malicious_creation_date<R: Rng + ?Sized>(rng: &mut R, snapshot: Date) -> Date {
    const WEIGHTS: [u32; 19] = [
        2, 6, 3, 3, 4, 8, 5, 6, 7, 8, 10, 12, 14, 17, 20, 24, 90, 40, 130,
    ];
    let total: u32 = WEIGHTS.iter().sum();
    let mut roll = rng.gen_range(0..total);
    let mut year = 1999;
    for (i, &w) in WEIGHTS.iter().enumerate() {
        if roll < w {
            year = 1999 + i as i32;
            break;
        }
        roll -= w;
    }
    random_date_in_year(rng, year, snapshot)
}

fn random_date_in_year<R: Rng + ?Sized>(rng: &mut R, year: i32, snapshot: Date) -> Date {
    loop {
        let month = rng.gen_range(1..=12u8);
        let day = rng.gen_range(1..=28u8);
        let date = Date::new(year, month, day).expect("day <= 28 is always valid");
        if date <= snapshot {
            return date;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn registrar_market_shape() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 30_000;
        let mut gmo = 0usize;
        let mut godaddy = 0usize;
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..n {
            let r = sample_registrar(&mut rng);
            if r.starts_with("GMO") {
                gmo += 1;
            }
            if r.starts_with("GoDaddy") {
                godaddy += 1;
            }
            distinct.insert(r);
        }
        let gmo_rate = gmo as f64 / n as f64;
        let godaddy_rate = godaddy as f64 / n as f64;
        // Table IV: GMO ≈ 23%, GoDaddy ≈ 1.88% ("only takes a small share").
        assert!((gmo_rate - 0.23).abs() < 0.02, "gmo {gmo_rate}");
        assert!(
            (godaddy_rate - 0.019).abs() < 0.01,
            "godaddy {godaddy_rate}"
        );
        // "over 700 registrars" — the tail is broad.
        assert!(distinct.len() > 300, "distinct {}", distinct.len());
    }

    #[test]
    fn creation_timeline_has_spikes() {
        let mut rng = StdRng::seed_from_u64(32);
        let snapshot = Date::new(2017, 9, 21).unwrap();
        let mut hist = idnre_stats::YearHistogram::new();
        for _ in 0..20_000 {
            hist.record(sample_creation_date(&mut rng, snapshot).year);
        }
        let spikes = hist.spikes(2.0);
        assert!(spikes.contains(&2000), "2000 spike missing: {spikes:?}");
        assert!(spikes.contains(&2004), "2004 spike missing: {spikes:?}");
        // Rising overall trend.
        assert!(hist.count(2017) > hist.count(2010));
        // Finding 2: ≈6% of registrations predate 2008.
        let before_2008: u64 = (1999..2008).map(|y| hist.count(y)).sum();
        let rate = before_2008 as f64 / hist.total() as f64;
        assert!((0.03..0.10).contains(&rate), "pre-2008 rate {rate}");
    }

    #[test]
    fn malicious_timeline_spikes_2015_2017() {
        let mut rng = StdRng::seed_from_u64(33);
        let snapshot = Date::new(2017, 9, 21).unwrap();
        let mut hist = idnre_stats::YearHistogram::new();
        for _ in 0..10_000 {
            hist.record(sample_malicious_creation_date(&mut rng, snapshot).year);
        }
        assert!(hist.count(2015) > hist.count(2014) * 2);
        assert!(hist.count(2017) > hist.count(2016) * 2);
    }

    #[test]
    fn dates_never_exceed_snapshot() {
        let mut rng = StdRng::seed_from_u64(34);
        let snapshot = Date::new(2017, 9, 21).unwrap();
        for _ in 0..2000 {
            assert!(sample_creation_date(&mut rng, snapshot) <= snapshot);
            assert!(sample_malicious_creation_date(&mut rng, snapshot) <= snapshot);
        }
    }

    #[test]
    fn registrant_mix() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut privacy = 0;
        let n = 10_000;
        for i in 0..n {
            let (email, is_private) = sample_registrant(&mut rng, i);
            assert_eq!(email.is_none(), is_private);
            if is_private {
                privacy += 1;
            }
        }
        let rate = privacy as f64 / n as f64;
        assert!((0.2..0.4).contains(&rate), "privacy rate {rate}");
    }
}
