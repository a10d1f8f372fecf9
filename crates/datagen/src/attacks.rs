//! Attack-population injection: registered homographic IDNs (Table XIII)
//! and Type-1 semantic IDNs (Table XIV), targeting the brand list.
//!
//! Every generator here is keyed: each candidate spoof derives its
//! randomness from a pure function of `(key, anchor-or-rank, index)`, so
//! the candidate pool fans out on the work-queue executor and the output
//! is byte-identical for every thread count and chunk size. Only the cheap
//! take-until-target selection over the precomputed candidates runs
//! sequentially.

use crate::brands::{Brand, BrandList};
use idnre_rng::Key;
use idnre_unicode::{homoglyphs_of, Fidelity};
use rand::Rng;

/// One injected attack domain (ground truth attached).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackDomain {
    /// ACE form, e.g. `xn--ggle-55da.com`.
    pub domain: String,
    /// Unicode form, e.g. `gооgle.com`.
    pub unicode: String,
    /// The targeted brand domain, e.g. `google.com`.
    pub target: String,
    /// Whether the spoof is pixel-identical to the target (all
    /// substitutions from the `Identical` fidelity class).
    pub pixel_identical: bool,
    /// Whether the brand owner registered it defensively.
    pub protective: bool,
}

/// Per-brand homograph counts from Table XIII (brand SLD → registered
/// homographic IDNs, protective registrations).
const HOMOGRAPH_ANCHORS: [(&str, u32, u32); 10] = [
    ("google", 121, 19),
    ("facebook", 98, 0),
    ("amazon", 55, 14),
    ("icloud", 42, 0),
    ("youtube", 41, 0),
    ("apple", 39, 0),
    ("sex", 36, 0),
    ("go", 29, 0),
    ("ea", 28, 0),
    ("twitter", 25, 5),
];

/// Per-brand Type-1 counts from Table XIV.
const SEMANTIC_ANCHORS: [(&str, u32, u32); 10] = [
    ("58", 270, 1),
    ("qq", 139, 22),
    ("go", 114, 0),
    ("china", 84, 0),
    ("bet365", 81, 5),
    ("1688", 74, 0),
    ("amazon", 63, 2),
    ("sex", 39, 0),
    ("google", 34, 0),
    ("as", 33, 0),
];

/// Key-subspace words: anchored brands vs. the long-tail ranks. Part of
/// the `idnre-dataset/2` derivation table (DESIGN.md §8).
const SUBSPACE_ANCHORED: u64 = 0;
const SUBSPACE_TAIL: u64 = 1;

/// Long-tail ranks are generated in blocks so a small target (large
/// `scale`) stops early instead of spoofing the whole brand list.
const TAIL_BLOCK: usize = 256;

/// Keywords appended in Type-1 attacks: service terms in the scripts the
/// paper observed (Chinese dominates; see Table IX's icloud 登录 etc.).
const TYPE1_KEYWORDS: &[&str] = &[
    "登录",
    "登陆",
    "邮箱",
    "激活",
    "售后",
    "客服",
    "汽车",
    "商城",
    "充值",
    "开户",
    "注册",
    "娱乐",
    "彩票",
    "官网",
    "下载",
    "支付",
    "代理",
    "游戏",
    "招聘",
    "房产",
    "商店",
    "优惠",
    "会员",
    "信息",
    "网址",
    "导航",
    "直播",
    "视频",
    "论坛",
    "专卖",
    "쇼핑",
    "게임",
    "ログイン",
    "ショップ",
    "ニュース",
    "공식",
];

/// Generates the registered homographic IDN population.
///
/// Anchored brands receive their Table XIII counts (divided by `scale`);
/// a long tail of further brands receives 1–3 spoofs each until the
/// population reaches ≈ 1,516 / `scale` total, of which ≈ 6% are
/// pixel-identical whole-script spoofs (the paper found 91 of 1,516).
pub fn generate_homographs(
    key: Key,
    brands: &BrandList,
    scale: u64,
    threads: usize,
) -> Vec<AttackDomain> {
    let target_total = (1_516 / scale.max(1)) as usize;
    let anchored_key = key.derive(SUBSPACE_ANCHORED);
    let mut jobs: Vec<(u64, &Brand, u64, bool)> = Vec::new();
    for (anchor_idx, &(sld, count, protective)) in HOMOGRAPH_ANCHORS.iter().enumerate() {
        let Some(brand) = brands.by_sld(sld) else {
            continue;
        };
        let n = (count as u64 / scale.max(1)).max(1);
        let protective_n = protective as u64 / scale.max(1);
        for i in 0..n {
            jobs.push((anchor_idx as u64, brand, i, i < protective_n));
        }
    }
    let mut out: Vec<AttackDomain> =
        idnre_par::par_map(&jobs, threads, |&(anchor_idx, brand, i, protective)| {
            let mut rng = anchored_key.derive(anchor_idx).record(i).rng();
            spoof_brand(&mut rng, brand, protective)
        })
        .into_iter()
        .flatten()
        .collect();
    // Long tail: spread over further brands ("255 SLDs within Alexa Top 1k
    // are targeted"), block by block so large scales stop early.
    let tail_key = key.derive(SUBSPACE_TAIL);
    let mut rank = 12usize;
    while out.len() < target_total && rank <= brands.len() {
        let block: Vec<usize> = (rank..(rank + TAIL_BLOCK).min(brands.len() + 1)).collect();
        let candidates = idnre_par::par_map(&block, threads, |&r| {
            let Some(brand) = brands.by_rank(r) else {
                return Vec::new();
            };
            if HOMOGRAPH_ANCHORS.iter().any(|&(s, _, _)| s == brand.sld) {
                return Vec::new();
            }
            let mut rng = tail_key.record(r as u64).rng();
            let n = rng.gen_range(1..=3usize);
            (0..n)
                .filter_map(|_| spoof_brand(&mut rng, brand, false))
                .collect()
        });
        for spoofs in candidates {
            for spoof in spoofs {
                if out.len() >= target_total {
                    break;
                }
                out.push(spoof);
            }
        }
        rank += TAIL_BLOCK;
    }
    dedup(out)
}

/// Builds one homographic spoof of `brand`, or `None` when the brand SLD
/// has no substitutable characters (e.g. all digits).
fn spoof_brand<R: Rng + ?Sized>(
    rng: &mut R,
    brand: &Brand,
    protective: bool,
) -> Option<AttackDomain> {
    // Attackers pick convincing glyphs: the Low (small-caps/modifier) tier
    // exists in the enumeration space but not in registered attacks.
    let convincing = |c: char| -> Vec<&'static idnre_unicode::Confusable> {
        homoglyphs_of(c)
            .iter()
            .copied()
            .filter(|g| g.fidelity != Fidelity::Low)
            .collect()
    };
    let chars: Vec<char> = brand.sld.chars().collect();
    let substitutable: Vec<usize> = (0..chars.len())
        .filter(|&i| !convincing(chars[i]).is_empty())
        .collect();
    if substitutable.is_empty() {
        return None;
    }
    // ~6% of spoofs are pixel-identical (whole-word Identical class).
    let want_identical = rng.gen_ratio(3, 50);
    let mut spoofed = chars.clone();
    let mut all_identical = true;
    if want_identical {
        // Substitute every substitutable position with an Identical glyph
        // where one exists.
        let mut changed = false;
        for &i in &substitutable {
            let identicals: Vec<_> = convincing(chars[i])
                .into_iter()
                .filter(|c| c.fidelity == Fidelity::Identical)
                .collect();
            if let Some(pick) = identicals.first() {
                spoofed[i] = pick.ch;
                changed = true;
            }
        }
        if !changed {
            return None;
        }
    } else {
        // One substitution dominates (it is the most convincing); two or
        // three letters are rarer, mirroring Table VIII's 1–3 range.
        let k = match rng.gen_range(0..10) {
            0..=5 => 1,
            6..=8 => 2,
            _ => 3,
        }
        .min(substitutable.len());
        let mut positions = substitutable.clone();
        for _ in 0..k {
            let idx = rng.gen_range(0..positions.len());
            let pos = positions.swap_remove(idx);
            let glyphs = convincing(chars[pos]);
            // Weight toward the faithful end: Identical/High glyphs are
            // what a phisher actually registers.
            let weighted: Vec<_> = glyphs
                .iter()
                .flat_map(|&g| {
                    let copies = match g.fidelity {
                        Fidelity::Identical => 4,
                        Fidelity::High => 3,
                        _ => 1,
                    };
                    std::iter::repeat_n(g, copies)
                })
                .collect();
            let pick = weighted[rng.gen_range(0..weighted.len())];
            spoofed[pos] = pick.ch;
            if pick.fidelity != Fidelity::Identical {
                all_identical = false;
            }
        }
    }
    let unicode_sld: String = spoofed.iter().collect();
    if unicode_sld == brand.sld {
        return None;
    }
    let unicode = format!("{}.{}", unicode_sld, brand.tld);
    let domain = idnre_idna::to_ascii(&unicode).ok()?;
    Some(AttackDomain {
        domain,
        unicode,
        target: brand.domain(),
        pixel_identical: all_identical,
        protective,
    })
}

/// Generates the Type-1 semantic population (brand + foreign keyword).
pub fn generate_semantic_type1(
    key: Key,
    brands: &BrandList,
    scale: u64,
    threads: usize,
) -> Vec<AttackDomain> {
    let target_total = (1_497 / scale.max(1)) as usize;
    let anchored_key = key.derive(SUBSPACE_ANCHORED);
    let mut jobs: Vec<(u64, &Brand, u64, bool)> = Vec::new();
    for (anchor_idx, &(sld, count, protective)) in SEMANTIC_ANCHORS.iter().enumerate() {
        let Some(brand) = brands.by_sld(sld) else {
            continue;
        };
        let n = (count as u64 / scale.max(1)).max(1);
        let protective_n = protective as u64 / scale.max(1);
        for i in 0..n {
            jobs.push((anchor_idx as u64, brand, i, i < protective_n));
        }
    }
    let mut out: Vec<AttackDomain> =
        idnre_par::par_map(&jobs, threads, |&(anchor_idx, brand, i, protective)| {
            let mut rng = anchored_key.derive(anchor_idx).record(i).rng();
            combine_brand(&mut rng, brand, protective)
        })
        .into_iter()
        .flatten()
        .collect();
    let tail_key = key.derive(SUBSPACE_TAIL);
    let mut rank = 12usize;
    while out.len() < target_total && rank <= brands.len() {
        let block: Vec<usize> = (rank..(rank + TAIL_BLOCK).min(brands.len() + 1)).collect();
        let candidates = idnre_par::par_map(&block, threads, |&r| {
            let brand = brands.by_rank(r)?;
            if SEMANTIC_ANCHORS.iter().any(|&(s, _, _)| s == brand.sld) {
                return None;
            }
            let mut rng = tail_key.record(r as u64).rng();
            combine_brand(&mut rng, brand, false)
        });
        for attack in candidates.into_iter().flatten() {
            if out.len() >= target_total {
                break;
            }
            out.push(attack);
        }
        rank += TAIL_BLOCK;
    }
    dedup(out)
}

fn combine_brand<R: Rng + ?Sized>(
    rng: &mut R,
    brand: &Brand,
    protective: bool,
) -> Option<AttackDomain> {
    // Single or double keyword, appended or prepended — 58汽车.com,
    // 售后qq.com, icloud登录充值.com all occur in the wild corpus.
    let first = TYPE1_KEYWORDS[rng.gen_range(0..TYPE1_KEYWORDS.len())];
    let mut keyword = first.to_string();
    if rng.gen_ratio(2, 5) {
        keyword.push_str(TYPE1_KEYWORDS[rng.gen_range(0..TYPE1_KEYWORDS.len())]);
    }
    let unicode_sld = if rng.gen_ratio(1, 5) {
        format!("{}{}", keyword, brand.sld)
    } else {
        format!("{}{}", brand.sld, keyword)
    };
    let unicode = format!("{}.{}", unicode_sld, brand.tld);
    let domain = idnre_idna::to_ascii(&unicode).ok()?;
    Some(AttackDomain {
        domain,
        unicode,
        target: brand.domain(),
        pixel_identical: false,
        protective,
    })
}

/// Type-2 translation pairs: native-language brand names. Must stay in sync
/// with the detector dictionary in `idnre-core::SemanticDetector` — the
/// `attack_recovery` integration tests assert every injected Type-2 domain
/// is detected, which catches drift.
const TYPE2_TRANSLATIONS: &[(&str, &str)] = &[
    ("格力空调", "gree.com.cn"),
    ("格力", "gree.com.cn"),
    ("北京交通大学", "bjtu.edu.cn"),
    ("奔驰汽车", "mercedes-benz.com"),
    ("奔驰", "mercedes-benz.com"),
    ("谷歌", "google.com"),
    ("苹果", "apple.com"),
    ("亚马逊", "amazon.com"),
    ("脸书", "facebook.com"),
    ("推特", "twitter.com"),
    ("微软", "microsoft.com"),
    ("百度", "baidu.com"),
    ("淘宝", "taobao.com"),
];

/// Generates the Type-2 semantic population: translated brand names
/// registered under gTLDs (Table X). The space is dictionary-bounded, so
/// `scale` only trims the list; each translation × TLD pair draws from its
/// own keyed stream.
pub fn generate_semantic_type2(key: Key, scale: u64) -> Vec<AttackDomain> {
    let mut out = Vec::new();
    for (idx, &(native, brand)) in TYPE2_TRANSLATIONS.iter().enumerate() {
        for (tld_idx, tld) in ["com", "net"].into_iter().enumerate() {
            let mut rng = key.derive(idx as u64).record(tld_idx as u64).rng();
            if !rng.gen_ratio(3, 4) {
                continue; // not every translation × TLD pair is taken
            }
            let unicode = format!("{native}.{tld}");
            let Ok(domain) = idnre_idna::to_ascii(&unicode) else {
                continue;
            };
            out.push(AttackDomain {
                domain,
                unicode,
                target: brand.to_string(),
                pixel_identical: false,
                protective: false,
            });
        }
    }
    let keep = (out.len() as u64 / scale.max(1)).max(1) as usize;
    out.truncate(keep.max(4.min(out.len())));
    dedup(out)
}

fn dedup(mut attacks: Vec<AttackDomain>) -> Vec<AttackDomain> {
    let mut seen = std::collections::HashSet::new();
    attacks.retain(|a| seen.insert(a.domain.clone()));
    attacks
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_rng::StageId;

    fn brands() -> BrandList {
        BrandList::alexa_top_1k()
    }

    fn key(seed: u64) -> Key {
        Key::root(seed).stage(StageId::HomographAttacks)
    }

    #[test]
    fn homograph_population_shape() {
        let attacks = generate_homographs(key(41), &brands(), 1, 2);
        assert!(
            (1_200..=1_600).contains(&attacks.len()),
            "count {}",
            attacks.len()
        );
        let google = attacks.iter().filter(|a| a.target == "google.com").count();
        let facebook = attacks
            .iter()
            .filter(|a| a.target == "facebook.com")
            .count();
        assert!(google > facebook, "google {google} vs facebook {facebook}");
        // Some pixel-identical spoofs exist (paper: 91 of 1,516).
        let identical = attacks.iter().filter(|a| a.pixel_identical).count();
        assert!(identical > 20, "identical {identical}");
        // Protective registrations exist but are rare (paper: 4.82%).
        let protective = attacks.iter().filter(|a| a.protective).count();
        assert!(protective > 0 && protective < attacks.len() / 10);
    }

    #[test]
    fn homographs_are_valid_idns() {
        let attacks = generate_homographs(key(42), &brands(), 10, 2);
        for attack in &attacks {
            assert!(idnre_idna::is_idn(&attack.domain), "{}", attack.domain);
            assert_eq!(
                idnre_idna::to_unicode(&attack.domain).unwrap(),
                attack.unicode
            );
            assert_ne!(attack.unicode, attack.target);
        }
    }

    #[test]
    fn homograph_skeletons_match_targets() {
        let attacks = generate_homographs(key(43), &brands(), 10, 2);
        for attack in attacks.iter().take(100) {
            let sld = attack.unicode.split('.').next().unwrap();
            let target_sld = attack.target.split('.').next().unwrap();
            assert_eq!(
                idnre_unicode::skeleton(sld),
                target_sld,
                "{}",
                attack.unicode
            );
        }
    }

    #[test]
    fn semantic_population_shape() {
        let sem_key = Key::root(44).stage(StageId::SemanticType1Attacks);
        let attacks = generate_semantic_type1(sem_key, &brands(), 1, 2);
        assert!(
            (1_000..=1_600).contains(&attacks.len()),
            "count {}",
            attacks.len()
        );
        let top = attacks.iter().filter(|a| a.target == "58.com").count();
        let second = attacks.iter().filter(|a| a.target == "qq.com").count();
        assert!(top >= second, "58 {top} vs qq {second}");
    }

    #[test]
    fn semantic_ascii_part_is_the_brand() {
        let sem_key = Key::root(45).stage(StageId::SemanticType1Attacks);
        let attacks = generate_semantic_type1(sem_key, &brands(), 10, 2);
        for attack in &attacks {
            let sld = attack.unicode.split('.').next().unwrap();
            let ascii_only: String = sld.chars().filter(char::is_ascii).collect();
            let target_sld = attack.target.split('.').next().unwrap();
            assert_eq!(ascii_only, target_sld, "{}", attack.unicode);
        }
    }

    #[test]
    fn type2_population_is_dictionary_bounded() {
        let t2_key = Key::root(46).stage(StageId::SemanticType2Attacks);
        let attacks = generate_semantic_type2(t2_key, 1);
        assert!(!attacks.is_empty());
        assert!(attacks.len() <= TYPE2_TRANSLATIONS.len() * 2);
        for attack in &attacks {
            assert!(idnre_idna::is_idn(&attack.domain), "{}", attack.domain);
            // The SLD is entirely non-ASCII (a translation, not a compound).
            let sld = attack.unicode.split('.').next().unwrap();
            assert!(sld.chars().all(|c| !c.is_ascii()), "{sld}");
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = generate_homographs(key(7), &brands(), 5, 1);
        let b = generate_homographs(key(7), &brands(), 5, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn generation_is_schedule_independent() {
        // The keyed candidate pools must make the populations identical
        // for every worker count.
        let one = generate_homographs(key(8), &brands(), 20, 1);
        for threads in [2, 8] {
            assert_eq!(one, generate_homographs(key(8), &brands(), 20, threads));
        }
        let sem_key = Key::root(8).stage(StageId::SemanticType1Attacks);
        let sem_one = generate_semantic_type1(sem_key, &brands(), 20, 1);
        for threads in [2, 8] {
            assert_eq!(
                sem_one,
                generate_semantic_type1(sem_key, &brands(), 20, threads)
            );
        }
    }
}
