//! `ssim_windows` skips the moments of windows that are equal in both
//! images and scores them 1.0, and `TextBitmap::ssim` scores bit-cells by
//! popcount. These properties hold both to a reference that computes every
//! window's moments, bit for bit, on the inputs they are for: near-copies
//! of random binary images, rendered homoglyph substitutions of brand
//! labels, and strings over every script the renderer draws.

use idnre_render::{render_text, ssim, ssim_strings, ssim_windows, GrayImage, TextBitmap};
use idnre_unicode::confusables::CONFUSABLES;
use idnre_unicode::homoglyphs_of;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const C1: f64 = 0.01 * 0.01;
const C2: f64 = 0.03 * 0.03;
const WINDOW: usize = 8;
const STRIDE: usize = 4;

/// Brand SLDs of varied length and letter mix.
const BRANDS: [&str; 10] = [
    "google",
    "go",
    "apple",
    "facebook",
    "instagram",
    "wikipedia",
    "amazon",
    "microsoft",
    "paypal",
    "yahoo",
];

/// Every window's SSIM from its moments, in the library's window order.
fn reference_windows(a: &GrayImage, b: &GrayImage) -> Vec<f64> {
    let (w, h) = (a.width(), a.height());
    let mut out = Vec::new();
    let mut y = 0;
    loop {
        let y0 = y.min(h.saturating_sub(WINDOW));
        let mut x = 0;
        loop {
            let x0 = x.min(w.saturating_sub(WINDOW));
            out.push(reference_window(a, b, x0, y0));
            if x0 + WINDOW >= w {
                break;
            }
            x += STRIDE;
        }
        if y0 + WINDOW >= h {
            break;
        }
        y += STRIDE;
    }
    out
}

fn reference_window(a: &GrayImage, b: &GrayImage, x0: usize, y0: usize) -> f64 {
    let n = (WINDOW * WINDOW) as f64;
    let (mut sum_a, mut sum_b) = (0.0f64, 0.0f64);
    for dy in 0..WINDOW {
        for dx in 0..WINDOW {
            sum_a += a.get(x0 + dx, y0 + dy) as f64;
            sum_b += b.get(x0 + dx, y0 + dy) as f64;
        }
    }
    let (mu_a, mu_b) = (sum_a / n, sum_b / n);
    let (mut var_a, mut var_b, mut cov) = (0.0f64, 0.0f64, 0.0f64);
    for dy in 0..WINDOW {
        for dx in 0..WINDOW {
            let da = a.get(x0 + dx, y0 + dy) as f64 - mu_a;
            let db = b.get(x0 + dx, y0 + dy) as f64 - mu_b;
            var_a += da * da;
            var_b += db * db;
            cov += da * db;
        }
    }
    var_a /= n;
    var_b /= n;
    cov /= n;
    ((2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2))
        / ((mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2))
}

/// Asserts `ssim_windows` and `ssim` equal the reference bit for bit, and
/// returns the reference mean.
fn assert_exact(a: &GrayImage, b: &GrayImage, what: &str) -> f64 {
    let fast: Vec<u64> = ssim_windows(a, b)
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let reference = reference_windows(a, b);
    let slow: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
    assert_eq!(fast, slow, "window values differ for {what}");
    let mean = reference.iter().sum::<f64>() / reference.len() as f64;
    assert_eq!(
        ssim(a, b).unwrap().to_bits(),
        mean.to_bits(),
        "mean differs for {what}"
    );
    mean
}

/// A random binary image and a copy with `flips` random pixels toggled,
/// so some windows are equal and some are not.
fn binary_pair(width: usize, height: usize, seed: u64, flips: usize) -> (GrayImage, GrayImage) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut a = GrayImage::new(width, height);
    for y in 0..height {
        for x in 0..width {
            if rng.gen_bool(0.4) {
                a.ink(x, y);
            }
        }
    }
    let mut b = a.clone();
    for _ in 0..flips {
        b.toggle(rng.gen_range(0..width), rng.gen_range(0..height));
    }
    (a, b)
}

/// `brand` with the characters at `positions` replaced by one of their
/// homoglyphs, picked by `pick`; `None` when a position has none.
fn substitute(brand: &str, positions: &[usize], pick: usize) -> Option<String> {
    let mut chars: Vec<char> = brand.chars().collect();
    for &pos in positions {
        let glyphs = homoglyphs_of(chars[pos]);
        if glyphs.is_empty() {
            return None;
        }
        chars[pos] = glyphs[pick % glyphs.len()].ch;
    }
    Some(chars.into_iter().collect())
}

/// One character from every script the renderer draws differently: ASCII,
/// a confusables-table source, and CJK, Hangul and Arabic samples.
fn any_script_char() -> impl Strategy<Value = char> {
    prop_oneof![
        proptest::char::range('\u{0}', '\u{7F}'),
        (0..CONFUSABLES.len()).prop_map(|i| CONFUSABLES[i].ch),
        proptest::char::range('\u{4E00}', '\u{9FFF}'),
        proptest::char::range('\u{AC00}', '\u{D7A3}'),
        proptest::char::range('\u{0600}', '\u{06FF}'),
    ]
}

fn any_script_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_script_char(), 0..25).prop_map(|v| v.into_iter().collect())
}

/// `a` with its first characters replaced by `b`'s, so the two strings
/// have `a`'s length and share its tail.
fn overwrite_prefix(a: &str, b: &str) -> String {
    let b: Vec<char> = b.chars().collect();
    a.chars()
        .enumerate()
        .map(|(i, c)| b.get(i).copied().unwrap_or(c))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random binary images, including ones narrower or shorter than a
    /// window, and their near-copies.
    #[test]
    fn binary_images_match_the_reference(
        width in 1usize..48,
        height in 1usize..24,
        seed: u64,
        flips in 0usize..6,
    ) {
        let (a, b) = binary_pair(width, height, seed, flips);
        assert_exact(&a, &b, &format!("{width}x{height} seed {seed} flips {flips}"));
        assert_exact(&b, &a, &format!("{width}x{height} seed {seed} flips {flips}, swapped"));
    }

    /// One- and two-character homoglyph substitutions of brand labels
    /// against the brand, as the availability enumerator compares them.
    #[test]
    fn brand_substitutions_match_the_reference(
        brand_index in 0usize..BRANDS.len(),
        i in 0usize..16,
        j in 0usize..16,
        pick in 0usize..64,
        two: bool,
    ) {
        let brand = BRANDS[brand_index];
        let len = brand.chars().count();
        let (i, j) = (i % len, j % len);
        let positions = if two && i != j { vec![i, j] } else { vec![i] };
        let spoof = substitute(brand, &positions, pick);
        prop_assume!(spoof.is_some());
        let spoof = spoof.unwrap();
        let mean = assert_exact(&render_text(brand), &render_text(&spoof), &spoof);
        // The enumerator's bitmap: the brand's, with the substituted cells
        // redrawn.
        let mut substituted = TextBitmap::new(brand);
        for (pos, c) in spoof.chars().enumerate() {
            substituted.set_char(pos, c);
        }
        prop_assert_eq!(&substituted, &TextBitmap::new(&spoof));
        let score = TextBitmap::new(brand).ssim(&substituted).unwrap();
        prop_assert_eq!(score.to_bits(), mean.to_bits(), "{}", spoof);
    }

    /// Strings over every script, compared at equal length and padded to
    /// equal cell counts as `ssim_strings` pads them: the popcount kernel
    /// returns the `f32` path's value bit for bit.
    #[test]
    fn bitmap_scores_match_the_f32_path(a in any_script_string(), b in any_script_string()) {
        let cells = a.chars().count().max(b.chars().count()).max(1);
        let (mut ia, mut ib) = (render_text(&a), render_text(&b));
        ia.pad_to_width(cells * idnre_render::CELL_WIDTH);
        ib.pad_to_width(cells * idnre_render::CELL_WIDTH);
        let padded = assert_exact(&ia, &ib, &format!("{a:?} vs {b:?}, padded"));
        let strings = ssim_strings(&a, &b);
        prop_assert_eq!(strings.to_bits(), padded.to_bits(), "{:?} vs {:?}", a, b);

        let same_length = overwrite_prefix(&a, &b);
        let exact = assert_exact(&render_text(&a), &render_text(&same_length), &same_length);
        let score = TextBitmap::new(&a).ssim(&TextBitmap::new(&same_length));
        let bits = score.map(f64::to_bits);
        prop_assert_eq!(bits, Some(exact.to_bits()), "{:?} vs {:?}", a, same_length);
        if a.chars().count().max(1) != b.chars().count().max(1) {
            prop_assert_eq!(TextBitmap::new(&a).ssim(&TextBitmap::new(&b)), None);
        }
    }
}
