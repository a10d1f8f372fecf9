//! Image similarity metrics: windowed SSIM (Wang et al., 2004) and MSE.

use crate::image::GrayImage;
use std::error::Error;
use std::fmt;

/// Error returned when comparing images of different dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// Dimensions of the first image.
    pub a: (usize, usize),
    /// Dimensions of the second image.
    pub b: (usize, usize),
}

impl fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "image dimensions differ: {}x{} vs {}x{}",
            self.a.0, self.a.1, self.b.0, self.b.1
        )
    }
}

impl Error for DimensionMismatch {}

/// SSIM stabilization constants for dynamic range L = 1.0.
const C1: f64 = 0.01 * 0.01;
const C2: f64 = 0.03 * 0.03;
/// Window geometry: 8×8 windows, stride 4 (half-overlap).
pub(crate) const WINDOW: usize = 8;
pub(crate) const STRIDE: usize = 4;

/// Computes the mean SSIM index between two images of identical dimensions.
///
/// The index is the average of per-window SSIM values over 8×8 windows with
/// stride 4, using uniform weighting. The result lies in `[-1, 1]`;
/// 1.0 means pixel-identical.
///
/// # Errors
///
/// Returns [`DimensionMismatch`] when the images differ in size.
///
/// # Examples
///
/// ```
/// use idnre_render::{render_text, ssim};
/// let a = render_text("abc");
/// assert_eq!(ssim(&a, &a).unwrap(), 1.0);
/// ```
pub fn ssim(a: &GrayImage, b: &GrayImage) -> Result<f64, DimensionMismatch> {
    Ok(mean_index(ssim_windows(a, b)?.into_iter()))
}

/// The mean of per-window SSIM values, summed in window order (1.0 for
/// no windows). The one reduction of [`ssim`] and
/// [`crate::TextBitmap::ssim`], so equal window values give equal means.
pub(crate) fn mean_index(windows: impl Iterator<Item = f64>) -> f64 {
    let mut count = 0usize;
    let sum: f64 = windows.inspect(|_| count += 1).sum();
    if count == 0 {
        return 1.0;
    }
    sum / count as f64
}

/// Per-window SSIM values (the intermediate the paper's Table XII threshold
/// analysis needs; exposing it avoids recomputation — C-INTERMEDIATE).
///
/// A window whose pixels are equal in both images scores exactly 1.0, so
/// its moments are not computed. With equal inputs `μa = μb` and
/// `var_a = var_b = cov` bitwise; `2·μa·μb` and `μa² + μb²` are then both
/// the exact doubling of one rounded product, as are `2·cov` and
/// `var_a + var_b`, so the numerator equals the denominator. A lookalike
/// differs from its brand in a cell or two, so most of its windows take
/// this path; the values, and their order, are what the full computation
/// returns.
///
/// # Errors
///
/// Returns [`DimensionMismatch`] when the images differ in size.
pub fn ssim_windows(a: &GrayImage, b: &GrayImage) -> Result<Vec<f64>, DimensionMismatch> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err(DimensionMismatch {
            a: (a.width(), a.height()),
            b: (b.width(), b.height()),
        });
    }
    let (w, h) = (a.width(), a.height());
    let mut out = Vec::new();
    let mut y = 0;
    loop {
        let y0 = y.min(h.saturating_sub(WINDOW));
        let mut x = 0;
        loop {
            let x0 = x.min(w.saturating_sub(WINDOW));
            out.push(if window_equal(a, b, x0, y0) {
                1.0
            } else {
                window_ssim(a, b, x0, y0)
            });
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
    Ok(out)
}

/// Whether the 8×8 windows anchored at `(x0, y0)` hold equal pixels in
/// both images (of equal dimensions). Reads past an edge are 0.0 in both,
/// so only the in-bounds rows and columns are compared.
fn window_equal(a: &GrayImage, b: &GrayImage, x0: usize, y0: usize) -> bool {
    let w = a.width();
    let x1 = (x0 + WINDOW).min(w);
    let y1 = (y0 + WINDOW).min(a.height());
    let (pa, pb) = (a.pixels(), b.pixels());
    (y0..y1).all(|y| pa[y * w + x0..y * w + x1] == pb[y * w + x0..y * w + x1])
}

/// SSIM of one 8×8 window anchored at `(x0, y0)`.
fn window_ssim(a: &GrayImage, b: &GrayImage, x0: usize, y0: usize) -> f64 {
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
    window_index(mu_a, mu_b, var_a / n, var_b / n, cov / n)
}

/// The SSIM index of one window from its means, variances and covariance:
/// the one formula of [`ssim_windows`] and [`crate::TextBitmap::ssim`].
#[inline]
pub(crate) fn window_index(mu_a: f64, mu_b: f64, var_a: f64, var_b: f64, cov: f64) -> f64 {
    ((2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2))
        / ((mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2))
}

/// Mean squared error between two images — the baseline metric the paper
/// contrasts SSIM against (Wang & Bovik, 2009).
///
/// # Errors
///
/// Returns [`DimensionMismatch`] when the images differ in size.
pub fn mse(a: &GrayImage, b: &GrayImage) -> Result<f64, DimensionMismatch> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err(DimensionMismatch {
            a: (a.width(), a.height()),
            b: (b.width(), b.height()),
        });
    }
    let sum: f64 = a
        .pixels()
        .iter()
        .zip(b.pixels())
        .map(|(&pa, &pb)| {
            let d = pa as f64 - pb as f64;
            d * d
        })
        .sum();
    Ok(sum / a.pixels().len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render_text;

    #[test]
    fn identical_images_score_one() {
        let img = render_text("google.com");
        assert_eq!(ssim(&img, &img).unwrap(), 1.0);
        assert_eq!(mse(&img, &img).unwrap(), 0.0);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = render_text("ab");
        let b = render_text("abc");
        assert!(ssim(&a, &b).is_err());
        assert!(mse(&a, &b).is_err());
        let err = ssim(&a, &b).unwrap_err();
        assert!(err.to_string().contains("differ"));
    }

    #[test]
    fn ssim_is_symmetric() {
        let a = render_text("google");
        let b = render_text("gõõgle");
        let ab = ssim(&a, &b).unwrap();
        let ba = ssim(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn ssim_orders_by_visual_distance() {
        let base = render_text("google");
        let one_mark = render_text("goōgle");
        let two_marks = render_text("gõõgle");
        let other = render_text("yahoo!");
        let s1 = ssim(&base, &one_mark).unwrap();
        let s2 = ssim(&base, &two_marks).unwrap();
        let s3 = ssim(&base, &other).unwrap();
        assert!(s1 > s2, "one mark ({s1}) should beat two ({s2})");
        assert!(s2 > s3, "homoglyphs ({s2}) should beat unrelated ({s3})");
        assert!(s1 < 1.0);
    }

    #[test]
    fn blank_images_score_one() {
        let a = GrayImage::new(16, 16);
        let b = GrayImage::new(16, 16);
        assert_eq!(ssim(&a, &b).unwrap(), 1.0);
    }

    #[test]
    fn small_images_are_handled() {
        // Smaller than the window: single clamped window.
        let a = GrayImage::new(4, 4);
        let mut b = GrayImage::new(4, 4);
        b.ink(1, 1);
        let s = ssim(&a, &b).unwrap();
        assert!(s < 1.0);
    }

    #[test]
    fn mse_increases_with_difference() {
        let base = render_text("google");
        let near = render_text("goōgle");
        let far = render_text("zzzzzz");
        let m1 = mse(&base, &near).unwrap();
        let m2 = mse(&base, &far).unwrap();
        assert!(m1 < m2);
        assert!(m1 > 0.0);
    }
}
