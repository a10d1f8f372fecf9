//! Text rasterization and image-similarity metrics for homograph detection.
//!
//! The paper renders every IDN and every brand domain to an image and
//! compares them pairwise with the Structural Similarity (SSIM) index
//! (Wang et al., 2004). This crate reimplements that pipeline from scratch:
//!
//! * [`TextBitmap`] — a string on a fixed 8×16 cell grid, one bit-cell per
//!   character: an embedded 5×7 core font for ASCII, compositional
//!   rendering (base glyph + diacritic marks from the `idnre-unicode`
//!   confusables table) for Latin/Cyrillic/Greek lookalikes, and a
//!   deterministic dense block pattern for CJK and other scripts. Its
//!   [`TextBitmap::ssim`] is how text is compared.
//! * [`render_text`] — the same raster as a [`GrayImage`], for galleries
//!   and image tools.
//! * [`ssim`] / [`mse`] — windowed SSIM and mean-squared-error metrics on
//!   any grayscale image.
//!
//! # The cell contract
//!
//! Every glyph is drawn once, on a blank cell, and is binary (each pixel
//! 0.0 or 1.0) with all its ink inside that cell; the unit tests check
//! this for ASCII, every confusable, U+00A0–U+2FFF and a CJK and a Hangul
//! block, and packing panics on a gray pixel. A rendered string is
//! therefore its cells side by side, and `render_text` is built from the
//! same cells as the bitmap. On 0/1 pixels every moment `ssim` sums is
//! exact, so the popcount kernel of [`TextBitmap::ssim`] returns the same
//! `f64` as `ssim(&render_text(a), &render_text(b))`, bit for bit (see the
//! `bitmap` module and `tests/ssim_exactness.rs`).
//!
//! # Examples
//!
//! ```
//! use idnre_render::{render_text, ssim, TextBitmap};
//!
//! let brand = TextBitmap::new("apple.com");
//! let spoof = TextBitmap::new("аррӏе.com"); // Cyrillic spoof: pixel-identical
//! assert_eq!(brand.ssim(&spoof), Some(1.0));
//!
//! let different = render_text("pears.com");
//! assert!(ssim(&render_text("apple.com"), &different).unwrap() < 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod font;
mod image;
mod metrics;

pub use bitmap::TextBitmap;
pub use font::{CELL_HEIGHT, CELL_WIDTH};
pub use image::GrayImage;
pub use metrics::{mse, ssim, ssim_windows, DimensionMismatch};

/// Renders `text` onto a grayscale image, one 8×16 cell per character.
///
/// Rendering is deterministic: the same string always produces the same
/// image. Characters render as:
///
/// 1. ASCII letters/digits/`-`/`.` — the embedded core font.
/// 2. Known confusables — the ASCII target's glyph plus diacritic marks.
/// 3. Everything else — a dense pseudo-random pattern seeded by the code
///    point (visually "foreign" and stable across runs).
///
/// The image is the [`TextBitmap`] of `text`, unpacked.
pub fn render_text(text: &str) -> GrayImage {
    TextBitmap::new(text).to_image()
}

/// Rasterizes two strings to equal cell counts (padding the shorter with
/// blank cells) and returns their SSIM index.
///
/// This is the comparison the homograph scanner performs for every
/// (IDN, brand) pair.
///
/// # Examples
///
/// ```
/// let s = idnre_render::ssim_strings("google", "gõõgle");
/// assert!(s > 0.8 && s < 1.0);
/// ```
pub fn ssim_strings(a: &str, b: &str) -> f64 {
    let mut a = TextBitmap::new(a);
    let mut b = TextBitmap::new(b);
    let cells = a.cells().max(b.cells());
    a.pad_to(cells);
    b.pad_to(cells);
    a.ssim(&b).expect("padded to equal cell counts")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_rendering() {
        let a = render_text("例え.com");
        let b = render_text("例え.com");
        assert_eq!(a, b);
    }

    #[test]
    fn identical_confusable_is_pixel_identical() {
        // Cyrillic о renders exactly as Latin o.
        let a = render_text("o");
        let b = render_text("о");
        assert_eq!(a, b);
    }

    #[test]
    fn marked_confusable_differs_from_base() {
        let a = render_text("o");
        let b = render_text("ö");
        assert_ne!(a, b);
    }

    #[test]
    fn distinct_cjk_chars_render_differently() {
        assert_ne!(render_text("中"), render_text("国"));
    }

    #[test]
    fn ssim_strings_pads_lengths() {
        let s = ssim_strings("google", "google.com");
        assert!(s < 1.0);
        assert!(s > 0.0);
    }
}
