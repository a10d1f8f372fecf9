//! Text as bit-cells, and SSIM scored by popcount on them.
//!
//! Every glyph the font draws is binary and stays inside its own 8×16
//! cell, so a rendered string is its characters' cells side by side, and a
//! cell packs into 16 row bytes (bit `x` of byte `y` is pixel `(x, y)`).
//! [`crate::render_text`] unpacks the same cells, so the `f32` image and
//! the bitmap are one raster.
//!
//! On that raster an 8×8 window of `ssim_windows`'s grid is one `u64`, and
//! its moments are popcounts. With 0/1 pixels and n = 64, every partial sum
//! the float loop accumulates is a multiple of 1/4096 below 64, so each
//! addition is exact: the loop's mean is k/64, its variance sum k(64−k)/64
//! and its covariance sum k_ab − k_a·k_b/64. [`TextBitmap::ssim`] computes
//! those exact values from the counts and hands them to the same formula
//! and the same window-order mean, so it returns the `f64` that
//! `ssim(&render_text(a), &render_text(b))` returns, bit for bit.

use crate::font::{self, CELL_HEIGHT, CELL_WIDTH};
use crate::image::GrayImage;
use crate::metrics::{self, STRIDE, WINDOW};
use idnre_unicode::confusables::CONFUSABLES;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One character cell: byte `y` is row `y`, bit `x` is column `x`.
type Cell = [u8; CELL_HEIGHT];

// A window is one cell's 8 rows, or the right half of one cell and the
// left half of the next: the packing below relies on this geometry.
const _: () = assert!(WINDOW == CELL_WIDTH && 2 * STRIDE == CELL_WIDTH && CELL_WIDTH == 8);

/// The low nibble of every byte of a window word.
const LOW_NIBBLES: u64 = 0x0F0F_0F0F_0F0F_0F0F;

/// A string rasterized as one bit-cell per character — the binary image
/// [`crate::render_text`] draws, 16 bytes per character instead of 512.
///
/// # Examples
///
/// ```
/// use idnre_render::{render_text, ssim, TextBitmap};
///
/// let brand = TextBitmap::new("google.com");
/// let spoof = TextBitmap::new("gõõgle.com");
/// let exact = ssim(&render_text("google.com"), &render_text("gõõgle.com")).unwrap();
/// assert_eq!(brand.ssim(&spoof), Some(exact));
/// assert_eq!(brand.ssim(&TextBitmap::new("google")), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextBitmap {
    cells: Vec<Cell>,
}

impl TextBitmap {
    /// Rasterizes `text`, one cell per character; the empty string is one
    /// blank cell, as [`crate::render_text`] draws it.
    pub fn new(text: &str) -> Self {
        let mut cells: Vec<Cell> = text.chars().map(glyph).collect();
        if cells.is_empty() {
            cells.push([0; CELL_HEIGHT]);
        }
        TextBitmap { cells }
    }

    /// Number of character cells.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Redraws cell `index` as `c` — a one-character substitution.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`TextBitmap::cells`].
    pub fn set_char(&mut self, index: usize, c: char) {
        self.cells[index] = glyph(c);
    }

    /// Appends blank cells up to `cells`; no-op when already that long.
    pub fn pad_to(&mut self, cells: usize) {
        if cells > self.cells.len() {
            self.cells.resize(cells, [0; CELL_HEIGHT]);
        }
    }

    /// The mean SSIM index against `other`, bit for bit what [`crate::ssim`]
    /// returns for the two rasters as [`GrayImage`]s; `None` when the cell
    /// counts differ.
    pub fn ssim(&self, other: &Self) -> Option<f64> {
        if self.cells.len() != other.cells.len() {
            return None;
        }
        let x_max = (self.cells.len() - 1) * CELL_WIDTH;
        let windows = (0..=CELL_HEIGHT - WINDOW)
            .step_by(STRIDE)
            .flat_map(|y0| (0..=x_max).step_by(STRIDE).map(move |x0| (x0, y0)))
            .map(|(x0, y0)| window_index(self.window(x0, y0), other.window(x0, y0)));
        Some(metrics::mean_index(windows))
    }

    /// The 8×8 window anchored at `(x0, y0)` as 8 row bytes, low row first.
    #[inline]
    fn window(&self, x0: usize, y0: usize) -> u64 {
        let rows = |cell: &Cell| {
            u64::from_le_bytes(
                cell[y0..y0 + WINDOW]
                    .try_into()
                    .expect("a window is 8 rows"),
            )
        };
        let left = rows(&self.cells[x0 / CELL_WIDTH]);
        if x0.is_multiple_of(CELL_WIDTH) {
            return left;
        }
        let right = rows(&self.cells[x0 / CELL_WIDTH + 1]);
        ((left >> STRIDE) & LOW_NIBBLES) | ((right & LOW_NIBBLES) << STRIDE)
    }

    /// Unpacks the cells into a grayscale image (ink 1.0, background 0.0).
    pub fn to_image(&self) -> GrayImage {
        let mut img = GrayImage::new(self.cells.len() * CELL_WIDTH, CELL_HEIGHT);
        for (i, cell) in self.cells.iter().enumerate() {
            for (y, &row) in cell.iter().enumerate() {
                for x in (0..CELL_WIDTH).filter(|x| (row >> x) & 1 == 1) {
                    img.ink(i * CELL_WIDTH + x, y);
                }
            }
        }
        img
    }
}

/// One window's SSIM from its pixel counts: the exact moments the float
/// loop of `ssim_windows` accumulates for 0/1 pixels, through its formula.
/// An equal window scores 1.0, as there.
#[inline]
fn window_index(a: u64, b: u64) -> f64 {
    const N: u32 = (WINDOW * WINDOW) as u32;
    if a == b {
        return 1.0;
    }
    let (ka, kb, kab) = (a.count_ones(), b.count_ones(), (a & b).count_ones());
    let n = f64::from(N);
    let variance = |k: u32| f64::from(k * (N - k)) / (n * n);
    let cov = f64::from(N * kab) - f64::from(ka * kb);
    metrics::window_index(
        f64::from(ka) / n,
        f64::from(kb) / n,
        variance(ka),
        variance(kb),
        cov / (n * n),
    )
}

/// The glyphs drawn once per process: ASCII by code point, and every
/// confusables-table source.
struct Glyphs {
    ascii: [Cell; 128],
    confusables: HashMap<char, Cell>,
}

/// The cell of `c`: from the table, else drawn now.
fn glyph(c: char) -> Cell {
    static GLYPHS: OnceLock<Glyphs> = OnceLock::new();
    let table = GLYPHS.get_or_init(|| Glyphs {
        ascii: std::array::from_fn(|i| draw(char::from(i as u8))),
        confusables: CONFUSABLES.iter().map(|e| (e.ch, draw(e.ch))).collect(),
    });
    if c.is_ascii() {
        return table.ascii[c as usize];
    }
    match table.confusables.get(&c) {
        Some(&cell) => cell,
        None => draw(c),
    }
}

/// Draws `c` with the font on a blank cell and packs it.
///
/// # Panics
///
/// Panics if the glyph has a pixel that is neither 0.0 nor 1.0: a gray
/// pixel has no bit, and the exactness argument above needs 0/1 pixels.
fn draw(c: char) -> Cell {
    let mut img = GrayImage::new(CELL_WIDTH, CELL_HEIGHT);
    font::draw_char(&mut img, 0, c);
    let mut cell = [0; CELL_HEIGHT];
    for (y, row) in cell.iter_mut().enumerate() {
        for x in 0..CELL_WIDTH {
            let v = img.get(x, y);
            assert!(
                v == 0.0 || v == 1.0,
                "glyph {c:?} has a gray pixel {v} at ({x}, {y})"
            );
            if v == 1.0 {
                *row |= 1 << x;
            }
        }
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render_text;

    /// The characters whose glyphs are checked: ASCII, every confusable,
    /// Latin through CJK punctuation (U+00A0–U+2FFF), and a CJK and a
    /// Hangul block.
    fn checked_chars() -> impl Iterator<Item = char> {
        (0..128u32)
            .chain(CONFUSABLES.iter().map(|e| u32::from(e.ch)))
            .chain(0xA0..=0x2FFF)
            .chain(0x4E00..=0x4FFF)
            .chain(0xAC00..=0xACFF)
            .filter_map(char::from_u32)
    }

    /// The renderer before cells: every character drawn onto one image.
    fn whole_image_draw(text: &str) -> GrayImage {
        let chars: Vec<char> = text.chars().collect();
        let mut img = GrayImage::new(chars.len().max(1) * CELL_WIDTH, CELL_HEIGHT);
        for (i, &c) in chars.iter().enumerate() {
            font::draw_char(&mut img, i * CELL_WIDTH, c);
        }
        img
    }

    /// The cell contract: each glyph is binary, inks only its own cell
    /// when drawn between two neighbours, equals its packed cell, and is
    /// case-folded as `draw_char` folds it.
    #[test]
    fn glyphs_are_binary_and_stay_in_their_cell() {
        let mut checked = 0;
        for c in checked_chars() {
            let mut wide = GrayImage::new(3 * CELL_WIDTH, CELL_HEIGHT);
            font::draw_char(&mut wide, CELL_WIDTH, c);
            for y in 0..CELL_HEIGHT {
                for x in 0..3 * CELL_WIDTH {
                    let v = wide.get(x, y);
                    assert!(v == 0.0 || v == 1.0, "{c:?}: gray pixel at ({x}, {y})");
                    let inside = (CELL_WIDTH..2 * CELL_WIDTH).contains(&x);
                    assert!(
                        inside || v == 0.0,
                        "{c:?}: ink outside its cell at ({x}, {y})"
                    );
                }
            }
            let cell = glyph(c);
            for (y, &row) in cell.iter().enumerate() {
                for x in 0..CELL_WIDTH {
                    let bit = (row >> x) & 1 == 1;
                    assert_eq!(
                        bit,
                        wide.get(CELL_WIDTH + x, y) == 1.0,
                        "{c:?} at ({x}, {y})"
                    );
                }
            }
            let lower = c.to_lowercase().next().unwrap_or(c);
            assert_eq!(cell, glyph(lower), "{c:?} does not fold to {lower:?}");
            checked += 1;
        }
        assert!(checked > 12_000, "checked {checked} characters");
    }

    #[test]
    fn render_text_equals_a_whole_image_draw() {
        let all: Vec<char> = checked_chars().collect();
        let mut texts: Vec<String> = all.chunks(24).map(|c| c.iter().collect()).collect();
        texts.extend(
            [
                "",
                "a",
                "google.com",
                "gõõgle.com",
                "аррӏе.com",
                "例え.com",
                "ΑΒΓ",
            ]
            .map(String::from),
        );
        for text in &texts {
            assert_eq!(render_text(text), whole_image_draw(text), "{text:?}");
        }
    }

    #[test]
    fn empty_text_is_one_blank_cell() {
        let empty = TextBitmap::new("");
        assert_eq!(empty.cells(), 1);
        assert_eq!(empty, TextBitmap::new(" "));
        assert_eq!(empty.ssim(&empty), Some(1.0));
    }

    #[test]
    fn cell_counts_must_match() {
        assert_eq!(TextBitmap::new("ab").ssim(&TextBitmap::new("abc")), None);
        let mut padded = TextBitmap::new("ab");
        padded.pad_to(3);
        padded.pad_to(1);
        assert_eq!(padded.cells(), 3);
        assert!(padded.ssim(&TextBitmap::new("abc")).is_some());
    }
}
