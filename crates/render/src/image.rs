//! Grayscale raster used by the renderer and similarity metrics.

/// A grayscale image with `f32` pixels in `[0, 1]` (0 = background/white,
/// 1 = ink/black), row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates a blank (all-zero) image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        GrayImage {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`; 0.0 outside bounds (reads never panic — the
    /// windowed metrics clamp at edges).
    pub fn get(&self, x: usize, y: usize) -> f32 {
        if x < self.width && y < self.height {
            self.data[y * self.width + x]
        } else {
            0.0
        }
    }

    /// Sets pixel `(x, y)`, clamping the value to `[0, 1]`; writes outside
    /// bounds are ignored (marks may extend past a cell edge).
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        if x < self.width && y < self.height {
            self.data[y * self.width + x] = v.clamp(0.0, 1.0);
        }
    }

    /// Sets pixel `(x, y)` to full ink.
    pub fn ink(&mut self, x: usize, y: usize) {
        self.set(x, y, 1.0);
    }

    /// Clears pixel `(x, y)` to background.
    pub fn erase(&mut self, x: usize, y: usize) {
        self.set(x, y, 0.0);
    }

    /// Flips a pixel between ink and background (used by shape variants).
    pub fn toggle(&mut self, x: usize, y: usize) {
        let v = self.get(x, y);
        self.set(x, y, if v > 0.5 { 0.0 } else { 1.0 });
    }

    /// Raw pixel slice, row-major.
    pub fn pixels(&self) -> &[f32] {
        &self.data
    }

    /// Extends the image to `width` pixels, padding new columns with
    /// background. No-op if the image is already at least that wide.
    pub fn pad_to_width(&mut self, width: usize) {
        if width <= self.width {
            return;
        }
        let mut data = vec![0.0; width * self.height];
        for y in 0..self.height {
            let src = y * self.width;
            let dst = y * width;
            data[dst..dst + self.width].copy_from_slice(&self.data[src..src + self.width]);
        }
        self.width = width;
        self.data = data;
    }

    /// Total ink (sum of pixel values). Only the font's unit tests read
    /// it, to check that glyphs are not blank.
    pub fn ink_mass(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Serializes to a binary PGM (P5) image — ink maps to black on a
    /// white background, the way address bars draw text.
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend(
            self.data
                .iter()
                .map(|&v| 255u8.saturating_sub((v * 255.0) as u8)),
        );
        out
    }

    /// Renders to an ASCII-art string for debugging (`#` ink, `.` blank).
    pub fn to_ascii_art(&self) -> String {
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                out.push(if self.get(x, y) > 0.5 { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut img = GrayImage::new(4, 4);
        img.set(1, 2, 0.7);
        assert_eq!(img.get(1, 2), 0.7);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn out_of_bounds_is_safe() {
        let mut img = GrayImage::new(2, 2);
        img.set(10, 10, 1.0); // ignored
        assert_eq!(img.get(10, 10), 0.0);
    }

    #[test]
    fn values_clamped() {
        let mut img = GrayImage::new(2, 2);
        img.set(0, 0, 5.0);
        assert_eq!(img.get(0, 0), 1.0);
        img.set(0, 0, -1.0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn toggle_flips() {
        let mut img = GrayImage::new(1, 1);
        img.toggle(0, 0);
        assert_eq!(img.get(0, 0), 1.0);
        img.toggle(0, 0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn pad_preserves_content() {
        let mut img = GrayImage::new(2, 2);
        img.ink(1, 1);
        img.pad_to_width(4);
        assert_eq!(img.width(), 4);
        assert_eq!(img.get(1, 1), 1.0);
        assert_eq!(img.get(3, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimensions_panic() {
        let _ = GrayImage::new(0, 4);
    }

    #[test]
    fn pgm_has_header_and_payload() {
        let mut img = GrayImage::new(3, 2);
        img.ink(0, 0);
        let pgm = img.to_pgm();
        assert!(pgm.starts_with(b"P5\n3 2\n255\n"));
        let payload = &pgm[pgm.len() - 6..];
        assert_eq!(payload[0], 0); // ink = black
        assert_eq!(payload[1], 255); // background = white
    }

    #[test]
    fn ascii_art_shape() {
        let mut img = GrayImage::new(2, 1);
        img.ink(0, 0);
        assert_eq!(img.to_ascii_art(), "#.\n");
    }
}
