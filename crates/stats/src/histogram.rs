//! Histograms: fixed-width bins and the per-year registration histogram
//! behind Figure 1.

use std::collections::BTreeMap;

/// A histogram over `f64` values with fixed-width bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    /// Samples below `lo`.
    underflow: u64,
    /// Samples at or above the last bin edge.
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "hi must exceed lo");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `(bin_start, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + i as f64 * self.width, c))
    }

    /// Total recorded samples including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Samples that fell below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples that fell at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// A per-year counter keyed by calendar year — Figure 1's registration
/// timeline ("number of IDNs created per year, malicious shown separately").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct YearHistogram {
    years: BTreeMap<i32, u64>,
}

impl YearHistogram {
    /// Creates an empty year histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event in `year`.
    pub fn record(&mut self, year: i32) {
        *self.years.entry(year).or_insert(0) += 1;
    }

    /// Adds every count of `other` — the merge of two partial timelines.
    pub fn merge(&mut self, other: &YearHistogram) {
        for (year, count) in other.iter() {
            *self.years.entry(year).or_insert(0) += count;
        }
    }

    /// Count for a specific year.
    pub fn count(&self, year: i32) -> u64 {
        self.years.get(&year).copied().unwrap_or(0)
    }

    /// `(year, count)` pairs in ascending year order.
    pub fn iter(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.years.iter().map(|(&y, &c)| (y, c))
    }

    /// Years whose count exceeds both neighbours by `factor` — the "spike"
    /// detector used to point at the 2000/2004/2015/2017 registration bursts.
    pub fn spikes(&self, factor: f64) -> Vec<i32> {
        let entries: Vec<(i32, u64)> = self.iter().collect();
        let mut out = Vec::new();
        for i in 0..entries.len() {
            let (year, count) = entries[i];
            let prev = if i > 0 { entries[i - 1].1 } else { 0 };
            let next = entries.get(i + 1).map(|&(_, c)| c).unwrap_or(0);
            let threshold = |n: u64| n == 0 || count as f64 >= factor * n as f64;
            if count > 0 && threshold(prev) && threshold(next) {
                out.push(year);
            }
        }
        out
    }

    /// Total events across all years.
    pub fn total(&self) -> u64 {
        self.years.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_binning() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 11.0] {
            h.record(x);
        }
        assert_eq!(h.count(0), 2); // 0.0, 1.9
        assert_eq!(h.count(1), 1); // 2.0
        assert_eq!(h.count(4), 1); // 9.99
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn year_histogram_counts() {
        let mut h = YearHistogram::new();
        for y in [2000, 2000, 2001, 2017] {
            h.record(y);
        }
        assert_eq!(h.count(2000), 2);
        assert_eq!(h.count(1999), 0);
        assert_eq!(h.total(), 4);
        let years: Vec<i32> = h.iter().map(|(y, _)| y).collect();
        assert_eq!(years, vec![2000, 2001, 2017]);
    }

    #[test]
    fn year_histogram_merge_adds_counts() {
        let (mut left, mut right, mut whole) = (
            YearHistogram::new(),
            YearHistogram::new(),
            YearHistogram::new(),
        );
        for (i, y) in [2000, 2004, 2000, 2017, 2004, 1999].into_iter().enumerate() {
            whole.record(y);
            if i < 3 { &mut left } else { &mut right }.record(y);
        }
        left.merge(&right);
        assert_eq!(left, whole);
        left.merge(&YearHistogram::new());
        assert_eq!(left, whole);
    }

    #[test]
    fn spike_detection() {
        let mut h = YearHistogram::new();
        // Smooth growth with a 2004 spike.
        for (y, n) in [(2002, 10), (2003, 12), (2004, 100), (2005, 15), (2006, 18)] {
            for _ in 0..n {
                h.record(y);
            }
        }
        assert_eq!(h.spikes(3.0), vec![2004]);
    }

    #[test]
    fn spike_at_series_edges() {
        let mut h = YearHistogram::new();
        for _ in 0..50 {
            h.record(2000);
        }
        h.record(2001);
        // 2000 has no left neighbour and dwarfs 2001.
        assert!(h.spikes(3.0).contains(&2000));
    }
}
