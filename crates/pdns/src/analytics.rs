//! Activity analytics: the ECDFs of Figures 2/3/5/8 and the /24-segment
//! concentration analysis of Figure 4 (Finding 7).

use crate::aggregate::DomainAggregate;
use idnre_arena::FnvBuildHasher;
use idnre_stats::Ecdf;
use idnre_telemetry::Recorder;
use std::collections::HashMap;

/// ECDF-producing view over a set of domain aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActivityAnalytics {
    active_days: Vec<f64>,
    query_counts: Vec<f64>,
    /// IDNs per /24 segment, FNV-hashed: the generator's artifact
    /// traversal builds one map per shard and merges them in order on its
    /// one apply thread, where SipHash cost ~18 ms of a 2-worker scale-50
    /// batch build.
    segment_idns: HashMap<[u8; 3], u64, FnvBuildHasher>,
    total_ips: u64,
}

impl ActivityAnalytics {
    /// Creates an empty analytics accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one aggregate in.
    pub fn add(&mut self, aggregate: &DomainAggregate) {
        self.active_days.push(aggregate.active_days() as f64);
        self.query_counts.push(aggregate.query_count as f64);
        self.total_ips += aggregate.ips.len() as u64;
        // Each distinct /24 once, as [`DomainAggregate::segments`] lists
        // them, without collecting the list: an IP counts unless an
        // earlier IP of the aggregate shares its segment.
        let segment = |ip: &std::net::Ipv4Addr| {
            let [a, b, c, _] = ip.octets();
            [a, b, c]
        };
        for (i, ip) in aggregate.ips.iter().enumerate() {
            let own = segment(ip);
            if aggregate.ips[..i]
                .iter()
                .all(|earlier| segment(earlier) != own)
            {
                *self.segment_idns.entry(own).or_insert(0) += 1;
            }
        }
    }

    /// Number of domains folded in.
    pub fn len(&self) -> usize {
        self.active_days.len()
    }

    /// Whether no aggregates have been added.
    pub fn is_empty(&self) -> bool {
        self.active_days.is_empty()
    }

    /// ECDF of active time in days (Figures 2, 5a, 8a).
    pub fn active_time_ecdf(&self) -> Ecdf {
        Ecdf::from_samples(self.active_days.clone())
    }

    /// ECDF of query volume (Figures 3, 5b, 8b).
    pub fn query_volume_ecdf(&self) -> Ecdf {
        Ecdf::from_samples(self.query_counts.clone())
    }

    /// Mean active days.
    pub fn mean_active_days(&self) -> f64 {
        self.active_time_ecdf().mean()
    }

    /// Mean query count.
    pub fn mean_queries(&self) -> f64 {
        self.query_volume_ecdf().mean()
    }

    /// Total distinct IPs observed.
    pub fn total_ips(&self) -> u64 {
        self.total_ips
    }

    /// Absorbs `later`, as if its aggregates had been [`ActivityAnalytics::add`]ed
    /// after this accumulator's own. Associative, so sharded scans can fold
    /// per-shard partials in shard order and land on the same state as one
    /// sequential pass (sample order only affects the ECDFs' internal sort
    /// input, which [`Ecdf::from_samples`] normalizes).
    pub fn merge(&mut self, later: ActivityAnalytics) {
        self.active_days.extend(later.active_days);
        self.query_counts.extend(later.query_counts);
        self.total_ips += later.total_ips;
        for (segment, count) in later.segment_idns {
            *self.segment_idns.entry(segment).or_insert(0) += count;
        }
    }

    /// Figure 4's segment concentration: /24 segments sorted by hosted-IDN
    /// count descending, with the cumulative IDN fraction at each rank.
    pub fn segment_report(&self) -> SegmentReport {
        let mut segments: Vec<([u8; 3], u64)> =
            self.segment_idns.iter().map(|(&s, &c)| (s, c)).collect();
        segments.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total: u64 = segments.iter().map(|&(_, c)| c).sum();
        SegmentReport { segments, total }
    }
}

impl<'a> Extend<&'a DomainAggregate> for ActivityAnalytics {
    fn extend<T: IntoIterator<Item = &'a DomainAggregate>>(&mut self, iter: T) {
        for aggregate in iter {
            self.add(aggregate);
        }
    }
}

impl ActivityAnalytics {
    /// Folds a batch of aggregates in under a `pdns.aggregate` span (one
    /// record per aggregate) reported to `recorder`.
    pub fn extend_recorded<'a, I>(&mut self, aggregates: I, recorder: &dyn Recorder)
    where
        I: IntoIterator<Item = &'a DomainAggregate>,
    {
        let mut span = recorder.span("pdns.aggregate");
        let before = self.len();
        self.extend(aggregates);
        span.add_records((self.len() - before) as u64);
    }
}

/// The /24-segment concentration report (Figure 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReport {
    /// `(segment, idn_count)`, by descending count.
    pub segments: Vec<([u8; 3], u64)>,
    /// Total segment-IDN incidences.
    pub total: u64,
}

impl SegmentReport {
    /// Number of distinct /24 segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Cumulative fraction of IDNs hosted in the top `k` segments — the
    /// "80% of IDNs are hosted by servers in 1,000 /24 segments" statistic.
    pub fn cumulative_fraction(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: u64 = self.segments.iter().take(k).map(|&(_, c)| c).sum();
        covered as f64 / self.total as f64
    }

    /// `(rank, cumulative_fraction)` series for plotting Figure 4, sampled
    /// at `points` log-spaced ranks.
    pub fn ecdf_series(&self, points: usize) -> Vec<(f64, f64)> {
        if self.segments.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.segments.len() as f64;
        (0..points)
            .map(|i| {
                let rank = (n.powf(i as f64 / (points.max(2) - 1) as f64)).round() as usize;
                (rank as f64, self.cumulative_fraction(rank))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn aggregate(domain: &str, span: i64, queries: u64, ip: [u8; 4]) -> DomainAggregate {
        let mut agg = DomainAggregate::first_observation(domain, 1000);
        agg.last_seen = 1000 + span - 1;
        agg.query_count = queries;
        agg.ips.push(Ipv4Addr::new(ip[0], ip[1], ip[2], ip[3]));
        agg
    }

    fn sample() -> ActivityAnalytics {
        let mut analytics = ActivityAnalytics::new();
        let aggregates = [
            aggregate("a.com", 10, 5, [10, 0, 0, 1]),
            aggregate("b.com", 100, 50, [10, 0, 0, 2]),
            aggregate("c.com", 1000, 500, [10, 0, 1, 1]),
            aggregate("d.com", 50, 5000, [10, 0, 0, 3]),
        ];
        analytics.extend(aggregates.iter());
        analytics
    }

    #[test]
    fn ecdfs_are_consistent() {
        let a = sample();
        assert_eq!(a.len(), 4);
        let active = a.active_time_ecdf();
        assert_eq!(active.fraction_at_or_below(100.0), 0.75);
        let queries = a.query_volume_ecdf();
        assert_eq!(queries.fraction_at_or_below(50.0), 0.5);
    }

    #[test]
    fn segment_concentration() {
        let a = sample();
        let report = a.segment_report();
        assert_eq!(report.segment_count(), 2);
        // Top segment (10.0.0/24) hosts 3 of 4 IDNs.
        assert_eq!(report.cumulative_fraction(1), 0.75);
        assert_eq!(report.cumulative_fraction(2), 1.0);
        assert_eq!(report.cumulative_fraction(0), 0.0);
    }

    #[test]
    fn segment_series_monotone() {
        let a = sample();
        let series = a.segment_report().ecdf_series(5);
        assert!(!series.is_empty());
        for window in series.windows(2) {
            assert!(window[0].1 <= window[1].1 + 1e-12);
        }
    }

    #[test]
    fn merge_equals_sequential_fold() {
        let aggregates = [
            aggregate("a.com", 10, 5, [10, 0, 0, 1]),
            aggregate("b.com", 100, 50, [10, 0, 0, 2]),
            aggregate("c.com", 1000, 500, [10, 0, 1, 1]),
            aggregate("d.com", 50, 5000, [10, 0, 0, 3]),
        ];
        let mut whole = ActivityAnalytics::new();
        whole.extend(aggregates.iter());
        let mut left = ActivityAnalytics::new();
        left.extend(aggregates[..2].iter());
        let mut right = ActivityAnalytics::new();
        right.extend(aggregates[2..].iter());
        left.merge(right);
        assert_eq!(left, whole);
        let mut padded = ActivityAnalytics::new();
        padded.merge(whole.clone());
        padded.merge(ActivityAnalytics::new());
        assert_eq!(padded, whole);
    }

    /// The inline /24 tally counts each aggregate once per distinct
    /// segment, exactly as tallying [`DomainAggregate::segments`] does,
    /// on aggregates whose IPs repeat a /24 (adjacent or not).
    #[test]
    fn inline_segment_tally_equals_the_segments_list() {
        let ips: [&[[u8; 4]]; 5] = [
            &[[10, 0, 0, 1], [10, 0, 0, 2], [10, 0, 1, 1], [10, 0, 0, 3]],
            &[
                [10, 0, 1, 9],
                [192, 0, 2, 1],
                [10, 0, 1, 7],
                [192, 0, 2, 200],
            ],
            &[[203, 0, 113, 5]],
            &[],
            &[[10, 0, 0, 1], [10, 0, 0, 1], [10, 0, 0, 1]],
        ];
        let aggregates: Vec<DomainAggregate> = ips
            .iter()
            .enumerate()
            .map(|(i, ips)| {
                let mut agg = DomainAggregate::first_observation(&format!("d{i}.com"), 1);
                agg.ips = ips
                    .iter()
                    .map(|&[a, b, c, d]| Ipv4Addr::new(a, b, c, d))
                    .collect();
                agg
            })
            .collect();
        let mut analytics = ActivityAnalytics::new();
        analytics.extend(aggregates.iter());
        let mut expected: HashMap<[u8; 3], u64, FnvBuildHasher> = HashMap::default();
        for agg in &aggregates {
            for segment in agg.segments() {
                *expected.entry(segment).or_insert(0) += 1;
            }
        }
        assert_eq!(analytics.segment_idns, expected);
        assert_eq!(expected[&[10, 0, 0]], 2);
        assert_eq!(expected[&[10, 0, 1]], 2);
        assert_eq!(analytics.total_ips(), 12);
    }

    #[test]
    fn empty_analytics_is_safe() {
        let a = ActivityAnalytics::new();
        assert!(a.is_empty());
        assert_eq!(a.mean_active_days(), 0.0);
        assert_eq!(a.segment_report().cumulative_fraction(10), 0.0);
        assert!(a.segment_report().ecdf_series(5).is_empty());
    }
}
