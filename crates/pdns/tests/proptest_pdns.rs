//! Property-based tests for the passive-DNS store and analytics.

use idnre_pdns::{ActivityAnalytics, DomainAggregate, PdnsStore};
use proptest::prelude::*;

fn aggregate() -> impl Strategy<Value = DomainAggregate> {
    (
        "[a-z]{2,10}",
        0i64..20_000,
        0i64..2_000,
        1u64..100_000,
        any::<[u8; 4]>(),
    )
        .prop_map(|(sld, first, span, queries, ip)| {
            let mut agg = DomainAggregate::first_observation(&format!("{sld}.com"), first);
            agg.last_seen = first + span;
            agg.query_count = queries;
            agg.ips.push(ip.into());
            agg
        })
}

proptest! {
    /// Merging is idempotent and never shrinks the view.
    #[test]
    fn merge_properties(aggs_a in proptest::collection::vec(aggregate(), 0..20),
                        aggs_b in proptest::collection::vec(aggregate(), 0..20)) {
        let mut a = PdnsStore::new();
        a.extend(aggs_a);
        let mut b = PdnsStore::new();
        b.extend(aggs_b);

        let mut merged = a.clone();
        merged.merge(&b);
        // Contains every domain from both sides.
        for agg in a.iter().chain(b.iter()) {
            let m = merged.lookup(&agg.domain).expect("merged view contains domain");
            prop_assert!(m.first_seen <= agg.first_seen);
            prop_assert!(m.last_seen >= agg.last_seen);
            prop_assert!(m.query_count >= agg.query_count.min(m.query_count));
            prop_assert!(m.active_days() >= agg.active_days().min(m.active_days()));
        }
        // Idempotent.
        let mut twice = merged.clone();
        twice.merge(&b);
        prop_assert_eq!(twice.len(), merged.len());
    }

    /// Analytics ECDFs always match the number of folded aggregates and the
    /// segment report conserves mass.
    #[test]
    fn analytics_conserve_mass(aggs in proptest::collection::vec(aggregate(), 0..30)) {
        let mut analytics = ActivityAnalytics::new();
        let mut store = PdnsStore::new();
        store.extend(aggs);
        analytics.extend(store.iter());
        prop_assert_eq!(analytics.len(), store.len());
        let report = analytics.segment_report();
        let summed: u64 = report.segments.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(summed, report.total);
        if report.total > 0 {
            prop_assert!((report.cumulative_fraction(report.segment_count()) - 1.0).abs() < 1e-12);
        }
    }
}
