//! The passive-DNS store: the query interface a pDNS provider exposes.

use crate::aggregate::DomainAggregate;
use idnre_arena::FnvBuildHasher;
use std::borrow::{Borrow, Cow};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// The hit and miss counters of a recorded passive-DNS join: one per
/// joined domain, a hit when it has an aggregate.
pub const LOOKUP_COUNTERS: [&str; 2] = ["pdns.lookup.hit", "pdns.lookup.miss"];

/// An aggregated passive-DNS database.
///
/// Mirrors the provider interface the paper used: submit a domain, get back
/// its aggregate (look-up count, first/last seen) or nothing if the domain
/// was never observed.
///
/// Keys are lowercase ACE, computed once at insert: each aggregate is
/// its own key, hashed (FNV-1a) and compared by its `domain`, so the
/// store holds no second copy of a name. Look-ups borrow their argument
/// unless it has an uppercase byte.
#[derive(Debug, Clone, Default)]
pub struct PdnsStore {
    domains: HashSet<Keyed, FnvBuildHasher>,
}

/// A stored aggregate, hashed and compared by its lowercase `domain` so
/// the set can be probed with a `&str`.
#[derive(Debug, Clone)]
struct Keyed(DomainAggregate);

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.0.domain == other.0.domain
    }
}

impl Eq for Keyed {}

impl Hash for Keyed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.domain.as_str().hash(state);
    }
}

impl Borrow<str> for Keyed {
    fn borrow(&self) -> &str {
        &self.0.domain
    }
}

/// `domain` lowercased, borrowed when it already is.
fn key(domain: &str) -> Cow<'_, str> {
    if domain.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(domain.to_ascii_lowercase())
    } else {
        Cow::Borrowed(domain)
    }
}

impl PdnsStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observed look-up of `domain` on `day`, optionally with
    /// the IP its DNS response carried.
    pub fn record_lookup(&mut self, domain: &str, day: i64, ip: Option<Ipv4Addr>) {
        let key = key(domain);
        let mut aggregate = match self.domains.take(&*key) {
            Some(Keyed(aggregate)) => aggregate,
            None => DomainAggregate::first_observation(&key, day),
        };
        aggregate.record(day, ip);
        self.domains.insert(Keyed(aggregate));
    }

    /// Inserts a pre-built aggregate (the simulator's bulk path). Replaces
    /// any existing aggregate for the same domain. The aggregate's
    /// `domain` is its key, so it is lowercased in place.
    pub fn insert_aggregate(&mut self, mut aggregate: DomainAggregate) {
        aggregate.domain.make_ascii_lowercase();
        self.domains.replace(Keyed(aggregate));
    }

    /// Queries one domain.
    pub fn lookup(&self, domain: &str) -> Option<&DomainAggregate> {
        self.domains.get(&*key(domain)).map(|keyed| &keyed.0)
    }

    /// Bulk query — the paper submitted all 1.4M IDNs to DNS Pai in one
    /// batch. Unobserved domains yield `None` entries, preserving order.
    pub fn lookup_batch<'a, I>(&self, domains: I) -> Vec<Option<&DomainAggregate>>
    where
        I: IntoIterator<Item = &'a str>,
    {
        domains.into_iter().map(|d| self.lookup(d)).collect()
    }

    /// Number of observed domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Iterates all aggregates (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = &DomainAggregate> {
        self.domains.iter().map(|keyed| &keyed.0)
    }

    /// Merges another provider's view into this one — the union the paper
    /// effectively works with when combining DNS Pai and Farsight. Windows
    /// union (earliest first-seen, latest last-seen); query counts take the
    /// maximum (the feeds overlap, so summing would double-count).
    pub fn merge(&mut self, other: &PdnsStore) {
        for aggregate in other.iter() {
            let merged = match self.domains.take(aggregate.domain.as_str()) {
                Some(Keyed(mut existing)) => {
                    existing.first_seen = existing.first_seen.min(aggregate.first_seen);
                    existing.last_seen = existing.last_seen.max(aggregate.last_seen);
                    existing.query_count = existing.query_count.max(aggregate.query_count);
                    for &ip in &aggregate.ips {
                        if !existing.ips.contains(&ip) {
                            existing.ips.push(ip);
                        }
                    }
                    existing
                }
                None => aggregate.clone(),
            };
            self.domains.insert(Keyed(merged));
        }
    }
}

impl Extend<DomainAggregate> for PdnsStore {
    fn extend<T: IntoIterator<Item = DomainAggregate>>(&mut self, iter: T) {
        for aggregate in iter {
            self.insert_aggregate(aggregate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup() {
        let mut store = PdnsStore::new();
        store.record_lookup("A.COM", 10, None);
        store.record_lookup("a.com", 20, None);
        let agg = store.lookup("a.com").unwrap();
        assert_eq!(agg.query_count, 2);
        assert_eq!(agg.active_days(), 11);
        assert!(store.lookup("missing.com").is_none());
    }

    #[test]
    fn batch_preserves_order_and_misses() {
        let mut store = PdnsStore::new();
        store.record_lookup("a.com", 1, None);
        store.record_lookup("c.com", 1, None);
        let results = store.lookup_batch(["a.com", "b.com", "c.com"]);
        assert!(results[0].is_some());
        assert!(results[1].is_none());
        assert!(results[2].is_some());
    }

    #[test]
    fn merge_unions_windows_and_ips() {
        let mut pai = PdnsStore::new();
        pai.record_lookup("a.com", 100, Some(std::net::Ipv4Addr::new(10, 0, 0, 1)));
        pai.record_lookup("a.com", 200, None);
        let mut farsight = PdnsStore::new();
        farsight.record_lookup("a.com", 50, Some(std::net::Ipv4Addr::new(10, 0, 0, 2)));
        farsight.record_lookup("b.com", 70, None);

        pai.merge(&farsight);
        let merged = pai.lookup("a.com").unwrap();
        assert_eq!(merged.first_seen, 50);
        assert_eq!(merged.last_seen, 200);
        assert_eq!(merged.query_count, 2); // max(2, 1), not the sum
        assert_eq!(merged.ips.len(), 2);
        assert!(pai.lookup("b.com").is_some());
    }

    #[test]
    fn insert_aggregate_replaces() {
        let mut store = PdnsStore::new();
        store.record_lookup("a.com", 1, None);
        let mut agg = DomainAggregate::first_observation("a.com", 5);
        agg.query_count = 99;
        store.insert_aggregate(agg);
        assert_eq!(store.lookup("a.com").unwrap().query_count, 99);
        assert_eq!(store.len(), 1);
    }

    /// Keys are lowercase: every spelling of a name, inserted or looked
    /// up, reaches the one entry, which holds the lowercase name.
    #[test]
    fn mixed_case_inserts_and_lookups_share_one_lowercase_entry() {
        let mut store = PdnsStore::new();
        let mut upper = DomainAggregate::first_observation("x.com", 1);
        upper.domain = "XN--FIQS8S.COM".to_string();
        upper.query_count = 1;
        store.insert_aggregate(upper);
        store.record_lookup("Xn--Fiqs8s.Com", 9, None);
        assert_eq!(store.len(), 1);
        for spelling in ["xn--fiqs8s.com", "XN--FIQS8S.COM", "xN--fIQS8S.cOM"] {
            let hit = store
                .lookup(spelling)
                .expect("one entry for every spelling");
            assert_eq!(hit.domain, "xn--fiqs8s.com");
            assert_eq!((hit.query_count, hit.last_seen), (2, 9));
        }
        assert!(store.lookup("xn--fiqs8s.co").is_none());
    }

    /// A re-inserted domain keeps the last aggregate, whatever the case
    /// it arrives in, and `len` counts distinct domains.
    #[test]
    fn reinsertion_keeps_the_last_aggregate_and_len_counts_domains() {
        let mut store = PdnsStore::new();
        for (i, spelling) in ["a.com", "b.com", "A.com", "a.COM", "b.com"]
            .into_iter()
            .enumerate()
        {
            let mut agg = DomainAggregate::first_observation(spelling, 1);
            agg.domain = spelling.to_string();
            agg.query_count = i as u64;
            store.insert_aggregate(agg);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup("a.com").unwrap().query_count, 3);
        assert_eq!(store.lookup("B.COM").unwrap().query_count, 4);
        let mut domains: Vec<&str> = store.iter().map(|agg| agg.domain.as_str()).collect();
        domains.sort_unstable();
        assert_eq!(domains, ["a.com", "b.com"]);
    }
}
