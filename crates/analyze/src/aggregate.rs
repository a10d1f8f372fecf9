//! Shared fold-style aggregators used by report passes.

use crate::Merge;
use std::collections::HashMap;
use std::hash::Hash;

/// An insertion-ordered keyed counter — the one shared shape behind the
/// report tables' per-TLD and per-language tallies.
///
/// Keys iterate in **first-occurrence order** over the corpus, and
/// [`Merge`] preserves that: merging appends the later partial's unseen
/// keys after the earlier partial's keys, so the merged order equals the
/// order a single sequential fold would have produced. That property is
/// load-bearing for tables that stable-sort by count (ties keep corpus
/// first-occurrence order).
#[derive(Debug, Clone, Default)]
pub struct KeyedTally<K> {
    entries: Vec<(K, u64)>,
    index: HashMap<K, usize>,
}

impl<K: Eq + Hash + Clone> KeyedTally<K> {
    /// Creates an empty tally.
    pub fn new() -> Self {
        KeyedTally {
            entries: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Adds `n` to `key`'s count, registering the key on first use.
    pub fn add(&mut self, key: K, n: u64) {
        match self.index.get(&key) {
            Some(&i) => self.entries[i].1 += n,
            None => {
                self.index.insert(key.clone(), self.entries.len());
                self.entries.push((key, n));
            }
        }
    }

    /// Increments `key` by one.
    pub fn incr(&mut self, key: K) {
        self.add(key, 1);
    }

    /// The count for `key` (zero when unseen).
    pub fn get<Q>(&self, key: &Q) -> u64
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.index.get(key).map_or(0, |&i| self.entries[i].1)
    }

    /// `(key, count)` pairs in first-occurrence order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.entries.iter().map(|(k, n)| (k, *n))
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no keys were tallied.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, n)| n).sum()
    }
}

impl<K: Eq + Hash + Clone> Merge for KeyedTally<K> {
    fn merge(mut self, later: Self) -> Self {
        for (key, n) in later.entries {
            self.add(key, n);
        }
        self
    }
}

impl<K: Eq + Hash> PartialEq for KeyedTally<K> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_preserves_first_occurrence_order() {
        let mut a = KeyedTally::new();
        a.incr("com");
        a.incr("net");
        a.incr("com");
        let mut b = KeyedTally::new();
        b.incr("xn--3ds443g");
        b.incr("net");
        let merged = a.merge(b);
        let pairs: Vec<(&&str, u64)> = merged.iter().collect();
        assert_eq!(pairs, vec![(&"com", 2), (&"net", 2), (&"xn--3ds443g", 1)]);
        assert_eq!(merged.total(), 5);
    }

    #[test]
    fn get_sees_merged_counts() {
        let mut a = KeyedTally::new();
        a.add("a", 2);
        let mut b = KeyedTally::new();
        b.add("b", 3);
        b.add("a", 1);
        let merged = a.merge(b);
        assert_eq!(merged.get("a"), 3);
        assert_eq!(merged.get("b"), 3);
        assert_eq!(merged.get("c"), 0);
        assert_eq!(merged.len(), 2);
    }
}
