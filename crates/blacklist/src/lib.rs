//! Multi-source URL blacklist aggregation.
//!
//! The paper unions three commercial blacklists (VirusTotal, Qihoo 360,
//! Baidu): "if an IDN is alarmed by any of the blacklists, we considered
//! the IDN as malicious". [`BlacklistSet`] reproduces that aggregation with
//! per-source attribution so Table I's per-source columns can be rebuilt.
//!
//! # Examples
//!
//! ```
//! use idnre_blacklist::{BlacklistSet, Source};
//!
//! let mut set = BlacklistSet::new();
//! set.insert(Source::VirusTotal, "xn--0wwy37b.com");
//! set.insert(Source::Qihoo360, "xn--0wwy37b.com");
//!
//! assert!(set.is_malicious("xn--0wwy37b.com"));
//! assert_eq!(set.verdict("xn--0wwy37b.com"), vec![Source::VirusTotal, Source::Qihoo360]);
//! assert_eq!(set.union_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A blacklist provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Source {
    /// VirusTotal URL feeds.
    VirusTotal,
    /// Qihoo 360 blacklist.
    Qihoo360,
    /// Baidu blacklist.
    Baidu,
}

impl Source {
    /// All providers, in Table I column order.
    pub const ALL: [Source; 3] = [Source::VirusTotal, Source::Qihoo360, Source::Baidu];
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Source::VirusTotal => "VirusTotal",
            Source::Qihoo360 => "360",
            Source::Baidu => "Baidu",
        };
        f.write_str(s)
    }
}

/// `domain` lowercased, borrowed when it already is: stored domains are
/// lowercase, so probes need no copy of an already-lowercase name.
fn key(domain: &str) -> Cow<'_, str> {
    if domain.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(domain.to_ascii_lowercase())
    } else {
        Cow::Borrowed(domain)
    }
}

/// An aggregated, source-attributed URL blacklist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlacklistSet {
    by_source: BTreeMap<Source, BTreeSet<String>>,
}

impl BlacklistSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `domain` as flagged by `source`.
    pub fn insert(&mut self, source: Source, domain: &str) {
        self.by_source
            .entry(source)
            .or_default()
            .insert(domain.to_ascii_lowercase());
    }

    /// Whether any source flags `domain` — the paper's union semantics.
    pub fn is_malicious(&self, domain: &str) -> bool {
        let key = key(domain);
        self.by_source.values().any(|set| set.contains(&*key))
    }

    /// The sources flagging `domain`, in provider order.
    pub fn verdict(&self, domain: &str) -> Vec<Source> {
        let key = key(domain);
        Source::ALL
            .into_iter()
            .filter(|s| self.by_source.get(s).is_some_and(|set| set.contains(&*key)))
            .collect()
    }

    /// Number of domains flagged by one source.
    pub fn source_count(&self, source: Source) -> usize {
        self.by_source.get(&source).map(BTreeSet::len).unwrap_or(0)
    }

    /// Number of domains in the union of all sources.
    pub fn union_count(&self) -> usize {
        self.union().count()
    }

    /// Iterates the union of flagged domains (sorted, deduplicated).
    pub fn union(&self) -> impl Iterator<Item = &str> {
        let mut all: BTreeSet<&str> = BTreeSet::new();
        for set in self.by_source.values() {
            all.extend(set.iter().map(String::as_str));
        }
        all.into_iter()
    }

    /// Per-TLD union counts — Table I's "Blacklisted / Total" column.
    /// Domains are grouped by their final label.
    pub fn counts_by_tld(&self) -> BTreeMap<String, usize> {
        let mut out: BTreeMap<String, usize> = BTreeMap::new();
        for domain in self.union() {
            let tld = domain.rsplit('.').next().unwrap_or(domain).to_string();
            *out.entry(tld).or_insert(0) += 1;
        }
        out
    }
}

impl Extend<(Source, String)> for BlacklistSet {
    fn extend<T: IntoIterator<Item = (Source, String)>>(&mut self, iter: T) {
        for (source, domain) in iter {
            self.insert(source, &domain);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BlacklistSet {
        let mut set = BlacklistSet::new();
        set.insert(Source::VirusTotal, "xn--a.com");
        set.insert(Source::VirusTotal, "xn--b.com");
        set.insert(Source::Qihoo360, "xn--b.com");
        set.insert(Source::Qihoo360, "xn--c.net");
        set.insert(Source::Baidu, "xn--d.xn--fiqs8s");
        set
    }

    #[test]
    fn union_semantics() {
        let set = sample();
        assert!(set.is_malicious("XN--A.COM"));
        assert!(set.is_malicious("xn--d.xn--fiqs8s"));
        assert!(!set.is_malicious("clean.com"));
        assert_eq!(set.union_count(), 4);
    }

    #[test]
    fn per_source_attribution() {
        let set = sample();
        assert_eq!(set.source_count(Source::VirusTotal), 2);
        assert_eq!(set.source_count(Source::Qihoo360), 2);
        assert_eq!(set.source_count(Source::Baidu), 1);
        assert_eq!(
            set.verdict("xn--b.com"),
            vec![Source::VirusTotal, Source::Qihoo360]
        );
        assert_eq!(set.verdict("clean.com"), vec![]);
    }

    #[test]
    fn tld_breakdown() {
        let set = sample();
        let by_tld = set.counts_by_tld();
        assert_eq!(by_tld.get("com"), Some(&2));
        assert_eq!(by_tld.get("net"), Some(&1));
        assert_eq!(by_tld.get("xn--fiqs8s"), Some(&1));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut set = BlacklistSet::new();
        set.insert(Source::Baidu, "x.com");
        set.insert(Source::Baidu, "X.COM");
        assert_eq!(set.source_count(Source::Baidu), 1);
    }

    #[test]
    fn extend_from_feed() {
        let mut set = BlacklistSet::new();
        set.extend(vec![
            (Source::VirusTotal, "a.com".to_string()),
            (Source::Baidu, "b.com".to_string()),
        ]);
        assert_eq!(set.union_count(), 2);
    }
}
