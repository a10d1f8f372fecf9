//! The WHOIS facts the reports read, folded once per run.
//!
//! Table I's per-TLD WHOIS count, Figure 1's creation-year timelines,
//! Table III's top registrants and Table IV's registrar market are all
//! aggregates over the WHOIS corpus. [`WhoisFacts::build`] folds the
//! records once, in parallel chunks merged in corpus order, and keeps
//! only what those reports print: a few tallies and the top registrants'
//! portfolios, not the per-registrant domain lists of a whole
//! [`idnre_whois::analytics::RegistrationAnalytics`]. The portfolios hold
//! A-labels; Table III decodes them where it prints them. Tables XIII and
//! XIV and the miner's registrant join still read the records: they join
//! single domains, not aggregates.

use idnre_arena::FnvBuildHasher;
use idnre_blacklist::BlacklistSet;
use idnre_stats::YearHistogram;
use idnre_whois::WhoisRecord;
use std::collections::HashMap;

/// Registrants Table III lists.
pub const TOP_REGISTRANTS: usize = 5;

/// Registrars Table IV lists.
pub const TOP_REGISTRARS: usize = 10;

/// Portfolio size from which a registrant's domains count as
/// opportunistic registrations (Table III, Finding 3).
pub const OPPORTUNISTIC_PORTFOLIO: u64 = 10;

/// One of Table III's top registrants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registrant {
    /// The registrant email.
    pub email: String,
    /// Every domain (A-label) registered under `email`, in corpus order.
    pub domains: Vec<String>,
}

/// Everything the reports read from the WHOIS corpus, held compactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WhoisFacts {
    /// WHOIS records folded.
    pub records: u64,
    /// Records per TLD, the last label of the domain (Table I).
    pub by_tld: HashMap<String, u64>,
    /// Creation years of every dated record (Figure 1).
    pub created: YearHistogram,
    /// Creation years of the dated records on a blacklist (Figure 1).
    pub created_malicious: YearHistogram,
    /// The [`TOP_REGISTRANTS`] emails by domain count, descending, ties
    /// by email ascending (Table III).
    pub top_registrants: Vec<Registrant>,
    /// Domains held by registrants with at least
    /// [`OPPORTUNISTIC_PORTFOLIO`] domains (Table III).
    pub opportunistic_mass: u64,
    /// The [`TOP_REGISTRARS`] registrars by domain count, descending, ties
    /// by name ascending (Table IV).
    pub top_registrars: Vec<(String, u64)>,
    /// Distinct registrars (Table IV).
    pub distinct_registrars: usize,
}

impl WhoisFacts {
    /// Folds `records` on `threads` workers, one chunk per worker.
    pub fn build(records: &[WhoisRecord], blacklist: &BlacklistSet, threads: usize) -> Self {
        let chunk = records.len().div_ceil(threads.max(1));
        Self::fold(records, blacklist, threads, chunk)
    }

    /// Folds `records` in `chunk`-record chunks on `threads` workers and
    /// merges the chunk tallies in corpus order, so the facts are the
    /// same for every split.
    pub(crate) fn fold(
        records: &[WhoisRecord],
        blacklist: &BlacklistSet,
        threads: usize,
        chunk: usize,
    ) -> Self {
        // Chunks by start offset, so each tally borrows the records' strings.
        let chunk = chunk.max(1);
        let starts: Vec<usize> = (0..records.len()).step_by(chunk).collect();
        let mut tallies = idnre_par::par_map(&starts, threads, |&start| {
            Tally::of(&records[start..records.len().min(start + chunk)], blacklist)
        })
        .into_iter();
        let mut tally = tallies.next().unwrap_or_default();
        for later in tallies {
            tally.merge(later);
        }
        tally.finish(records)
    }

    /// WHOIS records whose domain ends in `tld`.
    pub fn records_in(&self, tld: &str) -> u64 {
        self.by_tld.get(tld).copied().unwrap_or(0)
    }
}

/// One chunk's counts, keyed by strings borrowed from its records.
#[derive(Default)]
struct Tally<'a> {
    records: u64,
    by_tld: HashMap<&'a str, u64, FnvBuildHasher>,
    created: YearHistogram,
    created_malicious: YearHistogram,
    registrants: HashMap<&'a str, u64, FnvBuildHasher>,
    registrars: HashMap<&'a str, u64, FnvBuildHasher>,
}

impl<'a> Tally<'a> {
    fn of(records: &'a [WhoisRecord], blacklist: &BlacklistSet) -> Self {
        let mut tally = Tally {
            records: records.len() as u64,
            ..Tally::default()
        };
        for record in records {
            let tld = record.domain.rsplit('.').next().unwrap_or_default();
            *tally.by_tld.entry(tld).or_default() += 1;
            if let Some(date) = record.creation_date {
                tally.created.record(date.year);
                if blacklist.is_malicious(&record.domain) {
                    tally.created_malicious.record(date.year);
                }
            }
            if let Some(email) = &record.registrant_email {
                *tally.registrants.entry(email).or_default() += 1;
            }
            if let Some(registrar) = &record.registrar {
                *tally.registrars.entry(registrar).or_default() += 1;
            }
        }
        tally
    }

    fn merge(&mut self, later: Tally<'a>) {
        self.records += later.records;
        self.created.merge(&later.created);
        self.created_malicious.merge(&later.created_malicious);
        for (map, other) in [
            (&mut self.by_tld, later.by_tld),
            (&mut self.registrants, later.registrants),
            (&mut self.registrars, later.registrars),
        ] {
            for (key, count) in other {
                *map.entry(key).or_default() += count;
            }
        }
    }

    /// Ranks the tallies and collects the top registrants' portfolios
    /// from `records`, the corpus the tally counted.
    fn finish(self, records: &[WhoisRecord]) -> WhoisFacts {
        let mut top_registrants: Vec<Registrant> = top(&self.registrants, TOP_REGISTRANTS)
            .into_iter()
            .map(|(email, count)| Registrant {
                email,
                domains: Vec::with_capacity(count as usize),
            })
            .collect();
        for record in records {
            let Some(email) = &record.registrant_email else {
                continue;
            };
            if let Some(top) = top_registrants.iter_mut().find(|r| r.email == *email) {
                top.domains.push(record.domain.clone());
            }
        }
        WhoisFacts {
            records: self.records,
            by_tld: self
                .by_tld
                .into_iter()
                .map(|(tld, count)| (tld.to_string(), count))
                .collect(),
            created: self.created,
            created_malicious: self.created_malicious,
            top_registrants,
            opportunistic_mass: self
                .registrants
                .values()
                .filter(|&&count| count >= OPPORTUNISTIC_PORTFOLIO)
                .sum(),
            top_registrars: top(&self.registrars, TOP_REGISTRARS),
            distinct_registrars: self.registrars.len(),
        }
    }
}

/// The `k` largest counts, descending, ties by key ascending.
fn top(counts: &HashMap<&str, u64, FnvBuildHasher>, k: usize) -> Vec<(String, u64)> {
    let mut ranked: Vec<(&str, u64)> = counts.iter().map(|(&key, &n)| (key, n)).collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    ranked
        .into_iter()
        .take(k)
        .map(|(key, n)| (key.to_string(), n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_datagen::EcosystemConfig;
    use idnre_telemetry::{NoopRecorder, SpanCtx};
    use idnre_whois::analytics::RegistrationAnalytics;
    use idnre_whois::{Date, WhoisDialect};

    /// The facts one sequential [`RegistrationAnalytics`] (plus the
    /// per-record Table I and Figure 1 loops) gives for `records`.
    fn reference(records: &[WhoisRecord], blacklist: &BlacklistSet) -> WhoisFacts {
        let mut analytics = RegistrationAnalytics::new();
        analytics.extend(records.iter());
        let mut facts = WhoisFacts {
            records: analytics.total(),
            top_registrants: analytics
                .top_registrants(TOP_REGISTRANTS)
                .into_iter()
                .map(|(email, _)| Registrant {
                    domains: analytics.domains_of(&email).to_vec(),
                    email,
                })
                .collect(),
            opportunistic_mass: analytics.opportunistic_mass(OPPORTUNISTIC_PORTFOLIO as usize),
            top_registrars: analytics.top_registrars(TOP_REGISTRARS),
            distinct_registrars: analytics.distinct_registrars(),
            ..WhoisFacts::default()
        };
        for record in records {
            let tld = record.domain.rsplit('.').next().unwrap_or_default();
            *facts.by_tld.entry(tld.to_string()).or_default() += 1;
            if let Some(date) = record.creation_date {
                facts.created.record(date.year);
                if blacklist.is_malicious(&record.domain) {
                    facts.created_malicious.record(date.year);
                }
            }
        }
        let timeline: Vec<(i32, u64)> = facts.created.iter().collect();
        assert_eq!(timeline, analytics.creation_timeline());
        facts
    }

    fn record(domain: &str, registrar: &str, email: Option<&str>, year: i32) -> WhoisRecord {
        let mut r = WhoisRecord::new(domain, WhoisDialect::KeyValue);
        r.registrar = Some(registrar.to_string());
        r.registrant_email = email.map(str::to_string);
        r.creation_date = Date::new(year, 6, 1).ok();
        r
    }

    /// Any split of the corpus, at any thread count, folds to the
    /// sequential analytics' facts, top-k tie order and portfolio order
    /// included.
    #[test]
    fn fold_of_any_split_equals_the_sequential_analytics() {
        // Scale 100 is the sparsest config whose bulk registrants reach
        // the opportunistic portfolio size.
        let config = EcosystemConfig {
            scale: 100,
            attack_scale: 25,
            ..EcosystemConfig::default()
        };
        let (eco, _, _) =
            idnre_datagen::generate_traced(&config, None, &NoopRecorder, SpanCtx::NONE);
        let expected = reference(&eco.whois, &eco.blacklist);
        assert_eq!(expected.top_registrants.len(), TOP_REGISTRANTS);
        assert!(expected.opportunistic_mass > 0);
        assert!(expected.created_malicious.total() > 0);
        for threads in [1, 2, 8] {
            assert_eq!(
                WhoisFacts::build(&eco.whois, &eco.blacklist, threads),
                expected,
                "build at {threads} threads"
            );
            for chunk in [1, 7, 64, 1000, eco.whois.len() + 1] {
                assert_eq!(
                    WhoisFacts::fold(&eco.whois, &eco.blacklist, threads, chunk),
                    expected,
                    "{threads} threads, chunk {chunk}"
                );
            }
        }
    }

    /// Equal counts rank by key: two registrants (and registrars) tied
    /// on count across chunk borders come out in ascending order, a
    /// portfolio split across chunks keeps corpus order, and only a
    /// portfolio of [`OPPORTUNISTIC_PORTFOLIO`] domains counts as
    /// opportunistic.
    #[test]
    fn ties_rank_by_key_and_portfolios_keep_corpus_order() {
        let mut records = vec![
            record("z1.com", "Zeta", Some("b@x.cn"), 2001),
            record("a1.com", "Alpha", Some("a@x.cn"), 2002),
            record("z2.net", "Zeta", Some("b@x.cn"), 2003),
            record("a2.com", "Alpha", Some("a@x.cn"), 2004),
            record("c1.org", "Mid", None, 2005),
        ];
        // A portfolio of exactly the opportunistic size, and one just below.
        for i in 0..OPPORTUNISTIC_PORTFOLIO {
            let domain = format!("b{i}.com");
            records.insert(
                i as usize,
                record(&domain, "Bulk", Some("bulk@qq.com"), 2017),
            );
            if i + 1 < OPPORTUNISTIC_PORTFOLIO {
                let domain = format!("c{i}.com");
                records.push(record(&domain, "Bulk", Some("near@qq.com"), 2017));
            }
        }
        let mut blacklist = BlacklistSet::new();
        blacklist.insert(idnre_blacklist::Source::ALL[0], "Z2.NET");
        let expected = reference(&records, &blacklist);
        assert_eq!(
            expected.created_malicious.iter().collect::<Vec<_>>(),
            [(2003, 1)]
        );
        let emails: Vec<&str> = expected
            .top_registrants
            .iter()
            .map(|r| r.email.as_str())
            .collect();
        assert_eq!(emails, ["bulk@qq.com", "near@qq.com", "a@x.cn", "b@x.cn"]);
        assert_eq!(expected.top_registrants[3].domains, ["z1.com", "z2.net"]);
        assert_eq!(expected.opportunistic_mass, OPPORTUNISTIC_PORTFOLIO);
        assert_eq!(expected.top_registrars[1], ("Alpha".to_string(), 2));
        assert_eq!(expected.records_in("com"), 22);
        for chunk in 1..=records.len() {
            assert_eq!(WhoisFacts::fold(&records, &blacklist, 2, chunk), expected);
        }
        assert_eq!(WhoisFacts::build(&[], &blacklist, 2), WhoisFacts::default());
    }
}
