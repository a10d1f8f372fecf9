//! DNS-resolution and web-crawl simulation — the measurement front-end of
//! the paper's Section IV-D content analysis.
//!
//! The paper's crawlers resolved each domain (observing name-server errors
//! like `REFUSED` — "all resolution errors come from name servers"), fetched
//! the homepage, and manually classified the result into the Table V
//! categories. This crate models that front-end:
//!
//! * [`Resolver`] — iterative resolution over TLD zone delegations plus
//!   per-domain authoritative-server behaviour (answer / refuse / servfail /
//!   timeout).
//! * [`Page`] / [`fetch`] — the HTTP layer: status, title and page kind.
//! * [`classify`] — the resolution+fetch outcome folded into the Table V
//!   [`UsageCategory`].
//!
//! # Examples
//!
//! ```
//! use idnre_crawler::{AuthBehavior, Crawler, Page, PageKind, UsageCategory};
//! use idnre_zonefile::parse_zone;
//!
//! let zone = parse_zone("com", "shop IN NS ns1.shop.com.\n").unwrap();
//! let mut crawler = Crawler::new();
//! crawler.add_zone(&zone);
//! crawler.set_host(
//!     "shop.com",
//!     AuthBehavior::Answer("203.0.113.7".parse().unwrap()),
//!     Some(Page::new(200, "Shop", PageKind::Content)),
//! );
//!
//! assert_eq!(crawler.crawl("shop.com"), UsageCategory::Meaningful);
//! assert_eq!(crawler.crawl("missing.com"), UsageCategory::NotResolved);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod dns;
mod faulted;
mod http;
mod sched;
pub mod wire;

pub use classify::{classify, UsageCategory};
pub use dns::{AuthBehavior, ResolutionOutcome, Resolver};
pub use faulted::{
    survey_slice_span, FaultContext, FaultedCrawl, FaultedResolution, ATTEMPTS_HISTOGRAM,
    FAULT_COUNTERS, RETRY_COUNTERS, SURVEY_SLICE_RECORDS, SURVEY_SLICE_SPAN,
};
pub use http::{fetch, FetchOutcome, Page, PageKind};
pub use sched::{
    sched_slice_span, ScheduledCrawl, SliceSchedule, SCHED_COUNTERS, SCHED_INFLIGHT_GAUGE,
    SCHED_LATENCY_HISTOGRAM, SCHED_QUEUE_DEPTH_GAUGE, SCHED_SLICE_SPAN,
};

use idnre_zonefile::Zone;
use std::collections::HashMap;

/// Counter names for each [`ResolutionOutcome`], used by the faulted and
/// scheduled crawls. Exposed so harnesses can pre-register the full set (a
/// counter that never fires still shows up at zero).
pub const OUTCOME_COUNTERS: [&str; 5] = [
    "crawler.outcome.resolved",
    "crawler.outcome.nxdomain",
    "crawler.outcome.refused",
    "crawler.outcome.servfail",
    "crawler.outcome.timeout",
];

pub(crate) fn outcome_counter(outcome: ResolutionOutcome) -> &'static str {
    match outcome {
        ResolutionOutcome::Resolved(_) => OUTCOME_COUNTERS[0],
        ResolutionOutcome::NxDomain => OUTCOME_COUNTERS[1],
        ResolutionOutcome::Refused => OUTCOME_COUNTERS[2],
        ResolutionOutcome::ServFail => OUTCOME_COUNTERS[3],
        ResolutionOutcome::Timeout => OUTCOME_COUNTERS[4],
    }
}

/// Counter names for each [`UsageCategory`], in [`UsageCategory::ALL`]
/// order, used by the faulted and scheduled crawls. Exposed so
/// multi-threaded harnesses can pre-register the full set — snapshot
/// ordering is insertion order, so counters must exist before workers race
/// to them.
pub const USAGE_COUNTERS: [&str; 7] = [
    "crawler.usage.not_resolved",
    "crawler.usage.error",
    "crawler.usage.empty",
    "crawler.usage.parked",
    "crawler.usage.for_sale",
    "crawler.usage.redirected",
    "crawler.usage.meaningful",
];

pub(crate) fn usage_counter(category: UsageCategory) -> &'static str {
    match category {
        UsageCategory::NotResolved => USAGE_COUNTERS[0],
        UsageCategory::Error => USAGE_COUNTERS[1],
        UsageCategory::Empty => USAGE_COUNTERS[2],
        UsageCategory::Parked => USAGE_COUNTERS[3],
        UsageCategory::ForSale => USAGE_COUNTERS[4],
        UsageCategory::Redirected => USAGE_COUNTERS[5],
        UsageCategory::Meaningful => USAGE_COUNTERS[6],
    }
}

/// The whole crawl pipeline: resolver plus the web content behind each
/// resolvable host.
#[derive(Debug, Clone, Default)]
pub struct Crawler {
    resolver: Resolver,
    pages: HashMap<String, Page>,
}

impl Crawler {
    /// Creates an empty crawler (no zones, no hosts).
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a TLD zone's delegations into the resolver.
    pub fn add_zone(&mut self, zone: &Zone) {
        self.resolver.add_zone(zone);
    }

    /// Configures a host: its authoritative-server behaviour and (when it
    /// serves anything) its homepage.
    pub fn set_host(&mut self, domain: &str, behavior: AuthBehavior, page: Option<Page>) {
        self.resolver.set_behavior(domain, behavior);
        if let Some(page) = page {
            self.pages.insert(domain.to_ascii_lowercase(), page);
        }
    }

    /// Resolves a domain.
    pub fn resolve(&self, domain: &str) -> ResolutionOutcome {
        self.resolver.resolve(domain)
    }

    /// Crawls one domain end-to-end: resolve, fetch, classify.
    pub fn crawl(&self, domain: &str) -> UsageCategory {
        let resolution = self.resolver.resolve(domain);
        let outcome = fetch(&resolution, self.pages.get(&domain.to_ascii_lowercase()));
        classify(&outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_zonefile::parse_zone;

    #[test]
    fn crawl_pipeline_categories() {
        let zone = parse_zone(
            "com",
            "a IN NS ns1.a.com.\nb IN NS ns1.b.com.\nc IN NS ns1.c.com.\n",
        )
        .unwrap();
        let mut crawler = Crawler::new();
        crawler.add_zone(&zone);
        let ip = "203.0.113.9".parse().unwrap();
        crawler.set_host(
            "a.com",
            AuthBehavior::Answer(ip),
            Some(Page::new(200, "Parked — buy now", PageKind::Parking)),
        );
        crawler.set_host("b.com", AuthBehavior::Refuse, None);
        // c.com delegated but its server answers nothing (lame, times out).
        crawler.set_host("c.com", AuthBehavior::Timeout, None);

        assert_eq!(crawler.crawl("a.com"), UsageCategory::Parked);
        assert_eq!(crawler.crawl("b.com"), UsageCategory::NotResolved);
        assert_eq!(crawler.crawl("c.com"), UsageCategory::NotResolved);
        assert_eq!(crawler.crawl("nx.com"), UsageCategory::NotResolved);
    }

    #[test]
    fn resolvable_but_no_content_is_error() {
        let zone = parse_zone("com", "d IN NS ns1.d.com.\n").unwrap();
        let mut crawler = Crawler::new();
        crawler.add_zone(&zone);
        crawler.set_host(
            "d.com",
            AuthBehavior::Answer("203.0.113.1".parse().unwrap()),
            None,
        );
        // Resolves, but the web server answers nothing: HTTP-level error.
        assert_eq!(crawler.crawl("d.com"), UsageCategory::Error);
    }
}
