//! Passive-DNS substrate: aggregated look-up records, a seeded traffic
//! simulator, and the analytics behind the paper's Figures 2–6 and 8.
//!
//! The paper queries two passive-DNS providers (360 DNS Pai and Farsight)
//! whose responses are *aggregates*: per domain, the total query count and
//! the first/last look-up timestamps. [`PdnsStore`] models exactly that
//! interface; [`TrafficModel`] generates populations whose active-time and
//! query-volume distributions match the shapes the paper measured; and
//! [`ActivityAnalytics`] computes the ECDFs the figures plot.
//!
//! # Examples
//!
//! ```
//! use idnre_pdns::{PdnsStore, DomainAggregate};
//!
//! let mut store = PdnsStore::new();
//! store.record_lookup("xn--0wwy37b.com", 17_000, Some("203.0.113.9".parse().unwrap()));
//! store.record_lookup("xn--0wwy37b.com", 17_117, None);
//!
//! let agg = store.lookup("xn--0wwy37b.com").unwrap();
//! assert_eq!(agg.query_count, 2);
//! assert_eq!(agg.active_days(), 118); // the paper's 彩票.com example span
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod analytics;
mod simulate;
mod store;

pub use aggregate::DomainAggregate;
pub use analytics::{ActivityAnalytics, SegmentReport};
pub use simulate::{PopulationClass, TrafficModel, TrafficSample};
pub use store::{PdnsStore, LOOKUP_COUNTERS};
