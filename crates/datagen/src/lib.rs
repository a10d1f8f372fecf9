//! Deterministic synthetic IDN-ecosystem generator.
//!
//! The paper's raw inputs — production TLD zone snapshots, WHOIS crawls,
//! passive-DNS feeds, commercial blacklists, live certificate scans — are
//! proprietary. This crate replaces them with a *seeded generative model*
//! whose marginal distributions are anchored to the statistics the paper
//! reports (Tables I–VII, Figures 1–4), so every downstream analysis
//! exercises the same code paths it would on the real feeds:
//!
//! * per-TLD registration volumes and IDN rates (Table I),
//! * language mix (Table II), registrar market (Table IV), opportunistic
//!   registrant clusters (Table III),
//! * creation-date timeline with the 2000/2004 spikes and the 2015/2017
//!   malicious spikes (Figure 1),
//! * hosting concentration (Figure 4), content categories (Table V),
//! * certificate issuance with parking/hosting sharing (Tables VI/VII),
//! * blacklist feeds with the per-source skew of Table I, and
//! * injected homograph & Type-1 semantic attack populations targeting the
//!   embedded brand list (Tables VIII/IX, XIII/XIV).
//!
//! Everything is derived from a single `u64` seed: two runs with the same
//! [`EcosystemConfig`] produce identical ecosystems.
//!
//! # Examples
//!
//! ```
//! use idnre_datagen::{EcosystemConfig, Ecosystem};
//!
//! let config = EcosystemConfig { scale: 2000, ..EcosystemConfig::default() };
//! let eco = Ecosystem::generate(&config);
//! assert!(eco.idn_registrations.len() > 300);
//! // Deterministic: same seed, same ecosystem.
//! let again = Ecosystem::generate(&config);
//! assert_eq!(eco.idn_registrations.len(), again.idn_registrations.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod brands;
mod config;
mod content;
pub mod dataset;
mod ecosystem;
pub mod epoch;
mod folds;
mod hosting;
mod labels;
mod registration;
pub mod stream;

pub use brands::{Brand, BrandList};
pub use config::{EcosystemConfig, TldSpec, TABLE_I};
pub use dataset::{dataset_fingerprint, render_dataset, DATASET_SCHEMA};
pub use ecosystem::{column_row, DerivedZones, Ecosystem};
pub use epoch::{DaySimulator, EpochCorpus, EpochDelta, EpochDeltaKind};
pub use folds::{
    CertificateTally, PopulationActivity, Registrant, WhoisFacts, OPPORTUNISTIC_PORTFOLIO,
    TOP_REGISTRANTS, TOP_REGISTRARS,
};
pub use hosting::HostingProfile;
pub use registration::{DomainRegistration, MaliciousKind};
pub use stream::{
    generate_streamed, generate_traced, KeyedCorpus, ServedCertificate, ShardArtifacts,
    PEAK_RESIDENT_RECORDS, SHARDS_REGENERATED,
};
