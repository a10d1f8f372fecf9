//! The paper's primary contribution: detection of IDN abuse.
//!
//! Four pieces, mirroring Sections V–VII:
//!
//! * [`HomographDetector`] — renders every IDN and brand domain to an image
//!   and flags pairs whose SSIM index reaches the 0.95 threshold
//!   (Section VI-B, Tables XII/XIII).
//! * [`AvailabilityEnumerator`] — the Section VI-D analysis: substitute one
//!   character at a time from the homoglyph table and count how many
//!   *unregistered* lookalikes clear the same SSIM bar (Figure 7).
//! * [`SemanticDetector`] — Type-1 (brand + foreign keyword) and Type-2
//!   (translated brand) semantic-attack detection (Section VII,
//!   Tables IX/X/XIV).
//! * [`SrsPolicy`] — the Shared-Registration-System model answering "would
//!   a registrar accept this registration?", including the brand-protection
//!   resemblance checks the paper recommends registries deploy.
//!
//! # Examples
//!
//! ```
//! use idnre_core::HomographDetector;
//!
//! let detector = HomographDetector::new(["google.com", "apple.com"], 0.95);
//! let hit = detector.detect("gõõgle.com").unwrap();
//! assert_eq!(hit.brand, "google.com");
//! assert!(hit.ssim >= 0.95);
//! assert!(detector.detect("example.com").is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod availability;
mod homograph;
mod passes;
mod pipeline;
mod registry;
mod semantic;
pub mod squatting;
pub mod topic;

pub use availability::{AvailabilityEnumerator, AvailabilityReport, Candidate};
pub use homograph::{pair_score, HomographDetector, HomographFinding, HOMOGRAPH_COUNTERS};
pub use passes::{
    tld_suffix_skeletons, ColumnedHomographPass, Indexed, Semantic1Pass, Semantic2Pass,
};
pub use pipeline::{AbuseAnalysis, BrandAbuseRow};
pub use registry::{SrsPolicy, SrsRejection};
pub use semantic::{SemanticDetector, SemanticFinding, SemanticKind, SEMANTIC_COUNTERS};
pub use squatting::{SquattingCandidate, SquattingClass};
