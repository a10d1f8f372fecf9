//! From-scratch implementation of the Internationalized Domain Names in
//! Applications (IDNA) machinery that the paper's measurement pipeline rests on.
//!
//! The crate provides three layers:
//!
//! * [`punycode`] — the Bootstring codec of RFC 3492 with the Punycode
//!   parameters, exactly as used by the `xn--` ASCII-compatible encoding (ACE).
//! * [`DomainName`] / [`Label`] — parsing, label iteration, SLD/TLD extraction
//!   and the `xn--` IDN test used when scanning zone files.
//! * [`process`] — whole-domain `ToASCII` / `ToUnicode` conversions with the
//!   label-validity checks a registry's Shared Registration System performs.
//!
//! # Examples
//!
//! ```
//! use idnre_idna::{to_ascii, to_unicode};
//!
//! # fn main() -> Result<(), idnre_idna::IdnaError> {
//! // The Cyrillic spoof of apple.com from the paper's introduction.
//! let ace = to_ascii("аррӏе.com")?;
//! assert_eq!(ace, "xn--80ak6aa92e.com");
//! assert_eq!(to_unicode(&ace)?, "аррӏе.com");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod error;
mod mapping;
pub mod process;
pub mod punycode;
mod validate;

pub use domain::{DomainName, Label, ParseDomainError};
pub use error::IdnaError;
pub use mapping::{map_compat, needs_mapping};
pub use process::{to_ascii, to_ascii_and_unicode, to_unicode, Flags};
pub use validate::{check_bidi, validate_ascii_label, validate_unicode_label, LabelIssue};

/// The ASCII-compatible-encoding prefix that marks a Punycode-encoded label.
pub const ACE_PREFIX: &str = "xn--";

/// Returns `true` if `label` carries the `xn--` ACE prefix (case-insensitively).
///
/// This is the test the zone scanner applies to every label when extracting
/// IDNs from TLD zone files.
///
/// # Examples
///
/// ```
/// assert!(idnre_idna::is_ace_label("xn--fiqs8s"));
/// assert!(idnre_idna::is_ace_label("XN--FIQS8S"));
/// assert!(!idnre_idna::is_ace_label("example"));
/// ```
pub fn is_ace_label(label: &str) -> bool {
    // Byte-level comparison: `label` may be non-ASCII, where a string slice
    // of the first four bytes could split a character.
    matches!(label.as_bytes(), [b'x' | b'X', b'n' | b'N', b'-', b'-', ..])
}

/// Returns `true` if any label of `domain` is an ACE (`xn--`) label.
///
/// # Examples
///
/// ```
/// assert!(idnre_idna::is_idn("xn--0wwy37b.com"));
/// assert!(!idnre_idna::is_idn("example.com"));
/// ```
pub fn is_idn(domain: &str) -> bool {
    domain.split('.').any(is_ace_label)
}
