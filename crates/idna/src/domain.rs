//! Domain-name model: labels, hierarchy, and the SLD/TLD views the
//! measurement pipeline works with.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::is_ace_label;

/// A single label of a domain name, stored in its zone-file (ASCII/ACE) form,
/// lowercased.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(String);

impl Label {
    /// Creates a label from its zone-file form, lowercasing ASCII.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDomainError`] if the label is empty or longer than 63
    /// octets.
    pub fn new(s: &str) -> Result<Self, ParseDomainError> {
        if s.is_empty() {
            return Err(ParseDomainError::EmptyLabel);
        }
        if s.len() > crate::validate::MAX_LABEL_OCTETS {
            return Err(ParseDomainError::LabelTooLong);
        }
        Ok(Label(s.to_ascii_lowercase()))
    }

    /// The label text in its stored (lowercased) form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether this label carries the `xn--` ACE prefix.
    pub fn is_ace(&self) -> bool {
        is_ace_label(&self.0)
    }

    /// Decodes an ACE label to Unicode; returns the label text unchanged if
    /// it is not an ACE label or fails to decode.
    pub fn to_display(&self) -> String {
        if self.is_ace() {
            match crate::punycode::decode(&self.0[4..]) {
                Ok(u) if !u.is_ascii() => u,
                _ => self.0.clone(),
            }
        } else {
            self.0.clone()
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A fully-qualified domain name (without trailing dot), e.g.
/// `xn--0wwy37b.com`, stored as ordered labels from leftmost to TLD.
///
/// # Examples
///
/// ```
/// use idnre_idna::DomainName;
///
/// let d: DomainName = "www.xn--0wwy37b.com".parse().unwrap();
/// assert_eq!(d.tld(), "com");
/// assert_eq!(d.sld().unwrap(), "xn--0wwy37b");
/// assert!(d.is_idn());
/// assert_eq!(d.registered_domain().unwrap(), "xn--0wwy37b.com");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName {
    labels: Vec<Label>,
}

impl DomainName {
    /// Parses a domain from dotted text. A single trailing dot (FQDN form) is
    /// accepted and stripped.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDomainError`] if the name is empty, any label is empty
    /// or over-long, or the whole name exceeds 253 octets.
    pub fn parse(s: &str) -> Result<Self, ParseDomainError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(ParseDomainError::Empty);
        }
        if s.len() > 253 {
            return Err(ParseDomainError::TooLong);
        }
        let labels = s
            .split('.')
            .map(Label::new)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DomainName { labels })
    }

    /// Iterates over labels from leftmost (deepest) to the TLD.
    pub fn labels(&self) -> impl Iterator<Item = &Label> {
        self.labels.iter()
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The top-level domain label (rightmost), in ACE form.
    pub fn tld(&self) -> &str {
        self.labels
            .last()
            .expect("non-empty by construction")
            .as_str()
    }

    /// The second-level label, if the name has at least two labels.
    pub fn sld(&self) -> Option<&str> {
        if self.labels.len() >= 2 {
            Some(self.labels[self.labels.len() - 2].as_str())
        } else {
            None
        }
    }

    /// The registered domain (`sld.tld`), if present — the unit the paper's
    /// zone scan counts (e.g. `example.com` for `www.example.com`).
    pub fn registered_domain(&self) -> Option<String> {
        self.sld().map(|sld| format!("{}.{}", sld, self.tld()))
    }

    /// Whether any label is an ACE (`xn--`) label, i.e. whether this is an
    /// IDN in the paper's sense.
    pub fn is_idn(&self) -> bool {
        self.labels.iter().any(Label::is_ace)
    }

    /// Whether the IDN-ness is at second level or top level — the levels the
    /// paper's zone-file methodology can observe.
    pub fn idn_at_observable_level(&self) -> bool {
        self.labels.last().is_some_and(Label::is_ace)
            || (self.labels.len() >= 2 && self.labels[self.labels.len() - 2].is_ace())
    }

    /// Unicode display form of the whole name (ACE labels decoded).
    pub fn to_display(&self) -> String {
        self.labels
            .iter()
            .map(Label::to_display)
            .collect::<Vec<_>>()
            .join(".")
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for l in &self.labels {
            if !first {
                f.write_str(".")?;
            }
            f.write_str(l.as_str())?;
            first = false;
        }
        Ok(())
    }
}

impl FromStr for DomainName {
    type Err = ParseDomainError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

/// Errors from parsing a [`DomainName`] or [`Label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ParseDomainError {
    /// The input was empty.
    Empty,
    /// A label was empty (two consecutive dots).
    EmptyLabel,
    /// A label exceeded 63 octets.
    LabelTooLong,
    /// The whole name exceeded 253 octets.
    TooLong,
}

impl fmt::Display for ParseDomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDomainError::Empty => write!(f, "empty domain name"),
            ParseDomainError::EmptyLabel => write!(f, "empty label in domain name"),
            ParseDomainError::LabelTooLong => write!(f, "label longer than 63 octets"),
            ParseDomainError::TooLong => write!(f, "domain name longer than 253 octets"),
        }
    }
}

impl Error for ParseDomainError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_displays() {
        let d = DomainName::parse("WWW.Example.COM").unwrap();
        assert_eq!(d.to_string(), "www.example.com");
        assert_eq!(d.tld(), "com");
        assert_eq!(d.sld(), Some("example"));
        assert_eq!(d.registered_domain().unwrap(), "example.com");
        assert!(!d.is_idn());
    }

    #[test]
    fn fqdn_trailing_dot_is_stripped() {
        let d = DomainName::parse("example.com.").unwrap();
        assert_eq!(d.label_count(), 2);
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(DomainName::parse(""), Err(ParseDomainError::Empty));
        assert_eq!(DomainName::parse("a..b"), Err(ParseDomainError::EmptyLabel));
        let long_label = format!("{}.com", "a".repeat(64));
        assert_eq!(
            DomainName::parse(&long_label),
            Err(ParseDomainError::LabelTooLong)
        );
        let long_name = ["ab"; 90].join(".");
        assert_eq!(
            DomainName::parse(&long_name),
            Err(ParseDomainError::TooLong)
        );
    }

    #[test]
    fn idn_detection_levels() {
        let second = DomainName::parse("xn--0wwy37b.com").unwrap();
        assert!(second.is_idn() && second.idn_at_observable_level());

        let top = DomainName::parse("example.xn--fiqs8s").unwrap();
        assert!(top.is_idn() && top.idn_at_observable_level());

        let third = DomainName::parse("xn--fiqs8s.example.com").unwrap();
        assert!(third.is_idn());
        assert!(!third.idn_at_observable_level());
    }

    #[test]
    fn display_decodes_ace() {
        let d = DomainName::parse("xn--0wwy37b.com").unwrap();
        assert_eq!(d.to_display(), "波色.com");
    }

    #[test]
    fn display_preserves_undecodable_ace() {
        // Truncated VLI ("zz" ends mid-integer): falls back to raw label text.
        let d = DomainName::parse("xn--zz.com").unwrap();
        assert_eq!(d.to_display(), "xn--zz.com");
    }

    #[test]
    fn single_label_has_no_sld() {
        let d = DomainName::parse("com").unwrap();
        assert_eq!(d.sld(), None);
        assert_eq!(d.registered_domain(), None);
    }
}
