//! The normalized WHOIS record model.

use crate::date::Date;

/// Which response dialect a record was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WhoisDialect {
    /// `Key: Value` lines (ICANN RDAP-era gTLD format; Verisign, GoDaddy…).
    KeyValue,
    /// `[Bracketed Field]` blocks (JPRS / east-Asian registrars).
    Bracketed,
    /// `%`-prefixed comment banners with `key: value` body (European ccTLD
    /// style, also used by some registrars for gTLDs).
    PercentBanner,
    /// `field.......: value` dotted-padding style (legacy registrars).
    DottedPadding,
}

/// A normalized WHOIS record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhoisRecord {
    /// The registered domain, lowercased, in ACE form.
    pub domain: String,
    /// Sponsoring registrar, as published.
    pub registrar: Option<String>,
    /// Registrant email (None when withheld or privacy-protected).
    pub registrant_email: Option<String>,
    /// Registrant organization.
    pub registrant_org: Option<String>,
    /// Domain creation date.
    pub creation_date: Option<Date>,
    /// Registry expiry date.
    pub expiry_date: Option<Date>,
    /// Whether a privacy/proxy service shields the registrant.
    pub privacy_protected: bool,
    /// Delegated name servers (lowercased).
    pub name_servers: Vec<String>,
    /// The dialect the record was parsed from.
    pub dialect: WhoisDialect,
}

impl WhoisRecord {
    /// Creates an empty record for `domain` (used by builders and the
    /// synthetic generator).
    pub fn new(domain: &str, dialect: WhoisDialect) -> Self {
        WhoisRecord {
            domain: domain.to_ascii_lowercase(),
            registrar: None,
            registrant_email: None,
            registrant_org: None,
            creation_date: None,
            expiry_date: None,
            privacy_protected: false,
            name_servers: Vec::new(),
            dialect,
        }
    }

    /// Whether the registrant used a personal (free-mail) address — the
    /// signal the paper uses to call registrations "unlikely defensive"
    /// (Finding 3).
    pub fn uses_personal_email(&self) -> bool {
        const FREE_MAIL: [&str; 8] = [
            "@qq.com",
            "@163.com",
            "@gmail.com",
            "@126.com",
            "@139.com",
            "@hotmail.com",
            "@yahoo.com",
            "@outlook.com",
        ];
        self.registrant_email
            .as_deref()
            .map(|e| {
                let e = e.to_ascii_lowercase();
                FREE_MAIL.iter().any(|suffix| e.ends_with(suffix))
            })
            .unwrap_or(false)
    }

    /// The email domain of the registrant, if any (`someone@x.com` → `x.com`).
    pub fn registrant_email_domain(&self) -> Option<&str> {
        self.registrant_email
            .as_deref()
            .and_then(|e| e.rsplit_once('@'))
            .map(|(_, dom)| dom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn personal_email_detection() {
        let mut rec = WhoisRecord::new("x.com", WhoisDialect::KeyValue);
        assert!(!rec.uses_personal_email());
        rec.registrant_email = Some("776053229@qq.com".into());
        assert!(rec.uses_personal_email());
        rec.registrant_email = Some("legal@google.com".into());
        assert!(!rec.uses_personal_email());
    }

    #[test]
    fn email_domain_extraction() {
        let mut rec = WhoisRecord::new("x.com", WhoisDialect::KeyValue);
        rec.registrant_email = Some("a@b.example".into());
        assert_eq!(rec.registrant_email_domain(), Some("b.example"));
        rec.registrant_email = Some("malformed".into());
        assert_eq!(rec.registrant_email_domain(), None);
    }

    #[test]
    fn domain_is_lowercased() {
        let rec = WhoisRecord::new("XN--FIQS8S", WhoisDialect::Bracketed);
        assert_eq!(rec.domain, "xn--fiqs8s");
    }
}
