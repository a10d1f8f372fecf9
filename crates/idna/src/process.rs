//! Whole-domain `ToASCII` / `ToUnicode` processing (the IDNA operations that
//! browsers and registrars run on every IDN before DNS resolution).

use crate::error::IdnaError;
use crate::punycode;
use crate::validate::{validate_ascii_label, validate_unicode_label, LabelIssue, MAX_LABEL_OCTETS};
use crate::ACE_PREFIX;
use std::borrow::Cow;

/// Options controlling [`to_ascii`] / [`to_unicode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    /// Enforce per-label structural validity (hyphen rules, repertoire).
    /// Registries set this; permissive traffic analysis may clear it.
    pub validate_labels: bool,
    /// Enforce the 253-octet total length limit on the ACE form.
    pub enforce_length: bool,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            validate_labels: true,
            enforce_length: true,
        }
    }
}

/// Converts a (possibly Unicode) domain name to its ACE form, label by label.
///
/// ASCII labels are lowercased and passed through; labels containing
/// non-ASCII characters are case-folded, validated, Punycode-encoded and
/// prefixed with `xn--`.
///
/// # Errors
///
/// * [`IdnaError::InvalidLabel`] when a label fails validation.
/// * [`IdnaError::DomainTooLong`] when the ACE form exceeds 253 octets.
/// * [`IdnaError::Overflow`] from the Punycode codec.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), idnre_idna::IdnaError> {
/// assert_eq!(idnre_idna::to_ascii("中国")?, "xn--fiqs8s");
/// assert_eq!(idnre_idna::to_ascii("Example.COM")?, "example.com");
/// # Ok(())
/// # }
/// ```
pub fn to_ascii(domain: &str) -> Result<String, IdnaError> {
    to_ascii_with(domain, Flags::default())
}

/// [`to_ascii`] with explicit [`Flags`].
///
/// # Errors
///
/// See [`to_ascii`].
pub fn to_ascii_with(domain: &str, flags: Flags) -> Result<String, IdnaError> {
    let domain = domain.strip_suffix('.').unwrap_or(domain);
    let mut out = String::with_capacity(domain.len() + 8);
    for (i, label) in domain.split('.').enumerate() {
        if i > 0 {
            out.push('.');
        }
        label_to_ascii(label, flags, &mut out)?;
    }
    check_length(&out, flags)?;
    Ok(out)
}

/// [`to_ascii`] and the display form [`to_unicode`] gives its result, in
/// one walk over the labels: equal to `to_ascii(domain)` followed by
/// `to_unicode` of the ACE form, errors included.
///
/// A non-ASCII label's display form is its case fold, the string its
/// Punycode decodes back to, so nothing is decoded that was just encoded.
/// A fold that is pure ASCII is [`IdnaError::SpuriousAce`], as decoding
/// its `xn--` label would be. An ASCII label that is itself an ACE label
/// (an iTLD such as `xn--fiqs8s`) is decoded.
///
/// # Errors
///
/// Any [`to_ascii`] error, else the first error [`to_unicode`] would
/// return for the ACE form.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), idnre_idna::IdnaError> {
/// let (ace, display) = idnre_idna::to_ascii_and_unicode("Аррӏе.XN--FIQS8S")?;
/// assert_eq!(ace, "xn--80ak6aa92e.xn--fiqs8s");
/// assert_eq!(display, "аррӏе.中国");
/// # Ok(())
/// # }
/// ```
pub fn to_ascii_and_unicode(domain: &str) -> Result<(String, String), IdnaError> {
    let flags = Flags::default();
    let domain = domain.strip_suffix('.').unwrap_or(domain);
    let mut ace = String::with_capacity(domain.len() + 8);
    let mut display = String::with_capacity(domain.len());
    // `to_unicode`'s first error, reported only once the ACE form is known
    // to be valid, as in the composition.
    let mut display_result = Ok(());
    for (i, label) in domain.split('.').enumerate() {
        if i > 0 {
            ace.push('.');
            display.push('.');
        }
        let start = ace.len();
        let label_display = match label_to_ascii(label, flags, &mut ace)? {
            Some(folded) if folded.is_ascii() => Err(IdnaError::SpuriousAce),
            Some(folded) => {
                display.push_str(&folded);
                Ok(())
            }
            None => label_to_unicode(&ace[start..], &mut display),
        };
        display_result = display_result.and(label_display);
    }
    check_length(&ace, flags)?;
    display_result?;
    Ok((ace, display))
}

/// Appends the ACE form of one label to `out`. Returns the case fold of a
/// non-ASCII label (what its ACE form decodes back to), or `None` for an
/// ASCII label, whose ACE form is its lowercase.
fn label_to_ascii<'l>(
    label: &'l str,
    flags: Flags,
    out: &mut String,
) -> Result<Option<Cow<'l, str>>, IdnaError> {
    let start = out.len();
    if label.is_ascii() {
        out.push_str(label);
        out[start..].make_ascii_lowercase();
        if flags.validate_labels {
            validate_ascii_label(&out[start..])?;
        }
        return Ok(None);
    }
    // Unicode label: case-fold (simple lowercase suffices for the repertoire
    // used in domain names), validate, then encode.
    let folded = fold_case(label);
    if flags.validate_labels {
        validate_unicode_label(&folded)?;
    }
    out.push_str(ACE_PREFIX);
    punycode::encode_into(&folded, out)?;
    if flags.validate_labels && out.len() - start > MAX_LABEL_OCTETS {
        return Err(IdnaError::InvalidLabel(LabelIssue::TooLong));
    }
    Ok(Some(folded))
}

/// Lowercases every character of `label`, borrowing it when it is already
/// lowercase (the common case).
fn fold_case(label: &str) -> Cow<'_, str> {
    let unchanged = |c: char| c.to_lowercase().eq(std::iter::once(c));
    match label.char_indices().find(|&(_, c)| !unchanged(c)) {
        None => Cow::Borrowed(label),
        Some((at, _)) => {
            let mut folded = String::with_capacity(label.len() + 4);
            folded.push_str(&label[..at]);
            folded.extend(label[at..].chars().flat_map(char::to_lowercase));
            Cow::Owned(folded)
        }
    }
}

/// Enforces the 253-octet limit on a whole ACE domain.
fn check_length(ace: &str, flags: Flags) -> Result<(), IdnaError> {
    if flags.enforce_length && ace.len() > 253 {
        return Err(IdnaError::DomainTooLong);
    }
    Ok(())
}

/// Converts an ACE domain back to its Unicode display form, label by label.
///
/// Non-ACE labels pass through unchanged (lowercased).
///
/// # Errors
///
/// * [`IdnaError::InvalidPunycode`] / [`IdnaError::Overflow`] when an `xn--`
///   label does not decode.
/// * [`IdnaError::SpuriousAce`] when an `xn--` label decodes to pure ASCII.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), idnre_idna::IdnaError> {
/// assert_eq!(idnre_idna::to_unicode("xn--fiqs8s")?, "中国");
/// assert_eq!(idnre_idna::to_unicode("example.com")?, "example.com");
/// # Ok(())
/// # }
/// ```
pub fn to_unicode(domain: &str) -> Result<String, IdnaError> {
    let domain = domain.strip_suffix('.').unwrap_or(domain);
    let mut out = String::with_capacity(domain.len());
    for (i, label) in domain.split('.').enumerate() {
        if i > 0 {
            out.push('.');
        }
        label_to_unicode(label, &mut out)?;
    }
    Ok(out)
}

/// Appends the display form of one label to `out`: an `xn--` label
/// decoded, any other label as is, lowercased in place either way
/// (decoded code points are all non-ASCII, so lowercasing after decoding
/// equals decoding the lowercased label).
fn label_to_unicode(label: &str, out: &mut String) -> Result<(), IdnaError> {
    let start = out.len();
    if crate::is_ace_label(label) {
        punycode::decode_into(&label[ACE_PREFIX.len()..], out)?;
        if out[start..].is_ascii() {
            return Err(IdnaError::SpuriousAce);
        }
    } else {
        out.push_str(label);
    }
    out[start..].make_ascii_lowercase();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_paper_domains() {
        // Unicode ⇄ ACE pairs quoted in the paper.
        let pairs = [
            ("波色.com", "xn--0wwy37b.com"),
            ("中国", "xn--fiqs8s"),
            ("аррӏе.com", "xn--80ak6aa92e.com"),
        ];
        for (unicode, ace) in pairs {
            assert_eq!(to_ascii(unicode).unwrap(), ace);
            assert_eq!(to_unicode(ace).unwrap(), unicode);
        }
    }

    #[test]
    fn mixed_ascii_and_unicode_labels() {
        let ace = to_ascii("apple激活.com").unwrap();
        assert!(ace.starts_with("xn--apple-"));
        assert!(ace.ends_with(".com"));
        assert_eq!(to_unicode(&ace).unwrap(), "apple激活.com");
    }

    #[test]
    fn uppercase_unicode_is_folded() {
        // Uppercase Cyrillic А folds to lowercase а before encoding.
        let a = to_ascii("Аррӏе.com").unwrap();
        let b = to_ascii("аррӏе.com").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn spurious_ace_is_rejected() {
        // "xn--abc-" would decode to pure ASCII "abc".
        let err = to_unicode("xn--abc-.com").unwrap_err();
        assert_eq!(err, IdnaError::SpuriousAce);
    }

    #[test]
    fn validation_can_be_disabled() {
        let flags = Flags {
            validate_labels: false,
            enforce_length: true,
        };
        // Leading hyphen rejected by default...
        assert!(to_ascii("-x.com").is_err());
        // ...but accepted in permissive traffic-analysis mode.
        assert_eq!(to_ascii_with("-x.com", flags).unwrap(), "-x.com");
    }

    #[test]
    fn length_limits() {
        // 60 ASCII chars plus encoded CJK pushes the ACE label past 63 octets.
        let long = format!("{}日本.com", "a".repeat(60));
        assert!(matches!(
            to_ascii(&long),
            Err(IdnaError::InvalidLabel(
                crate::validate::LabelIssue::TooLong
            ))
        ));
        let many: String = (0..45).map(|_| "abcde.").collect::<String>() + "com";
        assert_eq!(to_ascii(&many).unwrap_err(), IdnaError::DomainTooLong);
    }

    #[test]
    fn trailing_dot_accepted() {
        assert_eq!(to_ascii("example.com.").unwrap(), "example.com");
        assert_eq!(to_unicode("xn--fiqs8s.").unwrap(), "中国");
    }
}
