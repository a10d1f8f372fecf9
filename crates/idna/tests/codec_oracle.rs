//! Differential tests of the IDNA codec against the implementation it
//! replaced, kept below as the oracle. That implementation built each
//! label in its own `String` (a code-point `Vec` for Punycode, a
//! `format!` for the `xn--` prefix, a lowercase copy before decoding);
//! the codec now appends every label straight into one output string.
//! Every input must give the same `Result`: the same value, or the same
//! `IdnaError` variant.

use idnre_idna::process::to_ascii_with;
use idnre_idna::{
    punycode, to_ascii, to_ascii_and_unicode, to_unicode, Flags, IdnaError, LabelIssue,
};
use proptest::prelude::*;

/// The pre-rewrite codec, verbatim apart from visibility and crate paths.
mod oracle {
    use idnre_idna::{validate_ascii_label, validate_unicode_label};
    use idnre_idna::{Flags, IdnaError, LabelIssue, ACE_PREFIX};

    const MAX_LABEL_OCTETS: usize = 63;

    /// `punycode::encode` / `punycode::decode` before the rewrite.
    pub mod puny {
        use idnre_idna::IdnaError;

        // Bootstring parameters for Punycode (RFC 3492 §5).
        const BASE: u32 = 36;
        const TMIN: u32 = 1;
        const TMAX: u32 = 26;
        const SKEW: u32 = 38;
        const DAMP: u32 = 700;
        const INITIAL_BIAS: u32 = 72;
        const INITIAL_N: u32 = 128;
        const DELIMITER: char = '-';

        /// Maximum code point value (inclusive) representable in the decoder output.
        const MAX_CODEPOINT: u32 = 0x10FFFF;

        /// Adapts the bias after each delta is encoded or decoded (RFC 3492 §6.1).
        fn adapt(mut delta: u32, num_points: u32, first_time: bool) -> u32 {
            delta /= if first_time { DAMP } else { 2 };
            delta += delta / num_points;
            let mut k = 0;
            while delta > ((BASE - TMIN) * TMAX) / 2 {
                delta /= BASE - TMIN;
                k += BASE;
            }
            k + (((BASE - TMIN + 1) * delta) / (delta + SKEW))
        }

        /// Maps a digit value (0..36) to its basic code point: `a..z`, `0..9`.
        fn encode_digit(d: u32) -> char {
            debug_assert!(d < BASE);
            if d < 26 {
                (b'a' + d as u8) as char
            } else {
                (b'0' + (d - 26) as u8) as char
            }
        }

        /// Digit value for each ASCII byte (`0xFF` = not a Punycode digit). The
        /// decoder consults this once per extended-section character, replacing the
        /// three-arm range match on the hot path.
        const DIGIT_VALUE: [u8; 128] = {
            let mut table = [0xFFu8; 128];
            let mut b = 0usize;
            while b < 128 {
                let c = b as u8;
                table[b] = match c {
                    b'a'..=b'z' => c - b'a',
                    b'A'..=b'Z' => c - b'A',
                    b'0'..=b'9' => c - b'0' + 26,
                    _ => 0xFF,
                };
                b += 1;
            }
            table
        };

        /// Maps a basic code point to its digit value, or `None` if it is not a digit.
        ///
        /// Both upper- and lower-case letters are accepted, per RFC 3492 §5.
        fn decode_digit(c: char) -> Option<u32> {
            let cp = c as u32;
            if cp < 128 {
                let v = DIGIT_VALUE[cp as usize];
                if v != 0xFF {
                    return Some(u32::from(v));
                }
            }
            None
        }

        /// Encodes a Unicode string into its Punycode form (without the `xn--` prefix).
        ///
        /// Returns the encoded ASCII string. If the input is entirely ASCII, the
        /// result is the input followed by a trailing delimiter, as RFC 3492 requires
        /// (`"abc"` → `"abc-"`); the IDNA layer never encodes all-ASCII labels so this
        /// case only occurs when calling the codec directly.
        ///
        /// # Errors
        ///
        /// Returns [`IdnaError::Overflow`] if the delta computation exceeds `u32`
        /// range (only possible for pathological inputs near the length limit).
        pub(crate) fn encode(input: &str) -> Result<String, IdnaError> {
            let codepoints: Vec<u32> = input.chars().map(|c| c as u32).collect();
            encode_codepoints(&codepoints)
        }

        /// Encodes a slice of Unicode scalar values into Punycode.
        ///
        /// See [`encode`] for details; this variant avoids a `&str` round-trip when
        /// the caller already holds code points.
        ///
        /// # Errors
        ///
        /// Returns [`IdnaError::Overflow`] on arithmetic overflow.
        fn encode_codepoints(input: &[u32]) -> Result<String, IdnaError> {
            let mut output = String::with_capacity(input.len() + 8);

            // Copy the basic (ASCII) code points verbatim.
            let mut basic_count: u32 = 0;
            for &cp in input {
                if cp < 0x80 {
                    output.push(cp as u8 as char);
                    basic_count += 1;
                }
            }
            let mut handled: u32 = basic_count;
            if basic_count > 0 {
                output.push(DELIMITER);
            }

            let mut n: u32 = INITIAL_N;
            let mut delta: u32 = 0;
            let mut bias: u32 = INITIAL_BIAS;
            let total = input.len() as u32;

            while handled < total {
                // Find the smallest unhandled code point >= n.
                let m = input
                    .iter()
                    .copied()
                    .filter(|&cp| cp >= n)
                    .min()
                    .expect("an unhandled code point must exist");

                // Advance delta to account for skipping from n to m.
                let gap = m
                    .checked_sub(n)
                    .and_then(|d| d.checked_mul(handled + 1))
                    .ok_or(IdnaError::Overflow)?;
                delta = delta.checked_add(gap).ok_or(IdnaError::Overflow)?;
                n = m;

                for &cp in input {
                    if cp < n {
                        delta = delta.checked_add(1).ok_or(IdnaError::Overflow)?;
                    }
                    if cp == n {
                        // Encode delta as a generalized variable-length integer.
                        let mut q = delta;
                        let mut k = BASE;
                        loop {
                            let t = threshold(k, bias);
                            if q < t {
                                break;
                            }
                            output.push(encode_digit(t + (q - t) % (BASE - t)));
                            q = (q - t) / (BASE - t);
                            k += BASE;
                        }
                        output.push(encode_digit(q));
                        bias = adapt(delta, handled + 1, handled == basic_count);
                        delta = 0;
                        handled += 1;
                    }
                }
                delta = delta.checked_add(1).ok_or(IdnaError::Overflow)?;
                n = n.checked_add(1).ok_or(IdnaError::Overflow)?;
            }

            Ok(output)
        }

        /// Clamps the per-digit threshold into `[TMIN, TMAX]` (RFC 3492 §6.2 step).
        fn threshold(k: u32, bias: u32) -> u32 {
            if k <= bias + TMIN {
                TMIN
            } else if k >= bias + TMAX {
                TMAX
            } else {
                k - bias
            }
        }

        /// Decodes a Punycode string (without the `xn--` prefix) back into Unicode.
        ///
        /// # Errors
        ///
        /// * [`IdnaError::InvalidPunycode`] if the input contains a non-ASCII byte,
        ///   an invalid digit, or a truncated variable-length integer.
        /// * [`IdnaError::Overflow`] if a decoded integer exceeds `u32` range or the
        ///   resulting code point exceeds U+10FFFF or falls in the surrogate range.
        pub(crate) fn decode(input: &str) -> Result<String, IdnaError> {
            if !input.is_ascii() {
                return Err(IdnaError::InvalidPunycode);
            }

            // Basic code points are everything before the *last* delimiter.
            let (basic, extended) = match input.rfind(DELIMITER) {
                Some(pos) => (&input[..pos], &input[pos + 1..]),
                None => ("", input),
            };

            let mut output: Vec<u32> = basic.chars().map(|c| c as u32).collect();
            let mut n: u32 = INITIAL_N;
            let mut i: u32 = 0;
            let mut bias: u32 = INITIAL_BIAS;

            let mut chars = extended.chars().peekable();
            while chars.peek().is_some() {
                let old_i = i;
                let mut w: u32 = 1;
                let mut k = BASE;
                loop {
                    let c = chars.next().ok_or(IdnaError::InvalidPunycode)?;
                    let digit = decode_digit(c).ok_or(IdnaError::InvalidPunycode)?;
                    i = digit
                        .checked_mul(w)
                        .and_then(|dw| i.checked_add(dw))
                        .ok_or(IdnaError::Overflow)?;
                    let t = threshold(k, bias);
                    if digit < t {
                        break;
                    }
                    w = w.checked_mul(BASE - t).ok_or(IdnaError::Overflow)?;
                    k += BASE;
                }
                let out_len = output.len() as u32 + 1;
                bias = adapt(i - old_i, out_len, old_i == 0);
                n = n.checked_add(i / out_len).ok_or(IdnaError::Overflow)?;
                i %= out_len;
                if n > MAX_CODEPOINT || (0xD800..=0xDFFF).contains(&n) {
                    return Err(IdnaError::Overflow);
                }
                output.insert(i as usize, n);
                i += 1;
            }

            output
                .into_iter()
                .map(|cp| char::from_u32(cp).ok_or(IdnaError::InvalidPunycode))
                .collect()
        }
    }

    /// [`to_ascii`] with explicit [`Flags`].
    ///
    /// # Errors
    ///
    /// See [`to_ascii`].
    pub(crate) fn to_ascii_with(domain: &str, flags: Flags) -> Result<String, IdnaError> {
        let domain = domain.strip_suffix('.').unwrap_or(domain);
        let mut out = String::with_capacity(domain.len() + 8);
        for (i, label) in domain.split('.').enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(&label_to_ascii(label, flags)?);
        }
        if flags.enforce_length && out.len() > 253 {
            return Err(IdnaError::DomainTooLong);
        }
        Ok(out)
    }

    /// Converts one label to ACE form.
    fn label_to_ascii(label: &str, flags: Flags) -> Result<String, IdnaError> {
        if label.is_ascii() {
            let lower = label.to_ascii_lowercase();
            if flags.validate_labels {
                validate_ascii_label(&lower)?;
            }
            return Ok(lower);
        }
        // Unicode label: case-fold (simple lowercase suffices for the repertoire
        // used in domain names), validate, then encode.
        let folded: String = label.chars().flat_map(char::to_lowercase).collect();
        if flags.validate_labels {
            validate_unicode_label(&folded)?;
        }
        let encoded = puny::encode(&folded)?;
        let ace = format!("{ACE_PREFIX}{encoded}");
        if flags.validate_labels && ace.len() > MAX_LABEL_OCTETS {
            return Err(IdnaError::InvalidLabel(LabelIssue::TooLong));
        }
        Ok(ace)
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
    pub(crate) fn to_unicode(domain: &str) -> Result<String, IdnaError> {
        let domain = domain.strip_suffix('.').unwrap_or(domain);
        let mut out = String::with_capacity(domain.len());
        for (i, label) in domain.split('.').enumerate() {
            if i > 0 {
                out.push('.');
            }
            if idnre_idna::is_ace_label(label) {
                let decoded = puny::decode(&label[4..].to_ascii_lowercase())?;
                if decoded.is_ascii() {
                    return Err(IdnaError::SpuriousAce);
                }
                out.push_str(&decoded);
            } else {
                out.push_str(&label.to_ascii_lowercase());
            }
        }
        Ok(out)
    }
}

/// Strategy over label characters that exercise every branch of the codec:
/// ASCII of both cases and LDH-breaking punctuation, non-ASCII letters
/// whose case fold changes them (Cyrillic and Greek capitals, `İ`, the
/// Kelvin sign that folds to ASCII `k`, the titlecase `ǅ`), RTL letters
/// for the Bidi rule, CJK, and the invisibles validation rejects. Arms
/// repeat to weight the draw towards lowercase ASCII.
fn label_chars() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        proptest::char::range('a', 'z'),
        proptest::char::range('a', 'z'),
        proptest::char::range('a', 'z'),
        proptest::char::range('A', 'Z'),
        proptest::char::range('0', '9'),
        Just('-'),
        prop_oneof![Just('_'), Just(' '), Just('!'), Just('\u{200D}')],
        proptest::char::range('\u{00E0}', '\u{00FF}'),
        proptest::char::range('\u{0410}', '\u{044F}'),
        proptest::char::range('\u{0391}', '\u{03C9}'),
        prop_oneof![
            Just('\u{212A}'),
            Just('\u{0130}'),
            Just('\u{01C5}'),
            Just('ß')
        ],
        proptest::char::range('\u{0627}', '\u{064A}'),
        proptest::char::range('\u{4E00}', '\u{4E80}'),
        proptest::char::range('\u{4E00}', '\u{4E80}'),
    ];
    proptest::collection::vec(ch, 0..20).prop_map(|v| v.into_iter().collect::<String>())
}

/// One label: mostly [`label_chars`], plus ACE-looking labels (spurious
/// and malformed ones included) and long runs near the 63-octet limit.
fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        label_chars(),
        label_chars(),
        label_chars(),
        (
            prop_oneof![Just("xn--"), Just("XN--"), Just("Xn--")],
            "[a-zA-Z0-9-]{0,16}"
        )
            .prop_map(|(prefix, rest)| format!("{prefix}{rest}")),
        ("[a-z]{50,70}", label_chars()).prop_map(|(a, b)| format!("{a}{b}")),
    ]
}

/// Domains of one to five labels, with an occasional trailing dot.
fn domain() -> impl Strategy<Value = String> {
    (proptest::collection::vec(label(), 1..6), any::<bool>()).prop_map(|(labels, dot)| {
        let mut d = labels.join(".");
        if dot {
            d.push('.');
        }
        d
    })
}

/// ACE domains: the oracle's encoding of a generated domain where it has
/// one, else the domain itself (exercising `to_unicode`'s error paths).
fn ace_domain() -> impl Strategy<Value = String> {
    domain().prop_map(|d| {
        let lax = Flags {
            validate_labels: false,
            enforce_length: false,
        };
        oracle::to_ascii_with(&d, lax).unwrap_or(d)
    })
}

fn flags() -> impl Strategy<Value = Flags> {
    (any::<bool>(), any::<bool>()).prop_map(|(validate_labels, enforce_length)| Flags {
        validate_labels,
        enforce_length,
    })
}

/// The fused call's specification: `to_ascii`, then `to_unicode` of the
/// ACE form.
fn composed(domain: &str) -> Result<(String, String), IdnaError> {
    let ace = oracle::to_ascii_with(domain, Flags::default())?;
    let display = oracle::to_unicode(&ace)?;
    Ok((ace, display))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn to_ascii_matches_oracle(d in domain()) {
        prop_assert_eq!(to_ascii(&d), oracle::to_ascii_with(&d, Flags::default()));
    }

    #[test]
    fn to_ascii_with_matches_oracle(d in domain(), flags in flags()) {
        prop_assert_eq!(to_ascii_with(&d, flags), oracle::to_ascii_with(&d, flags));
    }

    #[test]
    fn to_unicode_matches_oracle(d in prop_oneof![ace_domain(), domain()]) {
        prop_assert_eq!(to_unicode(&d), oracle::to_unicode(&d));
    }

    #[test]
    fn fused_call_matches_composition(d in domain()) {
        let fused = to_ascii_and_unicode(&d);
        prop_assert_eq!(&fused, &composed(&d));
        let new_composition = to_ascii(&d).and_then(|ace| to_unicode(&ace).map(|u| (ace, u)));
        prop_assert_eq!(fused, new_composition);
    }

    #[test]
    fn encode_matches_oracle(s in prop_oneof![label(), "\\PC{0,24}"]) {
        prop_assert_eq!(punycode::encode(&s), oracle::puny::encode(&s));
    }

    #[test]
    fn decode_matches_oracle(
        s in prop_oneof![
            "[a-zA-Z0-9-]{0,24}",
            "[ -~]{0,24}",
            "\\PC{0,12}",
            label().prop_map(|l| oracle::puny::encode(&l).unwrap_or(l)),
        ]
    ) {
        prop_assert_eq!(punycode::decode(&s), oracle::puny::decode(&s));
    }
}

/// Asserts every entry point agrees with the oracle on `domain`.
fn assert_agrees(domain: &str) {
    for flags in [
        Flags::default(),
        Flags {
            validate_labels: false,
            enforce_length: true,
        },
        Flags {
            validate_labels: true,
            enforce_length: false,
        },
    ] {
        assert_eq!(
            to_ascii_with(domain, flags),
            oracle::to_ascii_with(domain, flags),
            "to_ascii_with({domain:?}, {flags:?})"
        );
    }
    assert_eq!(
        to_unicode(domain),
        oracle::to_unicode(domain),
        "to_unicode({domain:?})"
    );
    assert_eq!(
        to_ascii_and_unicode(domain),
        composed(domain),
        "fused({domain:?})"
    );
}

#[test]
fn uppercase_ace_and_trailing_dot() {
    for d in ["XN--FIQS8S.com", "XN--FIQS8S.com.", "xn--fiqs8s.COM."] {
        assert_agrees(d);
    }
    assert_eq!(
        to_ascii("XN--FIQS8S.com."),
        Ok("xn--fiqs8s.com".to_string())
    );
    assert_eq!(to_unicode("XN--FIQS8S.com."), Ok("中国.com".to_string()));
    assert_eq!(
        to_ascii_and_unicode("XN--FIQS8S.com."),
        Ok(("xn--fiqs8s.com".to_string(), "中国.com".to_string()))
    );
}

/// The shortest `a…a日本` label whose ACE form is `octets` long.
fn label_with_ace_len(octets: usize) -> String {
    (0..octets)
        .map(|n| format!("{}日本", "a".repeat(n)))
        .find(|l| {
            oracle::to_ascii_with(
                l,
                Flags {
                    validate_labels: false,
                    ..Flags::default()
                },
            )
            .is_ok_and(|ace| ace.len() == octets)
        })
        .unwrap_or_else(|| panic!("no label encodes to {octets} octets"))
}

#[test]
fn ace_label_length_limit() {
    let fits = label_with_ace_len(63);
    let over = label_with_ace_len(64);
    assert_agrees(&fits);
    assert_agrees(&over);
    assert_eq!(to_ascii(&fits).map(|a| a.len()), Ok(63));
    assert_eq!(
        to_ascii(&over),
        Err(IdnaError::InvalidLabel(LabelIssue::TooLong))
    );
    assert_agrees(&"a".repeat(63));
    assert_agrees(&"a".repeat(64));
}

#[test]
fn domain_length_limit() {
    let label = "a".repeat(63);
    let ace_label = label_with_ace_len(63);
    for (tail, octets) in [("b".repeat(61), 253), ("b".repeat(62), 254)] {
        for first in [&label, &ace_label] {
            let d = format!("{first}.{label}.{label}.{tail}");
            let ace = oracle::to_ascii_with(
                &d,
                Flags {
                    enforce_length: false,
                    ..Flags::default()
                },
            );
            assert_eq!(ace.map(|a| a.len()), Ok(octets));
            assert_agrees(&d);
            let expected = if octets > 253 {
                Err(IdnaError::DomainTooLong)
            } else {
                Ok(octets)
            };
            assert_eq!(to_ascii(&d).map(|a| a.len()), expected);
            assert_eq!(to_ascii_and_unicode(&d).map(|(a, _)| a.len()), expected);
        }
    }
}

#[test]
fn kelvin_sign_folds_to_spurious_ace() {
    // U+212A KELVIN SIGN lowercases to ASCII `k`: ToASCII encodes the
    // label, but decoding it back gives pure ASCII.
    for d in ["\u{212A}.com", "\u{212A}ey.com", "ab\u{212A}.中国"] {
        assert_agrees(d);
        assert!(to_ascii(d).is_ok(), "{d}");
        assert_eq!(to_ascii_and_unicode(d), Err(IdnaError::SpuriousAce), "{d}");
    }
    assert_eq!(to_ascii("\u{212A}.com"), Ok("xn--k-.com".to_string()));
}

#[test]
fn hyphen_rules() {
    for d in [
        "-x",
        "x-",
        "ab--cd",
        "xn--abc-",
        "-x.com",
        "x-.com",
        "ab--cd.com",
        "xn--abc-.com",
    ] {
        assert_agrees(d);
    }
    assert_eq!(
        to_ascii("-x"),
        Err(IdnaError::InvalidLabel(LabelIssue::LeadingHyphen))
    );
    assert_eq!(
        to_ascii("x-"),
        Err(IdnaError::InvalidLabel(LabelIssue::TrailingHyphen))
    );
    assert_eq!(
        to_ascii("ab--cd"),
        Err(IdnaError::InvalidLabel(LabelIssue::HyphenRestriction))
    );
    assert_eq!(
        to_ascii("xn--abc-"),
        Err(IdnaError::InvalidLabel(LabelIssue::TrailingHyphen))
    );
    assert_eq!(to_unicode("xn--abc-"), Err(IdnaError::SpuriousAce));
}
