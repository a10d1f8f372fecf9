//! The Bootstring codec of RFC 3492, instantiated with the Punycode parameters.
//!
//! Punycode is the ASCII-compatible encoding used for IDN labels: all ASCII
//! code points of the input are copied verbatim, a delimiter (`-`) separates
//! them from a stream of generalized variable-length integers that encode the
//! positions and values of the non-ASCII code points.
//!
//! This is a from-scratch implementation following the pseudo-code of
//! RFC 3492 §6.1–6.3, including the overflow checks of §6.4.

use crate::error::IdnaError;

// Bootstring parameters for Punycode (RFC 3492 §5).
const BASE: u32 = 36;
const TMIN: u32 = 1;
const TMAX: u32 = 26;
const SKEW: u32 = 38;
const DAMP: u32 = 700;
const INITIAL_BIAS: u32 = 72;
const INITIAL_N: u32 = 128;
const DELIMITER: char = '-';

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
fn decode_digit(b: u8) -> Option<u32> {
    match DIGIT_VALUE.get(usize::from(b)) {
        Some(&v) if v != 0xFF => Some(u32::from(v)),
        _ => None,
    }
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
///
/// # Examples
///
/// ```
/// let ace = idnre_idna::punycode::encode("bücher").unwrap();
/// assert_eq!(ace, "bcher-kva");
/// ```
pub fn encode(input: &str) -> Result<String, IdnaError> {
    let mut output = String::with_capacity(input.len() + 8);
    encode_into(input, &mut output)?;
    Ok(output)
}

/// [`encode`], appending to `output` instead of allocating. The encoder
/// re-reads `input` once per distinct non-ASCII code point rather than
/// collecting it into a code-point buffer. On error `output` holds a
/// partial encoding the caller discards.
pub(crate) fn encode_into(input: &str, output: &mut String) -> Result<(), IdnaError> {
    // Copy the basic (ASCII) code points verbatim.
    let mut basic_count: u32 = 0;
    let mut total: u32 = 0;
    for c in input.chars() {
        total += 1;
        if c.is_ascii() {
            output.push(c);
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

    while handled < total {
        // Find the smallest unhandled code point >= n.
        let m = input
            .chars()
            .map(u32::from)
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

        for cp in input.chars().map(u32::from) {
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

    Ok(())
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
///
/// # Examples
///
/// ```
/// let s = idnre_idna::punycode::decode("bcher-kva").unwrap();
/// assert_eq!(s, "bücher");
/// ```
pub fn decode(input: &str) -> Result<String, IdnaError> {
    let mut output = String::with_capacity(input.len() + 8);
    decode_into(input, &mut output)?;
    Ok(output)
}

/// [`decode`], appending to `output` instead of allocating: each decoded
/// code point is inserted straight into `output` at its character
/// position. On error `output` holds a partial decoding the caller
/// discards.
pub(crate) fn decode_into(input: &str, output: &mut String) -> Result<(), IdnaError> {
    if !input.is_ascii() {
        return Err(IdnaError::InvalidPunycode);
    }

    // Basic code points are everything before the *last* delimiter.
    let (basic, extended) = match input.rfind(DELIMITER) {
        Some(pos) => (&input[..pos], &input[pos + 1..]),
        None => ("", input),
    };

    let start = output.len();
    output.push_str(basic);
    // Characters decoded so far (the basic part is ASCII: one per byte).
    let mut out_chars = basic.len() as u32;
    let mut n: u32 = INITIAL_N;
    let mut i: u32 = 0;
    let mut bias: u32 = INITIAL_BIAS;

    let mut digits = extended.bytes().peekable();
    while digits.peek().is_some() {
        let old_i = i;
        let mut w: u32 = 1;
        let mut k = BASE;
        loop {
            let c = digits.next().ok_or(IdnaError::InvalidPunycode)?;
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
        out_chars += 1;
        bias = adapt(i - old_i, out_chars, old_i == 0);
        n = n.checked_add(i / out_chars).ok_or(IdnaError::Overflow)?;
        i %= out_chars;
        // Rejects code points past U+10FFFF and surrogates.
        let ch = char::from_u32(n).ok_or(IdnaError::Overflow)?;
        let at = output[start..]
            .char_indices()
            .nth(i as usize)
            .map_or(output.len(), |(offset, _)| start + offset);
        output.insert(at, ch);
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips `unicode` and asserts the encoded form equals `ace`.
    fn check(unicode: &str, ace: &str) {
        assert_eq!(encode(unicode).unwrap(), ace, "encode({unicode:?})");
        assert_eq!(decode(ace).unwrap(), unicode, "decode({ace:?})");
    }

    #[test]
    fn rfc3492_sample_arabic() {
        check(
            "\u{644}\u{64A}\u{647}\u{645}\u{627}\u{628}\u{62A}\u{643}\u{644}\u{645}\u{648}\u{634}\u{639}\u{631}\u{628}\u{64A}\u{61F}",
            "egbpdaj6bu4bxfgehfvwxn",
        );
    }

    #[test]
    fn rfc3492_sample_simplified_chinese() {
        check(
            "\u{4ED6}\u{4EEC}\u{4E3A}\u{4EC0}\u{4E48}\u{4E0D}\u{8BF4}\u{4E2D}\u{6587}",
            "ihqwcrb4cv8a8dqg056pqjye",
        );
    }

    #[test]
    fn rfc3492_sample_czech() {
        check(
            "Pro\u{10D}prost\u{11B}nemluv\u{ED}\u{10D}esky",
            "Proprostnemluvesky-uyb24dma41a",
        );
    }

    #[test]
    fn rfc3492_sample_hebrew() {
        check(
            "\u{5DC}\u{5DE}\u{5D4}\u{5D4}\u{5DD}\u{5E4}\u{5E9}\u{5D5}\u{5D8}\u{5DC}\u{5D0}\u{5DE}\u{5D3}\u{5D1}\u{5E8}\u{5D9}\u{5DD}\u{5E2}\u{5D1}\u{5E8}\u{5D9}\u{5EA}",
            "4dbcagdahymbxekheh6e0a7fei0b",
        );
    }

    #[test]
    fn rfc3492_sample_japanese() {
        check(
            "\u{306A}\u{305C}\u{307F}\u{3093}\u{306A}\u{65E5}\u{672C}\u{8A9E}\u{3092}\u{8A71}\u{3057}\u{3066}\u{304F}\u{308C}\u{306A}\u{3044}\u{306E}\u{304B}",
            "n8jok5ay5dzabd5bym9f0cm5685rrjetr6pdxa",
        );
    }

    #[test]
    fn rfc3492_sample_russian() {
        // RFC 3492 lists this sample with an uppercase Π [sic] lowercased.
        check(
            "\u{43F}\u{43E}\u{447}\u{435}\u{43C}\u{443}\u{436}\u{435}\u{43E}\u{43D}\u{438}\u{43D}\u{435}\u{433}\u{43E}\u{432}\u{43E}\u{440}\u{44F}\u{442}\u{43F}\u{43E}\u{440}\u{443}\u{441}\u{441}\u{43A}\u{438}",
            "b1abfaaepdrnnbgefbadotcwatmq2g4l",
        );
    }

    #[test]
    fn rfc3492_sample_vietnamese() {
        check(
            "T\u{1EA1}isaoh\u{1ECD}kh\u{F4}ngth\u{1EC3}ch\u{1EC9}n\u{F3}iti\u{1EBF}ngVi\u{1EC7}t",
            "TisaohkhngthchnitingVit-kjcr8268qyxafd2f1b9g",
        );
    }

    #[test]
    fn rfc3492_sample_mixed_japanese_ascii() {
        check(
            "3\u{5E74}B\u{7D44}\u{91D1}\u{516B}\u{5148}\u{751F}",
            "3B-ww4c5e180e575a65lsy2b",
        );
        check(
            "\u{5B89}\u{5BA4}\u{5948}\u{7F8E}\u{6075}-with-SUPER-MONKEYS",
            "-with-SUPER-MONKEYS-pc58ag80a8qai00g7n9n",
        );
        check(
            "Hello-Another-Way-\u{305D}\u{308C}\u{305E}\u{308C}\u{306E}\u{5834}\u{6240}",
            "Hello-Another-Way--fc4qua05auwb3674vfr0b",
        );
        check(
            "\u{3072}\u{3068}\u{3064}\u{5C4B}\u{6839}\u{306E}\u{4E0B}2",
            "2-u9tlzr9756bt3uc0v",
        );
        check(
            "Maji\u{3067}Koi\u{3059}\u{308B}5\u{79D2}\u{524D}",
            "MajiKoi5-783gue6qz075azm5e",
        );
        check(
            "\u{30D1}\u{30D5}\u{30A3}\u{30FC}de\u{30EB}\u{30F3}\u{30D0}",
            "de-jg4avhby1noc0d",
        );
        check(
            "\u{305D}\u{306E}\u{30B9}\u{30D4}\u{30FC}\u{30C9}\u{3067}",
            "d9juau41awczczp",
        );
    }

    #[test]
    fn rfc3492_all_ascii_sample() {
        // §7.1 (S): pure ASCII gains a trailing delimiter.
        check("-> $1.00 <-", "-> $1.00 <--");
    }

    #[test]
    fn paper_examples() {
        // xn--0wwy37b.com — "the largest among all IDNs" (Section IV-C).
        check("\u{6CE2}\u{8272}", "0wwy37b");
        // 中国 iTLD.
        check("\u{4E2D}\u{56FD}", "fiqs8s");
    }

    #[test]
    fn empty_input() {
        assert_eq!(encode("").unwrap(), "");
        assert_eq!(decode("").unwrap(), "");
    }

    #[test]
    fn decode_rejects_bad_digit() {
        assert!(decode("ab!cd").is_err());
        assert!(decode("\u{FF}abc").is_err());
    }

    #[test]
    fn decode_rejects_truncated_integer() {
        // "zz": both digits stay at or above their thresholds, so the
        // variable-length integer is still open when input ends.
        assert!(decode("zz").is_err());
    }

    #[test]
    fn decode_rejects_overflow() {
        assert!(decode("99999999").is_err());
    }

    #[test]
    fn decode_is_case_insensitive_in_digits() {
        assert_eq!(decode("KVA").unwrap(), decode("kva").unwrap());
    }

    #[test]
    fn delta_reconstruction_positions() {
        // Non-ASCII inserted at front, middle, and back positions round-trip,
        // and position changes alter the encoding.
        let front = encode("\u{E4}bc").unwrap();
        let middle = encode("a\u{E4}c").unwrap();
        let back = encode("ab\u{E4}").unwrap();
        assert_eq!(decode(&front).unwrap(), "\u{E4}bc");
        assert_eq!(decode(&middle).unwrap(), "a\u{E4}c");
        assert_eq!(decode(&back).unwrap(), "ab\u{E4}");
        assert_ne!(front, middle);
        assert_ne!(middle, back);
    }
}
