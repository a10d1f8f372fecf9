//! The homoglyph (confusables) table — this repository's stand-in for the
//! UC-SimList used in Section VI-D of the paper.
//!
//! Every entry maps a non-ASCII character to the ASCII character it visually
//! imitates, together with a *composition recipe*: the set of diacritic marks
//! or strokes that, drawn over the base glyph, reproduce the character's
//! appearance. The renderer in `idnre-render` consumes the recipe; the
//! SSIM detector then measures exactly the pixel-level similarity the recipe
//! induces, so "identical" homoglyphs (empty recipe) score 1.0 and marked
//! variants score slightly below — the same gradient as the paper's
//! Table XII.

use std::collections::HashMap;
use std::sync::OnceLock;

/// A diacritic mark or stroke modifying a base glyph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Mark {
    /// Acute accent above (´).
    Acute,
    /// Grave accent above (`).
    Grave,
    /// Circumflex above (ˆ).
    Circumflex,
    /// Tilde above (˜).
    Tilde,
    /// Diaeresis / umlaut above (¨).
    Diaeresis,
    /// Ring above (˚).
    RingAbove,
    /// Macron above (¯).
    Macron,
    /// Breve above (˘).
    Breve,
    /// Caron / háček above (ˇ).
    Caron,
    /// Single dot above (˙).
    DotAbove,
    /// Hook above (ảᎏ̉).
    HookAbove,
    /// Horn attached at the upper right (ơ, ư).
    Horn,
    /// Single dot below (ạ).
    DotBelow,
    /// Cedilla below (ç).
    Cedilla,
    /// Ogonek below (ą).
    Ogonek,
    /// Comma below (ș).
    CommaBelow,
    /// Horizontal line below (ḏ).
    LineBelow,
    /// Horizontal stroke through the glyph body (đ, ħ).
    Stroke,
    /// Diagonal slash through the glyph (ø).
    Slash,
    /// The base glyph's dot is removed (dotless ı).
    Dotless,
    /// Small hook / tail descender (ƙ, ҙ).
    Tail,
    /// The glyph keeps the target's silhouette but differs in body shape
    /// (Greek α vs Latin a); the renderer perturbs several body pixels.
    ShapeVariant,
    /// The glyph is a shrunken rendition of the target (small capitals,
    /// superscript/subscript modifier letters) — clearly smaller at a
    /// glance.
    Minified,
}

/// How faithfully the character imitates its ASCII target when rendered in a
/// typical address-bar font.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fidelity {
    /// Pixel-identical in most fonts (e.g. Cyrillic `а` vs Latin `a`).
    Identical,
    /// A small mark distinguishes it (diacritic above/below); SSIM ≥ 0.95.
    High,
    /// Visibly different on inspection but same silhouette; SSIM ≈ 0.90–0.95.
    Medium,
    /// Loose pixel-overlap match only (small caps, modifier letters) — the
    /// long tail a UC-SimList-style table carries; SSIM well below 0.95.
    Low,
}

/// One confusable character: a Unicode character that imitates an ASCII one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Confusable {
    /// The Unicode character.
    pub ch: char,
    /// The ASCII character it imitates.
    pub target: char,
    /// Visual fidelity class.
    pub fidelity: Fidelity,
    /// Marks to draw over the base glyph to reproduce `ch`'s appearance.
    pub marks: &'static [Mark],
}

macro_rules! confusable {
    ($ch:literal => $target:literal, Identical) => {
        Confusable {
            ch: $ch,
            target: $target,
            fidelity: Fidelity::Identical,
            marks: &[],
        }
    };
    ($ch:literal => $target:literal, $fid:ident, [$($mark:ident),*]) => {
        Confusable {
            ch: $ch,
            target: $target,
            fidelity: Fidelity::$fid,
            marks: &[$(Mark::$mark),*],
        }
    };
}

/// The full confusables table.
///
/// Ordering is by ASCII target, then fidelity. The table intentionally covers
/// every character appearing in the paper's attack examples (Tables VIII and
/// XII) — Vietnamese, Arabic-diacritic Latin, Icelandic, Yoruba, Cyrillic and
/// Greek lookalikes.
pub static CONFUSABLES: &[Confusable] = &[
    // --- a ---
    confusable!('а' => 'a', Identical), // U+0430 CYRILLIC A
    confusable!('ɑ' => 'a', Identical), // U+0251 LATIN ALPHA
    confusable!('à' => 'a', High, [Grave]),
    confusable!('á' => 'a', High, [Acute]),
    confusable!('â' => 'a', High, [Circumflex]),
    confusable!('ã' => 'a', High, [Tilde]),
    confusable!('ä' => 'a', High, [Diaeresis]),
    confusable!('å' => 'a', High, [RingAbove]),
    confusable!('ā' => 'a', High, [Macron]),
    confusable!('ă' => 'a', High, [Breve]),
    confusable!('ą' => 'a', High, [Ogonek]),
    confusable!('ǎ' => 'a', High, [Caron]),
    confusable!('ạ' => 'a', High, [DotBelow]),
    confusable!('ả' => 'a', High, [HookAbove]),
    confusable!('α' => 'a', Medium, [ShapeVariant]), // Greek alpha
    // --- b ---
    confusable!('ḃ' => 'b', High, [DotAbove]),
    confusable!('ḅ' => 'b', High, [DotBelow]),
    confusable!('ƀ' => 'b', Medium, [Stroke]),
    confusable!('ɓ' => 'b', Medium, [Tail]),
    // --- c ---
    confusable!('с' => 'c', Identical), // U+0441 CYRILLIC ES
    confusable!('ϲ' => 'c', Identical), // Greek lunate sigma
    confusable!('ç' => 'c', High, [Cedilla]),
    confusable!('ć' => 'c', High, [Acute]),
    confusable!('ĉ' => 'c', High, [Circumflex]),
    confusable!('ċ' => 'c', High, [DotAbove]),
    confusable!('č' => 'c', High, [Caron]),
    // --- d ---
    confusable!('ԁ' => 'd', Identical), // U+0501 CYRILLIC KOMI DE
    confusable!('ḋ' => 'd', High, [DotAbove]),
    confusable!('ḍ' => 'd', High, [DotBelow]),
    confusable!('ḏ' => 'd', High, [LineBelow]),
    confusable!('ď' => 'd', Medium, [Caron]),
    confusable!('đ' => 'd', Medium, [Stroke]),
    // --- e ---
    confusable!('е' => 'e', Identical), // U+0435 CYRILLIC IE
    confusable!('è' => 'e', High, [Grave]),
    confusable!('é' => 'e', High, [Acute]),
    confusable!('ê' => 'e', High, [Circumflex]),
    confusable!('ë' => 'e', High, [Diaeresis]),
    confusable!('ē' => 'e', High, [Macron]),
    confusable!('ĕ' => 'e', High, [Breve]),
    confusable!('ė' => 'e', High, [DotAbove]),
    confusable!('ę' => 'e', High, [Ogonek]),
    confusable!('ě' => 'e', High, [Caron]),
    confusable!('ẹ' => 'e', High, [DotBelow]),
    confusable!('ẻ' => 'e', High, [HookAbove]),
    confusable!('ё' => 'e', High, [Diaeresis]), // Cyrillic io
    // --- f ---
    confusable!('ḟ' => 'f', High, [DotAbove]),
    confusable!('ƒ' => 'f', Medium, [Tail]),
    // --- g ---
    confusable!('ġ' => 'g', High, [DotAbove]),
    confusable!('ğ' => 'g', High, [Breve]),
    confusable!('ĝ' => 'g', High, [Circumflex]),
    confusable!('ģ' => 'g', High, [Cedilla]),
    confusable!('ǧ' => 'g', High, [Caron]),
    confusable!('ǵ' => 'g', High, [Acute]),
    confusable!('ɡ' => 'g', Identical), // U+0261 LATIN SCRIPT G
    // --- h ---
    confusable!('һ' => 'h', Identical), // U+04BB CYRILLIC SHHA
    confusable!('ĥ' => 'h', High, [Circumflex]),
    confusable!('ḣ' => 'h', High, [DotAbove]),
    confusable!('ḥ' => 'h', High, [DotBelow]),
    confusable!('ħ' => 'h', Medium, [Stroke]),
    // --- i ---
    confusable!('і' => 'i', Identical), // U+0456 CYRILLIC-UKRAINIAN I
    confusable!('ì' => 'i', High, [Grave]),
    confusable!('í' => 'i', High, [Acute]),
    confusable!('î' => 'i', High, [Circumflex]),
    confusable!('ï' => 'i', High, [Diaeresis]),
    confusable!('ĩ' => 'i', High, [Tilde]),
    confusable!('ī' => 'i', High, [Macron]),
    confusable!('ĭ' => 'i', High, [Breve]),
    confusable!('į' => 'i', High, [Ogonek]),
    confusable!('ị' => 'i', High, [DotBelow]),
    confusable!('ı' => 'i', High, [Dotless]),
    confusable!('ɩ' => 'i', Medium, [Dotless]),
    // --- j ---
    confusable!('ј' => 'j', Identical), // U+0458 CYRILLIC JE
    confusable!('ĵ' => 'j', High, [Circumflex]),
    // --- k ---
    confusable!('ķ' => 'k', High, [Cedilla]),
    confusable!('ḳ' => 'k', High, [DotBelow]),
    confusable!('ƙ' => 'k', Medium, [Tail]),
    // --- l ---
    confusable!('ӏ' => 'l', Identical), // U+04CF CYRILLIC PALOCHKA
    confusable!('ĺ' => 'l', High, [Acute]),
    confusable!('ļ' => 'l', High, [Cedilla]),
    confusable!('ḷ' => 'l', High, [DotBelow]),
    confusable!('ľ' => 'l', Medium, [Caron]),
    confusable!('ł' => 'l', Medium, [Slash]),
    // --- m ---
    confusable!('ḿ' => 'm', High, [Acute]),
    confusable!('ṁ' => 'm', High, [DotAbove]),
    confusable!('ṃ' => 'm', High, [DotBelow]),
    // --- n ---
    confusable!('ñ' => 'n', High, [Tilde]),
    confusable!('ń' => 'n', High, [Acute]),
    confusable!('ņ' => 'n', High, [Cedilla]),
    confusable!('ň' => 'n', High, [Caron]),
    confusable!('ṅ' => 'n', High, [DotAbove]),
    confusable!('ṇ' => 'n', High, [DotBelow]),
    confusable!('ƞ' => 'n', Medium, [Tail]),
    // --- o ---
    confusable!('о' => 'o', Identical), // U+043E CYRILLIC O
    confusable!('ο' => 'o', Identical), // U+03BF GREEK OMICRON
    confusable!('ò' => 'o', High, [Grave]),
    confusable!('ó' => 'o', High, [Acute]),
    confusable!('ô' => 'o', High, [Circumflex]),
    confusable!('õ' => 'o', High, [Tilde]),
    confusable!('ö' => 'o', High, [Diaeresis]),
    confusable!('ō' => 'o', High, [Macron]),
    confusable!('ŏ' => 'o', High, [Breve]),
    confusable!('ő' => 'o', High, [Acute, Acute]),
    confusable!('ọ' => 'o', High, [DotBelow]),
    confusable!('ỏ' => 'o', High, [HookAbove]),
    confusable!('ơ' => 'o', High, [Horn]),
    confusable!('ǒ' => 'o', High, [Caron]),
    confusable!('ø' => 'o', Medium, [Slash]),
    confusable!('ð' => 'o', Medium, [Stroke, Tail]), // Icelandic eth
    confusable!('σ' => 'o', Medium, [Horn]),         // Greek sigma
    // --- p ---
    confusable!('р' => 'p', Identical), // U+0440 CYRILLIC ER
    confusable!('ṕ' => 'p', High, [Acute]),
    confusable!('ṗ' => 'p', High, [DotAbove]),
    confusable!('ρ' => 'p', Medium, [ShapeVariant]), // Greek rho
    // --- q ---
    confusable!('ԛ' => 'q', Identical), // U+051B CYRILLIC QA
    confusable!('ɋ' => 'q', Medium, [Tail]),
    // --- r ---
    confusable!('ŕ' => 'r', High, [Acute]),
    confusable!('ŗ' => 'r', High, [Cedilla]),
    confusable!('ř' => 'r', High, [Caron]),
    confusable!('ṙ' => 'r', High, [DotAbove]),
    confusable!('ṛ' => 'r', High, [DotBelow]),
    confusable!('г' => 'r', Medium, [ShapeVariant]), // Cyrillic ghe
    // --- s ---
    confusable!('ѕ' => 's', Identical), // U+0455 CYRILLIC DZE
    confusable!('ś' => 's', High, [Acute]),
    confusable!('ŝ' => 's', High, [Circumflex]),
    confusable!('ş' => 's', High, [Cedilla]),
    confusable!('š' => 's', High, [Caron]),
    confusable!('ṡ' => 's', High, [DotAbove]),
    confusable!('ṣ' => 's', High, [DotBelow]),
    confusable!('ș' => 's', High, [CommaBelow]),
    // --- t ---
    confusable!('ţ' => 't', High, [Cedilla]),
    confusable!('ṫ' => 't', High, [DotAbove]),
    confusable!('ṭ' => 't', High, [DotBelow]),
    confusable!('ț' => 't', High, [CommaBelow]),
    confusable!('ť' => 't', Medium, [Caron]),
    confusable!('ŧ' => 't', Medium, [Stroke]),
    // --- u ---
    confusable!('ù' => 'u', High, [Grave]),
    confusable!('ú' => 'u', High, [Acute]),
    confusable!('û' => 'u', High, [Circumflex]),
    confusable!('ü' => 'u', High, [Diaeresis]),
    confusable!('ũ' => 'u', High, [Tilde]),
    confusable!('ū' => 'u', High, [Macron]),
    confusable!('ŭ' => 'u', High, [Breve]),
    confusable!('ů' => 'u', High, [RingAbove]),
    confusable!('ű' => 'u', High, [Acute, Acute]),
    confusable!('ų' => 'u', High, [Ogonek]),
    confusable!('ụ' => 'u', High, [DotBelow]),
    confusable!('ủ' => 'u', High, [HookAbove]),
    confusable!('ư' => 'u', High, [Horn]),
    confusable!('υ' => 'u', Medium, [ShapeVariant]), // Greek upsilon
    confusable!('ц' => 'u', Medium, [Tail]),         // Cyrillic tse
    // --- v ---
    confusable!('ѵ' => 'v', Identical), // U+0475 CYRILLIC IZHITSA
    confusable!('ṽ' => 'v', High, [Tilde]),
    confusable!('ṿ' => 'v', High, [DotBelow]),
    confusable!('ν' => 'v', Identical), // Greek nu
    // --- w ---
    confusable!('ԝ' => 'w', Identical), // U+051D CYRILLIC WE
    confusable!('ŵ' => 'w', High, [Circumflex]),
    confusable!('ẁ' => 'w', High, [Grave]),
    confusable!('ẃ' => 'w', High, [Acute]),
    confusable!('ẅ' => 'w', High, [Diaeresis]),
    confusable!('ẇ' => 'w', High, [DotAbove]),
    confusable!('ẉ' => 'w', High, [DotBelow]),
    confusable!('ѡ' => 'w', Medium, [ShapeVariant]), // Cyrillic omega
    confusable!('ω' => 'w', Medium, [ShapeVariant]), // Greek omega
    // --- x ---
    confusable!('х' => 'x', Identical), // U+0445 CYRILLIC HA
    confusable!('ẋ' => 'x', High, [DotAbove]),
    confusable!('ẍ' => 'x', High, [Diaeresis]),
    confusable!('χ' => 'x', Medium, [Tail]), // Greek chi
    // --- y ---
    confusable!('у' => 'y', Identical), // U+0443 CYRILLIC U
    confusable!('ý' => 'y', High, [Acute]),
    confusable!('ÿ' => 'y', High, [Diaeresis]),
    confusable!('ŷ' => 'y', High, [Circumflex]),
    confusable!('ỳ' => 'y', High, [Grave]),
    confusable!('ỵ' => 'y', High, [DotBelow]),
    confusable!('γ' => 'y', Medium, [ShapeVariant]), // Greek gamma
    // --- z ---
    confusable!('ź' => 'z', High, [Acute]),
    confusable!('ż' => 'z', High, [DotAbove]),
    confusable!('ž' => 'z', High, [Caron]),
    confusable!('ẑ' => 'z', High, [Circumflex]),
    confusable!('ẓ' => 'z', High, [DotBelow]),
    confusable!('ƶ' => 'z', Medium, [Stroke]),
    // --- Low tier: loose pixel-overlap matches (UC-SimList tail) ---
    confusable!('ᴀ' => 'a', Low, [ShapeVariant, Minified]),
    confusable!('ᵃ' => 'a', Low, [ShapeVariant, Minified]),
    confusable!('ₐ' => 'a', Low, [ShapeVariant, Minified]),
    confusable!('ʙ' => 'b', Low, [ShapeVariant, Minified]),
    confusable!('ᵇ' => 'b', Low, [ShapeVariant, Minified]),
    confusable!('ƃ' => 'b', Low, [ShapeVariant, Minified]),
    confusable!('ᴄ' => 'c', Low, [ShapeVariant, Minified]),
    confusable!('ᶜ' => 'c', Low, [ShapeVariant, Minified]),
    confusable!('ȼ' => 'c', Low, [ShapeVariant, Minified]),
    confusable!('ᴅ' => 'd', Low, [ShapeVariant, Minified]),
    confusable!('ᵈ' => 'd', Low, [ShapeVariant, Minified]),
    confusable!('ɗ' => 'd', Low, [ShapeVariant, Minified]),
    confusable!('ᴇ' => 'e', Low, [ShapeVariant, Minified]),
    confusable!('ᵉ' => 'e', Low, [ShapeVariant, Minified]),
    confusable!('ₑ' => 'e', Low, [ShapeVariant, Minified]),
    confusable!('ɇ' => 'e', Low, [ShapeVariant, Minified]),
    confusable!('ꜰ' => 'f', Low, [ShapeVariant, Minified]),
    confusable!('ᶠ' => 'f', Low, [ShapeVariant, Minified]),
    confusable!('ſ' => 'f', Low, [ShapeVariant, Minified]),
    confusable!('ɢ' => 'g', Low, [ShapeVariant, Minified]),
    confusable!('ᵍ' => 'g', Low, [ShapeVariant, Minified]),
    confusable!('ǥ' => 'g', Low, [ShapeVariant, Minified]),
    confusable!('ʜ' => 'h', Low, [ShapeVariant, Minified]),
    confusable!('ʰ' => 'h', Low, [ShapeVariant, Minified]),
    confusable!('ₕ' => 'h', Low, [ShapeVariant, Minified]),
    confusable!('ɪ' => 'i', Low, [ShapeVariant, Minified]),
    confusable!('ⁱ' => 'i', Low, [ShapeVariant, Minified]),
    confusable!('ᵢ' => 'i', Low, [ShapeVariant, Minified]),
    confusable!('ᴊ' => 'j', Low, [ShapeVariant, Minified]),
    confusable!('ʲ' => 'j', Low, [ShapeVariant, Minified]),
    confusable!('ɉ' => 'j', Low, [ShapeVariant, Minified]),
    confusable!('ᴋ' => 'k', Low, [ShapeVariant, Minified]),
    confusable!('ᵏ' => 'k', Low, [ShapeVariant, Minified]),
    confusable!('ₖ' => 'k', Low, [ShapeVariant, Minified]),
    confusable!('ʟ' => 'l', Low, [ShapeVariant, Minified]),
    confusable!('ˡ' => 'l', Low, [ShapeVariant, Minified]),
    confusable!('ₗ' => 'l', Low, [ShapeVariant, Minified]),
    confusable!('ᴍ' => 'm', Low, [ShapeVariant, Minified]),
    confusable!('ᵐ' => 'm', Low, [ShapeVariant, Minified]),
    confusable!('ₘ' => 'm', Low, [ShapeVariant, Minified]),
    confusable!('ɴ' => 'n', Low, [ShapeVariant, Minified]),
    confusable!('ⁿ' => 'n', Low, [ShapeVariant, Minified]),
    confusable!('ₙ' => 'n', Low, [ShapeVariant, Minified]),
    confusable!('ᴏ' => 'o', Low, [ShapeVariant, Minified]),
    confusable!('ᵒ' => 'o', Low, [ShapeVariant, Minified]),
    confusable!('ₒ' => 'o', Low, [ShapeVariant, Minified]),
    confusable!('ᴘ' => 'p', Low, [ShapeVariant, Minified]),
    confusable!('ᵖ' => 'p', Low, [ShapeVariant, Minified]),
    confusable!('ₚ' => 'p', Low, [ShapeVariant, Minified]),
    confusable!('ʠ' => 'q', Low, [ShapeVariant, Minified]),
    confusable!('ᑫ' => 'q', Low, [ShapeVariant, Minified]),
    confusable!('ʀ' => 'r', Low, [ShapeVariant, Minified]),
    confusable!('ʳ' => 'r', Low, [ShapeVariant, Minified]),
    confusable!('ᵣ' => 'r', Low, [ShapeVariant, Minified]),
    confusable!('ꜱ' => 's', Low, [ShapeVariant, Minified]),
    confusable!('ˢ' => 's', Low, [ShapeVariant, Minified]),
    confusable!('ₛ' => 's', Low, [ShapeVariant, Minified]),
    confusable!('ᴛ' => 't', Low, [ShapeVariant, Minified]),
    confusable!('ᵗ' => 't', Low, [ShapeVariant, Minified]),
    confusable!('ₜ' => 't', Low, [ShapeVariant, Minified]),
    confusable!('ᴜ' => 'u', Low, [ShapeVariant, Minified]),
    confusable!('ᵘ' => 'u', Low, [ShapeVariant, Minified]),
    confusable!('ᵤ' => 'u', Low, [ShapeVariant, Minified]),
    confusable!('ᴠ' => 'v', Low, [ShapeVariant, Minified]),
    confusable!('ᵛ' => 'v', Low, [ShapeVariant, Minified]),
    confusable!('ᵥ' => 'v', Low, [ShapeVariant, Minified]),
    confusable!('ᴡ' => 'w', Low, [ShapeVariant, Minified]),
    confusable!('ʷ' => 'w', Low, [ShapeVariant, Minified]),
    confusable!('ˣ' => 'x', Low, [ShapeVariant, Minified]),
    confusable!('ₓ' => 'x', Low, [ShapeVariant, Minified]),
    confusable!('ᶍ' => 'x', Low, [ShapeVariant, Minified]),
    confusable!('ʏ' => 'y', Low, [ShapeVariant, Minified]),
    confusable!('ʸ' => 'y', Low, [ShapeVariant, Minified]),
    confusable!('ɏ' => 'y', Low, [ShapeVariant, Minified]),
    confusable!('ᴢ' => 'z', Low, [ShapeVariant, Minified]),
    confusable!('ᶻ' => 'z', Low, [ShapeVariant, Minified]),
    confusable!('ɀ' => 'z', Low, [ShapeVariant, Minified]),
];

fn by_char() -> &'static HashMap<char, &'static Confusable> {
    static INDEX: OnceLock<HashMap<char, &'static Confusable>> = OnceLock::new();
    INDEX.get_or_init(|| CONFUSABLES.iter().map(|c| (c.ch, c)).collect())
}

/// Target → its homoglyphs, each list sorted once here. The sort is
/// stable, so equal fidelities keep table order.
fn by_target() -> &'static HashMap<char, Vec<&'static Confusable>> {
    static INDEX: OnceLock<HashMap<char, Vec<&'static Confusable>>> = OnceLock::new();
    INDEX.get_or_init(|| {
        let mut map: HashMap<char, Vec<&'static Confusable>> = HashMap::new();
        for c in CONFUSABLES {
            map.entry(c.target).or_default().push(c);
        }
        for glyphs in map.values_mut() {
            glyphs.sort_by_key(|c| c.fidelity);
        }
        map
    })
}

/// Looks up the confusable entry for a Unicode character, if it is a known
/// homoglyph of an ASCII character.
///
/// # Examples
///
/// ```
/// let entry = idnre_unicode::confusables::lookup('а').unwrap();
/// assert_eq!(entry.target, 'a');
/// ```
pub fn lookup(ch: char) -> Option<&'static Confusable> {
    by_char().get(&ch).copied()
}

/// All known homoglyphs of an ASCII character, sorted identical-first.
///
/// Returns an empty slice for characters with no known homoglyphs.
///
/// # Examples
///
/// ```
/// let glyphs = idnre_unicode::homoglyphs_of('o');
/// assert!(glyphs.len() > 10);
/// assert_eq!(glyphs[0].fidelity, idnre_unicode::Fidelity::Identical);
/// ```
pub fn homoglyphs_of(target: char) -> &'static [&'static Confusable] {
    by_target().get(&target).map_or(&[], Vec::as_slice)
}

/// Folds a single character back to the ASCII character it imitates, or
/// returns it unchanged if it is not a known confusable.
pub fn skeleton_char(ch: char) -> char {
    // Every table source is non-ASCII (`table_is_well_formed` pins this),
    // so ASCII characters skip the hash lookup entirely.
    if ch.is_ascii() {
        return ch;
    }
    lookup(ch).map(|c| c.target).unwrap_or(ch)
}

/// Folds every confusable in `text` back to its ASCII target — the
/// "skeleton" used by fast pre-filters and the semantic detector.
///
/// # Examples
///
/// ```
/// assert_eq!(idnre_unicode::skeleton("fаcebook"), "facebook");
/// assert_eq!(idnre_unicode::skeleton("gõõgle"), "google");
/// ```
pub fn skeleton(text: &str) -> String {
    if text.is_ascii() {
        return text.to_string();
    }
    text.chars().map(skeleton_char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{script_of, Script};

    #[test]
    fn table_is_well_formed() {
        for c in CONFUSABLES {
            assert!(c.target.is_ascii_lowercase(), "{:?} target not ascii", c.ch);
            assert!(!c.ch.is_ascii(), "{:?} must be non-ascii", c.ch);
            if c.fidelity == Fidelity::Identical {
                assert!(
                    c.marks.is_empty(),
                    "{:?} identical entries carry no marks",
                    c.ch
                );
            }
        }
    }

    #[test]
    fn no_duplicate_characters() {
        let mut seen = std::collections::HashSet::new();
        for c in CONFUSABLES {
            assert!(seen.insert(c.ch), "duplicate entry {:?}", c.ch);
        }
    }

    #[test]
    fn every_ascii_letter_has_a_homoglyph() {
        for target in 'a'..='z' {
            assert!(
                !homoglyphs_of(target).is_empty(),
                "no homoglyph for {target:?}"
            );
        }
    }

    #[test]
    fn identical_homoglyphs_sort_first() {
        let glyphs = homoglyphs_of('a');
        assert_eq!(glyphs[0].fidelity, Fidelity::Identical);
    }

    #[test]
    fn paper_apple_spoof_skeleton() {
        // аррӏе (Cyrillic) → apple
        assert_eq!(skeleton("аррӏе"), "apple");
    }

    #[test]
    fn paper_facebook_variants_skeleton() {
        for spoof in [
            "faċebook",
            "fácebook",
            "fâcêbook",
            "facebóók",
            "fạcẹbook",
            "fącebook",
        ] {
            assert_eq!(skeleton(spoof), "facebook", "{spoof}");
        }
    }

    #[test]
    fn skeleton_preserves_non_confusables() {
        assert_eq!(skeleton("example123"), "example123");
        assert_eq!(skeleton("中国"), "中国");
    }

    #[test]
    fn cross_script_coverage() {
        // The table must include Cyrillic, Greek and extended-Latin sources,
        // since the paper's attacks span Vietnamese, Arabic-diacritic Latin,
        // Icelandic, Yoruba and Cyrillic.
        let scripts: std::collections::HashSet<Script> =
            CONFUSABLES.iter().map(|c| script_of(c.ch)).collect();
        assert!(scripts.contains(&Script::Cyrillic));
        assert!(scripts.contains(&Script::Greek));
        assert!(scripts.contains(&Script::Latin));
    }

    #[test]
    fn lookup_and_reverse_agree() {
        for c in CONFUSABLES {
            let found = lookup(c.ch).unwrap();
            assert_eq!(found.target, c.target);
            assert!(homoglyphs_of(c.target).iter().any(|g| g.ch == c.ch));
        }
    }
}
