//! Deterministic string interning and the struct-of-arrays corpus layout.
//!
//! The analysis passes and the datagen dedup ladders used to fault whole
//! `DomainRegistration` structs (a dozen `String`s each) through cache to
//! read one field, and cloned every candidate domain just to probe a
//! `HashSet<String>`. This crate provides the two representation
//! primitives that remove that churn:
//!
//! - [`Interner`]: an append-only string arena with an FNV-keyed
//!   open-addressing index. Interning a string copies its bytes at most
//!   once; every later probe is a hash + byte-compare against the arena,
//!   no allocation. Symbols are assigned in **insertion order**, so any
//!   two walks that feed the same strings in the same order produce the
//!   same [`Symbol`] ids — interning is as deterministic as the corpus
//!   order itself, regardless of thread count (the generator applies
//!   shards in corpus order; workers never intern).
//! - [`CorpusColumns`]: a struct-of-arrays projection of the registered
//!   IDN corpus — label symbols, TLD ids, classifier language ids, the
//!   per-source blacklist bits and each distinct label's confusable
//!   skeleton — so each analysis pass touches only the columns it reads.
//!   A record costs a few bytes per pass instead of a struct walk.
//!
//! Neither structure owns any randomness or ordering decisions: both are
//! pure functions of the record stream they are fed, which is why report
//! bytes and dataset fingerprints survive the representation change
//! (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;

/// Handle to an interned string: the string's insertion index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The insertion index this symbol denotes.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from an index returned by [`Symbol::index`].
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Symbol(index as u32)
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a hash of `bytes` — the same function keying the interner's
/// open-addressing index, exported so bucket keys derived from interned
/// strings use one hash family everywhere.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = FnvHasher::default();
    std::hash::Hasher::write(&mut hasher, bytes);
    std::hash::Hasher::finish(&hasher)
}

/// [`fnv1a`] as a streaming [`std::hash::Hasher`], for std maps keyed by
/// short strings: hashing a `str` through it is `fnv1a` over its bytes
/// followed by the `0xff` terminator `str`'s `Hash` writes.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl std::hash::Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FnvHasher`]s: `HashMap<K, V, FnvBuildHasher>`.
pub type FnvBuildHasher = std::hash::BuildHasherDefault<FnvHasher>;

/// Append-only string arena with an FNV-keyed open-addressing index.
///
/// # Examples
///
/// ```
/// use idnre_arena::Interner;
/// let mut interner = Interner::new();
/// let (a, fresh) = interner.intern_full("xn--fiq228c.com");
/// assert!(fresh);
/// let (b, fresh) = interner.intern_full("xn--fiq228c.com");
/// assert!(!fresh);
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "xn--fiq228c.com");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Concatenated bytes of every interned string.
    arena: String,
    /// Per-symbol `(start, end)` byte offsets into the arena.
    spans: Vec<(u32, u32)>,
    /// Open-addressing buckets holding `symbol index + 1` (0 = empty).
    buckets: Vec<u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// An empty interner sized for roughly `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        Interner {
            arena: String::new(),
            spans: Vec::with_capacity(n),
            buckets: vec![0; (n * 2).next_power_of_two().max(16)],
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The string behind `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` did not come from this interner.
    #[inline]
    pub fn resolve(&self, symbol: Symbol) -> &str {
        let (start, end) = self.spans[symbol.index()];
        &self.arena[start as usize..end as usize]
    }

    /// Looks up `s` without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut slot = (fnv1a(s.as_bytes()) as usize) & mask;
        loop {
            match self.buckets[slot] {
                0 => return None,
                entry => {
                    let sym = Symbol(entry - 1);
                    if self.resolve(sym) == s {
                        return Some(sym);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `s`, copying its bytes only if it is new.
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.intern_full(s).0
    }

    /// Interns `s`; the flag is `true` iff the string was not present.
    ///
    /// This is the dedup-ladder probe: a duplicate candidate costs one
    /// hash and one byte-compare, never a clone.
    pub fn intern_full(&mut self, s: &str) -> (Symbol, bool) {
        if self.buckets.len() < (self.spans.len() + 1) * 2 {
            self.grow();
        }
        let mask = self.buckets.len() - 1;
        let mut slot = (fnv1a(s.as_bytes()) as usize) & mask;
        loop {
            match self.buckets[slot] {
                0 => break,
                entry => {
                    let sym = Symbol(entry - 1);
                    if self.resolve(sym) == s {
                        return (sym, false);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
        let start = self.arena.len() as u32;
        self.arena.push_str(s);
        let end = self.arena.len() as u32;
        let sym = Symbol(self.spans.len() as u32);
        self.spans.push((start, end));
        self.buckets[slot] = sym.0 + 1;
        (sym, true)
    }

    /// Iterates the interned strings in insertion (symbol) order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.spans
            .iter()
            .map(|&(start, end)| &self.arena[start as usize..end as usize])
    }

    fn grow(&mut self) {
        let new_len = (self.buckets.len() * 2).max(16);
        let mut buckets = vec![0u32; new_len];
        let mask = new_len - 1;
        for (i, &(start, end)) in self.spans.iter().enumerate() {
            let s = &self.arena[start as usize..end as usize];
            let mut slot = (fnv1a(s.as_bytes()) as usize) & mask;
            while buckets[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            buckets[slot] = i as u32 + 1;
        }
        self.buckets = buckets;
    }
}

/// A growable bit vector (one bit per corpus record).
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty bit set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// The bit at `index` (`false` past the end).
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        index < self.len && (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Overwrites the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` was never pushed — epoch overlays may flip bits
    /// of existing rows but never allocate rows implicitly.
    #[inline]
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(index < self.len, "BitSet::set past the end ({index})");
        let mask = 1u64 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Number of bits pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits were pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One corpus label occurrence, packed for bucket storage: the interned
/// SLD symbol plus the TLD id. Six bytes instead of a domain string.
///
/// Ordering is `(sld, tld)` — symbol insertion order, then TLD id — which
/// is the deterministic "symbol order" the portfolio union-find keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelRef {
    /// The SLD label symbol (from the corpus label interner).
    pub sld: Symbol,
    /// The TLD id (index into the corpus TLD interner).
    pub tld: u16,
}

/// Insertion-ordered multimap from a `u64` bucket key (a skeleton hash)
/// to the [`LabelRef`]s that hashed there.
///
/// The LSH pass folds one of these per shard and merges them pairwise in
/// shard order. Merge semantics — keys keep the order of their first
/// occurrence across the concatenated shard walk, and each key's entry
/// vector is the concatenation of the partials' vectors — make the merge
/// associative (though not commutative), so the fold satisfies the
/// `check_associative` contract and the merged index is byte-for-byte the
/// one a sequential walk would build, regardless of shard boundaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketIndex {
    /// Bucket keys in first-occurrence order.
    keys: Vec<u64>,
    /// Parallel to `keys`: the entries that hashed to each key.
    entries: Vec<Vec<LabelRef>>,
    /// Key → position in `keys`.
    index: std::collections::HashMap<u64, usize>,
}

impl BucketIndex {
    /// An empty index.
    pub fn new() -> Self {
        BucketIndex::default()
    }

    /// Number of distinct bucket keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index holds no buckets.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total entries across all buckets.
    pub fn entry_count(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// Number of buckets holding more than one entry (the only buckets
    /// the pair-mining pass re-scans).
    pub fn non_singleton_count(&self) -> usize {
        self.entries.iter().filter(|e| e.len() > 1).count()
    }

    /// Appends `entry` under `key`, creating the bucket on first use.
    #[inline]
    pub fn insert(&mut self, key: u64, entry: LabelRef) {
        match self.index.get(&key) {
            Some(&pos) => self.entries[pos].push(entry),
            None => {
                self.index.insert(key, self.keys.len());
                self.keys.push(key);
                self.entries.push(vec![entry]);
            }
        }
    }

    /// The entries under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&[LabelRef]> {
        self.index
            .get(&key)
            .map(|&pos| self.entries[pos].as_slice())
    }

    /// Iterates `(key, entries)` in key first-occurrence order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[LabelRef])> {
        self.keys
            .iter()
            .zip(self.entries.iter())
            .map(|(&k, e)| (k, e.as_slice()))
    }

    /// Folds `later` into `self`: `later`'s keys arrive after `self`'s
    /// (new keys in `later`'s order), and shared keys concatenate their
    /// entry vectors. This is the associative shard-merge.
    pub fn merge(&mut self, later: BucketIndex) {
        for (key, mut entries) in later.keys.into_iter().zip(later.entries) {
            match self.index.get(&key) {
                Some(&pos) => self.entries[pos].append(&mut entries),
                None => {
                    self.index.insert(key, self.keys.len());
                    self.keys.push(key);
                    self.entries.push(entries);
                }
            }
        }
    }
}

/// Struct-of-arrays projection of the registered IDN corpus.
///
/// One row per IDN registration, in corpus order, appended by
/// [`CorpusColumns::push_row`]. The label and TLD strings live once in
/// their interners, and each distinct label's skeleton once next to them;
/// per-record columns hold only fixed-width ids and bits, so a pass
/// touching one aspect of the corpus streams through a dense array
/// instead of pointer-chasing records.
#[derive(Debug, Clone, Default)]
pub struct CorpusColumns {
    /// Distinct Unicode SLD labels, interned in first-occurrence order.
    labels: Interner,
    /// Per distinct label, in symbol order: the span of its confusable
    /// skeleton in `skeleton_text`; `None` for an ASCII label.
    skeletons: Vec<Option<(u32, u32)>>,
    /// The non-ASCII labels' skeletons, concatenated.
    skeleton_text: String,
    /// Distinct TLD names, interned in first-occurrence order.
    tlds: Interner,
    /// Per-record SLD label symbol.
    sld: Vec<Symbol>,
    /// Per-record TLD id (index into `tlds`).
    tld: Vec<u16>,
    /// Per-record classifier language id.
    lang: Vec<u8>,
    /// Per-record "registration carries a malicious flag" bit.
    malicious: BitSet,
    /// Per-record "ground-truth language is known" bit (the organic,
    /// non-injected population).
    organic: BitSet,
    /// Per-record VirusTotal blacklist bit.
    vt: BitSet,
    /// Per-record Qihoo-360 blacklist bit.
    q: BitSet,
    /// Per-record Baidu blacklist bit.
    b: BitSet,
}

impl CorpusColumns {
    /// Number of rows (IDN registrations).
    pub fn len(&self) -> usize {
        self.sld.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.sld.is_empty()
    }

    /// The interned distinct SLD labels.
    pub fn labels(&self) -> &Interner {
        &self.labels
    }

    /// The interned distinct TLD names.
    pub fn tlds(&self) -> &Interner {
        &self.tlds
    }

    /// Record `i`'s SLD label symbol.
    #[inline]
    pub fn sld_symbol(&self, i: usize) -> Symbol {
        self.sld[i]
    }

    /// Record `i`'s TLD id.
    #[inline]
    pub fn tld_id(&self, i: usize) -> u16 {
        self.tld[i]
    }

    /// The TLD name behind an id from [`CorpusColumns::tld_id`].
    #[inline]
    pub fn tld_name(&self, id: u16) -> &str {
        self.tlds.resolve(Symbol(u32::from(id)))
    }

    /// The confusable skeleton of label `sym`; `None` when the label is
    /// ASCII (nothing to spoof).
    #[inline]
    pub fn label_skeleton(&self, sym: Symbol) -> Option<&str> {
        self.skeletons[sym.index()]
            .map(|(start, end)| &self.skeleton_text[start as usize..end as usize])
    }

    /// Record `i`'s classifier language id.
    #[inline]
    pub fn lang_id(&self, i: usize) -> u8 {
        self.lang[i]
    }

    /// Whether record `i` carries a malicious flag.
    #[inline]
    pub fn is_malicious(&self, i: usize) -> bool {
        self.malicious.get(i)
    }

    /// Whether record `i` is organic (ground-truth language known).
    #[inline]
    pub fn is_organic(&self, i: usize) -> bool {
        self.organic.get(i)
    }

    /// Record `i`'s (VirusTotal, Qihoo-360, Baidu) blacklist bits.
    #[inline]
    pub fn blacklist_bits(&self, i: usize) -> (bool, bool, bool) {
        (self.vt.get(i), self.q.get(i), self.b.get(i))
    }

    /// Appends one row, in corpus order: the one interning loop of every
    /// column build, the generator's traversal and epoch growth alike.
    /// Interners grow append-only, so every symbol and TLD id handed out
    /// before the append still resolves to the same string (the
    /// high-water-mark rule; see [`CorpusColumns::mark`]). The row's
    /// skeleton is stored when its label is first interned.
    pub fn push_row(&mut self, row: ColumnRow<'_>) {
        let (sym, fresh) = self.labels.intern_full(row.sld);
        if fresh {
            let span = row.skeleton.map(|skeleton| {
                let start = self.skeleton_text.len() as u32;
                self.skeleton_text.push_str(&skeleton);
                (start, self.skeleton_text.len() as u32)
            });
            self.skeletons.push(span);
        }
        self.sld.push(sym);
        let tld_sym = self.tlds.intern(row.tld);
        self.tld.push(tld_sym.index() as u16);
        self.lang.push(row.lang);
        self.malicious.push(row.malicious);
        self.organic.push(row.organic);
        self.vt.push(row.vt);
        self.q.push(row.q);
        self.b.push(row.b);
    }

    /// Overwrites row `i`'s malicious bit — how a blacklist listing that
    /// arrives epochs after the registration (blacklist lag) lands in the
    /// columns without disturbing any other row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an existing row.
    pub fn set_malicious(&mut self, i: usize, bit: bool) {
        self.malicious.set(i, bit);
    }

    /// The current high-water mark: row and interner lengths at this
    /// instant. Epoch growth is append-only, so for any two marks taken
    /// before and after an epoch, everything below the earlier mark —
    /// every row, symbol and TLD id — is unchanged; resident shard
    /// partials built against the earlier state therefore stay valid.
    pub fn mark(&self) -> ColumnsMark {
        ColumnsMark {
            rows: self.sld.len(),
            labels: self.labels.len(),
            tlds: self.tlds.len(),
        }
    }
}

/// A per-epoch high-water mark of [`CorpusColumns`]: how many rows,
/// distinct labels and distinct TLDs existed when it was taken. Compare
/// marks across epochs to assert append-only growth (`later` must
/// dominate `earlier` component-wise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnsMark {
    /// Rows (IDN registrations) at mark time.
    pub rows: usize,
    /// Distinct interned SLD labels at mark time.
    pub labels: usize,
    /// Distinct interned TLD names at mark time.
    pub tlds: usize,
}

impl ColumnsMark {
    /// Whether `self` (an earlier mark) is dominated by `later` — the
    /// append-only invariant between two epochs.
    pub fn grew_monotonically_to(&self, later: &ColumnsMark) -> bool {
        self.rows <= later.rows && self.labels <= later.labels && self.tlds <= later.tlds
    }
}

/// One IDN record's column values before interning: its Unicode SLD
/// label and the two facts derived from it, its TLD, and the five
/// per-record bits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnRow<'a> {
    /// The Unicode SLD label (the registered name up to its first dot).
    pub sld: &'a str,
    /// The TLD name.
    pub tld: &'a str,
    /// The label's classifier language id.
    pub lang: u8,
    /// The label's confusable skeleton; `None` when the label is ASCII.
    pub skeleton: Option<Cow<'a, str>>,
    /// The registration carries a malicious flag.
    pub malicious: bool,
    /// The ground-truth language is known (the organic population).
    pub organic: bool,
    /// Listed by VirusTotal.
    pub vt: bool,
    /// Listed by Qihoo 360.
    pub q: bool,
    /// Listed by Baidu.
    pub b: bool,
}

/// An owned run of [`ColumnRow`]s, carried from the worker that derived
/// them to the sequential interning loop. Every row's label, TLD and
/// skeleton share one text buffer, so a run costs two allocations however
/// many rows it holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnRows {
    text: String,
    rows: Vec<PackedRow>,
}

/// One row of a [`ColumnRows`] run: the ends of its label, TLD and
/// skeleton (`None` for an ASCII label) in the run's text, its language
/// id, and its malicious, organic, vt, q and b bits.
type PackedRow = (usize, usize, Option<usize>, u8, [bool; 5]);

impl ColumnRows {
    /// Copies `row` onto the end of the run.
    pub fn push(&mut self, row: ColumnRow<'_>) {
        self.text.push_str(row.sld);
        let sld_end = self.text.len();
        self.text.push_str(row.tld);
        let tld_end = self.text.len();
        let skeleton_end = row.skeleton.map(|skeleton| {
            self.text.push_str(&skeleton);
            self.text.len()
        });
        let bits = [row.malicious, row.organic, row.vt, row.q, row.b];
        self.rows
            .push((sld_end, tld_end, skeleton_end, row.lang, bits));
    }

    /// The rows, in push order.
    pub fn iter(&self) -> impl Iterator<Item = ColumnRow<'_>> {
        let mut start = 0usize;
        self.rows
            .iter()
            .map(move |&(sld_end, tld_end, skeleton_end, lang, bits)| {
                let [malicious, organic, vt, q, b] = bits;
                let row = ColumnRow {
                    sld: &self.text[start..sld_end],
                    tld: &self.text[sld_end..tld_end],
                    lang,
                    skeleton: skeleton_end.map(|end| Cow::Borrowed(&self.text[tld_end..end])),
                    malicious,
                    organic,
                    vt,
                    q,
                    b,
                };
                start = skeleton_end.unwrap_or(tld_end);
                row
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_insertion_ordered_and_stable() {
        let mut interner = Interner::new();
        let a = interner.intern("alpha");
        let b = interner.intern("beta");
        let a2 = interner.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(interner.resolve(a), "alpha");
        assert_eq!(interner.resolve(b), "beta");
        assert_eq!(interner.len(), 2);
        let collected: Vec<&str> = interner.iter().collect();
        assert_eq!(collected, vec!["alpha", "beta"]);
    }

    #[test]
    fn get_never_interns() {
        let mut interner = Interner::new();
        assert_eq!(interner.get("missing"), None);
        let sym = interner.intern("present");
        assert_eq!(interner.get("present"), Some(sym));
        assert_eq!(interner.get("missing"), None);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn fnv_hasher_streams_fnv1a() {
        use std::hash::{BuildHasher, Hasher};
        let mut hasher = FnvHasher::default();
        hasher.write(b"xn--");
        hasher.write(b"fiqs8s");
        assert_eq!(hasher.finish(), fnv1a(b"xn--fiqs8s"));
        // The FNV-1a 64 reference vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            FnvBuildHasher::default().hash_one("a.com"),
            fnv1a(b"a.com\xff")
        );
    }

    #[test]
    fn intern_full_reports_freshness() {
        let mut interner = Interner::new();
        assert!(interner.intern_full("x").1);
        assert!(!interner.intern_full("x").1);
    }

    #[test]
    fn survives_growth_past_initial_buckets() {
        let mut interner = Interner::new();
        let syms: Vec<Symbol> = (0..10_000)
            .map(|i| interner.intern(&format!("s{i}")))
            .collect();
        for (i, sym) in syms.iter().enumerate() {
            assert_eq!(interner.resolve(*sym), format!("s{i}"));
            assert_eq!(interner.get(&format!("s{i}")), Some(*sym));
        }
        assert_eq!(interner.len(), 10_000);
    }

    #[test]
    fn empty_string_and_unicode_intern() {
        let mut interner = Interner::new();
        let empty = interner.intern("");
        let han = interner.intern("彩票");
        assert_eq!(interner.resolve(empty), "");
        assert_eq!(interner.resolve(han), "彩票");
        assert_eq!(interner.get(""), Some(empty));
    }

    fn lref(sld: u32, tld: u16) -> LabelRef {
        LabelRef {
            sld: Symbol::from_index(sld as usize),
            tld,
        }
    }

    #[test]
    fn bucket_index_keeps_first_occurrence_order() {
        let mut index = BucketIndex::new();
        index.insert(7, lref(0, 0));
        index.insert(3, lref(1, 0));
        index.insert(7, lref(2, 1));
        assert_eq!(index.len(), 2);
        assert_eq!(index.entry_count(), 3);
        assert_eq!(index.non_singleton_count(), 1);
        assert_eq!(index.get(7), Some(&[lref(0, 0), lref(2, 1)][..]));
        assert_eq!(index.get(3), Some(&[lref(1, 0)][..]));
        assert_eq!(index.get(99), None);
        let keys: Vec<u64> = index.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![7, 3]);
    }

    #[test]
    fn bucket_index_merge_is_associative_not_commutative() {
        let build = |rows: &[(u64, LabelRef)]| {
            let mut index = BucketIndex::new();
            for &(k, e) in rows {
                index.insert(k, e);
            }
            index
        };
        let a = build(&[(1, lref(0, 0)), (2, lref(1, 0))]);
        let b = build(&[(2, lref(2, 0)), (3, lref(3, 0))]);
        let c = build(&[(1, lref(4, 1)), (4, lref(5, 0))]);

        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        let mut bc = b.clone();
        bc.merge(c.clone());
        let mut right = a.clone();
        right.merge(bc);
        assert_eq!(left, right, "merge must be associative");

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_ne!(ab, ba, "merge is order-sensitive by design");
    }

    #[test]
    fn bucket_index_merge_matches_sequential_insertion() {
        let rows: Vec<(u64, LabelRef)> = (0..100)
            .map(|i| ((i % 7) as u64, lref(i, (i % 3) as u16)))
            .collect();
        let mut sequential = BucketIndex::new();
        for &(k, e) in &rows {
            sequential.insert(k, e);
        }
        for chunk_size in [1, 3, 32, 97] {
            let mut merged = BucketIndex::new();
            for chunk in rows.chunks(chunk_size) {
                let mut partial = BucketIndex::new();
                for &(k, e) in chunk {
                    partial.insert(k, e);
                }
                merged.merge(partial);
            }
            assert_eq!(merged, sequential, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn bitset_round_trips() {
        let mut bits = BitSet::new();
        for i in 0..200 {
            bits.push(i % 3 == 0);
        }
        assert_eq!(bits.len(), 200);
        for i in 0..200 {
            assert_eq!(bits.get(i), i % 3 == 0, "bit {i}");
        }
        assert!(!bits.get(5000));
        assert_eq!(bits.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    fn row<'a>(sld: &'a str, tld: &'a str, lang: u8, skeleton: Option<&'a str>) -> ColumnRow<'a> {
        ColumnRow {
            sld,
            tld,
            lang,
            skeleton: skeleton.map(Cow::Borrowed),
            ..ColumnRow::default()
        }
    }

    fn columns_of(rows: Vec<ColumnRow<'_>>) -> CorpusColumns {
        let mut cols = CorpusColumns::default();
        for row in rows {
            cols.push_row(row);
        }
        cols
    }

    #[test]
    fn push_row_keeps_lang_per_row_and_skeleton_per_label() {
        let cols = columns_of(vec![
            ColumnRow {
                organic: true,
                ..row("彩票", "com", 7, Some("彩票"))
            },
            ColumnRow {
                malicious: true,
                organic: true,
                vt: true,
                q: true,
                ..row("news", "net", 1, None)
            },
            ColumnRow {
                b: true,
                ..row("彩票", "com", 7, Some("彩票"))
            },
            row("gооgle", "com", 1, Some("google")),
        ]);
        assert_eq!(cols.len(), 4);
        assert_eq!(cols.labels().len(), 3, "labels deduplicate");
        assert_eq!(cols.tlds().len(), 2);
        assert_eq!(cols.lang_id(0), 7);
        assert_eq!(cols.lang_id(1), 1);
        assert_eq!(cols.lang_id(2), 7);
        assert_eq!(cols.sld_symbol(0), cols.sld_symbol(2));
        assert_eq!(cols.label_skeleton(cols.sld_symbol(0)), Some("彩票"));
        assert_eq!(cols.label_skeleton(cols.sld_symbol(1)), None);
        assert_eq!(cols.label_skeleton(cols.sld_symbol(3)), Some("google"));
        assert_eq!(cols.tld_name(cols.tld_id(1)), "net");
        assert!(cols.is_malicious(1) && !cols.is_malicious(0));
        assert!(cols.is_organic(0) && !cols.is_organic(2));
        assert_eq!(cols.blacklist_bits(1), (true, true, false));
        assert_eq!(cols.blacklist_bits(2), (false, false, true));
    }

    #[test]
    fn bitset_set_overwrites_in_place() {
        let mut bits = BitSet::new();
        for _ in 0..70 {
            bits.push(false);
        }
        bits.set(65, true);
        assert!(bits.get(65));
        bits.set(65, false);
        assert!(!bits.get(65));
        assert_eq!(bits.len(), 70);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn bitset_set_never_allocates_rows() {
        let mut bits = BitSet::new();
        bits.push(false);
        bits.set(1, true);
    }

    #[test]
    fn push_row_grows_append_only_and_keeps_symbols_stable() {
        let mut cols = columns_of(vec![
            row("彩票", "com", 7, Some("彩票")),
            row("news", "net", 7, None),
        ]);
        let before = cols.mark();
        let sym0 = cols.sld_symbol(0);
        // Appending a duplicate label re-uses its symbol and its stored
        // skeleton; a fresh one extends the interner past the mark.
        cols.push_row(ColumnRow {
            malicious: true,
            q: true,
            ..row("彩票", "net", 7, Some("ignored"))
        });
        cols.push_row(row("neu", "org", 3, None));
        let after = cols.mark();
        assert!(before.grew_monotonically_to(&after));
        assert_eq!(after.rows, 4);
        assert_eq!(after.labels, 3, "one fresh label interned");
        assert_eq!(after.tlds, 3);
        assert_eq!(
            cols.sld_symbol(2),
            sym0,
            "duplicate label shares its symbol"
        );
        assert_eq!(cols.label_skeleton(sym0), Some("彩票"));
        assert_eq!(cols.tld_name(cols.tld_id(2)), "net");
        assert_eq!(cols.lang_id(3), 3);
        assert!(cols.is_malicious(2) && !cols.is_malicious(0));
        assert_eq!(cols.blacklist_bits(2), (false, true, false));
        // Everything below the earlier mark is byte-identical.
        assert_eq!(cols.sld_symbol(0), sym0);
        assert_eq!(cols.tld_name(cols.tld_id(1)), "net");
        assert_eq!(cols.lang_id(0), 7);
    }

    #[test]
    fn set_malicious_flips_one_row_only() {
        let mut cols = columns_of(vec![row("标签", "com", 0, Some("标签")); 3]);
        cols.set_malicious(1, true);
        assert!(!cols.is_malicious(0));
        assert!(cols.is_malicious(1));
        assert!(!cols.is_malicious(2));
        cols.set_malicious(1, false);
        assert!(!cols.is_malicious(1));
    }

    #[test]
    fn column_rows_round_trip_every_row() {
        let rows = [
            ColumnRow {
                organic: true,
                vt: true,
                ..row("彩票", "com", 7, Some("彩票"))
            },
            ColumnRow {
                malicious: true,
                b: true,
                ..row("", "公司", 2, None)
            },
            ColumnRow {
                q: true,
                ..row("nеu", "", 0, Some("neu"))
            },
            row("neu", "org", 1, None),
        ];
        let mut run = ColumnRows::default();
        for row in rows.clone() {
            run.push(row);
        }
        assert!(run.iter().eq(rows));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Interning agrees with a reference `HashMap` implementation
            /// on any string sequence: same ids, same resolution.
            #[test]
            fn interner_matches_reference_map(strings in proptest::collection::vec(".{0,12}", 0..200)) {
                let mut interner = Interner::new();
                let mut reference: std::collections::HashMap<String, u32> =
                    std::collections::HashMap::new();
                for s in &strings {
                    let next = reference.len() as u32;
                    let expected = *reference.entry(s.clone()).or_insert(next);
                    let sym = interner.intern(s);
                    prop_assert_eq!(sym.index() as u32, expected);
                    prop_assert_eq!(interner.resolve(sym), s.as_str());
                }
                prop_assert_eq!(interner.len(), reference.len());
            }

            /// Two interners fed the same sequence assign identical symbols
            /// (the determinism the column builder relies on).
            #[test]
            fn interning_is_deterministic(strings in proptest::collection::vec(".{0,8}", 0..100)) {
                let mut a = Interner::new();
                let mut b = Interner::with_capacity(4);
                for s in &strings {
                    prop_assert_eq!(a.intern(s), b.intern(s));
                }
            }
        }
    }
}
