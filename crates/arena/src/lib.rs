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
//!   order itself, regardless of thread count (the builder walks shards
//!   in corpus order; workers never intern).
//! - [`CorpusColumns`]: a struct-of-arrays projection of the registered
//!   IDN corpus — label symbols, TLD ids, classifier language ids and
//!   the per-source blacklist bits — so each analysis pass touches only
//!   the columns it reads. A record costs a few bytes per pass instead
//!   of a struct walk.
//!
//! Neither structure owns any randomness or ordering decisions: both are
//! pure functions of the record stream they are fed, which is why report
//! bytes and dataset fingerprints survive the representation change
//! (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

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
/// One row per IDN registration, in corpus order. The label and TLD
/// strings live once in their interners; per-record columns hold only
/// fixed-width ids and bits, so a pass touching one aspect of the corpus
/// streams through a dense array instead of pointer-chasing records.
#[derive(Debug, Clone, Default)]
pub struct CorpusColumns {
    /// Distinct Unicode SLD labels, interned in first-occurrence order.
    labels: Interner,
    /// Distinct TLD names, interned in first-occurrence order.
    tlds: Interner,
    /// Per-record SLD label symbol.
    sld: Vec<Symbol>,
    /// Per-record TLD id (index into `tlds`).
    tld: Vec<u16>,
    /// Per-record classifier language id (one classification per
    /// *distinct* label, broadcast here).
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

    /// Appends one row after [`ColumnsBuilder::finish`] — the epoch-growth
    /// path. Interners grow append-only, so every symbol and TLD id handed
    /// out before the append still resolves to the same string (the
    /// high-water-mark rule; see [`CorpusColumns::mark`]). `lang_of`
    /// supplies the classifier id for the row's label; it is a pure
    /// function of the label string, so re-invoking it per appended row
    /// broadcasts exactly the ids a batch [`ColumnsBuilder::finish`] would.
    pub fn push_row(&mut self, row: ColumnRow<'_>, lang_of: impl FnOnce(&str) -> u8) {
        self.append(row);
        self.lang.push(lang_of(row.sld));
    }

    /// Interns `row`'s label and TLD and pushes every column but the
    /// language id.
    fn append(&mut self, row: ColumnRow<'_>) {
        self.sld.push(self.labels.intern(row.sld));
        let tld_sym = self.tlds.intern(row.tld);
        self.tld.push(tld_sym.index() as u16);
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
/// label, its TLD, and the five per-record bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnRow<'a> {
    /// The Unicode SLD label (the registered name up to its first dot).
    pub sld: &'a str,
    /// The TLD name.
    pub tld: &'a str,
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
/// them to the sequential interning loop. Every row's label and TLD share
/// one text buffer, so a run costs two allocations however many rows it
/// holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnRows {
    text: String,
    /// Per row: end of its label in `text`, end of its TLD, and its
    /// malicious, organic, vt, q and b bits.
    rows: Vec<(usize, usize, [bool; 5])>,
}

impl ColumnRows {
    /// Copies `row` onto the end of the run.
    pub fn push(&mut self, row: ColumnRow<'_>) {
        self.text.push_str(row.sld);
        let sld_end = self.text.len();
        self.text.push_str(row.tld);
        let bits = [row.malicious, row.organic, row.vt, row.q, row.b];
        self.rows.push((sld_end, self.text.len(), bits));
    }

    /// The rows, in push order.
    pub fn iter(&self) -> impl Iterator<Item = ColumnRow<'_>> {
        let mut start = 0usize;
        self.rows.iter().map(move |&(sld_end, tld_end, bits)| {
            let [malicious, organic, vt, q, b] = bits;
            let row = ColumnRow {
                sld: &self.text[start..sld_end],
                tld: &self.text[sld_end..tld_end],
                malicious,
                organic,
                vt,
                q,
                b,
            };
            start = tld_end;
            row
        })
    }
}

/// Row-at-a-time builder for [`CorpusColumns`].
///
/// Rows must be pushed in corpus order (the caller walks shards
/// sequentially); symbol ids then depend only on the corpus, never on
/// scheduling. The language column is filled by [`ColumnsBuilder::finish`]
/// from one classification per distinct label — the caller supplies the
/// classifier (and may parallelize it), keeping this crate dependency-free.
#[derive(Debug, Default)]
pub struct ColumnsBuilder {
    cols: CorpusColumns,
}

impl ColumnsBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ColumnsBuilder::default()
    }

    /// Appends one record's row: the one interning loop every column
    /// build runs, sequentially and in corpus order.
    pub fn push(&mut self, row: ColumnRow<'_>) {
        self.cols.append(row);
    }

    /// Finalizes the columns. `classify` receives the distinct labels (in
    /// symbol order) and returns one language id per label; the per-record
    /// language column broadcasts those ids.
    ///
    /// # Panics
    ///
    /// Panics if `classify` returns the wrong number of ids.
    pub fn finish(mut self, classify: impl FnOnce(&Interner) -> Vec<u8>) -> CorpusColumns {
        let per_label = classify(&self.cols.labels);
        assert_eq!(
            per_label.len(),
            self.cols.labels.len(),
            "one language id per distinct label"
        );
        self.cols.lang = self
            .cols
            .sld
            .iter()
            .map(|sym| per_label[sym.index()])
            .collect();
        self.cols
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

    #[test]
    fn columns_builder_broadcasts_label_classes() {
        let mut builder = ColumnsBuilder::new();
        builder.push(ColumnRow {
            sld: "彩票",
            tld: "com",
            organic: true,
            ..ColumnRow::default()
        });
        builder.push(ColumnRow {
            sld: "news",
            tld: "net",
            malicious: true,
            organic: true,
            vt: true,
            q: true,
            ..ColumnRow::default()
        });
        builder.push(ColumnRow {
            sld: "彩票",
            tld: "com",
            b: true,
            ..ColumnRow::default()
        });
        let cols = builder.finish(|labels| {
            labels
                .iter()
                .map(|label| if label == "彩票" { 7 } else { 1 })
                .collect()
        });
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.labels().len(), 2, "labels deduplicate");
        assert_eq!(cols.tlds().len(), 2);
        assert_eq!(cols.lang_id(0), 7);
        assert_eq!(cols.lang_id(1), 1);
        assert_eq!(cols.lang_id(2), 7);
        assert_eq!(cols.sld_symbol(0), cols.sld_symbol(2));
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
        let mut builder = ColumnsBuilder::new();
        builder.push(ColumnRow {
            sld: "彩票",
            tld: "com",
            organic: true,
            ..ColumnRow::default()
        });
        builder.push(ColumnRow {
            sld: "news",
            tld: "net",
            organic: true,
            ..ColumnRow::default()
        });
        let mut cols = builder.finish(|labels| vec![7; labels.len()]);
        let before = cols.mark();
        let sym0 = cols.sld_symbol(0);
        // Appending a duplicate label re-uses its symbol; a fresh one
        // extends the interner past the mark.
        cols.push_row(
            ColumnRow {
                sld: "彩票",
                tld: "net",
                malicious: true,
                q: true,
                ..ColumnRow::default()
            },
            |_| 7,
        );
        cols.push_row(
            ColumnRow {
                sld: "neu",
                tld: "org",
                ..ColumnRow::default()
            },
            |_| 3,
        );
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
        let mut builder = ColumnsBuilder::new();
        for _ in 0..3 {
            builder.push(ColumnRow {
                sld: "标签",
                tld: "com",
                organic: true,
                ..ColumnRow::default()
            });
        }
        let mut cols = builder.finish(|labels| vec![0; labels.len()]);
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
                sld: "彩票",
                tld: "com",
                organic: true,
                vt: true,
                ..ColumnRow::default()
            },
            ColumnRow {
                sld: "",
                tld: "公司",
                malicious: true,
                b: true,
                ..ColumnRow::default()
            },
            ColumnRow {
                sld: "neu",
                tld: "",
                q: true,
                ..ColumnRow::default()
            },
        ];
        let mut run = ColumnRows::default();
        for row in rows {
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
