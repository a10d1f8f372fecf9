//! Day-simulator epochs: a delta overlay over the streamed corpus plan.
//!
//! The paper measures one frozen snapshot, but real registries publish
//! daily deltas — registrations appear, expire, get re-registered, move
//! registrar, and land on blacklists days after creation. This module
//! expresses those dynamics without giving up the streaming corpus's
//! regenerate-any-shard-on-demand property:
//!
//! - [`EpochCorpus`] is a **delta overlay** over a borrowed
//!   [`KeyedCorpus`]: a removal set, a patch map, and an append tail.
//!   Record indices are **stable forever** — removal leaves a hole, new
//!   registrations take fresh tail indices, and a shard materializes as
//!   "regenerate the base span, skip holes, apply patches, splice the
//!   tail" — so index-addressed analysis state (column rows, head-sample
//!   cutoffs, resident shard partials) stays valid across epochs.
//! - [`DaySimulator`] draws each epoch's churn from the appended
//!   day-simulator [`StageId`]s (`EpochChurn`…`EpochBlacklistLag`) keyed
//!   by `(seed, stage, epoch, k)`, so a delta history is a pure function
//!   of the master seed and is byte-identical across threads, runs, and
//!   machines. The frozen stages 1–11 are never drawn from here, so the
//!   v2 dataset fingerprint of the underlying snapshot is untouched.
//!
//! Deltas are deliberately **cohort-clustered** (contiguous expiry
//! cohorts, clustered registrar migrations, tail-biased blacklisting) the
//! way real zone diffs are: a day's churn touches few shards, which is
//! what makes re-fold-only-dirty incremental maintenance win.

use crate::config::TABLE_I;
use crate::ecosystem::{draw_idn_domain, finish_idn};
use crate::labels;
use crate::registration::{sample_registrant, DomainRegistration, MaliciousKind};
use crate::stream::KeyedCorpus;
use idnre_rng::{Key, StageId};
use idnre_whois::Date;
use rand::Rng;
use std::collections::{BTreeSet, HashMap};

/// What one [`EpochDelta`] did to the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochDeltaKind {
    /// A new registration appended at a fresh tail index.
    Add,
    /// An existing registration expired out of the zone.
    Remove,
    /// A previously expired index re-registered (drop-catching): the
    /// record revives with a new creation date and registrant.
    Reregister,
    /// A nameserver/registrar migration; the record stays in the zone.
    NsChange,
    /// A blacklist listing that lagged the registration by ≥1 epoch.
    Blacklist,
}

/// One record-level zone-diff event applied during an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochDelta {
    /// Stable IDN-population index of the affected record.
    pub index: u64,
    /// What happened to it.
    pub kind: EpochDeltaKind,
}

/// Field-level mutations applied on top of a regenerated base record.
#[derive(Debug, Clone, Default)]
struct Patch {
    registrar: Option<String>,
    recreated: Option<Date>,
    registrant: Option<Option<String>>,
    malicious: Option<MaliciousKind>,
}

impl Patch {
    fn apply(&self, reg: &mut DomainRegistration) {
        if let Some(registrar) = &self.registrar {
            reg.registrar.clone_from(registrar);
        }
        if let Some(recreated) = self.recreated {
            reg.created = recreated;
        }
        if let Some(registrant) = &self.registrant {
            reg.registrant_email.clone_from(registrant);
            reg.privacy = registrant.is_none();
        }
        if let Some(kind) = self.malicious {
            reg.malicious = Some(kind);
        }
    }
}

/// A mutable delta overlay over a borrowed [`KeyedCorpus`].
///
/// Indices are stable: the IDN **index space** only ever grows (base plan
/// plus append tail), removals leave holes, and
/// [`EpochCorpus::with_idn_shard_indexed`] yields each surviving record
/// with its original global index. The non-IDN population is passed
/// through unchanged — the day simulator models IDN zone churn.
#[derive(Debug)]
pub struct EpochCorpus<'a> {
    base: &'a KeyedCorpus,
    removed: BTreeSet<u64>,
    patches: HashMap<u64, Patch>,
    appended: Vec<DomainRegistration>,
}

impl<'a> EpochCorpus<'a> {
    /// An overlay with no deltas: byte-identical to `base`.
    pub fn new(base: &'a KeyedCorpus) -> Self {
        EpochCorpus {
            base,
            removed: BTreeSet::new(),
            patches: HashMap::new(),
            appended: Vec::new(),
        }
    }

    /// Records in the base plan (tail indices start here).
    pub fn base_idn_len(&self) -> u64 {
        self.base.idn_len()
    }

    /// Size of the IDN index space: base plan plus append tail,
    /// **including** removal holes. Shard grids are laid over this.
    pub fn idn_index_space(&self) -> u64 {
        self.base.idn_len() + self.appended.len() as u64
    }

    /// Surviving (non-removed) IDN records.
    pub fn live_idn_len(&self) -> u64 {
        self.idn_index_space() - self.removed.len() as u64
    }

    /// Non-IDN records (passed through from the base plan).
    pub fn non_idn_len(&self) -> u64 {
        self.base.non_idn_len()
    }

    /// The appended tail registrations, in index order (tail slot `k` is
    /// global index `base_idn_len() + k`). Callers growing index-aligned
    /// side tables (corpus columns) read new rows from here.
    pub fn appended(&self) -> &[DomainRegistration] {
        &self.appended
    }

    /// Appends `reg` at the next tail index and returns that index.
    pub fn push_add(&mut self, reg: DomainRegistration) -> u64 {
        let index = self.idn_index_space();
        self.appended.push(reg);
        index
    }

    /// Expires `index` out of the zone. Returns `false` (and does
    /// nothing) when the index is outside the index space or already
    /// removed — adversarial streams may name records that never existed.
    pub fn remove(&mut self, index: u64) -> bool {
        if index >= self.idn_index_space() {
            return false;
        }
        self.removed.insert(index)
    }

    /// Migrates `index` to `registrar`. Returns `false` for holes and
    /// out-of-space indices.
    pub fn set_registrar(&mut self, index: u64, registrar: &str) -> bool {
        if index >= self.idn_index_space() || self.removed.contains(&index) {
            return false;
        }
        self.patches.entry(index).or_default().registrar = Some(registrar.to_string());
        true
    }

    /// Blacklists `index` as `kind`. Returns `false` for holes and
    /// out-of-space indices (a lagged listing may arrive after expiry).
    pub fn set_malicious_kind(&mut self, index: u64, kind: MaliciousKind) -> bool {
        if index >= self.idn_index_space() || self.removed.contains(&index) {
            return false;
        }
        self.patches.entry(index).or_default().malicious = Some(kind);
        true
    }

    /// Revives removed `index` with a fresh creation date and registrant
    /// (drop-catching). Returns `false` unless `index` is currently a
    /// hole. Any earlier blacklist patch is cleared — the re-registered
    /// name starts benign (its listing lag is the simulator's to model).
    pub fn reregister(&mut self, index: u64, recreated: Date, email: Option<String>) -> bool {
        if !self.removed.remove(&index) {
            return false;
        }
        let patch = self.patches.entry(index).or_default();
        patch.recreated = Some(recreated);
        patch.registrant = Some(email);
        patch.malicious = None;
        true
    }

    /// Materializes IDN index range `[start, start + len)`: regenerates
    /// the base span on demand, skips removal holes, applies patches,
    /// splices the append tail — then calls `f` once with the surviving
    /// records and their stable global indices (parallel slices).
    /// Residency is tracked on the base corpus's gauge.
    pub fn with_idn_shard_indexed(
        &self,
        start: u64,
        len: usize,
        f: &mut dyn FnMut(&[DomainRegistration], &[u64]),
    ) {
        self.base.count_shard();
        self.base.gauge().add(len as u64);
        let base_len = self.base.idn_len();
        let end = start.saturating_add(len as u64).min(self.idn_index_space());
        let mut records = Vec::with_capacity(len);
        let mut indices = Vec::with_capacity(len);
        for i in start..end {
            if self.removed.contains(&i) {
                continue;
            }
            let mut reg = if i < base_len {
                self.base.regen_idn(i)
            } else {
                self.appended[(i - base_len) as usize].clone()
            };
            if let Some(patch) = self.patches.get(&i) {
                patch.apply(&mut reg);
            }
            records.push(reg);
            indices.push(i);
        }
        f(&records, &indices);
        drop(records);
        self.base.gauge().sub(len as u64);
    }

    /// Non-IDN passthrough to [`KeyedCorpus::with_non_idn_shard`].
    pub fn with_non_idn_shard(
        &self,
        start: u64,
        len: usize,
        f: &mut dyn FnMut(&[DomainRegistration]),
    ) {
        self.base.with_non_idn_shard(start, len, f);
    }
}

/// Registrars that day-simulated migrations move cohorts onto.
const MIGRATION_REGISTRARS: [&str; 4] = [
    "Gname.com Pte. Ltd.",
    "NameSilo, LLC.",
    "Sav.com, LLC.",
    "Dominet (HK) Limited.",
];

/// How many epochs a scheduled blacklist listing may lag its draw.
const MAX_BLACKLIST_LAG: u64 = 2;

/// The keyed zone-diff generator: one call per epoch, deltas applied to
/// an [`EpochCorpus`] and returned for dirty-shard mapping.
///
/// Determinism: every draw comes from
/// `Key::root(seed).stage(epoch_stage).derive(epoch).record(k)`, and all
/// internal iteration is over ordered structures, so the same
/// `(seed, churn, epoch)` always yields the same delta list.
#[derive(Debug)]
pub struct DaySimulator {
    churn_per_mille: u64,
    /// Scheduled lagged listings: `(due_epoch, index)`, in draw order.
    pending_blacklist: Vec<(u64, u64)>,
}

impl DaySimulator {
    /// A simulator applying roughly `churn_per_mille` ‰ of the base
    /// corpus per epoch (clamped to at least one event per category).
    pub fn new(churn_per_mille: u64) -> Self {
        DaySimulator {
            churn_per_mille,
            pending_blacklist: Vec::new(),
        }
    }

    /// Lagged listings drawn but not yet applied (due in later epochs).
    pub fn pending_blacklist_len(&self) -> usize {
        self.pending_blacklist.len()
    }

    /// Advances one epoch: applies lagged blacklist listings now due,
    /// then draws this epoch's churn (adds, an expiry cohort,
    /// re-registrations, a registrar migration, and newly scheduled
    /// lagged listings) into `corpus`. Returns the record-level deltas
    /// **applied this epoch** — scheduled-but-not-yet-due listings are
    /// not in the list; they appear in the epoch that applies them.
    pub fn advance(&mut self, corpus: &mut EpochCorpus<'_>, epoch: u64) -> Vec<EpochDelta> {
        let config = corpus.base.config();
        let root = Key::root(config.seed);
        let base_len = corpus.base_idn_len();
        let budget = (base_len * self.churn_per_mille / 1000).max(1);
        let mut deltas = Vec::new();

        // Lagged listings due this epoch fire first: they were drawn in an
        // earlier epoch against the corpus as it then stood.
        let mut still_pending = Vec::new();
        for (due, index) in self.pending_blacklist.drain(..) {
            if due > epoch {
                still_pending.push((due, index));
            } else if corpus.set_malicious_kind(index, MaliciousKind::Other) {
                deltas.push(EpochDelta {
                    index,
                    kind: EpochDeltaKind::Blacklist,
                });
            }
        }
        self.pending_blacklist = still_pending;

        // New registrations append at the tail: ~40% of the budget.
        let churn_key = root.stage(StageId::EpochChurn).derive(epoch);
        for k in 0..(budget * 2 / 5).max(1) {
            let record_key = churn_key.record(k);
            let mut drawn = None;
            for attempt in 0..8u64 {
                let mut rng = record_key.derive(attempt).rng();
                let language = labels::sample_language(&mut rng);
                let label = labels::generate_label(&mut rng, language);
                let tld = TABLE_I[rng.gen_range(0..TABLE_I.len())].tld;
                if let Some((domain, unicode)) = draw_idn_domain(&mut rng, &label, tld) {
                    let (email, _) = sample_registrant(&mut rng, k);
                    let mut reg =
                        finish_idn(&mut rng, config, domain, unicode, language, tld, email);
                    // Day-simulated names register "today": the epoch's
                    // zone date, not the historical snapshot spread.
                    reg.created = config.snapshot;
                    reg.malicious = None;
                    drawn = Some(reg);
                    break;
                }
            }
            if let Some(reg) = drawn {
                let index = corpus.push_add(reg);
                deltas.push(EpochDelta {
                    index,
                    kind: EpochDeltaKind::Add,
                });
            }
        }

        // Re-registrations revive holes left by *earlier* epochs (~10%),
        // drawn before this epoch's expiry cohort opens new ones.
        let revivable: Vec<u64> = corpus.removed.iter().copied().collect();
        let rereg_key = root.stage(StageId::EpochReRegistration).derive(epoch);
        for (k, &index) in revivable
            .iter()
            .take((budget / 10).max(1) as usize)
            .enumerate()
        {
            let mut rng = rereg_key.record(k as u64).rng();
            let (email, _) = sample_registrant(&mut rng, index);
            if corpus.reregister(index, config.snapshot, email) {
                deltas.push(EpochDelta {
                    index,
                    kind: EpochDeltaKind::Reregister,
                });
            }
        }

        // An expiry cohort: ~30% of the budget, contiguous — real zone
        // drops cluster by registration batch, so churn stays shard-local.
        let mut expiry_rng = root
            .stage(StageId::EpochExpiry)
            .derive(epoch)
            .record(0)
            .rng();
        let cohort = (budget * 3 / 10).max(1);
        let span = corpus.idn_index_space();
        let start = expiry_rng.gen_range(0..span.saturating_sub(cohort).max(1));
        for index in start..(start + cohort).min(span) {
            if corpus.remove(index) {
                deltas.push(EpochDelta {
                    index,
                    kind: EpochDeltaKind::Remove,
                });
            }
        }

        // A registrar migration cohort (~10%), also contiguous.
        let mut ns_rng = root
            .stage(StageId::EpochNsChange)
            .derive(epoch)
            .record(0)
            .rng();
        let cohort = (budget / 10).max(1);
        let start = ns_rng.gen_range(0..span.saturating_sub(cohort).max(1));
        let registrar = MIGRATION_REGISTRARS[ns_rng.gen_range(0..MIGRATION_REGISTRARS.len())];
        for index in start..(start + cohort).min(span) {
            if corpus.set_registrar(index, registrar) {
                deltas.push(EpochDelta {
                    index,
                    kind: EpochDeltaKind::NsChange,
                });
            }
        }

        // Schedule lagged listings (~10%) against the *recent* tail —
        // abuse studies find newly registered names dominate listings,
        // and the listing itself lags registration by one or two epochs.
        // Listings cluster around one anchor per epoch (campaign domains
        // registered together get listed together), so a day's listings
        // stay shard-local like the other delta cohorts.
        let lag_key = root.stage(StageId::EpochBlacklistLag).derive(epoch);
        let window = span.clamp(1, 4096);
        let anchor = span - 1 - lag_key.record(0).rng().gen_range(0..window);
        for k in 0..(budget / 10).max(1) {
            let mut rng = lag_key.record(k + 1).rng();
            let index = anchor.saturating_sub(rng.gen_range(0..64));
            let due = epoch + 1 + rng.gen_range(0..MAX_BLACKLIST_LAG);
            self.pending_blacklist.push((due, index));
        }

        deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcosystemConfig;
    use crate::stream::generate_streamed;
    use idnre_telemetry::NoopRecorder;

    fn small_corpus() -> KeyedCorpus {
        let config = EcosystemConfig {
            scale: 200,
            ..EcosystemConfig::default()
        };
        generate_streamed(&config, 64, &NoopRecorder).1
    }

    #[test]
    fn overlay_without_deltas_matches_base() {
        let base = small_corpus();
        let overlay = EpochCorpus::new(&base);
        assert_eq!(overlay.idn_index_space(), base.idn_len());
        assert_eq!(overlay.live_idn_len(), base.idn_len());
        base.with_idn_shard(3, 5, &mut |expected| {
            overlay.with_idn_shard_indexed(3, 5, &mut |records, indices| {
                assert_eq!(records, expected);
                assert_eq!(indices, [3, 4, 5, 6, 7]);
            });
        });
    }

    #[test]
    fn removal_leaves_a_hole_with_stable_indices() {
        let base = small_corpus();
        let mut overlay = EpochCorpus::new(&base);
        assert!(overlay.remove(4));
        assert!(!overlay.remove(4), "double-remove must be a no-op");
        assert!(!overlay.remove(u64::MAX), "remove-nonexistent must be safe");
        overlay.with_idn_shard_indexed(3, 4, &mut |records, indices| {
            assert_eq!(indices, [3, 5, 6], "index 4 is a hole, others keep place");
            assert_eq!(records.len(), 3);
        });
        assert_eq!(overlay.live_idn_len(), base.idn_len() - 1);
    }

    #[test]
    fn appended_records_take_stable_tail_indices() {
        let base = small_corpus();
        let mut overlay = EpochCorpus::new(&base);
        let mut reg = base.regen_idn(0);
        reg.domain = "xn--tail.com".to_string();
        let index = overlay.push_add(reg.clone());
        assert_eq!(index, base.idn_len());
        overlay.with_idn_shard_indexed(index, 3, &mut |records, indices| {
            assert_eq!(indices, [index]);
            assert_eq!(records[0].domain, "xn--tail.com");
        });
    }

    #[test]
    fn patches_apply_on_regeneration() {
        let base = small_corpus();
        let mut overlay = EpochCorpus::new(&base);
        assert!(overlay.set_registrar(2, "Example Registrar"));
        assert!(overlay.set_malicious_kind(2, MaliciousKind::Other));
        overlay.with_idn_shard_indexed(2, 1, &mut |records, _| {
            assert_eq!(records[0].registrar, "Example Registrar");
            assert_eq!(records[0].malicious, Some(MaliciousKind::Other));
        });
        // A hole accepts no patches.
        assert!(overlay.remove(2));
        assert!(!overlay.set_registrar(2, "X"));
        assert!(!overlay.set_malicious_kind(2, MaliciousKind::Other));
    }

    #[test]
    fn simulator_is_a_pure_function_of_seed_and_epoch() {
        let base = small_corpus();
        let run = || {
            let mut overlay = EpochCorpus::new(&base);
            let mut sim = DaySimulator::new(20);
            (0..4u64)
                .map(|epoch| sim.advance(&mut overlay, epoch))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn blacklist_listings_lag_their_draw_epoch() {
        let base = small_corpus();
        let mut overlay = EpochCorpus::new(&base);
        let mut sim = DaySimulator::new(20);
        let first = sim.advance(&mut overlay, 0);
        assert!(
            first.iter().all(|d| d.kind != EpochDeltaKind::Blacklist),
            "epoch 0 can only schedule listings, never apply them"
        );
        assert!(sim.pending_blacklist_len() > 0, "listings were scheduled");
        let applied: Vec<EpochDelta> = (1..=1 + MAX_BLACKLIST_LAG)
            .flat_map(|epoch| sim.advance(&mut overlay, epoch))
            .filter(|d| d.kind == EpochDeltaKind::Blacklist)
            .collect();
        assert!(
            !applied.is_empty(),
            "every scheduled listing fires within MAX_BLACKLIST_LAG epochs \
             unless its target expired first"
        );
    }

    #[test]
    fn reregistration_revives_holes_benign() {
        let base = small_corpus();
        let mut overlay = EpochCorpus::new(&base);
        assert!(overlay.set_malicious_kind(7, MaliciousKind::Other));
        assert!(overlay.remove(7));
        let recreated = overlay.base.config().snapshot;
        assert!(overlay.reregister(7, recreated, Some("new@owner.example".into())));
        assert!(
            !overlay.reregister(7, recreated, None),
            "not a hole anymore"
        );
        overlay.with_idn_shard_indexed(7, 1, &mut |records, indices| {
            assert_eq!(indices, [7]);
            assert_eq!(records[0].created, recreated);
            assert_eq!(
                records[0].registrant_email.as_deref(),
                Some("new@owner.example")
            );
            assert_eq!(records[0].malicious, None, "revival clears the listing");
        });
    }
}
