//! Adversarial epoch deltas against the epoch engine, with exact pins
//! on the `epoch.shards.*` counters and the resident-partials gauge:
//!
//! * a removal of a record that never existed must dirty nothing;
//! * an add and its expiry inside the same epoch must leave a stable
//!   index-space hole and re-fold exactly the tail shard;
//! * a double-add of a duplicate bulk domain must share the interned
//!   label symbol (no interner growth) and still fold equivalently;
//! * a lagged blacklist listing must straddle its epoch boundary — drawn
//!   in one epoch, applied in a later one — without ever diverging from
//!   the from-scratch rebuild.

use idnre_analyze::{EpochSource, EpochState, EpochStats};
use idnre_arena::CorpusColumns;
use idnre_bench::epochs::grow_columns;
use idnre_bench::passes::{ScanInputs, ScanOutputs, ScanPlan};
use idnre_bench::CandidateSurvey;
use idnre_datagen::{
    DaySimulator, DomainRegistration, Ecosystem, EcosystemConfig, EpochCorpus, EpochDeltaKind,
    KeyedCorpus,
};
use idnre_telemetry::{
    NoopRecorder, Recorder, Registry, SpanCtx, EPOCH_RESIDENT_PARTIALS, EPOCH_SHARD_COUNTERS,
};

const SHARD: usize = 64;
const THREADS: usize = 2;

/// The streamed base corpus and its columns, as an epochs build makes
/// them: the columns come out of the artifact traversal.
fn fixture() -> (Ecosystem, KeyedCorpus, CorpusColumns) {
    let config = EcosystemConfig {
        scale: 8000,
        threads: THREADS,
        ..EcosystemConfig::default()
    };
    idnre_datagen::generate_streamed(&config, SHARD, &NoopRecorder)
}

/// Scan inputs shared across every fold of one test — the epoch
/// contract the build also relies on: passes are rebuilt per epoch, the
/// detectors and the Figure 6 pool are not.
struct Engine {
    inputs: ScanInputs,
}

impl Engine {
    fn new(eco: &Ecosystem) -> Self {
        let candidates = CandidateSurvey::build(&eco.brands, THREADS, &NoopRecorder);
        Engine {
            inputs: ScanInputs::new(&eco.brands, &candidates),
        }
    }

    fn plan<'p>(&'p self, columns: &'p CorpusColumns) -> ScanPlan<'p> {
        self.inputs.plan(columns, None)
    }

    fn advance(
        &self,
        state: &mut EpochState,
        source: &EpochSource<'_>,
        columns: &CorpusColumns,
        touched: &[u64],
        recorder: &dyn Recorder,
    ) -> (ScanOutputs, EpochStats) {
        self.plan(columns)
            .run_epoch(state, source, THREADS, touched, recorder, SpanCtx::ROOT)
    }

    fn rebuild(&self, source: &EpochSource<'_>, columns: &CorpusColumns) -> ScanOutputs {
        self.plan(columns)
            .run_at(source, SHARD, THREADS, &NoopRecorder, SpanCtx::NONE)
            .0
    }
}

/// Regenerates one live base record from the overlay.
fn clone_record(overlay: &EpochCorpus<'_>, index: u64) -> DomainRegistration {
    let mut out = None;
    overlay.with_idn_shard_indexed(index, 1, &mut |records, _| out = Some(records[0].clone()));
    out.expect("index is live")
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .snapshot()
        .counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
        .unwrap_or(0)
}

fn gauge(registry: &Registry, name: &str) -> u64 {
    registry
        .snapshot()
        .gauges
        .iter()
        .find(|g| g.name == name)
        .map(|g| g.value)
        .unwrap_or(0)
}

#[test]
fn removing_a_nonexistent_record_dirties_nothing() {
    let (eco, corpus, columns) = fixture();
    let overlay = EpochCorpus::new(&corpus);
    let engine = Engine::new(&eco);
    let mut state = EpochState::new(SHARD);

    let source = EpochSource::new(&overlay);
    let (cold, _) = engine.advance(&mut state, &source, &columns, &[], &NoopRecorder);

    // A remove of a record past the end of the index space.
    let touched = [overlay.idn_index_space() + 7];
    let registry = Registry::new();
    let (warm, stats) = engine.advance(&mut state, &source, &columns, &touched, &registry);

    // Exact pins: the out-of-space delta maps to no shard at all.
    assert_eq!(stats.dirty, 0);
    assert_eq!(stats.refolded, 0);
    assert_eq!(stats.refolded_records, 0);
    assert_eq!(stats.clean, stats.total_shards);
    assert_eq!(counter(&registry, EPOCH_SHARD_COUNTERS[0]), 0);
    assert_eq!(
        counter(&registry, EPOCH_SHARD_COUNTERS[1]),
        stats.total_shards
    );
    assert_eq!(counter(&registry, EPOCH_SHARD_COUNTERS[2]), 0);
    assert_eq!(
        gauge(&registry, EPOCH_RESIDENT_PARTIALS),
        stats.resident_partials
    );
    // Every output is re-merged purely from resident partials.
    assert!(warm == cold, "a no-op delta stream changed the outputs");
}

#[test]
fn add_then_expire_in_one_epoch_leaves_a_stable_hole() {
    let (eco, corpus, mut columns) = fixture();
    let mut overlay = EpochCorpus::new(&corpus);
    let engine = Engine::new(&eco);
    let mut state = EpochState::new(SHARD);

    {
        let source = EpochSource::new(&overlay);
        engine.advance(&mut state, &source, &columns, &[], &NoopRecorder);
    }

    let template = clone_record(&overlay, 0);
    let index = overlay.push_add(template);
    assert!(overlay.remove(index), "the fresh add must be removable");
    assert_eq!(overlay.idn_index_space(), corpus.idn_len() + 1);
    assert_eq!(overlay.live_idn_len(), corpus.idn_len());

    // The columns still grow for the dead add: indices are immutable
    // history, and the hole keeps its row (passes never see it again).
    grow_columns(&mut columns, &overlay, &eco, &[]);

    // The add and the remove both touch the new index.
    let touched = [index, index];
    let registry = Registry::new();
    let source = EpochSource::new(&overlay);
    let (warm, stats) = engine.advance(&mut state, &source, &columns, &touched, &registry);

    // Both deltas land in the one tail shard; everything else is resident.
    assert_eq!(stats.dirty, 1);
    assert_eq!(stats.refolded, 1);
    assert_eq!(counter(&registry, EPOCH_SHARD_COUNTERS[2]), 1);
    // The report sees the grown index space, not the live count.
    assert_eq!(warm.idn_len, corpus.idn_len() + 1);

    let rebuild = engine.rebuild(&source, &columns);
    assert!(warm == rebuild, "hole handling diverged from a rebuild");
}

#[test]
fn duplicate_bulk_adds_share_the_interned_label() {
    let (eco, corpus, mut columns) = fixture();
    let mut overlay = EpochCorpus::new(&corpus);
    let engine = Engine::new(&eco);
    let mut state = EpochState::new(SHARD);

    {
        let source = EpochSource::new(&overlay);
        engine.advance(&mut state, &source, &columns, &[], &NoopRecorder);
    }

    let template = clone_record(&overlay, 3);
    let labels_before = columns.labels().len();
    let first = overlay.push_add(template.clone());
    let second = overlay.push_add(template);
    grow_columns(&mut columns, &overlay, &eco, &[]);

    // Bulk-registered duplicates intern to the same label symbol — the
    // arena grows rows, never a second copy of the string.
    assert_eq!(
        columns.sld_symbol(first as usize),
        columns.sld_symbol(second as usize)
    );
    assert_eq!(columns.sld_symbol(first as usize), columns.sld_symbol(3));
    assert_eq!(columns.labels().len(), labels_before);

    let touched = [first, second];
    let registry = Registry::new();
    let source = EpochSource::new(&overlay);
    let (warm, stats) = engine.advance(&mut state, &source, &columns, &touched, &registry);

    assert_eq!(stats.dirty, 1, "both adds share the tail shard");
    assert_eq!(counter(&registry, EPOCH_SHARD_COUNTERS[0]), 1);
    let rebuild = engine.rebuild(&source, &columns);
    assert!(warm == rebuild, "duplicate adds diverged from a rebuild");
}

#[test]
fn lagged_blacklist_listings_straddle_epoch_boundaries() {
    let (eco, corpus, mut columns) = fixture();
    let mut overlay = EpochCorpus::new(&corpus);
    let engine = Engine::new(&eco);
    let mut state = EpochState::new(SHARD);
    // Heavy churn so every epoch schedules at least one lagged listing.
    let mut simulator = DaySimulator::new(100, &columns);

    {
        let source = EpochSource::new(&overlay);
        engine.advance(&mut state, &source, &columns, &[], &NoopRecorder);
    }

    let mut saw_listing = false;
    for epoch in 1..=4u64 {
        let raw = simulator.advance(&mut overlay, epoch, &columns);
        if epoch == 1 {
            // Listings drawn this epoch are due at epoch+1 at the
            // earliest: none may fire in their own draw epoch.
            assert!(
                raw.iter().all(|d| d.kind != EpochDeltaKind::Blacklist),
                "a listing fired in its draw epoch"
            );
            assert!(
                simulator.pending_blacklist_len() > 0,
                "heavy churn scheduled no lagged listings"
            );
        }
        saw_listing |= raw.iter().any(|d| d.kind == EpochDeltaKind::Blacklist);

        grow_columns(&mut columns, &overlay, &eco, &raw);
        let touched: Vec<u64> = raw.iter().map(|d| d.index).collect();
        let registry = Registry::new();
        let source = EpochSource::new(&overlay);
        let (warm, stats) = engine.advance(&mut state, &source, &columns, &touched, &registry);

        // The counters mirror the accounting exactly, every epoch.
        assert_eq!(counter(&registry, EPOCH_SHARD_COUNTERS[0]), stats.dirty);
        assert_eq!(counter(&registry, EPOCH_SHARD_COUNTERS[1]), stats.clean);
        assert_eq!(counter(&registry, EPOCH_SHARD_COUNTERS[2]), stats.refolded);
        assert_eq!(
            gauge(&registry, EPOCH_RESIDENT_PARTIALS),
            stats.resident_partials
        );
        let rebuild = engine.rebuild(&source, &columns);
        assert!(warm == rebuild, "epoch {epoch} diverged from a rebuild");
    }
    assert!(
        saw_listing,
        "no lagged listing ever applied across epochs 2..=4"
    );
}
