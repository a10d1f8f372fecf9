//! Structural determinism of the hierarchical trace: the span tree's
//! *shape* — names, nesting, sibling indexes, event counts — must be
//! byte-identical across worker-thread counts, because parenting is
//! explicit (a parent's `SpanCtx` is handed to children) and sibling
//! order is `(name, index)`, never completion order. Only timings may
//! differ between runs.

use idnre_bench::{FaultSetup, ReproContext, RunSpec};
use idnre_crawler::{SURVEY_SLICE_RECORDS, SURVEY_SLICE_SPAN};
use idnre_datagen::EcosystemConfig;
use idnre_fault::FaultPlan;
use idnre_telemetry::Registry;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const THREAD_GRID: [usize; 3] = [1, 2, 8];
const SHARD_GRID: [usize; 2] = [64, 1024];

fn config(threads: usize) -> EcosystemConfig {
    EcosystemConfig {
        scale: 2000,
        attack_scale: 25,
        brand_count: 200,
        threads,
        ..EcosystemConfig::default()
    }
}

fn streamed(shard_size: usize) -> RunSpec {
    RunSpec {
        shard_size: Some(shard_size),
        ..RunSpec::default()
    }
}

/// Runs the streamed pipeline under a tracing registry and returns the
/// timing-free trace skeleton plus the `analyze.pass.*` stage names in
/// snapshot (i.e. registration) order.
fn traced_run(threads: usize, shard_size: usize) -> (String, Vec<String>) {
    let registry = Arc::new(Registry::with_trace());
    let _ctx = ReproContext::build(&config(threads), &streamed(shard_size), registry.clone());
    let structure = registry
        .trace_snapshot()
        .expect("tracing registry")
        .render_structure();
    let passes: Vec<String> = registry
        .snapshot()
        .stages
        .iter()
        .filter(|s| s.name.starts_with("analyze.pass."))
        .map(|s| s.name.clone())
        .collect();
    (structure, passes)
}

/// Single-threaded reference run per shard size, built once — structure
/// at any thread count must match it exactly.
fn reference(shard_size: usize) -> &'static (String, Vec<String>) {
    static REF_64: OnceLock<(String, Vec<String>)> = OnceLock::new();
    static REF_1024: OnceLock<(String, Vec<String>)> = OnceLock::new();
    let cell = match shard_size {
        64 => &REF_64,
        1024 => &REF_1024,
        other => panic!("no reference for shard size {other}"),
    };
    cell.get_or_init(|| traced_run(1, shard_size))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Scheduling is invisible in the trace: for a fixed shard size, every
    /// thread count yields the same skeleton and the same pass
    /// registration order as the single-threaded reference.
    #[test]
    fn trace_structure_is_invariant_across_threads(
        threads_index in 0usize..THREAD_GRID.len(),
        shard_index in 0usize..SHARD_GRID.len(),
    ) {
        let threads = THREAD_GRID[threads_index];
        let shard_size = SHARD_GRID[shard_index];
        let (structure, passes) = traced_run(threads, shard_size);
        let (ref_structure, ref_passes) = reference(shard_size);
        prop_assert_eq!(&structure, ref_structure,
            "trace skeleton diverged at threads={} shard_size={}", threads, shard_size);
        prop_assert_eq!(&passes, ref_passes,
            "pass registration order diverged at threads={} shard_size={}", threads, shard_size);
    }
}

/// The tree has the documented shape: pipeline phases under the run root,
/// one group per registered pass under `analyze.scan` with one child span
/// per shard, and in both builds the same two generation stages under
/// `build.ecosystem`. A clean build runs no corpus survey (Table V's
/// sample crawl rides the content pass); a faulted build's crawl survey
/// has one slice span per window.
#[test]
fn trace_tree_has_the_documented_shape() {
    let registry = Arc::new(Registry::with_trace());
    let ctx = ReproContext::build(&config(2), &streamed(1024), registry.clone());
    // Tracing is observational: the report bytes match an untraced build.
    let untraced = ReproContext::build(
        &config(2),
        &streamed(1024),
        Arc::new(idnre_telemetry::NoopRecorder),
    );
    assert_eq!(
        ctx.full_report(),
        untraced.full_report(),
        "tracing perturbed the report"
    );
    let snapshot = registry.trace_snapshot().expect("tracing registry");
    let root = &snapshot.root;
    assert_eq!(root.name, "run");
    for phase in [
        "build.ecosystem",
        "report.candidates",
        "analyze.inputs",
        "analyze.scan",
    ] {
        assert!(
            root.child(phase).is_some(),
            "missing top-level span {phase}"
        );
    }
    // The generator's column emitter derives every label fact, so no
    // column stage runs between the build and the scan inputs.
    let mut analysis: Vec<&str> = root
        .children
        .iter()
        .map(|span| span.name.as_str())
        .filter(|name| name.starts_with("analyze."))
        .collect();
    analysis.sort_unstable();
    assert_eq!(
        analysis,
        ["analyze.inputs", "analyze.scan"],
        "top-level analysis spans"
    );
    for survey in [
        "zone.ingest.lenient",
        "whois.survey",
        "crawl.survey.faulted",
        "crawl.survey.sched",
    ] {
        assert!(root.child(survey).is_none(), "clean build ran {survey}");
    }
    // Both builds run the one generator: the plan, then the artifact
    // traversal, and nothing else under `build.ecosystem`.
    let batch_registry = Arc::new(Registry::with_trace());
    let _ = ReproContext::build(&config(2), &RunSpec::default(), batch_registry.clone());
    let batch_snapshot = batch_registry.trace_snapshot().expect("tracing registry");
    for (mode, tree) in [("streamed", root), ("batch", &batch_snapshot.root)] {
        let build = tree.child("build.ecosystem").expect("build.ecosystem span");
        let mut stages: Vec<(u64, &str)> = build
            .children
            .iter()
            .map(|s| (s.index, s.name.as_str()))
            .collect();
        stages.sort_unstable();
        assert_eq!(
            stages,
            [(0, "datagen.stream.plan"), (1, "datagen.stream.artifacts")],
            "{mode} generation spans"
        );
    }

    // The faulted crawl survey runs fixed-size windows, one slice span each.
    let faulted_registry = Arc::new(Registry::with_trace());
    let smoke = FaultSetup::from_plan(FaultPlan::from_spec("smoke").unwrap());
    let faulted = RunSpec {
        faults: Some(smoke),
        ..streamed(1024)
    };
    let _ = ReproContext::build(&config(2), &faulted, faulted_registry.clone());
    let faulted_snapshot = faulted_registry.trace_snapshot().expect("tracing registry");
    let survey = faulted_snapshot
        .root
        .child("crawl.survey.faulted")
        .expect("faulted crawl survey span");
    let corpus = ctx.outputs.idn_len + ctx.outputs.non_idn_len;
    assert_eq!(
        survey.children.len() as u64,
        corpus.div_ceil(SURVEY_SLICE_RECORDS as u64)
    );
    assert!(survey.children.iter().all(|s| s.name == SURVEY_SLICE_SPAN));

    let scan = root.child("analyze.scan").unwrap();
    // 3 detector passes + 4 report aggregation passes, each a group whose
    // children are the per-shard spans.
    assert_eq!(scan.children.len(), 7, "pass groups under analyze.scan");
    // Shards are carved per population (IDN first, then non-IDN).
    let expected_shards =
        (ctx.outputs.idn_len.div_ceil(1024) + ctx.outputs.non_idn_len.div_ceil(1024)) as usize;
    for group in &scan.children {
        assert!(group.name.starts_with("analyze.pass."), "{}", group.name);
        assert_eq!(
            group.children.len(),
            expected_shards,
            "{} shard spans",
            group.name
        );
    }
    // The registration-order contract: snapshot order lists every pass
    // before any shard could race a first-touch.
    let (_, passes) = (
        snapshot.render_structure(),
        registry
            .snapshot()
            .stages
            .iter()
            .filter(|s| s.name.starts_with("analyze.pass."))
            .map(|s| s.name.clone())
            .collect::<Vec<_>>(),
    );
    assert_eq!(passes.len(), 7);
    assert_eq!(passes[0], "analyze.pass.homograph");
}
