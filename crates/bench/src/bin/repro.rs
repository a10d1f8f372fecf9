//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro all                      # every table and figure, to stdout
//! repro table13 fig7             # specific experiments
//! repro --scale 50 all           # denser ecosystem (1:50)
//! repro --threads 4 all          # worker threads (default: all cores)
//! repro --write EXPERIMENTS.md all
//! repro --metrics text all       # stage-timing table on stderr
//! repro --metrics json all       # idnre-metrics/2 JSON on stderr
//! repro --stream all             # bounded-memory streaming build
//! repro --stream --shard-size 64 all       # smaller resident shards
//! repro --faults smoke all       # inject the `smoke` fault schedule
//! repro --faults storm:7 all     # `storm` profile, replay seed 7
//! repro --bench all              # also time the run, writes BENCH_pipeline.json
//! repro --bench --stream --shard-size 64 all  # time the streamed run at shard 64
//! repro --dump-dataset D.txt all # write the idnre-dataset/2 bytes
//! repro --trace trace.json all   # hierarchical span tree, Chrome trace JSON
//! repro --slo smoke all          # evaluate an SLO profile, gate the exit code
//! repro --faults storm --crawl-sched all   # event-driven crawl scheduler
//! repro --metrics det all        # thread-invariant idnre-metrics/2 JSON
//! repro --mine-portfolios all    # zone-wide confusable portfolio mining
//! repro --mine-portfolios --stream --scale 2750 all  # mining in bounded memory
//! repro --stream --epochs 5 all  # 5 incremental zone-diff epochs
//! repro --stream --epochs 5 --churn-per-mille 20 all  # ~2% churn per epoch
//! ```
//!
//! With `--metrics`, every pipeline stage (generation, the fused scan's
//! passes — Table V's sample crawl among them — each report generator) is
//! timed through [`idnre_telemetry::Registry`] and the snapshot is
//! rendered to stderr, so stdout stays a clean report stream. `--write PATH` combined with
//! `--metrics json` also writes the snapshot to `PATH.metrics.json`.
//!
//! With `--faults`, the run adds the corpus-wide surveys: lenient zone
//! ingest, the WHOIS crawl and the crawl survey run under a seeded fault
//! schedule with retry/backoff, the report gains a "Run health" section,
//! and the exit code follows the error-budget contract: 0 clean, 3
//! degraded (errors within budget), 4 budget exceeded. A fixed spec
//! replays the same schedule byte-for-byte, batch or `--stream`.
//!
//! `--threads N` pins the worker count of every parallel stage; the report
//! bytes are identical at every setting, only wall time changes.
//!
//! With `--stream`, the registration corpus is never materialized whole:
//! the streaming generator regenerates `--shard-size N` records at a time
//! (default 1024) and the fused analysis scan (and any faulted survey)
//! walks the shards, so peak resident records stay ≈ `shard_size ×
//! threads` at any scale (reported as the `datagen.peak_resident_records`
//! gauge under `--metrics`). The report bytes are identical to the batch
//! build, with or without `--faults` and `--crawl-sched`: the faulted
//! surveys walk the same shards. `--stream` cannot be combined with
//! `--dump-dataset`, and `--shard-size` requires it.
//!
//! `--dump-dataset PATH` writes the canonical `idnre-dataset/2` bytes of
//! a batch build, so CI can `cmp` runs at different thread counts. The
//! render is one top-level `dataset.render` stage (records = bytes).
//!
//! `--bench` times the run the other flags describe: the run is built,
//! rendered and written exactly as without `--bench` (same stdout, same
//! `--metrics`, `--trace` and `--slo` output, same exit code), under a
//! [`idnre_telemetry::Registry`]. Then [`idnre_bench::measure`] turns the
//! registry's stages into entries, and nothing else: a stage is timed
//! when the run executes it (`--faults none` runs the surveys,
//! `--dump-dataset` the dataset render), and the exhaustive oracles run
//! in tests. The stage table and the per-pass cost ledger go to stderr,
//! and the entries to `BENCH_pipeline.json` (`idnre-bench-pipeline/9`,
//! with the run's `batch` or `streamed` mode). Under `--stream` the
//! JSON's top-level `peak_resident_records` reports the run's
//! residency-gauge peak — the paper-scale memory contract
//! (`≤ 4 × shard_size × threads`) read straight from the artifact.
//!
//! `--trace PATH` runs the pipeline under a tracing registry and writes
//! the assembled span tree (run → build/scan → pass → shard) as Chrome
//! trace-event JSON (`idnre-trace/1`) to `PATH` — load it in
//! `chrome://tracing` or Perfetto. The tree *structure* (span names,
//! nesting, event counts) is identical across thread counts; only the
//! timings differ.
//!
//! `--slo PROFILE` evaluates a named SLO profile (`smoke` or `tight`)
//! against the run's latency histograms after the report is produced,
//! prints the verdict to stderr, and exits with the run-health contract's
//! code: 0 clean, 3 degraded (a quantile bound or expected stage
//! missing), 4 exceeded (a hard max bound). Not combinable with
//! `--faults`, which owns the same exit codes.
//!
//! `--crawl-sched` (requires `--faults`) routes the crawl survey through
//! the event-driven scheduler in `idnre-sched`: a bounded in-flight
//! window fed from a priority queue (retries before fresh arrivals), a
//! hierarchical timeout wheel for deadlines and backoff timers,
//! per-nameserver token-bucket rate limits and circuit breakers, and
//! graceful load shedding when the queue or breakers say no. Shed
//! queries count against the error budget's denominator, so an overload
//! run degrades (exit 3) instead of silently dropping work. The window
//! and the rate limits are [`idnre_sched::SchedConfig`]'s defaults. The
//! scheduler runs on virtual time: reports and counters replay
//! byte-identically across `--threads` settings.
//!
//! `--mine-portfolios` runs the two-pass skeleton-LSH portfolio miner:
//! pass A folds a confusable-skeleton bucket index on the same fused
//! corpus traversal (`analyze.pass.bucket_index`); after the scan, pass B
//! SSIM-verifies every pair inside the non-singleton buckets in one
//! parallel map and clusters the verified pairs into
//! registrant/activity-joined squatter portfolios (one `mine.pairs` span,
//! its counters recorded once). The report gains a "Portfolio mining"
//! section; every other section's bytes are unchanged, and the mined
//! output is byte-identical across `--threads` and `--shard-size`
//! settings. Combined with `--stream`, the index folds over regenerated
//! shards — packed symbol handles only — so mining stays inside the
//! streamed memory budget at any scale. Combined with `--faults`, the
//! section lands just before "Run health" and the exit code is the
//! unmined faulted run's: the miner never touches the error budget.
//!
//! `--epochs N` (requires `--stream`) runs the incremental zone-diff
//! loop: the streamed build's fold leaves its per-(shard, pass) partials
//! resident, then a deterministic day simulator applies `N` epochs of
//! churn (new registrations, expiry cohorts, re-registrations, registrar
//! migrations, lagged blacklist listings — `--churn-per-mille M` events
//! per thousand base records per epoch, default 20) and each epoch
//! re-folds **only the shards its deltas dirtied**. Every epoch is
//! shadowed by a from-scratch rebuild over the same effective corpus, and
//! the run panics unless the two folds are equal; since every report is
//! a pure function of the fold, equal folds render equal bytes. Any
//! experiment can be named: stdout carries the final epoch's rendering
//! of it, stderr a per-epoch summary plus one machine-greppable
//! `epochs=... speedup=...` line. Under `--metrics`/`--trace` every fold
//! and the one render are metered, each shadow rebuild as one
//! `analyze.epoch.rebuild` span, and so are the entries `--bench`
//! writes. Not combinable with `--faults` or `--mine-portfolios`.
//!
//! Flag compatibility is validated against one table
//! ([`idnre_bench::FLAG_CONFLICTS`] / [`idnre_bench::FLAG_REQUIRES`]);
//! any violation is a usage error (exit 2), and so is an argument that
//! starts with `-` but names no flag.
//!
//! `--metrics det` renders the deterministic `idnre-metrics/2` snapshot
//! slice (counters and stage call/record totals, no timings), which is
//! byte-identical across runs and thread counts; with `--write PATH` it
//! also lands in `PATH.metrics.det.json` so CI can `cmp` two runs.

use idnre_bench::{
    reports, validate_flags, CliFlags, EpochSpec, FaultSetup, ReproContext, RunSpec,
};
use idnre_datagen::EcosystemConfig;
use idnre_fault::FaultPlan;
use idnre_sched::SchedConfig;
use idnre_telemetry::{Registry, SpanCtx};
use std::io::Write as _;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Text,
    Json,
    /// The thread-invariant `idnre-metrics/2` slice.
    Det,
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut config = EcosystemConfig::default();
    let mut write_path: Option<String> = None;
    let mut metrics: Option<MetricsFormat> = None;
    let mut faults: Option<FaultSetup> = None;
    let mut threads: Option<usize> = None;
    let mut bench = false;
    let mut stream = false;
    let mut shard_size: Option<usize> = None;
    let mut dump_dataset: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut slo: Option<idnre_telemetry::SloSpec> = None;
    let mut crawl_sched = false;
    let mut mine_portfolios = false;
    let mut epochs: Option<u64> = None;
    let mut churn_per_mille: Option<u64> = None;
    let mut wanted: Vec<String> = Vec::new();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                config.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--scale needs a number >= 1"));
            }
            "--attack-scale" => {
                config.attack_scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--attack-scale needs a number >= 1"));
            }
            "--threads" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--threads needs a number >= 1"));
                threads = Some(n.min(idnre_par::MAX_THREADS));
            }
            "--bench" => bench = true,
            "--stream" => stream = true,
            "--shard-size" => {
                shard_size = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1)
                        .unwrap_or_else(|| usage("--shard-size needs a number >= 1")),
                );
            }
            "--dump-dataset" => {
                dump_dataset = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--dump-dataset needs a path")),
                );
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--write" => {
                write_path = Some(args.next().unwrap_or_else(|| usage("--write needs a path")));
            }
            "--metrics" => {
                metrics = Some(match args.next().as_deref() {
                    Some("text") => MetricsFormat::Text,
                    Some("json") => MetricsFormat::Json,
                    Some("det") => MetricsFormat::Det,
                    _ => usage("--metrics needs `text`, `json` or `det`"),
                });
            }
            "--crawl-sched" => crawl_sched = true,
            "--mine-portfolios" => mine_portfolios = true,
            "--epochs" => {
                epochs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--epochs needs a number")),
                );
            }
            "--churn-per-mille" => {
                churn_per_mille = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n >= 1 && *n <= 1000)
                        .unwrap_or_else(|| usage("--churn-per-mille needs a number in 1..=1000")),
                );
            }
            "--trace" => {
                trace_path = Some(args.next().unwrap_or_else(|| usage("--trace needs a path")));
            }
            "--slo" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| usage("--slo needs a profile name"));
                slo = Some(idnre_bench::slo_profile(&name).unwrap_or_else(|| {
                    usage(&format!(
                        "unknown SLO profile {name:?} (known: {})",
                        idnre_bench::SLO_PROFILES.join(" ")
                    ))
                }));
            }
            "--faults" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| usage("--faults needs a spec"));
                let plan = FaultPlan::from_spec(&spec).unwrap_or_else(|e| usage(&e.to_string()));
                faults = Some(FaultSetup::from_plan(plan));
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag {other:?}")),
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        usage("no experiment named");
    }
    if let Some(n) = threads {
        config.threads = n;
    }

    let flags = CliFlags {
        stream,
        shard_size: shard_size.is_some(),
        faults: faults.is_some(),
        slo: slo.is_some(),
        dump_dataset: dump_dataset.is_some(),
        crawl_sched,
        mine_portfolios,
        epochs: epochs.is_some(),
        churn_per_mille: churn_per_mille.is_some(),
    };
    if let Err(message) = validate_flags(&flags) {
        usage(&message);
    }
    // Checked before any work, so a misspelt name costs nothing.
    let mut all = false;
    let mut generators = Vec::new();
    for name in &wanted {
        match reports::by_name(name) {
            Some(generator) => generators.push(generator),
            None if name == "all" => all = true,
            None => usage(&format!("unknown experiment {name:?}")),
        }
    }
    if crawl_sched {
        faults = faults.map(|setup| setup.with_sched(SchedConfig::default()));
    }
    let shard_size = stream.then(|| shard_size.unwrap_or(idnre_bench::DEFAULT_SHARD_SIZE));

    let need_registry = bench || metrics.is_some() || trace_path.is_some() || slo.is_some();
    let registry = need_registry.then(|| {
        let registry = if trace_path.is_some() {
            Registry::with_trace()
        } else {
            Registry::new()
        };
        for name in idnre_crawler::OUTCOME_COUNTERS {
            registry.counter(name);
        }
        Arc::new(registry)
    });

    eprintln!(
        "generating ecosystem (scale 1:{}, attacks 1:{}, seed {:#x})...",
        config.scale, config.attack_scale, config.seed
    );
    let recorder: Arc<dyn idnre_telemetry::Recorder> = match &registry {
        Some(registry) => registry.clone(),
        None => Arc::new(idnre_telemetry::NoopRecorder),
    };
    if let Some(count) = epochs {
        let churn = churn_per_mille.unwrap_or(idnre_bench::DEFAULT_CHURN_PER_MILLE);
        let shard = shard_size.expect("--epochs requires --stream");
        eprintln!("epoch mode: {count} epochs, churn {churn}\u{2030}, shard {shard}");
    }
    if let Some(setup) = &faults {
        eprintln!(
            "fault schedule: profile `{}`, seed {:#x}",
            setup.plan.profile().name,
            setup.plan.seed()
        );
    }
    let spec = RunSpec {
        shard_size,
        mine: mine_portfolios,
        faults,
        epochs: epochs.map(|count| EpochSpec {
            count,
            churn_per_mille: churn_per_mille.unwrap_or(idnre_bench::DEFAULT_CHURN_PER_MILLE),
        }),
    };
    let ctx = ReproContext::build(&config, &spec, recorder);
    eprintln!(
        "ecosystem ready: {} IDNs, {} non-IDNs, {} homograph findings, {} semantic findings",
        ctx.outputs.idn_len,
        ctx.outputs.non_idn_len,
        ctx.outputs.homographs.len(),
        ctx.outputs.semantic1.len()
    );
    if let Some(mining) = &ctx.mining {
        eprintln!(
            "portfolio mining: {} buckets ({} non-singleton), {} candidate pairs, {} verified, {} portfolios",
            mining.buckets,
            mining.non_singleton_buckets,
            mining.candidate_pairs,
            mining.verified_pairs,
            mining.portfolios.len()
        );
    }
    if let Some(run) = &ctx.epochs {
        for (i, epoch) in run.epochs.iter().enumerate() {
            eprintln!(
                "epoch {}: {} deltas, {} live IDNs, {}/{} shards refolded ({} dirty), \
                 incremental {:.2} ms vs rebuild {:.2} ms",
                i + 1,
                epoch.deltas,
                epoch.live_idn,
                epoch.stats.refolded,
                epoch.stats.total_shards,
                epoch.stats.dirty,
                epoch.incremental_ns as f64 / 1e6,
                epoch.rebuild_ns as f64 / 1e6,
            );
        }
        // One machine-greppable line: CI parses these key=value pairs.
        eprintln!(
            "epochs={} shards={} refolded={} incremental_ns={} rebuild_ns={} speedup={:.2}",
            run.epochs.len(),
            run.total_shards(),
            run.total_refolded(),
            run.incremental_ns(),
            run.rebuild_ns(),
            run.speedup()
        );
    }

    if let Some(path) = &dump_dataset {
        let mut span = ctx.recorder.span_at("dataset.render", SpanCtx::ROOT, 0);
        let dataset = idnre_datagen::render_dataset(&ctx.eco);
        span.add_records(dataset.len() as u64);
        drop(span);
        std::fs::write(path, &dataset).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "wrote {path} ({} bytes, fingerprint {:#018x})",
            dataset.len(),
            idnre_datagen::dataset_fingerprint(&dataset)
        );
    }

    let output: String = if all {
        ctx.full_report()
    } else {
        generators
            .iter()
            .map(|generator| generator(&ctx) + "\n")
            .collect()
    };

    match &write_path {
        Some(path) => {
            std::fs::write(path, &output).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(output.as_bytes());
        }
    }

    if let (Some(format), Some(registry)) = (metrics, &registry) {
        let snapshot = registry.snapshot();
        let rendered = match format {
            MetricsFormat::Text => snapshot.render_text(),
            MetricsFormat::Json => snapshot.render_json(),
            MetricsFormat::Det => snapshot.render_deterministic_json(),
        };
        eprintln!("{rendered}");
        let sidecar = match format {
            MetricsFormat::Json => Some(("metrics.json", snapshot.render_json())),
            MetricsFormat::Det => Some(("metrics.det.json", snapshot.render_deterministic_json())),
            MetricsFormat::Text => None,
        };
        if let (Some((suffix, body)), Some(path)) = (sidecar, &write_path) {
            let metrics_path = format!("{path}.{suffix}");
            std::fs::write(&metrics_path, body).unwrap_or_else(|e| {
                eprintln!("cannot write {metrics_path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {metrics_path}");
        }
    }

    if let (Some(path), Some(registry)) = (&trace_path, &registry) {
        let snapshot = registry
            .trace_snapshot()
            .expect("--trace runs under a tracing registry");
        let mut json = snapshot.render_chrome_json();
        json.push('\n');
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "wrote {path} ({} trace events)",
            snapshot.root.event_count()
        );
    }

    if bench {
        let registry = registry.as_deref().expect("--bench runs under a registry");
        let bench = idnre_bench::measure(&ctx, &spec, registry);
        eprint!("{}", idnre_bench::render_bench_text(&bench));
        let bench_path = "BENCH_pipeline.json";
        let mut json = idnre_bench::render_bench_json(&bench);
        json.push('\n');
        std::fs::write(bench_path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {bench_path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {bench_path}");
    }

    if let (Some(spec), Some(registry)) = (&slo, &registry) {
        let report = spec.evaluate(&registry.snapshot());
        eprint!("{}", report.render_text());
        std::process::exit(report.status.exit_code());
    }

    if let Some(health) = &ctx.health {
        eprintln!(
            "run health: {} — {} ok / {} errors / {} shed ({}‰ observed, {}‰ allowed)",
            health.status.label(),
            health.ok,
            health.errors,
            health.shed,
            health.error_per_mille,
            health.allowed_per_mille,
        );
        if let Some(sched) = &health.sched {
            eprintln!(
                "crawl scheduler: {} arrivals, {} attempts, {} shed ({} admission / {} breaker / {} starved), {} deferred, breakers {} opened / {} reclosed",
                sched.arrivals,
                sched.attempts,
                sched.shed_total(),
                sched.shed_admission,
                sched.shed_breaker,
                sched.shed_starved,
                sched.deferred,
                sched.breaker_opened,
                sched.breaker_reclosed,
            );
        }
        std::process::exit(health.status.exit_code());
    }

    // Every output is written. Return without dropping the context, as
    // the `process::exit` paths above do: freeing its corpus, artifacts
    // and fold block by block would only delay the exit.
    std::mem::forget(ctx);
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: repro [--scale N] [--attack-scale N] [--seed N] [--threads N] [--write PATH] \
         [--metrics text|json|det] [--stream] [--shard-size N] \
         [--faults none|smoke|flaky|storm|SEED|PROFILE:SEED] \
         [--crawl-sched] [--bench] [--dump-dataset PATH] [--trace PATH] \
         [--slo smoke|tight] [--mine-portfolios] \
         [--epochs N] [--churn-per-mille M] <experiment...>\n\
         exit codes with --faults or --slo: 0 clean, 3 degraded, 4 budget/bound exceeded\n\
         experiments: all {}",
        reports::ALL
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}
