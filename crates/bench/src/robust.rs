//! The crawl front end and degrade-and-continue: the host model behind
//! every crawl, the fault-injected crawl and WHOIS surveys of a
//! `--faults` run, lenient zone ingest, the error budget that grades a
//! faulted run, and the "Run health" report section.
//!
//! A clean run crawls only Table V's sample, one record at a time inside
//! the content pass (`sample_crawl`); it runs no corpus-wide survey. The
//! strict pipeline treats every input as pristine and every query as
//! answered; the faulted surveys are the other half of the reproduction
//! story. A seeded [`FaultPlan`] corrupts a slice of the zone and WHOIS
//! corpora and makes a slice of crawl attempts fail; the lenient parsers
//! and the retry executor absorb what they can; whatever is genuinely
//! lost lands in an [`ErrorBudget`] whose verdict — clean, degraded,
//! budget-exceeded — becomes the process exit code. Everything here is
//! driven by virtual time and stateless hashes, so a fixed fault spec
//! replays byte-for-byte across runs *and* across worker-thread counts.

use crate::CorpusView;
use idnre_analyze::Population;
use idnre_arena::fnv1a;
use idnre_crawler::{
    sched_slice_span, survey_slice_span, AuthBehavior, Crawler, FaultContext, Page, PageKind,
    UsageCategory, ATTEMPTS_HISTOGRAM, FAULT_COUNTERS, OUTCOME_COUNTERS, RETRY_COUNTERS,
    SCHED_COUNTERS, SCHED_LATENCY_HISTOGRAM, SCHED_SLICE_SPAN, SURVEY_SLICE_RECORDS,
    SURVEY_SLICE_SPAN, USAGE_COUNTERS,
};
use idnre_datagen::{DerivedZones, DomainRegistration, Ecosystem};
use idnre_fault::{ErrorBudget, FaultPlan, RetryPolicy, RunStatus, SimClock};
use idnre_sched::{SchedConfig, SchedStats};
use idnre_telemetry::{Recorder, SpanCtx};
use idnre_whois::{CrawlStats, ServerPolicy, WhoisCrawler, CRAWL_COUNTERS};
use idnre_zonefile::{parse_zone_lenient, write_zone, Zone};
use std::net::Ipv4Addr;
use std::ops::Range;

/// How a faulted run is configured: the fault schedule, the retry
/// discipline, and whether the crawl survey runs through the scheduler.
/// The surveys run on [`idnre_datagen::EcosystemConfig::threads`] workers
/// like every other stage; the results are identical for any count.
#[derive(Debug, Clone, Copy)]
pub struct FaultSetup {
    /// Which attempts and records fail, and how often.
    pub plan: FaultPlan,
    /// Attempts, backoff and deadline per crawl target.
    pub policy: RetryPolicy,
    /// When set, the crawl survey runs through the event-driven
    /// scheduler (bounded window, rate limits, breakers, load shedding)
    /// instead of the per-domain synchronous schedules.
    pub sched: Option<SchedConfig>,
}

impl FaultSetup {
    /// A setup with the default retry policy and the synchronous survey.
    pub fn from_plan(plan: FaultPlan) -> Self {
        FaultSetup {
            plan,
            policy: RetryPolicy::default(),
            sched: None,
        }
    }

    /// Enables the scheduled crawl survey, carrying this setup's retry
    /// policy into the scheduler configuration.
    pub fn with_sched(self, sched: SchedConfig) -> Self {
        FaultSetup {
            sched: Some(SchedConfig {
                policy: self.policy,
                ..sched
            }),
            ..self
        }
    }
}

/// What a lenient ingest stage attempted and lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records (zone lines) attempted.
    pub attempted: u64,
    /// Records skipped as unparseable.
    pub skipped: u64,
}

impl IngestStats {
    /// Fraction that survived, per mille (1000 when nothing was attempted).
    pub fn coverage_per_mille(&self) -> u64 {
        ((self.attempted - self.skipped.min(self.attempted)) * 1000)
            .checked_div(self.attempted)
            .unwrap_or(1000)
    }
}

/// Deterministic aggregate of a fault-injected crawl survey. Every field
/// is derived from seeded hashes and virtual clocks, so two runs with the
/// same [`FaultSetup`] produce `==` values regardless of thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SurveyStats {
    /// Domains crawled.
    pub domains: u64,
    /// DNS attempts performed across all schedules.
    pub attempts: u64,
    /// Retries performed (DNS + HTTP).
    pub retries: u64,
    /// Schedules that ended exhausted (no terminal success).
    pub exhausted: u64,
    /// Schedules cut short by the per-target deadline.
    pub deadline_hit: u64,
    /// Faults injected across all attempts.
    pub faults_injected: u64,
    /// Domains whose terminal verdict was manufactured by a fault.
    pub terminal_faulted: u64,
    /// Virtual backoff slept, in nanoseconds.
    pub backoff_nanos: u64,
}

impl SurveyStats {
    fn merge(&mut self, other: &SurveyStats) {
        self.domains += other.domains;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.exhausted += other.exhausted;
        self.deadline_hit += other.deadline_hit;
        self.faults_injected += other.faults_injected;
        self.terminal_faulted += other.terminal_faulted;
        self.backoff_nanos += other.backoff_nanos;
    }
}

/// Position of `category` in [`UsageCategory::ALL`] (Table V row order).
pub(crate) fn usage_index(category: UsageCategory) -> usize {
    UsageCategory::ALL
        .iter()
        .position(|&c| c == category)
        .unwrap_or(0)
}

/// The terminal health of one faulted run: what each stage attempted and
/// lost, the error budget's accounting, and the exit-code verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunHealth {
    /// Fault profile name.
    pub profile: &'static str,
    /// Replay seed.
    pub seed: u64,
    /// Retry policy the survey ran under.
    pub policy: RetryPolicy,
    /// Zone-file ingest accounting.
    pub zones: IngestStats,
    /// WHOIS crawl accounting.
    pub whois: CrawlStats,
    /// Crawl survey accounting.
    pub survey: SurveyStats,
    /// Records the budget saw succeed.
    pub ok: u64,
    /// Records the budget saw fail (fault-layer damage only).
    pub errors: u64,
    /// Records the scheduler deliberately shed (counted as lost coverage,
    /// not as errors).
    pub shed: u64,
    /// The budget's allowance, per mille.
    pub allowed_per_mille: u32,
    /// Observed error rate, per mille.
    pub error_per_mille: u64,
    /// Scheduler accounting, when the survey ran through the event-driven
    /// scheduler.
    pub sched: Option<SchedStats>,
    /// The verdict that becomes the process exit code.
    pub status: RunStatus,
}

impl RunHealth {
    /// Renders the "Run health" markdown section appended to faulted
    /// reports. Deterministic for a fixed fault spec: every number comes
    /// from seeded hashes and virtual clocks.
    pub fn render(&self) -> String {
        let whois_attempted = self.whois.parsed
            + self.whois.blocked
            + self.whois.parse_failures
            + self.whois.no_server;
        let whois_per_mille = (self.whois.parsed as u64 * 1000)
            .checked_div(whois_attempted as u64)
            .unwrap_or(1000);
        let mut out = String::new();
        out.push_str("## Run health\n\n");
        out.push_str(&format!(
            "Fault profile `{}`, seed {:#x}; retry policy: {} attempts, \
             {} ms base backoff ×{}, {} s per-target deadline. Partial results \
             below are annotated with coverage instead of being discarded.\n\n",
            self.profile,
            self.seed,
            self.policy.max_attempts,
            self.policy.base_backoff_nanos / 1_000_000,
            self.policy.backoff_multiplier,
            self.policy.deadline_nanos / 1_000_000_000,
        ));
        out.push_str("| Stage | Attempted | Lost | Coverage |\n");
        out.push_str("|---|---:|---:|---:|\n");
        out.push_str(&format!(
            "| Zone ingest (lenient) | {} lines | {} skipped | {} |\n",
            self.zones.attempted,
            self.zones.skipped,
            per_mille_pct(self.zones.coverage_per_mille()),
        ));
        out.push_str(&format!(
            "| WHOIS crawl | {} domains | {} blocked, {} unparsed, {} no server | {} |\n",
            whois_attempted,
            self.whois.blocked,
            self.whois.parse_failures,
            self.whois.no_server,
            per_mille_pct(whois_per_mille),
        ));
        let survey_ok_per_mille = ((self.survey.domains - self.survey.terminal_faulted) * 1000)
            .checked_div(self.survey.domains)
            .unwrap_or(1000);
        out.push_str(&format!(
            "| Crawl survey | {} domains | {} fault-terminal | {} |\n\n",
            self.survey.domains,
            self.survey.terminal_faulted,
            per_mille_pct(survey_ok_per_mille),
        ));
        out.push_str(&format!(
            "Retry schedule: {} DNS attempts over {} domains, {} retries, \
             {} schedules exhausted, {} deadline-cut, {} faults injected, \
             {} ms virtual backoff.\n\n",
            self.survey.attempts,
            self.survey.domains,
            self.survey.retries,
            self.survey.exhausted,
            self.survey.deadline_hit,
            self.survey.faults_injected,
            self.survey.backoff_nanos / 1_000_000,
        ));
        if let Some(sched) = &self.sched {
            out.push_str(&format!(
                "Crawl scheduler: {} arrivals, {} attempts, {} executed / \
                 {} shed ({} admission, {} breaker-open, {} starved), \
                 {} rate-deferred; breakers opened {} / half-open {} / \
                 reclosed {}; peak queue {} / peak in-flight {}; max query \
                 latency {} ms.\n\n",
                sched.arrivals,
                sched.attempts,
                sched.arrivals - sched.shed_total(),
                sched.shed_total(),
                sched.shed_admission,
                sched.shed_breaker,
                sched.shed_starved,
                sched.deferred,
                sched.breaker_opened,
                sched.breaker_half_open,
                sched.breaker_reclosed,
                sched.peak_queue_depth,
                sched.peak_inflight,
                sched.max_latency_nanos / 1_000_000,
            ));
        }
        out.push_str(&format!(
            "Error budget: {} ok / {} errors / {} shed — {}‰ observed \
             against {}‰ allowed → **{}** (exit code {}).\n",
            self.ok,
            self.errors,
            self.shed,
            self.error_per_mille,
            self.allowed_per_mille,
            self.status.label(),
            self.status.exit_code(),
        ));
        out
    }
}

fn per_mille_pct(per_mille: u64) -> String {
    format!("{}.{}%", per_mille / 10, per_mille % 10)
}

/// The fixed [`SURVEY_SLICE_RECORDS`]-domain windows of the corpus order
/// (IDN population first) that the faulted surveys fan out over. A window
/// may straddle the population boundary. They never depend on the thread
/// count or the shard size.
fn survey_windows(view: &CorpusView<'_>) -> Vec<Range<u64>> {
    let total = view.len();
    (0..total)
        .step_by(SURVEY_SLICE_RECORDS)
        .map(|start| start..total.min(start + SURVEY_SLICE_RECORDS as u64))
        .collect()
}

/// Derives the zone files of the corpus behind `view` ([`derive_zones`]:
/// the generator emits none), then round-trips them through master-file
/// text with seeded line corruption and re-ingests them leniently:
/// corrupted lines are skipped and accounted (`zone.lenient.skipped`, the
/// error budget), and the salvaged zones are what the faulted crawl survey
/// loads (no crawl outcome depends on them; see [`crawl_survey`]). Strict
/// parsing would abort on the first corrupt line; this is the
/// degrade-and-continue path. Registrations that get no NS line land in
/// `datagen.zones.skipped`, and a streamed view regenerates each shard once
/// more for the derivation.
///
/// Each zone is one shard on the work-queue executor: corruption is a
/// stateless hash of `(origin, line)` and the salvaged zones come back in
/// input order, so the result is byte-identical for every `threads`.
fn ingest_zones_faulted(
    view: &CorpusView<'_>,
    plan: &FaultPlan,
    budget: &ErrorBudget,
    threads: usize,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (Vec<Zone>, IngestStats) {
    let mut span = recorder.span_at("zone.ingest.lenient", parent, 0);
    let derived = derive_zones(view, threads);
    recorder.add("datagen.zones.skipped", derived.skipped);
    let per_zone = idnre_par::par_map(&derived.zones, threads, |zone| {
        let origin = zone.origin.to_string();
        let text: String = write_zone(zone)
            .lines()
            .enumerate()
            .map(|(i, line)| {
                // Directives stay intact: losing `$ORIGIN` would poison
                // every following line, which is not the failure mode a
                // per-record corruption models.
                if !line.starts_with('$') && plan.corrupts("zone", &format!("{origin}:{i}")) {
                    "xn--damaged IN GARBLED ???\n".to_string()
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        let lenient = parse_zone_lenient(&origin, &text);
        budget.record_ok(lenient.parsed() as u64);
        budget.record_error(lenient.errors.len() as u64);
        let shard_stats = IngestStats {
            attempted: lenient.attempted as u64,
            skipped: lenient.errors.len() as u64,
        };
        (lenient.zone, shard_stats)
    });
    let mut stats = IngestStats::default();
    let mut salvaged = Vec::with_capacity(per_zone.len());
    for (zone, shard_stats) in per_zone {
        stats.attempted += shard_stats.attempted;
        stats.skipped += shard_stats.skipped;
        salvaged.push(zone);
    }
    recorder.add("zone.lenient.attempted", stats.attempted);
    recorder.add("zone.lenient.skipped", stats.skipped);
    span.add_records(stats.attempted);
    (salvaged, stats)
}

/// The zone files of the corpus behind `view`, derived on `threads`
/// workers: one [`DerivedZones::derive`] part per [`survey_windows`]
/// window, fetched through the view shard by shard, appended in window
/// order. Equal to one pass over the resident corpus for any view and
/// worker count.
fn derive_zones(view: &CorpusView<'_>, threads: usize) -> DerivedZones {
    let parts = idnre_par::par_chunks(&survey_windows(view), threads, 1, |_, window| {
        let mut part = DerivedZones::derive([]);
        view.for_each_shard(window[0].clone(), &mut |records| {
            part.append(DerivedZones::derive([records]))
        });
        part
    });
    let mut zones = DerivedZones::derive([]);
    for part in parts {
        zones.append(part);
    }
    zones
}

/// Runs the faulted surveys of a [`crate::RunSpec::faults`] build over
/// `view`, on `threads` workers: the zones, derived from `view`,
/// round-trip through lenient ingest with seeded corruption, the WHOIS
/// crawl sees corrupted transfers, and the crawl survey (synchronous, or
/// through the event-driven scheduler when [`FaultSetup::sched`] is set)
/// runs the full retry schedule. The damage lands in one [`ErrorBudget`], whose verdict
/// the returned [`RunHealth`] carries. Every view over the same corpus —
/// resident or streamed, at any walk size — yields the same health.
pub fn faulted_surveys(
    view: &CorpusView<'_>,
    eco: &Ecosystem,
    setup: &FaultSetup,
    threads: usize,
    recorder: &dyn Recorder,
) -> RunHealth {
    let budget = ErrorBudget::new(setup.plan.profile().budget_per_mille);
    let (zones, zone_stats) =
        ingest_zones_faulted(view, &setup.plan, &budget, threads, recorder, SpanCtx::ROOT);
    let whois = whois_survey(view, eco, &setup.plan, &budget, recorder, SpanCtx::ROOT);
    let (survey, sched) = crawl_survey(
        view,
        &zones,
        setup,
        threads,
        &budget,
        recorder,
        SpanCtx::ROOT,
    );
    RunHealth {
        profile: setup.plan.profile().name,
        seed: setup.plan.seed(),
        policy: setup.policy,
        zones: zone_stats,
        whois,
        survey,
        ok: budget.ok(),
        errors: budget.errors(),
        shed: budget.shed(),
        allowed_per_mille: budget.allowed_per_mille(),
        error_per_mille: budget.error_per_mille(),
        sched,
        status: budget.status(),
    }
}

/// Replays the paper's WHOIS collection over the registered IDN corpus so
/// the ≈50% coverage story is *observable*: registrations the generator
/// covered serve well-formed responses; uncovered ones split between
/// registrar blocks and unparseable dialects (the paper's two loss
/// reasons). A slice of the covered responses arrives corrupted under
/// `plan` — those parse failures are the fault layer's damage and feed the
/// error budget. Telemetry lands in [`CRAWL_COUNTERS`]
/// (`whois.parse.failed` among them) plus `whois.coverage.per_mille`.
///
/// A resident view crawls the whole IDN population as one batch; a
/// streamed view crawls one regenerated shard at a time against the same
/// (stateful) crawler, which is exactly additive — the stats, counters
/// and budget are identical to the batch run.
pub(crate) fn whois_survey(
    view: &CorpusView<'_>,
    eco: &Ecosystem,
    plan: &FaultPlan,
    budget: &ErrorBudget,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> CrawlStats {
    let mut span = recorder.span_at("whois.survey", parent, 0);
    recorder.preregister(&CRAWL_COUNTERS);
    let mut crawler = WhoisCrawler::new();
    crawler.add_server(
        "open-registrar",
        ServerPolicy {
            rate_limit: u32::MAX,
            blocks_crawlers: false,
            // Parse success is decided by response content here, not a
            // second lottery.
            unparseable_per_mille: 0,
        },
    );
    crawler.add_server("blocking-registrar", ServerPolicy::blocking());

    let covered: std::collections::HashSet<&str> =
        eco.whois.iter().map(|r| r.domain.as_str()).collect();
    let mut stats = CrawlStats::default();
    let idn = 0..view.source.population_len(Population::Idn);
    view.for_each_shard(idn, &mut |records| {
        let batch: Vec<(&str, String)> = records
            .iter()
            .map(|reg| {
                let domain = reg.domain.as_str();
                if covered.contains(domain) {
                    if plan.corrupts("whois", domain) {
                        budget.record_error(1);
                        // A mangled transfer: no parseable field survives.
                        (
                            "open-registrar",
                            "@@ %% corrupted transfer %% @@\n".to_string(),
                        )
                    } else {
                        budget.record_ok(1);
                        (
                            "open-registrar",
                            format!(
                                "Domain Name: {domain}\nRegistrar: {}\nName Server: ns1.{domain}\n",
                                reg.registrar
                            ),
                        )
                    }
                } else {
                    // The generator withheld WHOIS here; attribute the gap to
                    // the paper's two reasons (blocks dominate).
                    let roll = fnv1a(domain.as_bytes()) % 5;
                    if roll < 3 {
                        ("blocking-registrar", format!("Domain Name: {domain}\n"))
                    } else {
                        ("open-registrar", "≡≡ unsupported dialect ≡≡\n".to_string())
                    }
                }
            })
            .collect();
        let (_, shard_stats) =
            crawler.crawl_batch_recorded(batch.iter().map(|(s, r)| (*s, r.as_str())), recorder);
        stats.parsed += shard_stats.parsed;
        stats.blocked += shard_stats.blocked;
        stats.parse_failures += shard_stats.parse_failures;
        stats.no_server += shard_stats.no_server;
    });
    let attempted = stats.parsed + stats.blocked + stats.parse_failures + stats.no_server;
    if attempted > 0 {
        recorder.add(
            "whois.coverage.per_mille",
            stats.parsed as u64 * 1000 / attempted as u64,
        );
    }
    span.add_records(attempted as u64);
    stats
}

/// What one crawl-survey window runs per domain.
#[derive(Clone, Copy)]
enum SurveyMode<'a> {
    /// The synchronous retry schedule, one virtual clock per domain.
    Faulted(FaultContext),
    /// One event-driven scheduler instance per window.
    Scheduled(&'a FaultPlan, &'a SchedConfig),
}

/// Replays the paper's Section IV-D measurement front end (resolve →
/// fetch → classify) under `setup`'s fault schedule over every registered
/// domain of `view`: the retry schedule and the event-driven scheduler
/// differ only in what runs per window.
///
/// Builds one [`Crawler`] from `zones` plus each record's modelled host,
/// then walks the [`survey_windows`] on `threads` workers, each under its
/// own slice span. A window is fetched through the view at most
/// `view.walk` records at a time, so a streamed build holds one shard per
/// worker. Per window:
///
/// * without [`FaultSetup::sched`] — span `crawl.survey.faulted`:
///   [`Crawler::crawl_faulted`] per domain on its own virtual clock; a
///   fault-made terminal verdict is an error on `budget`.
/// * with it — span `crawl.survey.sched`: one deterministic scheduler per
///   window ([`Crawler::crawl_slice_scheduled`]); shed domains count as
///   shed on `budget`, never as errors.
///
/// The windows never depend on `threads` (the scheduler's verdicts depend
/// on which domains share one) and merge in window order, so the stats,
/// the counters and the budget are identical at any worker count and for
/// any view over the same corpus.
///
/// No crawl outcome depends on `zones`: every record gets a modelled
/// host behaviour, and setting one marks the name delegated
/// ([`idnre_crawler::Resolver::set_behavior`]), so a zone line lost to
/// lenient ingest changes nothing. The zones are loaded for fidelity to
/// the paper's front end only.
fn crawl_survey(
    view: &CorpusView<'_>,
    zones: &[Zone],
    setup: &FaultSetup,
    threads: usize,
    budget: &ErrorBudget,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (SurveyStats, Option<SchedStats>) {
    let mode = match &setup.sched {
        Some(config) => SurveyMode::Scheduled(&setup.plan, config),
        None => SurveyMode::Faulted(FaultContext {
            plan: setup.plan,
            policy: setup.policy,
        }),
    };
    let name = match mode {
        SurveyMode::Faulted(_) => "crawl.survey.faulted",
        SurveyMode::Scheduled(..) => "crawl.survey.sched",
    };
    let mut span = recorder.span_at(name, parent, 0);
    let total = view.len();
    let mut crawler = Crawler::new();
    for zone in zones {
        crawler.add_zone(zone);
    }
    view.for_each(0..total, &mut |reg| {
        let (behavior, page) = host_model(reg);
        crawler.set_host(&reg.domain, behavior, page);
    });
    // Pre-register every counter and stage the workers touch, so snapshot
    // order cannot depend on which worker reaches a name first; the full
    // outcome set leads, so a snapshot always carries all five.
    match mode {
        SurveyMode::Faulted(_) => {
            recorder.preregister_groups(&[
                &OUTCOME_COUNTERS[..],
                &RETRY_COUNTERS[..],
                &FAULT_COUNTERS[..],
                &USAGE_COUNTERS[..],
            ]);
            recorder.preregister_stages(&[ATTEMPTS_HISTOGRAM, SURVEY_SLICE_SPAN]);
        }
        SurveyMode::Scheduled(..) => {
            recorder.preregister_groups(&[
                &OUTCOME_COUNTERS[..],
                &RETRY_COUNTERS[..],
                &FAULT_COUNTERS[..],
                &USAGE_COUNTERS[..],
                &SCHED_COUNTERS[..],
            ]);
            recorder.preregister_stages(&[
                ATTEMPTS_HISTOGRAM,
                SCHED_LATENCY_HISTOGRAM,
                SCHED_SLICE_SPAN,
            ]);
        }
    }

    let crawler = &crawler;
    let survey_ctx = span.ctx();
    let per_window = idnre_par::par_chunks(&survey_windows(view), threads, 1, |index, window| {
        let window = window[0].clone();
        let mut slice_span = match mode {
            SurveyMode::Faulted(_) => survey_slice_span(recorder, survey_ctx, index as u64),
            SurveyMode::Scheduled(..) => sched_slice_span(recorder, survey_ctx, index as u64),
        };
        slice_span.add_records(window.end - window.start);
        let mut local = SurveyStats::default();
        let sched = match mode {
            SurveyMode::Faulted(ctx) => {
                view.for_each(window, &mut |reg| {
                    let mut clock = SimClock::new();
                    let crawl = crawler.crawl_faulted(&reg.domain, &ctx, &mut clock, recorder);
                    local.domains += 1;
                    local.attempts += u64::from(crawl.resolution.attempts);
                    local.retries += u64::from(crawl.resolution.retries)
                        + u64::from(crawl.http_attempts.saturating_sub(1));
                    local.exhausted += u64::from(crawl.resolution.exhausted);
                    local.deadline_hit += u64::from(crawl.resolution.deadline_hit);
                    local.faults_injected += u64::from(crawl.faults_injected);
                    local.terminal_faulted += u64::from(crawl.terminal_faulted);
                    local.backoff_nanos += crawl.resolution.backoff_nanos;
                    charge(budget, false, crawl.terminal_faulted);
                });
                None
            }
            SurveyMode::Scheduled(plan, config) => {
                let mut domains = Vec::with_capacity(SURVEY_SLICE_RECORDS);
                view.for_each(window, &mut |reg| domains.push(reg.domain.clone()));
                let out = crawler.crawl_slice_scheduled(&domains, plan, config, recorder);
                for crawl in &out.crawls {
                    local.domains += 1;
                    local.attempts += u64::from(crawl.attempts);
                    local.retries += u64::from(crawl.retries);
                    local.exhausted += u64::from(crawl.exhausted);
                    local.deadline_hit += u64::from(crawl.deadline_hit);
                    local.faults_injected += u64::from(crawl.faults_injected);
                    local.terminal_faulted += u64::from(crawl.terminal_faulted);
                    local.backoff_nanos += crawl.backoff_nanos;
                    charge(budget, crawl.shed.is_some(), crawl.terminal_faulted);
                }
                Some(out.stats)
            }
        };
        (local, sched)
    });
    let mut stats = SurveyStats::default();
    let mut sched = matches!(mode, SurveyMode::Scheduled(..)).then(SchedStats::default);
    for (local, window_sched) in &per_window {
        stats.merge(local);
        if let (Some(sched), Some(window_sched)) = (&mut sched, window_sched) {
            sched.merge(window_sched);
        }
    }
    span.add_records(stats.domains);
    (stats, sched)
}

/// Charges one surveyed domain to `budget`: shed (lost coverage, never an
/// error), an error when its terminal verdict was fault-made, else ok.
fn charge(budget: &ErrorBudget, shed: bool, terminal_faulted: bool) {
    if shed {
        budget.record_shed(1);
    } else if terminal_faulted {
        budget.record_error(1);
    } else {
        budget.record_ok(1);
    }
}

/// Crawls one record of Table V's sample: resolve → fetch → classify
/// through a one-host [`Crawler`] serving the record's [`host_model`]
/// host. Records nothing, so the sample crawl never mixes into the
/// faulted survey's `crawler.*` counters; its cost shows up in the
/// content pass's shard spans.
pub(crate) fn sample_crawl(reg: &DomainRegistration) -> UsageCategory {
    let (behavior, page) = host_model(reg);
    let mut crawler = Crawler::new();
    crawler.set_host(&reg.domain, behavior, page);
    crawler.crawl(&reg.domain)
}

/// Derives a deterministic authoritative-server model from a registration's
/// ground-truth content category; every record gets a behaviour. The
/// unresolved population spreads over REFUSED, SERVFAIL, timeouts and
/// explicit lame delegations. It is the pipeline's only reader of
/// `reg.content`: every crawl, sampled or faulted, measures the category
/// through the host this returns.
fn host_model(reg: &DomainRegistration) -> (AuthBehavior, Option<Page>) {
    let hash = fnv1a(reg.domain.as_bytes());
    let ip = Ipv4Addr::new(203, 0, 113, (hash % 254 + 1) as u8);
    let answer = AuthBehavior::Answer(ip);
    match reg.content {
        UsageCategory::NotResolved => {
            // The paper: "all resolution errors come from name servers" —
            // spread the failure modes over the unresolved population.
            let behavior = match hash % 4 {
                0 => AuthBehavior::Refuse,
                1 => AuthBehavior::ServFail,
                2 => AuthBehavior::Timeout,
                _ => AuthBehavior::Lame,
            };
            (behavior, None)
        }
        UsageCategory::Error => (answer, None),
        UsageCategory::Empty => (answer, Some(Page::new(200, "", PageKind::Empty))),
        UsageCategory::Parked => (
            answer,
            Some(Page::new(200, "Domain parked", PageKind::Parking)),
        ),
        UsageCategory::ForSale => (
            answer,
            Some(Page::new(200, "Domain for sale", PageKind::ForSale)),
        ),
        UsageCategory::Redirected => (
            answer,
            Some(Page::new(
                200,
                "Redirecting",
                PageKind::Redirect("https://destination.example/".to_string()),
            )),
        ),
        _ => (
            answer,
            Some(Page::new(200, &reg.unicode, PageKind::Content)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_analyze::{SliceSource, StreamSource};
    use idnre_datagen::EcosystemConfig;
    use idnre_telemetry::NoopRecorder;

    /// The faulted ingest's parallel, windowed derivation equals one
    /// resident pass, skipped count included, over every view: the
    /// resident source, and streamed sources whose shards split the
    /// windows at odd, small and large sizes, at any worker count.
    #[test]
    fn windowed_zones_equal_the_resident_derivation() {
        let config = EcosystemConfig {
            scale: 500,
            attack_scale: 25,
            ..EcosystemConfig::default()
        };
        let eco = Ecosystem::generate(&config);
        let expected = eco.derive_zones();
        let resident = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
        let view = CorpusView::resident(&resident);
        assert!(
            survey_windows(&view).len() > 1,
            "corpus too small to split into windows"
        );
        for threads in [1, 2, 8] {
            assert_eq!(
                derive_zones(&view, threads),
                expected,
                "resident, {threads} threads"
            );
        }
        for shard_size in [7, 64, 1024] {
            let (_, corpus, _) =
                idnre_datagen::generate_streamed(&config, shard_size, &NoopRecorder);
            let source = StreamSource::new(&corpus);
            let view = CorpusView {
                source: &source,
                walk: shard_size,
            };
            for threads in [1, 2, 8] {
                assert_eq!(
                    derive_zones(&view, threads),
                    expected,
                    "shard size {shard_size}, {threads} threads"
                );
            }
        }
    }
}
