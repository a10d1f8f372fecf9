//! Degrade-and-continue: fault-injected ingest and survey harnesses, the
//! error budget that grades the run, and the "Run health" report section.
//!
//! The strict pipeline treats every input as pristine and every query as
//! answered; this module is the other half of the reproduction story. A
//! seeded [`FaultPlan`] corrupts a slice of the zone and WHOIS corpora and
//! makes a slice of crawl attempts fail; the lenient parsers and the retry
//! executor absorb what they can; whatever is genuinely lost lands in an
//! [`ErrorBudget`] whose verdict — clean, degraded, budget-exceeded —
//! becomes the process exit code. Everything here is driven by virtual
//! time and stateless hashes, so a fixed fault spec replays byte-for-byte
//! across runs *and* across worker-thread counts.

use crate::CorpusView;
use idnre_analyze::{Population, SliceSource};
use idnre_crawler::{
    Crawler, FaultContext, ResolutionOutcome, UsageCategory, ATTEMPTS_HISTOGRAM, FAULT_COUNTERS,
    OUTCOME_COUNTERS, RETRY_COUNTERS, SCHED_COUNTERS, SCHED_LATENCY_HISTOGRAM, USAGE_COUNTERS,
};
use idnre_datagen::Ecosystem;
use idnre_fault::{ErrorBudget, FaultPlan, RetryPolicy, RunStatus, SimClock};
use idnre_sched::{SchedConfig, SchedStats};
use idnre_telemetry::{Recorder, SpanCtx};
use idnre_whois::{CrawlStats, ServerPolicy, WhoisCrawler, CRAWL_COUNTERS};
use idnre_zonefile::{parse_zone_lenient, write_zone, Zone};

/// How a faulted run is configured: the fault schedule, the retry
/// discipline, and how many survey worker threads to use (the results are
/// identical for any thread count; threads only change wall time).
#[derive(Debug, Clone, Copy)]
pub struct FaultSetup {
    /// Which attempts and records fail, and how often.
    pub plan: FaultPlan,
    /// Attempts, backoff and deadline per crawl target.
    pub policy: RetryPolicy,
    /// Survey worker threads (clamped to 1..=64).
    pub threads: usize,
    /// When set, the crawl survey runs through the event-driven
    /// scheduler (bounded window, rate limits, breakers, load shedding)
    /// instead of the per-domain synchronous schedules.
    pub sched: Option<SchedConfig>,
}

impl FaultSetup {
    /// A setup with the default retry policy, on the machine's available
    /// parallelism.
    pub fn from_plan(plan: FaultPlan) -> Self {
        FaultSetup {
            plan,
            policy: RetryPolicy::default(),
            threads: idnre_par::default_threads(),
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
    /// Virtual time consumed, in nanoseconds.
    pub elapsed_nanos: u64,
    /// Resolution outcomes in [`OUTCOME_COUNTERS`] order.
    pub outcomes: [u64; 5],
    /// Usage categories in [`UsageCategory::ALL`] order.
    pub usage: [u64; 7],
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
        self.elapsed_nanos += other.elapsed_nanos;
        for i in 0..self.outcomes.len() {
            self.outcomes[i] += other.outcomes[i];
        }
        for i in 0..self.usage.len() {
            self.usage[i] += other.usage[i];
        }
    }
}

fn outcome_index(outcome: ResolutionOutcome) -> usize {
    match outcome {
        ResolutionOutcome::Resolved(_) => 0,
        ResolutionOutcome::NxDomain => 1,
        ResolutionOutcome::Refused => 2,
        ResolutionOutcome::ServFail => 3,
        _ => 4, // Timeout (and any future outcome folds into the slowest bin)
    }
}

fn usage_index(category: UsageCategory) -> usize {
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
    /// Folds the per-stage accounting and the budget's verdict into the
    /// run's terminal health.
    pub fn new(
        setup: &FaultSetup,
        zones: IngestStats,
        whois: CrawlStats,
        survey: SurveyStats,
        budget: &ErrorBudget,
    ) -> Self {
        Self::with_sched(setup, zones, whois, survey, budget, None)
    }

    /// [`RunHealth::new`] with the scheduler's accounting attached (the
    /// scheduled-survey path).
    pub fn with_sched(
        setup: &FaultSetup,
        zones: IngestStats,
        whois: CrawlStats,
        survey: SurveyStats,
        budget: &ErrorBudget,
        sched: Option<SchedStats>,
    ) -> Self {
        RunHealth {
            profile: setup.plan.profile().name,
            seed: setup.plan.seed(),
            policy: setup.policy,
            zones,
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

/// Round-trips the generated zones through master-file text with seeded
/// line corruption, then re-ingests them leniently: corrupted lines are
/// skipped and accounted (`zone.lenient.skipped`, the error budget), and
/// the salvaged zones feed the crawl survey. Strict parsing would abort
/// on the first corrupt line; this is the degrade-and-continue path.
///
/// Each zone is one shard on the work-queue executor: corruption is a
/// stateless hash of `(origin, line)` and the salvaged zones come back in
/// input order, so the result is byte-identical for every `threads`.
pub fn ingest_zones_faulted(
    zones: &[Zone],
    plan: &FaultPlan,
    budget: &ErrorBudget,
    threads: usize,
    recorder: &dyn Recorder,
) -> (Vec<Zone>, IngestStats) {
    ingest_zones_faulted_at(zones, plan, budget, threads, recorder, SpanCtx::NONE)
}

/// [`ingest_zones_faulted`], parented at `parent` in the span tree.
pub fn ingest_zones_faulted_at(
    zones: &[Zone],
    plan: &FaultPlan,
    budget: &ErrorBudget,
    threads: usize,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (Vec<Zone>, IngestStats) {
    let mut span = recorder.span_at("zone.ingest.lenient", parent, 0);
    let per_zone = idnre_par::par_map(zones, threads, |zone| {
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
    let mut salvaged = Vec::with_capacity(zones.len());
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

/// Runs the faulted surveys of a [`crate::RunSpec::faults`] build over
/// the materialized corpus: the zones round-trip through lenient ingest
/// with seeded corruption, the WHOIS crawl sees corrupted transfers, and
/// the crawl survey (synchronous, or through the event-driven scheduler
/// when [`FaultSetup::sched`] is set) runs the full retry schedule against
/// the salvaged zones. The damage lands in one [`ErrorBudget`], whose
/// verdict the returned [`RunHealth`] carries.
pub(crate) fn faulted_surveys(
    eco: &Ecosystem,
    setup: &FaultSetup,
    threads: usize,
    recorder: &dyn Recorder,
) -> RunHealth {
    let budget = ErrorBudget::new(setup.plan.profile().budget_per_mille);
    let (zones, zone_stats) = ingest_zones_faulted_at(
        &eco.zones,
        &setup.plan,
        &budget,
        threads,
        recorder,
        SpanCtx::ROOT,
    );
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let whois_stats = whois_survey_view(
        &CorpusView::resident(&source),
        eco,
        Some(&setup.plan),
        Some(&budget),
        recorder,
        SpanCtx::ROOT,
    );
    let (survey, sched) = match &setup.sched {
        Some(sched_config) => {
            let (survey, sched_stats) = crawl_survey_scheduled_at(
                eco,
                &zones,
                &setup.plan,
                sched_config,
                setup.threads,
                &budget,
                recorder,
                SpanCtx::ROOT,
            );
            (survey, Some(sched_stats))
        }
        None => {
            let ctx = FaultContext {
                plan: setup.plan,
                policy: setup.policy,
            };
            let survey = crawl_survey_faulted_at(
                eco,
                &zones,
                &ctx,
                setup.threads,
                &budget,
                recorder,
                SpanCtx::ROOT,
            );
            (survey, None)
        }
    };
    RunHealth::with_sched(setup, zone_stats, whois_stats, survey, &budget, sched)
}

/// Replays the paper's WHOIS collection over the registered IDN corpus so
/// the ≈50% coverage story is *observable*: registrations the generator
/// covered serve well-formed responses; uncovered ones split between
/// registrar blocks and unparseable dialects (the paper's two loss
/// reasons). With a fault plan, a slice of the covered responses arrives
/// corrupted — those parse failures are the fault layer's damage and feed
/// the error budget. Telemetry lands in [`CRAWL_COUNTERS`]
/// (`whois.parse.failed` among them) plus `whois.coverage.per_mille`.
pub fn whois_survey(
    eco: &Ecosystem,
    plan: Option<&FaultPlan>,
    budget: Option<&ErrorBudget>,
    recorder: &dyn Recorder,
) -> CrawlStats {
    let source = SliceSource::new(&eco.idn_registrations, &eco.non_idn_registrations);
    let view = CorpusView::resident(&source);
    whois_survey_view(&view, eco, plan, budget, recorder, SpanCtx::NONE)
}

/// [`whois_survey`] over an arbitrary corpus view: a resident view crawls
/// the whole IDN population as one batch; a streamed view crawls one
/// regenerated shard at a time against the same (stateful) crawler, which
/// is exactly additive — the stats, counters and budget are identical to
/// the batch run.
pub(crate) fn whois_survey_view(
    view: &CorpusView<'_>,
    eco: &Ecosystem,
    plan: Option<&FaultPlan>,
    budget: Option<&ErrorBudget>,
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
    view.for_each_shard(Population::Idn, &mut |records| {
        let batch: Vec<(&str, String)> = records
            .iter()
            .map(|reg| {
                let domain = reg.domain.as_str();
                if covered.contains(domain) {
                    let corrupted = plan.is_some_and(|p| p.corrupts("whois", domain));
                    if let Some(budget) = budget {
                        if corrupted {
                            budget.record_error(1);
                        } else {
                            budget.record_ok(1);
                        }
                    }
                    if corrupted {
                        // A mangled transfer: no parseable field survives.
                        (
                            "open-registrar",
                            "@@ %% corrupted transfer %% @@\n".to_string(),
                        )
                    } else {
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
                    let roll = crate::fnv1a(domain.as_bytes()) % 5;
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

/// The fault-injected counterpart of the plain crawl survey: builds the
/// crawler from the (salvaged) zones, then crawls every registered domain
/// under the retry schedule on `threads` workers. Each domain gets its
/// own virtual clock and a stateless slice of the fault plan, so the
/// aggregate — and every counter — is identical for any thread count.
/// Domains whose terminal verdict was fault-made count against `budget`.
pub fn crawl_survey_faulted(
    eco: &Ecosystem,
    zones: &[Zone],
    ctx: &FaultContext,
    threads: usize,
    budget: &ErrorBudget,
    recorder: &dyn Recorder,
) -> SurveyStats {
    crawl_survey_faulted_at(eco, zones, ctx, threads, budget, recorder, SpanCtx::NONE)
}

/// [`crawl_survey_faulted`], parented at `parent` in the span tree. The
/// population is split into fixed-size slices
/// ([`idnre_crawler::SURVEY_SLICE_RECORDS`] domains each) rather than
/// thread-derived chunks, and every slice runs under its own
/// [`idnre_crawler::survey_slice_span`] — so the survey's subtree has the
/// same shape at any worker count.
pub fn crawl_survey_faulted_at(
    eco: &Ecosystem,
    zones: &[Zone],
    ctx: &FaultContext,
    threads: usize,
    budget: &ErrorBudget,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> SurveyStats {
    let mut span = recorder.span_at("crawl.survey.faulted", parent, 0);
    let mut crawler = Crawler::new();
    for zone in zones {
        crawler.add_zone(zone);
    }
    let population: Vec<&idnre_datagen::DomainRegistration> = eco
        .idn_registrations
        .iter()
        .chain(&eco.non_idn_registrations)
        .collect();
    for reg in &population {
        let (behavior, page) = crate::host_model(reg);
        if let Some(behavior) = behavior {
            crawler.set_host(&reg.domain, behavior, page);
        }
    }
    // Pre-register every counter and the attempts histogram so snapshot
    // ordering cannot depend on which worker thread touches a name first.
    recorder.preregister_groups(&[
        &OUTCOME_COUNTERS[..],
        &RETRY_COUNTERS[..],
        &FAULT_COUNTERS[..],
        &USAGE_COUNTERS[..],
    ]);
    recorder.preregister_stages(&[ATTEMPTS_HISTOGRAM, idnre_crawler::SURVEY_SLICE_SPAN]);

    let crawler = &crawler;
    let survey_ctx = span.ctx();
    let per_chunk = idnre_par::par_chunks(
        &population,
        threads,
        idnre_crawler::SURVEY_SLICE_RECORDS,
        |slice_index, chunk| {
            let mut slice_span =
                idnre_crawler::survey_slice_span(recorder, survey_ctx, slice_index as u64);
            slice_span.add_records(chunk.len() as u64);
            let mut local = SurveyStats::default();
            for reg in chunk {
                let mut clock = SimClock::new();
                let crawl = crawler.crawl_faulted(&reg.domain, ctx, &mut clock, recorder);
                local.domains += 1;
                local.attempts += u64::from(crawl.resolution.attempts);
                local.retries += u64::from(crawl.resolution.retries)
                    + u64::from(crawl.http_attempts.saturating_sub(1));
                local.exhausted += u64::from(crawl.resolution.exhausted);
                local.deadline_hit += u64::from(crawl.resolution.deadline_hit);
                local.faults_injected += u64::from(crawl.faults_injected);
                local.terminal_faulted += u64::from(crawl.terminal_faulted);
                local.backoff_nanos += crawl.resolution.backoff_nanos;
                local.elapsed_nanos += crawl.elapsed_nanos;
                local.outcomes[outcome_index(crawl.resolution.outcome)] += 1;
                local.usage[usage_index(crawl.category)] += 1;
                if crawl.terminal_faulted {
                    budget.record_error(1);
                } else {
                    budget.record_ok(1);
                }
            }
            local
        },
    );
    let mut stats = SurveyStats::default();
    for local in &per_chunk {
        stats.merge(local);
    }
    span.add_records(stats.domains);
    stats
}

/// The event-driven counterpart of [`crawl_survey_faulted`]: the same
/// population, fault plan and host model, but each fixed-size slice runs
/// one deterministic scheduler instance (`idnre-sched`) — shared virtual
/// timeline, bounded in-flight window, per-nameserver rate limits and
/// circuit breakers, and priority-classed load shedding.
///
/// Accounting splits three ways on the error budget: executed domains
/// whose terminal verdict was fault-made are errors, other executed
/// domains are ok, and shed domains are recorded as shed (lost coverage
/// that never counts as error). Slices are fixed-size and each scheduler
/// is single-threaded, so the survey replays byte-identically across
/// worker-thread counts.
pub fn crawl_survey_scheduled(
    eco: &Ecosystem,
    zones: &[Zone],
    plan: &FaultPlan,
    config: &SchedConfig,
    threads: usize,
    budget: &ErrorBudget,
    recorder: &dyn Recorder,
) -> (SurveyStats, SchedStats) {
    crawl_survey_scheduled_at(
        eco,
        zones,
        plan,
        config,
        threads,
        budget,
        recorder,
        SpanCtx::NONE,
    )
}

/// [`crawl_survey_scheduled`], parented at `parent` in the span tree.
#[allow(clippy::too_many_arguments)]
pub fn crawl_survey_scheduled_at(
    eco: &Ecosystem,
    zones: &[Zone],
    plan: &FaultPlan,
    config: &SchedConfig,
    threads: usize,
    budget: &ErrorBudget,
    recorder: &dyn Recorder,
    parent: SpanCtx,
) -> (SurveyStats, SchedStats) {
    let mut span = recorder.span_at("crawl.survey.sched", parent, 0);
    let mut crawler = Crawler::new();
    for zone in zones {
        crawler.add_zone(zone);
    }
    let population: Vec<&idnre_datagen::DomainRegistration> = eco
        .idn_registrations
        .iter()
        .chain(&eco.non_idn_registrations)
        .collect();
    for reg in &population {
        let (behavior, page) = crate::host_model(reg);
        if let Some(behavior) = behavior {
            crawler.set_host(&reg.domain, behavior, page);
        }
    }
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
        idnre_crawler::SCHED_SLICE_SPAN,
    ]);

    let crawler = &crawler;
    let survey_ctx = span.ctx();
    let per_chunk = idnre_par::par_chunks(
        &population,
        threads,
        idnre_crawler::SURVEY_SLICE_RECORDS,
        |slice_index, chunk| {
            let mut slice_span =
                idnre_crawler::sched_slice_span(recorder, survey_ctx, slice_index as u64);
            slice_span.add_records(chunk.len() as u64);
            let domains: Vec<&str> = chunk.iter().map(|reg| reg.domain.as_str()).collect();
            let out = crawler.crawl_slice_scheduled(&domains, plan, config, recorder);
            let mut local = SurveyStats::default();
            for crawl in &out.crawls {
                local.domains += 1;
                local.attempts += u64::from(crawl.attempts);
                local.retries += u64::from(crawl.retries);
                local.exhausted += u64::from(crawl.exhausted);
                local.deadline_hit += u64::from(crawl.deadline_hit);
                local.faults_injected += u64::from(crawl.faults_injected);
                local.terminal_faulted += u64::from(crawl.terminal_faulted);
                local.backoff_nanos += crawl.backoff_nanos;
                local.elapsed_nanos += crawl.latency_nanos;
                if let Some(outcome) = crawl.dns_outcome {
                    local.outcomes[outcome_index(outcome)] += 1;
                }
                if let Some(category) = crawl.category {
                    local.usage[usage_index(category)] += 1;
                }
                if crawl.shed.is_some() {
                    budget.record_shed(1);
                } else if crawl.terminal_faulted {
                    budget.record_error(1);
                } else {
                    budget.record_ok(1);
                }
            }
            (local, out.stats)
        },
    );
    let mut stats = SurveyStats::default();
    let mut sched = SchedStats::default();
    for (local, slice_sched) in &per_chunk {
        stats.merge(local);
        sched.merge(slice_sched);
    }
    span.add_records(stats.domains);
    (stats, sched)
}
