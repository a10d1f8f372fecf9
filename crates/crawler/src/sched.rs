//! Scheduled crawling: the event-driven front-end over `idnre-sched`.
//!
//! [`crate::Crawler::crawl_faulted`] executes one domain's whole retry
//! schedule synchronously on a private clock — queries never contend.
//! This module runs a *population* of domains through
//! [`idnre_sched::run_schedule`]: arrivals pace in on a shared virtual
//! timeline, a bounded in-flight window arbitrates, per-nameserver token
//! buckets and circuit breakers gate the DNS phase, and overload is shed
//! by priority class instead of queueing without bound. Each query's
//! attempt semantics are *identical* to the synchronous path (the same
//! fault plan consultation, the same verdict table, the same attempt
//! costs); what changes is the schedule around them.
//!
//! Outcome accounting splits in two:
//!
//! * **executed** queries (never shed) classify into the usual
//!   `crawler.outcome.*` / `crawler.usage.*` counters plus the retry
//!   counters and the attempts histogram;
//! * **shed** queries appear only in the `crawler.shed.*` counters (and
//!   the error budget's shed class) — a shed domain was not measured,
//!   and pretending it produced a category would bias Table V.
//!
//! Scheduling is per-slice deterministic: a fixed `(plan, config, slice)`
//! replays byte-identically at any worker-thread count.

use crate::{classify, fetch, outcome_counter, usage_counter};
use crate::{Crawler, FetchOutcome, ResolutionOutcome, UsageCategory};
use crate::{ATTEMPTS_HISTOGRAM, RETRY_COUNTERS};
use idnre_arena::fnv1a;
use idnre_fault::FaultPlan;
use idnre_sched::{run_schedule, QueryDriver, SchedConfig, SchedStats, ShedCause, StepVerdict};
use idnre_telemetry::{Recorder, Span, SpanCtx};

/// Counter names of the scheduler machinery, for pre-registration.
pub const SCHED_COUNTERS: [&str; 8] = [
    "crawler.sched.executed",
    "crawler.sched.deferred",
    "crawler.shed.admission",
    "crawler.shed.breaker_open",
    "crawler.shed.starved",
    "crawler.breaker.open",
    "crawler.breaker.half_open",
    "crawler.breaker.closed",
];

/// Histogram stage fed one sample per *executed* query: the virtual
/// first-dispatch → terminal-event latency. Its exact maximum backs the
/// deadline contract check (no query may exceed its deadline by more
/// than one wheel tick).
pub const SCHED_LATENCY_HISTOGRAM: &str = "crawler.sched.latency";

/// Stage name of one scheduled-survey slice.
pub const SCHED_SLICE_SPAN: &str = "crawler.sched.slice";

/// Gauge tracking the deepest pending queue any scheduler instance saw.
pub const SCHED_QUEUE_DEPTH_GAUGE: &str = "crawler.sched.queue_depth";

/// Gauge tracking the widest in-flight window any scheduler instance saw.
pub const SCHED_INFLIGHT_GAUGE: &str = "crawler.sched.inflight";

/// Opens the timed span for scheduled-survey slice `index`, parented
/// under the survey's own span (same shape as
/// [`crate::survey_slice_span`]).
pub fn sched_slice_span(recorder: &dyn Recorder, parent: SpanCtx, index: u64) -> Span {
    recorder.span_at(SCHED_SLICE_SPAN, parent, index)
}

/// One domain's terminal record from a scheduled crawl.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledCrawl {
    /// The Table V category — `None` when the query was shed (a shed
    /// domain was not measured).
    pub category: Option<UsageCategory>,
    /// The DNS phase's terminal outcome — `None` when the query was shed.
    pub dns_outcome: Option<ResolutionOutcome>,
    /// Why the scheduler shed the query, if it did.
    pub shed: Option<ShedCause>,
    /// Attempts launched across both phases.
    pub attempts: u32,
    /// Retries performed.
    pub retries: u32,
    /// Virtual backoff slept between attempts.
    pub backoff_nanos: u64,
    /// First-dispatch → terminal-event virtual latency.
    pub latency_nanos: u64,
    /// Whether the per-query deadline ended the schedule.
    pub deadline_hit: bool,
    /// Whether the schedule ended without a terminal success.
    pub exhausted: bool,
    /// Injected faults met along the way.
    pub faults_injected: u32,
    /// Whether the terminal verdict was manufactured by an injected
    /// fault (only meaningful for executed queries).
    pub terminal_faulted: bool,
}

/// Everything one slice's scheduled crawl produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceSchedule {
    /// One record per domain, in slice order.
    pub crawls: Vec<ScheduledCrawl>,
    /// The slice's scheduler accounting.
    pub stats: SchedStats,
}

/// What one attempt stepped to, DNS or HTTP flavoured.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CrawlStep {
    Dns(ResolutionOutcome),
    Http(FetchOutcome),
}

#[derive(Debug, Clone, Default)]
struct DomainState {
    /// Base resolution, computed once on first DNS attempt (the host's
    /// configured behaviour never changes mid-schedule).
    base: Option<ResolutionOutcome>,
    /// The DNS phase's terminal outcome, once it resolved.
    resolution: Option<ResolutionOutcome>,
    faults_injected: u32,
    last_was_fault: bool,
}

/// The [`QueryDriver`] mapping scheduler queries onto crawler domains,
/// reusing the synchronous path's attempt semantics verbatim.
struct CrawlDriver<'a> {
    crawler: &'a Crawler,
    plan: &'a FaultPlan,
    config: &'a SchedConfig,
    domains: Vec<&'a str>,
    state: Vec<DomainState>,
    recorder: &'a dyn Recorder,
}

impl QueryDriver for CrawlDriver<'_> {
    type Step = CrawlStep;

    fn attempt(&mut self, query: usize, phase: u8, attempt: u32) -> (StepVerdict<CrawlStep>, u64) {
        let domain = self.domains[query];
        let policy = &self.config.policy;
        if phase == 0 {
            let base = *self.state[query]
                .base
                .get_or_insert_with(|| self.crawler.resolver.resolve(domain));
            match self.plan.dns_fault(domain, attempt) {
                Some(fault) => {
                    self.state[query].faults_injected += 1;
                    self.state[query].last_was_fault = true;
                    self.recorder.incr(fault.kind.counter());
                    match fault.kind {
                        idnre_fault::FaultKind::DnsServFail => (
                            StepVerdict::Transient(CrawlStep::Dns(ResolutionOutcome::ServFail)),
                            policy.attempt_cost_nanos,
                        ),
                        idnre_fault::FaultKind::DnsRefused => (
                            StepVerdict::Transient(CrawlStep::Dns(ResolutionOutcome::Refused)),
                            policy.attempt_cost_nanos,
                        ),
                        // DnsTimeout; HTTP kinds cannot come from dns_fault.
                        _ => (
                            StepVerdict::Transient(CrawlStep::Dns(ResolutionOutcome::Timeout)),
                            policy.attempt_timeout_nanos,
                        ),
                    }
                }
                None => {
                    self.state[query].last_was_fault = false;
                    match base {
                        // The host's own pathology, not the shared
                        // infrastructure's: breaker-neutral transients.
                        ResolutionOutcome::ServFail => (
                            StepVerdict::TransientLocal(CrawlStep::Dns(base)),
                            policy.attempt_cost_nanos,
                        ),
                        ResolutionOutcome::Timeout => (
                            StepVerdict::TransientLocal(CrawlStep::Dns(base)),
                            policy.attempt_timeout_nanos,
                        ),
                        terminal if terminal.is_resolved() => {
                            self.state[query].resolution = Some(terminal);
                            (
                                StepVerdict::NextPhase(CrawlStep::Dns(terminal)),
                                policy.attempt_cost_nanos,
                            )
                        }
                        terminal => (
                            StepVerdict::Terminal(CrawlStep::Dns(terminal)),
                            policy.attempt_cost_nanos,
                        ),
                    }
                }
            }
        } else {
            let resolution = self.state[query]
                .resolution
                .expect("phase 1 implies a resolved DNS phase");
            let page = self.crawler.pages.get(&domain.to_ascii_lowercase());
            match self.plan.http_fault(domain, attempt) {
                Some(fault) => {
                    self.state[query].faults_injected += 1;
                    self.recorder.incr(fault.kind.counter());
                    if fault.kind == idnre_fault::FaultKind::HttpSlow {
                        // A stall, not a failure: the page arrives after
                        // the attempt-timeout's worth of waiting.
                        self.state[query].last_was_fault = false;
                        (
                            StepVerdict::Terminal(CrawlStep::Http(fetch(&resolution, page))),
                            policy.attempt_timeout_nanos,
                        )
                    } else {
                        self.state[query].last_was_fault = true;
                        (
                            StepVerdict::Transient(CrawlStep::Http(FetchOutcome::ConnectionError)),
                            policy.attempt_cost_nanos,
                        )
                    }
                }
                None => {
                    self.state[query].last_was_fault = false;
                    match fetch(&resolution, page) {
                        FetchOutcome::ConnectionError => (
                            StepVerdict::TransientLocal(CrawlStep::Http(
                                FetchOutcome::ConnectionError,
                            )),
                            policy.attempt_cost_nanos,
                        ),
                        terminal => (
                            StepVerdict::Terminal(CrawlStep::Http(terminal)),
                            policy.attempt_cost_nanos,
                        ),
                    }
                }
            }
        }
    }

    fn cancelled(&mut self, query: usize, phase: u8) -> CrawlStep {
        // The deadline cancelled an in-flight attempt: the scheduler's
        // doing, not the fault plan's.
        self.state[query].last_was_fault = false;
        if phase == 0 {
            CrawlStep::Dns(ResolutionOutcome::Timeout)
        } else {
            CrawlStep::Http(FetchOutcome::ConnectionError)
        }
    }

    fn nameserver(&self, query: usize) -> u32 {
        fnv1a(self.domains[query].as_bytes()) as u32
    }

    fn jitter_seed(&self, query: usize, phase: u8) -> u64 {
        let seed = self.plan.jitter_seed(self.domains[query]);
        if phase == 0 {
            seed
        } else {
            // The HTTP phase's jitter stream, as in the synchronous path.
            seed ^ 0xC2B2_AE3D_27D4_EB4F
        }
    }
}

impl Crawler {
    /// Crawls one slice of domains through the event-driven scheduler.
    ///
    /// Attempt semantics match [`Crawler::crawl_faulted`] exactly; the
    /// scheduler adds the shared timeline, admission control, per-
    /// nameserver rate limits and breakers, and load shedding. See the
    /// module docs for the executed/shed telemetry split.
    pub fn crawl_slice_scheduled<S: AsRef<str>>(
        &self,
        domains: &[S],
        plan: &FaultPlan,
        config: &SchedConfig,
        recorder: &dyn Recorder,
    ) -> SliceSchedule {
        let mut driver = CrawlDriver {
            crawler: self,
            plan,
            config,
            domains: domains.iter().map(|d| d.as_ref()).collect(),
            state: vec![DomainState::default(); domains.len()],
            recorder,
        };
        let run = run_schedule(&mut driver, domains.len(), config);
        let state = driver.state;

        let mut crawls = Vec::with_capacity(run.reports.len());
        for (q, report) in run.reports.into_iter().enumerate() {
            let executed = report.shed.is_none();
            let (category, dns_outcome) = if executed {
                let outcome = match report.verdict.as_ref().expect("executed implies a verdict") {
                    CrawlStep::Dns(resolution) => FetchOutcome::DnsFailure(*resolution),
                    CrawlStep::Http(fetched) => fetched.clone(),
                };
                let dns_outcome = state[q]
                    .resolution
                    .or(match outcome {
                        FetchOutcome::DnsFailure(resolution) => Some(resolution),
                        _ => None,
                    })
                    .expect("executed implies a DNS verdict");
                let category = classify(&outcome);
                recorder.incr(outcome_counter(dns_outcome));
                recorder.incr(usage_counter(category));
                recorder.record_nanos(ATTEMPTS_HISTOGRAM, u64::from(report.attempts));
                recorder.record_nanos(SCHED_LATENCY_HISTOGRAM, report.latency_nanos);
                recorder.add(RETRY_COUNTERS[0], u64::from(report.retries));
                if report.retries > 0 && !report.exhausted {
                    recorder.incr(RETRY_COUNTERS[1]);
                }
                if report.deadline_hit {
                    recorder.incr(RETRY_COUNTERS[2]);
                }
                if report.exhausted {
                    recorder.incr(RETRY_COUNTERS[3]);
                }
                (Some(category), Some(dns_outcome))
            } else {
                (None, None)
            };
            crawls.push(ScheduledCrawl {
                category,
                dns_outcome,
                shed: report.shed,
                attempts: report.attempts,
                retries: report.retries,
                backoff_nanos: report.backoff_nanos,
                latency_nanos: report.latency_nanos,
                deadline_hit: report.deadline_hit,
                exhausted: report.exhausted,
                faults_injected: state[q].faults_injected,
                terminal_faulted: executed && report.exhausted && state[q].last_was_fault,
            });
        }

        let stats = run.stats;
        recorder.add(SCHED_COUNTERS[0], stats.arrivals - stats.shed_total());
        recorder.add(SCHED_COUNTERS[1], stats.deferred);
        recorder.add(SCHED_COUNTERS[2], stats.shed_admission);
        recorder.add(SCHED_COUNTERS[3], stats.shed_breaker);
        recorder.add(SCHED_COUNTERS[4], stats.shed_starved);
        recorder.add(SCHED_COUNTERS[5], stats.breaker_opened);
        recorder.add(SCHED_COUNTERS[6], stats.breaker_half_open);
        recorder.add(SCHED_COUNTERS[7], stats.breaker_reclosed);
        recorder.gauge_max(SCHED_QUEUE_DEPTH_GAUGE, stats.peak_queue_depth);
        recorder.gauge_max(SCHED_INFLIGHT_GAUGE, stats.peak_inflight);

        SliceSchedule { crawls, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AuthBehavior, FaultContext, Page, PageKind};
    use idnre_fault::{FaultProfile, RetryPolicy, SimClock};
    use idnre_telemetry::Registry;
    use idnre_zonefile::parse_zone;

    /// A mixed population: meaningful, refused, lame, parked, absent.
    fn crawler_with_population(n: usize) -> (Crawler, Vec<String>) {
        let mut zone_text = String::new();
        for i in 0..n {
            zone_text.push_str(&format!("d{i} IN NS ns1.d{i}.com.\n"));
        }
        let zone = parse_zone("com", &zone_text).unwrap();
        let mut crawler = Crawler::new();
        crawler.add_zone(&zone);
        let ip = "203.0.113.9".parse().unwrap();
        let mut domains = Vec::with_capacity(n);
        for i in 0..n {
            let domain = format!("d{i}.com");
            match i % 5 {
                0 => crawler.set_host(
                    &domain,
                    AuthBehavior::Answer(ip),
                    Some(Page::new(200, "Site", PageKind::Content)),
                ),
                1 => crawler.set_host(
                    &domain,
                    AuthBehavior::Answer(ip),
                    Some(Page::new(200, "Parked — buy now", PageKind::Parking)),
                ),
                2 => crawler.set_host(&domain, AuthBehavior::Refuse, None),
                3 => crawler.set_host(&domain, AuthBehavior::Lame, None),
                _ => {} // delegated, no host: NXDOMAIN at the authority
            }
            domains.push(domain);
        }
        (crawler, domains)
    }

    #[test]
    fn clean_plan_matches_the_synchronous_categories() {
        let (crawler, domains) = crawler_with_population(200);
        let plan = FaultPlan::new(7, FaultProfile::none());
        let config = SchedConfig::default();
        let out =
            crawler.crawl_slice_scheduled(&domains, &plan, &config, &idnre_telemetry::NoopRecorder);
        assert_eq!(out.stats.shed_total(), 0, "{:?}", out.stats);
        let ctx = FaultContext {
            plan,
            policy: config.policy,
        };
        for (domain, crawl) in domains.iter().zip(&out.crawls) {
            let mut clock = SimClock::new();
            let sync =
                crawler.crawl_faulted(domain, &ctx, &mut clock, &idnre_telemetry::NoopRecorder);
            assert_eq!(crawl.category, Some(sync.category), "{domain}");
            assert_eq!(crawl.faults_injected, 0);
        }
    }

    #[test]
    fn storm_saturates_sheds_and_trips_breakers() {
        let (crawler, domains) = crawler_with_population(2_000);
        let plan = FaultPlan::new(11, FaultProfile::storm());
        let config = SchedConfig::default();
        let registry = Registry::new();
        let out = crawler.crawl_slice_scheduled(&domains, &plan, &config, &registry);
        assert!(out.stats.shed_total() > 0, "{:?}", out.stats);
        assert!(out.stats.breaker_opened > 0, "{:?}", out.stats);
        assert!(
            registry.counter_value("crawler.breaker.open") > 0
                && registry.counter_value("crawler.shed.admission")
                    + registry.counter_value("crawler.shed.breaker_open")
                    + registry.counter_value("crawler.shed.starved")
                    > 0,
            "shed/breaker counters must surface in telemetry"
        );
        let shed = out.crawls.iter().filter(|c| c.shed.is_some()).count() as u64;
        assert_eq!(shed, out.stats.shed_total());
        for crawl in &out.crawls {
            assert_eq!(crawl.category.is_none(), crawl.shed.is_some());
        }
    }

    #[test]
    fn no_query_exceeds_deadline_by_more_than_one_tick() {
        let (crawler, domains) = crawler_with_population(1_500);
        let plan = FaultPlan::new(3, FaultProfile::storm());
        let config = SchedConfig::default();
        let registry = Registry::new();
        let out = crawler.crawl_slice_scheduled(&domains, &plan, &config, &registry);
        let bound = config.policy.deadline_nanos + config.wheel_tick_nanos;
        assert!(
            out.stats.max_latency_nanos <= bound,
            "latency {} > deadline+tick {bound}",
            out.stats.max_latency_nanos
        );
        // The latency histogram's exact max backs the same contract.
        let snapshot = registry.snapshot();
        let stage = snapshot
            .stages
            .iter()
            .find(|s| s.name == SCHED_LATENCY_HISTOGRAM)
            .expect("latency stage recorded");
        assert!(stage.max_nanos <= bound);
    }

    #[test]
    fn scheduled_slices_replay_byte_identically() {
        let (crawler, domains) = crawler_with_population(600);
        for profile in [
            FaultProfile::none(),
            FaultProfile::flaky(),
            FaultProfile::storm(),
        ] {
            let plan = FaultPlan::new(42, profile);
            let config = SchedConfig {
                policy: RetryPolicy::default(),
                ..SchedConfig::default()
            };
            let run = || {
                let registry = Registry::new();
                registry.preregister_groups(&[&SCHED_COUNTERS[..]]);
                let out = crawler.crawl_slice_scheduled(&domains, &plan, &config, &registry);
                (out, registry.snapshot().render_deterministic_json())
            };
            let (o1, j1) = run();
            let (o2, j2) = run();
            assert_eq!(o1, o2, "{}", profile.name);
            assert_eq!(j1, j2, "{}", profile.name);
        }
    }
}
