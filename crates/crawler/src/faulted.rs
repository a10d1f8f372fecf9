//! Fault-aware resolution and crawling: every domain gets a retry
//! schedule, and a seeded [`FaultPlan`] decides which attempts hiccup.
//!
//! The plain [`Crawler::crawl`](crate::Crawler::crawl) path resolves each
//! name exactly once. The paper's measurement ran for weeks against real
//! infrastructure, where transient SERVFAILs, refused queries and stalled
//! web servers are routine — a single attempt would misclassify every
//! hiccup as a dead domain. This module makes the *schedule* the unit of
//! measurement: an attempt either produces a terminal verdict or a
//! transient failure, the [`RetryPolicy`] decides how many attempts and
//! how much (virtual) backoff a target deserves, and the
//! [`ResolutionOutcome`] that feeds classification is the verdict left
//! standing when the schedule ends.
//!
//! Everything is deterministic: faults come from the stateless seeded
//! plan, backoff jitter from a per-target hash, and time from a
//! [`SimClock`] the caller owns — so a fixed `(seed, policy)` replays the
//! same schedule byte-for-byte regardless of thread interleaving.

use crate::{classify, fetch, outcome_counter, usage_counter};
use crate::{Crawler, FetchOutcome, ResolutionOutcome, Resolver, UsageCategory};
use idnre_fault::{Attempt, FaultKind, FaultPlan, RetryPolicy, SimClock};
use idnre_telemetry::{Recorder, Span, SpanCtx};

/// Counter names of the retry machinery, for pre-registration (a counter
/// that never fires still shows up at zero in the snapshot).
pub const RETRY_COUNTERS: [&str; 4] = [
    "crawler.retry.retries",
    "crawler.retry.recovered",
    "crawler.retry.deadline_exceeded",
    "crawler.retry.exhausted",
];

/// Counter names of the injected fault kinds (`crawler.fault.*`), for
/// pre-registration alongside [`RETRY_COUNTERS`].
pub const FAULT_COUNTERS: [&str; 5] = [
    "crawler.fault.dns_timeout",
    "crawler.fault.dns_servfail",
    "crawler.fault.dns_refused",
    "crawler.fault.http_slow",
    "crawler.fault.http_truncated",
];

/// Histogram stage fed one sample per crawled domain, whose recorded
/// value is the *attempt count* (not nanoseconds): the distribution of
/// how many attempts each target needed.
pub const ATTEMPTS_HISTOGRAM: &str = "crawler.retry.attempts";

/// Stage name of one crawl-survey slice: a batch of domains crawled
/// together by a survey worker under the retry schedule.
pub const SURVEY_SLICE_SPAN: &str = "crawler.survey.slice";

/// How many domains one crawl-survey slice covers. The slice size is a
/// constant (never derived from the worker count), so the slice spans —
/// and therefore the trace tree's structure — are identical across
/// thread counts for a given population.
pub const SURVEY_SLICE_RECORDS: usize = 2_048;

/// Opens the timed span for crawl-survey slice `index`, parented under
/// the survey's own span. Per-*domain* spans would swamp a trace (and a
/// schedule costs nanoseconds, far below span resolution), so the slice
/// is the unit of span parenting for the faulted survey: coarse enough
/// to stay readable, fine enough to show worker-level cost spread.
pub fn survey_slice_span(recorder: &dyn Recorder, parent: SpanCtx, index: u64) -> Span {
    recorder.span_at(SURVEY_SLICE_SPAN, parent, index)
}

/// The fault schedule and retry discipline a crawl executes under.
#[derive(Debug, Clone, Copy)]
pub struct FaultContext {
    /// Which attempts fail, and how.
    pub plan: FaultPlan,
    /// How many attempts each target gets, and at what backoff.
    pub policy: RetryPolicy,
}

impl FaultContext {
    /// A context that injects nothing and never retries — the plain
    /// pipeline expressed in the fault vocabulary.
    pub fn inert() -> Self {
        FaultContext {
            plan: FaultPlan::new(0, idnre_fault::FaultProfile::none()),
            policy: RetryPolicy::single_attempt(),
        }
    }
}

/// The terminal verdict of one domain's resolution schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultedResolution {
    /// The outcome left standing when the schedule ended.
    pub outcome: ResolutionOutcome,
    /// Attempts performed (≥ 1).
    pub attempts: u32,
    /// Retries performed.
    pub retries: u32,
    /// Virtual backoff slept between attempts, in nanoseconds.
    pub backoff_nanos: u64,
    /// Virtual time the schedule consumed, in nanoseconds.
    pub elapsed_nanos: u64,
    /// Whether the per-target deadline ended the schedule early.
    pub deadline_hit: bool,
    /// Whether the schedule exhausted without a terminal success.
    pub exhausted: bool,
    /// Injected faults met along the way.
    pub faults_injected: u32,
    /// Whether the *terminal* outcome was manufactured by an injected
    /// fault (rather than the host's configured behaviour) — the part of
    /// the damage the error budget should attribute to the fault layer.
    pub terminal_faulted: bool,
}

/// The terminal verdict of one domain's full crawl schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultedCrawl {
    /// The Table V category the schedule's outcome classifies into.
    pub category: UsageCategory,
    /// The DNS phase's terminal verdict.
    pub resolution: FaultedResolution,
    /// HTTP attempts performed (0 when resolution failed).
    pub http_attempts: u32,
    /// Total injected faults across both phases.
    pub faults_injected: u32,
    /// Whether either phase's terminal verdict was fault-manufactured.
    pub terminal_faulted: bool,
    /// Virtual time consumed by both phases, in nanoseconds.
    pub elapsed_nanos: u64,
}

impl Resolver {
    /// Resolves `domain` under a retry schedule with injected faults.
    ///
    /// Each attempt first consults the fault plan. An injected DNS fault
    /// replaces the configured outcome for that attempt (timeouts cost
    /// [`RetryPolicy::attempt_timeout_nanos`], answered errors
    /// [`RetryPolicy::attempt_cost_nanos`]) and is always worth retrying.
    /// Without a fault, the configured behaviour answers: `SERVFAIL` and
    /// timeouts are retried (a real crawler cannot tell a transient from
    /// a persistent server failure), while `Resolved`, `NXDOMAIN` and
    /// authoritative `REFUSED` are terminal on first sight.
    ///
    /// Telemetry: one `crawler.fault.*` increment per injected fault, the
    /// schedule's sample in [`ATTEMPTS_HISTOGRAM`], the
    /// `crawler.retry.*` counters, and the terminal `crawler.outcome.*`
    /// counter. Recording never influences the schedule.
    pub fn resolve_faulted(
        &self,
        domain: &str,
        ctx: &FaultContext,
        clock: &mut SimClock,
        recorder: &dyn Recorder,
    ) -> FaultedResolution {
        let base = self.resolve(domain);
        let mut faults_injected = 0u32;
        let mut last_was_fault = false;
        let report = ctx
            .policy
            .execute(ctx.plan.jitter_seed(domain), clock, |attempt| {
                match ctx.plan.dns_fault(domain, attempt) {
                    Some(fault) => {
                        faults_injected += 1;
                        last_was_fault = true;
                        recorder.incr(fault.kind.counter());
                        match fault.kind {
                            FaultKind::DnsServFail => (
                                Attempt::Retry(ResolutionOutcome::ServFail),
                                ctx.policy.attempt_cost_nanos,
                            ),
                            FaultKind::DnsRefused => (
                                Attempt::Retry(ResolutionOutcome::Refused),
                                ctx.policy.attempt_cost_nanos,
                            ),
                            // DnsTimeout; HTTP kinds cannot come from dns_fault.
                            _ => (
                                Attempt::Retry(ResolutionOutcome::Timeout),
                                ctx.policy.attempt_timeout_nanos,
                            ),
                        }
                    }
                    None => {
                        last_was_fault = false;
                        match base {
                            ResolutionOutcome::ServFail => {
                                (Attempt::Retry(base), ctx.policy.attempt_cost_nanos)
                            }
                            ResolutionOutcome::Timeout => {
                                (Attempt::Retry(base), ctx.policy.attempt_timeout_nanos)
                            }
                            terminal => (Attempt::Done(terminal), ctx.policy.attempt_cost_nanos),
                        }
                    }
                }
            });

        recorder.record_nanos(ATTEMPTS_HISTOGRAM, u64::from(report.attempts));
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
        recorder.incr(outcome_counter(report.value));

        FaultedResolution {
            outcome: report.value,
            attempts: report.attempts,
            retries: report.retries,
            backoff_nanos: report.backoff_nanos,
            elapsed_nanos: report.elapsed_nanos,
            deadline_hit: report.deadline_hit,
            exhausted: report.exhausted,
            faults_injected,
            terminal_faulted: report.exhausted && last_was_fault,
        }
    }
}

impl Crawler {
    /// Crawls `domain` end-to-end under a retry schedule with injected
    /// faults: [`Resolver::resolve_faulted`], then — when an address came
    /// back — an HTTP schedule, then classification of whatever verdict
    /// is left standing.
    ///
    /// HTTP attempts consult the plan too: `HttpSlow` stalls the attempt
    /// (timeout-priced) but still delivers the page; `HttpTruncated` cuts
    /// the response off and is retried as a connection error. Without an
    /// injected fault, a configured connection error is retried and
    /// anything else is terminal.
    pub fn crawl_faulted(
        &self,
        domain: &str,
        ctx: &FaultContext,
        clock: &mut SimClock,
        recorder: &dyn Recorder,
    ) -> FaultedCrawl {
        let resolution = self.resolver.resolve_faulted(domain, ctx, clock, recorder);

        let mut faults_injected = resolution.faults_injected;
        let mut terminal_faulted = resolution.terminal_faulted;
        let mut http_attempts = 0u32;
        let mut http_elapsed = 0u64;

        let outcome = if resolution.outcome.is_resolved() {
            let page = self.pages.get(&domain.to_ascii_lowercase());
            let mut last_was_fault = false;
            let report = ctx.policy.execute(
                ctx.plan.jitter_seed(domain) ^ 0xC2B2_AE3D_27D4_EB4F,
                clock,
                |attempt| match ctx.plan.http_fault(domain, attempt) {
                    Some(fault) => {
                        faults_injected += 1;
                        recorder.incr(fault.kind.counter());
                        if fault.kind == FaultKind::HttpSlow {
                            // A stall, not a failure: the page arrives
                            // after the attempt-timeout's worth of waiting.
                            last_was_fault = false;
                            (
                                Attempt::Done(fetch(&resolution.outcome, page)),
                                ctx.policy.attempt_timeout_nanos,
                            )
                        } else {
                            last_was_fault = true;
                            (
                                Attempt::Retry(FetchOutcome::ConnectionError),
                                ctx.policy.attempt_cost_nanos,
                            )
                        }
                    }
                    None => {
                        last_was_fault = false;
                        match fetch(&resolution.outcome, page) {
                            FetchOutcome::ConnectionError => (
                                Attempt::Retry(FetchOutcome::ConnectionError),
                                ctx.policy.attempt_cost_nanos,
                            ),
                            terminal => (Attempt::Done(terminal), ctx.policy.attempt_cost_nanos),
                        }
                    }
                },
            );
            http_attempts = report.attempts;
            http_elapsed = report.elapsed_nanos;
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
            terminal_faulted = terminal_faulted || (report.exhausted && last_was_fault);
            report.value
        } else {
            FetchOutcome::DnsFailure(resolution.outcome)
        };

        let category = classify(&outcome);
        recorder.incr(usage_counter(category));

        FaultedCrawl {
            category,
            elapsed_nanos: resolution.elapsed_nanos + http_elapsed,
            resolution,
            http_attempts,
            faults_injected,
            terminal_faulted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AuthBehavior, Page, PageKind};
    use idnre_fault::FaultProfile;
    use idnre_telemetry::Registry;
    use idnre_zonefile::parse_zone;

    fn crawler() -> Crawler {
        let zone = parse_zone(
            "com",
            "a IN NS ns1.a.com.\nb IN NS ns1.b.com.\nc IN NS ns1.c.com.\n",
        )
        .unwrap();
        let mut crawler = Crawler::new();
        crawler.add_zone(&zone);
        crawler.set_host(
            "a.com",
            AuthBehavior::Answer("203.0.113.9".parse().unwrap()),
            Some(Page::new(200, "Site", PageKind::Content)),
        );
        crawler.set_host("b.com", AuthBehavior::Refuse, None);
        crawler.set_host("c.com", AuthBehavior::Lame, None);
        crawler
    }

    #[test]
    fn inert_context_matches_the_plain_pipeline() {
        let crawler = crawler();
        let ctx = FaultContext::inert();
        for domain in ["a.com", "b.com", "c.com", "nx.com"] {
            let mut clock = SimClock::new();
            let faulted =
                crawler.crawl_faulted(domain, &ctx, &mut clock, &idnre_telemetry::NoopRecorder);
            assert_eq!(faulted.category, crawler.crawl(domain), "{domain}");
            assert_eq!(faulted.resolution.attempts, 1, "{domain}");
            assert_eq!(faulted.faults_injected, 0, "{domain}");
            assert!(!faulted.terminal_faulted, "{domain}");
        }
    }

    #[test]
    fn base_refused_is_terminal_on_first_sight() {
        let crawler = crawler();
        let ctx = FaultContext {
            plan: FaultPlan::new(0, FaultProfile::none()),
            policy: RetryPolicy::default(),
        };
        let mut clock = SimClock::new();
        let report = crawler.resolver.resolve_faulted(
            "b.com",
            &ctx,
            &mut clock,
            &idnre_telemetry::NoopRecorder,
        );
        assert_eq!(report.outcome, ResolutionOutcome::Refused);
        assert_eq!(report.attempts, 1);
        assert!(!report.exhausted);
    }

    #[test]
    fn lame_delegations_exhaust_the_whole_schedule() {
        let crawler = crawler();
        let ctx = FaultContext {
            plan: FaultPlan::new(0, FaultProfile::none()),
            policy: RetryPolicy::default(),
        };
        let mut clock = SimClock::new();
        let report = crawler.resolver.resolve_faulted(
            "c.com",
            &ctx,
            &mut clock,
            &idnre_telemetry::NoopRecorder,
        );
        assert_eq!(report.outcome, ResolutionOutcome::Timeout);
        assert_eq!(report.attempts, ctx.policy.max_attempts);
        assert!(report.exhausted);
        // Lame the whole way down is the host's doing, not the plan's.
        assert!(!report.terminal_faulted);
        assert!(report.backoff_nanos > 0);
    }

    #[test]
    fn transient_faults_recover_within_the_schedule() {
        let crawler = crawler();
        let registry = Registry::new();
        let ctx = FaultContext {
            plan: FaultPlan::new(0xFEED, FaultProfile::flaky()),
            policy: RetryPolicy::default(),
        };
        // Hunt for a seeded schedule where a healthy host hiccups on the
        // first DNS attempt but lands anyway.
        let mut plan = None;
        for seed in 0..4096u64 {
            let candidate = FaultPlan::new(seed, FaultProfile::flaky());
            let first = candidate.dns_fault("a.com", 0);
            if first.is_some_and(|f| !f.persistent)
                && candidate.dns_fault("a.com", 1).is_none()
                && candidate.http_fault("a.com", 0).is_none()
            {
                plan = Some(candidate);
                break;
            }
        }
        let ctx = FaultContext {
            plan: plan.expect("no recovering seed in 4096"),
            ..ctx
        };
        let mut clock = SimClock::new();
        let crawl = crawler.crawl_faulted("a.com", &ctx, &mut clock, &registry);
        assert_eq!(crawl.category, UsageCategory::Meaningful);
        assert_eq!(crawl.resolution.attempts, 2);
        assert!(crawl.faults_injected >= 1);
        assert!(!crawl.terminal_faulted);
        assert_eq!(registry.counter_value("crawler.retry.recovered"), 1);
        assert!(registry.counter_value("crawler.retry.retries") >= 1);
        assert_eq!(registry.stage(ATTEMPTS_HISTOGRAM).calls(), 1);
    }

    #[test]
    fn persistent_faults_exhaust_and_are_attributed() {
        let crawler = crawler();
        // Hunt for a plan that rolls a persistent DNS fault on a healthy host.
        let plan = (0..4096u64)
            .map(|seed| FaultPlan::new(seed, FaultProfile::storm()))
            .find(|p| p.dns_fault("a.com", 0).is_some_and(|f| f.persistent))
            .expect("no persistent seed in 4096");
        let ctx = FaultContext {
            plan,
            policy: RetryPolicy::default(),
        };
        let registry = Registry::new();
        let mut clock = SimClock::new();
        let crawl = crawler.crawl_faulted("a.com", &ctx, &mut clock, &registry);
        assert_eq!(crawl.category, UsageCategory::NotResolved);
        assert!(crawl.resolution.exhausted);
        assert!(crawl.terminal_faulted, "fault-made verdict not attributed");
        assert_eq!(crawl.http_attempts, 0);
        assert_eq!(registry.counter_value("crawler.retry.exhausted"), 1);
    }

    #[test]
    fn schedules_replay_byte_identically() {
        let crawler = crawler();
        let ctx = FaultContext {
            plan: FaultPlan::new(2024, FaultProfile::storm()),
            policy: RetryPolicy::default(),
        };
        let run = || {
            let registry = Registry::new();
            let mut verdicts = Vec::new();
            for domain in ["a.com", "b.com", "c.com", "nx.com"] {
                let mut clock = SimClock::new();
                verdicts.push(crawler.crawl_faulted(domain, &ctx, &mut clock, &registry));
            }
            (verdicts, registry.snapshot().render_deterministic_json())
        };
        let (v1, c1) = run();
        let (v2, c2) = run();
        assert_eq!(v1, v2);
        assert_eq!(c1, c2);
    }
}
