//! The seeded fault schedule: which attempt against which target fails how.

use crate::mix64;
use idnre_arena::fnv1a;
use std::error::Error;
use std::fmt;

/// The failure modes the plan can inject, mirroring what the paper's crawl
/// met in the wild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultKind {
    /// The authoritative server never answers this query.
    DnsTimeout,
    /// The authoritative server answers SERVFAIL.
    DnsServFail,
    /// The query is refused (the misconfiguration the paper highlights).
    DnsRefused,
    /// The web server responds, but only after a long stall.
    HttpSlow,
    /// The HTTP response is cut off mid-body.
    HttpTruncated,
}

impl FaultKind {
    /// Telemetry counter name for this fault kind (`crawler.fault.*`).
    pub fn counter(self) -> &'static str {
        match self {
            FaultKind::DnsTimeout => "crawler.fault.dns_timeout",
            FaultKind::DnsServFail => "crawler.fault.dns_servfail",
            FaultKind::DnsRefused => "crawler.fault.dns_refused",
            FaultKind::HttpSlow => "crawler.fault.http_slow",
            FaultKind::HttpTruncated => "crawler.fault.http_truncated",
        }
    }
}

/// One injected fault: what goes wrong and whether it keeps going wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The failure mode.
    pub kind: FaultKind,
    /// Persistent faults recur on every attempt against the target;
    /// transient ones afflict only the attempt they were rolled for.
    pub persistent: bool,
}

/// Per-channel fault rates (per mille) plus the run's error allowance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    /// Display name (`none`, `smoke`, `flaky`, `storm`).
    pub name: &'static str,
    /// Transient DNS fault rate per attempt, per mille.
    pub dns_transient_per_mille: u32,
    /// Persistent DNS fault rate per target, per mille.
    pub dns_persistent_per_mille: u32,
    /// Transient HTTP fault rate per attempt, per mille.
    pub http_transient_per_mille: u32,
    /// Persistent HTTP fault rate per target, per mille.
    pub http_persistent_per_mille: u32,
    /// Zone-file line corruption rate, per mille.
    pub zone_corrupt_per_mille: u32,
    /// WHOIS response corruption rate, per mille.
    pub whois_corrupt_per_mille: u32,
    /// Error-budget allowance: the run stays *degraded* (rather than
    /// *budget-exceeded*) while errors/total ≤ this, per mille.
    pub budget_per_mille: u32,
}

impl FaultProfile {
    /// No injected faults at all; the identity harness.
    pub fn none() -> Self {
        FaultProfile {
            name: "none",
            dns_transient_per_mille: 0,
            dns_persistent_per_mille: 0,
            http_transient_per_mille: 0,
            http_persistent_per_mille: 0,
            zone_corrupt_per_mille: 0,
            whois_corrupt_per_mille: 0,
            budget_per_mille: 0,
        }
    }

    /// Light faulting: a few percent of attempts hiccup, well inside the
    /// error budget. The canonical *degraded* run (exit code 3).
    pub fn smoke() -> Self {
        FaultProfile {
            name: "smoke",
            dns_transient_per_mille: 60,
            dns_persistent_per_mille: 8,
            http_transient_per_mille: 40,
            http_persistent_per_mille: 5,
            zone_corrupt_per_mille: 15,
            whois_corrupt_per_mille: 20,
            budget_per_mille: 120,
        }
    }

    /// Transient-heavy faulting: retries do real work, most targets still
    /// land. Stays within budget.
    pub fn flaky() -> Self {
        FaultProfile {
            name: "flaky",
            dns_transient_per_mille: 150,
            dns_persistent_per_mille: 10,
            http_transient_per_mille: 120,
            http_persistent_per_mille: 8,
            zone_corrupt_per_mille: 25,
            whois_corrupt_per_mille: 30,
            budget_per_mille: 150,
        }
    }

    /// Heavy, persistent-leaning faulting that blows through the budget.
    /// The canonical *budget-exceeded* run (exit code 4) — unless the
    /// crawl sheds instead of failing.
    ///
    /// The budget is calibrated against the run's fixed corruption
    /// floor: zone (200‰) and WHOIS (250‰) corruption land ~120‰ of the
    /// run's total work units in the error column before a single query
    /// is attempted, so any budget at or below that floor makes
    /// *degraded* unreachable no matter how the crawl behaves. At 170‰
    /// there is headroom exactly one strategy can reach: the synchronous
    /// crawl's unshed failures push the observed rate to ~250‰ (exit 4),
    /// while the event-driven scheduler's breakers shed the doomed
    /// queries — shed work dilutes the rate without adding errors — and
    /// the run lands degraded (exit 3).
    pub fn storm() -> Self {
        FaultProfile {
            name: "storm",
            dns_transient_per_mille: 300,
            dns_persistent_per_mille: 150,
            http_transient_per_mille: 250,
            http_persistent_per_mille: 100,
            zone_corrupt_per_mille: 200,
            whois_corrupt_per_mille: 250,
            budget_per_mille: 170,
        }
    }

    fn by_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "smoke" => Some(Self::smoke()),
            "flaky" => Some(Self::flaky()),
            "storm" => Some(Self::storm()),
            _ => None,
        }
    }
}

/// A malformed `--faults` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultSpecError {
    /// The offending spec text.
    pub spec: String,
}

impl fmt::Display for ParseFaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault spec {:?}: expected none|smoke|flaky|storm, a numeric seed, \
             or profile:seed",
            self.spec
        )
    }
}

impl Error for ParseFaultSpecError {}

// Decision channels keep the hash streams for different fault families
// independent of each other.
const CH_DNS_TRANSIENT: u64 = 0x01;
const CH_DNS_PERSISTENT: u64 = 0x02;
const CH_HTTP_TRANSIENT: u64 = 0x03;
const CH_HTTP_PERSISTENT: u64 = 0x04;
const CH_CORRUPT: u64 = 0x05;

/// The seeded, stateless fault schedule.
///
/// Every query is a pure function of `(seed, target, channel, attempt)`;
/// the plan holds no mutable state, so it can be shared freely across
/// worker threads and replays identically for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
}

impl FaultPlan {
    /// Builds a plan from an explicit seed and profile.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan { seed, profile }
    }

    /// Parses a `--faults` spec: a profile name (`none`, `smoke`, `flaky`,
    /// `storm`), a bare numeric seed (decimal or `0x` hex, implying the
    /// `flaky` profile), or `profile:seed`.
    ///
    /// A profile without an explicit seed gets one derived from the profile
    /// name, so `--faults smoke` is itself fully reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`ParseFaultSpecError`] when the spec is neither a known
    /// profile nor a parseable seed.
    pub fn from_spec(spec: &str) -> Result<Self, ParseFaultSpecError> {
        let bad = || ParseFaultSpecError {
            spec: spec.to_string(),
        };
        if let Some((name, seed_text)) = spec.split_once(':') {
            let profile = FaultProfile::by_name(name).ok_or_else(bad)?;
            let seed = parse_seed(seed_text).ok_or_else(bad)?;
            return Ok(FaultPlan::new(seed, profile));
        }
        if let Some(profile) = FaultProfile::by_name(spec) {
            // Stable per-profile default seed.
            return Ok(FaultPlan::new(fnv1a(spec.as_bytes()), profile));
        }
        let seed = parse_seed(spec).ok_or_else(bad)?;
        Ok(FaultPlan::new(seed, FaultProfile::flaky()))
    }

    /// The replay seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The active rate profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        let p = &self.profile;
        p.dns_transient_per_mille
            + p.dns_persistent_per_mille
            + p.http_transient_per_mille
            + p.http_persistent_per_mille
            + p.zone_corrupt_per_mille
            + p.whois_corrupt_per_mille
            > 0
    }

    fn roll(&self, channel: u64, target: &str, attempt: u32) -> u64 {
        mix64(
            self.seed
                ^ fnv1a(target.as_bytes()).rotate_left(17)
                ^ channel.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ u64::from(attempt).wrapping_mul(0xE703_7ED1_A0B4_28DB),
        )
    }

    fn hits(roll: u64, per_mille: u32) -> bool {
        (roll % 1000) < u64::from(per_mille)
    }

    /// The DNS fault (if any) afflicting `attempt` against `target`.
    ///
    /// Persistent faults are decided once per target and recur on every
    /// attempt; transient ones are rolled per attempt.
    pub fn dns_fault(&self, target: &str, attempt: u32) -> Option<Fault> {
        let persistent = self.roll(CH_DNS_PERSISTENT, target, 0);
        if Self::hits(persistent, self.profile.dns_persistent_per_mille) {
            let kind = match (persistent >> 32) % 2 {
                0 => FaultKind::DnsTimeout,
                _ => FaultKind::DnsServFail,
            };
            return Some(Fault {
                kind,
                persistent: true,
            });
        }
        let transient = self.roll(CH_DNS_TRANSIENT, target, attempt);
        if Self::hits(transient, self.profile.dns_transient_per_mille) {
            let kind = match (transient >> 32) % 3 {
                0 => FaultKind::DnsTimeout,
                1 => FaultKind::DnsServFail,
                _ => FaultKind::DnsRefused,
            };
            return Some(Fault {
                kind,
                persistent: false,
            });
        }
        None
    }

    /// The HTTP fault (if any) afflicting `attempt` against `target`.
    pub fn http_fault(&self, target: &str, attempt: u32) -> Option<Fault> {
        let persistent = self.roll(CH_HTTP_PERSISTENT, target, 0);
        if Self::hits(persistent, self.profile.http_persistent_per_mille) {
            return Some(Fault {
                kind: FaultKind::HttpTruncated,
                persistent: true,
            });
        }
        let transient = self.roll(CH_HTTP_TRANSIENT, target, attempt);
        if Self::hits(transient, self.profile.http_transient_per_mille) {
            let kind = match (transient >> 32) % 2 {
                0 => FaultKind::HttpSlow,
                _ => FaultKind::HttpTruncated,
            };
            return Some(Fault {
                kind,
                persistent: false,
            });
        }
        None
    }

    /// A per-target backoff-jitter seed for
    /// [`RetryPolicy::backoff_nanos`](crate::RetryPolicy::backoff_nanos),
    /// derived from the plan seed so schedules replay with the plan.
    pub fn jitter_seed(&self, target: &str) -> u64 {
        mix64(self.seed ^ fnv1a(target.as_bytes()))
    }

    /// Whether the plan corrupts ingest record `key` of `stage`
    /// (`"zone"` and `"whois"` are the rates profiles carry).
    pub fn corrupts(&self, stage: &str, key: &str) -> bool {
        let rate = match stage {
            "zone" => self.profile.zone_corrupt_per_mille,
            "whois" => self.profile.whois_corrupt_per_mille,
            _ => 0,
        };
        if rate == 0 {
            return false;
        }
        let roll = self.roll(CH_CORRUPT ^ fnv1a(stage.as_bytes()), key, 0);
        Self::hits(roll, rate)
    }
}

fn parse_seed(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(42, FaultProfile::storm());
        let b = FaultPlan::new(42, FaultProfile::storm());
        for attempt in 0..8 {
            for domain in ["xn--a.com", "xn--b.net", "c.org"] {
                assert_eq!(a.dns_fault(domain, attempt), b.dns_fault(domain, attempt));
                assert_eq!(a.http_fault(domain, attempt), b.http_fault(domain, attempt));
            }
        }
    }

    #[test]
    fn seeds_change_the_schedule() {
        let a = FaultPlan::new(1, FaultProfile::storm());
        let b = FaultPlan::new(2, FaultProfile::storm());
        let differs = (0..200).any(|i| {
            let d = format!("xn--{i}.com");
            a.dns_fault(&d, 0) != b.dns_fault(&d, 0)
        });
        assert!(differs, "different seeds produced identical schedules");
    }

    #[test]
    fn persistent_faults_recur_across_attempts() {
        let plan = FaultPlan::new(7, FaultProfile::storm());
        let persistent: Vec<String> = (0..500)
            .map(|i| format!("xn--p{i}.com"))
            .filter(|d| plan.dns_fault(d, 0).is_some_and(|f| f.persistent))
            .collect();
        assert!(!persistent.is_empty(), "storm rolled no persistent faults");
        for domain in &persistent {
            for attempt in 1..6 {
                let fault = plan.dns_fault(domain, attempt).expect("fault vanished");
                assert!(fault.persistent);
                assert_eq!(fault, plan.dns_fault(domain, 0).unwrap());
            }
        }
    }

    #[test]
    fn transient_faults_vary_by_attempt() {
        let plan = FaultPlan::new(11, FaultProfile::flaky());
        // Some domain must see a fault on one attempt and none on another.
        let recovered = (0..500).any(|i| {
            let d = format!("xn--t{i}.com");
            let first = plan.dns_fault(&d, 0);
            first.is_some_and(|f| !f.persistent) && plan.dns_fault(&d, 1).is_none()
        });
        assert!(recovered, "no transient fault ever cleared on retry");
    }

    #[test]
    fn rates_land_near_nominal() {
        let plan = FaultPlan::new(99, FaultProfile::storm());
        let n = 4000;
        let faulted = (0..n)
            .filter(|i| plan.dns_fault(&format!("xn--r{i}.com"), 0).is_some())
            .count();
        // storm: 150‰ persistent + 300‰ transient of the remainder ≈ 40.5%.
        let rate = faulted as f64 / n as f64;
        assert!((0.32..0.50).contains(&rate), "rate {rate}");
    }

    #[test]
    fn none_profile_is_inert() {
        let plan = FaultPlan::new(1234, FaultProfile::none());
        assert!(!plan.is_active());
        for i in 0..100 {
            let d = format!("xn--n{i}.com");
            assert_eq!(plan.dns_fault(&d, 0), None);
            assert_eq!(plan.http_fault(&d, 0), None);
            assert!(!plan.corrupts("zone", &d));
        }
    }

    #[test]
    fn spec_parsing_round_trips() {
        let smoke = FaultPlan::from_spec("smoke").unwrap();
        assert_eq!(smoke.profile().name, "smoke");
        assert_eq!(smoke, FaultPlan::from_spec("smoke").unwrap());

        let seeded = FaultPlan::from_spec("12345").unwrap();
        assert_eq!(seeded.seed(), 12345);
        assert_eq!(seeded.profile().name, "flaky");

        let hex = FaultPlan::from_spec("0xBEEF").unwrap();
        assert_eq!(hex.seed(), 0xBEEF);

        let both = FaultPlan::from_spec("storm:7").unwrap();
        assert_eq!(both.seed(), 7);
        assert_eq!(both.profile().name, "storm");

        assert!(FaultPlan::from_spec("tempest").is_err());
        assert!(FaultPlan::from_spec("smoke:xyz").is_err());
    }

    #[test]
    fn corruption_channels_are_independent() {
        let plan = FaultPlan::new(3, FaultProfile::storm());
        let zone: Vec<bool> = (0..200)
            .map(|i| plan.corrupts("zone", &format!("k{i}")))
            .collect();
        let whois: Vec<bool> = (0..200)
            .map(|i| plan.corrupts("whois", &format!("k{i}")))
            .collect();
        assert!(zone.iter().any(|&b| b));
        assert!(whois.iter().any(|&b| b));
        assert_ne!(zone, whois, "channels share a hash stream");
        assert!(!plan.corrupts("unknown-stage", "k0"));
    }
}
