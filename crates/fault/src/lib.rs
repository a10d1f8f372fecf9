//! Deterministic fault injection and recovery for the measurement pipeline.
//!
//! The paper's Section IV-D crawl ran against the real Internet: transient
//! SERVFAILs, lame delegations, slow authoritatives, and a WHOIS corpus
//! where only 50.19% of records parsed. Production measurement toolkits
//! (ZDNS being the canonical example) treat retries, timeouts and per-query
//! error accounting as core design, so this crate gives the reproduction
//! the same discipline — *deterministically*, so a failure schedule can be
//! replayed byte-identically from a seed:
//!
//! * [`FaultPlan`] — a seeded schedule of per-attempt transient and
//!   per-target persistent faults (DNS timeout / SERVFAIL / REFUSED, slow
//!   or truncated HTTP, corrupted ingest records). Every decision is a pure
//!   hash of `(seed, target, channel, attempt)`: no global state, no
//!   ordering sensitivity, identical across runs and thread counts.
//! * [`RetryPolicy`] — max attempts, exponential backoff with deterministic
//!   jitter, and a per-target deadline budget, executed against a
//!   [`SimClock`] so elapsed time and backoff are virtual (and therefore
//!   replayable) rather than wall-clock.
//! * [`ErrorBudget`] — thread-safe ok/error accounting that folds into the
//!   run-level [`RunStatus`] and its exit-code contract: `0` clean, `3`
//!   degraded (errors occurred but within budget), `4` budget exceeded.
//!
//! # Examples
//!
//! ```
//! use idnre_fault::{Attempt, FaultPlan, RetryPolicy, SimClock};
//!
//! let plan = FaultPlan::from_spec("smoke").unwrap();
//! let policy = RetryPolicy::default();
//! let mut clock = SimClock::new();
//! // Succeed on the third attempt; the report carries the whole schedule.
//! let report = policy.execute(plan.seed(), &mut clock, |attempt| {
//!     if attempt < 2 {
//!         (Attempt::Retry("timeout"), policy.attempt_timeout_nanos)
//!     } else {
//!         (Attempt::Done("answer"), policy.attempt_cost_nanos)
//!     }
//! });
//! assert_eq!(report.value, "answer");
//! assert_eq!(report.attempts, 3);
//! assert_eq!(report.retries, 2);
//! assert!(report.backoff_nanos > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod plan;
mod retry;

pub use budget::{ErrorBudget, RunStatus};
pub use plan::{Fault, FaultKind, FaultPlan, FaultProfile, ParseFaultSpecError};
pub use retry::{Attempt, RetryPolicy, RetryReport};

/// A simulated monotonic clock in virtual nanoseconds.
///
/// Retry schedules run against a `SimClock` instead of the wall clock, so
/// per-target elapsed time, backoff and deadline decisions are a pure
/// function of the fault seed — replayable byte-identically. Each target
/// (domain, record, …) gets its own clock starting at zero, which also
/// makes schedules independent of worker-thread interleaving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    nanos: u64,
}

impl SimClock {
    /// A clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds since the clock's creation.
    pub fn now(&self) -> u64 {
        self.nanos
    }

    /// Advances the clock by `nanos` virtual nanoseconds (saturating).
    pub fn advance(&mut self, nanos: u64) {
        self.nanos = self.nanos.saturating_add(nanos);
    }
}

/// SplitMix64 finalizer — the avalanche all fault decisions run through.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_saturates() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), 0);
        clock.advance(250);
        clock.advance(750);
        assert_eq!(clock.now(), 1_000);
        clock.advance(u64::MAX);
        assert_eq!(clock.now(), u64::MAX);
    }

    #[test]
    fn mix_avalanche_differs_on_nearby_inputs() {
        assert_ne!(mix64(1), mix64(2));
        assert_ne!(mix64(0), 0);
    }
}
