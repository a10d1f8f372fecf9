//! The Section VI-D candidate survey, enumerated once per run.
//!
//! A brand's lookalike candidates depend only on the brand list, and the
//! four generators that report on them read nested prefixes of it:
//! [`crate::reports::ext_multichar`] the top 5,
//! [`crate::reports::ext_squatting`] the top 10, [`crate::reports::fig6`]
//! the top 30 and [`crate::reports::fig7`] the top 100. Following
//! ShamFinder's "build the homoglyph database once, then look up",
//! [`CandidateSurvey::build`] enumerates every pool once, keeps only what
//! those reports read, and they look it up.

use idnre_core::{AvailabilityEnumerator, AvailabilityReport};
use idnre_datagen::{Brand, BrandList};
use idnre_telemetry::{Recorder, SpanCtx};
use std::collections::HashSet;

/// Figure 7 surveys the one-character pools of this many top brands.
pub const SINGLE_BRANDS: usize = 100;

/// The multi-character extension enumerates two-character pools for this
/// many top brands.
pub const PAIR_BRANDS: usize = 5;

/// Each two-character pool stops at this many candidates.
pub const PAIR_CAP: usize = 3_000;

/// Figure 6 samples traffic for the homographic candidates of this many
/// top brands.
pub const FIG6_BRANDS: usize = 30;

/// The span the survey records under, parented at the run root. Its
/// records are the candidates enumerated.
pub const SURVEY_SPAN: &str = "report.candidates";

/// What the report generators read of the Section VI-D enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSurvey {
    /// One-character pool of each top-[`SINGLE_BRANDS`] brand, in rank
    /// order.
    pub singles: Vec<AvailabilityReport>,
    /// Two-character pool (capped at [`PAIR_CAP`]) of each
    /// top-[`PAIR_BRANDS`] brand, in rank order.
    pub pairs: Vec<AvailabilityReport>,
    /// ACE names of the top-[`FIG6_BRANDS`] brands' homographic
    /// one-character candidates, in enumeration order: the order Figure 6
    /// samples their traffic in.
    pub fig6: Vec<String>,
}

/// One enumeration: a brand's one- or two-character pool.
struct Job<'a> {
    brand: &'a str,
    pairs: bool,
    /// Keep the homographic candidates' ACE names (Figure 6's brands).
    keep_aces: bool,
}

impl CandidateSurvey {
    /// Enumerates the pools of the top brands of `brands` on `threads`
    /// workers, recording one [`SURVEY_SPAN`] span under the run root. The
    /// survey is identical for every thread count.
    pub fn build(brands: &BrandList, threads: usize, recorder: &dyn Recorder) -> Self {
        let mut span = recorder.span_at(SURVEY_SPAN, SpanCtx::ROOT, 0);
        let domains: Vec<String> = brands
            .top(SINGLE_BRANDS)
            .iter()
            .map(Brand::domain)
            .collect();
        // A two-character pool costs about forty one-character ones.
        // Queued first, one job per steal, they start before the cheap
        // jobs that even out the workers' finish.
        let pair_jobs = domains.iter().take(PAIR_BRANDS).map(|brand| Job {
            brand,
            pairs: true,
            keep_aces: false,
        });
        let single_jobs = domains.iter().enumerate().map(|(rank, brand)| Job {
            brand,
            pairs: false,
            keep_aces: rank < FIG6_BRANDS,
        });
        let jobs: Vec<Job<'_>> = pair_jobs.chain(single_jobs).collect();
        let enumerator = AvailabilityEnumerator::new();
        let threshold = enumerator.threshold();
        let mut results = idnre_par::par_chunks(&jobs, threads, 1, |_, job| {
            let job = &job[0];
            let candidates = if job.pairs {
                enumerator.generate_pairs(job.brand, PAIR_CAP)
            } else {
                enumerator.generate(job.brand)
            };
            let generated = candidates.len();
            let aces: Vec<String> = candidates
                .into_iter()
                .filter(|c| c.ssim >= threshold)
                .map(|c| c.ace)
                .collect();
            let report = AvailabilityReport {
                brand: job.brand.to_string(),
                generated,
                homographic: aces.len(),
            };
            (report, if job.keep_aces { aces } else { Vec::new() })
        });
        span.add_records(results.iter().map(|(r, _)| r.generated as u64).sum());
        let (singles, aces): (Vec<_>, Vec<Vec<String>>) = results
            .split_off(domains.len().min(PAIR_BRANDS))
            .into_iter()
            .unzip();
        CandidateSurvey {
            singles,
            pairs: results.into_iter().map(|(report, _)| report).collect(),
            fig6: aces.into_iter().flatten().collect(),
        }
    }

    /// Figure 6's candidate set, for the fused scan's
    /// [`crate::passes::Fig6Pass`] to test the corpus against.
    pub fn fig6_pool(&self) -> HashSet<String> {
        self.fig6.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idnre_telemetry::{NoopRecorder, Registry};

    /// The enumerator stays the oracle: the survey equals its own
    /// per-brand survey, capped pair counts and homographic lists.
    #[test]
    fn survey_equals_the_enumerator() {
        let brands = BrandList::alexa_top_1k();
        let survey = CandidateSurvey::build(&brands, 2, &NoopRecorder);
        let enumerator = AvailabilityEnumerator::new();
        let domains: Vec<String> = brands
            .top(SINGLE_BRANDS)
            .iter()
            .map(Brand::domain)
            .collect();
        assert_eq!(survey.singles.len(), SINGLE_BRANDS);
        assert_eq!(
            survey.singles,
            enumerator.survey(domains.iter().map(String::as_str))
        );
        let pairs: Vec<AvailabilityReport> = domains[..PAIR_BRANDS]
            .iter()
            .map(|brand| {
                let pool = enumerator.generate_pairs(brand, PAIR_CAP);
                AvailabilityReport {
                    brand: brand.clone(),
                    generated: pool.len(),
                    homographic: pool.iter().filter(|c| c.ssim >= 0.95).count(),
                }
            })
            .collect();
        assert_eq!(survey.pairs, pairs);
        let fig6: Vec<String> = domains[..FIG6_BRANDS]
            .iter()
            .flat_map(|brand| enumerator.homographic(brand))
            .map(|c| c.ace)
            .collect();
        assert_eq!(survey.fig6, fig6);
    }

    #[test]
    fn short_brand_lists_shrink_every_pool() {
        let survey = CandidateSurvey::build(&BrandList::with_size(3), 2, &NoopRecorder);
        assert_eq!(survey.singles.len(), 3);
        assert_eq!(survey.pairs.len(), 3);
        let registry = Registry::new();
        let empty = CandidateSurvey::build(&BrandList::with_size(0), 2, &registry);
        assert!(empty.singles.is_empty() && empty.pairs.is_empty() && empty.fig6.is_empty());
        let stage = registry.stage(SURVEY_SPAN);
        assert_eq!((stage.calls(), stage.records()), (1, 0));
    }
}
