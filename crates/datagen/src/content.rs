//! Table V's content-category distributions: the generator's ground truth
//! for what a visitor finds behind a domain, in the crawler's
//! [`UsageCategory`] taxonomy.

use idnre_crawler::UsageCategory;
use rand::Rng;

/// Table V's measured IDN distribution (per mille), in
/// [`UsageCategory::ALL`] order.
const IDN_WEIGHTS: [u32; 7] = [456, 130, 32, 112, 16, 56, 198];
/// Table V's measured non-IDN distribution (per mille).
const NON_IDN_WEIGHTS: [u32; 7] = [152, 148, 86, 214, 32, 32, 336];

/// Samples a category for an IDN website.
pub(crate) fn sample_idn<R: Rng + ?Sized>(rng: &mut R) -> UsageCategory {
    weighted(rng, &IDN_WEIGHTS)
}

/// Samples a category for a non-IDN website.
pub(crate) fn sample_non_idn<R: Rng + ?Sized>(rng: &mut R) -> UsageCategory {
    weighted(rng, &NON_IDN_WEIGHTS)
}

fn weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[u32; 7]) -> UsageCategory {
    let total: u32 = weights.iter().sum();
    let mut pick = rng.gen_range(0..total);
    for (category, &w) in UsageCategory::ALL.iter().zip(weights) {
        if pick < w {
            return *category;
        }
        pick -= w;
    }
    UsageCategory::Meaningful
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frequencies(sampler: fn(&mut StdRng) -> UsageCategory, n: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 7];
        for _ in 0..n {
            let c = sampler(&mut rng);
            let idx = UsageCategory::ALL.iter().position(|&x| x == c).unwrap();
            counts[idx] += 1;
        }
        counts.iter().map(|&c| c as f64 / n as f64).collect()
    }

    #[test]
    fn idn_distribution_matches_table_v() {
        let freq = frequencies(sample_idn, 50_000);
        assert!((freq[0] - 0.456).abs() < 0.01, "not-resolved {}", freq[0]);
        assert!((freq[6] - 0.198).abs() < 0.01, "meaningful {}", freq[6]);
    }

    #[test]
    fn non_idn_distribution_matches_table_v() {
        let freq = frequencies(sample_non_idn, 50_000);
        assert!((freq[0] - 0.152).abs() < 0.01, "not-resolved {}", freq[0]);
        assert!((freq[6] - 0.336).abs() < 0.01, "meaningful {}", freq[6]);
    }

    #[test]
    fn idn_less_meaningful_than_non_idn() {
        // Finding 8's contrast must hold in expectation.
        let idn = frequencies(sample_idn, 20_000);
        let non = frequencies(sample_non_idn, 20_000);
        assert!(idn[0] > non[0] * 2.0); // unresolved gap
        assert!(idn[6] < non[6]); // meaningful gap
    }
}
