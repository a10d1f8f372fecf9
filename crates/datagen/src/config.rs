//! Generator configuration: the paper's measured anchors, scaled.

use idnre_whois::Date;

/// Declared shape of one TLD population, anchored to Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TldSpec {
    /// TLD label in ACE form (`com`, `net`, `org`, or an `xn--` iTLD).
    pub tld: &'static str,
    /// Total SLDs in the real zone (Table I's "# SLD").
    pub declared_slds: u64,
    /// IDN SLDs in the real zone (Table I's "# IDN").
    pub declared_idns: u64,
    /// Domains with obtainable WHOIS (Table I's "Domain WHOIS").
    pub declared_whois: u64,
    /// Blacklisted counts per source: (VirusTotal, Qihoo 360, Baidu).
    pub declared_blacklisted: (u64, u64, u64),
}

/// The Table I anchor rows. The 53 iTLDs are modelled as one aggregate zone
/// plus three representative concrete iTLDs used for browser/registry tests.
pub const TABLE_I: [TldSpec; 4] = [
    TldSpec {
        tld: "com",
        declared_slds: 129_216_926,
        declared_idns: 1_007_148,
        declared_whois: 590_542,
        declared_blacklisted: (3_571, 1_807, 26),
    },
    TldSpec {
        tld: "net",
        declared_slds: 14_785_199,
        declared_idns: 231_896,
        declared_whois: 131_573,
        declared_blacklisted: (661, 91, 1),
    },
    TldSpec {
        tld: "org",
        declared_slds: 10_390_116,
        declared_idns: 25_629,
        declared_whois: 19_271,
        declared_blacklisted: (56, 2, 1),
    },
    TldSpec {
        tld: "xn--fiqs8s", // the iTLD aggregate, keyed by 中国
        declared_slds: 208_163,
        declared_idns: 208_163,
        declared_whois: 2_226,
        declared_blacklisted: (90, 63, 2),
    },
];

/// Full generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EcosystemConfig {
    /// RNG seed; every derived stream is a function of it.
    pub seed: u64,
    /// Scale denominator: generated counts ≈ declared counts / `scale`.
    /// 100 reproduces every distribution with ~14.7K IDNs; 1 would emit the
    /// full 1.47M-domain corpus.
    pub scale: u64,
    /// Attack populations (homograph / semantic) are small, so they get
    /// their own denominator; 1 generates them at full size.
    pub attack_scale: u64,
    /// The zone-snapshot date (Table I: 2017-09-21 for com/net).
    pub snapshot: Date,
    /// How many non-IDNs to sample per TLD for the comparison populations
    /// (the paper sampled 1M/100K/100K; this is the total across TLDs,
    /// subject to `scale`).
    pub non_idn_sample: u64,
    /// Number of brands in the target list (Alexa Top 1K).
    pub brand_count: usize,
    /// Worker threads for the pipeline's parallel stages (generation,
    /// detector scans, surveys). Affects wall time only — every stage is
    /// byte-identical across thread counts. Defaults to the machine's
    /// available parallelism.
    pub threads: usize,
}

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            seed: 0x1DAE_2018,
            scale: 100,
            attack_scale: 1,
            snapshot: Date::new(2017, 9, 21).expect("valid snapshot date"),
            non_idn_sample: 1_200_000,
            brand_count: 1000,
            threads: idnre_par::default_threads(),
        }
    }
}

impl EcosystemConfig {
    /// Scaled IDN count for a TLD spec.
    pub fn scaled_idns(&self, spec: &TldSpec) -> u64 {
        (spec.declared_idns / self.scale).max(1)
    }

    /// Scaled non-IDN sample size for a TLD spec (proportional to the
    /// paper's 1M/100K/100K sampling, zero for iTLDs).
    pub fn scaled_non_idn_sample(&self, spec: &TldSpec) -> u64 {
        let share = match spec.tld {
            "com" => 1_000_000,
            "net" | "org" => 100_000,
            _ => 0,
        };
        share * self.non_idn_sample / 1_200_000 / self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_totals() {
        let slds: u64 = TABLE_I.iter().map(|t| t.declared_slds).sum();
        let idns: u64 = TABLE_I.iter().map(|t| t.declared_idns).sum();
        let whois: u64 = TABLE_I.iter().map(|t| t.declared_whois).sum();
        assert_eq!(slds, 154_600_404);
        assert_eq!(idns, 1_472_836);
        assert_eq!(whois, 743_612); // paper prints 739,160 for the union;
                                    // per-row values sum slightly higher
                                    // (row overlap), close enough to anchor.
    }

    #[test]
    fn scaling() {
        let config = EcosystemConfig::default();
        let com = &TABLE_I[0];
        assert_eq!(config.scaled_idns(com), 10_071);
        assert_eq!(config.scaled_non_idn_sample(com), 10_000);
        let itld = &TABLE_I[3];
        assert_eq!(config.scaled_non_idn_sample(itld), 0);
    }

    #[test]
    fn scale_never_yields_zero_idns() {
        let config = EcosystemConfig {
            scale: 10_000_000,
            ..EcosystemConfig::default()
        };
        for spec in &TABLE_I {
            assert!(config.scaled_idns(spec) >= 1);
        }
    }
}
