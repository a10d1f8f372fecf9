//! The artifact-fold oracle the equivalence tests share.
//!
//! The generator folds Figures 2–4's pDNS populations and Tables VI–VII's
//! certificate tallies as it emits the artifacts. The oracle recomputes
//! both as the run once did after the build: each record's aggregate
//! looked up in the finished pDNS store, and each regenerated certificate
//! classified by a [`Validator`].

use idnre_certs::{CertProblem, SharingAnalysis, Validator};
use idnre_datagen::{Ecosystem, KeyedCorpus};
use idnre_pdns::ActivityAnalytics;

/// Asserts that `eco`'s artifact folds equal the oracle over `corpus`.
/// The populations compare as multisets: sorted samples, segment counts
/// and IP totals, which is all the reports read of them.
pub fn assert_artifact_folds(eco: &Ecosystem, corpus: &KeyedCorpus, what: &str) {
    // Benign IDNs, blacklisted IDNs, non-IDNs.
    let mut looked_up: [ActivityAnalytics; 3] = Default::default();
    for idn in [true, false] {
        corpus.for_each_shard(idn, &mut |records, _| {
            for reg in records {
                if let Some(aggregate) = eco.pdns.lookup(&reg.domain) {
                    let population = match (idn, reg.malicious.is_some()) {
                        (true, false) => 0,
                        (true, true) => 1,
                        (false, _) => 2,
                    };
                    looked_up[population].add(aggregate);
                }
            }
        });
    }
    let activity = &eco.activity;
    let folded = [&activity.benign, &activity.malicious, &activity.non_idn];
    for ((name, fold), oracle) in ["benign", "malicious", "non-IDN"]
        .into_iter()
        .zip(folded)
        .zip(&looked_up)
    {
        assert_eq!(
            fold.active_time_ecdf(),
            oracle.active_time_ecdf(),
            "{what}: {name} active days"
        );
        assert_eq!(
            fold.query_volume_ecdf(),
            oracle.query_volume_ecdf(),
            "{what}: {name} query volumes"
        );
        assert_eq!(
            fold.segment_report(),
            oracle.segment_report(),
            "{what}: {name} /24 segments"
        );
        assert_eq!(fold.total_ips(), oracle.total_ips(), "{what}: {name} IPs");
    }

    let validator = Validator::with_default_roots(eco.config.snapshot.day_number());
    let (mut idn, mut non_idn) = ([0u64; 4], [0u64; 4]);
    let mut sharing = SharingAnalysis::new();
    for (domain, cert) in corpus.certificates() {
        let bucket = match validator.classify(&cert, &domain) {
            Some(CertProblem::Expired) => 0,
            Some(CertProblem::InvalidAuthority) => 1,
            Some(CertProblem::InvalidCommonName) => 2,
            None => 3,
        };
        if idnre_idna::is_idn(&domain) {
            idn[bucket] += 1;
            sharing.observe(&domain, &cert);
        } else {
            non_idn[bucket] += 1;
        }
    }
    let tally = &eco.certificate_tally;
    assert_eq!(tally.idn, idn, "{what}: IDN certificate buckets");
    assert_eq!(
        tally.non_idn, non_idn,
        "{what}: non-IDN certificate buckets"
    );
    assert_eq!(tally.sharing, sharing, "{what}: shared certificates");
}
