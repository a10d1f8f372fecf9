//! Centralized `repro` flag-compatibility rules.
//!
//! The repro driver grew its mutually-exclusive modes one at a time —
//! `--stream`, `--bench`, `--faults`, `--trace`, `--slo`, and now
//! `--crawl-sched` — and each arrival scattered another ad-hoc `if` into
//! `main`. This module replaces those with two declarative tables
//! ([`FLAG_CONFLICTS`] and [`FLAG_REQUIRES`]) and one validator
//! ([`validate_flags`]) so every incompatible pair is rejected with the
//! same message shape and is covered by a unit test. The driver maps any
//! `Err` to a usage error (exit code 2).

/// Which repro flags were present on the command line. Only the flags
/// that participate in a compatibility rule appear here; value-carrying
/// flags collapse to "was it given".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CliFlags {
    /// `--bench`: timed pipeline run under its own registries.
    pub bench: bool,
    /// `--stream`: bounded-memory streaming build.
    pub stream: bool,
    /// `--faults SPEC`: seeded fault schedule + error-budget exit code.
    pub faults: bool,
    /// `--metrics FORMAT`: stage-timing snapshot on stderr.
    pub metrics: bool,
    /// `--trace PATH`: Chrome trace-event span tree.
    pub trace: bool,
    /// `--slo PROFILE`: latency SLO gate owning the exit code.
    pub slo: bool,
    /// `--thread-sweep N,N,...`: repeat the timed run per worker count.
    pub thread_sweep: bool,
    /// `--dump-dataset PATH`: write the canonical dataset bytes.
    pub dump_dataset: bool,
    /// `--crawl-sched`: route the crawl survey through the event-driven
    /// scheduler (timeout wheel, rate limits, breakers, shedding).
    pub crawl_sched: bool,
    /// `--mine-portfolios`: two-pass skeleton-LSH confusable-portfolio
    /// mining appended to the report.
    pub mine_portfolios: bool,
    /// `--epochs N`: incremental zone-diff epochs over the streamed build.
    pub epochs: bool,
    /// `--churn-per-mille M`: day-simulator event rate for `--epochs`.
    pub churn_per_mille: bool,
}

impl CliFlags {
    fn is_set(&self, flag: &str) -> bool {
        match flag {
            "--bench" => self.bench,
            "--stream" => self.stream,
            "--faults" => self.faults,
            "--metrics" => self.metrics,
            "--trace" => self.trace,
            "--slo" => self.slo,
            "--thread-sweep" => self.thread_sweep,
            "--dump-dataset" => self.dump_dataset,
            "--crawl-sched" => self.crawl_sched,
            "--mine-portfolios" => self.mine_portfolios,
            "--epochs" => self.epochs,
            "--churn-per-mille" => self.churn_per_mille,
            other => unreachable!("flag {other:?} missing from CliFlags::is_set"),
        }
    }
}

/// Pairs that may not appear together. Order within a pair fixes the
/// message ("A cannot be combined with B"), so the flag a user is most
/// likely to have just added goes first.
pub const FLAG_CONFLICTS: &[(&str, &str)] = &[
    ("--stream", "--dump-dataset"),
    ("--bench", "--faults"),
    ("--bench", "--metrics"),
    ("--bench", "--trace"),
    ("--bench", "--slo"),
    ("--slo", "--faults"),
    ("--crawl-sched", "--bench"),
    // The faulted surveys would walk the base corpus and its base zones
    // and WHOIS records, not the final epoch's overlay; mining's
    // bucket-index pass is one-shot by design (no Merge removal).
    // `ReproContext::build` asserts both rules for library callers.
    ("--epochs", "--faults"),
    ("--epochs", "--mine-portfolios"),
    // --bench runs under its own registries and carries its own epoch
    // probe pair; an interactive epoch loop on top would be ignored.
    ("--epochs", "--bench"),
];

/// Pairs where the first flag only makes sense alongside the second
/// ("A requires B").
pub const FLAG_REQUIRES: &[(&str, &str)] = &[
    ("--thread-sweep", "--bench"),
    ("--crawl-sched", "--faults"),
    // The epoch engine is built on the streamed KeyedCorpus (on-demand
    // shard regeneration is what makes re-fold-only-dirty possible).
    ("--epochs", "--stream"),
    ("--churn-per-mille", "--epochs"),
];

/// Checks the flag set against both tables. The first violated rule (in
/// table order) is returned as the full user-facing message.
pub fn validate_flags(flags: &CliFlags) -> Result<(), String> {
    for (a, b) in FLAG_CONFLICTS {
        if flags.is_set(a) && flags.is_set(b) {
            return Err(format!("{a} cannot be combined with {b}"));
        }
    }
    for (flag, needs) in FLAG_REQUIRES {
        if flags.is_set(flag) && !flags.is_set(needs) {
            return Err(format!("{flag} requires {needs}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(set: &[&str]) -> CliFlags {
        let mut flags = CliFlags::default();
        for name in set {
            match *name {
                "--bench" => flags.bench = true,
                "--stream" => flags.stream = true,
                "--faults" => flags.faults = true,
                "--metrics" => flags.metrics = true,
                "--trace" => flags.trace = true,
                "--slo" => flags.slo = true,
                "--thread-sweep" => flags.thread_sweep = true,
                "--dump-dataset" => flags.dump_dataset = true,
                "--crawl-sched" => flags.crawl_sched = true,
                "--mine-portfolios" => flags.mine_portfolios = true,
                "--epochs" => flags.epochs = true,
                "--churn-per-mille" => flags.churn_per_mille = true,
                other => panic!("unknown flag {other:?}"),
            }
        }
        flags
    }

    #[test]
    fn empty_flag_set_is_valid() {
        assert_eq!(validate_flags(&CliFlags::default()), Ok(()));
    }

    #[test]
    fn every_single_flag_is_valid_alone_or_with_its_requirement() {
        for name in [
            "--bench",
            "--stream",
            "--faults",
            "--metrics",
            "--trace",
            "--slo",
            "--dump-dataset",
            "--mine-portfolios",
        ] {
            assert_eq!(validate_flags(&with(&[name])), Ok(()), "{name} alone");
        }
        // Mining composes with the streamed build (bounded-memory mining),
        // with a fault schedule (the miner and the faulted surveys touch
        // disjoint stages) and with --bench (which mines both legs anyway).
        assert_eq!(
            validate_flags(&with(&["--mine-portfolios", "--stream"])),
            Ok(())
        );
        assert_eq!(
            validate_flags(&with(&["--mine-portfolios", "--faults"])),
            Ok(())
        );
        assert_eq!(
            validate_flags(&with(&["--mine-portfolios", "--bench"])),
            Ok(())
        );
        assert_eq!(
            validate_flags(&with(&["--thread-sweep", "--bench"])),
            Ok(())
        );
        assert_eq!(
            validate_flags(&with(&["--crawl-sched", "--faults"])),
            Ok(())
        );
        // The faulted surveys walk the streamed corpus view like the scan,
        // so a fault schedule (scheduled or not) composes with --stream.
        assert_eq!(validate_flags(&with(&["--stream", "--faults"])), Ok(()));
        assert_eq!(
            validate_flags(&with(&["--crawl-sched", "--faults", "--stream"])),
            Ok(())
        );
        assert_eq!(validate_flags(&with(&["--epochs", "--stream"])), Ok(()));
        assert_eq!(
            validate_flags(&with(&["--churn-per-mille", "--epochs", "--stream"])),
            Ok(())
        );
        // The streamed bench is a supported mode: `--bench --stream` times
        // the bounded-memory build and records its residency peak.
        assert_eq!(validate_flags(&with(&["--stream", "--bench"])), Ok(()));
        assert_eq!(
            validate_flags(&with(&["--stream", "--bench", "--thread-sweep"])),
            Ok(())
        );
    }

    /// One test body per conflict pair, driven off the table itself so a
    /// new entry cannot ship untested.
    #[test]
    fn stream_conflicts_with_dump_dataset() {
        assert_conflict("--stream", "--dump-dataset");
    }

    #[test]
    fn bench_conflicts_with_faults() {
        assert_conflict("--bench", "--faults");
    }

    #[test]
    fn bench_conflicts_with_metrics() {
        assert_conflict("--bench", "--metrics");
    }

    #[test]
    fn bench_conflicts_with_trace() {
        assert_conflict("--bench", "--trace");
    }

    #[test]
    fn bench_conflicts_with_slo() {
        assert_conflict("--bench", "--slo");
    }

    #[test]
    fn slo_conflicts_with_faults() {
        assert_conflict("--slo", "--faults");
    }

    #[test]
    fn crawl_sched_conflicts_with_bench() {
        assert_conflict("--crawl-sched", "--bench");
    }

    #[test]
    fn epochs_conflicts_with_faults() {
        // --epochs needs --stream to be a valid set at all; pin --stream
        // and observe that the epochs×faults row fires, then check the
        // bare pair.
        assert_eq!(
            validate_flags(&with(&["--epochs", "--stream", "--faults"])),
            Err("--epochs cannot be combined with --faults".into())
        );
        assert_conflict("--epochs", "--faults");
    }

    #[test]
    fn epochs_conflicts_with_bench() {
        assert_conflict("--epochs", "--bench");
    }

    #[test]
    fn epochs_conflicts_with_mine_portfolios() {
        let flags = with(&["--epochs", "--mine-portfolios", "--stream"]);
        assert_eq!(
            validate_flags(&flags),
            Err("--epochs cannot be combined with --mine-portfolios".into())
        );
        assert_conflict("--epochs", "--mine-portfolios");
    }

    #[test]
    fn thread_sweep_requires_bench() {
        assert_eq!(
            validate_flags(&with(&["--thread-sweep"])),
            Err("--thread-sweep requires --bench".into())
        );
    }

    #[test]
    fn crawl_sched_requires_faults() {
        assert_eq!(
            validate_flags(&with(&["--crawl-sched"])),
            Err("--crawl-sched requires --faults".into())
        );
    }

    #[test]
    fn epochs_requires_stream() {
        assert_eq!(
            validate_flags(&with(&["--epochs"])),
            Err("--epochs requires --stream".into())
        );
    }

    #[test]
    fn churn_per_mille_requires_epochs() {
        assert_eq!(
            validate_flags(&with(&["--churn-per-mille", "--stream"])),
            Err("--churn-per-mille requires --epochs".into())
        );
    }

    #[test]
    fn every_conflict_pair_is_rejected_symmetrically() {
        for (a, b) in FLAG_CONFLICTS {
            let err = validate_flags(&with(&[a, b])).unwrap_err();
            assert_eq!(err, format!("{a} cannot be combined with {b}"));
        }
    }

    #[test]
    fn tables_only_name_flags_the_struct_knows() {
        // `is_set` panics on unknown names; walking both tables proves
        // every entry resolves.
        let flags = CliFlags::default();
        for (a, b) in FLAG_CONFLICTS.iter().chain(FLAG_REQUIRES) {
            assert!(!flags.is_set(a) && !flags.is_set(b));
        }
    }

    fn assert_conflict(a: &str, b: &str) {
        assert_eq!(
            validate_flags(&with(&[a, b])),
            Err(format!("{a} cannot be combined with {b}"))
        );
    }
}
