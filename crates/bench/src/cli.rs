//! Centralized `repro` flag-compatibility rules.
//!
//! Most of `repro`'s modes compose; the few pairs that do not, and the
//! flags that only mean something next to another, are listed in two
//! declarative tables ([`FLAG_CONFLICTS`] and [`FLAG_REQUIRES`]) checked by
//! one validator ([`validate_flags`]), so every rejected combination gets
//! the same message shape and a unit test. `repro` maps any `Err` to a
//! usage error (exit code 2).

/// Which repro flags were present on the command line. Only the flags
/// that participate in a compatibility rule appear here; value-carrying
/// flags collapse to "was it given".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CliFlags {
    /// `--stream`: bounded-memory streaming build.
    pub stream: bool,
    /// `--shard-size N`: the streamed build's shard size.
    pub shard_size: bool,
    /// `--faults SPEC`: seeded fault schedule + error-budget exit code.
    pub faults: bool,
    /// `--slo PROFILE`: latency SLO gate owning the exit code.
    pub slo: bool,
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
            "--stream" => self.stream,
            "--shard-size" => self.shard_size,
            "--faults" => self.faults,
            "--slo" => self.slo,
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
    ("--slo", "--faults"),
    // The faulted surveys would walk the base corpus and its base zones
    // and WHOIS records, not the final epoch's overlay; mining's
    // bucket-index pass is one-shot by design (no Merge removal).
    // `ReproContext::build` asserts both rules for library callers.
    ("--epochs", "--faults"),
    ("--epochs", "--mine-portfolios"),
];

/// Pairs where the first flag only makes sense alongside the second
/// ("A requires B").
pub const FLAG_REQUIRES: &[(&str, &str)] = &[
    ("--crawl-sched", "--faults"),
    // The epoch engine is built on the streamed KeyedCorpus (on-demand
    // shard regeneration is what makes re-fold-only-dirty possible).
    ("--epochs", "--stream"),
    ("--churn-per-mille", "--epochs"),
    // A batch build scans in the default shard; only the streamed build
    // regenerates at a chosen size.
    ("--shard-size", "--stream"),
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
                "--stream" => flags.stream = true,
                "--shard-size" => flags.shard_size = true,
                "--faults" => flags.faults = true,
                "--slo" => flags.slo = true,
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
        for name in ["--stream", "--faults", "--slo", "--mine-portfolios"] {
            assert_eq!(validate_flags(&with(&[name])), Ok(()), "{name} alone");
        }
        // Mining composes with the streamed build (bounded-memory mining)
        // and with a fault schedule (the miner and the faulted surveys
        // touch disjoint stages).
        assert_eq!(
            validate_flags(&with(&["--mine-portfolios", "--stream"])),
            Ok(())
        );
        assert_eq!(
            validate_flags(&with(&["--mine-portfolios", "--faults"])),
            Ok(())
        );
        assert_eq!(validate_flags(&with(&["--shard-size", "--stream"])), Ok(()));
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
    }

    /// One test body per conflict pair, driven off the table itself so a
    /// new entry cannot ship untested.
    #[test]
    fn slo_conflicts_with_faults() {
        assert_conflict("--slo", "--faults");
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
    fn epochs_conflicts_with_mine_portfolios() {
        let flags = with(&["--epochs", "--mine-portfolios", "--stream"]);
        assert_eq!(
            validate_flags(&flags),
            Err("--epochs cannot be combined with --mine-portfolios".into())
        );
        assert_conflict("--epochs", "--mine-portfolios");
    }

    #[test]
    fn shard_size_requires_stream() {
        assert_eq!(
            validate_flags(&with(&["--shard-size"])),
            Err("--shard-size requires --stream".into())
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
