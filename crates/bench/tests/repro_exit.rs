//! The `repro` binary's exit path: it returns from `main` without
//! dropping the built context, so these runs check from outside the
//! process that every byte of the report still reaches stdout or the
//! `--write` file, and that the exit code is 0; and that a zero scale is
//! refused before any work.

use idnre_bench::{ReproContext, RunSpec};
use idnre_datagen::EcosystemConfig;
use idnre_telemetry::NoopRecorder;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Arc, OnceLock};

const ARGS: [&str; 5] = ["--scale", "2000", "--attack-scale", "25", "all"];

/// The report a library build of the same config renders.
fn expected() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let config = EcosystemConfig {
            scale: 2000,
            attack_scale: 25,
            ..EcosystemConfig::default()
        };
        ReproContext::build(&config, &RunSpec::default(), Arc::new(NoopRecorder)).full_report()
    })
}

fn repro(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(extra)
        .args(ARGS)
        .output()
        .expect("repro runs")
}

#[test]
fn stdout_carries_the_whole_report_and_exits_zero() {
    let out = repro(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stdout == expected().as_bytes(),
        "stdout ({} bytes) differs from the library's report ({} bytes)",
        out.stdout.len(),
        expected().len()
    );
}

#[test]
fn write_carries_the_whole_report_and_exits_zero() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("repro_exit_{}.md", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let out = repro(&["--write", path_arg]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "--write leaves stdout empty");
    let written = std::fs::read_to_string(&path).expect("report written");
    std::fs::remove_file(&path).expect("remove the written report");
    assert!(
        written == expected(),
        "written report ({} bytes) differs from the library's report ({} bytes)",
        written.len(),
        expected().len()
    );
}

/// A zero scale would divide the populations by zero: it is a usage error
/// (exit 2, the flag named on stderr), checked before anything is
/// generated.
#[test]
fn zero_scales_are_usage_errors_before_generation() {
    for args in [
        ["--scale", "0", "--attack-scale", "25", "table1"],
        ["--scale", "2000", "--attack-scale", "0", "table1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = if args[1] == "0" {
            "--scale"
        } else {
            "--attack-scale"
        };
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag} needs a number")),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("generating ecosystem"),
            "{args:?} generated before the check: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
