//! The `repro` binary's exit path: it returns from `main` without
//! dropping the built context, so these runs check from outside the
//! process that every byte of the report still reaches stdout or the
//! `--write` file, and that the exit code is 0; that a streamed run dumps
//! the batch run's dataset; and that a zero scale or epoch count is
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

/// `--dump-dataset` renders from the corpus's regenerated shards, which
/// both builds keep, so a `--stream` run writes the batch run's bytes.
#[test]
fn streamed_dump_writes_the_batch_bytes() {
    let dump = |name: &str, extra: &[&str]| {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("repro_dump_{name}_{}.txt", std::process::id()));
        let path_arg = path.to_str().expect("utf-8 temp path");
        let mut args = extra.to_vec();
        args.extend(["--dump-dataset", path_arg]);
        let out = repro(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&path).expect("the dump is written");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let batch = dump("batch", &[]);
    assert!(batch.starts_with(b"idnre-dataset/2\n"));
    let streamed = dump("stream", &["--stream", "--shard-size", "64"]);
    assert!(
        streamed == batch,
        "the streamed dump ({} bytes) differs from the batch dump ({} bytes)",
        streamed.len(),
        batch.len()
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

/// A zero scale would divide the populations by zero, and zero epochs
/// would time no epoch: each is a usage error (exit 2, the flag named on
/// stderr), checked before anything is generated.
#[test]
fn zero_scales_are_usage_errors_before_generation() {
    for (args, flag) in [
        (
            &["--scale", "0", "--attack-scale", "25", "table1"][..],
            "--scale",
        ),
        (
            &["--scale", "2000", "--attack-scale", "0", "table1"][..],
            "--attack-scale",
        ),
        (
            &[
                "--stream",
                "--epochs",
                "0",
                "--scale",
                "2000",
                "--attack-scale",
                "25",
                "table1",
            ][..],
            "--epochs",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
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

/// Asking for help is not a usage error: `--help` and `-h` print the
/// usage to stdout and exit 0 before generating anything, while a real
/// usage error keeps exit 2 with the usage on stderr.
#[test]
fn help_prints_the_usage_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stderr}");
        assert!(stdout.starts_with("usage: repro "), "{flag}: {stdout}");
        assert!(stdout.contains("experiments: all "), "{flag}: {stdout}");
        assert!(stderr.is_empty(), "{flag} wrote to stderr: {stderr}");
    }
    let out = repro(&["--no-such-flag"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.starts_with("error: unknown flag \"--no-such-flag\"")
            && stderr.contains("usage: repro "),
        "{stderr}"
    );
    assert!(!stderr.contains("generating ecosystem"), "{stderr}");
}
