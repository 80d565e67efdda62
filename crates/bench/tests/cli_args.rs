//! `repro` must fail loudly on arguments it does not read: an unknown
//! flag or experiment name prints usage to stderr and exits 2 instead of
//! being dropped (a typo like `--quikc` used to run at full fidelity,
//! and `fgi4` used to print the banner and exit 0). `--help` prints
//! usage and exits 0 without running anything.

use std::process::Command;

/// Runs repro with `args`, returning (exit code, stdout, stderr).
fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts `args` is rejected with usage on stderr, naming `culprit`.
fn assert_rejected(args: &[&str], culprit: &str) {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, 2, "{args:?} must exit 2; stderr: {stderr}");
    assert!(stdout.is_empty(), "{args:?} must not run anything; stdout: {stdout}");
    assert!(stderr.contains(culprit), "stderr must name {culprit:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "stderr must show usage: {stderr}");
}

#[test]
fn removed_batch_flag_is_rejected() {
    assert_rejected(&["table3", "--json", "--batch", "16"], "--batch");
}

#[test]
fn removed_batch_flag_is_rejected_in_equals_form() {
    assert_rejected(&["table3", "--json", "--batch=off"], "--batch=off");
}

#[test]
fn misspelled_flag_is_rejected() {
    assert_rejected(&["fig4", "--quikc"], "--quikc");
}

#[test]
fn misspelled_experiment_is_rejected() {
    assert_rejected(&["fgi4", "--quick"], "fgi4");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let (code, stdout, stderr) = run(&["--help"]);
    assert_eq!(code, 0, "--help must exit 0; stderr: {stderr}");
    assert!(stdout.starts_with("usage: repro"), "--help must print usage: {stdout}");
    assert!(stdout.contains("fig4"), "usage must list the experiments: {stdout}");
}
