//! `repro` and `sweep` must fail loudly on arguments they do not read:
//! an unknown flag, experiment name or value prints usage to stderr and
//! exits 2 instead of being dropped (a typo like `--quikc` used to run at
//! full fidelity, `fgi4` used to print the banner and exit 0, and
//! `sweep --fabric mao` used to sweep the default fabrics). `--help`
//! prints usage and exits 0 without running anything.

use std::process::Command;

/// Runs `bin` with `args`, returning (exit code, stdout, stderr).
fn run_bin(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn run(args: &[&str]) -> (i32, String, String) {
    run_bin(env!("CARGO_BIN_EXE_repro"), args)
}

/// Asserts `bin` rejects `args` with usage on stderr, naming `culprit`.
fn assert_bin_rejected(bin: &str, args: &[&str], culprit: &str) {
    let (code, stdout, stderr) = run_bin(bin, args);
    let name = bin.rsplit(['/', '\\']).next().unwrap_or(bin).trim_end_matches(".exe");
    assert_eq!(code, 2, "{name} {args:?} must exit 2; stderr: {stderr}");
    assert!(stdout.is_empty(), "{name} {args:?} must not run anything; stdout: {stdout}");
    assert!(stderr.contains(culprit), "stderr must name {culprit:?}: {stderr}");
    assert!(stderr.contains(&format!("usage: {name}")), "stderr must show usage: {stderr}");
}

fn assert_rejected(args: &[&str], culprit: &str) {
    assert_bin_rejected(env!("CARGO_BIN_EXE_repro"), args, culprit);
}

fn assert_sweep_rejected(args: &[&str], culprit: &str) {
    assert_bin_rejected(env!("CARGO_BIN_EXE_sweep"), args, culprit);
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

#[test]
fn sweep_rejects_unknown_flags_and_positionals() {
    assert_sweep_rejected(&["--fabric", "mao"], "--fabric");
    assert_sweep_rejected(&["--quick"], "--quick");
    assert_sweep_rejected(&["fig4"], "fig4");
}

#[test]
fn sweep_rejects_bad_fabrics_and_patterns() {
    assert_sweep_rejected(&["--fabrics", "xlnx,foo"], "\"foo\"");
    assert_sweep_rejected(&["--patterns=scs,ccx"], "\"ccx\"");
}

#[test]
fn sweep_rejects_bad_numbers() {
    assert_sweep_rejected(&["--cycles", "8k"], "\"8k\"");
    assert_sweep_rejected(&["--cycles", "0"], "--cycles");
    assert_sweep_rejected(&["--warmup=-1"], "\"-1\"");
    assert_sweep_rejected(&["--bursts", "4,17"], "\"17\"");
    assert_sweep_rejected(&["--rotations", "32"], "\"32\"");
    assert_sweep_rejected(&["--threads", "0"], "--threads");
    assert_sweep_rejected(&["--threads"], "requires a value");
}

#[test]
fn sweep_help_prints_usage_and_exits_zero() {
    let (code, stdout, stderr) = run_bin(env!("CARGO_BIN_EXE_sweep"), &["--help"]);
    assert_eq!(code, 0, "--help must exit 0; stderr: {stderr}");
    assert!(stdout.starts_with("usage: sweep"), "--help must print usage: {stdout}");
}

#[test]
fn sweep_runs_a_valid_grid() {
    let args = [
        "--fabrics",
        "direct",
        "--patterns",
        "scs",
        "--bursts",
        "16",
        "--warmup",
        "10",
        "--cycles",
        "200",
        "--threads",
        "1",
    ];
    let (code, stdout, stderr) = run_bin(env!("CARGO_BIN_EXE_sweep"), &args);
    assert_eq!(code, 0, "a valid grid must run; stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "header plus one row: {stdout}");
    assert!(lines[1].starts_with("direct,scs,16,0,"), "row: {}", lines[1]);
}
