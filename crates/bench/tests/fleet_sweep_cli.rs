//! Command-line contract of the `fleet_sweep` binary: `--help` prints the usage and
//! succeeds, while a bad command line prints the usage to stderr and exits with
//! status 2 instead of panicking.

use std::process::{Command, Output};

fn fleet_sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
        .args(args)
        .output()
        .expect("the fleet_sweep binary runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = fleet_sweep(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: fleet_sweep"), "{stdout}");
    assert!(
        !stdout.contains("fleet sweep:"),
        "--help must not run the sweep"
    );
}

#[test]
fn unknown_flag_prints_usage_and_exits_two() {
    let out = fleet_sweep(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument --bogus"), "{stderr}");
    assert!(stderr.contains("usage: fleet_sweep"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a bad command line");
}

#[test]
fn missing_or_malformed_values_exit_two() {
    for args in [
        &["--gpus"][..],
        &["--gpus", "abc"],
        &["--gpus", "1000"],
        &["--gpus", "0"],
        &["--variants", "-1"],
        &["--workers", "0"],
        &["--iterations", "two"],
        &["--base-seed", "seed"],
    ] {
        let out = fleet_sweep(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: fleet_sweep"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
}
