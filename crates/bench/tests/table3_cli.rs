//! Command-line contract of the `table3_scalability` binary: `--help` prints the
//! usage and succeeds, while a bad command line prints the usage to stderr and exits
//! with status 2 instead of panicking.

use std::process::{Command, Output};

fn table3(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table3_scalability"))
        .args(args)
        .output()
        .expect("the table3_scalability binary runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = table3(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: table3_scalability"), "{stdout}");
    assert!(
        !stdout.contains("Table 3"),
        "--help must not run the experiment"
    );
}

#[test]
fn unknown_flag_prints_usage_and_exits_two() {
    let out = table3(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument --bogus"), "{stderr}");
    assert!(stderr.contains("usage: table3_scalability"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing runs on a bad command line");
}

#[test]
fn missing_or_malformed_values_exit_two() {
    for args in [
        &["--gpus"][..],
        &["--gpus", "1000"],
        &["--iterations", "zero"],
        &["--policy", "quantum"],
        &["--scenario", "two-job", "--gpus", "64"],
    ] {
        let out = table3(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: table3_scalability"),
            "{args:?}: {stderr}"
        );
    }
}
