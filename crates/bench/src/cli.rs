//! Command-line plumbing shared by the bench binaries that take arguments.
//!
//! Each binary parses its arguments into `Ok(Some(args))`, `Ok(None)` when `--help`
//! was asked for, or `Err(reason)`; [`run`] turns that into the common contract:
//! `--help` prints the usage to stdout and exits 0, a rejected command line prints
//! the reason and the usage to stderr and exits 2, and nothing else runs.

use std::process::ExitCode;

/// Parses the process arguments (without the program name) with `parse` and runs
/// `body` on the result, or handles `--help` and bad arguments as described in the
/// module docs. `bin` prefixes the error message.
pub fn run<A>(
    bin: &str,
    usage: &str,
    parse: impl FnOnce(Vec<String>) -> Result<Option<A>, String>,
    body: impl FnOnce(A) -> ExitCode,
) -> ExitCode {
    match parse(std::env::args().skip(1).collect()) {
        Ok(Some(args)) => body(args),
        Ok(None) => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        Err(reason) => {
            eprintln!("{bin}: {reason}\n{usage}");
            ExitCode::from(2)
        }
    }
}

/// Parses `value`, the value given to `flag`, as a positive integer.
pub fn positive(flag: &str, value: &str) -> Result<u32, String> {
    match value.parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} must be a positive integer, got {value:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_rejects_zero_negatives_and_junk() {
        assert_eq!(positive("--n", "7"), Ok(7));
        for bad in ["0", "-1", "x", "", "1.5", "4294967296"] {
            let err = positive("--n", bad).unwrap_err();
            assert!(err.starts_with("--n must be a positive integer"), "{err}");
        }
    }
}
