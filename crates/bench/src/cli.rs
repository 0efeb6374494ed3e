//! Shared command-line parsing for the experiment binaries.
//!
//! Every binary accepts, in addition to its own flags:
//!
//! * `--scale small|paper|large` — input scale (default `paper`),
//! * `--threads N` — override the worker count in binaries with a single
//!   worker knob (`table2`); the figure-style binaries sweep their own
//!   fixed PE counts and ignore the value,
//! * `--determinism strict|relaxed` — pick the determinism mode (the
//!   `PWAM_DETERMINISM` environment variable is the fallback), and with it
//!   the backend: `strict` interleaves the PEs on the host thread,
//!   `relaxed` gives each PE a free-running OS thread (true per-arena
//!   parallel execution).
//!
//! A flag the binary does not know, a stray positional argument and a value
//! that does not parse are all usage errors (exit code 2), never silent
//! fallbacks: a typo must not let a run report a configuration it never
//! used.

use crate::experiments::{set_determinism, ExperimentScale};
use rapwam::DeterminismMode;

/// The value following `key` in `args`, if present.
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

/// The flags every experiment binary accepts, as [`reject_unknown_flags`]
/// takes them: `(name, takes a value)`.
pub const COMMON_FLAGS: [(&str, bool); 4] =
    [("--scale", true), ("--threads", true), ("--determinism", true), ("--json", false)];

/// The first thing wrong with the arguments after the program name: one that
/// is not in `known` — each `(name, takes a value)` — nor the value of one,
/// or a value-taking flag with nothing after it.
fn first_bad_argument(args: &[String], known: &[(&str, bool)]) -> Option<String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match known.iter().find(|(name, _)| name == arg) {
            Some((_, true)) if rest.next().is_none() => return Some(format!("{arg} (expects a value)")),
            Some(_) => {}
            None => return Some(arg.clone()),
        }
    }
    None
}

/// Exit with a usage error unless every argument is one of `known` — each
/// `(name, takes a value)` — or the value of one, and every value-taking flag
/// has its value.
pub fn reject_unknown_flags(args: &[String], known: &[(&str, bool)]) {
    if let Some(what) = first_bad_argument(args, known) {
        let names: Vec<&str> = known.iter().map(|(name, _)| *name).collect();
        usage_error(&format!("{what}; this binary accepts: {}", names.join(" ")));
    }
}

/// `--scale`'s value (default [`ExperimentScale::Paper`]), or the text that
/// failed to parse.
fn parse_scale(args: &[String]) -> Result<ExperimentScale, String> {
    match arg_value(args, "--scale") {
        None => Ok(ExperimentScale::Paper),
        Some(s) => ExperimentScale::parse(&s).ok_or(s),
    }
}

/// Parse `--scale` (default [`ExperimentScale::Paper`]).
pub fn scale_arg(args: &[String]) -> ExperimentScale {
    parse_scale(args)
        .unwrap_or_else(|s| usage_error(&format!("--scale {s} (expected small, paper or large)")))
}

/// `key`'s value as a number, or the text that failed to parse.
fn parse_num(args: &[String], key: &str) -> Result<Option<u64>, String> {
    arg_value(args, key).map(|v| v.parse().map_err(|_| v)).transpose()
}

/// Parse the number following `key`, if the flag is present.
pub fn num_arg(args: &[String], key: &str) -> Option<u64> {
    parse_num(args, key).unwrap_or_else(|v| usage_error(&format!("{key} {v} (expected a number)")))
}

/// Handle `--threads N` and `--determinism NAME`: selects the process-wide
/// determinism mode (and so the backend) for every engine run, and returns
/// the worker-count override requested by `--threads` (if any).  Callers
/// whose experiment has a configurable worker count should honour the
/// returned override; fixed-PE experiments ignore it by design.
///
/// Invalid values are usage errors (exit code 2), not silent fallbacks: a
/// typo must not let a run claim a backend it never used.
pub fn threads_and_determinism_args(args: &[String]) -> Option<usize> {
    let threads = arg_value(args, "--threads").map(|s| match s.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!("--threads {s} (expected a worker count >= 1)")),
    });
    if let Some(name) = arg_value(args, "--determinism") {
        match DeterminismMode::parse(&name) {
            Some(mode) => set_determinism(mode),
            None => usage_error(&format!("--determinism {name} (expected strict or relaxed)")),
        };
    }
    threads
}

/// Report a malformed command line and exit with code 2.
pub fn usage_error(what: &str) -> ! {
    eprintln!("invalid argument: {what}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_value_finds_pairs() {
        let a = args(&["bin", "--scale", "small", "--json"]);
        assert_eq!(arg_value(&a, "--scale").as_deref(), Some("small"));
        assert_eq!(arg_value(&a, "--workers"), None);
        assert_eq!(scale_arg(&a), ExperimentScale::Small);
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_found() {
        let known = [COMMON_FLAGS.as_slice(), &[("--max-pes", true)]].concat();
        let found = |a: &[&str]| first_bad_argument(&args(a), &known);
        assert_eq!(found(&["bin", "--scale", "small", "--max-pes", "4", "--json"]), None);
        assert_eq!(found(&["bin"]), None);
        // A typo, a flag of some other binary, a stray positional.
        assert_eq!(found(&["bin", "--jsno"]).as_deref(), Some("--jsno"));
        assert_eq!(found(&["bin", "--workers", "4"]).as_deref(), Some("--workers"));
        assert_eq!(found(&["bin", "--json", "small"]).as_deref(), Some("small"));
        // A value is never mistaken for a flag, even when it looks like one.
        assert_eq!(found(&["bin", "--scale", "--json"]), None);
        // A value-taking flag at the end of the line has lost its value.
        assert_eq!(found(&["bin", "--scale"]).as_deref(), Some("--scale (expects a value)"));
        assert_eq!(found(&["bin", "--json", "--threads"]).as_deref(), Some("--threads (expects a value)"));
        // The program name is not an argument.
        assert_eq!(found(&["--bogus"]), None);
    }

    #[test]
    fn bad_scale_and_number_values_are_errors_not_defaults() {
        assert_eq!(parse_scale(&args(&["bin"])), Ok(ExperimentScale::Paper));
        assert_eq!(parse_scale(&args(&["bin", "--scale", "large"])), Ok(ExperimentScale::Large));
        assert_eq!(parse_scale(&args(&["bin", "--scale", "bogus"])), Err("bogus".to_string()));
        assert_eq!(parse_num(&args(&["bin"]), "--workers"), Ok(None));
        assert_eq!(parse_num(&args(&["bin", "--workers", "4"]), "--workers"), Ok(Some(4)));
        assert_eq!(parse_num(&args(&["bin", "--workers", "x"]), "--workers"), Err("x".to_string()));
        assert_eq!(parse_num(&args(&["bin", "--workers", "-1"]), "--workers"), Err("-1".to_string()));
    }

    #[test]
    fn threads_flag_parses() {
        let a = args(&["bin", "--threads", "4"]);
        assert_eq!(arg_value(&a, "--threads").and_then(|s| s.parse::<usize>().ok()), Some(4));
    }

    #[test]
    fn determinism_flag_parses() {
        let a = args(&["bin", "--determinism", "relaxed"]);
        // Only checks the parse here (the process-wide choice is first-wins).
        assert_eq!(
            arg_value(&a, "--determinism").and_then(|s| DeterminismMode::parse(&s)),
            Some(DeterminismMode::Relaxed)
        );
        assert_eq!(DeterminismMode::parse("strict"), Some(DeterminismMode::Strict));
        assert_eq!(DeterminismMode::parse("loose"), None);
    }
}
