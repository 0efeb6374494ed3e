//! Strict command line: every flag is known, every value is checked, and
//! anything else is a usage error (exit code 2) — a mistyped flag must not
//! silently measure something other than what was asked for.

use crate::workloads::Workload;
use std::path::PathBuf;

pub const USAGE: &str = "usage: pwam-ladder --workload <name> [--seed <u64>] [--seconds <1..=60>] \
[--trace <0|1>] [--out <dir>] | --list";

/// Timed seconds of one run when `--seconds` is absent (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 20;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where the traced run writes its span file and per-layer table.
    pub out: PathBuf,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cli {
    Run(RunArgs),
    List,
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut list = false;
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if seen.contains(&flag.as_str()) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag);
        if flag == "--list" {
            list = true;
            continue;
        }
        if !matches!(flag.as_str(), "--workload" | "--seed" | "--seconds" | "--trace" | "--out") {
            return Err(format!("unknown argument {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("--seed {value}: expected a u64"))?,
            "--seconds" => {
                seconds = match value.parse() {
                    Ok(s @ 1..=60) => s,
                    _ => return Err(format!("--seconds {value}: expected a whole number in 1..=60")),
                };
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            "--out" => out = PathBuf::from(value),
            _ => unreachable!("flag list checked above"),
        }
    }
    if list {
        return if args.len() == 1 { Ok(Cli::List) } else { Err("--list takes no other argument".into()) };
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli::Run(RunArgs { workload, seed, seconds, trace, out }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Cli, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let cli = parse_str("--workload serve-cold --seed 7 --seconds 5 --trace 1").unwrap();
        let Cli::Run(args) = cli else { panic!("expected a run") };
        assert_eq!(args.workload, Workload::ServeCold);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 5, true));
    }

    #[test]
    fn unknown_flags_workloads_and_malformed_values_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload serve-warm --sed 3",
            "--workload serve-warm --seed -1",
            "--workload serve-warm --seed",
            "--workload serve-warm --seconds 0",
            "--workload serve-warm --seconds 61",
            "--workload serve-warm --trace yes",
            "--workload serve-warm --workload serve-cold",
            "--list --seed 3",
            "serve-warm",
        ] {
            assert!(parse_str(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse_str("--list"), Ok(Cli::List));
    }
}
