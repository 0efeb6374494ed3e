//! `pwam-serve` — serve RAP-WAM queries over TCP.
//!
//! ```text
//! pwam-serve [--addr 127.0.0.1:0] [--pool N] [--max-queue N]
//!            [--queue-timeout-ms N] [--deadline-ms N] [--max-workers N]
//!            [--event-workers N] [--max-connections N] [--default-fuel N]
//!            [--tenant-max-active N] [--io-idle-timeout-ms N]
//! ```
//!
//! Prints `pwam-serve listening on <addr>` once the socket is bound (port 0
//! resolves to an ephemeral port — scripts parse this line), then serves
//! until a `shutdown` request arrives (e.g. `pwam-load --shutdown`).

use pwam_server::{PoolConfig, Server, ServerConfig};
use std::time::Duration;

const USAGE: &str = "usage: pwam-serve [--addr HOST:PORT] [--pool N] [--max-queue N]\n\
    \x20                 [--queue-timeout-ms N] [--deadline-ms N] [--max-workers N]\n\
    \x20                 [--event-workers N] [--max-connections N] [--default-fuel N]\n\
    \x20                 [--tenant-max-active N] [--io-idle-timeout-ms N]";

/// The flags of [`USAGE`]; every one takes a value.
const FLAGS: [&str; 11] = [
    "--addr",
    "--pool",
    "--max-queue",
    "--queue-timeout-ms",
    "--deadline-ms",
    "--max-workers",
    "--event-workers",
    "--max-connections",
    "--default-fuel",
    "--tenant-max-active",
    "--io-idle-timeout-ms",
];

/// Refuse an argument that is neither one of [`FLAGS`] nor the value of one,
/// and a flag left without its value: a stale or mistyped flag must not start
/// a server that silently ignores it.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if !FLAGS.contains(&arg.as_str()) {
            return Err(format!("unknown argument: {arg}"));
        }
        if rest.next().is_none() {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(())
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

fn num_arg(args: &[String], key: &str) -> Option<u64> {
    arg_value(args, key).map(|v| match v.parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("invalid argument: {key} {v} (expected a number)");
            std::process::exit(2);
        }
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    if let Err(e) = check_args(&args) {
        eprintln!("pwam-serve: {e}\n{USAGE}");
        std::process::exit(2);
    }
    let mut config = ServerConfig::default();
    let mut pool = PoolConfig::default();
    if let Some(addr) = arg_value(&args, "--addr") {
        config.addr = addr;
    }
    if let Some(n) = num_arg(&args, "--pool") {
        pool.size = n.max(1) as usize;
    }
    if let Some(n) = num_arg(&args, "--max-queue") {
        pool.max_queue = n as usize;
    }
    if let Some(n) = num_arg(&args, "--queue-timeout-ms") {
        pool.queue_timeout = Duration::from_millis(n);
    }
    if let Some(n) = num_arg(&args, "--deadline-ms") {
        config.default_deadline = Some(Duration::from_millis(n));
    }
    if let Some(n) = num_arg(&args, "--max-workers") {
        config.max_workers = n.max(1) as usize;
    }
    if let Some(n) = num_arg(&args, "--event-workers") {
        config.event_workers = n.max(1) as usize;
    }
    if let Some(n) = num_arg(&args, "--max-connections") {
        config.max_connections = n.max(1) as usize;
    }
    if let Some(n) = num_arg(&args, "--default-fuel") {
        config.default_fuel = Some(n);
    }
    if let Some(n) = num_arg(&args, "--tenant-max-active") {
        config.tenant_max_active = n as usize;
    }
    if let Some(n) = num_arg(&args, "--io-idle-timeout-ms") {
        config.io_idle_timeout = Duration::from_millis(n);
    }
    config.pool = pool;

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pwam-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("pwam-serve listening on {}", server.addr());
    server.wait();
    println!("pwam-serve: shut down");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(rest: &[&str]) -> Vec<String> {
        std::iter::once("pwam-serve").chain(rest.iter().copied()).map(String::from).collect()
    }

    #[test]
    fn only_the_flags_of_the_usage_text_are_accepted() {
        // The list and the usage text name the same flags.
        let mut in_usage: Vec<&str> = USAGE.split(['[', ' ']).filter(|w| w.starts_with("--")).collect();
        let mut flags = FLAGS.to_vec();
        in_usage.sort_unstable();
        flags.sort_unstable();
        assert_eq!(in_usage, flags);
        let every_flag: Vec<&str> = FLAGS.iter().flat_map(|f| [*f, "1"]).collect();
        assert_eq!(check_args(&args(&every_flag)), Ok(()));
        assert_eq!(check_args(&args(&[])), Ok(()));
        // The flag of the serving mode PR 13 removed, a typo, a stray
        // positional, and a flag cut short.
        assert_eq!(check_args(&args(&["--mode", "threads"])), Err("unknown argument: --mode".into()));
        assert_eq!(check_args(&args(&["--pool", "4", "--pol", "4"])), Err("unknown argument: --pol".into()));
        assert_eq!(check_args(&args(&["4"])), Err("unknown argument: 4".into()));
        assert_eq!(
            check_args(&args(&["--addr", "127.0.0.1:0", "--pool"])),
            Err("--pool needs a value".into())
        );
    }
}
