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
        eprintln!(
            "usage: pwam-serve [--addr HOST:PORT] [--pool N] [--max-queue N]\n\
             \x20                 [--queue-timeout-ms N] [--deadline-ms N] [--max-workers N]\n\
             \x20                 [--event-workers N] [--max-connections N] [--default-fuel N]\n\
             \x20                 [--tenant-max-active N] [--io-idle-timeout-ms N]"
        );
        return;
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
