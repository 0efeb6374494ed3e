//! Start a `pwam_server` in-process, run a few queries through the wire
//! protocol, and print the pool/cache statistics — the smallest complete
//! tour of the serving subsystem.
//!
//! ```text
//! cargo run --release --example server_roundtrip
//! ```

use pwam_suite::benchmarks::{benchmark, BenchmarkId, Scale};
use pwam_suite::server::{Client, PoolConfig, QueryRequest, Response, Server, ServerConfig};

fn main() {
    // A single-slot pool makes the warm-engine reuse deterministic: every
    // request lands on the same slot, so run 2 recycles run 1's arenas.
    let config =
        ServerConfig { pool: PoolConfig { size: 1, ..PoolConfig::default() }, ..ServerConfig::default() };
    let server = Server::start(config).expect("bind an ephemeral port");
    println!("server listening on {}", server.addr());
    let mut client = Client::connect(server.addr()).expect("connect");

    // A hand-written program, run twice: the second run reuses the warm
    // engine (the pool recycles the arenas) and the cached compilation.
    let app = QueryRequest {
        program: "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).".to_string(),
        query: "app([1,2], [3,4], X)".to_string(),
        workers: 2,
        ..QueryRequest::default()
    };
    for round in 1..=2 {
        match client.query(app.clone()).expect("query") {
            Response::Answer(a) => println!(
                "round {round}: {} = {}  (warm engine: {}, {} instructions)",
                a.bindings[0].0, a.bindings[0].1, a.warm, a.instructions
            ),
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Registry benchmarks over the same connection.
    for id in [BenchmarkId::Deriv, BenchmarkId::Queens] {
        let b = benchmark(id, Scale::Small);
        let response = client
            .query(QueryRequest {
                program: b.program.clone(),
                query: b.query.clone(),
                workers: 4,
                ..QueryRequest::default()
            })
            .expect("benchmark query");
        match response {
            Response::Answer(a) => println!(
                "{}: success={} parcalls={} elapsed={}us",
                id.name(),
                a.success,
                a.parcalls,
                a.elapsed_us
            ),
            other => panic!("unexpected response {other:?}"),
        }
    }

    println!("\npool and cache series of the `metrics` exposition:");
    let text = client.metrics().expect("metrics");
    for line in text.lines().filter(|l| l.starts_with("pwam_pool_") || l.starts_with("pwam_cache_")) {
        println!("  {line}");
    }
    server.shutdown();
}
