//! End-to-end tests of the serving subsystem: a real `Server` on an
//! ephemeral port, driven through the wire protocol by `Client`s.

use pwam_benchmarks::{benchmark, BenchmarkId, Scale};
use pwam_obs::parse_sample;
use pwam_server::{Client, ErrorKind, PoolConfig, QueryRequest, Response, Server, ServerConfig};
use rapwam::{DeterminismMode, SchedulerKind};
use std::time::{Duration, Instant};

fn start(pool_size: usize, max_queue: usize) -> Server {
    Server::start(ServerConfig {
        pool: PoolConfig { size: pool_size, max_queue, queue_timeout: Duration::from_millis(500) },
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port")
}

fn answer(resp: Response) -> pwam_server::AnswerResponse {
    match resp {
        Response::Answer(a) => a,
        other => panic!("expected an answer, got {other:?}"),
    }
}

#[test]
fn ping_stats_and_simple_query() {
    let server = start(2, 8);
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();

    let a = answer(
        client
            .query(QueryRequest {
                program: "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).".to_string(),
                query: "app([1,2], [3], X)".to_string(),
                ..QueryRequest::default()
            })
            .unwrap(),
    );
    assert!(a.success);
    assert_eq!(a.bindings, vec![("X".to_string(), "[1,2,3]".to_string())]);
    assert!(a.instructions > 0);

    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_queries_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_cache_programs"), Some(1));
    // The exposition carries cumulative executed instructions and engine
    // time, whose quotient is the cumulative MLIPS: after one successful
    // query the instruction counter must equal that query's answer-level
    // count and the engine time its answer-level wall-clock.
    assert_eq!(parse_sample(&text, "pwam_instructions_total"), Some(a.instructions));
    assert_eq!(parse_sample(&text, "pwam_engine_micros_total"), Some(a.elapsed_us));
    server.shutdown();
}

#[test]
fn repeated_queries_reuse_engines_and_compilations() {
    let server = start(1, 8);
    let mut client = Client::connect(server.addr()).unwrap();
    let req = || QueryRequest {
        program: "p(1).\np(2).\np(3).".to_string(),
        query: "p(X)".to_string(),
        ..QueryRequest::default()
    };
    let first = answer(client.query(req()).unwrap());
    assert!(!first.warm, "first run builds cold");
    for _ in 0..5 {
        let a = answer(client.query(req()).unwrap());
        assert!(a.warm, "subsequent runs must reuse the slot's arenas");
        assert_eq!(a.bindings, first.bindings);
    }
    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_pool_cold_builds_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_pool_warm_hits_total"), Some(5));
    assert_eq!(parse_sample(&text, "pwam_cache_program_misses_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_cache_program_hits_total"), Some(5));
    assert_eq!(parse_sample(&text, "pwam_cache_compiled_queries"), Some(1));
    server.shutdown();
}

#[test]
fn failures_compile_errors_and_protocol_limits_are_reported() {
    let server = start(1, 8);
    let mut client = Client::connect(server.addr()).unwrap();

    // A failing query is an answer, not an error.
    let a = answer(
        client
            .query(QueryRequest {
                program: "p(1).".to_string(),
                query: "p(2)".to_string(),
                ..QueryRequest::default()
            })
            .unwrap(),
    );
    assert!(!a.success);
    assert!(a.bindings.is_empty());

    // Unparsable program.
    match client
        .query(QueryRequest {
            program: "p(1".to_string(),
            query: "p(X)".to_string(),
            ..QueryRequest::default()
        })
        .unwrap()
    {
        Response::Error { kind: ErrorKind::Compile, .. } => {}
        other => panic!("expected a compile error, got {other:?}"),
    }

    // Absurd worker counts are refused before touching the pool.
    match client
        .query(QueryRequest {
            program: "p(1).".to_string(),
            query: "p(X)".to_string(),
            workers: 10_000,
            ..QueryRequest::default()
        })
        .unwrap()
    {
        Response::Error { kind: ErrorKind::Protocol, .. } => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn integers_past_the_word_range_are_typed_errors_and_the_worker_keeps_serving() {
    // One worker, one connection: everything below runs on the same engine
    // slot, so the last query shows the errors left it sound.
    let server = start(1, 8);
    let mut client = Client::connect(server.addr()).unwrap();
    let fib = benchmark(BenchmarkId::Fib, Scale::Small);
    let request = |program: &str, query: &str| QueryRequest {
        program: program.to_string(),
        query: query.to_string(),
        ..QueryRequest::default()
    };

    // 2^62 is one past INT_MAX: a tenant program holding it does not compile.
    match client.query(request("big(4611686018427387904).", "big(X)")).unwrap() {
        Response::Error { kind: ErrorKind::Compile, message } => {
            assert!(message.contains("integer literal out of range"), "{message}")
        }
        other => panic!("expected a compile error, got {other:?}"),
    }
    // A sum past INT_MAX is an engine error, not a wrap.
    match client.query(request(&fib.program, "X is 4611686018427387903 + 1")).unwrap() {
        Response::Error { kind: ErrorKind::Engine, message } => {
            assert!(message.contains("integer overflow"), "{message}")
        }
        other => panic!("expected an engine error, got {other:?}"),
    }

    let a = answer(client.query(request(&fib.program, &fib.query)).unwrap());
    assert!(a.success);
    let expected = pwam_benchmarks::fib::fib(pwam_benchmarks::fib::input(Scale::Small));
    assert_eq!(a.bindings, vec![("F".to_string(), expected.to_string())]);
    server.shutdown();
}

#[test]
fn runaway_queries_hit_their_deadline() {
    let server = start(1, 8);
    let mut client = Client::connect(server.addr()).unwrap();
    match client
        .query(QueryRequest {
            program: "loop :- loop.".to_string(),
            query: "loop".to_string(),
            deadline_ms: Some(150),
            ..QueryRequest::default()
        })
        .unwrap()
    {
        Response::Error { kind: ErrorKind::Deadline, .. } => {}
        other => panic!("expected a deadline error, got {other:?}"),
    }
    // The slot must be usable again afterwards (cold, since the erroring
    // engine's memory is discarded).
    let a = answer(
        client
            .query(QueryRequest {
                program: "p(1).".to_string(),
                query: "p(X)".to_string(),
                ..QueryRequest::default()
            })
            .unwrap(),
    );
    assert!(a.success);
    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_deadline_errors_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_pool_run_errors_total"), Some(1));
    server.shutdown();
}

#[test]
fn saturated_pool_sheds_load() {
    // One slot, no queueing: while a slow query holds the slot, a second
    // request must be rejected immediately.
    let server = Server::start(ServerConfig {
        pool: PoolConfig { size: 1, max_queue: 0, queue_timeout: Duration::from_millis(100) },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    std::thread::scope(|s| {
        let slow = s.spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            // Seconds of engine work at debug speeds and a sixth of a
            // second optimised — a hundred times what the collision below
            // takes once the slot is seen busy.  Backtracking over
            // `memb × memb` burns instructions in constant heap space.
            c.query(QueryRequest {
                program: "range(N, N, [N]) :- !.\n\
                          range(I, N, [I|T]) :- I < N, J is I + 1, range(J, N, T).\n\
                          memb(X, [X|_]).\n\
                          memb(X, [_|T]) :- memb(X, T).\n\
                          burn(L) :- memb(_, L), memb(_, L), fail.\n\
                          burn(_).\n\
                          slow(N) :- range(1, N, L), burn(L).\n"
                    .to_string(),
                query: "slow(1000)".to_string(),
                deadline_ms: Some(30_000),
                ..QueryRequest::default()
            })
            .unwrap()
        });
        // Collide only once the slow query holds the slot: `pool_requests`
        // counts slot grants, and this is the server's first.
        let mut c = Client::connect(addr).unwrap();
        let waiting_since = Instant::now();
        while parse_sample(&c.metrics().unwrap(), "pwam_pool_requests_total") != Some(1) {
            assert!(waiting_since.elapsed() < Duration::from_secs(30), "the slow query never got its slot");
            std::thread::sleep(Duration::from_millis(1));
        }
        let colliding = c
            .query(QueryRequest {
                program: "p(1).".to_string(),
                query: "p(X)".to_string(),
                ..QueryRequest::default()
            })
            .unwrap();
        match colliding {
            Response::Error { kind: ErrorKind::Rejected, .. } => {}
            other => panic!("expected an admission rejection while the slot was held, got {other:?}"),
        }
        let slow_result = slow.join().unwrap();
        assert!(matches!(slow_result, Response::Answer(_)), "slow query result: {slow_result:?}");
        assert_eq!(parse_sample(&server.metrics_text(), "pwam_pool_rejections_total"), Some(1));
    });
    server.shutdown();
}

#[test]
fn registry_benchmarks_run_through_the_server_in_every_mode() {
    let server = start(2, 16);
    let mut client = Client::connect(server.addr()).unwrap();
    for id in [BenchmarkId::Deriv, BenchmarkId::Tak, BenchmarkId::Queens] {
        let b = benchmark(id, Scale::Small);
        for (scheduler, determinism, workers) in [
            (SchedulerKind::Interleaved, DeterminismMode::Strict, 2),
            (SchedulerKind::Threaded, DeterminismMode::Strict, 2),
            (SchedulerKind::Threaded, DeterminismMode::Relaxed, 4),
        ] {
            let a = answer(
                client
                    .query(QueryRequest {
                        program: b.program.clone(),
                        query: b.query.clone(),
                        workers,
                        scheduler,
                        determinism,
                        deadline_ms: Some(60_000),
                        ..QueryRequest::default()
                    })
                    .unwrap(),
            );
            assert!(a.success, "{} failed on {scheduler:?}/{determinism:?}", id.name());
            assert!(a.parcalls > 0, "{} executed no parallel calls", id.name());
        }
    }
    // Same program across modes: the program cache sees one entry per
    // benchmark, and the pool reuses arenas whenever the worker count of
    // the previous run matches.
    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_cache_programs"), Some(3));
    assert!(
        parse_sample(&text, "pwam_pool_warm_hits_total").unwrap() > 0,
        "no warm reuse across benchmark runs"
    );
    server.shutdown();
}

#[test]
fn shutdown_request_stops_the_server() {
    let server = start(1, 4);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.wait();
    // New connections are now refused (or reset before a response).
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.ping().is_err(),
    };
    assert!(refused, "server still serving after shutdown");
}
