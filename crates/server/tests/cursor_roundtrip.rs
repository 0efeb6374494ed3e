//! End-to-end tests of the cursor verbs: all-solutions streaming over the
//! wire, cursor lifetime across pool-slot churn, idle eviction, and the
//! cursor-table series of the exposition.

use pwam_obs::parse_sample;
use pwam_server::{Client, ErrorKind, PoolConfig, QueryRequest, Request, Response, Server, ServerConfig};
use rapwam::{DeterminismMode, SchedulerKind};
use std::time::Duration;

fn start_with(pool_size: usize, cursor_idle_timeout: Duration) -> Server {
    Server::start(ServerConfig {
        pool: PoolConfig { size: pool_size, max_queue: 8, queue_timeout: Duration::from_millis(500) },
        cursor_idle_timeout,
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port")
}

fn start(pool_size: usize) -> Server {
    start_with(pool_size, Duration::from_secs(60))
}

fn three_p() -> QueryRequest {
    QueryRequest {
        program: "p(1).\np(2).\np(3).".to_string(),
        query: "p(X)".to_string(),
        ..QueryRequest::default()
    }
}

#[test]
fn open_next_exhaust_closes_the_cursor() {
    let server = start(2);
    let mut client = Client::connect(server.addr()).unwrap();
    let cursor = client.query_open(three_p()).unwrap();

    let mut seen = Vec::new();
    while let Some(a) = client.query_next(cursor).unwrap() {
        assert_eq!(a.bindings.len(), 1);
        seen.push(a.bindings[0].1.clone());
    }
    assert_eq!(seen, ["1", "2", "3"]);

    // Exhaustion auto-closed the cursor: another step is a cursor error.
    match client.request(&Request::QueryNext { cursor }).unwrap() {
        Response::Error { kind: ErrorKind::Cursor, .. } => {}
        other => panic!("expected a cursor error after exhaustion, got {other:?}"),
    }
    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_cursors_opened_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_cursors_closed_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_cursors_parked"), Some(0));
    server.shutdown();
}

#[test]
fn explicit_close_discards_a_mid_stream_cursor() {
    let server = start(1);
    let mut client = Client::connect(server.addr()).unwrap();
    let cursor = client.query_open(three_p()).unwrap();
    let first = client.query_next(cursor).unwrap().expect("first answer");
    assert_eq!(first.bindings[0].1, "1");
    client.query_close(cursor).unwrap();
    // Closed means gone — both next and a second close are cursor errors.
    match client.request(&Request::QueryNext { cursor }).unwrap() {
        Response::Error { kind: ErrorKind::Cursor, .. } => {}
        other => panic!("expected a cursor error after close, got {other:?}"),
    }
    match client.request(&Request::QueryClose { cursor }).unwrap() {
        Response::Error { kind: ErrorKind::Cursor, .. } => {}
        other => panic!("expected a cursor error on double close, got {other:?}"),
    }
    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_cursors_closed_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_cursors_parked"), Some(0));
    server.shutdown();
}

#[test]
fn cursor_survives_slot_churn() {
    // One slot: while the cursor is parked, other queries take and recycle
    // that slot freely; the suspended engine must be unaffected.
    let server = start(1);
    let mut client = Client::connect(server.addr()).unwrap();
    let cursor = client.query_open(three_p()).unwrap();
    assert_eq!(client.query_next(cursor).unwrap().unwrap().bindings[0].1, "1");
    for _ in 0..4 {
        match client
            .query(QueryRequest {
                program: "q(a).\nq(b).".to_string(),
                query: "q(Z)".to_string(),
                ..QueryRequest::default()
            })
            .unwrap()
        {
            Response::Answer(a) => assert!(a.success),
            other => panic!("interleaved query failed: {other:?}"),
        }
    }
    assert_eq!(client.query_next(cursor).unwrap().unwrap().bindings[0].1, "2");
    assert_eq!(client.query_next(cursor).unwrap().unwrap().bindings[0].1, "3");
    assert_eq!(client.query_next(cursor).unwrap(), None);
    server.shutdown();
}

#[test]
fn exhausted_cursor_warms_the_pool() {
    // The auto-close on exhaustion recycles the cursor's arenas into the
    // slot held for that `query-next`, so the following plain query (same
    // worker count) runs warm.
    let server = start(1);
    let mut client = Client::connect(server.addr()).unwrap();
    let cursor = client.query_open(three_p()).unwrap();
    while client.query_next(cursor).unwrap().is_some() {}
    match client.query(three_p()).unwrap() {
        Response::Answer(a) => assert!(a.warm, "plain query after cursor exhaustion ran cold"),
        other => panic!("expected an answer, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_cursor_on_memory_of_another_shape_is_a_cold_build() {
    // The slot's arenas come from a one-PE run; a two-PE cursor cannot
    // reset them in place, so its engine is built cold and counted so.
    let server = start(1);
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query(three_p()).unwrap() {
        Response::Answer(a) => assert!(a.success),
        other => panic!("expected an answer, got {other:?}"),
    }
    let cold_builds = || parse_sample(&server.metrics_text(), "pwam_pool_cold_builds_total").unwrap();
    let before = cold_builds();
    let cursor = client.query_open(QueryRequest { workers: 2, ..three_p() }).unwrap();
    assert_eq!(cold_builds(), before + 1, "the open was counted as a warm hit");
    let first = client.query_next(cursor).unwrap().expect("first answer");
    assert!(!first.warm, "a cursor on memory of another shape reported a warm engine");
    server.shutdown();
}

#[test]
fn idle_cursors_are_evicted() {
    let server = start_with(2, Duration::from_millis(100));
    let mut client = Client::connect(server.addr()).unwrap();
    let cursor = client.query_open(three_p()).unwrap();
    assert!(client.query_next(cursor).unwrap().is_some());
    std::thread::sleep(Duration::from_millis(300));
    // The first touch past the deadline sweeps the cursor out.
    match client.request(&Request::QueryNext { cursor }).unwrap() {
        Response::Error { kind: ErrorKind::Cursor, .. } => {}
        other => panic!("expected the evicted cursor to be unknown, got {other:?}"),
    }
    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_cursors_evicted_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_cursors_parked"), Some(0));
    assert_eq!(parse_sample(&text, "pwam_cursors_closed_total"), Some(0), "eviction is not a close");
    server.shutdown();
}

#[test]
fn stats_report_parked_cursors() {
    let server = start(2);
    let mut client = Client::connect(server.addr()).unwrap();
    let a = client.query_open(three_p()).unwrap();
    let b = client.query_open(three_p()).unwrap();
    assert_ne!(a, b, "cursor ids must be distinct");
    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_cursors_parked"), Some(2));
    assert_eq!(parse_sample(&text, "pwam_cursors_opened_total"), Some(2));
    client.query_close(a).unwrap();
    assert_eq!(parse_sample(&client.metrics().unwrap(), "pwam_cursors_parked"), Some(1));
    server.shutdown();
}

#[test]
fn cursors_stream_under_parallel_backends_over_the_wire() {
    let server = start(2);
    let mut client = Client::connect(server.addr()).unwrap();
    for (scheduler, determinism, workers) in [
        (SchedulerKind::Interleaved, DeterminismMode::Strict, 2),
        (SchedulerKind::Threaded, DeterminismMode::Strict, 2),
        (SchedulerKind::Threaded, DeterminismMode::Relaxed, 2),
    ] {
        let cursor = client
            .query_open(QueryRequest {
                scheduler,
                determinism,
                workers,
                deadline_ms: Some(30_000),
                ..three_p()
            })
            .unwrap();
        let mut seen = Vec::new();
        while let Some(a) = client.query_next(cursor).unwrap() {
            seen.push(a.bindings[0].1.clone());
        }
        assert_eq!(seen, ["1", "2", "3"], "stream differs under {scheduler:?}/{determinism:?}");
    }
    server.shutdown();
}
