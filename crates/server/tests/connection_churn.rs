//! Fault-injection churn: connections that die at the worst moments.
//!
//! The serving tier's resource accounting is all RAII — connection slots,
//! pool slots, tenant quota holds, parked cursors — so every abrupt
//! disconnect, however badly timed, must drain back to a clean baseline:
//! the active-connection gauge at zero, the pool queue empty, no tenant
//! holding phantom quota, and no cursor parked forever.  These tests
//! slam the server with exactly those disconnects (mid-query, mid-cursor
//! stream, mid-response, and the slowloris stall) and then assert the
//! gauges say what a freshly started server would say.

use pwam_obs::{parse_sample, sum_family};
use pwam_server::protocol::{self, QueryRequest, Request, Response};
use pwam_server::{Client, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const PROGRAM: &str = "\
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
p(1).
p(2).
p(3).
";

fn frame(payload: &str) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload.as_bytes());
    out
}

fn query(q: &str) -> Request {
    Request::Query(Box::new(QueryRequest {
        program: PROGRAM.to_string(),
        query: q.to_string(),
        ..QueryRequest::default()
    }))
}

/// One sample of the server's exposition (each scrape sweeps idle cursors).
fn sample(server: &Server, series: &str) -> u64 {
    parse_sample(&server.metrics_text(), series).unwrap_or_else(|| panic!("{series} missing"))
}

/// Poll the exposition until every churn-sensitive gauge is back to its
/// idle value (or fail loudly with the offender).
fn assert_baseline(server: &Server, expect_parked: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = server.metrics_text();
        let gauge = |series| parse_sample(&text, series).unwrap();
        let offenders: Vec<(&str, u64)> = [
            ("pwam_connections_active", gauge("pwam_connections_active")),
            ("pwam_pool_queue_depth", gauge("pwam_pool_queue_depth")),
            ("pwam_tenant_active_queries", sum_family(&text, "pwam_tenant_active_queries")),
            ("pwam_cursors_parked", gauge("pwam_cursors_parked").saturating_sub(expect_parked)),
        ]
        .into_iter()
        .filter(|(_, v)| *v != 0)
        .collect();
        if offenders.is_empty() {
            return;
        }
        assert!(Instant::now() < deadline, "gauges never returned to baseline: {offenders:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Abrupt disconnects at every phase of a one-shot query: before the
/// response, while it is (likely) being written, and mid-read of it.
/// Whatever the timing, every slot drains and the server keeps serving.
#[test]
fn abrupt_disconnects_mid_query_release_every_slot() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..24)
        .map(|i| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let payload =
                    protocol::encode_request(&query("nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16], R)"));
                stream.write_all(&frame(&payload)).unwrap();
                match i % 3 {
                    // Hang up before the engine can possibly have answered.
                    0 => drop(stream),
                    // Give the response time to be in flight, then vanish.
                    1 => {
                        std::thread::sleep(Duration::from_millis(10));
                        drop(stream);
                    }
                    // Read a few response bytes, then vanish mid-frame.
                    _ => {
                        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                        let mut partial = [0u8; 3];
                        let _ = stream.read(&mut partial);
                        drop(stream);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    assert_baseline(&server, 0);
    // The pool is intact: a straight query still answers.
    let mut client = Client::connect(addr).unwrap();
    match client.query(QueryRequest {
        program: PROGRAM.to_string(),
        query: "p(X)".to_string(),
        ..QueryRequest::default()
    }) {
        Ok(Response::Answer(a)) => assert!(a.success),
        other => panic!("post-churn query: {other:?}"),
    }
    server.shutdown();
}

/// A client that opens a cursor, pulls one answer, and vanishes.  The
/// parked cursor must NOT leak a connection or tenant slot, and idle
/// eviction must reclaim the cursor itself.
#[test]
fn disconnect_mid_cursor_stream_parks_then_evicts() {
    let server = Server::start(ServerConfig {
        cursor_idle_timeout: Duration::from_millis(200),
        tenant_max_active: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    for _ in 0..4 {
        let mut client = Client::connect(addr).unwrap();
        let cursor = client
            .query_open(QueryRequest {
                program: PROGRAM.to_string(),
                query: "p(X)".to_string(),
                tenant: Some("churn".to_string()),
                ..QueryRequest::default()
            })
            .unwrap();
        let first = client.query_next(cursor).unwrap().expect("first answer");
        assert!(first.success);
        drop(client); // vanish with the cursor mid-stream
    }
    // Parked cursors are a *deliberate* survivor of a disconnect (another
    // connection may resume them); everything else must drain now.
    assert_baseline(&server, sample(&server, "pwam_cursors_parked"));
    // ...and the idle sweep reclaims the orphans themselves.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = server.metrics_text();
        if parse_sample(&text, "pwam_cursors_parked") == Some(0) {
            let evicted = parse_sample(&text, "pwam_cursors_evicted_total").unwrap();
            assert!(evicted >= 4, "orphans must be evicted, not closed");
            break;
        }
        assert!(Instant::now() < deadline, "orphaned cursors were never evicted");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_baseline(&server, 0);
    server.shutdown();
}

/// Slowloris: connections that park themselves mid-frame (or entirely
/// silent with a part-written length prefix) are reaped by the idle
/// deadline rather than holding slots forever.
#[test]
fn slowloris_connections_are_reaped() {
    let server = Server::start(ServerConfig {
        io_idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut stalled: Vec<TcpStream> = (0..8)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Dribble out part of a frame, then stall forever: half a
            // length prefix, or a prefix promising bytes that never come.
            if i % 2 == 0 {
                stream.write_all(&[0x00, 0x00]).unwrap();
            } else {
                stream.write_all(&64u32.to_be_bytes()).unwrap();
                stream.write_all(b"ping").unwrap();
            }
            stream
        })
        .collect();
    // Every stalled connection gets closed on the server's side.
    for stream in &mut stalled {
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut scratch = [0u8; 64];
        loop {
            match stream.read(&mut scratch) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("expected the reaper to close us, got {e}"),
            }
        }
    }
    drop(stalled);
    assert_baseline(&server, 0);
    // A live client with an empty buffer is NOT a slowloris: sitting idle
    // far past the deadline must not get it reaped.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    std::thread::sleep(Duration::from_millis(800));
    client.ping().expect("idle-but-clean connection must survive the reaper");
    server.shutdown();
}

/// Arrivals beyond `max_connections` get a well-framed `rejected` error
/// (not a bare RST), and shedding frees up as soon as a held slot closes.
#[test]
fn connections_beyond_the_cap_are_shed_with_a_framed_error() {
    let server = Server::start(ServerConfig { max_connections: 4, ..ServerConfig::default() }).unwrap();
    let addr = server.addr();
    let mut held: Vec<Client> = (0..4)
        .map(|_| {
            let mut client = Client::connect(addr).unwrap();
            client.ping().unwrap();
            client
        })
        .collect();
    // The fifth connection is turned away with a framed error.
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let payload = protocol::read_frame(&mut shed).unwrap().expect("a shed frame, not a bare close");
    match protocol::decode_response(&payload).unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind.name(), "rejected");
            assert!(message.contains("connection limit"), "{message}");
        }
        other => panic!("shed connection got {other:?}"),
    }
    drop(shed);
    // Releasing one admitted connection reopens the door.
    held.pop();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = Client::connect(addr).unwrap();
        if retry.ping().is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed after a close");
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(held);
    assert_baseline(&server, 0);
    server.shutdown();
}

/// The combined storm: pipelined queries, partial frames, cursor opens and
/// instant deaths, all concurrently — then everything drains.
#[test]
fn mixed_churn_storm_returns_to_baseline() {
    let server = Server::start(ServerConfig {
        io_idle_timeout: Duration::from_millis(300),
        cursor_idle_timeout: Duration::from_millis(200),
        tenant_max_active: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..20)
        .map(|i| {
            std::thread::spawn(move || match i % 4 {
                // Pipelined pair, read both, clean close.
                0 => {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    let mut bytes = frame(&protocol::encode_request(&Request::Ping));
                    bytes.extend_from_slice(&frame(&protocol::encode_request(&query("p(X)"))));
                    stream.write_all(&bytes).unwrap();
                    for _ in 0..2 {
                        let payload = protocol::read_frame(&mut stream).unwrap().unwrap();
                        protocol::decode_response(&payload).unwrap();
                    }
                }
                // Tenant-tagged query, dropped before the answer.
                1 => {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let req = Request::Query(Box::new(QueryRequest {
                        program: PROGRAM.to_string(),
                        query: "nrev([1,2,3,4,5,6,7,8], R)".to_string(),
                        tenant: Some(format!("storm-{}", i % 2)),
                        ..QueryRequest::default()
                    }));
                    stream.write_all(&frame(&protocol::encode_request(&req))).unwrap();
                    drop(stream);
                }
                // Cursor opened, owner dies instantly.
                2 => {
                    let mut client = Client::connect(addr).unwrap();
                    let _ = client.query_open(QueryRequest {
                        program: PROGRAM.to_string(),
                        query: "p(X)".to_string(),
                        ..QueryRequest::default()
                    });
                    drop(client);
                }
                // Partial frame, then death (no stall: dies immediately).
                _ => {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream.write_all(&[0x00, 0x00, 0x01]).unwrap();
                    drop(stream);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // Orphaned cursors evict on their idle deadline; all other gauges
    // must drain regardless.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if sample(&server, "pwam_cursors_parked") == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "storm cursors never evicted");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_baseline(&server, 0);
    server.shutdown();
}

/// Concurrent mixed traffic is counted once, where it happens: one scrape
/// after the threads join shows exactly the slot grants they caused, and
/// every run they made as warm, cold or errored — no increment lost to a
/// race, none added by a second copy of the number.
#[test]
fn concurrent_mixed_requests_are_counted_once_each() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let plain = |q: &str| QueryRequest {
        program: PROGRAM.to_string(),
        query: q.to_string(),
        ..QueryRequest::default()
    };
    // (slot grants, runs) each thread caused.
    let made: Vec<(u64, u64)> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (mut grants, mut runs) = (0, 0);
                for round in 0..6 {
                    match round % 3 {
                        // A plain query: one grant, one warm or cold run.
                        0 => match client.query(plain("nrev([1,2,3,4,5,6,7,8], R)")).unwrap() {
                            Response::Answer(a) => assert!(a.success),
                            other => panic!("plain query: {other:?}"),
                        },
                        // Starved of fuel: one grant, one errored run.
                        1 => match client
                            .query(QueryRequest { fuel: Some(20), ..plain("nrev([1,2,3,4,5,6,7,8], R)") })
                        {
                            Ok(Response::Error { kind, .. }) => assert_eq!(kind.name(), "fuel"),
                            other => panic!("starved query: {other:?}"),
                        },
                        // A cursor: the open is a grant and a run, each of
                        // the two steps a grant, the close neither.
                        _ => {
                            let cursor = client.query_open(plain("p(X)")).unwrap();
                            assert!(client.query_next(cursor).unwrap().is_some());
                            assert!(client.query_next(cursor).unwrap().is_some());
                            client.query_close(cursor).unwrap();
                            grants += 2;
                        }
                    }
                    grants += 1;
                    runs += 1;
                }
                (grants, runs)
            })
        })
        .map(|handle| handle.join().unwrap())
        .collect();
    let text = server.metrics_text();
    let counter = |series| parse_sample(&text, series).unwrap();
    assert_eq!(counter("pwam_pool_requests_total"), made.iter().map(|(grants, _)| grants).sum::<u64>());
    assert_eq!(
        counter("pwam_pool_warm_hits_total")
            + counter("pwam_pool_cold_builds_total")
            + counter("pwam_pool_run_errors_total"),
        made.iter().map(|(_, runs)| runs).sum::<u64>()
    );
    assert_eq!(counter("pwam_pool_run_errors_total"), 16, "two starved queries a thread");
    assert_eq!(counter("pwam_pool_rejections_total") + counter("pwam_pool_queue_timeouts_total"), 0);
    server.shutdown();
}
