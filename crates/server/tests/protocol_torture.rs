//! Protocol-torture suite: the wire layer under adversarial framing.
//!
//! Every test here speaks to the server over raw sockets — no
//! [`pwam_server::Client`] — so the byte stream can be split, coalesced,
//! truncated, and corrupted in ways a well-behaved client never would.
//! The server's contract under torture is narrow and absolute:
//!
//! * it never panics and never wedges;
//! * every complete, well-formed frame gets exactly one well-framed
//!   response, in request order, no matter how the bytes arrived;
//! * a malformed *request* in an intact frame gets a framed `protocol`
//!   error and the connection survives;
//! * an unframeable byte stream (oversized length prefix, non-UTF-8
//!   payload) gets one final framed error and then a close;
//! * no connection, however it dies, leaks its accounting slot.

use proptest::prelude::*;
use pwam_obs::parse_sample;
use pwam_server::protocol::{self, ErrorKind, QueryRequest, Request, Response, MAX_FRAME_BYTES};
use pwam_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const PROGRAM: &str = "p(1).\np(2).\nq(a).";

/// One shared server for the whole suite: cases differ in the bytes they
/// send, not in server configuration, and pool startup is the expensive
/// part.  Never shut down (the process exit reaps it).
fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        Server::start(ServerConfig {
            default_deadline: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        })
        .expect("start torture server")
    })
}

fn connect() -> TcpStream {
    let stream = TcpStream::connect(server().addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Frame a payload exactly as the protocol does.
fn frame(payload: &str) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Read one framed response, decoded.
fn read_response(stream: &mut TcpStream) -> Response {
    let payload = protocol::read_frame(stream).expect("read frame").expect("unexpected EOF");
    protocol::decode_response(&payload).expect("well-formed response")
}

/// The server must close the connection (EOF) after at most a few stray
/// bytes; a read timeout here means it wrongly kept the connection alive.
fn expect_eof(stream: &mut TcpStream) {
    let mut scratch = [0u8; 256];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(_) => continue, // draining whatever was in flight
            Err(e) => panic!("expected clean EOF, got error: {e}"),
        }
    }
}

/// Wait for the active-connection gauge to drain back to zero: closed
/// connections must always return their slot, whatever killed them.
fn assert_connections_drain() {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        // Read in-process, so there is no probe connection to discount:
        // fully drained really is zero.
        let active = parse_sample(&server().metrics_text(), "pwam_connections_active").unwrap();
        if active == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "connection slots leaked: {active} still active");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A scripted request and the response shape it must produce.
#[derive(Debug, Clone)]
enum Scripted {
    Ping,
    Query,
    BadVerb,
    /// `stats` was a verb once; `metrics` replaced it.
    RetiredVerb,
    BadHeader,
}

impl Scripted {
    fn payload(&self) -> String {
        match self {
            Scripted::Ping => protocol::encode_request(&Request::Ping),
            Scripted::Query => protocol::encode_request(&Request::Query(Box::new(QueryRequest {
                program: PROGRAM.to_string(),
                query: "p(X)".to_string(),
                ..QueryRequest::default()
            }))),
            Scripted::BadVerb => "transmogrify\nurgency high\n\n".to_string(),
            Scripted::RetiredVerb => "stats\n".to_string(),
            Scripted::BadHeader => "query\nworkers lots\nprogram-bytes 0\nquery-bytes 0\n\n".to_string(),
        }
    }

    fn check(&self, response: &Response) {
        match self {
            Scripted::Ping => assert!(matches!(response, Response::Pong), "ping → {response:?}"),
            Scripted::Query => match response {
                Response::Answer(a) => assert!(a.success, "p(X) must succeed"),
                other => panic!("query → {other:?}"),
            },
            Scripted::BadVerb | Scripted::RetiredVerb | Scripted::BadHeader => match response {
                Response::Error { kind: ErrorKind::Protocol, .. } => {}
                other => panic!("malformed request → {other:?}"),
            },
        }
    }
}

fn arb_script() -> impl Strategy<Value = Vec<Scripted>> {
    prop::collection::vec(
        prop_oneof![
            Just(Scripted::Ping),
            Just(Scripted::Query),
            Just(Scripted::BadVerb),
            Just(Scripted::RetiredVerb),
            Just(Scripted::BadHeader),
        ],
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fundamental framing property: however the byte stream is cut
    /// into TCP writes — mid-length-prefix, mid-payload, many frames
    /// coalesced into one write — every request gets its response, in
    /// order.
    #[test]
    fn responses_survive_arbitrary_write_boundaries(
        script in arb_script(),
        cuts in prop::collection::vec(1usize..4096, 0..12),
    ) {
        let bytes: Vec<u8> = script.iter().flat_map(|s| frame(&s.payload())).collect();
        // Turn the cut lengths into a partition of the byte stream.
        let mut stream = connect();
        let mut sent = 0;
        for cut in cuts {
            if sent >= bytes.len() {
                break;
            }
            let end = (sent + cut).min(bytes.len());
            stream.write_all(&bytes[sent..end]).unwrap();
            stream.flush().unwrap();
            sent = end;
        }
        stream.write_all(&bytes[sent..]).unwrap();
        for scripted in &script {
            scripted.check(&read_response(&mut stream));
        }
        drop(stream);
        assert_connections_drain();
    }

    /// Pipelining: the whole script lands in one write before anything is
    /// read back.  Responses must come back exactly in request order
    /// (the reorder buffer under the heaviest interleaving).
    #[test]
    fn pipelined_requests_answer_in_order(script in arb_script()) {
        let bytes: Vec<u8> = script.iter().flat_map(|s| frame(&s.payload())).collect();
        let mut stream = connect();
        stream.write_all(&bytes).unwrap();
        for scripted in &script {
            scripted.check(&read_response(&mut stream));
        }
        drop(stream);
        assert_connections_drain();
    }

    /// Garbage payloads inside intact frames: the connection survives
    /// with a framed protocol error each time, and still answers a real
    /// request afterwards.
    #[test]
    fn garbage_in_a_well_formed_frame_is_recoverable(
        garbage in prop::collection::vec(
            // Printable-ish ASCII so the payload stays valid UTF-8: UTF-8
            // violations are frame-fatal and tested separately.
            prop::collection::vec(0x20u8..0x7f, 0..64),
            1..5,
        ),
    ) {
        let mut stream = connect();
        for junk in &garbage {
            let payload = String::from_utf8(junk.clone()).unwrap();
            stream.write_all(&frame(&payload)).unwrap();
            match read_response(&mut stream) {
                Response::Error { kind: ErrorKind::Protocol, .. } => {}
                other => panic!("garbage frame → {other:?}"),
            }
        }
        stream.write_all(&frame(&protocol::encode_request(&Request::Ping))).unwrap();
        assert!(matches!(read_response(&mut stream), Response::Pong));
        drop(stream);
        assert_connections_drain();
    }

    /// Truncation at every possible byte boundary, then an abrupt close:
    /// the server must treat it as a clean disconnect — no response owed,
    /// no panic, no leaked slot — and keep serving others.
    #[test]
    fn truncated_streams_never_leak(cut in 0usize..64) {
        let bytes = frame(&protocol::encode_request(&Request::Query(Box::new(QueryRequest {
            program: PROGRAM.to_string(),
            query: "q(X)".to_string(),
            ..QueryRequest::default()
        }))));
        let cut = cut.min(bytes.len().saturating_sub(1));
        let mut stream = connect();
        stream.write_all(&bytes[..cut]).unwrap();
        drop(stream); // mid-length-prefix when cut < 4, mid-payload after
        assert_connections_drain();
        // The server is still healthy.
        let mut probe = connect();
        probe.write_all(&frame(&protocol::encode_request(&Request::Ping))).unwrap();
        assert!(matches!(read_response(&mut probe), Response::Pong));
    }

    /// Oversized length prefixes: there is no frame boundary to trust any
    /// more, so the server sends one final framed error and closes.
    #[test]
    fn oversized_length_prefix_errors_then_closes(extra in 1u32..u32::MAX - MAX_FRAME_BYTES) {
        let len = MAX_FRAME_BYTES + extra;
        let mut stream = connect();
        stream.write_all(&len.to_be_bytes()).unwrap();
        match read_response(&mut stream) {
            Response::Error { kind: ErrorKind::Protocol, message } => {
                assert!(message.contains("exceeds"), "unexpected message: {message}");
            }
            other => panic!("oversized frame → {other:?}"),
        }
        expect_eof(&mut stream);
        assert_connections_drain();
    }
}

/// Non-UTF-8 payload bytes inside a "valid" frame: frame-fatal — one
/// framed error, then close.
#[test]
fn non_utf8_payload_errors_then_closes() {
    let mut stream = connect();
    let junk = [0xffu8, 0xfe, 0x00, 0x80, 0xc3];
    let mut bytes = (junk.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&junk);
    stream.write_all(&bytes).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind: ErrorKind::Protocol, message } => {
            assert!(message.contains("UTF-8"), "unexpected message: {message}");
        }
        other => panic!("non-UTF-8 frame → {other:?}"),
    }
    expect_eof(&mut stream);
    assert_connections_drain();
}

/// A zero-length frame is a well-formed frame holding a malformed (empty)
/// request: framed error, connection survives.
#[test]
fn empty_frame_is_a_recoverable_protocol_error() {
    let mut stream = connect();
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind: ErrorKind::Protocol, .. } => {}
        other => panic!("empty frame → {other:?}"),
    }
    stream.write_all(&frame(&protocol::encode_request(&Request::Ping))).unwrap();
    assert!(matches!(read_response(&mut stream), Response::Pong));
}

/// A client that still sends `stats` is told what any unknown verb is told:
/// one framed `protocol` error, counted once, on a connection that lives on.
#[test]
fn the_retired_stats_verb_is_an_unknown_verb() {
    let server = Server::start(ServerConfig::default()).expect("start a server of its own to count on");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let errors = || parse_sample(&server.metrics_text(), "pwam_protocol_errors_total").unwrap();
    let before = errors();
    stream.write_all(&frame(&Scripted::RetiredVerb.payload())).unwrap();
    match read_response(&mut stream) {
        Response::Error { kind: ErrorKind::Protocol, message } => {
            assert!(message.contains("unknown request verb \"stats\""), "unexpected message: {message}");
        }
        other => panic!("stats → {other:?}"),
    }
    assert_eq!(errors(), before + 1);
    stream.write_all(&frame(&protocol::encode_request(&Request::Ping))).unwrap();
    assert!(matches!(read_response(&mut stream), Response::Pong));
    drop(stream);
    server.shutdown();
}

/// Heavy pipelining across many simultaneous connections: every
/// connection gets its full, ordered response stream, and the gauge
/// drains to zero afterwards.
#[test]
fn interleaved_connections_each_keep_their_order() {
    let handles: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let mut stream = connect();
                let script = [Scripted::Ping, Scripted::Query, Scripted::BadVerb, Scripted::Ping];
                let mut bytes = Vec::new();
                for s in &script {
                    bytes.extend_from_slice(&frame(&s.payload()));
                }
                // Vary the write pattern per thread: one big write, byte
                // dribble, or two halves.
                match i % 3 {
                    0 => stream.write_all(&bytes).unwrap(),
                    1 => {
                        for chunk in bytes.chunks(7) {
                            stream.write_all(chunk).unwrap();
                        }
                    }
                    _ => {
                        let mid = bytes.len() / 2;
                        stream.write_all(&bytes[..mid]).unwrap();
                        std::thread::sleep(Duration::from_millis(5));
                        stream.write_all(&bytes[mid..]).unwrap();
                    }
                }
                for s in &script {
                    s.check(&read_response(&mut stream));
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("torture thread panicked");
    }
    assert_connections_drain();
}
