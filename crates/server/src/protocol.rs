//! The wire protocol: a small length-prefixed text protocol.
//!
//! Every message is one *frame*: a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 text.  The payload is line-oriented — a verb
//! line, `key value` header lines, a blank line, then counted byte sections
//! for fields that may themselves contain newlines (program source, query
//! text, error messages).  Counted sections make the format self-delimiting
//! without any escaping.
//!
//! A query request looks like:
//!
//! ```text
//! query
//! workers 4
//! parallel true
//! scheduler threaded
//! determinism relaxed
//! deadline-ms 2000
//! program-bytes 37
//! query-bytes 12
//!
//! app([],L,L).app([H|T],L,[H|R])... app([1],[2],X)
//! ```
//!
//! and a successful response:
//!
//! ```text
//! answer
//! outcome success
//! warm true
//! elapsed-us 1234
//! instructions 5678
//! inferences 90
//! parcalls 7
//! bindings 1
//!
//! 1 5
//! X[1,2]
//! ```
//!
//! (each binding is a `name-bytes value-bytes` header line followed by the
//! two counted sections — rendered terms may contain *any* characters,
//! including newlines from quoted atoms, without escaping).
//!
//! All-solutions streaming uses three cursor verbs.  `query-open` carries
//! the same body as `query` but runs nothing: the server parks a cursor's
//! engine and replies `cursor-opened` with a `cursor` id.  Each
//! `query-next` (a `cursor N` header, no body) steps that engine to its
//! next answer and replies with a normal `answer` frame; `outcome failure`
//! means the stream is exhausted and the cursor is already gone.
//! `query-close` discards the cursor early and replies `cursor-closed`.
//! Cursors idle past the server's eviction deadline are reclaimed; any
//! verb naming a reclaimed (or never-opened) id gets a `cursor` error.

use rapwam::{DeterminismMode, SchedulerKind};
use std::io::{self, Read, Write};

/// Upper bound on a frame payload; a frame claiming more is a protocol
/// error (protects the server from a garbage length prefix).
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// What went wrong while handling a request, as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame or unparsable request.
    Protocol,
    /// Program or query failed to parse/compile.
    Compile,
    /// Admission control turned the request away (queue full).
    Rejected,
    /// The request waited too long for a pool slot.
    QueueTimeout,
    /// The engine ran past the request deadline.
    Deadline,
    /// The engine aborted (out of memory, step limit, internal error).
    Engine,
    /// A cursor operation named an unknown id (never opened, already
    /// closed, or reclaimed by idle eviction).
    Cursor,
    /// The query's deterministic instruction-fuel budget ran out.  For a
    /// one-shot `query` this is terminal; for a cursor leg the cursor
    /// stays parked and another `query-next` resumes exactly where the
    /// engine stopped.
    Fuel,
    /// The tenant named by the request is already running its full
    /// admission quota of queries; retry after one finishes.
    Quota,
}

impl ErrorKind {
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Compile => "compile",
            ErrorKind::Rejected => "rejected",
            ErrorKind::QueueTimeout => "queue-timeout",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Engine => "engine",
            ErrorKind::Cursor => "cursor",
            ErrorKind::Fuel => "fuel",
            ErrorKind::Quota => "quota",
        }
    }

    pub(crate) fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "protocol" => ErrorKind::Protocol,
            "compile" => ErrorKind::Compile,
            "rejected" => ErrorKind::Rejected,
            "queue-timeout" => ErrorKind::QueueTimeout,
            "deadline" => ErrorKind::Deadline,
            "engine" => ErrorKind::Engine,
            "cursor" => ErrorKind::Cursor,
            "fuel" => ErrorKind::Fuel,
            "quota" => ErrorKind::Quota,
            _ => return None,
        })
    }
}

/// One query to run against a (cached) program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Program source text (the cache key).
    pub program: String,
    /// Query text.
    pub query: String,
    /// Number of PEs.
    pub workers: usize,
    /// Compile CGEs to parallel code (RAP-WAM) or sequential (WAM).
    pub parallel: bool,
    /// Execution backend.  `threaded` takes effect under `relaxed`
    /// determinism; a strict request is served interleaved either way.
    pub scheduler: SchedulerKind,
    /// Determinism mode of the backend.
    pub determinism: DeterminismMode,
    /// Per-request deadline in milliseconds (`None` = server default).
    pub deadline_ms: Option<u64>,
    /// Deterministic instruction-fuel budget (`None` = server default,
    /// which may itself be unlimited).  One-shot queries that exhaust it
    /// fail with a `fuel` error; a cursor leg parks for the next `query-next`.
    pub fuel: Option<u64>,
    /// Admission-quota identity.  Anonymous requests (`None`) bypass the
    /// per-tenant quota entirely.
    pub tenant: Option<String>,
}

impl Default for QueryRequest {
    fn default() -> Self {
        QueryRequest {
            program: String::new(),
            query: String::new(),
            workers: 1,
            parallel: true,
            scheduler: SchedulerKind::Interleaved,
            determinism: DeterminismMode::Strict,
            deadline_ms: None,
            fuel: None,
            tenant: None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Query(Box<QueryRequest>),
    /// Open an all-solutions cursor over a query (nothing runs yet); the
    /// server answers [`Response::CursorOpened`] with the cursor id.
    QueryOpen(Box<QueryRequest>),
    /// Step a cursor to its next answer.  An `answer` response with
    /// `outcome failure` means the stream is exhausted and the cursor was
    /// auto-closed.
    QueryNext {
        cursor: u64,
    },
    /// Discard a cursor (and the engine parked behind it).
    QueryClose {
        cursor: u64,
    },
    /// Full metric exposition (Prometheus-style text) — latency
    /// histograms, pool/cache/cursor/tenant counters and gauges, per-PE
    /// scheduler telemetry, per-predicate instruction attribution.
    Metrics,
    /// Recent query lifecycle events from the flight recorder, newest
    /// last.  `limit` caps how many events are returned (`None` = all
    /// currently buffered).
    Events {
        limit: Option<u64>,
    },
    /// Liveness check.
    Ping,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

/// A successful query execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnswerResponse {
    /// `true` when the query succeeded.
    pub success: bool,
    /// Rendered bindings of the query variables (empty on failure).
    pub bindings: Vec<(String, String)>,
    /// Whether the engine ran on recycled (warm) arenas.
    pub warm: bool,
    /// Wall-clock of the engine run in microseconds.
    pub elapsed_us: u64,
    /// Abstract-machine instructions executed.
    pub instructions: u64,
    /// Logical inferences performed.
    pub inferences: u64,
    /// Parallel calls executed.
    pub parcalls: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Answer(AnswerResponse),
    Error {
        kind: ErrorKind,
        message: String,
    },
    Pong,
    /// Acknowledges a shutdown request.
    Bye,
    /// A cursor was opened; `cursor` names it in `query-next`/`query-close`.
    CursorOpened {
        cursor: u64,
    },
    /// Acknowledges `query-close`.
    CursorClosed,
    /// Metric exposition text (Prometheus-style; may contain blank lines
    /// and arbitrary label values, hence the counted body section).
    Metrics {
        text: String,
    },
    /// Flight-recorder event log, one event per line, oldest first.
    Events {
        text: String,
    },
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Read one frame.  `Ok(None)` on a clean EOF before the length prefix.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

// ---------------------------------------------------------------------
// Payload encode/decode
// ---------------------------------------------------------------------

/// A malformed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn bad(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Header lines plus the trailing byte-counted body.
struct Sections<'a> {
    headers: Vec<(&'a str, &'a str)>,
    body: &'a str,
}

/// Split a payload after its verb line into `key value` headers and the
/// byte-counted body following the blank line.
fn split_sections(rest: &str) -> Result<Sections<'_>, ParseError> {
    let (head, body) = match rest.split_once("\n\n") {
        Some((h, b)) => (h, b),
        None => (rest.trim_end_matches('\n'), ""),
    };
    let mut headers = Vec::new();
    for line in head.lines() {
        if line.is_empty() {
            continue;
        }
        let (k, v) =
            line.split_once(' ').ok_or_else(|| bad(format!("header line without value: {line:?}")))?;
        headers.push((k, v));
    }
    Ok(Sections { headers, body })
}

fn header<'a>(s: &Sections<'a>, key: &str) -> Option<&'a str> {
    s.headers.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn header_u64(s: &Sections<'_>, key: &str) -> Result<Option<u64>, ParseError> {
    match header(s, key) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| bad(format!("{key} is not a number: {v:?}"))),
    }
}

/// Take `n` bytes off the front of `body` (must fall on a char boundary).
fn take_bytes<'a>(body: &'a str, n: usize, what: &str) -> Result<(&'a str, &'a str), ParseError> {
    if n > body.len() || !body.is_char_boundary(n) {
        return Err(bad(format!("{what} section of {n} bytes does not fit the body")));
    }
    Ok(body.split_at(n))
}

/// Encode the shared body of `query` / `query-open` after the verb line.
fn encode_query_body(out: &mut String, q: &QueryRequest) {
    out.push_str(&format!("workers {}\n", q.workers));
    out.push_str(&format!("parallel {}\n", q.parallel));
    out.push_str(&format!("scheduler {}\n", q.scheduler.name()));
    out.push_str(&format!("determinism {}\n", q.determinism.name()));
    if let Some(ms) = q.deadline_ms {
        out.push_str(&format!("deadline-ms {ms}\n"));
    }
    if let Some(fuel) = q.fuel {
        out.push_str(&format!("fuel {fuel}\n"));
    }
    // The tenant header takes the whole rest of the line, like any header
    // value: spaces are legal in a tenant name, newlines are not.
    if let Some(tenant) = &q.tenant {
        out.push_str(&format!("tenant {tenant}\n"));
    }
    out.push_str(&format!("program-bytes {}\n", q.program.len()));
    out.push_str(&format!("query-bytes {}\n", q.query.len()));
    out.push('\n');
    out.push_str(&q.program);
    out.push_str(&q.query);
}

/// Encode a request payload.
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Metrics => "metrics\n".to_string(),
        Request::Events { limit: None } => "events\n".to_string(),
        Request::Events { limit: Some(n) } => format!("events\nlimit {n}\n"),
        Request::Ping => "ping\n".to_string(),
        Request::Shutdown => "shutdown\n".to_string(),
        Request::Query(q) => {
            let mut out = String::from("query\n");
            encode_query_body(&mut out, q);
            out
        }
        Request::QueryOpen(q) => {
            let mut out = String::from("query-open\n");
            encode_query_body(&mut out, q);
            out
        }
        Request::QueryNext { cursor } => format!("query-next\ncursor {cursor}\n"),
        Request::QueryClose { cursor } => format!("query-close\ncursor {cursor}\n"),
    }
}

/// Decode the shared body of `query` / `query-open` after the verb line.
fn decode_query_body(rest: &str) -> Result<QueryRequest, ParseError> {
    let s = split_sections(rest)?;
    let mut q = QueryRequest::default();
    if let Some(w) = header_u64(&s, "workers")? {
        q.workers = w as usize;
    }
    if let Some(p) = header(&s, "parallel") {
        q.parallel = p == "true";
    }
    if let Some(sch) = header(&s, "scheduler") {
        q.scheduler = SchedulerKind::parse(sch).ok_or_else(|| bad(format!("unknown scheduler {sch:?}")))?;
    }
    if let Some(d) = header(&s, "determinism") {
        q.determinism = DeterminismMode::parse(d).ok_or_else(|| bad(format!("unknown determinism {d:?}")))?;
    }
    q.deadline_ms = header_u64(&s, "deadline-ms")?;
    q.fuel = header_u64(&s, "fuel")?;
    q.tenant = header(&s, "tenant").map(str::to_string);
    let program_bytes =
        header_u64(&s, "program-bytes")?.ok_or_else(|| bad("query without program-bytes"))? as usize;
    let query_bytes =
        header_u64(&s, "query-bytes")?.ok_or_else(|| bad("query without query-bytes"))? as usize;
    let (program, rest) = take_bytes(s.body, program_bytes, "program")?;
    let (query, _) = take_bytes(rest, query_bytes, "query")?;
    q.program = program.to_string();
    q.query = query.to_string();
    Ok(q)
}

/// Parse the `cursor` header of a `query-next` / `query-close` payload.
fn decode_cursor_id(rest: &str, verb: &str) -> Result<u64, ParseError> {
    let s = split_sections(rest)?;
    header_u64(&s, "cursor")?.ok_or_else(|| bad(format!("{verb} without a cursor id")))
}

/// Decode a request payload.
pub fn decode_request(payload: &str) -> Result<Request, ParseError> {
    let (verb, rest) = payload.split_once('\n').unwrap_or((payload, ""));
    match verb {
        "metrics" => Ok(Request::Metrics),
        "events" => {
            let s = split_sections(rest)?;
            Ok(Request::Events { limit: header_u64(&s, "limit")? })
        }
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "query" => Ok(Request::Query(Box::new(decode_query_body(rest)?))),
        "query-open" => Ok(Request::QueryOpen(Box::new(decode_query_body(rest)?))),
        "query-next" => Ok(Request::QueryNext { cursor: decode_cursor_id(rest, verb)? }),
        "query-close" => Ok(Request::QueryClose { cursor: decode_cursor_id(rest, verb)? }),
        other => Err(bad(format!("unknown request verb {other:?}"))),
    }
}

/// Encode a response payload.
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Pong => "pong\n".to_string(),
        Response::Bye => "bye\n".to_string(),
        Response::CursorOpened { cursor } => format!("cursor-opened\ncursor {cursor}\n"),
        Response::CursorClosed => "cursor-closed\n".to_string(),
        Response::Error { kind, message } => {
            let mut out = String::new();
            out.push_str("error\n");
            out.push_str(&format!("kind {}\n", kind.name()));
            out.push_str(&format!("message-bytes {}\n", message.len()));
            out.push('\n');
            out.push_str(message);
            out
        }
        Response::Metrics { text } => {
            format!("metrics\nbody-bytes {}\n\n{}", text.len(), text)
        }
        Response::Events { text } => {
            format!("events\nbody-bytes {}\n\n{}", text.len(), text)
        }
        Response::Answer(a) => {
            let mut out = String::new();
            out.push_str("answer\n");
            out.push_str(&format!("outcome {}\n", if a.success { "success" } else { "failure" }));
            out.push_str(&format!("warm {}\n", a.warm));
            out.push_str(&format!("elapsed-us {}\n", a.elapsed_us));
            out.push_str(&format!("instructions {}\n", a.instructions));
            out.push_str(&format!("inferences {}\n", a.inferences));
            out.push_str(&format!("parcalls {}\n", a.parcalls));
            out.push_str(&format!("bindings {}\n", a.bindings.len()));
            out.push('\n');
            for (name, value) in &a.bindings {
                out.push_str(&format!("{} {}\n{name}{value}\n", name.len(), value.len()));
            }
            out
        }
    }
}

/// Decode a response payload.
pub fn decode_response(payload: &str) -> Result<Response, ParseError> {
    let (verb, rest) = payload.split_once('\n').unwrap_or((payload, ""));
    match verb {
        "pong" => Ok(Response::Pong),
        "bye" => Ok(Response::Bye),
        "cursor-opened" => Ok(Response::CursorOpened { cursor: decode_cursor_id(rest, "cursor-opened")? }),
        "cursor-closed" => Ok(Response::CursorClosed),
        "metrics" | "events" => {
            let s = split_sections(rest)?;
            let n = header_u64(&s, "body-bytes")?.ok_or_else(|| bad(format!("{verb} without body-bytes")))?
                as usize;
            let (text, _) = take_bytes(s.body, n, "body")?;
            let text = text.to_string();
            Ok(if verb == "metrics" { Response::Metrics { text } } else { Response::Events { text } })
        }
        "error" => {
            let s = split_sections(rest)?;
            let kind_name = header(&s, "kind").ok_or_else(|| bad("error without kind"))?;
            let kind = ErrorKind::parse(kind_name)
                .ok_or_else(|| bad(format!("unknown error kind {kind_name:?}")))?;
            let n =
                header_u64(&s, "message-bytes")?.ok_or_else(|| bad("error without message-bytes"))? as usize;
            let (message, _) = take_bytes(s.body, n, "message")?;
            Ok(Response::Error { kind, message: message.to_string() })
        }
        "answer" => {
            let s = split_sections(rest)?;
            let outcome = header(&s, "outcome").ok_or_else(|| bad("answer without outcome"))?;
            let count = header_u64(&s, "bindings")?.unwrap_or(0) as usize;
            // The count is wire-supplied: clamp the pre-allocation so a
            // malformed header is a ParseError (in the loop), not an
            // allocation panic.
            let mut bindings = Vec::with_capacity(count.min(1024));
            let mut body = s.body;
            for i in 0..count {
                let (sizes, rest) =
                    body.split_once('\n').ok_or_else(|| bad(format!("missing size line for binding {i}")))?;
                let (name_len, value_len) = sizes
                    .split_once(' ')
                    .and_then(|(n, v)| Some((n.parse::<usize>().ok()?, v.parse::<usize>().ok()?)))
                    .ok_or_else(|| bad(format!("malformed binding size line {sizes:?}")))?;
                let (name, rest) = take_bytes(rest, name_len, "binding name")?;
                let (value, rest) = take_bytes(rest, value_len, "binding value")?;
                bindings.push((name.to_string(), value.to_string()));
                body = rest.strip_prefix('\n').unwrap_or(rest);
            }
            Ok(Response::Answer(AnswerResponse {
                success: outcome == "success",
                bindings,
                warm: header(&s, "warm") == Some("true"),
                elapsed_us: header_u64(&s, "elapsed-us")?.unwrap_or(0),
                instructions: header_u64(&s, "instructions")?.unwrap_or(0),
                inferences: header_u64(&s, "inferences")?.unwrap_or(0),
                parcalls: header_u64(&s, "parcalls")?.unwrap_or(0),
            }))
        }
        other => Err(bad(format!("unknown response verb {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Ping,
            Request::Shutdown,
            Request::Query(Box::new(QueryRequest {
                program: "p(1).\np(2).\n".to_string(),
                query: "p(X)".to_string(),
                workers: 4,
                parallel: true,
                scheduler: SchedulerKind::Threaded,
                determinism: DeterminismMode::Relaxed,
                deadline_ms: Some(2500),
                fuel: Some(100_000),
                tenant: Some("team a/staging".to_string()),
            })),
            Request::QueryOpen(Box::new(QueryRequest {
                program: "p(1).\np(2).\n".to_string(),
                query: "p(X)".to_string(),
                ..QueryRequest::default()
            })),
            Request::QueryNext { cursor: 17 },
            Request::QueryClose { cursor: u64::MAX },
            Request::Metrics,
            Request::Events { limit: None },
            Request::Events { limit: Some(32) },
        ];
        for req in reqs {
            let encoded = encode_request(&req);
            assert_eq!(decode_request(&encoded).unwrap(), req, "round trip of {encoded:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Pong,
            Response::Bye,
            Response::CursorOpened { cursor: 42 },
            Response::CursorClosed,
            Response::Error { kind: ErrorKind::Cursor, message: "unknown cursor 9".to_string() },
            Response::Error { kind: ErrorKind::Fuel, message: "fuel exhausted".to_string() },
            Response::Error { kind: ErrorKind::Quota, message: "tenant at quota".to_string() },
            Response::Error { kind: ErrorKind::Deadline, message: "ran past 100ms\nsecond line".to_string() },
            Response::Metrics {
                text:
                    "# HELP pwam_queries_total Q.\n# TYPE pwam_queries_total counter\npwam_queries_total 3\n"
                        .to_string(),
            },
            // Bodies with blank lines and label-style quoting must survive
            // the counted section verbatim.
            Response::Metrics { text: "a{x=\"q w\"} 1\n\nafter blank\n".to_string() },
            Response::Events { text: String::new() },
            Response::Events { text: "12 query outcome=success elapsed_us=88\n".to_string() },
            Response::Answer(AnswerResponse {
                success: true,
                bindings: vec![("X".to_string(), "[1,2,3]".to_string()), ("Y".to_string(), "42".to_string())],
                warm: true,
                elapsed_us: 1234,
                instructions: 56,
                inferences: 7,
                parcalls: 3,
            }),
        ];
        for resp in resps {
            let encoded = encode_response(&resp);
            assert_eq!(decode_response(&encoded).unwrap(), resp, "round trip of {encoded:?}");
        }
    }

    #[test]
    fn program_with_blank_lines_survives() {
        let req = Request::Query(Box::new(QueryRequest {
            program: "a(1).\n\n\nb(2).\n".to_string(),
            query: "a(X)".to_string(),
            ..QueryRequest::default()
        }));
        let encoded = encode_request(&req);
        assert_eq!(decode_request(&encoded).unwrap(), req);
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello\nworld").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello\nworld"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn malformed_requests_are_parse_errors() {
        assert!(decode_request("warp\n").is_err());
        assert!(decode_request("stats\n").is_err(), "the verb `metrics` replaced");
        assert!(decode_response("stats\nwarm_hits 7\n").is_err());
        assert!(decode_request("query\nworkers four\n\n").is_err());
        assert!(decode_request("query-next\n").is_err(), "query-next needs a cursor id");
        assert!(decode_request("query-close\ncursor many\n").is_err());
        assert!(decode_response("cursor-opened\n").is_err());
        assert!(decode_request("query\nprogram-bytes 10\nquery-bytes 0\n\nshort").is_err());
        assert!(decode_response("answer\noutcome success\nbindings 2\n\n1 1\nX1\n").is_err());
        assert!(decode_request("events\nlimit soon\n").is_err());
        assert!(decode_request("query\nfuel lots\nprogram-bytes 0\nquery-bytes 0\n\n").is_err());
        assert!(decode_response("error\nkind quotaa\nmessage-bytes 0\n\n").is_err());
        assert!(decode_response("metrics\n\n").is_err(), "metrics needs body-bytes");
        assert!(decode_response("events\nbody-bytes 10\n\nshort").is_err());
    }

    #[test]
    fn binding_values_with_newlines_and_tabs_survive() {
        // Quoted atoms can render with embedded newlines/tabs; the counted
        // sections must carry them verbatim.
        let resp = Response::Answer(AnswerResponse {
            success: true,
            bindings: vec![
                ("X".to_string(), "'a\nb'".to_string()),
                ("Long name".to_string(), "v\tw".to_string()),
            ],
            ..AnswerResponse::default()
        });
        let encoded = encode_response(&resp);
        assert_eq!(decode_response(&encoded).unwrap(), resp);
    }
}
