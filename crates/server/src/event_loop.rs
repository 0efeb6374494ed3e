//! The readiness-driven serving tier: one poller thread multiplexing every
//! connection, a small worker pool running engine requests off the loop.
//!
//! ## Why not thread-per-connection?
//!
//! A thread per connection costs a stack and a scheduler slot even while
//! the connection sits idle between requests, which is most of the time
//! for interactive clients — so the connection ceiling would be set by
//! thread memory, hundreds at best, while actual engine concurrency is
//! bounded far lower by the pool (`BENCH_server_capacity.json` records the
//! comparison: 1024 connections sustained here against 256 that way).
//! Here connections are *state machines* (a read buffer, a write buffer, a
//! pipeline of outstanding requests) owned by one event loop, and only the
//! bounded engine work runs on threads.  Ten thousand idle connections
//! cost ten thousand buffers, not ten thousand stacks.
//!
//! ## Structure
//!
//! ```text
//!              ┌────────────────────────────────────────────┐
//!   accept ──▶ │  poll loop (vendored epoll/poll stand-in)  │
//!              │  · parse frames from readable conns        │
//!              │  · answer cheap verbs inline               │
//!              │  · queue engine verbs to the worker pool   │
//!              │  · splice completed responses, in order,   │
//!              │    into each conn's write buffer           │
//!              └──────────────┬────────────▲────────────────┘
//!                       jobs  │            │  self-pipe wakeup
//!              ┌──────────────▼────────────┴────────────────┐
//!              │ worker pool (config.event_workers threads) │
//!              │ handle_query / open / next / close —       │
//!              │ admission still happens in the EnginePool  │
//!              └────────────────────────────────────────────┘
//! ```
//!
//! ## Per-connection state machine
//!
//! A connection is always in a combination of: **reading** (buffering
//! bytes until a complete frame arrives), **executing** (one or more
//! decoded requests in the worker pool), and **writing** (flushing framed
//! responses).  Requests pipeline: a client may send many frames without
//! waiting, and responses always return in request order — each parsed
//! request takes a sequence number, completions park in a reorder slot
//! until every earlier response has been spliced into the write buffer.
//!
//! Backpressure is structural: a connection with `MAX_PIPELINE` requests
//! in flight (or an oversized unparsed backlog) simply stops being read
//! until completions drain, which eventually fills the client's send
//! buffer — TCP does the rest.
//!
//! ## Fault containment
//!
//! * A garbage verb or malformed body gets a well-framed `protocol` error
//!   and the connection lives on.
//! * A frame that cannot be framed out of (oversized length prefix,
//!   non-UTF-8 payload) gets a final framed error, then the connection is
//!   closed once the error flushes.
//! * A peer that vanishes mid-anything is torn down immediately; responses
//!   still in flight for it are discarded on completion.
//! * A connection that stalls mid-frame, or stops draining its responses,
//!   for longer than `config.io_idle_timeout` is closed (the slowloris
//!   guard).  Fully idle connections with empty buffers are free and are
//!   left alone.

use crate::protocol::{self, ErrorKind, Request, Response, MAX_FRAME_BYTES};
use crate::server::{handle_query, handle_query_close, handle_query_next, handle_query_open, ServerState};
use polling::{Event, Interest, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Engine requests one connection may have in the worker pool at once;
/// beyond this the connection stops being read until completions drain.
const MAX_PIPELINE: usize = 32;

/// Unparsed-bytes ceiling per connection before reads pause (a client
/// streaming frames faster than the engine drains them).
const READ_PAUSE_BYTES: usize = 1 << 20;

/// Poll timeout: the cadence of the slowloris sweep and the shutdown
/// check; readiness and completions wake the loop immediately regardless.
const POLL_TICK: Duration = Duration::from_millis(250);

/// After shutdown is requested, how long the loop keeps flushing in-flight
/// responses (the `bye` frame among them) before tearing down.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// One engine-bound request queued off the loop.
struct Job {
    token: u64,
    seq: u64,
    request: Request,
    /// When the frame was parsed.  The request clock (the `request_us`
    /// histogram and the deadline budget) starts here, not when a worker
    /// picks the job up — queue wait is part of the request, and the
    /// client-vs-server latency cross-check in `pwam-load` would diverge
    /// by whole buckets under load otherwise.
    arrived: Instant,
}

/// One finished request on its way back to the loop.
struct Completion {
    token: u64,
    seq: u64,
    payload: String,
}

/// Everything the loop and the workers share.
struct WorkerShared {
    state: Arc<ServerState>,
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    done: Mutex<Vec<Completion>>,
    /// Write half of the self-pipe; one byte per completion batch wakes
    /// the poll loop.  `WouldBlock` just means a wakeup is already queued.
    waker_tx: Mutex<UnixStream>,
    stop: AtomicBool,
}

fn worker_loop(shared: Arc<WorkerShared>) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock().unwrap();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                jobs = shared.jobs_cv.wait(jobs).unwrap();
            }
        };
        let response = match job.request {
            Request::Query(q) => handle_query(&shared.state, *q, job.arrived),
            Request::QueryOpen(q) => handle_query_open(&shared.state, *q),
            Request::QueryNext { cursor } => handle_query_next(&shared.state, cursor),
            Request::QueryClose { cursor } => handle_query_close(&shared.state, cursor),
            // The loop only queues engine verbs; everything else is
            // answered inline.
            _ => Response::Error {
                kind: ErrorKind::Protocol,
                message: "internal: non-engine verb reached the worker pool".to_string(),
            },
        };
        let payload = protocol::encode_response(&response);
        shared.done.lock().unwrap().push(Completion { token: job.token, seq: job.seq, payload });
        let _ = shared.waker_tx.lock().unwrap().write(&[1]);
    }
}

// ---------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet parsed into frames.
    read_buf: Vec<u8>,
    /// Framed responses not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Sequence number the next parsed request will take.
    next_seq: u64,
    /// Sequence number whose response must be written next (pipelined
    /// responses go out strictly in request order).
    next_to_send: u64,
    /// Out-of-order completions parked until their turn.
    ready: HashMap<u64, String>,
    /// Requests currently in the worker pool.
    inflight: usize,
    /// The connection ends once the write buffer drains.
    close_after_flush: bool,
    /// Interest currently registered with the poller (avoids redundant
    /// `reregister` syscalls).
    interest: Interest,
    /// Last moment bytes moved in either direction; the slowloris clock.
    last_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            next_seq: 0,
            next_to_send: 0,
            ready: HashMap::new(),
            inflight: 0,
            close_after_flush: false,
            interest: Interest::READ,
            last_progress: Instant::now(),
        }
    }

    /// Park a completed response at its sequence slot, then splice every
    /// consecutively-ready response into the write buffer.
    fn complete(&mut self, seq: u64, payload: String) {
        self.ready.insert(seq, payload);
        while let Some(payload) = self.ready.remove(&self.next_to_send) {
            self.write_buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            self.write_buf.extend_from_slice(payload.as_bytes());
            self.next_to_send += 1;
        }
    }

    /// The interest this connection currently wants from the poller.  No
    /// read interest while backpressured or dying; no write interest with
    /// nothing buffered.  Both may be false — a connection waiting purely
    /// on engine completions needs no readiness at all (the self-pipe
    /// wakes the loop when its responses land).
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.close_after_flush
                && self.inflight < MAX_PIPELINE
                && self.read_buf.len() < READ_PAUSE_BYTES,
            writable: !self.write_buf.is_empty(),
        }
    }

    /// Flush as much of the write buffer as the socket accepts.
    /// `Ok(true)` when the connection should be torn down (fatal write
    /// error, or close-after-flush with an empty buffer).
    fn try_write(&mut self) -> bool {
        while !self.write_buf.is_empty() {
            match self.stream.write(&self.write_buf) {
                Ok(0) => return true,
                Ok(n) => {
                    self.write_buf.drain(..n);
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        self.write_buf.is_empty() && self.close_after_flush
    }

    /// Whether the slowloris guard should end this connection: bytes are
    /// stuck mid-frame or mid-response past the deadline while nothing is
    /// executing on its behalf.
    fn is_stalled(&self, now: Instant, timeout: Duration) -> bool {
        let has_stuck_bytes = !self.read_buf.is_empty() || !self.write_buf.is_empty();
        has_stuck_bytes && self.inflight == 0 && now.duration_since(self.last_progress) > timeout
    }
}

// ---------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------

/// Build the event loop around `listener` and run it on a thread of its
/// own until shutdown.  Whatever keeps the loop from being built — the
/// poller, the self-pipe, a worker thread — is the caller's error.
pub(crate) fn spawn(listener: TcpListener, state: Arc<ServerState>) -> io::Result<JoinHandle<()>> {
    let event_loop = EventLoop::new(listener, state)?;
    thread::Builder::new().name("pwam-accept".to_string()).spawn(move || event_loop.run())
}

struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    waker_rx: UnixStream,
    state: Arc<ServerState>,
    shared: Arc<WorkerShared>,
    workers: Vec<JoinHandle<()>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl EventLoop {
    fn new(listener: TcpListener, state: Arc<ServerState>) -> io::Result<EventLoop> {
        let mut poller = Poller::new()?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        let shared = Arc::new(WorkerShared {
            state: Arc::clone(&state),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            done: Mutex::new(Vec::new()),
            waker_tx: Mutex::new(waker_tx),
            stop: AtomicBool::new(false),
        });
        let workers = (0..state.config.event_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new().name(format!("pwam-worker-{i}")).spawn(move || worker_loop(shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(EventLoop {
            poller,
            listener,
            waker_rx,
            state,
            shared,
            workers,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut shutdown_at: Option<Instant> = None;
        loop {
            let _ = self.poller.poll(&mut events, Some(POLL_TICK));
            let drained = std::mem::take(&mut events);
            for event in &drained {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_completions(),
                    token => self.conn_ready(token, event.readable, event.writable),
                }
            }
            events = drained;
            // Completions can land between poll timeouts; drain them every
            // pass so a lost wakeup byte can only delay, never strand.
            self.drain_completions();
            self.sweep_stalled();
            if self.state.shutdown.load(Ordering::Acquire) {
                let deadline = *shutdown_at.get_or_insert_with(|| Instant::now() + SHUTDOWN_GRACE);
                let pending = self
                    .conns
                    .values()
                    .any(|c| c.inflight > 0 || !c.write_buf.is_empty() || !c.ready.is_empty());
                if !pending || Instant::now() >= deadline {
                    break;
                }
            }
        }
        // Tear down: workers first (they may still be finishing a run the
        // grace period gave up on), then the connections.
        self.shared.stop.store(true, Ordering::Release);
        self.shared.jobs_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let open = self.conns.len() as u64;
        self.state.connections_active.fetch_sub(open, Ordering::AcqRel);
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.state.shutdown.load(Ordering::Acquire) {
                continue; // drained only to clear readiness; shutting down
            }
            if self.conns.len() >= self.state.config.max_connections {
                // Shed with a well-framed error rather than a bare RST: a
                // fresh socket's send buffer takes one small frame even in
                // non-blocking mode, and a client that races the write
                // just sees a close — either way it learns quickly.
                let payload = protocol::encode_response(&Response::Error {
                    kind: ErrorKind::Rejected,
                    message: format!(
                        "server is at its connection limit ({})",
                        self.state.config.max_connections
                    ),
                });
                let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
                frame.extend_from_slice(payload.as_bytes());
                let _ = stream.set_nonblocking(true);
                let mut stream = stream;
                let _ = stream.write(&frame);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
                continue;
            }
            self.state.metrics.connections.inc();
            self.state.connections_active.fetch_add(1, Ordering::AcqRel);
            self.conns.insert(token, Conn::new(stream));
        }
    }

    /// Handle readiness on one connection.
    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let mut dead = false;
        if readable {
            dead = read_into(conn);
        }
        if !dead {
            self.parse_frames(token);
        }
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if !dead && (writable || !conn.write_buf.is_empty()) {
            dead = conn.try_write();
        }
        if dead {
            self.close_conn(token);
        } else {
            self.update_interest(token);
        }
    }

    /// Parse every complete frame buffered on `token` and dispatch the
    /// requests (inline for cheap verbs, to the worker pool for engine
    /// verbs).
    fn parse_frames(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.close_after_flush || conn.inflight >= MAX_PIPELINE || conn.read_buf.len() < 4 {
                return;
            }
            let len = u32::from_be_bytes(conn.read_buf[..4].try_into().unwrap());
            if len > MAX_FRAME_BYTES {
                // Unframeable: there is no trustworthy frame boundary to
                // resynchronise at.  One last well-framed error, then the
                // connection closes after the flush.
                self.state.metrics.protocol_errors.inc();
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let payload = protocol::encode_response(&Response::Error {
                    kind: ErrorKind::Protocol,
                    message: format!("frame of {len} bytes exceeds limit"),
                });
                conn.complete(seq, payload);
                conn.close_after_flush = true;
                return;
            }
            let total = 4 + len as usize;
            if conn.read_buf.len() < total {
                return;
            }
            let payload_bytes: Vec<u8> = conn.read_buf[4..total].to_vec();
            conn.read_buf.drain(..total);
            let seq = conn.next_seq;
            conn.next_seq += 1;
            let Ok(payload) = String::from_utf8(payload_bytes) else {
                self.state.metrics.protocol_errors.inc();
                let reply = protocol::encode_response(&Response::Error {
                    kind: ErrorKind::Protocol,
                    message: "frame is not UTF-8".to_string(),
                });
                conn.complete(seq, reply);
                conn.close_after_flush = true;
                return;
            };
            match protocol::decode_request(&payload) {
                // Cheap verbs never touch the engine: answer them on the
                // loop.  They still flow through the sequence slots so
                // pipelined responses keep request order.
                Ok(Request::Ping) => {
                    let reply = protocol::encode_response(&Response::Pong);
                    conn.complete(seq, reply);
                }
                Ok(Request::Metrics) => {
                    let text = self.state.metrics.render(&self.state);
                    let Some(conn) = self.conns.get_mut(&token) else { return };
                    conn.complete(seq, protocol::encode_response(&Response::Metrics { text }));
                }
                Ok(Request::Events { limit }) => {
                    let text = self.state.flight.render(limit);
                    conn.complete(seq, protocol::encode_response(&Response::Events { text }));
                }
                Ok(Request::Shutdown) => {
                    self.state.shutdown.store(true, Ordering::Release);
                    let reply = protocol::encode_response(&Response::Bye);
                    let Some(conn) = self.conns.get_mut(&token) else { return };
                    conn.complete(seq, reply);
                    conn.close_after_flush = true;
                    return;
                }
                Ok(request) => {
                    conn.inflight += 1;
                    self.shared.jobs.lock().unwrap().push_back(Job {
                        token,
                        seq,
                        request,
                        arrived: Instant::now(),
                    });
                    self.shared.jobs_cv.notify_one();
                }
                Err(e) => {
                    // A malformed *request* inside a well-formed frame is
                    // recoverable: answer with a protocol error and keep
                    // the connection (framing is still in sync).
                    self.state.metrics.protocol_errors.inc();
                    let reply = protocol::encode_response(&Response::Error {
                        kind: ErrorKind::Protocol,
                        message: e.to_string(),
                    });
                    conn.complete(seq, reply);
                }
            }
        }
    }

    /// Drain the self-pipe and splice finished responses into their
    /// connections (discarding those whose connection is gone).
    fn drain_completions(&mut self) {
        let mut byte = [0u8; 64];
        while matches!(self.waker_rx.read(&mut byte), Ok(n) if n > 0) {}
        let completions = std::mem::take(&mut *self.shared.done.lock().unwrap());
        let mut touched: Vec<u64> = Vec::new();
        for completion in completions {
            let Some(conn) = self.conns.get_mut(&completion.token) else { continue };
            conn.inflight -= 1;
            conn.complete(completion.seq, completion.payload);
            touched.push(completion.token);
        }
        for token in touched {
            // Completions may have unblocked parsing (pipeline backlog) as
            // well as produced bytes to write.
            self.parse_frames(token);
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.try_write() {
                    self.close_conn(token);
                } else {
                    self.update_interest(token);
                }
            }
        }
    }

    /// Close connections the slowloris guard has given up on.
    fn sweep_stalled(&mut self) {
        let timeout = self.state.config.io_idle_timeout;
        let now = Instant::now();
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.is_stalled(now, timeout))
            .map(|(token, _)| *token)
            .collect();
        for token in stalled {
            self.state.flight.record("io-timeout", &format!("conn={token}"));
            self.close_conn(token);
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let desired = conn.desired_interest();
        if desired != conn.interest && self.poller.reregister(conn.stream.as_raw_fd(), token, desired).is_ok()
        {
            conn.interest = desired;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.state.connections_active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Pull every byte the socket currently has into the connection's read
/// buffer.  Returns `true` when the connection is finished (EOF or a
/// fatal read error).
fn read_into(conn: &mut Conn) -> bool {
    let mut scratch = [0u8; 16 * 1024];
    loop {
        if conn.read_buf.len() >= READ_PAUSE_BYTES {
            return false; // backpressure: leave the rest in the kernel
        }
        match conn.stream.read(&mut scratch) {
            Ok(0) => return true,
            Ok(n) => {
                conn.read_buf.extend_from_slice(&scratch[..n]);
                conn.last_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}
