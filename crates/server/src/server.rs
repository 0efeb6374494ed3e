//! The TCP serving tier: one readiness-driven thread multiplexes every
//! connection through the vendored [`polling`] poller, with non-blocking
//! framed I/O, per-connection pipelining, and a small worker pool running
//! engine requests off the loop (see [`crate::event_loop`]).  Concurrent
//! connections cost a buffer each, not a thread each.
//!
//! This module holds the configuration, the shared `ServerState` (pool,
//! cache, cursor table, tenant quotas, metrics) and the verb handlers the
//! loop's workers call.

use crate::cache::{CacheEntry, ProgramCache};
use crate::metrics::{FlightRecorder, ServerMetrics, FLIGHT_RECORDER_CAP};
use crate::pool::{AcquireError, CursorTable, EnginePool, ParkedQuery, PoolConfig, SlotGuard};
use crate::protocol::{AnswerResponse, ErrorKind, QueryRequest, Response};
use crate::tenant::{TenantGuard, TenantTable};
use pwam_compiler::CompiledProgram;
use rapwam::session::{CursorStep, QueryOptions, SessionError};
use rapwam::{EngineError, MemoryConfig, Outcome, RunStats};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Engine-pool sizing and queueing policy.
    pub pool: PoolConfig,
    /// Maximum number of cached programs.
    pub max_programs: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Relaxed-mode stall-watchdog timeout passed to every engine.
    pub stall_timeout: Duration,
    /// Per-worker Stack Set sizes for every engine the server builds.  One
    /// fixed shape keeps the pool's recycled arenas reusable across
    /// requests (a request only builds cold when its *worker count*
    /// differs from the slot's previous run).
    pub memory: MemoryConfig,
    /// Upper bound on the per-request worker count (each worker is a full
    /// Stack Set of `memory` words).
    pub max_workers: usize,
    /// How long a parked cursor may sit untouched before idle eviction
    /// reclaims it (lazily, on the next cursor request or metrics scrape).
    pub cursor_idle_timeout: Duration,
    /// Upper bound on concurrently parked cursors; `query-open` beyond it
    /// is rejected (each parked cursor holds a full engine's arenas).
    pub max_cursors: usize,
    /// Engine worker threads behind the event loop (requests that run the
    /// engine are executed here so the loop itself never blocks).
    pub event_workers: usize,
    /// Upper bound on concurrent connections; arrivals beyond it get a
    /// well-framed `rejected` error and an immediate close.
    pub max_connections: usize,
    /// Instruction-fuel budget applied to requests that do not carry their
    /// own `fuel` header (`None` = unlimited).
    pub default_fuel: Option<u64>,
    /// Per-tenant concurrent-request quota (`0` = unlimited).  Only
    /// requests carrying a `tenant` header are counted.
    pub tenant_max_active: usize,
    /// Event-loop I/O idle deadline: a connection that sits mid-frame (or
    /// entirely silent) longer than this is closed — the slowloris guard.
    pub io_idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            pool: PoolConfig::default(),
            max_programs: 64,
            default_deadline: Some(Duration::from_secs(10)),
            stall_timeout: Duration::from_secs(5),
            // Moderate Stack Sets (~350K words per worker): large enough
            // for every registry benchmark at small/paper scale, small
            // enough that a pool of warm engines stays cheap to hold.
            memory: MemoryConfig {
                heap_words: 1 << 18,
                local_words: 1 << 16,
                control_words: 1 << 16,
                trail_words: 1 << 14,
                pdl_words: 1 << 11,
                goal_stack_words: 1 << 12,
                message_words: 1 << 8,
            },
            max_workers: 16,
            cursor_idle_timeout: Duration::from_secs(60),
            max_cursors: 128,
            event_workers: 4,
            max_connections: 1024,
            default_fuel: None,
            tenant_max_active: 0,
            io_idle_timeout: Duration::from_secs(30),
        }
    }
}

/// State shared by the event loop and its workers.
pub(crate) struct ServerState {
    pub(crate) config: ServerConfig,
    pub(crate) pool: EnginePool,
    pub(crate) cache: ProgramCache,
    pub(crate) cursors: CursorTable,
    pub(crate) tenants: TenantTable,
    /// Connections open right now (the loop balances increments with
    /// decrements; `metrics` publishes it as a gauge).
    pub(crate) connections_active: AtomicU64,
    /// The registry: the request counters it created and the counters it
    /// adopted from the pool, cache, cursor table and tenants.
    pub(crate) metrics: ServerMetrics,
    pub(crate) flight: FlightRecorder,
    pub(crate) shutdown: AtomicBool,
}

/// A running server.  Dropping the handle does *not* stop it; call
/// [`Server::shutdown`] (or send a `shutdown` request over the wire).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving.  Fails when the socket cannot be bound or
    /// the event loop (poller, wakeup pipe, worker threads) cannot be built.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let pool = EnginePool::new(config.pool.clone());
        let cache = ProgramCache::new(config.max_programs);
        let cursors = CursorTable::new(config.cursor_idle_timeout, config.max_cursors);
        let tenants = TenantTable::new(config.tenant_max_active);
        let state = Arc::new(ServerState {
            metrics: ServerMetrics::new(&pool, &cache, &cursors, &tenants),
            pool,
            cache,
            cursors,
            tenants,
            connections_active: AtomicU64::new(0),
            flight: FlightRecorder::new(FLIGHT_RECORDER_CAP),
            shutdown: AtomicBool::new(false),
            config,
        });
        let accept_thread = crate::event_loop::spawn(listener, Arc::clone(&state))?;
        Ok(Server { addr, state, accept_thread: Some(accept_thread) })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The Prometheus-style metrics exposition (the same text the
    /// `metrics` request returns).
    pub fn metrics_text(&self) -> String {
        self.state.metrics.render(&self.state)
    }

    /// Stop accepting connections and join the event loop, which first
    /// flushes the responses still in flight.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        // Wake the loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the server shuts down (a `shutdown` request arrives).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Execute one query request: time the whole request into the
/// `request_us` histogram and log its outcome to the flight recorder,
/// with the actual work in [`run_query`].  `arrived` is when the frame
/// was read off the wire — that predates worker-queue wait, which is part
/// of the request (for both the histogram and the deadline budget).
pub(crate) fn handle_query(state: &ServerState, req: QueryRequest, arrived: Instant) -> Response {
    let response = run_query(state, req, arrived);
    let us = arrived.elapsed().as_micros() as u64;
    state.metrics.request_us.observe(us);
    let status = match &response {
        Response::Answer(a) if a.success => "success",
        Response::Answer(_) => "failure",
        _ => "error",
    };
    state.flight.record("query", &format!("status={status} us={us}"));
    response
}

/// Execute one query request against the cache + pool.
fn run_query(state: &ServerState, req: QueryRequest, arrived: Instant) -> Response {
    state.metrics.queries.inc();
    // The tenant guard spans the whole request.
    let Admitted { _tenant, deadline, entry, compiled, compile_us, mut options } = match admit(state, &req) {
        Ok(admitted) => admitted,
        Err(response) => return response,
    };
    state.metrics.compile_us.observe(compile_us);

    // Admission: one pool slot per running engine.  The queue-wait
    // histogram records successful admissions (rejections and timeouts
    // surface through their error counters instead).
    let wait_started = Instant::now();
    let mut slot = match state.pool.acquire(deadline) {
        Ok(s) => s,
        Err(e) => return acquire_error(e),
    };
    state.metrics.queue_wait_us.observe(wait_started.elapsed().as_micros() as u64);

    // The deadline covers the whole request: compile + queue wait eat into
    // the engine's remaining time budget.
    let remaining = deadline.map(|d| d.saturating_sub(arrived.elapsed()));
    if remaining.is_some_and(|r| r.is_zero()) {
        state.metrics.deadline_errors.inc();
        return Response::Error {
            kind: ErrorKind::Deadline,
            message: "deadline exhausted before the engine could start".to_string(),
        };
    }
    options.time_budget = remaining;

    let recycled = slot.take_memory();
    let started = Instant::now();
    let session = entry.session.read().unwrap();
    match session.run_prepared_reusing(&compiled, &options, recycled) {
        Ok((result, memory, warm)) => {
            slot.put_memory(memory);
            state.pool.record_run(warm);
            let bindings = match &result.outcome {
                Outcome::Success(b) => b.iter().map(|(n, t)| (n.clone(), session.render(t))).collect(),
                Outcome::Failure => Vec::new(),
            };
            let elapsed_us = started.elapsed().as_micros() as u64;
            state.metrics.instructions.add(result.stats.instructions);
            state.metrics.engine_micros.add(elapsed_us);
            state.metrics.execute_us.observe(elapsed_us);
            state.metrics.record_run(&result.stats);
            Response::Answer(AnswerResponse {
                success: result.outcome.is_success(),
                bindings,
                warm,
                elapsed_us,
                instructions: result.stats.instructions,
                inferences: result.stats.inferences,
                parcalls: result.stats.parcalls,
            })
        }
        Err(e) => engine_error(state, &e),
    }
}

/// The `error` frame of an engine run that failed — a one-shot query or a
/// cursor leg — counted as a pool error and by kind; a deadline or spent
/// fuel also counts as a preemption.
fn engine_error(state: &ServerState, e: &SessionError) -> Response {
    state.pool.record_error();
    let (kind, counter) = match e {
        SessionError::Engine(EngineError::DeadlineExceeded { .. }) => {
            state.metrics.query_preempted.add("deadline", 1);
            (ErrorKind::Deadline, &state.metrics.deadline_errors)
        }
        SessionError::Engine(EngineError::FuelExhausted { .. }) => {
            state.metrics.query_preempted.add("fuel", 1);
            (ErrorKind::Fuel, &state.metrics.fuel_errors)
        }
        _ => (ErrorKind::Engine, &state.metrics.engine_errors),
    };
    counter.inc();
    Response::Error { kind, message: e.to_string() }
}

/// What a query-shaped request (`query`, `query-open`) settles before it
/// asks for a pool slot.
struct Admitted<'a> {
    /// The tenant's admission, released when the request is done with it.
    _tenant: TenantGuard<'a>,
    /// The request's deadline, or the server's default.
    deadline: Option<Duration>,
    entry: Arc<CacheEntry>,
    compiled: Arc<CompiledProgram>,
    /// What the (cached) program + query compilation took.
    compile_us: u64,
    /// The engine options of the request, with `deadline` as the time
    /// budget and fuel as sent or defaulted.  Both are *per-leg* budgets:
    /// the engine re-arms them at every leg, so each `query-next` gets
    /// the full allotment and a preempted leg picks up where it stopped.
    options: QueryOptions,
}

/// The admission prologue of `query` and `query-open`: worker-count check,
/// tenant quota, deadline, cached compilation, engine options.
fn admit<'a>(state: &'a ServerState, req: &QueryRequest) -> Result<Admitted<'a>, Response> {
    if req.workers == 0 || req.workers > state.config.max_workers {
        state.metrics.protocol_errors.inc();
        return Err(Response::Error {
            kind: ErrorKind::Protocol,
            message: format!("workers must be 1..={}", state.config.max_workers),
        });
    }
    // Tenant quota first: a tenant at its cap must not consume compile
    // time or a pool slot.
    let _tenant =
        state.tenants.admit(req.tenant.as_deref()).map_err(|active| quota_rejected(state, req, active))?;
    let deadline = req.deadline_ms.map(Duration::from_millis).or(state.config.default_deadline);
    let compile_started = Instant::now();
    let entry = state.cache.entry(&req.program).map_err(|e| compile_error(state, e))?;
    let compiled = entry.prepared(&req.query, req.parallel).map_err(|e| compile_error(state, e))?;
    let compile_us = compile_started.elapsed().as_micros() as u64;
    let options = QueryOptions {
        parallel: req.parallel,
        workers: req.workers,
        memory: state.config.memory,
        scheduler: req.scheduler,
        determinism: req.determinism,
        stall_timeout: state.config.stall_timeout,
        time_budget: deadline,
        fuel: req.fuel.or(state.config.default_fuel),
        ..QueryOptions::default()
    };
    Ok(Admitted { _tenant, deadline, entry, compiled, compile_us, options })
}

/// Reject a request whose tenant is already at its admission quota.
fn quota_rejected(state: &ServerState, req: &QueryRequest, active: u64) -> Response {
    state.metrics.quota_rejections.inc();
    let tenant = req.tenant.as_deref().unwrap_or("");
    state.flight.record("quota", &format!("tenant={tenant} active={active}"));
    Response::Error {
        kind: ErrorKind::Quota,
        message: format!(
            "tenant {tenant:?} is at its admission quota ({active} of {} in flight)",
            state.config.tenant_max_active
        ),
    }
}

fn compile_error(state: &ServerState, e: SessionError) -> Response {
    state.metrics.compile_errors.inc();
    Response::Error { kind: ErrorKind::Compile, message: e.to_string() }
}

/// Map a failed pool acquisition to its wire error.
fn acquire_error(e: AcquireError) -> Response {
    match e {
        AcquireError::Rejected => Response::Error {
            kind: ErrorKind::Rejected,
            message: "server is at capacity (wait queue full)".to_string(),
        },
        AcquireError::Timeout => Response::Error {
            kind: ErrorKind::QueueTimeout,
            message: "no engine slot freed up within the wait budget".to_string(),
        },
    }
}

/// Open a cursor: compile, borrow a pool slot just long enough to take its
/// recycled arenas, build the cursor's engine around them, and park it.
/// Nothing executes — the first `query-next` starts the query — so the
/// slot goes straight back to the pool and open never blocks behind
/// engine work beyond the acquire itself.
pub(crate) fn handle_query_open(state: &ServerState, req: QueryRequest) -> Response {
    sweep_idle_cursors(state);
    // The quota covers the open itself; a *parked* cursor holds no tenant
    // slot (parked means not executing), just as it holds no pool slot.
    // The request deadline becomes the *per-leg* time budget: every leg
    // re-arms the engine clock, so each `query-next` gets the full budget
    // rather than the whole stream sharing one.
    let Admitted { _tenant, deadline, entry, compiled, options, .. } = match admit(state, &req) {
        Ok(admitted) => admitted,
        Err(response) => return response,
    };

    // Borrow a slot only to inherit its warm arenas; the engine parks
    // outside the pool and the slot returns (empty) immediately.
    let recycled = match state.pool.acquire(deadline) {
        Ok(mut slot) => slot.take_memory(),
        Err(e) => return acquire_error(e),
    };
    let cursor = {
        let session = entry.session.read().unwrap();
        match session.open_cursor(&compiled, &options, recycled) {
            Ok(c) => c,
            Err(e) => {
                state.metrics.engine_errors.inc();
                return Response::Error { kind: ErrorKind::Engine, message: e.to_string() };
            }
        }
    };
    let warm = cursor.warm();
    state.pool.record_run(warm);
    let parked =
        ParkedQuery { cursor, entry, warm, instructions_seen: 0, micros_seen: 0, last_used: Instant::now() };
    match state.cursors.park(parked) {
        Some(id) => {
            state.flight.record("open", &format!("cursor={id} warm={warm}"));
            Response::CursorOpened { cursor: id }
        }
        None => Response::Error {
            kind: ErrorKind::Rejected,
            message: format!("cursor table is full ({} parked)", state.config.max_cursors),
        },
    }
}

/// Step a parked cursor to its next answer.  The cursor is re-admitted
/// through the pool (it competes for a slot like any run — that is the
/// admission-control story), but keeps its own arenas: the slot's memory
/// is left untouched for the plain-query warm path.
pub(crate) fn handle_query_next(state: &ServerState, id: u64) -> Response {
    sweep_idle_cursors(state);
    let Some(mut parked) = state.cursors.take(id) else {
        return unknown_cursor(id);
    };
    let slot = match state.pool.acquire(None) {
        Ok(s) => s,
        Err(e) => {
            // Couldn't get a slot: the cursor is untouched, put it back.
            state.cursors.repark(id, parked);
            return acquire_error(e);
        }
    };
    let started = Instant::now();
    match parked.cursor.next_step() {
        Ok(CursorStep::Answer(bindings)) => {
            let rendered = {
                let session = parked.entry.session.read().unwrap();
                bindings.iter().map(|(n, t)| (n.clone(), session.render(t))).collect()
            };
            let answer = cursor_answer(state, &mut parked, started, true, rendered);
            state.flight.record("resume", &format!("cursor={id} status=answer us={}", answer.elapsed_us));
            state.cursors.repark(id, parked);
            Response::Answer(answer)
        }
        Ok(CursorStep::Exhausted) => {
            // Exhausted: auto-close, recycling the cursor's arenas into
            // the slot we hold so the next plain query runs warm.
            let answer = cursor_answer(state, &mut parked, started, false, Vec::new());
            state.flight.record("resume", &format!("cursor={id} status=exhausted us={}", answer.elapsed_us));
            retire_cursor(state, parked, Some(slot));
            Response::Answer(answer)
        }
        Ok(CursorStep::FuelExhausted) => {
            // A fuel preemption is a *scheduling* event, not a failure:
            // the engine parked at a deterministic instruction boundary,
            // the cursor survives, and the next `query-next` resumes it
            // with a fresh budget.  The leg's wall-clock and instruction
            // delta are still charged so the throughput counters see the
            // partial work.
            let (_, elapsed_us, delta) = charge_leg(state, &mut parked, started);
            state.metrics.fuel_preemptions.inc();
            state.metrics.query_preempted.add("fuel", 1);
            state.flight.record("resume", &format!("cursor={id} status=fuel us={elapsed_us}"));
            state.cursors.repark(id, parked);
            Response::Error {
                kind: ErrorKind::Fuel,
                message: format!(
                    "cursor {id} preempted: instruction fuel exhausted after {delta} \
                     instructions this leg (the cursor is still open; query-next resumes it)"
                ),
            }
        }
        Err(e) => {
            // The engine is dead; so is the cursor (its memory with it).
            state.cursors.note_closed();
            state.flight.record("resume", &format!("cursor={id} status=error"));
            engine_error(state, &e)
        }
    }
}

/// Discard a parked cursor.
pub(crate) fn handle_query_close(state: &ServerState, id: u64) -> Response {
    sweep_idle_cursors(state);
    match state.cursors.take(id) {
        Some(parked) => {
            retire_cursor(state, parked, None);
            state.flight.record("close", &format!("cursor={id}"));
            Response::CursorClosed
        }
        None => unknown_cursor(id),
    }
}

/// Run the lazy idle-eviction sweep, logging each reclaimed cursor to the
/// flight recorder.
pub(crate) fn sweep_idle_cursors(state: &ServerState) {
    for id in state.cursors.evict_idle() {
        state.flight.record("evict", &format!("cursor={id}"));
    }
}

fn unknown_cursor(id: u64) -> Response {
    Response::Error {
        kind: ErrorKind::Cursor,
        message: format!("unknown cursor {id} (never opened, already closed, or evicted)"),
    }
}

/// Build the `answer` frame for one cursor leg and charge its instruction
/// and wall-clock deltas to the server's throughput counters.
fn cursor_answer(
    state: &ServerState,
    parked: &mut ParkedQuery,
    started: Instant,
    success: bool,
    bindings: Vec<(String, String)>,
) -> AnswerResponse {
    let (stats, elapsed_us, _) = charge_leg(state, parked, started);
    AnswerResponse {
        success,
        bindings,
        warm: parked.warm,
        elapsed_us,
        // Cumulative over the cursor's lifetime, like the one-shot path's
        // whole-run numbers.
        instructions: stats.instructions,
        inferences: stats.inferences,
        parcalls: stats.parcalls,
    }
}

/// Charge a cursor leg begun at `started` to the throughput counters;
/// returns the cursor's stats, the leg's micros and its instruction delta.
fn charge_leg(state: &ServerState, parked: &mut ParkedQuery, started: Instant) -> (RunStats, u64, u64) {
    let stats = parked.cursor.stats().unwrap_or_default();
    let elapsed_us = started.elapsed().as_micros() as u64;
    let delta = stats.instructions.saturating_sub(parked.instructions_seen);
    parked.instructions_seen = stats.instructions;
    parked.micros_seen += elapsed_us;
    state.metrics.instructions.add(delta);
    state.metrics.engine_micros.add(elapsed_us);
    state.metrics.resume_us.observe(elapsed_us);
    (stats, elapsed_us, delta)
}

/// Close a finished (or explicitly closed) cursor, recovering its arenas
/// into `slot` when one is held so the pool's warm path inherits them.
fn retire_cursor(state: &ServerState, parked: ParkedQuery, slot: Option<SlotGuard<'_>>) {
    let ParkedQuery { cursor, .. } = parked;
    // Fold the cursor's lifetime scheduler telemetry and predicate profile
    // into the registry exactly once, at retirement (per-leg folding would
    // double-count the cumulative worker counters).
    if let Some(stats) = cursor.stats() {
        state.metrics.record_run(&stats);
    }
    let memory = cursor.close();
    if let (Some(mut slot), Some(memory)) = (slot, memory) {
        slot.put_memory(memory);
    }
    state.cursors.note_closed();
}
