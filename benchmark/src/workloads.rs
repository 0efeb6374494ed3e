//! The five workloads: what one op is, how it is set up, and the timed
//! closed- and open-loop windows that measure it.
//!
//! The load generator is this one process; it never uses more than
//! `nproc` threads or connections.  Every op's answer is compared with the
//! committed golden answers (`inputs::golden`), never with a second run of
//! the engine under test.

use crate::inputs::{bench, poisson_schedule, stream_rng, Bench, Mix, Nonces, OpOrder};
use pwam_benchmarks::{BenchmarkId, Scale};
use pwam_cachesim::sweep::run_sweep_with_threads;
use pwam_cachesim::{CacheConfig, Protocol, SimConfig, SimResult};
use pwam_compiler::CompiledProgram;
use pwam_front::pretty::term_to_string;
use pwam_front::SymbolTable;
use pwam_obs::{parse_histogram, parse_sample};
use pwam_server::{Client, PoolConfig, QueryRequest, Request, Response, Server, ServerConfig};
use rapwam::session::{QueryOptions, Session};
use rapwam::{Memory, MemoryConfig, Outcome, RunResult};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeWarm,
    ServeCold,
    SeqLarge,
    ParLarge,
    TraceSim,
}

/// Open-loop arrival rates of `serve-warm`, requests per second: about a
/// quarter, a half and three quarters of the seed host's saturation rate.
pub const OPEN_RATES: [u32; 3] = [100, 200, 300];

/// Latency limit on the 90th percentile that an open-loop rate must meet
/// to count towards `client.max_ok_rps`.
pub const LATENCY_LIMIT_US: u64 = 25_000;

/// PEs of the `trace-sim` run: the paper's machine.
pub const TRACE_SIM_PES: usize = 4;

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServeWarm,
        Workload::ServeCold,
        Workload::SeqLarge,
        Workload::ParLarge,
        Workload::TraceSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCold => "serve-cold",
            Workload::SeqLarge => "seq-large",
            Workload::ParLarge => "par-large",
            Workload::TraceSim => "trace-sim",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one-line reason recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeWarm => {
                "served steady state: cache hit, warm arenas; dispatch, serial memory path and rendering do the work"
            }
            Workload::ServeCold => {
                "never-seen program per request: parse, compile, dense decode, cache insert and cold engine build dominate"
            }
            Workload::SeqLarge => {
                "library path, 1 PE, default quantum, large inputs: the executor alone; control for par-large"
            }
            Workload::ParLarge => {
                "same ops on Threaded x Relaxed with nproc PEs: locked memory path, steals, parks"
            }
            Workload::TraceSim => {
                "the paper's pipeline as one op: parse, traced 4-PE run, 8-configuration cache sweep"
            }
        }
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::ServeWarm | Workload::TraceSim => Scale::Paper,
            Workload::ServeCold => Scale::Small,
            Workload::SeqLarge | Workload::ParLarge => Scale::Large,
        }
    }

    /// Programs and their weights in the op order.  Where a workload has
    /// an even number of programs one of them is doubled, so that the
    /// median op falls inside one program's latency mode and not on the
    /// boundary between two (see [`Mix`]).
    pub fn mix(self) -> Mix {
        use BenchmarkId::*;
        match self {
            Workload::ServeWarm | Workload::ServeCold => {
                &[(Deriv, 1), (Tak, 1), (Qsort, 1), (Matrix, 1), (Boyer, 1), (Queens, 1), (Fib, 1)]
            }
            Workload::SeqLarge | Workload::ParLarge => &[(Tak, 1), (Fib, 1), (Boyer, 2), (Queens, 1)],
            Workload::TraceSim => &[(Deriv, 1), (Tak, 2), (Qsort, 1), (Matrix, 1)],
        }
    }

    pub fn benches(self) -> Vec<Bench> {
        self.mix().iter().map(|(id, _)| bench(*id, self.scale())).collect()
    }

    pub fn is_served(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServeCold)
    }

    /// Options the workload's ops run with.  `serve-cold` alternates 1 and
    /// 2 workers; this is its 1-worker leg.
    pub fn options(self, nproc: usize) -> QueryOptions {
        let base = match self {
            Workload::ServeWarm | Workload::ServeCold | Workload::SeqLarge => QueryOptions::parallel(1),
            Workload::ParLarge => QueryOptions::relaxed(nproc),
            Workload::TraceSim => QueryOptions::parallel(TRACE_SIM_PES).with_trace(),
        };
        base.with_memory(self.memory())
    }

    /// Stack Set sizes the workload's engines are built with.
    pub fn memory(self) -> MemoryConfig {
        if self.is_served() {
            ServerConfig::default().memory
        } else {
            MemoryConfig::default()
        }
    }
}

/// The `trace-sim` sweep: 4 protocols × {512, 2048}-word caches under the
/// paper's allocation policy.
pub fn sweep_configs() -> Vec<SimConfig> {
    let mut configs = Vec::new();
    for protocol in Protocol::ALL {
        for size_words in [512, 2048] {
            configs.push(SimConfig {
                cache: CacheConfig::paper_policy(size_words, protocol),
                protocol,
                num_pes: TRACE_SIM_PES,
            });
        }
    }
    configs
}

/// The server, sized to its callers: as many pool slots and engine worker
/// threads as there are connections (`nproc` on `serve-warm`, 1 on
/// `serve-cold`).  More worker threads than callers would only decide by
/// chance which thread's allocator serves a request, which moves
/// `peak_rss_mb` by a quarter from run to run.
pub fn server_config(connections: usize) -> ServerConfig {
    ServerConfig {
        pool: PoolConfig { size: connections, ..PoolConfig::default() },
        event_workers: connections,
        ..ServerConfig::default()
    }
}

/// One completed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the workload's mix.
    pub program: usize,
    pub latency_us: u64,
    /// Answered, and the answer equals the golden one.
    pub ok: bool,
}

/// One request of an open-loop leg.
struct Sent {
    /// When it was due, from the leg's start.
    due: Duration,
    late_us: u64,
    sample: Sample,
}

/// One open-loop leg at a fixed arrival rate.
#[derive(Debug, Clone)]
pub struct OpenLeg {
    pub rate: u32,
    /// Latency is charged from the due time, so a stall's cost to the
    /// requests queued behind it is counted.
    pub samples: Vec<Sample>,
    /// How late each request was sent (µs), in due-time order.
    pub lateness_us: Vec<u64>,
}

impl OpenLeg {
    pub fn latencies(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.latency_us).collect()
    }

    /// The generator's backlog did not grow: requests of the leg's last
    /// quarter were sent no later (within 5 ms) than those of its first.
    pub fn backlog_steady(&self) -> bool {
        let quarter = (self.lateness_us.len() / 4).max(1);
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
        let first = mean(&self.lateness_us[..quarter.min(self.lateness_us.len())]);
        let last = mean(&self.lateness_us[self.lateness_us.len().saturating_sub(quarter)..]);
        last <= first + 5_000.0
    }
}

/// Counter and histogram movement of the server across the timed windows,
/// scraped through the public `metrics` verb.
#[derive(Debug, Clone, Default)]
pub struct ServerDelta {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub warm_hits: u64,
    pub cold_builds: u64,
    pub rejections: u64,
    pub queue_timeouts: u64,
    pub protocol_errors: u64,
    /// `(sum µs, count)` of the four `pwam_query_*_us` histograms.
    pub queue_wait: (u64, u64),
    pub compile: (u64, u64),
    pub execute: (u64, u64),
    pub request: (u64, u64),
}

impl ServerDelta {
    fn between(before: &str, after: &str) -> ServerDelta {
        let counter = |name: &str| {
            let read = |text: &str| parse_sample(text, name).unwrap_or_else(|| panic!("metrics lack {name}"));
            read(after) - read(before)
        };
        let histogram = |family: &str| {
            let read =
                |text: &str| parse_histogram(text, family).unwrap_or_else(|| panic!("metrics lack {family}"));
            let window = read(after).since(&read(before));
            (window.sum, window.count)
        };
        ServerDelta {
            cache_hits: counter("pwam_cache_program_hits_total"),
            cache_misses: counter("pwam_cache_program_misses_total"),
            warm_hits: counter("pwam_pool_warm_hits_total"),
            cold_builds: counter("pwam_pool_cold_builds_total"),
            rejections: counter("pwam_pool_rejections_total"),
            queue_timeouts: counter("pwam_pool_queue_timeouts_total"),
            protocol_errors: counter("pwam_protocol_errors_total"),
            queue_wait: histogram("pwam_query_queue_wait_us"),
            compile: histogram("pwam_query_compile_us"),
            execute: histogram("pwam_query_execute_us"),
            request: histogram("pwam_query_request_us"),
        }
    }

    pub fn cache_hit_ratio(&self) -> f64 {
        crate::stats::ratio(self.cache_hits as f64, (self.cache_hits + self.cache_misses) as f64)
    }

    pub fn pool_warm_ratio(&self) -> f64 {
        crate::stats::ratio(self.warm_hits as f64, (self.warm_hits + self.cold_builds) as f64)
    }
}

/// Everything the timed windows of one run produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub closed: Vec<Sample>,
    pub closed_secs: f64,
    /// `serve-warm`'s traced run only: one leg per entry of [`OPEN_RATES`].
    pub open: Vec<OpenLeg>,
    /// Served workloads only.
    pub server: Option<ServerDelta>,
}

impl Measured {
    fn all_samples(&self) -> impl Iterator<Item = &Sample> {
        self.closed.iter().chain(self.open.iter().flat_map(|leg| leg.samples.iter()))
    }

    /// Ops attempted in every window.
    pub fn attempted(&self) -> u64 {
        self.all_samples().count() as u64
    }

    /// Ops that errored, were refused or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.all_samples().filter(|s| !s.ok).count() as u64
    }

    /// Latencies (µs) of the closed loop's correct ops, which `op_p50_us`
    /// and `op_p90_us` are taken from.
    pub fn latencies(&self) -> Vec<u64> {
        self.closed.iter().filter(|s| s.ok).map(|s| s.latency_us).collect()
    }

    /// The workloads separate the layers as designed: the program cache
    /// and the warm pool serve `serve-warm` and never serve `serve-cold`.
    pub fn layers_separate(&self, workload: Workload) -> bool {
        let Some(server) = &self.server else { return true };
        let (hit, warm) = (server.cache_hit_ratio(), server.pool_warm_ratio());
        match workload {
            Workload::ServeWarm => hit >= 0.99 && warm >= 0.99,
            Workload::ServeCold => hit == 0.0 && warm == 0.0,
            _ => true,
        }
    }
}

/// A run's bindings rendered as text, with the symbol table the program was
/// compiled against; empty when the query failed.
pub fn rendered_bindings(result: &RunResult, syms: &SymbolTable) -> Vec<(String, String)> {
    match &result.outcome {
        Outcome::Success(bindings) => {
            bindings.iter().map(|(n, t)| (n.clone(), term_to_string(t, syms))).collect()
        }
        Outcome::Failure => Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Served workloads
// ---------------------------------------------------------------------

struct Conn {
    client: Client,
    nonces: Nonces,
    sent: u64,
}

pub struct ServeCtx {
    server: Server,
    conns: Vec<Conn>,
    benches: Vec<Bench>,
    /// `serve-warm`: the request of each program, built once.
    requests: Vec<Request>,
    cold: bool,
    mix: Mix,
}

fn warm_request(b: &Bench) -> Request {
    Request::Query(Box::new(QueryRequest {
        program: b.program.clone(),
        query: b.query.clone(),
        ..QueryRequest::default()
    }))
}

/// Send one op on `conn` and check its answer.  The request is built
/// before `clock` starts; `clock` is the send time in a closed loop and the
/// due time in an open loop.
fn serve_op(
    conn: &mut Conn,
    b: &Bench,
    warm: Option<&Request>,
    clock: impl FnOnce() -> Instant,
) -> (u64, bool) {
    let cold_request;
    let request = match warm {
        Some(request) => request,
        None => {
            // A never-seen program, and a worker count the slot's recycled
            // arenas do not fit.
            cold_request = Request::Query(Box::new(QueryRequest {
                program: conn.nonces.program(&b.program),
                query: b.query.clone(),
                workers: 1 + (conn.sent % 2) as usize,
                ..QueryRequest::default()
            }));
            &cold_request
        }
    };
    conn.sent += 1;
    let started = clock();
    let response = conn.client.request(request);
    let latency_us = started.elapsed().as_micros() as u64;
    let ok = matches!(response, Ok(Response::Answer(a)) if a.success && a.bindings == b.expected);
    (latency_us, ok)
}

impl ServeCtx {
    fn setup(workload: Workload, seed: u64, nproc: usize) -> ServeCtx {
        let cold = workload == Workload::ServeCold;
        let connections = if cold { 1 } else { nproc };
        let server = Server::start(server_config(connections)).expect("server starts on a loopback port");
        let conns = (0..connections)
            .map(|i| Conn {
                client: Client::connect(server.addr()).expect("client connects"),
                nonces: Nonces::new(seed.wrapping_add(i as u64)),
                sent: 0,
            })
            .collect();
        let benches = workload.benches();
        let requests = benches.iter().map(warm_request).collect();
        let mut ctx = ServeCtx { server, conns, benches, requests, cold, mix: workload.mix() };
        ctx.warm_up();
        ctx
    }

    /// Every connection runs every program three times, all connections at
    /// once, so the cache holds every program and every pool slot has run
    /// (and keeps arenas of the workload's shape) before the clock starts.
    fn warm_up(&mut self) {
        let ServeCtx { conns, benches, requests, cold, .. } = self;
        let barrier = Barrier::new(conns.len());
        std::thread::scope(|scope| {
            for conn in conns.iter_mut() {
                let (barrier, benches, requests, cold) = (&barrier, &*benches, &*requests, *cold);
                scope.spawn(move || {
                    barrier.wait();
                    for _ in 0..3 {
                        for (p, b) in benches.iter().enumerate() {
                            let (_, ok) = serve_op(conn, b, (!cold).then(|| &requests[p]), Instant::now);
                            assert!(ok, "warm-up op on {} failed", b.id.name());
                        }
                    }
                });
            }
        });
    }

    /// Closed loop: every connection sends its next request when the
    /// previous reply has arrived, until `window` is over.
    fn closed_loop(&mut self, seed: u64, window: Duration) -> (Vec<Sample>, f64) {
        let ServeCtx { conns, benches, requests, cold, mix, .. } = self;
        let barrier = Barrier::new(conns.len());
        let started = Instant::now();
        let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let (barrier, benches, requests, cold, mix) =
                        (&barrier, &*benches, &*requests, *cold, *mix);
                    scope.spawn(move || {
                        let mut samples = Vec::new();
                        let mut order = OpOrder::new(seed, i as u64, mix);
                        barrier.wait();
                        let deadline = Instant::now() + window;
                        while Instant::now() < deadline {
                            let p = order.next().expect("op order is endless");
                            let warm = (!cold).then(|| &requests[p]);
                            let (latency_us, ok) = serve_op(conn, &benches[p], warm, Instant::now);
                            samples.push(Sample { program: p, latency_us, ok });
                        }
                        samples
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("closed-loop connection thread")).collect()
        });
        (per_conn.into_iter().flatten().collect(), started.elapsed().as_secs_f64())
    }

    /// Open loop at `rate` requests per second for `window`: each
    /// connection follows its own Poisson schedule at `rate / connections`
    /// (their superposition is a Poisson process at `rate`), fixed before
    /// the first send.
    fn open_loop(&mut self, seed: u64, rate: u32, window: Duration) -> OpenLeg {
        let ServeCtx { conns, benches, requests, mix, .. } = self;
        let barrier = Barrier::new(conns.len());
        let per_conn_rate = rate as f64 / conns.len() as f64;
        let mut sent: Vec<Sent> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(i, conn)| {
                    let (barrier, benches, requests, mix) = (&barrier, &*benches, &*requests, *mix);
                    scope.spawn(move || {
                        // One stream per (rate, connection), apart from the
                        // closed loop's streams 0..connections.
                        let stream = (rate as u64) << 8 | i as u64;
                        let schedule = poisson_schedule(&mut stream_rng(seed, stream), per_conn_rate, window);
                        let mut order = OpOrder::new(seed, stream, mix);
                        let mut sent = Vec::with_capacity(schedule.len());
                        barrier.wait();
                        let started = Instant::now();
                        for offset in schedule {
                            let due = started + offset;
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let late_us = due.elapsed().as_micros() as u64;
                            let p = order.next().expect("op order is endless");
                            let (latency_us, ok) = serve_op(conn, &benches[p], Some(&requests[p]), || due);
                            sent.push(Sent {
                                due: offset,
                                late_us,
                                sample: Sample { program: p, latency_us, ok },
                            });
                        }
                        sent
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("open-loop connection thread")).collect()
        });
        sent.sort_unstable_by_key(|s| s.due);
        OpenLeg {
            rate,
            samples: sent.iter().map(|s| s.sample).collect(),
            lateness_us: sent.iter().map(|s| s.late_us).collect(),
        }
    }

    fn scrape(&mut self) -> String {
        self.conns[0].client.metrics().expect("metrics verb answers")
    }

    /// Closed loop for `seconds`; then, when asked for (`serve-warm` only:
    /// the legs send the prebuilt warm requests), one open-loop leg of
    /// `leg_seconds` per rate of [`OPEN_RATES`].
    fn measure(&mut self, seed: u64, seconds: f64, leg_seconds: Option<f64>) -> Measured {
        let before = self.scrape();
        let (closed, closed_secs) = self.closed_loop(seed, Duration::from_secs_f64(seconds));
        let mut open = Vec::new();
        if let Some(leg_seconds) = leg_seconds {
            for rate in OPEN_RATES {
                open.push(self.open_loop(seed, rate, Duration::from_secs_f64(leg_seconds)));
            }
        }
        let after = self.scrape();
        Measured { closed, closed_secs, open, server: Some(ServerDelta::between(&before, &after)) }
    }
}

// ---------------------------------------------------------------------
// Library workloads
// ---------------------------------------------------------------------

/// Closed loop with one caller: the next op starts when the previous one
/// has returned, until `seconds` are over.
fn single_caller_closed_loop(
    seed: u64,
    mix: Mix,
    seconds: f64,
    mut op: impl FnMut(usize) -> (u64, bool),
) -> Measured {
    let mut closed = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    for p in OpOrder::new(seed, 0, mix) {
        if Instant::now() >= deadline {
            break;
        }
        let (latency_us, ok) = op(p);
        closed.push(Sample { program: p, latency_us, ok });
    }
    Measured { closed, closed_secs: started.elapsed().as_secs_f64(), ..Measured::default() }
}

pub struct LibProgram {
    pub bench: Bench,
    pub session: Session,
    pub compiled: Arc<CompiledProgram>,
}

impl LibProgram {
    pub fn new(bench: Bench, options: &QueryOptions) -> LibProgram {
        let mut session = Session::new(&bench.program).expect("registry program parses");
        let compiled =
            session.prepare_with(&bench.query, options.compile_options()).expect("registry program compiles");
        LibProgram { bench, session, compiled }
    }
}

pub struct LibCtx {
    programs: Vec<LibProgram>,
    options: QueryOptions,
    /// The one set of arenas every op recycles, like a pool slot's.
    memory: Option<Memory>,
    mix: Mix,
}

impl LibCtx {
    fn setup(workload: Workload, nproc: usize) -> LibCtx {
        let options = workload.options(nproc);
        let programs = workload.benches().into_iter().map(|b| LibProgram::new(b, &options)).collect();
        let mut ctx = LibCtx { programs, options, memory: None, mix: workload.mix() };
        for p in 0..ctx.programs.len() {
            assert!(ctx.op(p).1, "warm-up op on {} failed", ctx.programs[p].bench.id.name());
        }
        ctx
    }

    fn op(&mut self, p: usize) -> (u64, bool) {
        let program = &self.programs[p];
        let started = Instant::now();
        let ok = match program.session.run_prepared_reusing(
            &program.compiled,
            &self.options,
            self.memory.take(),
        ) {
            Ok((result, memory, _warm)) => {
                self.memory = Some(memory);
                rendered_bindings(&result, program.session.symbols()) == program.bench.expected
            }
            Err(_) => false,
        };
        (started.elapsed().as_micros() as u64, ok)
    }

    fn measure(&mut self, seed: u64, seconds: f64) -> Measured {
        single_caller_closed_loop(seed, self.mix, seconds, |p| self.op(p))
    }
}

pub struct TraceSimCtx {
    benches: Vec<Bench>,
    configs: Vec<SimConfig>,
    nproc: usize,
    /// Each program's first sweep result: the simulated numbers must repeat
    /// exactly on every later op.
    first_sweep: Vec<Option<Vec<SimResult>>>,
    mix: Mix,
}

impl TraceSimCtx {
    fn setup(workload: Workload, nproc: usize) -> TraceSimCtx {
        let benches = workload.benches();
        let first_sweep = vec![None; benches.len()];
        let mut ctx =
            TraceSimCtx { benches, configs: sweep_configs(), nproc, first_sweep, mix: workload.mix() };
        for p in 0..ctx.benches.len() {
            assert!(ctx.op(p).1, "warm-up op on {} failed", ctx.benches[p].id.name());
        }
        ctx
    }

    /// Source text in, traffic ratios out: parse, compile, traced 4-PE
    /// run, cache sweep.
    fn op(&mut self, p: usize) -> (u64, bool) {
        let b = &self.benches[p];
        let started = Instant::now();
        let swept = Session::new(&b.program).ok().and_then(|mut session| {
            let options = Workload::TraceSim.options(self.nproc);
            let mut result = session.run(&b.query, &options).ok()?;
            let trace = result.trace.take()?;
            let answer_ok = rendered_bindings(&result, session.symbols()) == b.expected;
            answer_ok.then(|| run_sweep_with_threads(&trace, &self.configs, self.nproc))
        });
        let latency_us = started.elapsed().as_micros() as u64;
        let ok = match (swept, &self.first_sweep[p]) {
            (None, _) => false,
            (Some(results), Some(first)) => &results == first,
            (Some(results), None) => {
                self.first_sweep[p] = Some(results);
                true
            }
        };
        (latency_us, ok)
    }

    fn measure(&mut self, seed: u64, seconds: f64) -> Measured {
        single_caller_closed_loop(seed, self.mix, seconds, |p| self.op(p))
    }
}

// ---------------------------------------------------------------------
// One entry point per phase
// ---------------------------------------------------------------------

/// A workload that is set up and warm: inputs generated, server up,
/// connections open, first runs done.
pub enum Ctx {
    Serve(ServeCtx),
    Lib(LibCtx),
    TraceSim(TraceSimCtx),
}

impl Ctx {
    pub fn setup(workload: Workload, seed: u64, nproc: usize) -> Ctx {
        match workload {
            Workload::ServeWarm | Workload::ServeCold => Ctx::Serve(ServeCtx::setup(workload, seed, nproc)),
            Workload::SeqLarge | Workload::ParLarge => Ctx::Lib(LibCtx::setup(workload, nproc)),
            Workload::TraceSim => Ctx::TraceSim(TraceSimCtx::setup(workload, nproc)),
        }
    }

    /// Run the closed loop for `seconds` — every end-to-end metric comes
    /// from it — and then, for the traced run's `client.open.*` rows, the
    /// open-loop legs of `serve-warm` for `open_leg_seconds` each.
    pub fn measure(&mut self, seed: u64, seconds: f64, open_leg_seconds: Option<f64>) -> Measured {
        match self {
            Ctx::Serve(ctx) => ctx.measure(seed, seconds, open_leg_seconds),
            Ctx::Lib(ctx) => ctx.measure(seed, seconds),
            Ctx::TraceSim(ctx) => ctx.measure(seed, seconds),
        }
    }

    /// Close connections and stop the server, waiting for its threads.
    pub fn teardown(self) {
        if let Ctx::Serve(ServeCtx { server, conns, .. }) = self {
            drop(conns);
            server.shutdown();
        }
    }
}
