//! The traced run: per-layer metrics, measured from outside.
//!
//! A traced run does four things in one process, none of which feeds an
//! end-to-end metric (those always come from a separate untraced run):
//!
//! 1. an untraced window of the workload (35 % of `--seconds`; on
//!    `serve-warm` 15 % and then one open-loop leg of 10 % per arrival
//!    rate) — the latency the ladder is compared with, the `client.*` rows
//!    and the server's own histograms;
//! 2. the **replay**: up to [`REPLAY_OPS`] ops of the workload's seeded
//!    order, executed one public call at a time with a span around each
//!    call (the rungs), all rungs on every op whether or not the workload's
//!    real op takes them;
//! 3. the **variants**: every program of the workload run under the engine
//!    configurations whose ratios are layer metrics (quantum 1 against
//!    4096, serial against locked memory, 1 against 2 relaxed PEs, trace
//!    off against on);
//! 4. small **probes** of what neither covers (engine build per PE count,
//!    cache simulator, metrics plane, connect).
//!
//! Spans live in memory and are written with the per-layer table when the
//! run ends.

use crate::inputs::{Bench, Nonces, OpOrder};
use crate::metrics::{Values, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{median, percentile_of, ratio};
use crate::workloads::{
    rendered_bindings, server_config, sweep_configs, Ctx, LibProgram, Measured, OpenLeg, Workload,
    LATENCY_LIMIT_US, OPEN_RATES, TRACE_SIM_PES,
};
use pwam_cachesim::sweep::run_sweep_with_threads;
use pwam_cachesim::{simulate, SimResult};
use pwam_compiler::{compile_program_and_query, DenseCode, DenseInstr};
use pwam_front::{parse_program, parse_query, SymbolTable};
use pwam_obs::Histogram;
use pwam_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
};
use pwam_server::{
    AnswerResponse, Client, EnginePool, ProgramCache, QueryRequest, Request, Response, Server,
};
use rapwam::session::QueryOptions;
use rapwam::{Engine, EngineConfig, MemRef, Memory, RunStats};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Ops the replay executes at most; it also stops after a quarter of
/// `--seconds`, which is what bounds it on the large-input workloads.
pub const REPLAY_OPS: usize = 200;

/// References of the probe trace fed to the cache simulator.
const SIM_TRACE_REFS: usize = 400_000;

/// Result of a traced run.
pub struct Traced {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Sample count behind each percentile reported.
    pub notes: Vec<(String, u64)>,
}

/// Rungs whose medians add up to the workload's op (`ladder.sum_us`).
fn ladder_rungs(workload: Workload) -> Vec<&'static str> {
    // What a served op pays whatever it carries: the loop's round trip and
    // both messages' codec and framing.
    const WIRE: [&str; 6] = [
        "server.loopback_ping",
        "server.encode_request",
        "server.decode_request",
        "server.encode_response",
        "server.decode_response",
        "server.frame_io",
    ];
    let own: &[&str] = match workload {
        Workload::ServeWarm => &[
            "server.cache_hit",
            "server.pool_acquire",
            "core.engine_reset_warm",
            "core.run",
            "core.render_answer",
        ],
        Workload::ServeCold => &[
            "front.parse_program",
            "front.parse_query",
            "compiler.compile",
            "server.pool_acquire",
            "core.engine_build_cold",
            "core.run",
            "core.render_answer",
        ],
        Workload::SeqLarge | Workload::ParLarge => {
            &["core.engine_reset_warm", "core.run", "core.render_answer"]
        }
        Workload::TraceSim => &[
            "front.parse_program",
            "front.parse_query",
            "compiler.compile",
            "core.engine_build_cold",
            "core.run",
            "core.engine_drop",
            "core.render_answer",
            "cachesim.sweep",
        ],
    };
    let wire: &[&str] = if workload.is_served() { &WIRE } else { &[] };
    [wire, own].concat()
}

/// How the workload's real op comes by its engine.  The replay copies it
/// call for call: where the arenas come from decides the page faults the
/// run takes and where its memory lies.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lifecycle {
    /// Reset the arenas the previous op left behind.
    Recycle,
    /// Hand in arenas of another shape: they are dropped and new ones
    /// built (a pool slot whose last request had another worker count).
    Replace,
    /// Build new arenas and drop them after the run.
    BuildAndDrop,
}

fn lifecycle(workload: Workload) -> Lifecycle {
    match workload {
        Workload::ServeWarm | Workload::SeqLarge | Workload::ParLarge => Lifecycle::Recycle,
        Workload::ServeCold => Lifecycle::Replace,
        Workload::TraceSim => Lifecycle::BuildAndDrop,
    }
}

pub fn run(workload: Workload, seed: u64, seconds: u64, nproc: usize, out: &Path) -> Traced {
    let seconds = seconds as f64;
    let mut values = Values::new(PER_LAYER);
    let mut notes = Vec::new();

    // 1. The untraced window.
    let mut ctx = Ctx::setup(workload, seed, nproc);
    // `serve-warm` splits the window's share between the closed loop and
    // its three open-loop legs; the large-input workloads need all of it to
    // complete enough ops for a median.
    let measured = if workload == Workload::ServeWarm {
        ctx.measure(seed, seconds * 0.15, Some(seconds * 0.1))
    } else {
        ctx.measure(seed, seconds * 0.35, None)
    };
    ctx.teardown();
    let reference_p50 = client_rows(workload, &measured, &mut values, &mut notes);
    server_rows(&measured, &mut values);

    // 2-4. Replay, variants and probes share one recorder and one server.
    let mut rec = Recorder::new();
    let server = Server::start(server_config(1)).expect("probe server starts");
    let mut client = Client::connect(server.addr()).expect("probe client connects");
    // A served op runs on one of the server's worker threads and a library
    // op on the caller's: the replay does the same, because the allocator
    // treats the main thread's heap and a worker thread's differently.
    let replay = if workload.is_served() {
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| replay(workload, seed, seconds * 0.25, nproc, &mut rec, &mut client));
            worker.join().expect("replay thread")
        })
    } else {
        replay(workload, seed, seconds * 0.25, nproc, &mut rec, &mut client)
    };
    replay_rows(workload, &rec, &replay, reference_p50, &mut values);
    let programs: Vec<LibProgram> =
        workload.benches().into_iter().map(|b| LibProgram::new(b, &workload.options(nproc))).collect();
    let deterministic = variant_rows(workload, nproc, seconds * 0.3, &programs, &mut rec, &mut values);
    build_rows(workload, nproc, &programs[0], &mut rec, &mut values);
    let sim_repeats = cachesim_rows(workload, nproc, &programs[0], &mut rec, &mut values);
    obs_and_connect_rows(&server, &mut rec, &mut values);
    drop(client);
    server.shutdown();

    std::fs::create_dir_all(out).expect("--out directory can be created");
    let stem = format!("{}-seed{seed}", workload.name());
    rec.write_json(&out.join(format!("spans-{stem}.json"))).expect("span file is written");
    std::fs::write(out.join(format!("layers-{stem}.json")), values.to_json().to_json_pretty() + "\n")
        .expect("per-layer table is written");
    notes.push(("spans".to_string(), rec.len() as u64));
    notes.push(("replayed_ops".to_string(), replay.ops as u64));

    Traced {
        values,
        attempted: measured.attempted() + replay.ops as u64,
        failed: measured.failed() + replay.failed as u64,
        correct: measured.failed() == 0
            && replay.failed == 0
            && deterministic
            && sim_repeats
            && measured.layers_separate(workload),
        notes,
    }
}

/// A leg counts towards `client.max_ok_rps` when every op succeeded, the
/// 90th percentile met the limit and the backlog did not grow.
fn leg_ok(leg: &OpenLeg) -> bool {
    leg.samples.iter().all(|s| s.ok)
        && percentile_of(&leg.latencies(), 90.0).is_some_and(|p90| p90 <= LATENCY_LIMIT_US)
        && leg.backlog_steady()
}

/// `client.*` rows; returns the window's median op latency (µs).
fn client_rows(
    workload: Workload,
    measured: &Measured,
    values: &mut Values,
    notes: &mut Vec<(String, u64)>,
) -> f64 {
    let latencies = measured.latencies();
    let or_zero = |p: Option<u64>| p.map_or(0.0, |v| v as f64);
    notes.push(("client.samples".to_string(), latencies.len() as u64));
    values.set("client.samples", latencies.len() as f64);
    values.set("client.op_p99_us", or_zero(percentile_of(&latencies, 99.0)));
    values.set("client.failed_share", ratio(measured.failed() as f64, measured.attempted() as f64));
    for rate in OPEN_RATES {
        let leg = measured.open.iter().find(|leg| leg.rate == rate);
        let latencies = leg.map(OpenLeg::latencies).unwrap_or_default();
        if leg.is_some() {
            notes.push((format!("client.open.{rate}.samples"), latencies.len() as u64));
        }
        values.set(&format!("client.open.{rate}.p50_us"), or_zero(percentile_of(&latencies, 50.0)));
        values.set(&format!("client.open.{rate}.p90_us"), or_zero(percentile_of(&latencies, 90.0)));
    }
    let lateness = measured.open.first().map(|leg| leg.lateness_us.clone()).unwrap_or_default();
    values.set("client.lateness_p90_us", or_zero(percentile_of(&lateness, 90.0)));
    let max_ok = measured.open.iter().filter(|leg| leg_ok(leg)).map(|leg| leg.rate).max().unwrap_or(0);
    values.set("client.max_ok_rps", max_ok as f64);
    // One row per registry program: the mix is multi-modal.
    for id in pwam_benchmarks::BenchmarkId::EXTENDED {
        let index = workload.mix().iter().position(|(m, _)| *m == id);
        let latencies: Vec<u64> = measured
            .closed
            .iter()
            .filter(|s| s.ok && Some(s.program) == index)
            .map(|s| s.latency_us)
            .collect();
        values.set(&format!("client.{}.p50_us", id.name()), or_zero(percentile_of(&latencies, 50.0)));
    }
    or_zero(percentile_of(&latencies, 50.0))
}

/// Rows scraped from the server's `metrics` verb around the window (0 on
/// the library workloads, which have no server).
fn server_rows(measured: &Measured, values: &mut Values) {
    let s = measured.server.clone().unwrap_or_default();
    let mean = |(sum, count): (u64, u64)| ratio(sum as f64, count as f64);
    values.set("server.cache_hit_ratio", s.cache_hit_ratio());
    values.set("server.pool_warm_ratio", s.pool_warm_ratio());
    values.set("server.rejections", s.rejections as f64);
    values.set("server.queue_timeouts", s.queue_timeouts as f64);
    values.set("server.protocol_errors", s.protocol_errors as f64);
    values.set("server.queue_wait_us_mean", mean(s.queue_wait));
    values.set("server.compile_us_mean", mean(s.compile));
    values.set("server.execute_us_mean", mean(s.execute));
    values.set("server.request_us_mean", mean(s.request));
    let accounted = mean(s.queue_wait) + mean(s.compile) + mean(s.execute);
    values.set("server.request_unaccounted_share", ratio(mean(s.request) - accounted, mean(s.request)));
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What the replay keeps between ops, and its totals.
struct Replay {
    workload: Workload,
    nproc: usize,
    benches: Vec<Bench>,
    options: QueryOptions,
    lifecycle: Lifecycle,
    cache: ProgramCache,
    pool: EnginePool,
    nonces: Nonces,
    /// What a pool slot (or the library caller) keeps between ops.
    arenas: Option<Memory>,
    frame: Vec<u8>,
    ops: usize,
    failed: usize,
    front_errors: usize,
    source_bytes: usize,
    instructions: u64,
    code_len: Vec<f64>,
}

fn replay(
    workload: Workload,
    seed: u64,
    budget_s: f64,
    nproc: usize,
    rec: &mut Recorder,
    client: &mut Client,
) -> Replay {
    let mut replay = Replay {
        workload,
        nproc,
        benches: workload.benches(),
        options: workload.options(nproc),
        lifecycle: lifecycle(workload),
        cache: ProgramCache::new(server_config(1).max_programs),
        pool: EnginePool::new(server_config(1).pool),
        nonces: Nonces::new(seed),
        arenas: None,
        frame: Vec::new(),
        ops: 0,
        failed: 0,
        front_errors: 0,
        source_bytes: 0,
        instructions: 0,
        code_len: Vec::with_capacity(REPLAY_OPS),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    for (k, p) in OpOrder::new(seed, 0, workload.mix()).take(REPLAY_OPS).enumerate() {
        if k > 0 && Instant::now() >= deadline {
            break;
        }
        let root = rec.open("op", k as u32, None);
        let ok = replay.op(rec, client, root, k, p);
        rec.close(root);
        replay.ops += 1;
        replay.failed += usize::from(ok != Some(true));
    }
    replay
}

impl Replay {
    /// Op `k` of the order, on program `p`, one public call at a time.
    /// `None` when a call failed, `Some(false)` when an answer was wrong.
    fn op(&mut self, rec: &mut Recorder, client: &mut Client, root: u32, k: usize, p: usize) -> Option<bool> {
        let op_id = k as u32;
        let b = &self.benches[p];
        let cold = self.workload == Workload::ServeCold;
        let workers = if cold { 1 + k % 2 } else { self.options.workers };
        let config = QueryOptions { workers, ..self.options.clone() }.engine_config();
        // Never seen by `cache`; on `serve-cold` it is the op's program.
        let fresh_text = self.nonces.program(&b.program);
        let text = if cold { &fresh_text } else { &b.program };
        self.source_bytes += text.len();

        let mut syms = SymbolTable::new();
        let program = rec.call("front.parse_program", op_id, root, || parse_program(text, &mut syms));
        let query = rec.call("front.parse_query", op_id, root, || parse_query(&b.query, &mut syms));
        let compiled = program.ok().zip(query.ok()).and_then(|(program, query)| {
            let compile_options = self.options.compile_options();
            rec.call("compiler.compile", op_id, root, || {
                compile_program_and_query(&program, &query, &mut syms, compile_options).ok()
            })
        });
        let Some(compiled) = compiled else {
            self.front_errors += 1;
            return None;
        };
        self.code_len.push(compiled.code_len() as f64);
        // Already part of `compiler.compile`; timed again on its own.
        black_box(rec.call("compiler.dense_build", op_id, root, || DenseCode::build(&compiled.code)));

        let cache = &self.cache;
        let lookup = |text: &str| cache.entry(text).and_then(|e| e.prepared(&b.query, true)).is_ok();
        let mut ok = rec.call("server.cache_miss", op_id, root, || lookup(&fresh_text));
        ok &= rec.call("server.cache_hit", op_id, root, || lookup(&fresh_text));
        let slot = rec.call("server.pool_acquire", op_id, root, || self.pool.acquire(None));

        // The engine comes about exactly as in the workload's real op.
        let engine = match self.lifecycle {
            Lifecycle::Recycle => {
                let memory = self
                    .arenas
                    .take()
                    .unwrap_or_else(|| Engine::new(&compiled, config.clone()).into_memory());
                let (engine, reused) = rec.call("core.engine_reset_warm", op_id, root, || {
                    Engine::with_recycled_memory(&compiled, config.clone(), memory)
                });
                assert!(reused, "recycled arenas of the same shape are reused");
                engine
            }
            Lifecycle::Replace => {
                let other = QueryOptions { workers: 3 - workers, ..self.options.clone() }.engine_config();
                let memory =
                    self.arenas.take().unwrap_or_else(|| Engine::new(&compiled, other).into_memory());
                let (engine, reused) = rec.call("core.engine_build_cold", op_id, root, || {
                    Engine::with_recycled_memory(&compiled, config.clone(), memory)
                });
                assert!(!reused, "arenas of another shape are replaced");
                engine
            }
            Lifecycle::BuildAndDrop => {
                rec.call("core.engine_build_cold", op_id, root, || Engine::new(&compiled, config.clone()))
            }
        };
        let ran = rec.call("core.run", op_id, root, || engine.run_reusable(&syms));
        drop(slot);
        let (mut result, engine) = ran.ok()?;
        let memory = rec.call("core.into_memory", op_id, root, || engine.into_memory());
        // The build rung the real op does not take, on the same arenas.
        match self.lifecycle {
            Lifecycle::Recycle => {
                self.arenas = Some(memory);
                let cold = rec
                    .call("core.engine_build_cold", op_id, root, || Engine::new(&compiled, config.clone()));
                rec.call("core.engine_drop", op_id, root, || drop(cold));
            }
            Lifecycle::Replace | Lifecycle::BuildAndDrop => {
                let (engine, _) = rec.call("core.engine_reset_warm", op_id, root, || {
                    Engine::with_recycled_memory(&compiled, config.clone(), memory)
                });
                if self.lifecycle == Lifecycle::Replace {
                    self.arenas = Some(engine.into_memory());
                } else {
                    rec.call("core.engine_drop", op_id, root, || drop(engine));
                }
            }
        }
        self.instructions += result.stats.instructions;
        let bindings = rec.call("core.render_answer", op_id, root, || rendered_bindings(&result, &syms));
        ok &= bindings == b.expected;

        let request = Request::Query(Box::new(QueryRequest {
            program: text.clone(),
            query: b.query.clone(),
            workers,
            scheduler: self.options.scheduler,
            determinism: self.options.determinism,
            ..QueryRequest::default()
        }));
        let response = Response::Answer(AnswerResponse {
            success: result.outcome.is_success(),
            bindings,
            warm: self.lifecycle == Lifecycle::Recycle,
            elapsed_us: 0,
            instructions: result.stats.instructions,
            inferences: result.stats.inferences,
            parcalls: result.stats.parcalls,
        });
        let request_text = rec.call("server.encode_request", op_id, root, || encode_request(&request));
        ok &= rec.call("server.decode_request", op_id, root, || decode_request(&request_text)).is_ok();
        let response_text = rec.call("server.encode_response", op_id, root, || encode_response(&response));
        ok &= rec.call("server.decode_response", op_id, root, || decode_response(&response_text)).is_ok();
        // Both frames of the exchange, written to and read from a buffer.
        let frame = &mut self.frame;
        ok &= rec.call("server.frame_io", op_id, root, || {
            [&request_text, &response_text].into_iter().all(|payload| {
                frame.clear();
                write_frame(frame, payload).is_ok()
                    && read_frame(&mut frame.as_slice()).is_ok_and(|f| f.as_ref() == Some(payload))
            })
        });
        ok &= rec.call("server.loopback_ping", op_id, root, || client.ping()).is_ok();
        if self.workload == Workload::TraceSim {
            let trace = result.trace.take().unwrap_or_default();
            let configs = sweep_configs();
            let swept = rec
                .call("cachesim.sweep", op_id, root, || run_sweep_with_threads(&trace, &configs, self.nproc));
            ok &= swept.len() == configs.len();
        }
        Some(ok)
    }
}

fn replay_rows(workload: Workload, rec: &Recorder, replay: &Replay, reference_p50: f64, values: &mut Values) {
    let rung = |name: &str| median(&rec.durations_us(name));
    // Each of these rungs is the metric of the same name plus `_us`.
    for span in [
        "front.parse_program",
        "front.parse_query",
        "compiler.compile",
        "compiler.dense_build",
        "core.run",
        "core.render_answer",
        "server.encode_request",
        "server.decode_request",
        "server.encode_response",
        "server.decode_response",
        "server.frame_io",
        "server.loopback_ping",
        "server.cache_hit",
        "server.cache_miss",
        "server.pool_acquire",
    ] {
        values.set(&format!("{span}_us"), rung(span));
    }
    let parse_us: f64 = rec.durations_us("front.parse_program").iter().sum();
    values.set("front.source_mb_per_s", ratio(replay.source_bytes as f64, parse_us));
    values.set("front.errors", replay.front_errors as f64);
    let run_us: f64 = rec.durations_us("core.run").iter().sum();
    values.set("core.mlips", ratio(replay.instructions as f64, run_us));
    let code_len = ratio(replay.code_len.iter().sum(), replay.code_len.len() as f64);
    values.set("compiler.code_len_instrs", code_len);
    values.set("compiler.dense_bytes", code_len * std::mem::size_of::<DenseInstr>() as f64);

    let sum: f64 = ladder_rungs(workload).iter().map(|name| rung(name)).sum();
    values.set("ladder.sum_us", sum);
    values.set("ladder.residual_share", ratio((reference_p50 - sum).abs(), reference_p50));
    // What recording costs: the part of a replayed op that no rung span
    // covers (the recorder's own work and the glue between calls).
    let self_us: Vec<f64> = rec.ids("op").into_iter().map(|id| rec.self_us(id)).collect();
    values.set("ladder.trace_overhead_share", ratio(median(&self_us), reference_p50));
}

// ---------------------------------------------------------------------
// Variants
// ---------------------------------------------------------------------

/// One timed engine run.
struct Observation {
    us: f64,
    stats: RunStats,
    trace_len: usize,
}

/// Run `program` under `config` on the recycled arenas of its PE count
/// (built on first use), as a pool slot would.
fn observe(
    rec: &mut Recorder,
    span: &'static str,
    op_id: u32,
    program: &LibProgram,
    config: EngineConfig,
    arenas: &mut HashMap<usize, Memory>,
) -> Option<Observation> {
    let workers = config.num_workers;
    let engine = match arenas.remove(&workers) {
        Some(memory) => Engine::with_recycled_memory(&program.compiled, config, memory).0,
        None => Engine::new(&program.compiled, config),
    };
    let root = rec.open(span, op_id, None);
    let started = Instant::now();
    let ran = engine.run_reusable(program.session.symbols());
    let us = started.elapsed().as_secs_f64() * 1e6;
    rec.close(root);
    let (result, engine) = ran.ok()?;
    arenas.insert(workers, engine.into_memory());
    let ok = rendered_bindings(&result, program.session.symbols()) == program.bench.expected;
    ok.then(|| Observation { us, trace_len: result.trace.as_ref().map_or(0, Vec::len), stats: result.stats })
}

const VARIANTS: [&str; 7] = [
    "variant.q1",
    "variant.q4096",
    "variant.locked",
    "variant.relaxed_w1",
    "variant.relaxed_w2",
    "variant.trace_off",
    "variant.trace_on",
];

fn variant_config(variant: &str, workload: Workload, nproc: usize) -> EngineConfig {
    let own = workload.options(nproc);
    let memory = workload.memory();
    let with_quantum = |options: QueryOptions, quantum| EngineConfig {
        quantum,
        ..options.with_memory(memory).engine_config()
    };
    match variant {
        // One interleaved PE at the served quantum and at the MLIPS gate's.
        "variant.q1" => with_quantum(QueryOptions::parallel(1), 1),
        "variant.q4096" => with_quantum(QueryOptions::parallel(1), 4096),
        // The same op through the mutex-per-access memory path.
        "variant.locked" => with_quantum(QueryOptions::relaxed(1), 4096),
        "variant.relaxed_w1" => QueryOptions::relaxed(1).with_memory(memory).engine_config(),
        "variant.relaxed_w2" => QueryOptions::relaxed(2).with_memory(memory).engine_config(),
        // The workload's own configuration, trace off and on.
        "variant.trace_off" => QueryOptions { trace: false, ..own }.engine_config(),
        "variant.trace_on" => QueryOptions { trace: true, ..own }.engine_config(),
        other => unreachable!("unknown variant {other}"),
    }
}

/// Mix-weighted mean per op of `f` over each program's observations of
/// `variant`; the fastest observation stands for the program (the first
/// pass builds the arenas and takes their page faults).
fn per_op(
    workload: Workload,
    observations: &HashMap<(&'static str, usize), Vec<Observation>>,
    variant: &'static str,
    f: impl Fn(&Observation) -> f64,
) -> f64 {
    let mut total = 0.0;
    let mut weights = 0.0;
    for (p, (_, weight)) in workload.mix().iter().enumerate() {
        let Some(runs) = observations.get(&(variant, p)) else { continue };
        let Some(best) = runs.iter().min_by(|a, b| a.us.total_cmp(&b.us)) else { continue };
        total += *weight as f64 * f(best);
        weights += *weight as f64;
    }
    ratio(total, weights)
}

/// Runs the variants; returns whether the deterministic backends repeated
/// exactly (same instructions and references on every run of a program).
fn variant_rows(
    workload: Workload,
    nproc: usize,
    budget_s: f64,
    programs: &[LibProgram],
    rec: &mut Recorder,
    values: &mut Values,
) -> bool {
    let mut observations: HashMap<(&'static str, usize), Vec<Observation>> = HashMap::new();
    let mut arenas = HashMap::new();
    let mut complete = true;
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    // At least two passes, so that every count is seen twice; then as many
    // as the budget allows, up to five.
    for pass in 0..5 {
        if pass >= 2 && Instant::now() >= deadline {
            break;
        }
        for (p, program) in programs.iter().enumerate() {
            for variant in VARIANTS {
                let op_id = (REPLAY_OPS + pass * programs.len() + p) as u32;
                let config = variant_config(variant, workload, nproc);
                match observe(rec, variant, op_id, program, config, &mut arenas) {
                    Some(observation) => observations.entry((variant, p)).or_default().push(observation),
                    None => complete = false,
                }
            }
        }
    }
    // One interleaved PE retires the same instructions and references
    // whatever the quantum and however often it is run.
    let mut deterministic = complete;
    for p in 0..programs.len() {
        let counts: Vec<(u64, u64)> = ["variant.q1", "variant.q4096"]
            .iter()
            .flat_map(|v| observations.get(&(*v, p)).into_iter().flatten())
            .map(|o| (o.stats.instructions, o.stats.data_refs))
            .collect();
        deterministic &= counts.windows(2).all(|w| w[0] == w[1]);
    }

    let time = |variant| per_op(workload, &observations, variant, |o| o.us);
    let instructions = |variant| per_op(workload, &observations, variant, |o| o.stats.instructions as f64);
    let refs = |variant| per_op(workload, &observations, variant, |o| o.stats.data_refs as f64);
    let own = "variant.trace_off";
    values.set("core.instructions_per_op", instructions(own));
    values.set("core.refs_per_op", refs(own));
    let area = |f: fn(&rapwam::AreaStats) -> u64| {
        per_op(workload, &observations, own, move |o| f(&o.stats.area_stats) as f64)
    };
    values.set("core.refs_global_share", ratio(area(|a| a.global_refs), refs(own)));
    values.set("core.refs_locked_share", ratio(area(|a| a.locked_refs), refs(own)));
    values.set("core.dispatch_ns_per_instr.q1", ratio(time("variant.q1") * 1e3, instructions("variant.q1")));
    values.set(
        "core.dispatch_ns_per_instr.q4096",
        ratio(time("variant.q4096") * 1e3, instructions("variant.q4096")),
    );
    values.set("core.ns_per_ref.serial", ratio(time("variant.q4096") * 1e3, refs("variant.q4096")));
    values.set("core.ns_per_ref.locked", ratio(time("variant.locked") * 1e3, refs("variant.locked")));
    values.set("core.locked_mem_overhead_ratio", ratio(time("variant.locked"), time("variant.q4096")));
    values.set("core.relaxed_speedup.w2", ratio(time("variant.relaxed_w1"), time("variant.relaxed_w2")));
    let w2 = "variant.relaxed_w2";
    let workers = |f: fn(&rapwam::WorkerStats) -> u64| {
        per_op(workload, &observations, w2, move |o| o.stats.workers.iter().map(f).sum::<u64>() as f64)
    };
    let (steals, attempts) = (workers(|w| w.goals_stolen), workers(|w| w.steal_attempts));
    values.set("core.steals_per_op", steals);
    values.set("core.steal_attempts_per_op", attempts);
    values.set("core.steal_success_ratio", ratio(steals, attempts));
    values.set("core.park_us_per_op", workers(|w| w.park_micros));
    values.set("core.backoff_parks_per_op", workers(|w| w.backoff_parks));
    values.set("core.parcalls_per_op", per_op(workload, &observations, w2, |o| o.stats.parcalls as f64));
    values.set(
        "core.goals_actually_parallel_per_op",
        per_op(workload, &observations, w2, |o| o.stats.goals_actually_parallel as f64),
    );
    values.set("core.trace_overhead_ratio", ratio(time("variant.trace_on"), time(own)));
    let traced_refs = per_op(workload, &observations, "variant.trace_on", |o| o.trace_len as f64);
    values.set("core.trace_refs_per_s", ratio(traced_refs * 1e6, time("variant.trace_on")));
    deterministic
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

/// Cold engine build at 1, 2 and 4 PEs and warm reset at 1 and 2, with
/// the workload's Stack Set sizes.  The builds follow one another, so the
/// allocator hands back pages it already holds: a lower bound on a build
/// between other work, which the replay's `core.engine_build_cold` spans
/// show in place.  A reset clears what the previous run touched, so each
/// timed reset follows a run of the workload's first program.
fn build_rows(
    workload: Workload,
    nproc: usize,
    program: &LibProgram,
    rec: &mut Recorder,
    values: &mut Values,
) {
    const COLD: [(usize, &str, &str); 3] = [
        (1, "core.engine_build_cold.w1", "core.engine_build_cold_us.w1"),
        (2, "core.engine_build_cold.w2", "core.engine_build_cold_us.w2"),
        (4, "core.engine_build_cold.w4", "core.engine_build_cold_us.w4"),
    ];
    const WARM: [(usize, &str, &str); 2] = [
        (1, "core.engine_reset_warm.w1", "core.engine_reset_warm_us.w1"),
        (2, "core.engine_reset_warm.w2", "core.engine_reset_warm_us.w2"),
    ];
    let config = |workers| QueryOptions { workers, ..workload.options(nproc) }.engine_config();
    let op_id = u32::MAX;
    for (workers, span, metric) in COLD {
        for _ in 0..7 {
            let root = rec.open(span, op_id, None);
            let engine = black_box(Engine::new(&program.compiled, config(workers)));
            rec.close(root);
            drop(engine);
        }
        values.set(metric, median(&rec.durations_us(span)));
    }
    for (workers, span, metric) in WARM {
        let mut engine = Engine::new(&program.compiled, config(workers));
        for _ in 0..3 {
            let (_, used) = engine.run_reusable(program.session.symbols()).expect("the probe run succeeds");
            let memory = used.into_memory();
            let (reset, reused) = rec.call_root(span, op_id, || {
                Engine::with_recycled_memory(&program.compiled, config(workers), memory)
            });
            assert!(reused, "recycled arenas of the same shape are reused");
            engine = reset;
        }
        values.set(metric, median(&rec.durations_us(span)));
    }
}

/// The cache simulator over the first program's 4-PE trace: one
/// `simulate` per sweep configuration, twice, and the parallel sweep.
/// Returns whether the simulated numbers repeated exactly.
fn cachesim_rows(
    workload: Workload,
    nproc: usize,
    program: &LibProgram,
    rec: &mut Recorder,
    values: &mut Values,
) -> bool {
    let options = QueryOptions::parallel(TRACE_SIM_PES).with_trace().with_memory(workload.memory());
    let engine = Engine::new(&program.compiled, options.engine_config());
    let mut trace: Vec<MemRef> = engine
        .run(program.session.symbols())
        .ok()
        .and_then(|result| result.trace)
        .expect("the probe trace run succeeds");
    trace.truncate(SIM_TRACE_REFS);
    let configs = sweep_configs();
    let op_id = u32::MAX;
    let mut repeats = true;
    let mut results: Vec<SimResult> = Vec::new();
    for config in &configs {
        let first = rec.call_root("cachesim.simulate", op_id, || simulate(config, &trace));
        let second = rec.call_root("cachesim.simulate", op_id, || simulate(config, &trace));
        repeats &= first == second;
        results.push(first);
    }
    let simulate_us = rec.durations_us("cachesim.simulate");
    values.set("cachesim.simulate_us", median(&simulate_us));
    let simulated_refs = (trace.len() * simulate_us.len()) as f64;
    values.set("cachesim.mrefs_per_s", ratio(simulated_refs, simulate_us.iter().sum()));
    for _ in 0..3 {
        let swept =
            rec.call_root("cachesim.sweep_probe", op_id, || run_sweep_with_threads(&trace, &configs, nproc));
        repeats &= swept == results;
    }
    let sweep_us = median(&rec.durations_us("cachesim.sweep_probe"));
    values.set("cachesim.sweep_us", sweep_us);
    // Serial work of one sweep over what `nproc` threads had time for.
    let serial_us = simulate_us.iter().sum::<f64>() / 2.0;
    values.set("cachesim.sweep_parallel_efficiency", ratio(serial_us, sweep_us * nproc as f64));
    // Simulated numbers at the paper's mid-range 512-word caches.
    for result in results.iter().filter(|r| r.config.cache.size_words == 512) {
        let protocol = result.config.protocol.name();
        values.set(&format!("cachesim.traffic_ratio.{protocol}"), result.traffic_ratio());
        values.set(&format!("cachesim.miss_ratio.{protocol}"), result.miss_ratio());
    }
    repeats
}

/// The price of observability (one histogram observation, one scrape) and
/// of a new connection (connect until the first ping returns).
fn obs_and_connect_rows(server: &Server, rec: &mut Recorder, values: &mut Values) {
    let histogram = Histogram::new();
    const OBSERVATIONS: u64 = 1_000_000;
    let started = Instant::now();
    for v in 0..OBSERVATIONS {
        black_box(&histogram).observe(black_box(v & 0xFFFF));
    }
    let observe_ns = started.elapsed().as_nanos() as f64 / OBSERVATIONS as f64;
    assert_eq!(histogram.count(), OBSERVATIONS);
    values.set("obs.observe_ns", observe_ns);
    for _ in 0..20 {
        black_box(rec.call_root("obs.render", u32::MAX, || server.metrics_text()));
        rec.call_root("server.connect", u32::MAX, || {
            Client::connect(server.addr()).and_then(|mut c| c.ping()).expect("probe connection answers")
        });
    }
    values.set("obs.render_us", median(&rec.durations_us("obs.render")));
    values.set("server.connect_us", median(&rec.durations_us("server.connect")));
}
