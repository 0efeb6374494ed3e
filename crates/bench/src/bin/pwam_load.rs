//! `pwam-load` — drive N concurrent clients against a `pwam-serve`
//! instance and report throughput, latency percentiles and the pool,
//! cursor and engine counters the run moved (one `metrics` scrape before,
//! one after).
//!
//! ```text
//! pwam-load --addr HOST:PORT [--clients N] [--requests M]
//!           [--benchmarks deriv,tak,qsort,queens] [--workers W]
//!           [--determinism strict|relaxed] [--deadline-ms N]
//!           [--cursor-every N] [--require-reuse] [--shutdown] [--json]
//! ```
//!
//! Every client cycles through the selected registry benchmarks (at
//! `Scale::Small`) and validates each rendered answer against the
//! registry's expected value.  With `--cursor-every N`, every Nth request
//! is issued through the cursor verbs instead — `query-open`, `query-next`
//! to exhaustion, implicit auto-close — mixing parked-cursor churn into
//! the plain-query load and validating the streamed first answer the same
//! way.  The process exits non-zero when any protocol/server error or
//! wrong answer is observed, and — under `--require-reuse` — when the
//! server reports no warm engine reuse, so CI can gate on both.
//!
//! ## Capacity mode (`--capacity`)
//!
//! ```text
//! pwam-load --capacity --addr HOST:PORT [--arrival-rps 100,200]
//!           [--duration-ms 3000] [--connections 16] [--sweep-connections N]
//!           [--label NAME] [--capacity-out BENCH_server_capacity.json]
//!           [--json] [--shutdown]
//! ```
//!
//! The closed-loop run above measures latency under *self-limiting* load:
//! a slow server slows its own clients down, hiding queueing delay (the
//! coordinated-omission trap).  Capacity mode is **open-loop**: requests
//! arrive on a Poisson schedule fixed before the run, spread over a pool
//! of persistent connections, and every latency is measured from the
//! request's *scheduled arrival* — a request that left late because its
//! connection was still busy is charged that wait.  Sweeping
//! `--arrival-rps` maps the latency-vs-load curve; `--sweep-connections`
//! additionally reports how many simultaneous idle connections the server
//! sustains (the event-loop-vs-threads capacity differential).

use pwam_bench::cli::{arg_value, num_arg, reject_unknown_flags, usage_error};
use pwam_bench::history::append_run;
use pwam_benchmarks::{benchmark, runner::Validation, Benchmark, BenchmarkId, Scale};
use pwam_obs::{parse_histogram, parse_sample, Histogram, ParsedHistogram};
use pwam_server::{AnswerResponse, Client, QueryRequest, Response};
use rand::{rngs::StdRng, RngCore, SeedableRng};
use rapwam::{DeterminismMode, SchedulerKind};
use serde::Serialize;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The rendered answer the registry expects for a benchmark's query
/// variable, if its validation pins one.
fn expected_binding(b: &Benchmark) -> Option<(String, String)> {
    let render_list = |items: &[i64]| {
        let inner: Vec<String> = items.iter().map(|i| i.to_string()).collect();
        format!("[{}]", inner.join(","))
    };
    match &b.validation {
        Validation::EqualsInt { variable, expected } => Some((variable.clone(), expected.to_string())),
        Validation::EqualsList { variable, expected } => Some((variable.clone(), render_list(expected))),
        Validation::EqualsAtom { variable, expected } => Some((variable.clone(), expected.clone())),
        Validation::EqualsMatrix { variable, expected } => {
            let rows: Vec<String> = expected.iter().map(|r| render_list(r)).collect();
            Some((variable.clone(), format!("[{}]", rows.join(","))))
        }
        Validation::MatchesSequential { .. } | Validation::SucceedsOnly => None,
    }
}

#[derive(Debug, Default, Clone, Serialize)]
struct ClientTally {
    requests: u64,
    errors: u64,
    wrong_answers: u64,
    warm: u64,
    /// Requests issued through the cursor verbs.
    cursor_streams: u64,
    /// Answers streamed across all cursor requests.
    cursor_answers: u64,
    latencies_us: Vec<u64>,
    /// Plain-query latencies only (no cursor streams): the population the
    /// server's `pwam_query_request_us` histogram observes, so these are
    /// what the metrics cross-check compares against.
    plain_latencies_us: Vec<u64>,
}

#[derive(Debug, Serialize)]
struct Report {
    clients: usize,
    requests: u64,
    errors: u64,
    wrong_answers: u64,
    warm_responses: u64,
    elapsed_ms: u64,
    throughput_rps: f64,
    latency_mean_us: u64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    pool_warm_hits: u64,
    pool_cold_builds: u64,
    pool_rejections: u64,
    pool_queue_timeouts: u64,
    pool_max_queue_depth: u64,
    /// Requests driven through the cursor verbs and the answers they
    /// streamed.
    cursor_streams: u64,
    cursor_answers: u64,
    /// Cursor-table deltas reported by the server over the run.
    server_cursors_opened: u64,
    server_cursors_closed: u64,
    server_cursors_evicted: u64,
    /// Cursors still parked when the run ended (should be 0 — every
    /// stream runs to exhaustion).
    server_parked_cursors: u64,
    server_protocol_errors: u64,
    /// Abstract-machine instructions this run added to the server's
    /// cumulative counter.
    server_instructions: u64,
    /// The server's cumulative throughput after the run, in thousandths of
    /// a MLIPS (`pwam_instructions_total / pwam_engine_micros_total`).
    server_mlips_x1000: u64,
    /// Bucket bounds of the server-side whole-request latency percentiles
    /// over this run's window (0 when no plain query ran).
    server_request_p50_bound_us: u64,
    server_request_p99_bound_us: u64,
}

/// One `metrics` scrape, or exit 1: the run's deltas and its latency
/// cross-check are read between two of these.
fn scrape(addr: &str) -> String {
    Client::connect(addr).and_then(|mut c| c.metrics()).unwrap_or_else(|e| {
        eprintln!("pwam-load: cannot scrape the server at {addr}: {e}");
        std::process::exit(1);
    })
}

/// What a counter gained between two scrapes (a series a scrape lacks
/// reads 0).
fn delta(before: &str, after: &str, series: &str) -> u64 {
    let at = |text| parse_sample(text, series).unwrap_or(0);
    at(after).saturating_sub(at(before))
}

/// The server-side whole-request latencies observed between two scrapes.
fn request_window(before: &str, after: &str) -> ParsedHistogram {
    let at = |text| parse_histogram(text, "pwam_query_request_us").unwrap_or_default();
    at(after).since(&at(before))
}

/// Compare a client-side percentile value against the server histogram's
/// bucket bound for the same percentile: they must land within one log₂
/// bucket of each other (the histogram's resolution).  Returns an error
/// description on a mismatch.
fn cross_check(name: &str, client_us: u64, server_bound_us: u64) -> Result<(), String> {
    let client_bucket = Histogram::bucket_index(client_us) as i64;
    let server_bucket = Histogram::bucket_index(server_bound_us) as i64;
    if (client_bucket - server_bucket).abs() <= 1 {
        Ok(())
    } else {
        Err(format!(
            "{name}: client {client_us}us (bucket {client_bucket}) vs server bound \
             {server_bound_us}us (bucket {server_bucket}) differ by more than one bucket"
        ))
    }
}

/// Check one answer against the registry's pinned value for `b`.
fn answer_ok(b: &Benchmark, a: &AnswerResponse) -> bool {
    match expected_binding(b) {
        _ if !a.success => false,
        Some((var, expected)) => a.bindings.iter().any(|(n, v)| n == &var && v == &expected),
        None => true,
    }
}

/// Upper bound on answers drained per cursor stream (the registry
/// benchmarks are deterministic, but a misbehaving server must not hang
/// the load generator).
const MAX_STREAM_ANSWERS: u64 = 64;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: pwam-load --addr HOST:PORT [--clients N] [--requests M]\n\
             \x20                [--benchmarks deriv,tak,qsort,queens] [--workers W]\n\
             \x20                [--determinism NAME] [--deadline-ms N] [--cursor-every N]\n\
             \x20                [--require-reuse] [--shutdown] [--json]\n\
             \x20      pwam-load --capacity --addr HOST:PORT [--arrival-rps 100,200]\n\
             \x20                [--duration-ms 3000] [--connections 16]\n\
             \x20                [--sweep-connections N] [--label NAME]\n\
             \x20                [--capacity-out BENCH_server_capacity.json] [--json] [--shutdown]"
        );
        return;
    }
    if args.iter().any(|a| a == "--capacity") {
        reject_unknown_flags(
            &args,
            &[
                ("--capacity", false),
                ("--addr", true),
                ("--arrival-rps", true),
                ("--duration-ms", true),
                ("--connections", true),
                ("--sweep-connections", true),
                ("--workers", true),
                ("--benchmarks", true),
                ("--label", true),
                ("--capacity-out", true),
                ("--json", false),
                ("--shutdown", false),
            ],
        );
        run_capacity(&args);
        return;
    }
    reject_unknown_flags(
        &args,
        &[
            ("--addr", true),
            ("--clients", true),
            ("--requests", true),
            ("--benchmarks", true),
            ("--workers", true),
            ("--determinism", true),
            ("--deadline-ms", true),
            ("--cursor-every", true),
            ("--require-reuse", false),
            ("--shutdown", false),
            ("--json", false),
        ],
    );
    let addr = arg_value(&args, "--addr").unwrap_or_else(|| usage_error("--addr is required"));
    let clients = num_arg(&args, "--clients").unwrap_or(4).max(1) as usize;
    let requests = num_arg(&args, "--requests").unwrap_or(25).max(1);
    let workers = num_arg(&args, "--workers").unwrap_or(2).max(1) as usize;
    let deadline_ms = num_arg(&args, "--deadline-ms");
    // 0 = plain queries only; N = every Nth request per client streams
    // through a cursor instead.
    let cursor_every = num_arg(&args, "--cursor-every").unwrap_or(0) as usize;
    let determinism = match arg_value(&args, "--determinism") {
        None => DeterminismMode::Strict,
        Some(name) => DeterminismMode::parse(&name)
            .unwrap_or_else(|| usage_error(&format!("--determinism {name} (expected strict or relaxed)"))),
    };
    // Relaxed determinism is what puts the server's PEs on threads.
    let scheduler = match determinism {
        DeterminismMode::Strict => SchedulerKind::Interleaved,
        DeterminismMode::Relaxed => SchedulerKind::Threaded,
    };
    let bench_names =
        arg_value(&args, "--benchmarks").unwrap_or_else(|| "deriv,tak,qsort,queens".to_string());
    let benches: Vec<Benchmark> = bench_names
        .split(',')
        .map(|name| {
            let id = BenchmarkId::parse(name.trim())
                .unwrap_or_else(|| usage_error(&format!("--benchmarks {name} (unknown benchmark)")));
            benchmark(id, Scale::Small)
        })
        .collect();
    let json = args.iter().any(|a| a == "--json");
    let require_reuse = args.iter().any(|a| a == "--require-reuse");
    let send_shutdown = args.iter().any(|a| a == "--shutdown");

    // One scrape before the run: differencing counters and the
    // request-latency histogram across the run isolates this run's window
    // even against a long-lived server.
    let before = scrape(&addr);

    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client_idx| {
                let addr = addr.clone();
                let benches = &benches;
                s.spawn(move || {
                    let mut tally = ClientTally::default();
                    let mut client = match Client::connect(&addr) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("client {client_idx}: connect failed: {e}");
                            tally.errors += 1;
                            return tally;
                        }
                    };
                    for i in 0..requests {
                        let b = &benches[(client_idx + i as usize) % benches.len()];
                        let req = QueryRequest {
                            program: b.program.clone(),
                            query: b.query.clone(),
                            workers,
                            parallel: true,
                            scheduler,
                            determinism,
                            deadline_ms,
                            ..QueryRequest::default()
                        };
                        let sent = Instant::now();
                        tally.requests += 1;
                        let use_cursor = cursor_every > 0 && (i as usize).is_multiple_of(cursor_every);
                        if use_cursor {
                            // Stream the same benchmark through the cursor
                            // verbs: open, next to exhaustion (auto-close),
                            // validating the first answer.
                            tally.cursor_streams += 1;
                            let cursor = match client.query_open(req) {
                                Ok(id) => id,
                                Err(e) => {
                                    tally.errors += 1;
                                    eprintln!("client {client_idx}: {} query-open failed: {e}", b.id.name());
                                    continue;
                                }
                            };
                            let mut first: Option<AnswerResponse> = None;
                            let mut answers = 0;
                            loop {
                                match client.query_next(cursor) {
                                    Ok(Some(a)) => {
                                        answers += 1;
                                        if first.is_none() {
                                            first = Some(a);
                                        }
                                        if answers >= MAX_STREAM_ANSWERS {
                                            let _ = client.query_close(cursor);
                                            break;
                                        }
                                    }
                                    Ok(None) => break,
                                    Err(e) => {
                                        tally.errors += 1;
                                        eprintln!(
                                            "client {client_idx}: {} query-next failed: {e}",
                                            b.id.name()
                                        );
                                        break;
                                    }
                                }
                            }
                            tally.latencies_us.push(sent.elapsed().as_micros() as u64);
                            tally.cursor_answers += answers;
                            match first {
                                Some(a) => {
                                    if a.warm {
                                        tally.warm += 1;
                                    }
                                    if !answer_ok(b, &a) {
                                        tally.wrong_answers += 1;
                                        eprintln!(
                                            "client {client_idx}: {} streamed a wrong first answer: {:?}",
                                            b.id.name(),
                                            a.bindings
                                        );
                                    }
                                }
                                None => {
                                    tally.wrong_answers += 1;
                                    eprintln!("client {client_idx}: {} streamed no answers", b.id.name());
                                }
                            }
                            continue;
                        }
                        match client.query(req) {
                            Ok(Response::Answer(a)) => {
                                let us = sent.elapsed().as_micros() as u64;
                                tally.latencies_us.push(us);
                                tally.plain_latencies_us.push(us);
                                if a.warm {
                                    tally.warm += 1;
                                }
                                if !answer_ok(b, &a) {
                                    tally.wrong_answers += 1;
                                    eprintln!(
                                        "client {client_idx}: {} answered wrongly: success={} bindings={:?}",
                                        b.id.name(),
                                        a.success,
                                        a.bindings
                                    );
                                }
                            }
                            Ok(other) => {
                                tally.errors += 1;
                                eprintln!("client {client_idx}: {} error: {other:?}", b.id.name());
                            }
                            Err(e) => {
                                tally.errors += 1;
                                eprintln!("client {client_idx}: transport error: {e}");
                                return tally;
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = started.elapsed();

    // ...and one after it; the request-latency histogram's window is what
    // the client/server percentile cross-check compares against.
    let after = scrape(&addr);
    let window = request_window(&before, &after);
    if send_shutdown {
        if let Ok(mut c) = Client::connect(&addr) {
            let _ = c.shutdown();
        }
    }

    let mut latencies: Vec<u64> = tallies.iter().flat_map(|t| t.latencies_us.iter().copied()).collect();
    latencies.sort_unstable();
    let total_requests: u64 = tallies.iter().map(|t| t.requests).sum();
    let errors: u64 = tallies.iter().map(|t| t.errors).sum();
    let wrong: u64 = tallies.iter().map(|t| t.wrong_answers).sum();
    let warm: u64 = tallies.iter().map(|t| t.warm).sum();
    let cursor_streams: u64 = tallies.iter().map(|t| t.cursor_streams).sum();
    let cursor_answers: u64 = tallies.iter().map(|t| t.cursor_answers).sum();
    let now = |series: &str| parse_sample(&after, series).unwrap_or(0);
    let delta = |series: &str| delta(&before, &after, series);
    let engine_micros = now("pwam_engine_micros_total");
    let mlips =
        if engine_micros == 0 { 0.0 } else { now("pwam_instructions_total") as f64 / engine_micros as f64 };
    let mean = if latencies.is_empty() { 0 } else { latencies.iter().sum::<u64>() / latencies.len() as u64 };

    // Client/server latency cross-check: the client-side plain-query
    // percentiles must land within one log₂ bucket of the server's
    // request-latency histogram for the same window.  Loopback transport
    // adds microseconds, not buckets, so a wider gap means one of the two
    // measurements is lying.
    let mut plain: Vec<u64> = tallies.iter().flat_map(|t| t.plain_latencies_us.iter().copied()).collect();
    plain.sort_unstable();
    let server_p50 = window.percentile_bound(50.0).unwrap_or(0);
    let server_p99 = window.percentile_bound(99.0).unwrap_or(0);
    let mut cross_check_failures: Vec<String> = Vec::new();
    if !plain.is_empty() && server_p50 > 0 {
        for (name, p, bound) in [("p50", 0.50, server_p50), ("p99", 0.99, server_p99)] {
            if let Err(e) = cross_check(name, percentile(&plain, p), bound) {
                cross_check_failures.push(e);
            }
        }
    }

    let report = Report {
        clients,
        requests: total_requests,
        errors,
        wrong_answers: wrong,
        warm_responses: warm,
        elapsed_ms: elapsed.as_millis() as u64,
        throughput_rps: total_requests as f64 / elapsed.as_secs_f64().max(1e-9),
        latency_mean_us: mean,
        latency_p50_us: percentile(&latencies, 0.50),
        latency_p99_us: percentile(&latencies, 0.99),
        pool_warm_hits: delta("pwam_pool_warm_hits_total"),
        pool_cold_builds: delta("pwam_pool_cold_builds_total"),
        pool_rejections: delta("pwam_pool_rejections_total"),
        pool_queue_timeouts: delta("pwam_pool_queue_timeouts_total"),
        pool_max_queue_depth: now("pwam_pool_max_queue_depth"),
        cursor_streams,
        cursor_answers,
        server_cursors_opened: delta("pwam_cursors_opened_total"),
        server_cursors_closed: delta("pwam_cursors_closed_total"),
        server_cursors_evicted: delta("pwam_cursors_evicted_total"),
        server_parked_cursors: now("pwam_cursors_parked"),
        server_protocol_errors: delta("pwam_protocol_errors_total"),
        server_instructions: delta("pwam_instructions_total"),
        server_mlips_x1000: (mlips * 1000.0) as u64,
        server_request_p50_bound_us: server_p50,
        server_request_p99_bound_us: server_p99,
    };

    if json {
        println!("{}", serde_json::to_string_pretty(&report).expect("serialise"));
    } else {
        println!("pwam-load: {} clients x {} requests against {addr}", report.clients, requests);
        println!(
            "  {} requests in {:?}  ({:.1} req/s)",
            report.requests,
            Duration::from_millis(report.elapsed_ms),
            report.throughput_rps
        );
        println!(
            "  latency  mean {}us  p50 {}us  p99 {}us",
            report.latency_mean_us, report.latency_p50_us, report.latency_p99_us
        );
        if report.server_request_p50_bound_us > 0 {
            println!(
                "  server   request p50 <= {}us  p99 <= {}us  (metrics histogram)",
                report.server_request_p50_bound_us, report.server_request_p99_bound_us
            );
        }
        println!(
            "  pool     warm {}  cold {}  rejected {}  queue-timeout {}  max-depth {}",
            report.pool_warm_hits,
            report.pool_cold_builds,
            report.pool_rejections,
            report.pool_queue_timeouts,
            report.pool_max_queue_depth
        );
        println!("  engine   {} instructions  cumulative {mlips:.3} MLIPS", report.server_instructions);
        if report.cursor_streams > 0 {
            println!(
                "  cursors  {} streams / {} answers  opened {}  closed {}  evicted {}  parked {}",
                report.cursor_streams,
                report.cursor_answers,
                report.server_cursors_opened,
                report.server_cursors_closed,
                report.server_cursors_evicted,
                report.server_parked_cursors
            );
        }
        println!(
            "  errors   transport/server {}  wrong answers {}  protocol {}",
            report.errors, report.wrong_answers, report.server_protocol_errors
        );
    }

    for failure in &cross_check_failures {
        eprintln!("pwam-load: latency cross-check failed: {failure}");
    }
    if errors > 0 || wrong > 0 || report.server_protocol_errors > 0 || !cross_check_failures.is_empty() {
        std::process::exit(1);
    }
    if require_reuse && report.pool_warm_hits == 0 {
        eprintln!("pwam-load: --require-reuse: the server reported no warm engine reuse");
        std::process::exit(1);
    }
    // Smoke assertion on the scrape itself: a run that completed queries
    // must have moved the server's cumulative instruction counter.
    let completed = total_requests.saturating_sub(errors);
    if completed > 0 && report.server_instructions == 0 {
        eprintln!(
            "pwam-load: the server's scrape shows zero executed instructions after {completed} queries"
        );
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// Capacity mode: open-loop Poisson arrivals + connection sweep
// ---------------------------------------------------------------------

/// One measured point on the latency-vs-load curve.
#[derive(Debug, Clone, Serialize)]
struct CapacityPoint {
    /// Offered Poisson arrival rate, requests per second.
    arrival_rps: f64,
    /// Arrivals the schedule offered over the window.
    offered: u64,
    completed: u64,
    errors: u64,
    /// Completions per second actually achieved.
    throughput_rps: f64,
    /// All latencies are measured from the request's *scheduled* arrival,
    /// so queueing behind a busy connection is charged to the server.
    latency_mean_us: u64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    latency_max_us: u64,
}

/// On-disk record of one capacity run in `BENCH_server_capacity.json`.
#[derive(Debug, Serialize)]
struct CapacityRun {
    unix_secs: u64,
    /// Free-form tag for what was measured (e.g. `event-loop`, `threads`).
    label: String,
    connections: usize,
    duration_ms: u64,
    points: Vec<CapacityPoint>,
    /// Simultaneous idle connections sustained by the sweep (0 = sweep
    /// not requested).
    connections_sustained: u64,
    /// Protocol errors the server charged during the run (must be 0).
    server_protocol_errors: u64,
    /// Server-side whole-request p99 bucket bound over the run's window.
    server_request_p99_bound_us: u64,
}

/// Exponential inter-arrival time (seconds) for a Poisson process.
fn exp_interval(rng: &mut StdRng, rate_per_sec: f64) -> f64 {
    // Inverse-CDF sampling; keep the uniform away from 0 so ln is finite.
    let unit = (((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64).min(1.0);
    -unit.ln() / rate_per_sec
}

/// How many simultaneous connections the server sustains: open up to
/// `target` sockets, ping each once, and keep them all open while the
/// next ones arrive — the count stops at the first shed or failure.
fn sweep_connections(addr: &str, target: usize) -> u64 {
    let mut held: Vec<Client> = Vec::with_capacity(target);
    for _ in 0..target {
        let Ok(mut client) = Client::connect(addr) else { break };
        if client.ping().is_err() {
            break;
        }
        held.push(client);
    }
    // Everything already admitted must still be responsive with the full
    // population open — a server that accepts but wedges does not count.
    let mut sustained = 0;
    for client in held.iter_mut() {
        if client.ping().is_err() {
            break;
        }
        sustained += 1;
    }
    sustained
}

/// Drive one open-loop measurement window at `rate_per_sec`.
fn capacity_point(
    addr: &str,
    benches: &[Benchmark],
    workers: usize,
    connections: usize,
    rate_per_sec: f64,
    duration: Duration,
) -> CapacityPoint {
    // Superposition: `connections` independent Poisson streams at
    // rate/connections sum to a Poisson stream at the full rate, and each
    // connection can pre-compute its own schedule without coordination.
    let per_conn_rate = rate_per_sec / connections.max(1) as f64;
    let outcomes: Vec<(u64, u64, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|conn_idx| {
                s.spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(0xCAFE_F00D ^ (conn_idx as u64) << 17 ^ rate_per_sec.to_bits());
                    // The whole arrival schedule is fixed before the first
                    // request: open-loop arrivals never adapt to server
                    // slowness.
                    let mut offsets = Vec::new();
                    let mut t = exp_interval(&mut rng, per_conn_rate);
                    while t < duration.as_secs_f64() {
                        offsets.push(Duration::from_secs_f64(t));
                        t += exp_interval(&mut rng, per_conn_rate);
                    }
                    let mut errors = 0u64;
                    let mut latencies = Vec::with_capacity(offsets.len());
                    let offered = offsets.len() as u64;
                    let Ok(mut client) = Client::connect(addr) else {
                        return (offered, offered, latencies);
                    };
                    let started = Instant::now();
                    for (k, offset) in offsets.iter().enumerate() {
                        let scheduled = started + *offset;
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        // A late send (the connection was still busy) is
                        // NOT excused: latency runs from `scheduled`.
                        let b = &benches[(conn_idx + k) % benches.len()];
                        let req = QueryRequest {
                            program: b.program.clone(),
                            query: b.query.clone(),
                            workers,
                            parallel: true,
                            ..QueryRequest::default()
                        };
                        match client.query(req) {
                            Ok(Response::Answer(a)) if answer_ok(b, &a) => {
                                latencies.push(scheduled.elapsed().as_micros() as u64);
                            }
                            Ok(_) | Err(_) => errors += 1,
                        }
                    }
                    (offered, errors, latencies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("capacity connection thread")).collect()
    });
    let offered: u64 = outcomes.iter().map(|(o, _, _)| o).sum();
    let errors: u64 = outcomes.iter().map(|(_, e, _)| e).sum();
    let mut latencies: Vec<u64> = outcomes.into_iter().flat_map(|(_, _, l)| l).collect();
    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    let mean = if latencies.is_empty() { 0 } else { latencies.iter().sum::<u64>() / completed };
    CapacityPoint {
        arrival_rps: rate_per_sec,
        offered,
        completed,
        errors,
        throughput_rps: completed as f64 / duration.as_secs_f64(),
        latency_mean_us: mean,
        latency_p50_us: percentile(&latencies, 0.50),
        latency_p99_us: percentile(&latencies, 0.99),
        latency_max_us: latencies.last().copied().unwrap_or(0),
    }
}

fn run_capacity(args: &[String]) {
    let addr = arg_value(args, "--addr").unwrap_or_else(|| usage_error("--addr is required"));
    let rates: Vec<f64> = arg_value(args, "--arrival-rps")
        .unwrap_or_else(|| "100,200".to_string())
        .split(',')
        .map(|r| match r.trim().parse::<f64>() {
            Ok(v) if v > 0.0 => v,
            _ => usage_error(&format!("--arrival-rps {r} (expected positive numbers)")),
        })
        .collect();
    let duration = Duration::from_millis(num_arg(args, "--duration-ms").unwrap_or(3_000).max(100));
    let connections = num_arg(args, "--connections").unwrap_or(16).max(1) as usize;
    let sweep_target = num_arg(args, "--sweep-connections").unwrap_or(0) as usize;
    let workers = num_arg(args, "--workers").unwrap_or(2).max(1) as usize;
    let label = arg_value(args, "--label").unwrap_or_else(|| "default".to_string());
    let capacity_out = arg_value(args, "--capacity-out");
    let json = args.iter().any(|a| a == "--json");
    let send_shutdown = args.iter().any(|a| a == "--shutdown");
    let bench_names = arg_value(args, "--benchmarks").unwrap_or_else(|| "deriv,tak,qsort,queens".to_string());
    let benches: Vec<Benchmark> = bench_names
        .split(',')
        .map(|name| {
            let id = BenchmarkId::parse(name.trim())
                .unwrap_or_else(|| usage_error(&format!("--benchmarks {name} (unknown benchmark)")));
            benchmark(id, Scale::Small)
        })
        .collect();

    let before = scrape(&addr);

    // One throwaway warmup query so cold pool builds don't pollute the
    // first measured point.
    if let Ok(mut c) = Client::connect(&addr) {
        let b = &benches[0];
        let _ = c.query(QueryRequest {
            program: b.program.clone(),
            query: b.query.clone(),
            workers,
            parallel: true,
            ..QueryRequest::default()
        });
    }

    let points: Vec<CapacityPoint> = rates
        .iter()
        .map(|&rate| {
            let point = capacity_point(&addr, &benches, workers, connections, rate, duration);
            if !json {
                println!(
                    "pwam-load: capacity @ {rate:.0} req/s offered {} completed {} errors {}  \
                     p50 {}us  p99 {}us  max {}us",
                    point.offered,
                    point.completed,
                    point.errors,
                    point.latency_p50_us,
                    point.latency_p99_us,
                    point.latency_max_us
                );
            }
            point
        })
        .collect();

    let sustained = if sweep_target > 0 { sweep_connections(&addr, sweep_target) } else { 0 };
    if sweep_target > 0 && !json {
        println!("pwam-load: connection sweep sustained {sustained} of {sweep_target} connections");
    }

    let after = scrape(&addr);
    let server_p99 = request_window(&before, &after).percentile_bound(99.0).unwrap_or(0);
    let protocol_errors = delta(&before, &after, "pwam_protocol_errors_total");
    if send_shutdown {
        if let Ok(mut c) = Client::connect(&addr) {
            let _ = c.shutdown();
        }
    }

    let run = CapacityRun {
        unix_secs: SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0),
        label,
        connections,
        duration_ms: duration.as_millis() as u64,
        points,
        connections_sustained: sustained,
        server_protocol_errors: protocol_errors,
        server_request_p99_bound_us: server_p99,
    };
    if json {
        println!("{}", serde_json::to_string_pretty(&run).expect("serialise"));
    } else {
        println!(
            "pwam-load: capacity run label={} server-p99<= {}us protocol-errors {}",
            run.label, run.server_request_p99_bound_us, run.server_protocol_errors
        );
    }

    if let Some(path) = capacity_out {
        // Append to the `{latest, history[]}` trajectory, or exit 1 leaving
        // the file as it was.
        match append_run(Path::new(&path), serde_json::to_value(&run)) {
            Ok(runs) => eprintln!("pwam-load: recorded capacity run in {path} ({runs} total)"),
            Err(e) => {
                eprintln!("pwam-load: cannot record capacity run in {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let errors: u64 = run.points.iter().map(|p| p.errors).sum();
    if errors > 0 || run.server_protocol_errors > 0 {
        eprintln!(
            "pwam-load: capacity run saw {errors} request errors and {} protocol errors",
            run.server_protocol_errors
        );
        std::process::exit(1);
    }
    if sweep_target > 0 && sustained < sweep_target as u64 {
        eprintln!("pwam-load: sustained only {sustained} of the requested {sweep_target} connections");
        std::process::exit(1);
    }
}
