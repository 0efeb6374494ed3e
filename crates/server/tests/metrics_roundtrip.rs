//! End-to-end tests of the observability plane: a real `Server` scraped
//! through the `metrics` and `events` verbs over the wire.

use pwam_obs::{parse_sample, sum_family};
use pwam_server::{Client, ErrorKind, PoolConfig, QueryRequest, Request, Response, Server, ServerConfig};
use std::time::{Duration, Instant};

fn start(pool_size: usize) -> Server {
    Server::start(ServerConfig {
        pool: PoolConfig { size: pool_size, max_queue: 8, queue_timeout: Duration::from_millis(500) },
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral port")
}

const NREV: &str = "app([],L,L).\napp([H|T],L,[H|R]) :- app(T,L,R).\n\
                    nrev([],[]).\nnrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).";

fn nrev_query() -> QueryRequest {
    QueryRequest {
        program: NREV.to_string(),
        query: "nrev([1,2,3,4,5,6,7,8],R)".to_string(),
        ..QueryRequest::default()
    }
}

#[test]
fn metrics_exposition_covers_every_layer() {
    let server = start(2);
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..3 {
        client.query(nrev_query()).unwrap();
    }
    let text = client.metrics().unwrap();

    // Mirrored server counters.
    assert_eq!(parse_sample(&text, "pwam_queries_total"), Some(3));
    assert_eq!(parse_sample(&text, "pwam_connections_total"), Some(1));
    assert!(parse_sample(&text, "pwam_instructions_total").unwrap() > 0);

    // Pool mirrors and gauges: one slot built cold, the rest ran warm,
    // and nothing is executing at scrape time.
    assert_eq!(parse_sample(&text, "pwam_pool_requests_total"), Some(3));
    assert_eq!(parse_sample(&text, "pwam_pool_cold_builds_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_pool_warm_hits_total"), Some(2));
    assert_eq!(parse_sample(&text, "pwam_pool_busy_slots"), Some(0));
    assert_eq!(parse_sample(&text, "pwam_cache_programs"), Some(1));

    // Latency histograms: every query observed once into each family.
    assert_eq!(parse_sample(&text, "pwam_query_request_us_count"), Some(3));
    assert_eq!(parse_sample(&text, "pwam_query_execute_us_count"), Some(3));
    assert_eq!(parse_sample(&text, "pwam_query_queue_wait_us_count"), Some(3));
    assert_eq!(parse_sample(&text, "pwam_query_compile_us_count"), Some(3));
    // Execute time is part of each request, so the request sum dominates.
    let req_sum = parse_sample(&text, "pwam_query_request_us_sum").unwrap();
    let exec_sum = parse_sample(&text, "pwam_query_execute_us_sum").unwrap();
    assert!(req_sum >= exec_sum, "request {req_sum} < execute {exec_sum}");

    // Per-predicate attribution folded from the runs: the profile is
    // call-exact, so the per-predicate total equals the instruction total.
    let profiled = sum_family(&text, "pwam_predicate_instructions_total");
    let instructions = parse_sample(&text, "pwam_instructions_total").unwrap();
    assert_eq!(profiled, instructions);
    assert!(
        parse_sample(&text, "pwam_predicate_instructions_total{predicate=\"app/3\"}").unwrap() > 0,
        "app/3 missing from: {text}"
    );

    // Per-PE scheduler telemetry: a sequential run still reports its
    // batch exits (at least the final parking one per run).
    assert!(sum_family(&text, "pwam_pe_batch_exits_park_total") >= 3);

    server.shutdown();
}

#[test]
fn parallel_queries_surface_pe_telemetry() {
    let server = start(2);
    let mut client = Client::connect(server.addr()).unwrap();
    let req = QueryRequest {
        program: format!("{NREV}\nmain(A,B) :- nrev([1,2,3,4,5],A) & nrev([6,7,8,9],B)."),
        query: "main(A,B)".to_string(),
        parallel: true,
        workers: 2,
        ..QueryRequest::default()
    };
    for _ in 0..4 {
        client.query(req.clone()).unwrap();
    }
    let text = client.metrics().unwrap();
    // Two PEs ran: the steal-scan family has a series per PE and the
    // second PE (which starts idle) must have scanned at least once.
    assert!(
        parse_sample(&text, "pwam_pe_steal_attempts_total{pe=\"1\"}").unwrap() > 0,
        "PE 1 never scanned for work: {text}"
    );
    assert!(sum_family(&text, "pwam_pe_steals_total") > 0, "no goal was ever stolen: {text}");
    server.shutdown();
}

#[test]
fn flight_recorder_traces_query_and_cursor_lifecycles() {
    let server = start(1);
    let mut client = Client::connect(server.addr()).unwrap();
    client.query(nrev_query()).unwrap();

    let cursor = client
        .query_open(QueryRequest {
            program: "p(1).\np(2).".to_string(),
            query: "p(X)".to_string(),
            ..QueryRequest::default()
        })
        .unwrap();
    assert!(client.query_next(cursor).unwrap().is_some());
    assert!(client.query_next(cursor).unwrap().is_some());
    assert!(client.query_next(cursor).unwrap().is_none(), "two answers then exhaustion");

    let events = client.events(None).unwrap();
    let lines: Vec<&str> = events.lines().collect();
    assert!(lines.iter().any(|l| l.contains("query status=success")), "one-shot query missing: {events}");
    assert!(lines.iter().any(|l| l.contains(&format!("open cursor={cursor}"))), "{events}");
    assert_eq!(
        lines.iter().filter(|l| l.contains(&format!("resume cursor={cursor} status=answer"))).count(),
        2,
        "{events}"
    );
    assert!(
        lines.iter().any(|l| l.contains(&format!("resume cursor={cursor} status=exhausted"))),
        "{events}"
    );

    // Limited reads return the newest events only.
    let tail = client.events(Some(1)).unwrap();
    assert_eq!(tail.lines().count(), 1);
    assert_eq!(tail.trim_end(), *lines.last().unwrap());

    // Exhaustion folded the cursor's run into the registry: the cursor's
    // instructions are attributed per predicate too.
    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_query_resume_us_count"), Some(3));
    let profiled = sum_family(&text, "pwam_predicate_instructions_total");
    let instructions = parse_sample(&text, "pwam_instructions_total").unwrap();
    assert_eq!(profiled, instructions);

    server.shutdown();
}

#[test]
fn preemption_counters_distinguish_deadline_from_fuel() {
    let server = start(1);
    let mut client = Client::connect(server.addr()).unwrap();

    // One-shot fuel exhaustion: terminal for the request, reason="fuel".
    let starved = QueryRequest {
        query: "nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],R)".to_string(),
        fuel: Some(50),
        ..nrev_query()
    };
    match client.query(starved).unwrap() {
        Response::Error { kind: ErrorKind::Fuel, .. } => {}
        other => panic!("starved query should exhaust its fuel: {other:?}"),
    }

    // Wall-clock kill: divergent recursion against a real deadline,
    // reason="deadline".
    let diverging = QueryRequest {
        program: "loop :- loop.".to_string(),
        query: "loop".to_string(),
        deadline_ms: Some(50),
        ..QueryRequest::default()
    };
    match client.query(diverging).unwrap() {
        Response::Error { kind: ErrorKind::Deadline, .. } => {}
        other => panic!("divergent query should hit its deadline: {other:?}"),
    }

    // Cursor legs: fuel re-arms per `query-next`, so a starved cursor is
    // preempted some number of times and then *completes* — every
    // preempted leg counts, the cursor survives each one.
    let cursor = client
        .query_open(QueryRequest {
            query: "nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],R)".to_string(),
            fuel: Some(300),
            ..nrev_query()
        })
        .unwrap();
    let mut fuel_legs = 0u64;
    loop {
        match client.request(&Request::QueryNext { cursor }).unwrap() {
            Response::Error { kind: ErrorKind::Fuel, .. } => fuel_legs += 1,
            Response::Answer(a) => {
                assert!(a.success, "the starved cursor must still reach its answer");
                break;
            }
            other => panic!("unexpected cursor step: {other:?}"),
        }
        assert!(fuel_legs < 10_000, "cursor never finished under fuel");
    }
    assert!(fuel_legs >= 1, "fuel 300 must preempt nrev/16 at least once");
    client.query_close(cursor).unwrap();

    let text = client.metrics().unwrap();
    // The preemption family splits by reason and reconciles exactly with
    // the per-kind counters.
    assert_eq!(parse_sample(&text, "pwam_query_preempted_total{reason=\"fuel\"}"), Some(1 + fuel_legs));
    assert_eq!(parse_sample(&text, "pwam_query_preempted_total{reason=\"deadline\"}"), Some(1));
    assert_eq!(sum_family(&text, "pwam_query_preempted_total"), 2 + fuel_legs);
    assert_eq!(parse_sample(&text, "pwam_fuel_errors_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_fuel_preemptions_total"), Some(fuel_legs));
    assert_eq!(parse_sample(&text, "pwam_deadline_errors_total"), Some(1));

    // The in-process reader tells the same story.
    let text = server.metrics_text();
    assert_eq!(parse_sample(&text, "pwam_fuel_errors_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_fuel_preemptions_total"), Some(fuel_legs));
    assert_eq!(parse_sample(&text, "pwam_deadline_errors_total"), Some(1));

    // The flight recorder saw the preempted legs as scheduling events.
    let events = client.events(None).unwrap();
    assert_eq!(events.lines().filter(|l| l.contains("status=fuel")).count() as u64, fuel_legs, "{events}");
    server.shutdown();
}

#[test]
fn quota_rejections_surface_in_metrics_and_stats() {
    let server = Server::start(ServerConfig {
        pool: PoolConfig { size: 2, max_queue: 8, queue_timeout: Duration::from_millis(500) },
        tenant_max_active: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // Occupy the tenant's single slot with a query that runs until its
    // deadline, then collide with it from another connection.
    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query(QueryRequest {
            program: "loop :- loop.".to_string(),
            query: "loop".to_string(),
            deadline_ms: Some(1_000),
            tenant: Some("acme".to_string()),
            ..QueryRequest::default()
        })
    });
    let mut client = Client::connect(addr).unwrap();
    // While the holder runs, the tenant gauge shows it (wait for its
    // admission rather than sleeping a guessed interval)...
    let waiting_since = Instant::now();
    while parse_sample(&client.metrics().unwrap(), "pwam_tenant_active_queries{tenant=\"acme\"}") != Some(1) {
        assert!(waiting_since.elapsed() < Duration::from_secs(10), "the holder was never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    // ...and a second request for the same tenant bounces at admission.
    let response = client
        .query(QueryRequest {
            program: "p(1).".to_string(),
            query: "p(X)".to_string(),
            tenant: Some("acme".to_string()),
            ..QueryRequest::default()
        })
        .unwrap();
    match response {
        Response::Error { kind: ErrorKind::Quota, message } => {
            assert!(message.contains("acme"), "message names the tenant: {message}");
        }
        other => panic!("expected a quota rejection: {other:?}"),
    }
    // A different tenant is unaffected by acme's saturation.
    match client
        .query(QueryRequest {
            program: "p(1).".to_string(),
            query: "p(X)".to_string(),
            tenant: Some("globex".to_string()),
            ..QueryRequest::default()
        })
        .unwrap()
    {
        Response::Answer(a) => assert!(a.success),
        other => panic!("other tenants must still be served: {other:?}"),
    }
    holder.join().unwrap().unwrap();

    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_quota_rejections_total"), Some(1));
    assert!(parse_sample(&text, "pwam_tenants_admitted_total").unwrap() >= 2);
    // Idle tenants drop out of the gauge entirely (no stale zero series).
    assert_eq!(parse_sample(&text, "pwam_tenant_active_queries{tenant=\"acme\"}"), None);
    let text = server.metrics_text();
    assert_eq!(parse_sample(&text, "pwam_quota_rejections_total"), Some(1));
    assert_eq!(sum_family(&text, "pwam_tenant_active_queries"), 0);
    server.shutdown();
}

#[test]
fn evicted_cursors_hit_the_recorder_and_the_gauges() {
    let server = Server::start(ServerConfig {
        pool: PoolConfig { size: 1, max_queue: 8, queue_timeout: Duration::from_millis(500) },
        cursor_idle_timeout: Duration::from_millis(10),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let cursor = client
        .query_open(QueryRequest {
            program: "p(1).".to_string(),
            query: "p(X)".to_string(),
            ..QueryRequest::default()
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    // Any metrics scrape runs the lazy eviction sweep.
    let text = client.metrics().unwrap();
    assert_eq!(parse_sample(&text, "pwam_cursors_evicted_total"), Some(1));
    assert_eq!(parse_sample(&text, "pwam_cursors_parked"), Some(0));
    let events = client.events(None).unwrap();
    assert!(events.lines().any(|l| l.contains(&format!("evict cursor={cursor}"))), "{events}");
    server.shutdown();
}

/// `Server::metrics_text` and the `metrics` verb are one render path, and
/// the sweep of idle cursors is part of it: whichever reader comes first
/// after a cursor's deadline counts it evicted, not parked.
#[test]
fn either_reader_reports_an_expired_cursor_as_evicted() {
    let server = Server::start(ServerConfig {
        cursor_idle_timeout: Duration::from_millis(10),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (evicted, in_process) in [(1, true), (2, false)] {
        client
            .query_open(QueryRequest {
                program: "p(1).".to_string(),
                query: "p(X)".to_string(),
                ..QueryRequest::default()
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let text = if in_process { server.metrics_text() } else { client.metrics().unwrap() };
        assert_eq!(
            parse_sample(&text, "pwam_cursors_evicted_total"),
            Some(evicted),
            "in-process: {in_process}"
        );
        assert_eq!(parse_sample(&text, "pwam_cursors_parked"), Some(0), "in-process: {in_process}");
    }
    server.shutdown();
}

/// Every `# TYPE <family> <kind>` line of a fresh server's exposition, in
/// registration order.  Recorded while the pool/cache/cursor/tenant series
/// were still render-time mirrors: a family that moves, changes kind or
/// disappears is a change to the scrape contract.
const FAMILIES: &[&str] = &[
    "pwam_query_queue_wait_us histogram",
    "pwam_query_compile_us histogram",
    "pwam_query_execute_us histogram",
    "pwam_query_resume_us histogram",
    "pwam_query_request_us histogram",
    "pwam_connections_total counter",
    "pwam_queries_total counter",
    "pwam_protocol_errors_total counter",
    "pwam_compile_errors_total counter",
    "pwam_engine_errors_total counter",
    "pwam_deadline_errors_total counter",
    "pwam_query_preempted_total counter",
    "pwam_fuel_errors_total counter",
    "pwam_fuel_preemptions_total counter",
    "pwam_quota_rejections_total counter",
    "pwam_tenants_admitted_total counter",
    "pwam_tenants_rejected_total counter",
    "pwam_instructions_total counter",
    "pwam_engine_micros_total counter",
    "pwam_pool_requests_total counter",
    "pwam_pool_warm_hits_total counter",
    "pwam_pool_cold_builds_total counter",
    "pwam_pool_rejections_total counter",
    "pwam_pool_queue_timeouts_total counter",
    "pwam_pool_run_errors_total counter",
    "pwam_cache_program_hits_total counter",
    "pwam_cache_program_misses_total counter",
    "pwam_cache_evictions_total counter",
    "pwam_cursors_opened_total counter",
    "pwam_cursors_closed_total counter",
    "pwam_cursors_evicted_total counter",
    "pwam_pool_busy_slots gauge",
    "pwam_pool_queue_depth gauge",
    "pwam_cursors_parked gauge",
    "pwam_cache_programs gauge",
    "pwam_connections_active gauge",
    "pwam_tenant_active_queries gauge",
    "pwam_pe_steal_attempts_total counter",
    "pwam_pe_steals_total counter",
    "pwam_pe_backoff_yields_total counter",
    "pwam_pe_backoff_parks_total counter",
    "pwam_pe_park_micros_total counter",
    "pwam_pe_cancel_notices_total counter",
    "pwam_pe_goals_aborted_total counter",
    "pwam_pe_batch_exits_budget_total counter",
    "pwam_pe_batch_exits_park_total counter",
    "pwam_cancel_requests_total counter",
    "pwam_predicate_instructions_total counter",
    "pwam_pool_max_queue_depth gauge",
    "pwam_cache_compiled_queries gauge",
];

#[test]
fn a_fresh_servers_families_are_the_recorded_list() {
    let server = start(1);
    let text = Client::connect(server.addr()).unwrap().metrics().unwrap();
    let families: Vec<&str> = text.lines().filter_map(|l| l.strip_prefix("# TYPE ")).collect();
    assert_eq!(families, FAMILIES);
    server.shutdown();
}

/// One scripted pass over every way a request moves a pool, cache, cursor
/// or tenant number, with each sample it leaves asserted by value: one cold
/// and two warm plain queries, a shape change, a cursor stepped to
/// exhaustion and one closed early, a compile error, and — while a query
/// that runs to its deadline holds the only slot and its tenant's only
/// quota place — one quota rejection and one pool rejection.
#[test]
fn a_scripted_scenario_leaves_the_recorded_samples() {
    let server = Server::start(ServerConfig {
        pool: PoolConfig { size: 1, max_queue: 0, queue_timeout: Duration::from_millis(500) },
        tenant_max_active: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let p = || QueryRequest {
        program: "p(1).\np(2).\np(3).".to_string(),
        query: "p(X)".to_string(),
        ..QueryRequest::default()
    };
    let answer_warm = |response: Response| match response {
        Response::Answer(a) => {
            assert!(a.success);
            a.warm
        }
        other => panic!("expected an answer, got {other:?}"),
    };

    // Cold, warm, warm; then two workers: another shape, so cold again.
    let tenant = Some("globex".to_string());
    assert!(!answer_warm(client.query(QueryRequest { tenant, ..p() }).unwrap()));
    assert!(answer_warm(client.query(p()).unwrap()));
    assert!(answer_warm(client.query(p()).unwrap()));
    assert!(!answer_warm(client.query(QueryRequest { workers: 2, ..p() }).unwrap()));

    // A cursor stepped to exhaustion (three answers and the `no more`), and
    // one closed after its first answer.
    let cursor = client.query_open(p()).unwrap();
    let mut answers = 0;
    while client.query_next(cursor).unwrap().is_some() {
        answers += 1;
    }
    assert_eq!(answers, 3);
    let cursor = client.query_open(p()).unwrap();
    assert!(client.query_next(cursor).unwrap().is_some());
    client.query_close(cursor).unwrap();

    let unparsable = QueryRequest { program: "p(1".to_string(), ..p() };
    match client.query(unparsable).unwrap() {
        Response::Error { kind: ErrorKind::Compile, .. } => {}
        other => panic!("expected a compile error, got {other:?}"),
    }

    // The holder takes the slot and acme's quota place until its deadline.
    let holder = std::thread::spawn(move || {
        Client::connect(addr).unwrap().query(QueryRequest {
            program: "loop :- loop.".to_string(),
            query: "loop".to_string(),
            deadline_ms: Some(2_000),
            tenant: Some("acme".to_string()),
            ..QueryRequest::default()
        })
    });
    let waiting_since = Instant::now();
    loop {
        let text = client.metrics().unwrap();
        if parse_sample(&text, "pwam_pool_busy_slots") == Some(1) {
            assert_eq!(parse_sample(&text, "pwam_tenant_active_queries{tenant=\"acme\"}"), Some(1));
            break;
        }
        assert!(waiting_since.elapsed() < Duration::from_secs(10), "the holder never got the slot");
        std::thread::sleep(Duration::from_millis(1));
    }
    match client.query(QueryRequest { tenant: Some("acme".to_string()), ..p() }).unwrap() {
        Response::Error { kind: ErrorKind::Quota, .. } => {}
        other => panic!("expected a quota rejection, got {other:?}"),
    }
    match client.query(p()).unwrap() {
        Response::Error { kind: ErrorKind::Rejected, .. } => {}
        other => panic!("expected a pool rejection, got {other:?}"),
    }
    match holder.join().unwrap().unwrap() {
        Response::Error { kind: ErrorKind::Deadline, .. } => {}
        other => panic!("the holder should run to its deadline: {other:?}"),
    }

    let text = client.metrics().unwrap();
    for (series, expected) in [
        // Slot grants: 4 plain queries, 2 opens, 4 + 1 cursor steps, the holder.
        ("pwam_pool_requests_total", 12),
        // Two warm plain queries and the second open, on the exhausted
        // cursor's arenas; the first open found the two-PE query's, of
        // another shape, and built cold.
        ("pwam_pool_warm_hits_total", 3),
        ("pwam_pool_cold_builds_total", 3),
        ("pwam_pool_rejections_total", 1),
        ("pwam_pool_queue_timeouts_total", 0),
        ("pwam_pool_run_errors_total", 1),
        ("pwam_pool_busy_slots", 0),
        ("pwam_pool_queue_depth", 0),
        // `p` is looked up by 4 queries and 2 opens after its admission and
        // by the pool-rejected query; `loop` is the second program.  The
        // unparsable text and the quota-rejected request never reach the map.
        ("pwam_cache_program_hits_total", 6),
        ("pwam_cache_program_misses_total", 2),
        ("pwam_cache_evictions_total", 0),
        ("pwam_cache_programs", 2),
        ("pwam_cursors_opened_total", 2),
        ("pwam_cursors_closed_total", 2),
        ("pwam_cursors_evicted_total", 0),
        ("pwam_cursors_parked", 0),
        ("pwam_tenants_admitted_total", 2),
        ("pwam_tenants_rejected_total", 1),
        ("pwam_quota_rejections_total", 1),
        ("pwam_compile_errors_total", 1),
        ("pwam_deadline_errors_total", 1),
        ("pwam_queries_total", 8),
    ] {
        assert_eq!(parse_sample(&text, series), Some(expected), "{series}");
    }
    assert_eq!(sum_family(&text, "pwam_tenant_active_queries"), 0, "idle tenants leave the exposition");
    server.shutdown();
}
