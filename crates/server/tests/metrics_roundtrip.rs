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

    // The stats plane tells the same story.
    let stats = server.stats();
    assert_eq!(stats.get("fuel_errors"), Some(1));
    assert_eq!(stats.get("fuel_preemptions"), Some(fuel_legs));
    assert_eq!(stats.get("deadline_errors"), Some(1));

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
    let stats = server.stats();
    assert_eq!(stats.get("quota_rejections"), Some(1));
    assert_eq!(stats.get("tenants_active"), Some(0));
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
