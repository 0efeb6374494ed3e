//! The server's observability plane: a [`pwam_obs`] metric registry wired
//! over every layer of the stack, plus a bounded flight recorder of query
//! lifecycle events.
//!
//! Every series has one home, the place where the thing it counts happens.
//! The latency histograms and the request counters (connections, queries,
//! the error kinds, instructions, engine time) are updated in place by the
//! handlers; the pool, the cache, the cursor table and the tenant table
//! create the counters they increment, and `ServerMetrics::new` adopts
//! those very handles into the registry — relaxed `fetch_add`s, no locks on
//! the request path, and nothing to keep in step.  The per-PE scheduler
//! telemetry and the per-predicate instruction profile only exist when a
//! run completes, so `ServerMetrics::record_run` folds one run's
//! [`rapwam::RunStats`] in on the (already cold) completion path.  Gauges
//! are not counts but readings — a length, a depth, a high-water mark —
//! taken from their owner by `ServerMetrics::render` as it renders.

use crate::cache::ProgramCache;
use crate::pool::{CursorTable, EnginePool};
use crate::server::{sweep_idle_cursors, ServerState};
use crate::tenant::TenantTable;
use pwam_obs::{Counter, CounterVec, Gauge, GaugeVec, Histogram, Registry};
use rapwam::RunStats;
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-run cap on predicate-profile series folded into the registry: only
/// the top `PROFILE_TOP_PER_RUN` predicates of each run are charged by
/// name; the rest of the run's profile lands on the `other` series.
const PROFILE_TOP_PER_RUN: usize = 16;

/// Global cap on distinct predicate label values (protects the exposition
/// from unbounded cardinality across many programs).  Once reached, new
/// names fold into `other`; already-known names keep accumulating.
const PROFILE_MAX_SERIES: usize = 256;

/// Default capacity of the flight-recorder ring.
pub(crate) const FLIGHT_RECORDER_CAP: usize = 256;

/// The metric registry plus handles to every series the server updates.
pub(crate) struct ServerMetrics {
    registry: Registry,

    // --- latency histograms (observed on the request path) ---
    /// Time a plain query spent waiting for a pool slot.
    pub(crate) queue_wait_us: Arc<Histogram>,
    /// Program + query compilation time (cache hits observe ~0).
    pub(crate) compile_us: Arc<Histogram>,
    /// Engine wall-clock of a successful plain query.
    pub(crate) execute_us: Arc<Histogram>,
    /// Engine wall-clock of one `query-next` resume leg.
    pub(crate) resume_us: Arc<Histogram>,
    /// Whole-request wall-clock of a plain query, arrival to response
    /// build.  This is the series `pwam-load` cross-checks its client-side
    /// percentiles against.
    pub(crate) request_us: Arc<Histogram>,

    // --- request counters (incremented on the request path) ---
    /// Queries preempted before completion, labelled by why: a
    /// `deadline` preemption is a wall-clock kill (terminal, timing
    /// dependent), a `fuel` preemption is the deterministic instruction
    /// budget (terminal for one-shot queries, resumable for cursors).
    pub(crate) query_preempted: Arc<CounterVec>,
    pub(crate) connections: Arc<Counter>,
    pub(crate) queries: Arc<Counter>,
    pub(crate) protocol_errors: Arc<Counter>,
    pub(crate) compile_errors: Arc<Counter>,
    pub(crate) engine_errors: Arc<Counter>,
    pub(crate) deadline_errors: Arc<Counter>,
    /// One-shot queries killed by fuel exhaustion (terminal).
    pub(crate) fuel_errors: Arc<Counter>,
    /// Cursor legs preempted by fuel exhaustion (resumable: the cursor
    /// stays parked and the next `query-next` continues it).
    pub(crate) fuel_preemptions: Arc<Counter>,
    /// Requests turned away by their tenant's admission quota.
    pub(crate) quota_rejections: Arc<Counter>,
    /// Abstract-machine instructions retired by successful queries.
    pub(crate) instructions: Arc<Counter>,
    /// Wall-clock engine time of successful queries, in microseconds —
    /// `instructions` over this is the cumulative MLIPS.
    pub(crate) engine_micros: Arc<Counter>,

    // --- gauges (read from their owners at render time) ---
    pool_busy_slots: Arc<Gauge>,
    pool_queue_depth: Arc<Gauge>,
    pool_max_queue_depth: Arc<Gauge>,
    cursors_parked: Arc<Gauge>,
    cache_programs: Arc<Gauge>,
    cache_compiled_queries: Arc<Gauge>,
    connections_active: Arc<Gauge>,
    tenants_active: Arc<GaugeVec>,

    // --- per-PE scheduler telemetry (folded per completed run) ---
    pe_steal_attempts: Arc<CounterVec>,
    pe_steals: Arc<CounterVec>,
    pe_backoff_yields: Arc<CounterVec>,
    pe_backoff_parks: Arc<CounterVec>,
    pe_park_micros: Arc<CounterVec>,
    pe_cancel_notices: Arc<CounterVec>,
    pe_goals_aborted: Arc<CounterVec>,
    pe_batch_exits_budget: Arc<CounterVec>,
    pe_batch_exits_park: Arc<CounterVec>,
    cancel_requests: Arc<Counter>,

    // --- per-predicate profile (folded per completed run) ---
    predicate_instructions: Arc<CounterVec>,
}

impl ServerMetrics {
    /// Build the registry, adopting the counters the four subsystems own.
    pub(crate) fn new(
        pool: &EnginePool,
        cache: &ProgramCache,
        cursors: &CursorTable,
        tenants: &TenantTable,
    ) -> Self {
        let registry = Registry::new();
        let adopt =
            |name, help, counter: &Arc<Counter>| registry.adopt_counter(name, help, Arc::clone(counter));
        let queue_wait_us = registry.histogram(
            "pwam_query_queue_wait_us",
            "Microseconds a plain query waited for an engine-pool slot.",
        );
        let compile_us = registry.histogram(
            "pwam_query_compile_us",
            "Microseconds spent compiling the program and query (cached hits are ~0).",
        );
        let execute_us = registry
            .histogram("pwam_query_execute_us", "Engine wall-clock microseconds of a completed plain query.");
        let resume_us = registry.histogram(
            "pwam_query_resume_us",
            "Engine wall-clock microseconds of one query-next resume leg.",
        );
        let request_us = registry.histogram(
            "pwam_query_request_us",
            "Whole-request microseconds of a plain query, arrival to response.",
        );
        let connections = registry.counter("pwam_connections_total", "Connections accepted by the server.");
        let queries = registry.counter("pwam_queries_total", "Plain query requests received.");
        let protocol_errors =
            registry.counter("pwam_protocol_errors_total", "Requests rejected as malformed.");
        let compile_errors =
            registry.counter("pwam_compile_errors_total", "Requests that failed to compile.");
        let engine_errors =
            registry.counter("pwam_engine_errors_total", "Runs that died with an engine error.");
        let deadline_errors =
            registry.counter("pwam_deadline_errors_total", "Runs cut short by their deadline.");
        let query_preempted = registry.counter_vec(
            "pwam_query_preempted_total",
            "Queries preempted before completion: reason=\"deadline\" is the wall-clock kill, \
             reason=\"fuel\" the deterministic instruction budget (resumable on cursors).",
            "reason",
        );
        let fuel_errors =
            registry.counter("pwam_fuel_errors_total", "One-shot queries killed by fuel exhaustion.");
        let fuel_preemptions = registry.counter(
            "pwam_fuel_preemptions_total",
            "Cursor legs suspended by fuel exhaustion (resumed by a later query-next).",
        );
        let quota_rejections = registry.counter(
            "pwam_quota_rejections_total",
            "Requests turned away by their tenant's admission quota.",
        );
        adopt("pwam_tenants_admitted_total", "Tenant-carrying requests admitted.", &tenants.admitted);
        adopt(
            "pwam_tenants_rejected_total",
            "Tenant-carrying requests rejected at quota.",
            &tenants.rejected,
        );
        let instructions = registry.counter(
            "pwam_instructions_total",
            "Abstract-machine instructions retired by successful queries.",
        );
        let engine_micros = registry
            .counter("pwam_engine_micros_total", "Engine wall-clock microseconds of successful queries.");
        adopt("pwam_pool_requests_total", "Pool slots acquired (admissions).", &pool.requests);
        adopt("pwam_pool_warm_hits_total", "Runs that reused a slot's warm arenas.", &pool.warm_hits);
        adopt("pwam_pool_cold_builds_total", "Runs that allocated fresh arenas.", &pool.cold_builds);
        adopt("pwam_pool_rejections_total", "Requests turned away by a full wait queue.", &pool.rejections);
        adopt(
            "pwam_pool_queue_timeouts_total",
            "Requests that gave up waiting for a slot.",
            &pool.queue_timeouts,
        );
        adopt(
            "pwam_pool_run_errors_total",
            "Runs whose memory was lost to an engine error.",
            &pool.run_errors,
        );
        adopt("pwam_cache_program_hits_total", "Program-cache hits.", &cache.program_hits);
        adopt("pwam_cache_program_misses_total", "Program-cache misses (compiles).", &cache.program_misses);
        adopt("pwam_cache_evictions_total", "Programs evicted from the cache.", &cache.evictions);
        adopt("pwam_cursors_opened_total", "Cursors ever opened.", &cursors.opened);
        adopt("pwam_cursors_closed_total", "Cursors closed or exhausted.", &cursors.closed);
        adopt("pwam_cursors_evicted_total", "Cursors reclaimed by idle eviction.", &cursors.evicted);
        let pool_busy_slots = registry.gauge("pwam_pool_busy_slots", "Pool slots currently executing a run.");
        let pool_queue_depth =
            registry.gauge("pwam_pool_queue_depth", "Requests currently waiting for a slot.");
        let cursors_parked = registry.gauge("pwam_cursors_parked", "Cursors currently parked.");
        let cache_programs = registry.gauge("pwam_cache_programs", "Programs currently cached.");
        let connections_active = registry.gauge("pwam_connections_active", "Connections currently open.");
        let tenants_active = registry.gauge_vec(
            "pwam_tenant_active_queries",
            "Requests currently in flight per tenant (idle tenants drop off the exposition).",
            "tenant",
        );
        let pe_steal_attempts = registry.counter_vec(
            "pwam_pe_steal_attempts_total",
            "Steal scans per PE (each sweeps every other PE's Goal Stack once).",
            "pe",
        );
        let pe_steals = registry.counter_vec(
            "pwam_pe_steals_total",
            "Goals taken from another PE's Goal Stack, per stealing PE.",
            "pe",
        );
        let pe_backoff_yields = registry.counter_vec(
            "pwam_pe_backoff_yields_total",
            "Idle-ladder transitions from spinning to yielding, per PE (relaxed backend).",
            "pe",
        );
        let pe_backoff_parks = registry.counter_vec(
            "pwam_pe_backoff_parks_total",
            "Idle-ladder transitions from yielding to timed parking, per PE (relaxed backend).",
            "pe",
        );
        let pe_park_micros = registry.counter_vec(
            "pwam_pe_park_micros_total",
            "Microseconds spent in idle timed parks, per PE (relaxed backend).",
            "pe",
        );
        let pe_cancel_notices = registry.counter_vec(
            "pwam_pe_cancel_notices_total",
            "cancel_goal notifications received per PE (backward execution).",
            "pe",
        );
        let pe_goals_aborted = registry.counter_vec(
            "pwam_pe_goals_aborted_total",
            "Stolen goals aborted mid-flight on a cancel_goal request, per PE.",
            "pe",
        );
        let pe_batch_exits_budget = registry.counter_vec(
            "pwam_pe_batch_exits_budget_total",
            "Flat-dispatch batch exits caused by the slot's instruction budget running out (driver re-entries), per PE.",
            "pe",
        );
        let pe_batch_exits_park = registry.counter_vec(
            "pwam_pe_batch_exits_park_total",
            "Flat-dispatch batch exits caused by leaving the running state, per PE.",
            "pe",
        );
        let cancel_requests = registry
            .counter("pwam_cancel_requests_total", "cancel_goal requests posted for in-flight stolen goals.");
        let predicate_instructions = registry.counter_vec(
            "pwam_predicate_instructions_total",
            "Abstract-machine instructions attributed per predicate (flat dispatch only; \
             low-volume predicates fold into the `other` series).",
            "predicate",
        );
        let pool_max_queue_depth =
            registry.gauge("pwam_pool_max_queue_depth", "High-water mark of the pool's wait queue.");
        let cache_compiled_queries = registry
            .gauge("pwam_cache_compiled_queries", "Compiled queries currently cached across all programs.");
        ServerMetrics {
            registry,
            queue_wait_us,
            compile_us,
            execute_us,
            resume_us,
            request_us,
            query_preempted,
            connections,
            queries,
            protocol_errors,
            compile_errors,
            engine_errors,
            deadline_errors,
            fuel_errors,
            fuel_preemptions,
            quota_rejections,
            instructions,
            engine_micros,
            pool_busy_slots,
            pool_queue_depth,
            pool_max_queue_depth,
            cursors_parked,
            cache_programs,
            cache_compiled_queries,
            connections_active,
            tenants_active,
            pe_steal_attempts,
            pe_steals,
            pe_backoff_yields,
            pe_backoff_parks,
            pe_park_micros,
            pe_cancel_notices,
            pe_goals_aborted,
            pe_batch_exits_budget,
            pe_batch_exits_park,
            cancel_requests,
            predicate_instructions,
        }
    }

    /// Fold one completed run's engine statistics into the per-PE and
    /// per-predicate families.  Called on run completion — already a cold
    /// path next to arena recycling and response rendering.
    pub(crate) fn record_run(&self, stats: &RunStats) {
        for (pe, w) in stats.workers.iter().enumerate() {
            let pe = pe.to_string();
            let charge = |vec: &CounterVec, n: u64| {
                if n != 0 {
                    vec.add(&pe, n);
                }
            };
            charge(&self.pe_steal_attempts, w.steal_attempts);
            charge(&self.pe_steals, w.goals_stolen);
            charge(&self.pe_backoff_yields, w.backoff_yields);
            charge(&self.pe_backoff_parks, w.backoff_parks);
            charge(&self.pe_park_micros, w.park_micros);
            charge(&self.pe_cancel_notices, w.cancel_notices);
            charge(&self.pe_goals_aborted, w.goals_aborted);
            charge(&self.pe_batch_exits_budget, w.batch_exits_budget);
            charge(&self.pe_batch_exits_park, w.batch_exits_park);
        }
        if stats.cancel_requests != 0 {
            self.cancel_requests.add(stats.cancel_requests);
        }
        if !stats.predicate_profile.is_empty() {
            let known: HashSet<String> =
                self.predicate_instructions.snapshot().into_iter().map(|(k, _)| k).collect();
            let mut distinct = known.len();
            for (i, (name, count)) in stats.predicate_profile.iter().enumerate() {
                // The profile is sorted by decreasing count, so the head is
                // the run's top predicates; everything past the per-run cap
                // (or past the global cardinality cap) folds into `other`.
                let head = i < PROFILE_TOP_PER_RUN;
                let fits = known.contains(name) || distinct < PROFILE_MAX_SERIES;
                if head && fits {
                    if !known.contains(name) {
                        distinct += 1;
                    }
                    self.predicate_instructions.add(name, *count);
                } else {
                    self.predicate_instructions.add("other", *count);
                }
            }
        }
    }

    /// Render the full exposition — the one path behind the `metrics` verb
    /// and `Server::metrics_text`.  Cursors idle past their deadline are
    /// swept first, so no reader counts one as parked; then the gauges take
    /// their readings.
    pub(crate) fn render(&self, state: &ServerState) -> String {
        sweep_idle_cursors(state);
        self.pool_busy_slots.set(state.pool.busy_slots() as u64);
        self.pool_queue_depth.set(state.pool.queue_depth() as u64);
        self.pool_max_queue_depth.set(state.pool.max_queue_depth() as u64);
        self.cursors_parked.set(state.cursors.parked() as u64);
        self.cache_programs.set(state.cache.programs() as u64);
        self.cache_compiled_queries.set(state.cache.compiled_queries() as u64);
        self.connections_active.set(state.connections_active.load(Ordering::Relaxed));
        self.tenants_active.replace(state.tenants.active_snapshot());
        self.registry.render()
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// A bounded ring buffer of query lifecycle events, rendered as one
/// timestamped line per event (newest last):
///
/// ```text
/// <millis-since-start> <event> key=value ...
/// ```
///
/// Events: `query` (one-shot query completed), `open` / `resume` /
/// `close` / `evict` (cursor lifecycle).  The ring holds the last
/// [`FLIGHT_RECORDER_CAP`] events; older ones fall off the front.  One
/// mutex guards the ring — event recording happens once per *request*,
/// not per instruction, so contention is bounded by request throughput.
pub(crate) struct FlightRecorder {
    epoch: Instant,
    cap: usize,
    ring: Mutex<VecDeque<String>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` events.
    pub(crate) fn new(cap: usize) -> Self {
        FlightRecorder { epoch: Instant::now(), cap, ring: Mutex::new(VecDeque::new()) }
    }

    /// Append one event line, evicting the oldest when full.  `detail` is
    /// free-form `key=value` pairs; it must not contain newlines.
    pub(crate) fn record(&self, event: &str, detail: &str) {
        let t_ms = self.epoch.elapsed().as_millis();
        let line =
            if detail.is_empty() { format!("{t_ms} {event}") } else { format!("{t_ms} {event} {detail}") };
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(line);
    }

    /// The newest `limit` events (all of them when `None`), oldest first,
    /// one per line.
    pub(crate) fn render(&self, limit: Option<u64>) -> String {
        let ring = self.ring.lock().unwrap();
        let take = limit.map(|l| l as usize).unwrap_or(ring.len()).min(ring.len());
        let mut out = String::new();
        for line in ring.iter().skip(ring.len() - take) {
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn metrics() -> ServerMetrics {
        ServerMetrics::new(
            &EnginePool::new(Default::default()),
            &ProgramCache::new(1),
            &CursorTable::new(Duration::ZERO, 1),
            &TenantTable::new(0),
        )
    }

    #[test]
    fn flight_recorder_ring_evicts_oldest() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record("query", &format!("n={i}"));
        }
        let all = fr.render(None);
        let lines: Vec<&str> = all.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("n=2"), "oldest surviving event: {all}");
        assert!(lines[2].contains("n=4"), "newest event last: {all}");
    }

    #[test]
    fn flight_recorder_limit_takes_newest() {
        let fr = FlightRecorder::new(8);
        for i in 0..4 {
            fr.record("open", &format!("cursor={i}"));
        }
        let two = fr.render(Some(2));
        assert_eq!(two.lines().count(), 2);
        assert!(two.contains("cursor=2") && two.contains("cursor=3"), "{two}");
        // A limit beyond the ring size returns everything.
        assert_eq!(fr.render(Some(100)).lines().count(), 4);
        // Zero yields an empty (but valid) body.
        assert_eq!(fr.render(Some(0)), "");
    }

    #[test]
    fn record_run_folds_pe_and_predicate_series() {
        use rapwam::WorkerStats;
        let m = metrics();
        let stats = RunStats {
            cancel_requests: 2,
            workers: vec![
                WorkerStats { steal_attempts: 7, goals_stolen: 3, ..Default::default() },
                WorkerStats { steal_attempts: 4, park_micros: 500, ..Default::default() },
            ],
            predicate_profile: vec![("app/3".to_string(), 90), ("nrev/2".to_string(), 10)],
            ..Default::default()
        };
        m.record_run(&stats);
        m.record_run(&stats);
        let pe: Vec<(String, u64)> = m.pe_steal_attempts.snapshot();
        assert_eq!(pe, vec![("0".to_string(), 14), ("1".to_string(), 8)]);
        assert_eq!(m.pe_steals.snapshot(), vec![("0".to_string(), 6)]);
        assert_eq!(m.pe_park_micros.snapshot(), vec![("1".to_string(), 1000)]);
        assert_eq!(m.cancel_requests.get(), 4);
        let preds = m.predicate_instructions.snapshot();
        assert_eq!(preds, vec![("app/3".to_string(), 180), ("nrev/2".to_string(), 20)]);
    }

    #[test]
    fn predicate_profile_tail_folds_into_other() {
        let m = metrics();
        // A profile longer than the per-run cap: the head is charged by
        // name, the tail lands on `other`.
        let profile: Vec<(String, u64)> =
            (0..PROFILE_TOP_PER_RUN + 5).map(|i| (format!("p{i}/1"), 100 - i as u64)).collect();
        let stats = RunStats { predicate_profile: profile, ..Default::default() };
        m.record_run(&stats);
        let preds = m.predicate_instructions.snapshot();
        let other = preds.iter().find(|(k, _)| k == "other").map(|(_, v)| *v).unwrap_or(0);
        let expected_other: u64 =
            (PROFILE_TOP_PER_RUN..PROFILE_TOP_PER_RUN + 5).map(|i| 100 - i as u64).sum();
        assert_eq!(other, expected_other);
        assert_eq!(preds.len(), PROFILE_TOP_PER_RUN + 1);
    }
}
