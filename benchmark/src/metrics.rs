//! The metric names this benchmark defines, and the result line.
//!
//! `BENCHMARK.json` declares the same names (a unit test holds the two
//! lists equal); a run that sets a name not declared here, or leaves a
//! declared one unset, stops before it prints a result.

use serde_json::Value;
use std::collections::BTreeMap;

/// A metric's name and unit; its direction and regression bound are
/// recorded in `BENCHMARK.json` only.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees.  `failed_share` of the issue is carried
/// by the result line's `failed` / `attempted` (and by the layer metric
/// `client.failed_share`): the driver's contract wants end-to-end metrics
/// that are never 0.
pub const END_TO_END: &[MetricDef] = &[
    m("op_p50_us", "us"),
    m("op_p90_us", "us"),
    m("ops_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// One row per layer metric; the prefix names the crate measured.
pub const PER_LAYER: &[MetricDef] = &[
    // pwam_front
    m("front.parse_program_us", "us"),
    m("front.parse_query_us", "us"),
    m("front.source_mb_per_s", "MB/s"),
    m("front.errors", "count"),
    // pwam_compiler
    m("compiler.compile_us", "us"),
    m("compiler.dense_build_us", "us"),
    m("compiler.code_len_instrs", "count"),
    m("compiler.dense_bytes", "bytes"),
    // rapwam: engine build and reset
    m("core.engine_build_cold_us.w1", "us"),
    m("core.engine_build_cold_us.w2", "us"),
    m("core.engine_build_cold_us.w4", "us"),
    m("core.engine_reset_warm_us.w1", "us"),
    m("core.engine_reset_warm_us.w2", "us"),
    // rapwam: dispatch
    m("core.run_us", "us"),
    m("core.mlips", "MLIPS"),
    m("core.instructions_per_op", "count"),
    m("core.dispatch_ns_per_instr.q1", "ns"),
    m("core.dispatch_ns_per_instr.q4096", "ns"),
    m("core.render_answer_us", "us"),
    // rapwam: memory
    m("core.refs_per_op", "count"),
    m("core.ns_per_ref.serial", "ns"),
    m("core.ns_per_ref.locked", "ns"),
    m("core.locked_mem_overhead_ratio", "ratio"),
    m("core.refs_global_share", "ratio"),
    m("core.refs_locked_share", "ratio"),
    // rapwam: scheduler
    m("core.relaxed_speedup.w2", "ratio"),
    m("core.steals_per_op", "count"),
    m("core.steal_attempts_per_op", "count"),
    m("core.steal_success_ratio", "ratio"),
    m("core.park_us_per_op", "us"),
    m("core.backoff_parks_per_op", "count"),
    m("core.parcalls_per_op", "count"),
    m("core.goals_actually_parallel_per_op", "count"),
    // rapwam: trace
    m("core.trace_overhead_ratio", "ratio"),
    m("core.trace_refs_per_s", "1/s"),
    // pwam_cachesim: host cost
    m("cachesim.simulate_us", "us"),
    m("cachesim.mrefs_per_s", "Mref/s"),
    m("cachesim.sweep_us", "us"),
    m("cachesim.sweep_parallel_efficiency", "ratio"),
    // pwam_cachesim: simulated results, which repeat exactly
    m("cachesim.traffic_ratio.write-thru", "ratio"),
    m("cachesim.traffic_ratio.broadcast", "ratio"),
    m("cachesim.traffic_ratio.wt-broadcast", "ratio"),
    m("cachesim.traffic_ratio.hybrid", "ratio"),
    m("cachesim.miss_ratio.write-thru", "ratio"),
    m("cachesim.miss_ratio.broadcast", "ratio"),
    m("cachesim.miss_ratio.wt-broadcast", "ratio"),
    m("cachesim.miss_ratio.hybrid", "ratio"),
    // pwam_server: protocol and event loop
    m("server.encode_request_us", "us"),
    m("server.decode_request_us", "us"),
    m("server.encode_response_us", "us"),
    m("server.decode_response_us", "us"),
    m("server.frame_io_us", "us"),
    m("server.loopback_ping_us", "us"),
    m("server.connect_us", "us"),
    // pwam_server: program cache and engine pool
    m("server.cache_hit_us", "us"),
    m("server.cache_miss_us", "us"),
    m("server.cache_hit_ratio", "ratio"),
    m("server.pool_acquire_us", "us"),
    m("server.pool_warm_ratio", "ratio"),
    m("server.rejections", "count"),
    m("server.queue_timeouts", "count"),
    m("server.protocol_errors", "count"),
    // pwam_server: scraped from the metrics verb around the timed windows
    m("server.queue_wait_us_mean", "us"),
    m("server.compile_us_mean", "us"),
    m("server.execute_us_mean", "us"),
    m("server.request_us_mean", "us"),
    m("server.request_unaccounted_share", "ratio"),
    // pwam_obs
    m("obs.observe_ns", "ns"),
    m("obs.render_us", "us"),
    // load generator
    m("client.op_p99_us", "us"),
    m("client.lateness_p90_us", "us"),
    m("client.max_ok_rps", "1/s"),
    m("client.open.100.p50_us", "us"),
    m("client.open.100.p90_us", "us"),
    m("client.open.200.p50_us", "us"),
    m("client.open.200.p90_us", "us"),
    m("client.open.300.p50_us", "us"),
    m("client.open.300.p90_us", "us"),
    m("client.deriv.p50_us", "us"),
    m("client.tak.p50_us", "us"),
    m("client.qsort.p50_us", "us"),
    m("client.matrix.p50_us", "us"),
    m("client.boyer.p50_us", "us"),
    m("client.queens.p50_us", "us"),
    m("client.fib.p50_us", "us"),
    m("client.samples", "count"),
    m("client.failed_share", "ratio"),
    // the ladder itself
    m("ladder.sum_us", "us"),
    m("ladder.residual_share", "ratio"),
    m("ladder.trace_overhead_share", "ratio"),
];

/// Values of one run, keyed by metric name.
pub struct Values {
    defs: &'static [MetricDef],
    values: BTreeMap<String, f64>,
}

impl Values {
    pub fn new(defs: &'static [MetricDef]) -> Values {
        Values { defs, values: BTreeMap::new() }
    }

    /// Record a measured value.  A metric that does not apply to the
    /// workload is recorded as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(self.defs.iter().any(|d| d.name == name), "metric {name} is not declared");
        assert!(value.is_finite(), "metric {name} is not finite");
        assert!(self.values.insert(name.to_string(), value).is_none(), "metric {name} set twice");
    }

    /// `{"name": {"value": v, "unit": u}, …}` with exactly the declared
    /// names, in declaration order.
    pub fn to_json(&self) -> Value {
        let missing: Vec<&str> =
            self.defs.iter().map(|d| d.name).filter(|n| !self.values.contains_key(*n)).collect();
        assert!(missing.is_empty(), "declared metrics left unset: {missing:?}");
        Value::Object(
            self.defs
                .iter()
                .map(|d| {
                    let entry = vec![
                        ("value".to_string(), Value::Float(self.values[d.name])),
                        ("unit".to_string(), Value::Str(d.unit.to_string())),
                    ];
                    (d.name.to_string(), Value::Object(entry))
                })
                .collect(),
        )
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Values) -> String {
    Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), metrics.to_json()),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("entry lacks {key}"))
    }

    /// The declared names and units are exactly those of
    /// `BENCHMARK.json`, no more and no fewer; since a run can only print
    /// declared names and must print all of them, so is the emitted JSON.
    #[test]
    fn declared_metrics_are_exactly_those_of_benchmark_json() {
        let doc = benchmark_json();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let ours: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(ours, declared, "{key}");
        }
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(ours, workloads);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(crate::cli::DEFAULT_SECONDS),
            "run_seconds is the CLI's default"
        );
    }

    #[test]
    fn the_result_line_holds_exactly_the_declared_names() {
        let mut values = Values::new(END_TO_END);
        for (i, def) in END_TO_END.iter().enumerate() {
            values.set(def.name, i as f64 + 0.5);
        }
        let line = result_line(true, 10, 0, &values);
        let doc = serde_json::from_str(&line).unwrap();
        let Some(Value::Object(metrics)) = doc.get("metrics") else { panic!("metrics object") };
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(10));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_name_is_refused() {
        Values::new(END_TO_END).set("latency_ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "left unset")]
    fn an_unset_name_is_refused() {
        Values::new(END_TO_END).to_json();
    }
}
