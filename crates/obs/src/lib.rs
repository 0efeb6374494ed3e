//! Lock-free metrics plane for the RAP-WAM serving stack.
//!
//! The source paper's whole methodology is measurement, and a serving tier
//! needs the same discipline at runtime: this crate is the registry behind
//! the server's `metrics` verb.  It is deliberately dependency-free (the
//! build environment has no crates.io access) and deliberately small:
//!
//! * [`Counter`] — monotonically increasing `AtomicU64`.
//! * [`Gauge`] — a settable `AtomicU64` snapshot value.
//! * [`Histogram`] — fixed-bucket log₂ latency histogram: bucket `i` counts
//!   observations `v` with `v <= 2^i` (cumulative rendering follows the
//!   Prometheus `le` convention).  Observation is two relaxed atomic adds
//!   and a `leading_zeros`; there is no allocation and no locking.
//! * [`CounterVec`] — a labelled family of counters (one label key, dynamic
//!   label values), used for per-PE scheduler telemetry and per-predicate
//!   instruction attribution.
//! * [`Registry`] — owns the families in registration order and renders
//!   Prometheus-style text exposition.
//!
//! Hot paths never talk to the registry: the engine accumulates
//! worker-local counts (like its per-PE reference counts) and the server folds finished-run statistics into these
//! atomics once per query.  The registry lock is only taken to register a
//! family, to materialise a new label value, and to render.

#![warn(unreachable_pub)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of finite histogram buckets.  Upper bounds are `2^0 .. 2^30`;
/// everything above the last finite bound lands in the `+Inf` bucket.  With
/// microsecond observations the finite range tops out around 18 minutes,
/// far beyond any server deadline.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.  All updates are relaxed atomic
/// adds; totals are exact because `fetch_add` never loses increments.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A snapshot value: unlike a counter it can move down.  The serving layer
/// sets pool/cursor gauges from their owning structures immediately before
/// rendering, so a gauge is just a published `u64`.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Publish a new value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log₂ histogram.
///
/// Bucket `i` (for `i < HISTOGRAM_BUCKETS - 1`) covers observations with
/// `v <= 2^i`; the final bucket is `+Inf`.  Buckets are stored
/// non-cumulatively and summed at render time, so `observe` touches exactly
/// one bucket plus the `sum`/`count` pair — three relaxed `fetch_add`s.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index an observation falls into: the smallest `i` with
    /// `v <= 2^i`, capped at the `+Inf` bucket.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        // ceil(log2(v)) for v >= 1; 0 and 1 both land in the first bucket.
        let i = (64 - v.saturating_sub(1).leading_zeros()) as usize;
        i.min(HISTOGRAM_BUCKETS - 1)
    }

    /// The inclusive upper bound of finite bucket `i` (`2^i`).
    pub fn bucket_bound(i: usize) -> u64 {
        1u64 << i
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-cumulative per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// The percentile logic of [`ParsedHistogram::percentile_bound`]: the
/// bound of the bucket holding the `p`-th percentile of the
/// (non-cumulative) `counts`.
fn percentile_bound_of(counts: &[u64], p: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(Histogram::bucket_bound(i.min(HISTOGRAM_BUCKETS - 2)));
        }
    }
    Some(Histogram::bucket_bound(HISTOGRAM_BUCKETS - 2))
}

/// A labelled family of counters sharing one label key.  Label values are
/// materialised on first use; the internal map is only locked to look a
/// handle up, never while counting (callers hold the returned `Arc`).
#[derive(Debug)]
pub struct CounterVec {
    label: &'static str,
    series: Mutex<HashMap<String, Arc<Counter>>>,
}

impl CounterVec {
    pub fn new(label: &'static str) -> Self {
        Self { label, series: Mutex::new(HashMap::new()) }
    }

    /// The label key this family varies over.
    pub(crate) fn label(&self) -> &'static str {
        self.label
    }

    /// The counter for `value`, created at zero on first use.
    pub fn with(&self, value: &str) -> Arc<Counter> {
        let mut series = self.series.lock().unwrap();
        if let Some(c) = series.get(value) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        series.insert(value.to_string(), Arc::clone(&c));
        c
    }

    /// Convenience: add `n` to the counter for `value`.
    pub fn add(&self, value: &str, n: u64) {
        self.with(value).add(n);
    }

    /// Snapshot of all `(label value, total)` pairs, sorted by label value.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let series = self.series.lock().unwrap();
        let mut out: Vec<(String, u64)> = series.iter().map(|(k, v)| (k.clone(), v.get())).collect();
        out.sort();
        out
    }
}

/// A labelled family of gauges sharing one label key — the gauge analogue
/// of [`CounterVec`], used for per-tenant in-flight query gauges.  Unlike a
/// counter family, a gauge family can *forget* label values ([`GaugeVec::
/// retain`]): a tenant that has gone idle should drop out of the
/// exposition rather than exporting a stale `0` forever.
#[derive(Debug)]
pub struct GaugeVec {
    label: &'static str,
    series: Mutex<HashMap<String, Arc<Gauge>>>,
}

impl GaugeVec {
    pub(crate) fn new(label: &'static str) -> Self {
        Self { label, series: Mutex::new(HashMap::new()) }
    }

    /// The label key this family varies over.
    pub(crate) fn label(&self) -> &'static str {
        self.label
    }

    /// Replace the whole family with `entries` (label values absent from
    /// `entries` are dropped).  The owner calls this immediately before
    /// rendering, mirroring whatever structure holds the truth.
    pub fn replace(&self, entries: impl IntoIterator<Item = (String, u64)>) {
        let mut series = self.series.lock().unwrap();
        series.clear();
        for (value, v) in entries {
            let g = Arc::new(Gauge::new());
            g.set(v);
            series.insert(value, g);
        }
    }

    /// Snapshot of all `(label value, value)` pairs, sorted by label value.
    pub(crate) fn snapshot(&self) -> Vec<(String, u64)> {
        let series = self.series.lock().unwrap();
        let mut out: Vec<(String, u64)> = series.iter().map(|(k, v)| (k.clone(), v.get())).collect();
        out.sort();
        out
    }
}

enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterVec(Arc<CounterVec>),
    GaugeVec(Arc<GaugeVec>),
}

struct Family {
    name: &'static str,
    help: &'static str,
    series: Series,
}

impl Family {
    fn kind(&self) -> &'static str {
        match self.series {
            Series::Counter(_) | Series::CounterVec(_) => "counter",
            Series::Gauge(_) | Series::GaugeVec(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

/// The metric registry: families in registration order, rendered as
/// Prometheus-style text exposition.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register and return a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.adopt_counter(name, help, Arc::clone(&c));
        c
    }

    /// Register a counter its owner created: the subsystem that counts holds
    /// the handle it increments, and the exposition reads that same atomic.
    pub fn adopt_counter(&self, name: &'static str, help: &'static str, counter: Arc<Counter>) {
        self.push(name, help, Series::Counter(counter));
    }

    /// Register and return a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.push(name, help, Series::Gauge(Arc::clone(&g)));
        g
    }

    /// Register and return a histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.push(name, help, Series::Histogram(Arc::clone(&h)));
        h
    }

    /// Register and return a labelled counter family.
    pub fn counter_vec(
        &self,
        name: &'static str,
        help: &'static str,
        label: &'static str,
    ) -> Arc<CounterVec> {
        let v = Arc::new(CounterVec::new(label));
        self.push(name, help, Series::CounterVec(Arc::clone(&v)));
        v
    }

    /// Register and return a labelled gauge family.
    pub fn gauge_vec(&self, name: &'static str, help: &'static str, label: &'static str) -> Arc<GaugeVec> {
        let v = Arc::new(GaugeVec::new(label));
        self.push(name, help, Series::GaugeVec(Arc::clone(&v)));
        v
    }

    fn push(&self, name: &'static str, help: &'static str, series: Series) {
        let mut families = self.families.lock().unwrap();
        debug_assert!(!families.iter().any(|f| f.name == name), "metric {name} registered twice");
        families.push(Family { name, help, series });
    }

    /// Render the whole registry as Prometheus-style text exposition:
    /// `# HELP` / `# TYPE` headers per family, `_bucket{le=...}` /
    /// `_sum` / `_count` triples for histograms, one line per label value
    /// for counter families, families in registration order.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for f in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind());
            match &f.series {
                Series::Counter(c) => {
                    let _ = writeln!(out, "{} {}", f.name, c.get());
                }
                Series::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", f.name, g.get());
                }
                Series::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cumulative += c;
                        if i == HISTOGRAM_BUCKETS - 1 {
                            let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", f.name, cumulative);
                        } else {
                            let _ = writeln!(
                                out,
                                "{}_bucket{{le=\"{}\"}} {}",
                                f.name,
                                Histogram::bucket_bound(i),
                                cumulative
                            );
                        }
                    }
                    let _ = writeln!(out, "{}_sum {}", f.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", f.name, h.count());
                }
                Series::CounterVec(v) => {
                    for (value, total) in v.snapshot() {
                        let _ = writeln!(
                            out,
                            "{}{{{}=\"{}\"}} {}",
                            f.name,
                            v.label(),
                            escape_label_value(&value),
                            total
                        );
                    }
                }
                Series::GaugeVec(v) => {
                    for (value, current) in v.snapshot() {
                        let _ = writeln!(
                            out,
                            "{}{{{}=\"{}\"}} {}",
                            f.name,
                            v.label(),
                            escape_label_value(&value),
                            current
                        );
                    }
                }
            }
        }
        out
    }
}

/// Escape a label value for exposition: backslash, double quote, newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Parse one series value back out of rendered exposition text: the first
/// sample line whose name-plus-labels prefix matches `series` exactly.
/// This is what the load generator and CI smoke checks use to cross-check
/// server-side numbers without a Prometheus client library.
pub fn parse_sample(text: &str, series: &str) -> Option<u64> {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ')?;
        if name == series {
            return value.parse().ok();
        }
    }
    None
}

/// Sum every sample of `family{label=...}` across label values (ignores
/// `# HELP`/`# TYPE` lines).  Used to assert "some PE stole work" without
/// caring which one.
pub fn sum_family(text: &str, family: &str) -> u64 {
    let prefix = format!("{family}{{");
    let mut total = 0u64;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.rsplit_once(' ') else { continue };
        if name == family || name.starts_with(&prefix) {
            total += value.parse::<u64>().unwrap_or(0);
        }
    }
    total
}

/// One histogram family parsed back out of an exposition: per-bucket
/// (non-cumulative) counts in the same layout a live [`Histogram`] keeps,
/// so a scraper can difference two scrapes and ask percentile questions of
/// the window between them.
#[derive(Debug, Clone, Default)]
pub struct ParsedHistogram {
    /// Non-cumulative per-bucket counts, `HISTOGRAM_BUCKETS` long.
    pub(crate) counts: Vec<u64>,
    /// The family's `_sum` sample.
    pub sum: u64,
    /// The family's `_count` sample.
    pub count: u64,
}

impl ParsedHistogram {
    /// The observations this scrape saw that an `earlier` scrape of the
    /// same family had not (bucket-wise saturating difference).
    pub fn since(&self, earlier: &ParsedHistogram) -> ParsedHistogram {
        ParsedHistogram {
            counts: self
                .counts
                .iter()
                .zip(earlier.counts.iter().chain(std::iter::repeat(&0)))
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// The upper bound (in observed units) of the bucket containing the
    /// `p`-th percentile observation (`p` in `0..=100`), or `None` if there
    /// are no observations.  The final bucket reports the last finite bound.
    ///
    /// Log₂ buckets bound any percentile to within a factor of two, which
    /// is exactly the resolution the load generator's cross-check needs.
    pub fn percentile_bound(&self, p: f64) -> Option<u64> {
        percentile_bound_of(&self.counts, p)
    }
}

/// Parse one histogram family out of an exposition produced by
/// [`Registry::render`].  Returns `None` when the family (or any expected
/// sample) is missing.  Cumulative `_bucket` samples are converted back to
/// the per-bucket counts [`ParsedHistogram`] holds.
pub fn parse_histogram(text: &str, family: &str) -> Option<ParsedHistogram> {
    let mut cumulative = vec![None; HISTOGRAM_BUCKETS];
    let prefix = format!("{family}_bucket{{le=\"");
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let (le, value) = rest.split_once("\"} ")?;
        let idx = if le == "+Inf" {
            HISTOGRAM_BUCKETS - 1
        } else {
            let bound: u64 = le.parse().ok()?;
            if !bound.is_power_of_two() {
                return None;
            }
            (bound.trailing_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        cumulative[idx] = Some(value.parse::<u64>().ok()?);
    }
    let mut counts = Vec::with_capacity(HISTOGRAM_BUCKETS);
    let mut prev = 0u64;
    for c in cumulative {
        let c = c?;
        counts.push(c.saturating_sub(prev));
        prev = c;
    }
    Some(ParsedHistogram {
        counts,
        sum: parse_sample(text, &format!("{family}_sum"))?,
        count: parse_sample(text, &format!("{family}_count"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_round_trips_through_the_exposition() {
        let registry = Registry::new();
        let h = registry.histogram("rt_us", "round-trip test");
        for v in [1, 3, 3, 100, 5000] {
            h.observe(v);
        }
        let parsed = parse_histogram(&registry.render(), "rt_us").expect("family present");
        assert_eq!(parsed.counts, h.bucket_counts().to_vec());
        assert_eq!(parsed.sum, h.sum());
        assert_eq!(parsed.count, h.count());
        assert_eq!(parsed.percentile_bound(50.0), percentile_bound_of(&h.bucket_counts(), 50.0));
        assert_eq!(parsed.percentile_bound(99.0), percentile_bound_of(&h.bucket_counts(), 99.0));
        // A window delta against an earlier scrape isolates the new
        // observations.
        let earlier = parsed.clone();
        h.observe(1 << 20);
        let later = parse_histogram(&registry.render(), "rt_us").unwrap();
        let window = later.since(&earlier);
        assert_eq!(window.count, 1);
        assert_eq!(window.percentile_bound(50.0), Some(1 << 20));
        assert!(parse_histogram(&registry.render(), "absent_us").is_none());
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_percentile_bounds() {
        let h = Histogram::new();
        assert_eq!(percentile_bound_of(&h.bucket_counts(), 50.0), None);
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        // p50 of {1,2,3,100,1000}: rank 3 → value 3 → bucket le=4.
        assert_eq!(percentile_bound_of(&h.bucket_counts(), 50.0), Some(4));
        // p99: rank 5 → value 1000 → bucket le=1024.
        assert_eq!(percentile_bound_of(&h.bucket_counts(), 99.0), Some(1024));
    }

    #[test]
    fn vec_materialises_on_first_use() {
        let v = CounterVec::new("pe");
        v.add("1", 2);
        v.add("0", 1);
        v.with("1").inc();
        assert_eq!(v.snapshot(), vec![("0".to_string(), 1), ("1".to_string(), 3)]);
    }

    #[test]
    fn gauge_vec_replaces_and_renders() {
        let r = Registry::new();
        let v = r.gauge_vec("tenants_active", "Active queries per tenant.", "tenant");
        v.replace(vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        assert_eq!(v.snapshot(), vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        // `replace` mirrors the owning structure exactly: the idle tenant
        // `b` disappears from the exposition instead of exporting 0.
        v.replace(vec![("a".to_string(), 3)]);
        let text = r.render();
        assert_eq!(parse_sample(&text, "tenants_active{tenant=\"a\"}"), Some(3));
        assert_eq!(parse_sample(&text, "tenants_active{tenant=\"b\"}"), None);
        assert!(text.contains("# TYPE tenants_active gauge"), "{text}");
    }

    #[test]
    fn parse_sample_reads_rendered_text() {
        let r = Registry::new();
        let c = r.counter("x_total", "X.");
        c.add(5);
        let v = r.counter_vec("y_total", "Y.", "pe");
        v.add("0", 2);
        v.add("1", 3);
        let text = r.render();
        assert_eq!(parse_sample(&text, "x_total"), Some(5));
        assert_eq!(parse_sample(&text, "y_total{pe=\"1\"}"), Some(3));
        assert_eq!(sum_family(&text, "y_total"), 5);
        assert_eq!(parse_sample(&text, "missing"), None);
    }

    #[test]
    fn an_adopted_counter_is_the_one_its_owner_increments() {
        let owned = Arc::new(Counter::new());
        owned.add(3);
        let r = Registry::new();
        r.adopt_counter("owned_total", "Counted elsewhere.", Arc::clone(&owned));
        assert_eq!(parse_sample(&r.render(), "owned_total"), Some(3));
        owned.inc();
        let text = r.render();
        assert_eq!(parse_sample(&text, "owned_total"), Some(4));
        assert!(
            text.contains("# HELP owned_total Counted elsewhere.\n# TYPE owned_total counter\n"),
            "{text}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
