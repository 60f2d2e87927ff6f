//! Process-wide metrics registry: counters, gauges and log-scale
//! histograms.
//!
//! The registry is the always-on complement to the per-environment
//! [`TraceSink`](crate::trace::TraceSink): where a sink sees individual
//! stage reports of one environment, the registry aggregates across every
//! environment in the process — the view a long-running server would export
//! to its monitoring system. Three instrument kinds:
//!
//! * [`Counter`] — monotonically increasing `u64` (stages run, records
//!   processed, morsels stolen, worker crashes);
//! * [`Gauge`] — an `f64` that can be set or accumulated (total simulated
//!   recovery seconds);
//! * [`Histogram`] — log₂-bucketed distribution with `p50`/`p95`/`p99`
//!   quantile estimates (stage latencies, operator cardinalities). Buckets
//!   are powers of two, so the quantiles are upper bounds accurate to 2×,
//!   which is the conventional trade-off for lock-free histograms.
//!
//! All updates are relaxed atomics — no locks are taken on the hot path.
//! Instrument lookup by name takes a read lock once; callers on hot paths
//! keep the returned `Arc` (see [`stage_telemetry`]). A snapshot renders
//! the whole registry as a JSON document via [`JsonValue`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::json::JsonValue;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// An `f64` instrument that can be set or accumulated.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge (lock-free compare-and-swap loop).
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Number of log₂ buckets per histogram. Bucket `i` covers
/// `[2^(i-32), 2^(i-32+1))`, so the representable range spans `2^-32`
/// (sub-nanosecond latencies) to `2^31` (billions of rows).
pub const HISTOGRAM_BUCKETS: usize = 64;
const HISTOGRAM_BUCKET_OFFSET: i32 = 32;

/// A log-scale histogram with lock-free recording and quantile estimates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl Histogram {
    fn bucket_index(value: f64) -> usize {
        if !value.is_finite() || value <= 0.0 {
            return 0;
        }
        (value.log2().floor() as i32 + HISTOGRAM_BUCKET_OFFSET).clamp(0, 63) as usize
    }

    /// Upper bound of bucket `index` — what quantile estimates report.
    fn bucket_upper(index: usize) -> f64 {
        2.0f64.powi(index as i32 - HISTOGRAM_BUCKET_OFFSET + 1)
    }

    /// Records one observation. Non-finite and non-positive values land in
    /// the underflow bucket (they still count toward `count`, not `sum`).
    pub fn observe(&self, value: f64) {
        self.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() && value > 0.0 {
            let mut current = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(current) + value).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    current,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => current = actual,
                }
            }
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite positive observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// `q`-quantile observation (accurate to one power of two). Returns 0.0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return if index == 0 {
                    0.0
                } else {
                    Histogram::bucket_upper(index)
                };
            }
        }
        Histogram::bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A named collection of instruments. Instruments are created on first use
/// and live for the registry's lifetime; updates through the returned
/// `Arc`s are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().unwrap().get(name) {
        return found.clone();
    }
    map.write()
        .unwrap()
        .entry(name.to_string())
        .or_default()
        .clone()
}

impl MetricsRegistry {
    /// Creates an empty registry. Most callers want [`MetricsRegistry::global`].
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-wide registry every operator, the morsel pool and the
    /// fault machinery report into.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Zeroes every instrument, keeping the names (and every `Arc` handed
    /// out) alive. Benchmark harnesses call this between runs.
    pub fn reset(&self) {
        for counter in self.counters.read().unwrap().values() {
            counter.reset();
        }
        for gauge in self.gauges.read().unwrap().values() {
            gauge.reset();
        }
        for histogram in self.histograms.read().unwrap().values() {
            histogram.reset();
        }
    }

    /// The whole registry as a JSON document:
    /// `{"counters": {..}, "gauges": {..},
    ///   "histograms": {name: {count, sum, p50, p95, p99}}}`.
    pub fn snapshot(&self) -> JsonValue {
        let counters: Vec<(String, JsonValue)> = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(name, counter)| (name.clone(), JsonValue::Number(counter.get() as f64)))
            .collect();
        let gauges: Vec<(String, JsonValue)> = self
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(name, gauge)| (name.clone(), JsonValue::Number(gauge.get())))
            .collect();
        let histograms: Vec<(String, JsonValue)> = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(name, histogram)| {
                (
                    name.clone(),
                    JsonValue::object(vec![
                        ("count", JsonValue::Number(histogram.count() as f64)),
                        ("sum", JsonValue::Number(histogram.sum())),
                        ("p50", JsonValue::Number(histogram.quantile(0.50))),
                        ("p95", JsonValue::Number(histogram.quantile(0.95))),
                        ("p99", JsonValue::Number(histogram.quantile(0.99))),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            (
                "counters".to_string(),
                JsonValue::Object(counters.into_iter().collect()),
            ),
            (
                "gauges".to_string(),
                JsonValue::Object(gauges.into_iter().collect()),
            ),
            (
                "histograms".to_string(),
                JsonValue::Object(histograms.into_iter().collect()),
            ),
        ])
    }
}

/// Pre-interned handles for the per-stage instruments, so the stage funnel
/// ([`ExecutionEnvironment::submit_report`](crate::ExecutionEnvironment))
/// updates pure atomics without any name lookup.
pub(crate) struct StageTelemetry {
    pub stages: Arc<Counter>,
    pub records_in: Arc<Counter>,
    pub records_out: Arc<Counter>,
    pub bytes_shuffled: Arc<Counter>,
    pub bytes_spilled: Arc<Counter>,
    pub morsels: Arc<Counter>,
    pub stolen_morsels: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub batch_rows: Arc<Counter>,
    pub batch_rows_selected: Arc<Counter>,
    pub recovery_attempts: Arc<Counter>,
    pub scratch_allocations: Arc<Counter>,
    pub stage_seconds: Arc<Histogram>,
    pub stage_records_out: Arc<Histogram>,
    pub peak_memory_bytes: Arc<Gauge>,
}

pub(crate) fn stage_telemetry() -> &'static StageTelemetry {
    static HANDLES: OnceLock<StageTelemetry> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let registry = MetricsRegistry::global();
        StageTelemetry {
            stages: registry.counter("dataflow.stages"),
            records_in: registry.counter("dataflow.records_in"),
            records_out: registry.counter("dataflow.records_out"),
            bytes_shuffled: registry.counter("dataflow.bytes_shuffled"),
            bytes_spilled: registry.counter("dataflow.bytes_spilled"),
            morsels: registry.counter("dataflow.morsels"),
            stolen_morsels: registry.counter("dataflow.stolen_morsels"),
            batches: registry.counter("dataflow.batches"),
            batch_rows: registry.counter("dataflow.batch_rows"),
            batch_rows_selected: registry.counter("dataflow.batch_rows_selected"),
            recovery_attempts: registry.counter("dataflow.recovery_attempts"),
            scratch_allocations: registry.counter("dataflow.scratch_allocations"),
            stage_seconds: registry.histogram("dataflow.stage_seconds"),
            stage_records_out: registry.histogram("dataflow.stage_records_out"),
            peak_memory_bytes: registry.gauge("dataflow.peak_memory_bytes"),
        }
    })
}

/// Pre-interned handle for the morsels the worker pool really executed —
/// distinct from the deterministic simulated schedule reported in
/// [`StageReport`](crate::StageReport).
pub(crate) struct PoolTelemetry {
    pub tasks: Arc<Counter>,
}

pub(crate) fn pool_telemetry() -> &'static PoolTelemetry {
    static HANDLES: OnceLock<PoolTelemetry> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let registry = MetricsRegistry::global();
        PoolTelemetry {
            tasks: registry.counter("pool.tasks"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let registry = MetricsRegistry::new();
        registry.counter("a").add(2);
        registry.counter("a").add(3);
        assert_eq!(registry.counter("a").get(), 5);
        registry.gauge("g").add(1.5);
        registry.gauge("g").add(0.25);
        assert!((registry.gauge("g").get() - 1.75).abs() < 1e-12);
        registry.gauge("g").set(7.0);
        assert_eq!(registry.gauge("g").get(), 7.0);
    }

    #[test]
    fn histogram_quantiles_bound_the_distribution() {
        let histogram = Histogram::default();
        for _ in 0..90 {
            histogram.observe(0.004); // bucket [2^-8, 2^-7)
        }
        for _ in 0..10 {
            histogram.observe(3.0); // bucket [2, 4)
        }
        assert_eq!(histogram.count(), 100);
        assert!((histogram.sum() - (90.0 * 0.004 + 30.0)).abs() < 1e-9);
        // p50 falls in the small bucket: upper bound 2^-7.
        assert_eq!(histogram.quantile(0.50), 2.0f64.powi(-7));
        // p95 and p99 fall in the [2, 4) bucket: upper bound 4.
        assert_eq!(histogram.quantile(0.95), 4.0);
        assert_eq!(histogram.quantile(0.99), 4.0);
    }

    #[test]
    fn histogram_handles_degenerate_values() {
        let histogram = Histogram::default();
        assert_eq!(histogram.quantile(0.5), 0.0);
        histogram.observe(0.0);
        histogram.observe(-3.0);
        histogram.observe(f64::NAN);
        histogram.observe(f64::INFINITY);
        assert_eq!(histogram.count(), 4);
        assert_eq!(histogram.sum(), 0.0);
        assert_eq!(histogram.quantile(0.99), 0.0);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("hits");
        let histogram = registry.histogram("lat");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                let histogram = histogram.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        counter.add(1);
                        histogram.observe((i % 7) as f64 + 0.5);
                    }
                });
            }
        });
        assert_eq!(counter.get(), 8000);
        assert_eq!(histogram.count(), 8000);
    }

    #[test]
    fn snapshot_renders_and_parses() {
        let registry = MetricsRegistry::new();
        registry.counter("dataflow.stages").add(3);
        registry.gauge("fault.recovery_seconds_total").add(0.5);
        registry.histogram("dataflow.stage_seconds").observe(0.01);
        let snapshot = registry.snapshot();
        let parsed = JsonValue::parse(&snapshot.to_json()).expect("snapshot parses");
        assert!(parsed.semantically_eq(&snapshot));
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("dataflow.stages"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
        let histogram = parsed
            .get("histograms")
            .and_then(|h| h.get("dataflow.stage_seconds"))
            .expect("histogram entry");
        assert_eq!(
            histogram.get("count").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert!(histogram.get("p99").and_then(JsonValue::as_f64).unwrap() >= 0.01);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_alive() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("c");
        counter.add(9);
        registry.histogram("h").observe(1.0);
        registry.reset();
        assert_eq!(counter.get(), 0);
        assert_eq!(registry.histogram("h").count(), 0);
        counter.add(1);
        assert_eq!(registry.counter("c").get(), 1);
    }

    #[test]
    fn running_a_stage_feeds_the_global_registry() {
        use crate::env::{ExecutionConfig, ExecutionEnvironment};
        let stages_before = MetricsRegistry::global().counter("dataflow.stages").get();
        let env = ExecutionEnvironment::new(ExecutionConfig::with_workers(2));
        let _ = env.from_collection(0u64..10).map(|x| x + 1).count();
        let stages_after = MetricsRegistry::global().counter("dataflow.stages").get();
        assert!(
            stages_after >= stages_before + 2,
            "map + count stages recorded"
        );
    }
}
