//! Per-model rolling serving statistics, rebased onto the
//! [`csp_telemetry`] registry.
//!
//! Counters (admitted / completed / failed / shed / expired / batches)
//! and the batch-size + latency histograms live in a **private**
//! [`Registry`] owned by the engine's `Stats` — shard-per-thread, so the
//! request path never contends on a stats lock for counter updates, and
//! the whole engine view can be exported as one versioned
//! [`csp_telemetry::Snapshot`] (the TCP `Telemetry` op).
//!
//! Every latency percentile comes from [`histogram_quantile`] over the
//! log-linear `serve.latency_us` histogram: [`LATENCY_SUB_BITS`] linear
//! sub-buckets per octave, so a reported percentile over-states its
//! sample by less than `2^-LATENCY_SUB_BITS`, and histograms from any
//! number of shards merge element-wise into the same percentiles. Only
//! the wall-clock QPS window, which needs `Instant`s, stays in a small
//! mutex-protected side table.

use csp_telemetry::{Histogram, Registry, Snapshot};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Linear sub-buckets per octave of the latency histogram, as a power of
/// two: every reported latency percentile is within a factor
/// `1 + 2^-LATENCY_SUB_BITS` (6.25%) above the sample it stands for.
pub const LATENCY_SUB_BITS: u32 = 4;

/// The largest latency bucket bound, in microseconds (~134 s); slower
/// samples land in the overflow bucket and read as this bound.
const LATENCY_MAX_US: u64 = 1 << 27;

/// Metric names written by the collector — the workspace-wide constants
/// from [`csp_telemetry::names`], so readers (benches, tests, remote
/// consumers) never drift from the writer.
#[rustfmt::skip]
mod metric {
    pub use csp_telemetry::names::{
        SERVE_ADMITTED as ADMITTED, SERVE_BATCHES as BATCHES,
        SERVE_BATCH_SIZE as BATCH_SIZE, SERVE_COMPLETED as COMPLETED,
        SERVE_DEDUP_HITS as DEDUP_HITS, SERVE_EXECUTION_BATCHES as EXECUTION_BATCHES,
        SERVE_EXPIRED as EXPIRED, SERVE_FAILED as FAILED, SERVE_LATENCY_US as LATENCY_US,
        SERVE_SHED as SHED, SERVE_WORKER_PANICS as WORKER_PANICS,
        SERVE_WORKER_RESTARTS as WORKER_RESTARTS,
    };
}

/// One model's QPS window (first admission → last completion), which a
/// registry snapshot cannot carry.
#[derive(Debug, Default)]
struct Window {
    first_admit: Option<Instant>,
    last_done: Option<Instant>,
    completed: u64,
}

/// An immutable snapshot of one model's serving stats.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Model name.
    pub model: String,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an execution error.
    pub failed: u64,
    /// Requests refused at admission (queue full / engine draining).
    pub shed: u64,
    /// Requests whose deadline expired before a worker reached them.
    pub expired: u64,
    /// Batches executed.
    pub batches: u64,
    /// `batch_hist[b]` = batches of size `b` (last bucket = "or larger").
    pub batch_hist: Vec<u64>,
    /// Median request latency (admission → response), microseconds. Like
    /// every percentile here, a histogram bucket bound less than a factor
    /// `1 + 2^-LATENCY_SUB_BITS` above the sample it stands for.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst latency, microseconds.
    pub max_us: u64,
    /// Completed requests per second over the active window (first
    /// admission → last completion).
    pub qps: f64,
}

/// The `q`-quantile of a bucketed histogram: the smallest bucket upper
/// bound whose cumulative count covers `ceil(q · total)` samples (the
/// overflow bucket reports the last finite bound, saturated).
///
/// It depends only on the bucket counts — and [`Histogram::merge`] is a
/// commutative element-wise sum — so the quantile of a merge equals the
/// quantile of the union of samples, however they were sharded. That
/// property is what makes the sharded engine's reported p50/p99
/// **shard-count-invariant** (`tests` pin merged ≡ single-shard). Over
/// the serving latency histogram the result is at least the exact
/// `ceil(q · total)`-th smallest sample and less than
/// `1 + 2^-LATENCY_SUB_BITS` times it.
pub fn histogram_quantile(h: &Histogram, q: f64) -> u64 {
    let total = h.total();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let bounds = h.bounds();
    let mut seen = 0u64;
    for (i, &c) in h.counts().iter().enumerate() {
        seen += c;
        if seen >= rank {
            // counts[i] covers samples ≤ bounds[i]; the final slot is the
            // overflow bucket (> last bound), reported saturated at the
            // last finite bound.
            return match bounds.get(i) {
                Some(&b) => b,
                None => bounds.last().copied().unwrap_or(0),
            };
        }
    }
    bounds.last().copied().unwrap_or(0)
}

impl StatsSnapshot {
    /// Rebuild a per-model snapshot from a (possibly merged) telemetry
    /// [`Snapshot`] — the aggregation path of the sharded engine.
    ///
    /// Counters come straight from the merged counters; latency
    /// percentiles come from the merged `serve.latency_us` histogram via
    /// [`histogram_quantile`], so they are invariant to how the load was
    /// split across shards. `qps` is not derivable from a snapshot (no
    /// wall clock) and is left 0 for the caller to fill.
    pub fn from_telemetry(reg: &Snapshot, model: &str, max_batch: usize) -> StatsSnapshot {
        let max_batch = max_batch.max(1);
        let mut batch_hist = vec![0u64; max_batch + 1];
        if let Some(h) = reg.histogram(metric::BATCH_SIZE, model) {
            for (b, &c) in h.counts().iter().enumerate() {
                batch_hist[b.min(max_batch)] += c;
            }
        }
        let (p50_us, p95_us, p99_us, max_us) = match reg.histogram(metric::LATENCY_US, model) {
            Some(h) => (
                histogram_quantile(h, 0.50),
                histogram_quantile(h, 0.95),
                histogram_quantile(h, 0.99),
                histogram_quantile(h, 1.0),
            ),
            None => (0, 0, 0, 0),
        };
        StatsSnapshot {
            model: model.to_string(),
            admitted: reg.counter(metric::ADMITTED, model),
            completed: reg.counter(metric::COMPLETED, model),
            failed: reg.counter(metric::FAILED, model),
            shed: reg.counter(metric::SHED, model),
            expired: reg.counter(metric::EXPIRED, model),
            batches: reg.counter(metric::BATCHES, model),
            batch_hist,
            p50_us,
            p95_us,
            p99_us,
            max_us,
            qps: 0.0,
        }
    }

    /// Mean executed batch size.
    pub fn mean_batch(&self) -> f64 {
        let total: u64 = self
            .batch_hist
            .iter()
            .enumerate()
            .map(|(b, &n)| b as u64 * n)
            .sum();
        if self.batches == 0 {
            0.0
        } else {
            total as f64 / self.batches as f64
        }
    }
}

/// Thread-safe per-model stats collector backed by a private telemetry
/// registry.
#[derive(Debug)]
pub(crate) struct Stats {
    registry: Registry,
    /// Batch-size histogram bounds `0..=max_batch` (overflow bucket =
    /// oversized batches, folded into the last legacy bucket).
    batch_bounds: Vec<u64>,
    /// Log-linear latency bounds, 1 µs to `LATENCY_MAX_US`.
    latency_bounds: Vec<u64>,
    windows: Mutex<HashMap<String, Window>>,
}

impl Stats {
    /// A collector whose batch histograms cover `0..=max_batch`.
    pub(crate) fn new(max_batch: usize) -> Self {
        Stats {
            registry: Registry::new(),
            batch_bounds: (0..=max_batch.max(1) as u64).collect(),
            latency_bounds: Histogram::log_linear_bounds(LATENCY_SUB_BITS, LATENCY_MAX_US),
            windows: Mutex::new(HashMap::new()),
        }
    }

    /// One versioned snapshot of every counter/histogram in the
    /// collector (all models).
    pub(crate) fn telemetry_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    fn with_window<R>(&self, model: &str, f: impl FnOnce(&mut Window) -> R) -> R {
        let mut map = self.windows.lock().expect("stats lock");
        f(map.entry(model.to_string()).or_default())
    }

    pub(crate) fn record_admitted(&self, model: &str) {
        self.registry.counter_add(metric::ADMITTED, model, 1);
        self.with_window(model, |w| {
            w.first_admit.get_or_insert_with(Instant::now);
        });
    }

    pub(crate) fn record_shed(&self, model: &str) {
        self.registry.counter_add(metric::SHED, model, 1);
    }

    pub(crate) fn record_expired(&self, model: &str) {
        self.registry.counter_add(metric::EXPIRED, model, 1);
    }

    /// A batch executed under the given execution backend (`dense` /
    /// `weaved` / `weaved-int8`) — exported through the TCP `Telemetry`
    /// op so remote consumers can see which serving path answered.
    pub(crate) fn record_execution(&self, execution: &str) {
        self.registry
            .counter_add(metric::EXECUTION_BATCHES, execution, 1);
    }

    pub(crate) fn record_batch(&self, model: &str, size: usize) {
        self.registry.counter_add(metric::BATCHES, model, 1);
        self.registry
            .histogram_record(metric::BATCH_SIZE, model, &self.batch_bounds, size as u64);
    }

    pub(crate) fn record_completed(&self, model: &str, latency_us: u64) {
        self.registry.counter_add(metric::COMPLETED, model, 1);
        self.registry
            .histogram_record(metric::LATENCY_US, model, &self.latency_bounds, latency_us);
        self.with_window(model, |w| {
            w.last_done = Some(Instant::now());
            w.completed += 1;
        });
    }

    pub(crate) fn record_failed(&self, model: &str) {
        self.registry.counter_add(metric::FAILED, model, 1);
    }

    /// A retried request was answered from the idempotency cache (or
    /// piggybacked on an in-flight execution) instead of re-executing.
    pub(crate) fn record_dedup(&self, model: &str) {
        self.registry.counter_add(metric::DEDUP_HITS, model, 1);
    }

    /// A worker thread panicked mid-batch; its requests were answered
    /// with typed `Internal` errors.
    pub(crate) fn record_worker_panic(&self) {
        self.registry
            .counter_add(metric::WORKER_PANICS, "engine", 1);
    }

    /// The supervisor respawned a dead worker thread.
    pub(crate) fn record_worker_restart(&self) {
        self.registry
            .counter_add(metric::WORKER_RESTARTS, "engine", 1);
    }

    /// Total worker restarts so far (engine-wide).
    pub(crate) fn worker_restarts(&self) -> u64 {
        self.registry
            .snapshot()
            .counter(metric::WORKER_RESTARTS, "engine")
    }

    /// Total worker panics so far (engine-wide).
    pub(crate) fn worker_panics(&self) -> u64 {
        self.registry
            .snapshot()
            .counter(metric::WORKER_PANICS, "engine")
    }

    /// One injected chaos event of the given `serve.chaos.*` metric.
    pub(crate) fn record_chaos(&self, name: &str) {
        self.registry.counter_add(name, "engine", 1);
    }

    /// Completed requests per second over one model's active window
    /// (first admission → last completion); 0 before any completion.
    pub(crate) fn qps(&self, model: &str) -> f64 {
        self.with_window(model, |w| match (w.first_admit, w.last_done) {
            (Some(a), Some(b)) if b > a => w.completed as f64 / b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        })
    }

    /// Snapshot one model's stats (zeroed snapshot for an unknown name).
    #[cfg(test)]
    pub(crate) fn snapshot(&self, model: &str) -> StatsSnapshot {
        let max_batch = self.batch_bounds.len() - 1;
        let mut snap = StatsSnapshot::from_telemetry(&self.telemetry_snapshot(), model, max_batch);
        snap.qps = self.qps(model);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_and_percentiles() {
        let s = Stats::new(8);
        for i in 0..100u64 {
            s.record_admitted("m");
            s.record_completed("m", (i + 1) * 10);
        }
        s.record_batch("m", 4);
        s.record_batch("m", 4);
        s.record_batch("m", 9); // clamps into the last bucket
        s.record_shed("m");
        s.record_expired("m");
        let snap = s.snapshot("m");
        assert_eq!(snap.admitted, 100);
        assert_eq!(snap.completed, 100);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.batch_hist[4], 2);
        assert_eq!(snap.batch_hist[8], 1);
        // Rank 50 is 500 µs, in the (496, 512] bucket; rank 99 is 990 µs,
        // in (960, 992]; the max 1000 µs is in (992, 1024].
        assert_eq!(snap.p50_us, 512);
        assert_eq!(snap.p99_us, 992);
        assert_eq!(snap.max_us, 1024);
        assert!((snap.mean_batch() - (4 + 4 + 8) as f64 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_model_snapshot_is_zeroed() {
        let s = Stats::new(4);
        let snap = s.snapshot("ghost");
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.qps, 0.0);
        assert_eq!(snap.p99_us, 0);
    }

    #[test]
    fn percentiles_on_fixed_1000_sample_input() {
        // Latencies 1..=1000 µs in scrambled insert order. Ranks 500, 950
        // and 990 (and the max) are read as the upper bounds of their
        // log-linear buckets (496, 512], (928, 960], (960, 992] and
        // (992, 1024].
        let s = Stats::new(4);
        for i in 0..1000u64 {
            let scrambled = (i * 617) % 1000 + 1; // 617 ⊥ 1000 → permutation
            s.record_completed("m", scrambled);
        }
        let snap = s.snapshot("m");
        assert_eq!(snap.completed, 1000);
        assert_eq!(snap.p50_us, 512);
        assert_eq!(snap.p95_us, 960);
        assert_eq!(snap.p99_us, 992);
        assert_eq!(snap.max_us, 1024);
    }

    #[test]
    fn stats_are_isolated_per_instance() {
        // Private registries: two engines' stats never bleed into each
        // other (or the process-global telemetry registry).
        let a = Stats::new(4);
        let b = Stats::new(4);
        a.record_admitted("m");
        assert_eq!(a.snapshot("m").admitted, 1);
        assert_eq!(b.snapshot("m").admitted, 0);
    }

    #[test]
    fn telemetry_snapshot_exposes_all_counters() {
        let s = Stats::new(4);
        s.record_admitted("m");
        s.record_completed("m", 250);
        s.record_batch("m", 2);
        let snap = s.telemetry_snapshot();
        assert_eq!(snap.counter("serve.admitted", "m"), 1);
        assert_eq!(snap.counter("serve.completed", "m"), 1);
        let h = snap.histogram("serve.batch_size", "m").unwrap();
        assert_eq!(h.total(), 1);
        assert!(snap.histogram("serve.latency_us", "m").unwrap().total() == 1);
    }

    #[test]
    fn merged_shard_histograms_pin_single_shard_percentiles() {
        // Satellite acceptance: the same 1000-sample workload recorded
        // into one collector vs. round-robined across four must report
        // identical histogram-derived percentiles after the commutative
        // merge — the sharded engine's aggregation path.
        let single = Stats::new(8);
        let shards: Vec<Stats> = (0..4).map(|_| Stats::new(8)).collect();
        for i in 0..1000u64 {
            let v = (i * 617) % 1000 + 1; // scrambled 1..=1000
            single.record_completed("m", v);
            shards[(i % 4) as usize].record_completed("m", v);
        }
        let merged = shards
            .iter()
            .skip(1)
            .fold(shards[0].telemetry_snapshot(), |acc, s| {
                acc.merged(&s.telemetry_snapshot())
            });
        let from_merged = StatsSnapshot::from_telemetry(&merged, "m", 8);
        let from_single = StatsSnapshot::from_telemetry(&single.telemetry_snapshot(), "m", 8);
        assert_eq!(from_merged, from_single, "merged ≡ single-shard");
        // Pin the bucketed values for 1..=1000, as in
        // `percentiles_on_fixed_1000_sample_input`.
        assert_eq!(from_single.completed, 1000);
        assert_eq!(from_single.p50_us, 512);
        assert_eq!(from_single.p95_us, 960);
        assert_eq!(from_single.p99_us, 992);
        assert_eq!(from_single.max_us, 1024);
    }

    #[test]
    fn histogram_percentiles_are_shard_count_invariant() {
        // The same workload split over 1 / 2 / 4 / 8 collectors reports
        // the same p50/p99 after merging — shard count never shows.
        let mut reference: Option<StatsSnapshot> = None;
        for shards in [1usize, 2, 4, 8] {
            let parts: Vec<Stats> = (0..shards).map(|_| Stats::new(8)).collect();
            for i in 0..500u64 {
                parts[(i % shards as u64) as usize].record_completed("m", i * 13 + 1);
            }
            let merged = parts
                .iter()
                .skip(1)
                .fold(parts[0].telemetry_snapshot(), |acc, s| {
                    acc.merged(&s.telemetry_snapshot())
                });
            let snap = StatsSnapshot::from_telemetry(&merged, "m", 8);
            match &reference {
                None => reference = Some(snap),
                Some(want) => assert_eq!(&snap, want, "{shards} shards drifted"),
            }
        }
    }

    #[test]
    fn histogram_quantile_edges() {
        let mut h = Histogram::new(&[10, 20, 40]);
        assert_eq!(histogram_quantile(&h, 0.5), 0, "empty histogram");
        h.record(5);
        h.record(15);
        h.record(35);
        assert_eq!(histogram_quantile(&h, 0.0), 10, "rank clamps to 1");
        assert_eq!(histogram_quantile(&h, 0.5), 20);
        assert_eq!(histogram_quantile(&h, 1.0), 40);
        h.record(1000); // overflow bucket saturates at the last bound
        assert_eq!(histogram_quantile(&h, 1.0), 40);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every reported percentile is at least the exact
        /// `ceil(q·n)`-th smallest sample and less than
        /// `1 + 2^-LATENCY_SUB_BITS` times it, and splitting the samples
        /// over 1/2/4/8 collectors and merging reports the same snapshot
        /// as one collector.
        #[test]
        fn percentiles_bound_their_samples_and_merge_across_shards(
            raw in proptest::collection::vec((1u64..=10_000_000, 0u32..24), 1..400),
        ) {
            // Shifted draws spread the samples over every octave of the
            // range, not just its top.
            let samples: Vec<u64> = raw.iter().map(|&(v, s)| (v >> s).max(1)).collect();
            let single = Stats::new(8);
            for &v in &samples {
                single.record_completed("m", v);
            }
            let snap = StatsSnapshot::from_telemetry(&single.telemetry_snapshot(), "m", 8);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let n = sorted.len();
            let bound = 1.0 + (-(LATENCY_SUB_BITS as f64)).exp2();
            for (q, got) in [
                (0.5, snap.p50_us),
                (0.95, snap.p95_us),
                (0.99, snap.p99_us),
                (1.0, snap.max_us),
            ] {
                let exact = sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
                prop_assert!(
                    got >= exact && (got as f64) < exact as f64 * bound,
                    "q={} reported {} for exact {}", q, got, exact
                );
            }
            for shards in [1usize, 2, 4, 8] {
                let parts: Vec<Stats> = (0..shards).map(|_| Stats::new(8)).collect();
                for (i, &v) in samples.iter().enumerate() {
                    parts[i % shards].record_completed("m", v);
                }
                let merged = parts
                    .iter()
                    .map(Stats::telemetry_snapshot)
                    .reduce(|acc, s| acc.merged(&s))
                    .expect("at least one shard");
                prop_assert_eq!(
                    &StatsSnapshot::from_telemetry(&merged, "m", 8),
                    &snap,
                    "{} shards drifted", shards
                );
            }
        }
    }
}
