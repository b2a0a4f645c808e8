//! Lock-light, shard-per-thread metrics for the CSP workspace.
//!
//! Every thread that writes a metric gets its own *shard* — a small map
//! guarded by a mutex that only that thread ever locks on the hot path —
//! so concurrent counter updates never contend. A [`Snapshot`] merges the
//! shards in shard-creation order into one sorted view.
//!
//! Three metric kinds exist, all with commutative, associative `u64`
//! merges so the merged totals are independent of shard order and thread
//! count:
//!
//! - **Counter** — monotonically added deltas, merged by sum.
//! - **Max gauge** — high-water marks, merged by max.
//! - **Histogram** — fixed-bucket counts over `u64` samples, merged by
//!   element-wise sum (bounds must match).
//!
//! # Determinism
//!
//! Telemetry must never perturb the numerics it observes, and in
//! *deterministic mode* it must not even perturb its own output:
//!
//! - Metric payloads are integers; merging is exact and order-free, so
//!   counter/gauge/histogram totals are bit-identical at any thread
//!   count.
//! - [`Span`] timers normally record wall-clock nanoseconds
//!   (`<name>.ns`). Under deterministic mode ([`set_deterministic`] or
//!   `CSP_TELEMETRY_DETERMINISTIC=1`) they instead record logical-clock
//!   ticks (`<name>.ticks`) from a process-wide counter, and snapshot
//!   timestamps come from the same logical clock — no wall-clock values
//!   appear anywhere in the snapshot.
//!
//! The free functions ([`counter_add`], [`max_gauge`],
//! [`histogram_record`], [`span`]) write to the process-global registry
//! and are no-ops unless telemetry is enabled ([`set_enabled`] or
//! `CSP_TELEMETRY=1`), so instrumented hot loops cost one branch when
//! telemetry is off. [`Registry`] instances created with
//! [`Registry::new`] are always live and fully private — tests and the
//! serving engine use them to keep their counts isolated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Version stamp embedded in every [`Snapshot`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// Well-known metric names shared across crates.
///
/// The serving tier's counters are written by `csp-serve` (engine stats,
/// retry client) and read back by benches, tests, and remote telemetry
/// consumers; naming them once here keeps writer and reader from drifting
/// apart. All `serve.*` metrics are labelled by model name except the
/// engine-scoped ones, which use an empty label.
pub mod names {
    /// Requests accepted into the batch queue (per model).
    pub const SERVE_ADMITTED: &str = "serve.admitted";
    /// Requests answered successfully (per model).
    pub const SERVE_COMPLETED: &str = "serve.completed";
    /// Requests answered with an execution error (per model).
    pub const SERVE_FAILED: &str = "serve.failed";
    /// Requests refused at admission: queue full or draining (per model).
    pub const SERVE_SHED: &str = "serve.shed";
    /// Requests whose deadline expired while queued (per model).
    pub const SERVE_EXPIRED: &str = "serve.expired";
    /// Batches executed (per model).
    pub const SERVE_BATCHES: &str = "serve.batches";
    /// Executed batch-size histogram (per model).
    pub const SERVE_BATCH_SIZE: &str = "serve.batch_size";
    /// Admission→response latency histogram, microseconds (per model).
    pub const SERVE_LATENCY_US: &str = "serve.latency_us";
    /// Idempotent retries answered from the reply cache or by piggybacking
    /// on an in-flight execution — work that was *not* re-executed (per
    /// model).
    pub const SERVE_DEDUP_HITS: &str = "serve.dedup_hits";
    /// Batches executed per execution backend (label = `dense` /
    /// `weaved` / `weaved-int8`; engine-scoped).
    pub const SERVE_EXECUTION_BATCHES: &str = "serve.execution.batches";
    /// Worker threads restarted by the engine supervisor (engine-scoped,
    /// empty label).
    pub const SERVE_WORKER_RESTARTS: &str = "serve.worker_restarts";
    /// Worker panics converted into typed per-request errors
    /// (engine-scoped, empty label).
    pub const SERVE_WORKER_PANICS: &str = "serve.worker_panics";
    /// Connections deliberately dropped by chaos before the reply
    /// (engine-scoped, empty label).
    pub const SERVE_CHAOS_CONN_DROPS: &str = "serve.chaos.conn_drops";
    /// Reply frames truncated mid-write by chaos (engine-scoped, empty
    /// label).
    pub const SERVE_CHAOS_TRUNCATIONS: &str = "serve.chaos.truncations";
    /// Reply payload bits flipped by chaos (engine-scoped, empty label).
    pub const SERVE_CHAOS_CORRUPTIONS: &str = "serve.chaos.corruptions";
    /// Worker stalls injected by chaos (engine-scoped, empty label).
    pub const SERVE_CHAOS_STALLS: &str = "serve.chaos.stalls";
    /// Requests routed to an engine shard by the consistent-hash router
    /// (label = `s<shard>`; sharded-engine registry).
    pub const SERVE_SHARD_REQUESTS: &str = "serve.shard.requests";
    /// Connections assigned to an IO shard's event loop (label =
    /// `io<shard>`; sharded-engine registry).
    pub const SERVE_SHARD_CONNECTIONS: &str = "serve.shard.connections";
    /// Wire frames parsed by an IO shard's event loop (label =
    /// `io<shard>`; sharded-engine registry).
    pub const SERVE_SHARD_FRAMES: &str = "serve.shard.frames";
    /// Undecodable / oversized frames answered with a typed error and a
    /// closed connection (label = `io<shard>`; sharded-engine registry).
    pub const SERVE_SHARD_PROTOCOL_ERRORS: &str = "serve.shard.protocol_errors";
    /// Model versions published to an engine shard by a rolling hot-swap
    /// (label = `s<shard>`; sharded-engine registry).
    pub const SERVE_SHARD_SWAPS: &str = "serve.shard.swaps";
    /// Transport-level retries performed by the resilient client (per
    /// model; global registry).
    pub const SERVE_CLIENT_RETRIES: &str = "serve.client.retries";
    /// Reconnects performed by the resilient client (per model; global
    /// registry).
    pub const SERVE_CLIENT_RECONNECTS: &str = "serve.client.reconnects";

    /// Dead runtime pool workers detected by the supervisor (empty
    /// label). A worker dies only abnormally — a lost thread or an
    /// escaped panic — so detections are counted as panics.
    pub const RUNTIME_WORKER_PANICS: &str = "runtime.worker.panics";
    /// Runtime pool workers respawned by the supervisor (empty label).
    pub const RUNTIME_WORKER_RESTARTS: &str = "runtime.worker.restarts";
    /// Chunk closures that panicked and were contained by the dispatch
    /// (empty label).
    pub const RUNTIME_CHUNK_PANICS: &str = "runtime.chunk_panics";
    /// Dispatches whose stall watchdog deadline elapsed before
    /// quiescence (empty label).
    pub const RUNTIME_STALLS: &str = "runtime.stalls";
    /// Times the pool had to shrink because a worker could not be
    /// (re)spawned (empty label).
    pub const RUNTIME_DEGRADED: &str = "runtime.degraded";
    /// Faults injected by a [`RuntimeChaosSession`] (labelled by fault
    /// class name).
    ///
    /// [`RuntimeChaosSession`]: https://docs.rs/csp-runtime
    pub const RUNTIME_CHAOS_INJECTED: &str = "runtime.chaos.injected";

    /// GEMM calls served per kernel backend (labelled by backend name:
    /// `scalar` / `sse2` / `avx2` / `avx2fma`). The label set doubles as
    /// the record of which backend the process selected.
    pub const TENSOR_GEMM_BACKEND: &str = "tensor.gemm.backend";

    /// Weaved sparse GEMM calls (labelled by execution variant:
    /// `weaved` / `weaved-int8`).
    pub const SPARSE_GEMM_CALLS: &str = "sparse.gemm.calls";
    /// Weaved sparse GEMM calls per kernel backend (labelled by backend
    /// name), mirroring [`TENSOR_GEMM_BACKEND`] for the sparse engine.
    pub const SPARSE_GEMM_BACKEND: &str = "sparse.gemm.backend";
    /// Multiply-accumulates actually performed by the weaved early-stop
    /// loops (labelled by execution variant).
    pub const SPARSE_GEMM_MACS: &str = "sparse.gemm.macs";
    /// Multiply-accumulates a dense GEMM of the same shape would have
    /// performed but the prefix trip counts skipped (labelled by
    /// execution variant) — the paper's early-stop savings, measured.
    pub const SPARSE_GEMM_SKIPPED: &str = "sparse.gemm.skipped";
}

// ---------------------------------------------------------------------------
// Process-wide switches
// ---------------------------------------------------------------------------

fn env_flag(name: &str) -> bool {
    matches!(
        std::env::var(name).as_deref(),
        Ok("1") | Ok("true") | Ok("on") | Ok("yes")
    )
}

fn enabled_cell() -> &'static AtomicBool {
    static CELL: OnceLock<AtomicBool> = OnceLock::new();
    CELL.get_or_init(|| AtomicBool::new(env_flag("CSP_TELEMETRY")))
}

fn deterministic_cell() -> &'static AtomicBool {
    static CELL: OnceLock<AtomicBool> = OnceLock::new();
    CELL.get_or_init(|| AtomicBool::new(env_flag("CSP_TELEMETRY_DETERMINISTIC")))
}

/// Whether the free-function API writes to the global registry.
///
/// Seeded from `CSP_TELEMETRY` on first use; flipped at runtime with
/// [`set_enabled`].
pub fn enabled() -> bool {
    enabled_cell().load(Ordering::Relaxed)
}

/// Enable or disable the free-function API at runtime.
pub fn set_enabled(on: bool) {
    enabled_cell().store(on, Ordering::Relaxed);
}

/// Whether spans and snapshot timestamps use the logical clock instead of
/// wall time. Seeded from `CSP_TELEMETRY_DETERMINISTIC`; flipped with
/// [`set_deterministic`].
pub fn deterministic() -> bool {
    deterministic_cell().load(Ordering::Relaxed)
}

/// Switch between wall-clock and logical-clock time sources.
pub fn set_deterministic(on: bool) {
    deterministic_cell().store(on, Ordering::Relaxed);
}

static LOGICAL: AtomicU64 = AtomicU64::new(0);

/// Advance the process-wide logical clock and return the new tick.
///
/// Spans call this on entry and exit in deterministic mode; callers may
/// also tick it to mark phases.
pub fn logical_tick() -> u64 {
    LOGICAL.fetch_add(1, Ordering::SeqCst) + 1
}

/// The current logical-clock value without advancing it.
pub fn logical_now() -> u64 {
    LOGICAL.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------------
// Metric values
// ---------------------------------------------------------------------------

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are strictly increasing upper bucket edges; a sample `v`
/// lands in the first bucket whose bound is `>= v`, and samples above the
/// last bound land in a final overflow bucket, so `counts.len() ==
/// bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// An empty histogram with the given strictly increasing bucket
    /// bounds.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// Log-linear (HDR-style) bounds from 1 up to the first bound `>= max`:
    /// every integer up to `2^(sub_bits + 1)`, then `2^sub_bits`
    /// equal-width buckets per octave. A sample `v >= 1` at or below the
    /// last bound lands in a bucket whose upper bound is less than
    /// `v * (1 + 2^-sub_bits)`.
    ///
    /// # Panics
    ///
    /// Panics when `sub_bits >= 64`.
    #[must_use]
    pub fn log_linear_bounds(sub_bits: u32, max: u64) -> Vec<u64> {
        assert!(sub_bits < 64, "log-linear bounds need sub_bits < 64");
        let mut bounds = vec![1u64];
        let mut b = 1u64;
        while b < max {
            // The bucket width of b's octave: 2^(floor(log2 b) - sub_bits).
            let width = ((1u64 << b.ilog2()) >> sub_bits).max(1);
            b = b.saturating_add(width);
            bounds.push(b);
        }
        bounds
    }

    /// Reassemble a histogram from stored bounds and bucket counts
    /// (decoder path). Returns `None` when the shapes are inconsistent
    /// (`counts.len() != bounds.len() + 1`) or the bounds are invalid.
    #[must_use]
    pub fn from_parts(bounds: &[u64], counts: &[u64]) -> Option<Histogram> {
        if bounds.is_empty()
            || counts.len() != bounds.len() + 1
            || !bounds.windows(2).all(|w| w[0] < w[1])
        {
            return None;
        }
        Some(Histogram {
            bounds: bounds.to_vec(),
            counts: counts.to_vec(),
        })
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        // The first bucket whose bound is >= v; past the last bound, the
        // overflow bucket.
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] = self.counts[idx].saturating_add(1);
    }

    /// Merge another histogram into this one (element-wise sum).
    ///
    /// # Panics
    ///
    /// Panics when the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_add(*o);
        }
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().copied().sum()
    }

    /// The bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// One metric's merged value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Sum of added deltas.
    Counter(u64),
    /// High-water mark.
    Max(u64),
    /// Fixed-bucket sample counts.
    Hist(Histogram),
}

impl Value {
    fn merge_from(&mut self, other: &Value) {
        match (self, other) {
            (Value::Counter(a), Value::Counter(b)) => *a = a.saturating_add(*b),
            (Value::Max(a), Value::Max(b)) => *a = (*a).max(*b),
            (Value::Hist(a), Value::Hist(b)) => a.merge(b),
            // Mixed kinds under one key are an instrumentation bug; keep
            // the first kind rather than poisoning the snapshot.
            (s, o) => debug_assert!(
                std::mem::discriminant(&*s) == std::mem::discriminant(o),
                "metric recorded with two different kinds"
            ),
        }
    }
}

type Key = (String, String);
type MetricMap = HashMap<Key, Value>;

// ---------------------------------------------------------------------------
// Shards and registry
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Shard {
    id: u64,
    data: Mutex<MetricMap>,
}

#[derive(Debug)]
struct RegistryInner {
    id: u64,
    next_shard: AtomicU64,
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Metrics from shards whose owning thread has exited, folded in so
    /// shard count stays bounded by *live* threads, not historical ones.
    retired: Mutex<MetricMap>,
}

impl RegistryInner {
    fn retire(&self, shard: &Arc<Shard>) {
        let drained: MetricMap = std::mem::take(&mut *shard.data.lock().expect("shard poisoned"));
        {
            let mut retired = self.retired.lock().expect("retired poisoned");
            for (k, v) in &drained {
                retired
                    .entry(k.clone())
                    .and_modify(|e| e.merge_from(v))
                    .or_insert_with(|| v.clone());
            }
        }
        let mut shards = self.shards.lock().expect("shards poisoned");
        shards.retain(|s| s.id != shard.id);
    }
}

struct LocalShards {
    /// Per-registry shard handle for this thread. The `Weak` lets a
    /// dropped registry free its shards even while threads live on.
    entries: Vec<(u64, Weak<RegistryInner>, Arc<Shard>)>,
}

impl Drop for LocalShards {
    fn drop(&mut self) {
        for (_, reg, shard) in &self.entries {
            if let Some(reg) = reg.upgrade() {
                reg.retire(shard);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalShards> = const {
        RefCell::new(LocalShards { entries: Vec::new() })
    };
}

static NEXT_REGISTRY: AtomicU64 = AtomicU64::new(1);

/// A shard-per-thread metrics registry. Cloning shares the underlying
/// store. [`Registry::global`] is the process-wide instance behind the
/// free-function API; [`Registry::new`] makes a private one.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// A fresh, private registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                id: NEXT_REGISTRY.fetch_add(1, Ordering::Relaxed),
                next_shard: AtomicU64::new(0),
                shards: Mutex::new(Vec::new()),
                retired: Mutex::new(MetricMap::new()),
            }),
        }
    }

    /// The process-global registry used by the free functions.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Run `f` on this thread's shard of the registry, creating the shard
    /// on first use.
    fn with_shard<R>(&self, f: impl FnOnce(&mut MetricMap) -> R) -> R {
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let shard = match local.entries.iter().find(|(id, _, _)| *id == self.inner.id) {
                Some((_, _, shard)) => Arc::clone(shard),
                None => {
                    let shard = Arc::new(Shard {
                        id: self.inner.next_shard.fetch_add(1, Ordering::Relaxed),
                        data: Mutex::new(MetricMap::new()),
                    });
                    self.inner
                        .shards
                        .lock()
                        .expect("shards poisoned")
                        .push(Arc::clone(&shard));
                    local.entries.push((
                        self.inner.id,
                        Arc::downgrade(&self.inner),
                        Arc::clone(&shard),
                    ));
                    shard
                }
            };
            let mut data = shard.data.lock().expect("shard poisoned");
            f(&mut data)
        })
    }

    /// Add `delta` to the counter `name{label}`.
    pub fn counter_add(&self, name: &str, label: &str, delta: u64) {
        self.with_shard(|m| {
            match m
                .entry((name.to_string(), label.to_string()))
                .or_insert(Value::Counter(0))
            {
                Value::Counter(c) => *c = c.saturating_add(delta),
                other => other.merge_from(&Value::Counter(delta)),
            }
        });
    }

    /// Raise the max gauge `name{label}` to at least `v`.
    pub fn max_gauge(&self, name: &str, label: &str, v: u64) {
        self.with_shard(|m| {
            match m
                .entry((name.to_string(), label.to_string()))
                .or_insert(Value::Max(0))
            {
                Value::Max(g) => *g = (*g).max(v),
                other => other.merge_from(&Value::Max(v)),
            }
        });
    }

    /// Record `v` into the histogram `name{label}` with the given bucket
    /// `bounds` (used only when the histogram is first created; later
    /// records must pass the same bounds).
    pub fn histogram_record(&self, name: &str, label: &str, bounds: &[u64], v: u64) {
        self.with_shard(|m| {
            match m
                .entry((name.to_string(), label.to_string()))
                .or_insert_with(|| Value::Hist(Histogram::new(bounds)))
            {
                Value::Hist(h) => h.record(v),
                other => {
                    let mut h = Histogram::new(bounds);
                    h.record(v);
                    other.merge_from(&Value::Hist(h));
                }
            }
        });
    }

    /// Start a span timer that records `<name>.calls` and `<name>.ns`
    /// (or `<name>.ticks` in deterministic mode) into this registry when
    /// dropped.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span {
        Span::start(Some(self.clone()), name)
    }

    /// Merge every shard (in shard-creation order) plus retired shards
    /// into one sorted snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut merged: BTreeMap<Key, Value> = BTreeMap::new();
        let mut absorb = |map: &MetricMap| {
            for (k, v) in map {
                merged
                    .entry(k.clone())
                    .and_modify(|e| e.merge_from(v))
                    .or_insert_with(|| v.clone());
            }
        };
        absorb(&self.inner.retired.lock().expect("retired poisoned"));
        let mut shards: Vec<Arc<Shard>> =
            self.inner.shards.lock().expect("shards poisoned").clone();
        shards.sort_by_key(|s| s.id);
        for shard in shards {
            absorb(&shard.data.lock().expect("shard poisoned"));
        }
        let deterministic = deterministic();
        let taken_at = if deterministic {
            logical_now()
        } else {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64)
        };
        Snapshot {
            version: SNAPSHOT_VERSION,
            deterministic,
            taken_at,
            entries: merged
                .into_iter()
                .map(|((name, label), value)| Entry { name, label, value })
                .collect(),
        }
    }

    /// Clear every shard and the retired accumulator.
    pub fn reset(&self) {
        self.inner.retired.lock().expect("retired poisoned").clear();
        for shard in self.inner.shards.lock().expect("shards poisoned").iter() {
            shard.data.lock().expect("shard poisoned").clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Free-function API (gated on `enabled()`)
// ---------------------------------------------------------------------------

/// Add `delta` to the global counter `name{label}` when telemetry is
/// enabled; a cheap no-op otherwise.
pub fn counter_add(name: &str, label: &str, delta: u64) {
    if enabled() {
        Registry::global().counter_add(name, label, delta);
    }
}

/// Raise the global max gauge `name{label}` when telemetry is enabled.
pub fn max_gauge(name: &str, label: &str, v: u64) {
    if enabled() {
        Registry::global().max_gauge(name, label, v);
    }
}

/// Record into the global histogram `name{label}` when telemetry is
/// enabled.
pub fn histogram_record(name: &str, label: &str, bounds: &[u64], v: u64) {
    if enabled() {
        Registry::global().histogram_record(name, label, bounds, v);
    }
}

/// Start a global span timer; inert (records nothing) when telemetry is
/// disabled at the moment the span starts.
#[must_use]
pub fn span(name: &'static str) -> Span {
    if enabled() {
        Registry::global().span(name)
    } else {
        Span::start(None, name)
    }
}

/// Snapshot of the global registry.
#[must_use]
pub fn global_snapshot() -> Snapshot {
    Registry::global().snapshot()
}

/// Clear the global registry (tests and bench phases).
pub fn reset_global() {
    Registry::global().reset();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A scope timer. On drop it bumps `<name>.calls` by one and adds the
/// elapsed time to `<name>.ns` (wall mode) or `<name>.ticks`
/// (deterministic mode, logical clock).
#[derive(Debug)]
pub struct Span {
    registry: Option<Registry>,
    name: &'static str,
    wall_start: Option<Instant>,
    tick_start: u64,
}

impl Span {
    fn start(registry: Option<Registry>, name: &'static str) -> Span {
        let (wall_start, tick_start) = if registry.is_none() {
            (None, 0)
        } else if deterministic() {
            (None, logical_tick())
        } else {
            (Some(Instant::now()), 0)
        };
        Span {
            registry,
            name,
            wall_start,
            tick_start,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(reg) = self.registry.take() else {
            return;
        };
        reg.counter_add(&format!("{}.calls", self.name), "", 1);
        if let Some(start) = self.wall_start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            reg.counter_add(&format!("{}.ns", self.name), "", ns);
        } else {
            let dt = logical_tick().saturating_sub(self.tick_start);
            reg.counter_add(&format!("{}.ticks", self.name), "", dt);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Metric name, e.g. `tensor.gemm.macs`.
    pub name: String,
    /// Distinguishing label (model name, bin index, ...); often empty.
    pub label: String,
    /// The merged value.
    pub value: Value,
}

/// A merged, sorted, versioned view of a registry at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Whether the process was in deterministic mode when taken.
    pub deterministic: bool,
    /// Logical-clock tick (deterministic) or unix milliseconds (wall).
    pub taken_at: u64,
    /// Entries sorted by `(name, label)`.
    pub entries: Vec<Entry>,
}

impl Snapshot {
    /// An empty snapshot (useful as a merge identity).
    #[must_use]
    pub fn empty() -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            deterministic: deterministic(),
            taken_at: 0,
            entries: Vec::new(),
        }
    }

    fn find(&self, name: &str, label: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.label == label)
            .map(|e| &e.value)
    }

    /// Counter value, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        match self.find(name, label) {
            Some(Value::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Max-gauge value, 0 when absent.
    #[must_use]
    pub fn max(&self, name: &str, label: &str) -> u64 {
        match self.find(name, label) {
            Some(Value::Max(m)) => *m,
            _ => 0,
        }
    }

    /// Histogram, when present.
    #[must_use]
    pub fn histogram(&self, name: &str, label: &str) -> Option<&Histogram> {
        match self.find(name, label) {
            Some(Value::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// Labels present under `name`, in sorted order.
    #[must_use]
    pub fn labels_of(&self, name: &str) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.label.as_str())
            .collect()
    }

    /// Merge `other` into `self` (sum counters, max gauges, add
    /// histograms); `taken_at` becomes the later of the two.
    #[must_use]
    pub fn merged(mut self, other: &Snapshot) -> Snapshot {
        let mut map: BTreeMap<Key, Value> = self
            .entries
            .drain(..)
            .map(|e| ((e.name, e.label), e.value))
            .collect();
        for e in &other.entries {
            map.entry((e.name.clone(), e.label.clone()))
                .and_modify(|v| v.merge_from(&e.value))
                .or_insert_with(|| e.value.clone());
        }
        Snapshot {
            version: self.version,
            deterministic: self.deterministic && other.deterministic,
            taken_at: self.taken_at.max(other.taken_at),
            entries: map
                .into_iter()
                .map(|((name, label), value)| Entry { name, label, value })
                .collect(),
        }
    }

    /// Human-readable one-metric-per-line rendering.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "telemetry snapshot v{} ({}, t={})\n",
            self.version,
            if self.deterministic {
                "deterministic"
            } else {
                "wall-clock"
            },
            self.taken_at
        );
        for e in &self.entries {
            let key = if e.label.is_empty() {
                e.name.clone()
            } else {
                format!("{}{{{}}}", e.name, e.label)
            };
            match &e.value {
                Value::Counter(c) => out.push_str(&format!("{key} = {c}\n")),
                Value::Max(m) => out.push_str(&format!("{key} = max {m}\n")),
                Value::Hist(h) => out.push_str(&format!(
                    "{key} = hist total {} counts {:?} bounds {:?}\n",
                    h.total(),
                    h.counts(),
                    h.bounds()
                )),
            }
        }
        out
    }

    /// JSON rendering (schema `csp-telemetry/snapshot/v1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn list(v: &[u64]) -> String {
            let items: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        }
        let mut metrics = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let head = format!(
                "{{\"name\":\"{}\",\"label\":\"{}\"",
                esc(&e.name),
                esc(&e.label)
            );
            metrics.push(match &e.value {
                Value::Counter(c) => format!("{head},\"kind\":\"counter\",\"value\":{c}}}"),
                Value::Max(m) => format!("{head},\"kind\":\"max\",\"value\":{m}}}"),
                Value::Hist(h) => format!(
                    "{head},\"kind\":\"histogram\",\"bounds\":{},\"counts\":{},\"total\":{}}}",
                    list(h.bounds()),
                    list(h.counts()),
                    h.total()
                ),
            });
        }
        format!(
            "{{\n  \"schema\": \"csp-telemetry/snapshot/v1\",\n  \"version\": {},\n  \"deterministic\": {},\n  \"taken_at\": {},\n  \"metrics\": [\n    {}\n  ]\n}}\n",
            self.version,
            self.deterministic,
            self.taken_at,
            metrics.join(",\n    ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_gauges_max() {
        let reg = Registry::new();
        reg.counter_add("a", "", 3);
        reg.counter_add("a", "", 4);
        reg.counter_add("a", "x", 1);
        reg.max_gauge("g", "", 5);
        reg.max_gauge("g", "", 2);
        let s = reg.snapshot();
        assert_eq!(s.counter("a", ""), 7);
        assert_eq!(s.counter("a", "x"), 1);
        assert_eq!(s.counter("missing", ""), 0);
        assert_eq!(s.max("g", ""), 5);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[10, 20, 30]);
        for v in [0, 10, 11, 20, 21, 30, 31, 1000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn log_linear_bounds_are_pinned_and_record_matches_a_linear_scan() {
        let top = 1u64 << 27;
        let bounds = Histogram::log_linear_bounds(4, top);
        // Width 1 up to 32, then 16 buckets per octave: 34, 36, ..., 64,
        // 68, 72, ...
        let head: Vec<u64> = (1..=32)
            .chain((34..=64).step_by(2))
            .chain([68, 72])
            .collect();
        assert_eq!(&bounds[..head.len()], &head[..]);
        assert_eq!(bounds.last(), Some(&top));
        assert_eq!(bounds.len(), 32 + 22 * 16);

        let mut h = Histogram::new(&bounds);
        let mut want = vec![0u64; bounds.len() + 1];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let edges = [0, 1, 16, 17, 32, 33, 34, 35, top, top + 1, u64::MAX];
        let draws = (0..2000).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> (x % 40 + 24)
        });
        for v in edges.into_iter().chain(draws) {
            h.record(v);
            want[bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())] += 1;
        }
        assert_eq!(h.counts(), &want[..]);
    }

    #[test]
    fn shards_merge_across_threads() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        reg.counter_add("n", "", 1);
                    }
                    reg.max_gauge("m", "", 7);
                });
            }
        });
        reg.counter_add("n", "", 1);
        let s = reg.snapshot();
        assert_eq!(s.counter("n", ""), 401);
        assert_eq!(s.max("m", ""), 7);
    }

    #[test]
    fn dead_thread_shards_are_retired_not_lost() {
        let reg = Registry::new();
        for _ in 0..8 {
            let reg = reg.clone();
            std::thread::spawn(move || reg.counter_add("r", "", 5))
                .join()
                .unwrap();
        }
        assert_eq!(reg.snapshot().counter("r", ""), 40);
        // Live shard count stays bounded by live threads.
        assert!(reg.inner.shards.lock().unwrap().len() <= 1);
    }

    #[test]
    fn snapshot_entries_are_sorted_and_merge_is_commutative() {
        let a = Registry::new();
        a.counter_add("z", "", 1);
        a.counter_add("a", "b", 2);
        let b = Registry::new();
        b.counter_add("a", "b", 3);
        b.max_gauge("m", "", 9);
        let sa = a.snapshot();
        let sb = b.snapshot();
        let ab = sa.clone().merged(&sb);
        let ba = sb.clone().merged(&sa);
        assert_eq!(ab.entries, ba.entries);
        assert_eq!(ab.counter("a", "b"), 5);
        assert!(ab
            .entries
            .windows(2)
            .all(|w| (&w[0].name, &w[0].label) < (&w[1].name, &w[1].label)));
    }

    #[test]
    fn span_records_calls() {
        let reg = Registry::new();
        {
            let _s = reg.span("work");
        }
        {
            let _s = reg.span("work");
        }
        let s = reg.snapshot();
        assert_eq!(s.counter("work.calls", ""), 2);
        // Either .ns or .ticks exists depending on mode.
        assert!(s.counter("work.ns", "") > 0 || s.find("work.ticks", "").is_some());
    }

    #[test]
    fn disabled_free_fns_write_nothing() {
        // Only meaningful when the env has not enabled telemetry.
        if enabled() {
            return;
        }
        counter_add("ghost", "", 1);
        let _ = span("ghost-span");
        assert_eq!(global_snapshot().counter("ghost", ""), 0);
    }

    #[test]
    fn json_escapes_and_renders() {
        let reg = Registry::new();
        reg.counter_add("q\"uote", "", 1);
        reg.histogram_record("h", "", &[1, 2], 3);
        let s = reg.snapshot();
        let j = s.to_json();
        assert!(j.contains("q\\\"uote"));
        assert!(j.contains("\"kind\":\"histogram\""));
        assert!(j.contains("csp-telemetry/snapshot/v1"));
        assert!(s.render_text().contains("hist total 1"));
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Registry::new();
        reg.counter_add("c", "", 1);
        std::thread::spawn({
            let reg = reg.clone();
            move || reg.counter_add("c", "", 1)
        })
        .join()
        .unwrap();
        reg.reset();
        assert_eq!(reg.snapshot().counter("c", ""), 0);
    }
}
