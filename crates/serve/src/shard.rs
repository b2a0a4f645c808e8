//! The sharded serving engine: N independent engine shards — each with
//! its own registry, batcher, and supervised worker pool — behind a
//! consistent-hash router.
//!
//! ## Routing
//!
//! Requests are routed on `(model, token)` over a consistent-hash ring
//! ([`ShardPolicy::replicas`] virtual points per shard). An idempotent
//! retry carries the same token, so it always lands on the shard whose
//! dedup/reply cache saw the first attempt — cross-shard retries never
//! re-execute. Non-idempotent requests (`token == 0`) have no cache to
//! return to, so they are spread round-robin for load balance.
//!
//! ## Determinism
//!
//! Shard choice never shows in the bits: every shard serves the same
//! model artifacts and every engine pins its kernels to a serial pool, so
//! a request answered by shard 0 is bit-identical to the same request
//! answered by shard 7 (property-tested in
//! `tests/prop_serve_determinism.rs` at pool widths 1/2/4/8).
//!
//! ## Rolling hot-swap
//!
//! [`ShardedEngine::deploy`] publishes a new model version
//! shard-by-shard. Each publish is an atomic `Arc` swap in that shard's
//! registry — in-flight batches finish on the version they grabbed, new
//! batches pick up the new one — so the roll drops zero requests and no
//! reply ever mixes versions. The path-loading variant inherits the
//! registry's `.prev` fallback: a shard facing a corrupt new artifact
//! recovers from the previous generation instead of going dark.
//!
//! ## Stats aggregation
//!
//! Per-shard counters and histograms merge commutatively
//! ([`csp_telemetry`]), and latency percentiles are derived from the
//! *merged* log-linear histograms — so the reported p50/p99 is invariant
//! to shard count (pinned in `stats.rs` tests) and over-states its sample
//! by less than 6.25% ([`LATENCY_SUB_BITS`](crate::stats::LATENCY_SUB_BITS)).

use crate::batch::{BatchPolicy, InferReply};
use crate::chaos::ChaosSession;
use crate::engine::{Client, Engine, PendingReply};
use crate::protocol::{HealthReport, HealthState};
use crate::registry::{LoadedModel, ModelRegistry, ModelSpec};
use crate::stats::StatsSnapshot;
// The same finalizer the retry backoff uses; enough avalanche to spread
// ring keys uniformly.
use csp_sim::fault::splitmix64;
use csp_telemetry::{names, Registry, Snapshot};
use csp_tensor::{CspError, CspResult, Tensor};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shape of a [`ShardedEngine`]: how many engine shards, how wide each
/// shard's worker pool is, and the per-shard batch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Engine shards (≥ 1). Each gets its own registry, batch queue, and
    /// supervised worker pool.
    pub shards: usize,
    /// Worker threads per shard (≥ 1).
    pub workers: usize,
    /// Batch-formation and admission policy applied to every shard.
    pub batch: BatchPolicy,
    /// Virtual points per shard on the consistent-hash ring (≥ 1).
    pub replicas: usize,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            shards: 2,
            workers: 2,
            batch: BatchPolicy::default(),
            replicas: 32,
        }
    }
}

impl ShardPolicy {
    /// Validate the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Config`] for zero shards, workers, or replicas,
    /// or an invalid batch policy.
    pub fn validate(&self) -> CspResult<()> {
        if self.shards == 0 {
            return Err(CspError::Config {
                what: "sharded engine needs at least one shard".to_string(),
            });
        }
        if self.replicas == 0 {
            return Err(CspError::Config {
                what: "consistent-hash ring needs at least one replica per shard".to_string(),
            });
        }
        if self.workers == 0 {
            return Err(CspError::Config {
                what: "each shard needs at least one worker".to_string(),
            });
        }
        self.batch.validate()
    }
}

/// The outcome of a rolling shard-by-shard hot-swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollingSwap {
    /// The version each shard now serves, in shard order.
    pub versions: Vec<u64>,
    /// Shards that recovered from the `.prev` generation because the
    /// primary artifact was unusable (path-loading variant only).
    pub recovered: Vec<usize>,
}

/// FNV-1a over the model name: stable, allocation-free string hashing so
/// routing never depends on `std`'s randomized hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A consistent-hash ring: each shard owns `replicas` pseudo-random
/// points; a key routes to the first point clockwise from its hash.
#[derive(Debug)]
struct Ring {
    points: Vec<(u64, usize)>,
}

impl Ring {
    fn new(shards: usize, replicas: usize) -> Ring {
        let mut points = Vec::with_capacity(shards * replicas);
        for s in 0..shards {
            for r in 0..replicas {
                points.push((splitmix64((s as u64) << 32 | r as u64), s));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    fn route(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(h, _)| h < key);
        self.points[i % self.points.len()].1
    }
}

/// State shared by the [`ShardedEngine`] and every [`ShardClient`].
#[derive(Debug)]
struct ShardSet {
    clients: Vec<Client>,
    registries: Vec<Arc<ModelRegistry>>,
    ring: Ring,
    /// Round-robin spreader for non-idempotent (`token == 0`) requests.
    spread: AtomicU64,
    /// `serve.shard.*` counters (routing, connections, frames, swaps).
    metrics: Registry,
    max_batch: usize,
}

impl ShardSet {
    /// The shard `(model, token)` routes to. Idempotent tokens pin the
    /// shard (retries must find the reply cache that saw attempt one);
    /// `token == 0` spreads round-robin.
    fn shard_for(&self, model: &str, token: u64) -> usize {
        let salt = if token == 0 {
            splitmix64(self.spread.fetch_add(1, Ordering::Relaxed))
        } else {
            splitmix64(token)
        };
        self.ring.route(splitmix64(fnv1a(model.as_bytes()) ^ salt))
    }

    /// One merged telemetry view: every shard's private stats registry,
    /// the shard-level counters, and the process-global registry — each
    /// exactly once.
    fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = self.metrics.snapshot();
        for c in &self.clients {
            snap = snap.merged(&c.stats_telemetry());
        }
        snap.merged(&csp_telemetry::global_snapshot())
    }

    fn stats(&self, model: &str) -> StatsSnapshot {
        let merged = self
            .clients
            .iter()
            .map(|c| c.stats_telemetry())
            .reduce(|acc, s| acc.merged(&s))
            .unwrap_or_else(|| self.metrics.snapshot());
        let mut snap = StatsSnapshot::from_telemetry(&merged, model, self.max_batch);
        // QPS needs wall-clock windows a snapshot cannot carry: sum the
        // per-shard estimates (windows overlap, so this is approximate
        // but monotone in true throughput).
        snap.qps = self.clients.iter().map(|c| c.qps(model)).sum();
        snap
    }

    fn health(&self) -> HealthReport {
        let mut queue_depth = 0;
        let mut workers = 0;
        let mut restarts = 0;
        let mut panics = 0;
        let mut worst = HealthState::Ready;
        for c in &self.clients {
            let h = c.health();
            queue_depth += h.queue_depth;
            workers += h.workers;
            restarts += h.restarts;
            panics += h.panics;
            worst = match (worst, h.state) {
                (_, HealthState::Draining) | (HealthState::Draining, _) => HealthState::Draining,
                (_, HealthState::Degraded) | (HealthState::Degraded, _) => HealthState::Degraded,
                _ => HealthState::Ready,
            };
        }
        HealthReport {
            state: worst,
            queue_depth,
            workers,
            restarts,
            panics,
        }
    }
}

/// A cheap cloneable handle onto a [`ShardedEngine`]: routes requests to
/// shards, aggregates health/stats/telemetry. The TCP front-end
/// ([`ShardedServer`](crate::ShardedServer)) serves through one of these.
#[derive(Debug, Clone)]
pub struct ShardClient {
    set: Arc<ShardSet>,
}

impl ShardClient {
    /// Run one inference, blocking for the reply. Routed like
    /// [`infer_keyed`](ShardClient::infer_keyed) with `token == 0`.
    ///
    /// # Errors
    ///
    /// As [`Client::infer`].
    pub fn infer(
        &self,
        model: &str,
        input: &Tensor,
        budget: Option<Duration>,
    ) -> CspResult<InferReply> {
        self.infer_keyed(model, input, budget, 0, 0)
    }

    /// Run one inference with an idempotency key, blocking for the reply.
    /// A non-zero token pins `(model, token)` to one shard so retries hit
    /// that shard's reply cache.
    ///
    /// # Errors
    ///
    /// As [`Client::infer_keyed`].
    pub fn infer_keyed(
        &self,
        model: &str,
        input: &Tensor,
        budget: Option<Duration>,
        token: u64,
        req_id: u64,
    ) -> CspResult<InferReply> {
        self.submit_nowait(model, input, budget, token, req_id)?
            .wait()
    }

    /// Route and submit without blocking — the sharded front-end's event
    /// loop polls the returned [`PendingReply`].
    ///
    /// # Errors
    ///
    /// As [`Client::submit_nowait`].
    pub fn submit_nowait(
        &self,
        model: &str,
        input: &Tensor,
        budget: Option<Duration>,
        token: u64,
        req_id: u64,
    ) -> CspResult<PendingReply> {
        let shard = self.set.shard_for(model, token);
        self.set
            .metrics
            .counter_add(names::SERVE_SHARD_REQUESTS, &format!("s{shard}"), 1);
        self.set.clients[shard].submit_nowait(model, input, budget, token, req_id)
    }

    /// Aggregated health across every shard: queue depths, workers, and
    /// restart counts sum; the state is the worst shard's state.
    pub fn health(&self) -> HealthReport {
        self.set.health()
    }

    /// One model's stats aggregated across shards: counters summed,
    /// percentiles from the merged latency histograms (shard-count
    /// invariant), QPS summed from the per-shard windows.
    pub fn stats(&self, model: &str) -> StatsSnapshot {
        self.set.stats(model)
    }

    /// The merged telemetry snapshot served over the wire `Telemetry` op:
    /// all shards' serving counters, the `serve.shard.*` counters, and
    /// the process-global registry.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.set.telemetry_snapshot()
    }

    /// Record one injected wire-level fault (the sharded front-end calls
    /// this when its chaos session fires).
    pub(crate) fn record_chaos(&self, name: &str) {
        self.set.metrics.counter_add(name, "engine", 1);
    }

    /// Count one event on an IO-shard label (connections/frames/protocol
    /// errors from the event loop).
    pub(crate) fn record_io(&self, name: &str, io_shard: usize) {
        self.set
            .metrics
            .counter_add(name, &format!("io{io_shard}"), 1);
    }
}

/// N supervised engine shards behind a consistent-hash router — the
/// serving tier's multi-model, hot-swappable core.
#[derive(Debug)]
pub struct ShardedEngine {
    engines: Vec<Engine>,
    set: Arc<ShardSet>,
}

impl ShardedEngine {
    /// Start `policy.shards` engine shards, each with `policy.workers`
    /// workers and an empty registry. Models are published with
    /// [`deploy`](ShardedEngine::deploy).
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Config`] for an invalid policy.
    pub fn start(policy: ShardPolicy) -> CspResult<ShardedEngine> {
        ShardedEngine::start_with_chaos(policy, None)
    }

    /// Like [`start`](ShardedEngine::start), with a seeded chaos session
    /// shared by every shard's workers.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Config`] for an invalid policy.
    pub fn start_with_chaos(
        policy: ShardPolicy,
        chaos: Option<Arc<ChaosSession>>,
    ) -> CspResult<ShardedEngine> {
        policy.validate()?;
        let mut engines = Vec::with_capacity(policy.shards);
        let mut registries = Vec::with_capacity(policy.shards);
        for _ in 0..policy.shards {
            let registry = Arc::new(ModelRegistry::new());
            registries.push(Arc::clone(&registry));
            engines.push(Engine::start_with_chaos(
                registry,
                policy.batch,
                policy.workers,
                chaos.clone(),
            )?);
        }
        let set = Arc::new(ShardSet {
            clients: engines.iter().map(Engine::client).collect(),
            registries,
            ring: Ring::new(policy.shards, policy.replicas),
            spread: AtomicU64::new(0),
            metrics: Registry::new(),
            max_batch: policy.batch.max_batch,
        });
        Ok(ShardedEngine { engines, set })
    }

    /// Number of engine shards.
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// Publish a model to **every** shard from in-memory artifact bytes
    /// (initial deploy and in-memory hot-swap both land here; the swap is
    /// rolling — shard-by-shard, each an atomic publish).
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::load_from_bytes`]. Shards already swapped when
    /// an error occurs keep the new version; the rest keep serving the
    /// old one — no shard is ever left without a servable model.
    pub fn deploy(&self, name: &str, spec: ModelSpec, bytes: &[u8]) -> CspResult<RollingSwap> {
        self.roll(|registry| registry.load_from_bytes(name, spec, bytes))
    }

    /// Rolling hot-swap from a disk artifact, shard-by-shard. Each shard
    /// loads independently with the registry's `.prev` fallback: a shard
    /// that finds the primary generation corrupt recovers from the
    /// previous generation (recorded in [`RollingSwap::recovered`]) and
    /// keeps serving.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::load_from_path`]; partial-roll semantics as
    /// [`deploy`](ShardedEngine::deploy).
    pub fn rolling_swap_from_path(
        &self,
        name: &str,
        spec: ModelSpec,
        path: &Path,
    ) -> CspResult<RollingSwap> {
        self.roll(|registry| registry.load_from_path(name, spec, path))
    }

    fn roll(
        &self,
        mut load: impl FnMut(&ModelRegistry) -> CspResult<Arc<LoadedModel>>,
    ) -> CspResult<RollingSwap> {
        let mut versions = Vec::with_capacity(self.set.registries.len());
        let mut recovered = Vec::new();
        for (i, registry) in self.set.registries.iter().enumerate() {
            let model = load(registry)?;
            self.set
                .metrics
                .counter_add(names::SERVE_SHARD_SWAPS, &format!("s{i}"), 1);
            if !model.recovery.is_empty() {
                recovered.push(i);
            }
            versions.push(model.version);
        }
        Ok(RollingSwap {
            versions,
            recovered,
        })
    }

    /// Model names served (union across shards — identical on every shard
    /// outside a mid-roll window).
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = self.set.registries.iter().flat_map(|r| r.names()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// The routing client handle (cheap to clone; the TCP front-end
    /// serves through one).
    pub fn client(&self) -> ShardClient {
        ShardClient {
            set: Arc::clone(&self.set),
        }
    }

    /// A direct handle onto one shard's engine, bypassing the router —
    /// the cross-shard determinism tests pin requests to specific shards
    /// with this.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_client(&self, shard: usize) -> Client {
        self.engines[shard].client()
    }

    /// One shard's registry (tests inspect per-shard versions with this).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard_registry(&self, shard: usize) -> &Arc<ModelRegistry> {
        &self.set.registries[shard]
    }

    /// Aggregated health across shards (see [`ShardClient::health`]).
    pub fn health(&self) -> HealthReport {
        self.set.health()
    }

    /// Aggregated per-model stats (see [`ShardClient::stats`]).
    pub fn stats(&self, model: &str) -> StatsSnapshot {
        self.set.stats(model)
    }

    /// The merged telemetry snapshot (see
    /// [`ShardClient::telemetry_snapshot`]).
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.set.telemetry_snapshot()
    }

    /// Graceful shutdown: every shard drains its queue and joins its
    /// workers; every admitted request is answered.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Io`] if a shard's worker or supervisor thread
    /// panicked outside the supervised forward region — the first shard
    /// failure is returned, but every shard is shut down regardless.
    pub fn shutdown(self) -> CspResult<()> {
        let mut first_err = None;
        for e in self.engines {
            if let Err(err) = e.shutdown() {
                first_err.get_or_insert(err);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{prune_to_artifact, sample_input};

    fn policy(shards: usize) -> ShardPolicy {
        ShardPolicy {
            shards,
            workers: 1,
            batch: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                queue_cap: 64,
            },
            replicas: 16,
        }
    }

    #[test]
    fn policy_validation() {
        assert!(ShardPolicy::default().validate().is_ok());
        for bad in [
            ShardPolicy {
                shards: 0,
                ..Default::default()
            },
            ShardPolicy {
                workers: 0,
                ..Default::default()
            },
            ShardPolicy {
                replicas: 0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn ring_routing_is_deterministic_and_covers_all_shards() {
        let ring = Ring::new(4, 32);
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..256u64 {
            let a = ring.route(splitmix64(t));
            let b = ring.route(splitmix64(t));
            assert_eq!(a, b, "routing must be a pure function of the key");
            seen.insert(a);
        }
        assert_eq!(seen.len(), 4, "256 keys must touch every one of 4 shards");
    }

    #[test]
    fn ring_placement_is_pinned() {
        // Computed independently of this crate; a changed hash or ring
        // layout would move live keys to other shards.
        let ring = Ring::new(4, 32);
        let got: Vec<usize> = (100..112u64).map(|t| ring.route(splitmix64(t))).collect();
        assert_eq!(got, [2, 0, 3, 0, 3, 0, 2, 2, 1, 3, 2, 2]);
        assert_eq!(ring.route(0), 2);
        assert_eq!(
            ring.route(u64::MAX),
            2,
            "keys past the last point wrap around"
        );
    }

    #[test]
    fn idempotent_retries_pin_their_shard_and_dedup_across_the_router() {
        let spec = ModelSpec::default();
        let artifact = prune_to_artifact(spec, 0.8);
        let sharded = ShardedEngine::start(policy(4)).unwrap();
        sharded.deploy("m", spec, &artifact).unwrap();
        let client = sharded.client();
        let x = sample_input(spec, 3, 1);
        let first = client.infer_keyed("m", &x, None, 99, 7).unwrap();
        let retry = client.infer_keyed("m", &x, None, 99, 7).unwrap();
        assert_eq!(first, retry, "retry must be served from the reply cache");
        let snap = sharded.stats("m");
        assert_eq!(snap.completed, 1, "the retry must not re-execute anywhere");
        assert_eq!(snap.admitted, 1);
        let tel = sharded.telemetry_snapshot();
        assert_eq!(tel.counter("serve.dedup_hits", "m"), 1);
        sharded.shutdown().unwrap();
    }

    #[test]
    fn spread_requests_land_on_multiple_shards() {
        let spec = ModelSpec::default();
        let artifact = prune_to_artifact(spec, 0.8);
        let sharded = ShardedEngine::start(policy(4)).unwrap();
        sharded.deploy("m", spec, &artifact).unwrap();
        let client = sharded.client();
        let x = sample_input(spec, 5, 1);
        for _ in 0..32 {
            client.infer("m", &x, None).unwrap();
        }
        let tel = sharded.telemetry_snapshot();
        let busy = (0..4)
            .filter(|s| tel.counter("serve.shard.requests", &format!("s{s}")) > 0)
            .count();
        assert!(
            busy >= 2,
            "32 token-0 requests must spread over more than one shard (saw {busy})"
        );
        sharded.shutdown().unwrap();
    }

    #[test]
    fn aggregated_stats_account_across_shards() {
        let spec = ModelSpec::default();
        let artifact = prune_to_artifact(spec, 0.8);
        let sharded = ShardedEngine::start(policy(2)).unwrap();
        sharded.deploy("m", spec, &artifact).unwrap();
        let client = sharded.client();
        let x = sample_input(spec, 1, 1);
        for _ in 0..10 {
            client.infer("m", &x, None).unwrap();
        }
        let snap = sharded.stats("m");
        assert_eq!(snap.completed, 10);
        assert_eq!(snap.admitted, snap.completed + snap.failed + snap.expired);
        assert!(snap.p50_us > 0, "merged percentiles must be populated");
        assert!(snap.batch_hist.iter().sum::<u64>() > 0);
        let health = sharded.health();
        assert_eq!(health.state, HealthState::Ready);
        assert_eq!(health.workers, 2, "1 worker × 2 shards");
        sharded.shutdown().unwrap();
    }

    #[test]
    fn rolling_swap_bumps_every_shard_and_counts_swaps() {
        let spec = ModelSpec::default();
        let sharded = ShardedEngine::start(policy(3)).unwrap();
        sharded
            .deploy("m", spec, &prune_to_artifact(spec, 0.8))
            .unwrap();
        let roll = sharded
            .deploy("m", spec, &prune_to_artifact(spec, 1.2))
            .unwrap();
        assert_eq!(roll.versions, vec![2, 2, 2]);
        assert!(roll.recovered.is_empty());
        let tel = sharded.telemetry_snapshot();
        for s in 0..3 {
            assert_eq!(tel.counter("serve.shard.swaps", &format!("s{s}")), 2);
        }
        assert_eq!(sharded.models(), vec!["m".to_string()]);
        sharded.shutdown().unwrap();
    }
}
