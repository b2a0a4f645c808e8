//! The batched inference engine: a supervised worker pool draining the
//! [`BatchQueue`](crate::batch) and executing batches on forward-only
//! networks rebuilt from the registry.
//!
//! ## Determinism
//!
//! A batch of `N` requests returns **byte-identical** results to `N`
//! serial single-request calls (property-tested in
//! `tests/prop_serve_determinism.rs`). Three ingredients make this hold:
//!
//! 1. every kernel reached by an eval-mode forward pass is per-sample
//!    independent — convolutions shard the batch dimension, the GEMM
//!    computes each output row from one input row with a fixed
//!    accumulation order, and normalization uses running statistics;
//! 2. workers execute batches under a serial `csp-runtime` pool
//!    (`with_threads(1)`), so the engine's own thread count never leaks
//!    into kernel partitioning;
//! 3. a worker grabs the model `Arc` **once per batch**, so a hot-swap
//!    can never mix two versions inside one batch.
//!
//! ## Supervision
//!
//! The model-build + forward region of every batch runs under
//! `catch_unwind`: a panicking worker first answers **every** request in
//! its batch with a typed [`CspError::Internal`] (no request is ever
//! silently lost), then exits. A supervisor thread notices the death and
//! respawns the worker while the queue is open, so the engine keeps
//! serving — health degrades instead of the service dying. The [`Health`]
//! report exposes queue depth, restart and panic counts. Restart
//! bookkeeping (death detection, joining, counters, the degraded-window
//! clock) is `csp_runtime::Supervisor` — the same implementation that
//! supervises the runtime's persistent worker pool — so `serve.*` and
//! `runtime.worker.*` restart accounting share one code path.
//!
//! [`Health`]: crate::protocol::HealthReport
//!
//! ## Idempotent retries
//!
//! A request carrying a non-zero `(token, req_id)` key is deduplicated:
//! the engine caches completed `Ok` replies (bounded FIFO), and a retry
//! racing an in-flight execution piggybacks on it instead of re-executing.
//! A retry after a lost reply therefore never double-executes and never
//! double-counts `completed` — it bumps `serve.dedup_hits` instead.

use crate::batch::{BatchPolicy, BatchQueue, InferReply, Pending};
use crate::chaos::ChaosSession;
use crate::protocol::{HealthReport, HealthState};
use crate::registry::ModelRegistry;
use crate::stats::Stats;
use csp_nn::Sequential;
use csp_runtime::{with_threads, Supervisor};
use csp_sim::FaultClass;
use csp_tensor::{CspError, CspResult, Tensor};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Completed `Ok` replies kept for retry deduplication (FIFO eviction).
const DEDUP_CACHE_CAP: usize = 4096;

/// How often the supervisor scans for dead workers.
const SUPERVISOR_POLL: Duration = Duration::from_millis(10);

/// A worker restart within this window reports the engine as degraded.
const DEGRADED_WINDOW: Duration = Duration::from_secs(5);

/// Retry-dedup state: completed replies plus in-flight waiter lists,
/// both keyed by `(token, req_id)`.
#[derive(Debug, Default)]
struct Dedup {
    cache: HashMap<(u64, u64), InferReply>,
    order: VecDeque<(u64, u64)>,
    inflight: HashMap<(u64, u64), Vec<Sender<CspResult<InferReply>>>>,
}

impl Dedup {
    fn insert_cached(&mut self, key: (u64, u64), reply: InferReply) {
        if self.cache.insert(key, reply).is_none() {
            self.order.push_back(key);
            while self.order.len() > DEDUP_CACHE_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.cache.remove(&old);
                }
            }
        }
    }
}

/// State shared by clients, workers, the supervisor, and the TCP
/// front-end.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) queue: BatchQueue,
    pub(crate) stats: Stats,
    pub(crate) chaos: Option<Arc<ChaosSession>>,
    dedup: Mutex<Dedup>,
    workers: usize,
    /// Restart accounting shared with the runtime pool's supervision
    /// machinery — one bookkeeping implementation for both tiers.
    supervisor: Supervisor,
}

impl Shared {
    /// Admit one request, recording admission/shed stats.
    ///
    /// Expiry-aware admission: a request whose deadline has already
    /// passed is answered with a typed `Expired` *here*, before it ever
    /// occupies a queue slot — the earliest of the expiry checks (the
    /// batcher re-checks at batch formation). It still counts as
    /// admitted, so `admitted == completed + failed + expired` holds at
    /// every shed point.
    pub(crate) fn submit(&self, p: Pending) -> CspResult<()> {
        let model = p.model.clone();
        if let Some(d) = p.deadline {
            if d <= Instant::now() {
                self.stats.record_admitted(&model);
                self.stats.record_expired(&model);
                return Err(CspError::Expired {
                    what: format!(
                        "request arrived {:.1} ms past its deadline",
                        p.enqueued.elapsed().as_secs_f64() * 1e3
                    ),
                });
            }
        }
        match self.queue.submit(p) {
            Ok(()) => {
                self.stats.record_admitted(&model);
                Ok(())
            }
            Err(e) => {
                self.stats.record_shed(&model);
                Err(e)
            }
        }
    }

    /// The engine's current health verdict.
    pub(crate) fn health(&self) -> HealthReport {
        let queue_depth = self.queue.len();
        let recently_restarted = self.supervisor.restarted_within(DEGRADED_WINDOW);
        let state = if self.queue.is_closed() {
            HealthState::Draining
        } else if recently_restarted || queue_depth >= self.queue.policy().queue_cap {
            HealthState::Degraded
        } else {
            HealthState::Ready
        };
        HealthReport {
            state,
            queue_depth,
            workers: self.workers,
            restarts: self.stats.worker_restarts(),
            panics: self.stats.worker_panics(),
        }
    }
}

/// Route one result to a request's submitter — and, for idempotent
/// requests, to every retry that piggybacked on the execution, caching
/// `Ok` replies for later retries.
fn deliver(shared: &Shared, p: &Pending, result: &CspResult<InferReply>) {
    if p.token != 0 {
        let key = (p.token, p.req_id);
        let waiters = {
            let mut d = shared.dedup.lock().expect("dedup lock");
            let waiters = d.inflight.remove(&key).unwrap_or_default();
            if let Ok(reply) = result {
                d.insert_cached(key, reply.clone());
            }
            waiters
        };
        for w in waiters {
            let _ = w.send(result.clone());
        }
    }
    let _ = p.tx.send(result.clone());
}

/// The worker pool: handles live behind a mutex so the supervisor can
/// swap dead workers for fresh ones while `shutdown` can still join
/// everything.
#[derive(Debug)]
struct WorkerSet {
    handles: Mutex<Vec<JoinHandle<()>>>,
    next_index: AtomicUsize,
}

fn spawn_worker(shared: Arc<Shared>, index: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("csp-serve-worker-{index}"))
        .spawn(move || worker_loop(&shared))
        .expect("spawn worker")
}

/// Respawn workers that died while the queue is open. A worker exits
/// normally only once the queue is closed *and* drained, so "finished
/// while open" always means a panic death. Death detection, joining,
/// and panic/restart counting all live in
/// [`Supervisor::respawn_finished`] — the same sweep the runtime pool's
/// supervisor runs — so the two tiers cannot drift apart; this loop only
/// supplies the serve-specific respawn policy (decline while draining,
/// mirror the restart into the engine's stats registry).
fn supervisor_loop(shared: &Arc<Shared>, set: &WorkerSet) {
    loop {
        if shared.queue.is_closed() {
            return;
        }
        {
            let mut handles = set.handles.lock().expect("worker set lock");
            shared.supervisor.respawn_finished(&mut handles, |_| {
                if shared.queue.is_closed() {
                    return None;
                }
                let index = set.next_index.fetch_add(1, Ordering::SeqCst);
                shared.stats.record_worker_restart();
                Some(spawn_worker(Arc::clone(shared), index))
            });
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
}

/// One engine shard: supervised worker threads plus the shared
/// queue/registry. [`ShardedEngine`](crate::ShardedEngine) owns these.
///
/// Dropping an `Engine` without calling [`shutdown`](Engine::shutdown)
/// closes the queue and detaches the workers (they drain and exit);
/// `shutdown` additionally joins them, guaranteeing every admitted request
/// was answered.
#[derive(Debug)]
pub(crate) struct Engine {
    shared: Arc<Shared>,
    set: Arc<WorkerSet>,
    supervisor: Option<JoinHandle<()>>,
}

impl Engine {
    /// Start `workers` worker threads serving `registry` under `policy`,
    /// drawing seeded serving-tier faults (worker stalls and panics) from
    /// `chaos` when given.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Config`] for an invalid policy or zero workers.
    pub(crate) fn start_with_chaos(
        registry: Arc<ModelRegistry>,
        policy: BatchPolicy,
        workers: usize,
        chaos: Option<Arc<ChaosSession>>,
    ) -> CspResult<Engine> {
        policy.validate()?;
        if workers == 0 {
            return Err(CspError::Config {
                what: "engine needs at least one worker".to_string(),
            });
        }
        let shared = Arc::new(Shared {
            registry,
            queue: BatchQueue::new(policy),
            stats: Stats::new(policy.max_batch),
            chaos,
            dedup: Mutex::new(Dedup::default()),
            workers,
            supervisor: Supervisor::new(),
        });
        let set = Arc::new(WorkerSet {
            handles: Mutex::new(
                (0..workers)
                    .map(|i| spawn_worker(Arc::clone(&shared), i))
                    .collect(),
            ),
            next_index: AtomicUsize::new(workers),
        });
        let supervisor = {
            let shared = Arc::clone(&shared);
            let set = Arc::clone(&set);
            std::thread::Builder::new()
                .name("csp-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared, &set))
                .expect("spawn supervisor")
        };
        Ok(Engine {
            shared,
            set,
            supervisor: Some(supervisor),
        })
    }

    /// A cheap cloneable handle for submitting requests in-process.
    pub(crate) fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful shutdown: refuse new admissions, drain every queued
    /// request (each gets a response), and join the supervisor and
    /// workers. Requests left queued because every worker died mid-drain
    /// are answered with a typed [`CspError::Internal`] — never silently
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns [`CspError::Io`] if a worker or the supervisor panicked
    /// outside the supervised forward region.
    pub(crate) fn shutdown(mut self) -> CspResult<()> {
        self.shared.queue.close();
        if let Some(s) = self.supervisor.take() {
            s.join().map_err(|_| CspError::Io {
                path: "csp-serve supervisor".to_string(),
                what: "supervisor thread panicked".to_string(),
            })?;
        }
        let handles = std::mem::take(&mut *self.set.handles.lock().expect("worker set lock"));
        for h in handles {
            h.join().map_err(|_| CspError::Io {
                path: "csp-serve worker".to_string(),
                what: "worker thread panicked during drain".to_string(),
            })?;
        }
        // Backstop: if every worker died mid-drain, answer the leftovers.
        for p in self.shared.queue.drain_remaining() {
            self.shared.stats.record_failed(&p.model);
            deliver(
                &self.shared,
                &p,
                &Err(CspError::Internal {
                    what: "every worker died before this request could execute".to_string(),
                }),
            );
        }
        Ok(())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.queue.close();
    }
}

/// An in-process client: submits a request and blocks for the reply.
#[derive(Debug, Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

/// How an idempotent request should proceed after consulting the dedup
/// state.
enum Route {
    Cached(InferReply),
    Wait(Receiver<CspResult<InferReply>>),
    Execute,
}

/// A reply that may not have arrived yet: the handle returned by
/// [`Client::submit_nowait`].
///
/// The nonblocking front-end polls these with
/// [`try_take`](PendingReply::try_take) from its event loop; blocking
/// callers use [`wait`](PendingReply::wait). Either way the reply is
/// yielded exactly once.
#[derive(Debug)]
pub struct PendingReply {
    inner: PendingInner,
}

#[derive(Debug)]
enum PendingInner {
    /// The reply was available at submission time (dedup cache hit).
    Now(Option<CspResult<InferReply>>),
    /// The reply arrives on this channel when a worker (or a piggybacked
    /// execution) delivers it.
    Rx(Receiver<CspResult<InferReply>>),
}

impl PendingReply {
    fn now(result: CspResult<InferReply>) -> Self {
        PendingReply {
            inner: PendingInner::Now(Some(result)),
        }
    }

    fn rx(rx: Receiver<CspResult<InferReply>>) -> Self {
        PendingReply {
            inner: PendingInner::Rx(rx),
        }
    }

    /// Block until the reply arrives.
    ///
    /// # Errors
    ///
    /// The engine's typed per-request error, or [`CspError::Overloaded`]
    /// if the engine terminated before responding.
    pub fn wait(self) -> CspResult<InferReply> {
        match self.inner {
            PendingInner::Now(r) => r.expect("reply already taken"),
            PendingInner::Rx(rx) => rx.recv().map_err(|_| CspError::Overloaded {
                what: "engine terminated before responding".to_string(),
            })?,
        }
    }

    /// Nonblocking poll: `Some(result)` once the reply is available (at
    /// most once — the reply is moved out), `None` while still in flight.
    /// An engine that terminated before responding yields a typed
    /// [`CspError::Overloaded`].
    pub fn try_take(&mut self) -> Option<CspResult<InferReply>> {
        match &mut self.inner {
            PendingInner::Now(r) => r.take(),
            PendingInner::Rx(rx) => match rx.try_recv() {
                Ok(r) => Some(r),
                Err(std::sync::mpsc::TryRecvError::Empty) => None,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    Some(Err(CspError::Overloaded {
                        what: "engine terminated before responding".to_string(),
                    }))
                }
            },
        }
    }
}

impl Client {
    /// Run one inference. `budget` (if given) is the end-to-end deadline:
    /// a request still queued when it expires is shed with
    /// [`CspError::Expired`] instead of executed late.
    ///
    /// # Errors
    ///
    /// [`CspError::Overloaded`] when shed (queue full or draining),
    /// [`CspError::Expired`] when the deadline passed in the queue,
    /// [`CspError::Config`] for an unknown model or an input that does not
    /// match the model's `(c, h, w)` shape, [`CspError::Internal`] when
    /// the executing worker panicked, and any execution error from the
    /// forward pass.
    pub fn infer(
        &self,
        model: &str,
        input: &Tensor,
        budget: Option<Duration>,
    ) -> CspResult<InferReply> {
        self.infer_keyed(model, input, budget, 0, 0)
    }

    /// Like [`infer`](Client::infer), with an idempotency key. A non-zero
    /// `token` makes `(token, req_id)` deduplicate retries: a key whose
    /// execution already completed returns the cached reply, and a key
    /// currently executing piggybacks on that execution — either way the
    /// request is **not** re-executed and `completed` is not
    /// double-counted.
    ///
    /// # Errors
    ///
    /// As [`infer`](Client::infer).
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

    /// Submit a request without blocking for the reply: validation, dedup
    /// routing, and admission happen synchronously (their typed errors
    /// return immediately), and the returned [`PendingReply`] is polled
    /// or awaited for the outcome. This is the submission path of the
    /// nonblocking sharded front-end, whose event loop must never park on
    /// an individual request.
    ///
    /// # Errors
    ///
    /// As [`infer`](Client::infer), for errors detectable at submission
    /// (unknown model, shape mismatch, shed, already-expired deadline).
    pub fn submit_nowait(
        &self,
        model: &str,
        input: &Tensor,
        budget: Option<Duration>,
        token: u64,
        req_id: u64,
    ) -> CspResult<PendingReply> {
        let loaded = self.shared.registry.get(model).ok_or(CspError::Config {
            what: format!("unknown model {model:?}"),
        })?;
        if input.len() != loaded.spec.input_len() {
            return Err(CspError::Config {
                what: format!(
                    "input holds {} elements but model {model:?} expects {:?} = {}",
                    input.len(),
                    loaded.spec.input_dims(),
                    loaded.spec.input_len()
                ),
            });
        }
        let key = (token, req_id);
        if token != 0 {
            let route = {
                let mut d = self.shared.dedup.lock().expect("dedup lock");
                if let Some(reply) = d.cache.get(&key) {
                    Route::Cached(reply.clone())
                } else if let Some(waiters) = d.inflight.get_mut(&key) {
                    let (tx, rx) = channel();
                    waiters.push(tx);
                    Route::Wait(rx)
                } else {
                    d.inflight.insert(key, Vec::new());
                    Route::Execute
                }
            };
            match route {
                Route::Cached(reply) => {
                    self.shared.stats.record_dedup(model);
                    return Ok(PendingReply::now(Ok(reply)));
                }
                Route::Wait(rx) => {
                    self.shared.stats.record_dedup(model);
                    return Ok(PendingReply::rx(rx));
                }
                Route::Execute => {}
            }
        }
        let dims = loaded.spec.input_dims();
        let sample = Tensor::from_vec(input.as_slice().to_vec(), &dims)?;
        let now = Instant::now();
        let (tx, rx) = channel();
        let submitted = self.shared.submit(Pending {
            model: model.to_string(),
            input: sample,
            deadline: budget.map(|b| now + b),
            enqueued: now,
            token,
            req_id,
            tx,
        });
        if let Err(e) = submitted {
            if token != 0 {
                // Un-register the in-flight key and fail anyone who
                // piggybacked in the meantime: a shed is retryable, so
                // the next attempt may legitimately re-execute.
                let waiters = {
                    let mut d = self.shared.dedup.lock().expect("dedup lock");
                    d.inflight.remove(&key).unwrap_or_default()
                };
                for w in waiters {
                    let _ = w.send(Err(e.clone()));
                }
            }
            return Err(e);
        }
        Ok(PendingReply::rx(rx))
    }

    /// The engine's current health verdict (served as the TCP `Health`
    /// op).
    pub fn health(&self) -> HealthReport {
        self.shared.health()
    }

    /// Completed requests per second for one model over this engine's
    /// active window.
    pub(crate) fn qps(&self, model: &str) -> f64 {
        self.shared.stats.qps(model)
    }

    /// This engine's serving counters alone, **without** the process-global
    /// registry merged in. The sharded tier folds one of these per shard
    /// and merges the global registry exactly once, so global counters
    /// are not multiplied by the shard count.
    pub(crate) fn stats_telemetry(&self) -> csp_telemetry::Snapshot {
        self.shared.stats.telemetry_snapshot()
    }
}

fn worker_loop(shared: &Shared) {
    // Per-worker cache of built networks, keyed by model name; rebuilt
    // whenever the registry's version moved.
    let mut cache: HashMap<String, (u64, Sequential)> = HashMap::new();
    while let Some(batch) = shared.queue.next_batch() {
        if !execute_batch(shared, &mut cache, batch) {
            // The batch panicked; every request was answered with a typed
            // error. Exit so the supervisor respawns a clean worker.
            return;
        }
    }
}

/// Respond to every request in `batch` with a clone of `err`.
fn fail_batch(shared: &Shared, batch: Vec<Pending>, err: &CspError) {
    let failed = Err(err.clone());
    for p in batch {
        shared.stats.record_failed(&p.model);
        deliver(shared, &p, &failed);
    }
}

/// Extract a printable message from a panic payload.
fn panic_what(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute one batch. Returns `false` when the worker must die (its
/// forward region panicked) — every request has already been answered.
fn execute_batch(
    shared: &Shared,
    cache: &mut HashMap<String, (u64, Sequential)>,
    batch: Vec<Pending>,
) -> bool {
    // Shed requests whose deadline expired while queued.
    let now = Instant::now();
    let (live, dead): (Vec<Pending>, Vec<Pending>) = batch
        .into_iter()
        .partition(|p| p.deadline.is_none_or(|d| d > now));
    for p in dead {
        shared.stats.record_expired(&p.model);
        let expired = Err(CspError::Expired {
            what: format!(
                "request spent {:.1} ms in queue, past its deadline",
                p.enqueued.elapsed().as_secs_f64() * 1e3
            ),
        });
        deliver(shared, &p, &expired);
    }
    if live.is_empty() {
        return true;
    }

    let name = live[0].model.clone();
    // One Arc grab per batch: the whole batch executes on this version.
    let Some(model) = shared.registry.get(&name) else {
        fail_batch(
            shared,
            live,
            &CspError::Config {
                what: format!("model {name:?} disappeared from the registry"),
            },
        );
        return true;
    };

    // Seeded chaos: a stalled worker sleeps (the batch still executes,
    // late), a panicking worker dies inside the supervised region below.
    let mut inject_panic = false;
    if let Some(chaos) = &shared.chaos {
        if chaos.fires(FaultClass::WorkerStall) {
            shared
                .stats
                .record_chaos(csp_telemetry::names::SERVE_CHAOS_STALLS);
            std::thread::sleep(chaos.stall());
        }
        inject_panic = chaos.fires(FaultClass::WorkerPanic);
    }

    let dims = model.spec.input_dims();
    let per = model.spec.input_len();
    let n = live.len();
    let mut data = Vec::with_capacity(n * per);
    for p in &live {
        data.extend_from_slice(p.input.as_slice());
    }
    // The supervised region: anything that runs model code (build +
    // forward) may panic; the requests themselves stay outside so every
    // one of them can still be answered below.
    let outcome = catch_unwind(AssertUnwindSafe(|| -> CspResult<Tensor> {
        if inject_panic {
            panic!("chaos-injected worker panic");
        }
        let net = match cache.get(&name) {
            Some((v, _)) if *v == model.version => &mut cache.get_mut(&name).expect("cached").1,
            _ => {
                let built = model.build()?;
                cache.insert(name.clone(), (model.version, built));
                &mut cache.get_mut(&name).expect("just inserted").1
            }
        };
        let x = Tensor::from_vec(data, &[n, dims[0], dims[1], dims[2]])?;
        // Serial kernel pool: worker-level parallelism comes from the
        // engine's thread count, and kernel partitioning must not depend
        // on it (determinism rule 2 at the module root).
        Ok(with_threads(1, || net.forward(&x, false))?)
    }));
    match outcome {
        Ok(Ok(y)) => {
            let c = y.dims()[1];
            shared.stats.record_batch(&name, n);
            shared.stats.record_execution(model.spec.execution.name());
            for (i, p) in live.into_iter().enumerate() {
                let row = y.as_slice()[i * c..(i + 1) * c].to_vec();
                shared
                    .stats
                    .record_completed(&name, p.enqueued.elapsed().as_micros() as u64);
                let reply = Ok(InferReply {
                    output: row,
                    model_version: model.version,
                    batch_size: n,
                });
                deliver(shared, &p, &reply);
            }
            true
        }
        Ok(Err(e)) => {
            fail_batch(shared, live, &e);
            true
        }
        Err(payload) => {
            shared.stats.record_worker_panic();
            let err = CspError::Internal {
                what: format!("worker panic: {}", panic_what(payload.as_ref())),
            };
            fail_batch(shared, live, &err);
            // The network may have been left mid-mutation by the panic;
            // drop it so a respawned worker rebuilds from the artifact.
            cache.remove(&name);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelSpec;
    use crate::testutil::{prune_to_artifact, sample_input};
    use csp_sim::FaultPlan;

    fn engine_with_model(policy: BatchPolicy, workers: usize) -> (Engine, ModelSpec) {
        let spec = ModelSpec::default();
        let registry = Arc::new(ModelRegistry::new());
        registry
            .load_from_bytes("m", spec, &prune_to_artifact(spec, 0.8))
            .unwrap();
        let engine = Engine::start_with_chaos(registry, policy, workers, None).unwrap();
        (engine, spec)
    }

    #[test]
    fn single_request_round_trip() {
        let (engine, spec) = engine_with_model(BatchPolicy::default(), 1);
        let client = engine.client();
        let x = sample_input(spec, 5, 1);
        let reply = client.infer("m", &x, None).unwrap();
        assert_eq!(reply.output.len(), spec.classes);
        assert_eq!(reply.model_version, 1);
        assert!(reply.batch_size >= 1);
        let stats = engine.shared.stats.snapshot("m");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.shed, 0);
        engine.shutdown().unwrap();
    }

    #[test]
    fn unknown_model_and_bad_shape_are_config_errors() {
        let (engine, spec) = engine_with_model(BatchPolicy::default(), 1);
        let client = engine.client();
        let x = sample_input(spec, 5, 1);
        assert!(matches!(
            client.infer("ghost", &x, None),
            Err(CspError::Config { .. })
        ));
        let bad = Tensor::zeros(&[3]);
        assert!(matches!(
            client.infer("m", &bad, None),
            Err(CspError::Config { .. })
        ));
        engine.shutdown().unwrap();
    }

    #[test]
    fn shutdown_answers_every_admitted_request() {
        let (engine, spec) = engine_with_model(
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                queue_cap: 64,
            },
            2,
        );
        let client = engine.client();
        let x = sample_input(spec, 5, 1);
        let mut threads = Vec::new();
        for _ in 0..16 {
            let c = client.clone();
            let xi = x.clone();
            threads.push(std::thread::spawn(move || c.infer("m", &xi, None)));
        }
        engine.shutdown().unwrap();
        let mut answered = 0;
        for t in threads {
            match t.join().unwrap() {
                Ok(_) => answered += 1,
                // Requests arriving after close() are shed with a typed
                // error — also an answer.
                Err(CspError::Overloaded { .. }) => answered += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!(answered, 16, "no request may hang across shutdown");
    }

    #[test]
    fn expired_deadline_is_shed_not_executed() {
        let (engine, spec) = engine_with_model(
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::ZERO,
                queue_cap: 64,
            },
            1,
        );
        let client = engine.client();
        let x = sample_input(spec, 5, 1);
        // A deadline already in the past must come back typed Expired —
        // distinguishable from admission-control Overloaded.
        let err = client.infer("m", &x, Some(Duration::ZERO)).unwrap_err();
        assert!(matches!(err, CspError::Expired { ref what } if what.contains("deadline")));
        let stats = engine.shared.stats.snapshot("m");
        assert_eq!(stats.expired, 1);
        engine.shutdown().unwrap();
    }

    #[test]
    fn batching_actually_happens_under_concurrency() {
        let (engine, spec) = engine_with_model(
            BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(100),
                queue_cap: 64,
            },
            1,
        );
        let client = engine.client();
        let mut threads = Vec::new();
        for i in 0..8 {
            let c = client.clone();
            let xi = sample_input(spec, i as u64, 1);
            threads.push(std::thread::spawn(move || c.infer("m", &xi, None).unwrap()));
        }
        let replies: Vec<InferReply> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let max_seen = replies.iter().map(|r| r.batch_size).max().unwrap();
        assert!(
            max_seen > 1,
            "a 100 ms hold with 8 concurrent clients must form a multi-request batch"
        );
        let stats = engine.shared.stats.snapshot("m");
        assert_eq!(stats.completed, 8);
        assert!(stats.batch_hist[max_seen] >= 1);
        engine.shutdown().unwrap();
    }

    #[test]
    fn retry_with_same_key_returns_cached_reply_without_reexecuting() {
        let (engine, spec) = engine_with_model(BatchPolicy::default(), 1);
        let client = engine.client();
        let x = sample_input(spec, 9, 1);
        let first = client.infer_keyed("m", &x, None, 7, 1).unwrap();
        let retry = client.infer_keyed("m", &x, None, 7, 1).unwrap();
        assert_eq!(first, retry, "retry must see the exact same reply");
        let stats = engine.shared.stats.snapshot("m");
        assert_eq!(stats.completed, 1, "the retry must not re-execute");
        assert_eq!(stats.admitted, 1, "the retry must not re-admit");
        assert_eq!(
            engine
                .shared
                .stats
                .telemetry_snapshot()
                .counter("serve.dedup_hits", "m"),
            1
        );
        // A different id under the same token does execute.
        client.infer_keyed("m", &x, None, 7, 2).unwrap();
        assert_eq!(engine.shared.stats.snapshot("m").completed, 2);
        engine.shutdown().unwrap();
    }

    #[test]
    fn engine_survives_chaos_worker_panics() {
        let spec = ModelSpec::default();
        let registry = Arc::new(ModelRegistry::new());
        registry
            .load_from_bytes("m", spec, &prune_to_artifact(spec, 0.8))
            .unwrap();
        // Every batch panics until the plan's stream says otherwise: rate
        // 1.0 means the first batch always dies.
        let chaos = Arc::new(ChaosSession::new(
            FaultPlan::bernoulli(1.0, 3).with_classes(&[FaultClass::WorkerPanic]),
            Duration::ZERO,
        ));
        let engine = Engine::start_with_chaos(
            registry,
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::ZERO,
                queue_cap: 64,
            },
            1,
            Some(chaos),
        )
        .unwrap();
        let client = engine.client();
        let x = sample_input(spec, 5, 1);
        let err = client.infer("m", &x, None).unwrap_err();
        assert!(
            matches!(err, CspError::Internal { ref what } if what.contains("panic")),
            "a panicked batch must answer with typed Internal, got {err:?}"
        );
        // Wait for the supervisor to respawn the worker, then the engine
        // must still be serving (the next batch panics again — typed —
        // proving the respawned worker picked the queue back up).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.infer("m", &x, None) {
                Err(CspError::Internal { .. }) => break,
                Ok(_) => break,
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => panic!("engine stopped serving after a worker panic: {e}"),
            }
        }
        // The supervisor records the restart just after respawning; give
        // it a moment to catch up with the reply we already saw.
        while engine.shared.health().restarts < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let health = engine.shared.health();
        assert!(health.restarts >= 1, "supervisor must have restarted");
        assert!(health.panics >= 1);
        assert_eq!(health.state, HealthState::Degraded, "restart within 5 s");
        engine.shutdown().unwrap();
    }

    #[test]
    fn health_reports_ready_then_draining() {
        let (engine, _) = engine_with_model(BatchPolicy::default(), 2);
        let h = engine.shared.health();
        assert_eq!(h.state, HealthState::Ready);
        assert_eq!(h.workers, 2);
        assert_eq!(h.restarts, 0);
        let client = engine.client();
        engine.shutdown().unwrap();
        assert_eq!(client.health().state, HealthState::Draining);
    }
}
