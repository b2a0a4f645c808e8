//! Resilience property suite for the serving tier.
//!
//! Four contracts:
//!
//! * **deadline round-trip** — a request's remaining-budget deadline
//!   survives the wire protocol exactly;
//! * **backoff determinism** — the resilient client's jittered
//!   exponential backoff is a pure function of `(seed, attempt)`;
//! * **retry never double-executes** — resending the same `(token, id)`
//!   key (what a retry after a lost reply does) is answered from the
//!   engine's reply cache: one execution, bit-identical replies;
//! * **the engine survives worker panics** — at every pool size, every
//!   request gets a typed outcome and supervised restarts keep the pool
//!   serving.

use csp_serve::protocol::{AnyRequest, RequestV2};
use csp_serve::testutil::{prune_to_artifact, sample_input};
use csp_serve::{ChaosSession, HealthState, ModelSpec, RetryPolicy, ShardPolicy, ShardedEngine};
use csp_sim::{FaultClass, FaultPlan};
use csp_tensor::{CspError, Tensor};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// One engine shard of `workers` workers on the default batch policy.
fn one_shard(workers: usize) -> ShardPolicy {
    ShardPolicy {
        shards: 1,
        workers,
        ..ShardPolicy::default()
    }
}

fn request_sample(spec: ModelSpec, seed: u64) -> Tensor {
    let x = sample_input(spec, seed, 1);
    let d = spec.input_dims();
    Tensor::from_vec(x.as_slice().to_vec(), &d).expect("same length")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The remaining-budget deadline round-trips bit-exactly through the
    /// v2 wire framing, along with the idempotency key.
    #[test]
    fn v2_deadline_round_trips_through_the_protocol(
        token in 0u64..=u64::MAX,
        id in 0u64..=u64::MAX,
        attempt in 0u32..=u32::MAX,
        deadline_us in 0u64..=u64::MAX,
    ) {
        let req = RequestV2 {
            token,
            id,
            attempt,
            model: "m".to_string(),
            deadline_us,
            input: Tensor::zeros(&[1, 2, 2]),
        };
        match AnyRequest::decode(&req.encode()).expect("decode") {
            AnyRequest::InferV2(got) => {
                prop_assert_eq!(got.token, token);
                prop_assert_eq!(got.id, id);
                prop_assert_eq!(got.attempt, attempt);
                prop_assert_eq!(got.deadline_us, deadline_us);
            }
            other => prop_assert!(false, "wrong dispatch: {other:?}"),
        }
    }

    /// Backoff is a pure function of `(seed, attempt)`: recomputing gives
    /// the same delay, the delay sits in `[exp/2, exp)`, and a different
    /// seed moves the jitter.
    #[test]
    fn backoff_is_deterministic_under_a_fixed_seed(
        seed in 0u64..=u64::MAX,
        attempt in 0u32..24,
    ) {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(100),
            seed,
        };
        let d1 = p.backoff(attempt);
        let d2 = p.backoff(attempt);
        prop_assert_eq!(d1, d2, "same (seed, attempt), same delay");
        let exp = Duration::from_millis(1u64 << attempt.min(32))
            .min(Duration::from_millis(100));
        prop_assert!(d1 >= exp / 2 && d1 < exp, "{d1:?} outside [{exp:?}/2, {exp:?})");
        let moved = RetryPolicy { seed: seed ^ 1, ..p }.backoff(attempt);
        // Jitter depends on the seed (collisions are possible but the
        // delay must still be in range).
        prop_assert!(moved >= exp / 2 && moved < exp);
    }
}

/// A retry with the same `(token, id)` — what the resilient client sends
/// after a lost reply — must be answered from the reply cache: exactly
/// one execution, bit-identical bytes, and a `dedup_hits` tick instead of
/// a second `completed`.
#[test]
fn retry_never_double_executes() {
    let spec = ModelSpec::default();
    let engine = ShardedEngine::start(one_shard(2)).expect("engine");
    engine
        .deploy("m", spec, &prune_to_artifact(spec, 0.8))
        .expect("load");
    let client = engine.client();
    let x = request_sample(spec, 7);

    let token = 0xDEAD_BEEF;
    let first = client.infer_keyed("m", &x, None, token, 1).expect("first");
    for attempt in 1..=3u64 {
        let retry = client
            .infer_keyed("m", &x, None, token, 1)
            .unwrap_or_else(|e| panic!("retry {attempt} failed: {e}"));
        assert_eq!(first, retry, "retry {attempt} is bit-identical");
    }
    let snap = engine.stats("m");
    assert_eq!(snap.completed, 1, "one execution despite four sends");
    assert_eq!(snap.admitted, 1, "retries are not re-admitted");
    let telemetry = engine.telemetry_snapshot();
    assert_eq!(telemetry.counter("serve.dedup_hits", "m"), 3);

    // A different id under the same token is a new request.
    let other = client.infer_keyed("m", &x, None, token, 2).expect("new id");
    assert_eq!(other.output, first.output, "same input, same logits");
    assert_eq!(engine.stats("m").completed, 2);
    engine.shutdown().expect("shutdown");
}

/// Worker panics at every pool size: each request gets exactly one typed
/// outcome (`Ok` or `Internal`), the supervisor restarts dead workers,
/// and the pool keeps serving afterwards.
#[test]
fn engine_survives_worker_panics_at_every_pool_size() {
    let spec = ModelSpec::default();
    let artifact = prune_to_artifact(spec, 0.8);
    let x = request_sample(spec, 11);

    // Chaos-injected panics are the point; keep stderr quiet for them.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("chaos-injected"))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    for workers in POOL_SIZES {
        let chaos = Arc::new(ChaosSession::new(
            FaultPlan::bernoulli(0.5, 40 + workers as u64).with_classes(&[FaultClass::WorkerPanic]),
            Duration::ZERO,
        ));
        let engine =
            ShardedEngine::start_with_chaos(one_shard(workers), Some(chaos)).expect("engine");
        engine.deploy("m", spec, &artifact).expect("load");
        let client = engine.client();

        let mut ok = 0u64;
        let mut panicked = 0u64;
        for _ in 0..24 {
            match client.infer("m", &x, Some(Duration::from_secs(30))) {
                Ok(_) => ok += 1,
                Err(CspError::Internal { what }) => {
                    assert!(what.contains("panic"), "unexpected internal error: {what}");
                    panicked += 1;
                }
                Err(e) => panic!("untyped outcome at {workers} workers: {e}"),
            }
        }
        assert_eq!(ok + panicked, 24, "every request got exactly one outcome");
        assert!(
            panicked > 0,
            "rate 0.5 over 24 requests must panic at {workers} workers"
        );
        assert!(ok > 0, "the pool must keep serving at {workers} workers");

        // The supervisor has observed every death; give it a beat to
        // finish respawning, then confirm the pool still answers.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.health().restarts == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let health = engine.health();
        assert!(
            health.restarts >= 1,
            "panicked workers must be restarted at {workers} workers"
        );
        assert!(health.panics >= 1);
        assert_ne!(health.state, HealthState::Draining);
        engine.shutdown().expect("shutdown");
    }
}
