//! Serving-determinism property suite: a batch of `N` requests through the
//! `csp-serve` engine must be **bit-identical** to `N` serial
//! single-request calls, for any batch composition and any worker-pool
//! size — and a registry hot-swap mid-stream must never yield a response
//! mixing two model versions.
//!
//! The serial twin is the forward-only network built straight from the
//! same weaved artifact, run one sample at a time under a single-thread
//! kernel pool (exactly what the engine pins its workers to).

use csp_core::ModelFamily;
use csp_runtime::with_threads;
use csp_serve::testutil::{
    bits, prune_to_artifact, request_sample, sample_input, serial_reference,
};
use csp_serve::{
    BatchPolicy, Execution, LoadedModel, ModelRegistry, ModelSpec, ResilientClient, RetryPolicy,
    ShardPolicy, ShardedEngine, ShardedServer,
};
use csp_tensor::Tensor;
use proptest::prelude::*;
use std::time::Duration;

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Every zoo family the serving tier can load.
const FAMILIES: [ModelFamily; 5] = [
    ModelFamily::Basic,
    ModelFamily::AlexNet,
    ModelFamily::Vgg,
    ModelFamily::ResNet,
    ModelFamily::Inception,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kernel-level core of the contract: an `[n, …]` batched forward is
    /// bitwise the concatenation of `n` single-sample forwards, for every
    /// kernel-pool size.
    #[test]
    fn batched_forward_bit_identical_to_serial(
        n in 1usize..=8,
        seed in 0u64..1000,
        q in 0.6f32..1.6,
    ) {
        let spec = ModelSpec::default();
        let artifact = prune_to_artifact(spec, q);
        let samples: Vec<Tensor> =
            (0..n).map(|i| request_sample(spec, seed + i as u64)).collect();
        let reference = serial_reference(spec, &artifact, &samples);

        let reg = ModelRegistry::new();
        let model = reg.load_from_bytes("m", spec, &artifact).expect("load");
        let d = spec.input_dims();
        let mut stacked = Vec::with_capacity(n * spec.input_len());
        for s in &samples {
            stacked.extend_from_slice(s.as_slice());
        }
        let x = Tensor::from_vec(stacked, &[n, d[0], d[1], d[2]]).expect("shape");
        for threads in POOL_SIZES {
            let mut net = model.build().expect("build");
            let y = with_threads(threads, || net.forward(&x, false)).expect("forward");
            let c = y.dims()[1];
            for (i, want) in reference.iter().enumerate() {
                let got = bits(&y.as_slice()[i * c..(i + 1) * c]);
                prop_assert_eq!(
                    &got, want,
                    "row {} differs from its serial twin at {} kernel threads", i, threads
                );
            }
        }
    }

    /// End-to-end: the same property through the full engine — dynamic
    /// batcher, worker pool of 1/2/4/8 threads, concurrent submission.
    #[test]
    fn engine_replies_bit_identical_to_serial(
        n in 1usize..=6,
        seed in 0u64..1000,
    ) {
        let spec = ModelSpec::default();
        let artifact = prune_to_artifact(spec, 0.8);
        let samples: Vec<Tensor> =
            (0..n).map(|i| request_sample(spec, seed + i as u64)).collect();
        let reference = serial_reference(spec, &artifact, &samples);

        for workers in POOL_SIZES {
            let engine = ShardedEngine::start(ShardPolicy {
                shards: 1,
                workers,
                batch: BatchPolicy {
                    max_batch: 8,
                    max_wait: Duration::from_millis(20),
                    queue_cap: 64,
                },
                ..ShardPolicy::default()
            })
            .expect("engine");
            engine.deploy("m", spec, &artifact).expect("deploy");
            let client = engine.client();
            let handles: Vec<_> = samples
                .iter()
                .cloned()
                .map(|s| {
                    let c = client.clone();
                    std::thread::spawn(move || c.infer("m", &s, None).expect("infer"))
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let reply = h.join().expect("client thread");
                prop_assert_eq!(
                    bits(&reply.output),
                    reference[i].clone(),
                    "request {} differs from its serial twin at {} workers", i, workers
                );
            }
            engine.shutdown().expect("shutdown");
        }
    }
}

/// A hot-swap racing a stream of concurrent requests: every reply must be
/// bitwise the output of exactly the version it reports — never a blend.
#[test]
fn hot_swap_never_mixes_versions() {
    let spec = ModelSpec::default();
    let art_v1 = prune_to_artifact(spec, 0.8);
    let art_v2 = prune_to_artifact(spec, 1.4);
    let n_inputs = 6usize;
    let samples: Vec<Tensor> = (0..n_inputs)
        .map(|i| request_sample(spec, 100 + i as u64))
        .collect();
    let ref_v1 = serial_reference(spec, &art_v1, &samples);
    let ref_v2 = serial_reference(spec, &art_v2, &samples);

    let engine = ShardedEngine::start(ShardPolicy {
        shards: 1,
        workers: 2,
        batch: BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_cap: 256,
        },
        ..ShardPolicy::default()
    })
    .expect("engine");
    engine.deploy("m", spec, &art_v1).expect("load v1");
    let client = engine.client();

    let mut clients = Vec::new();
    for t in 0..4usize {
        let c = client.clone();
        let samples = samples.clone();
        clients.push(std::thread::spawn(move || {
            // At least 30 requests, then on until the swapped-in version
            // answers, so the swap lands mid-stream however fast the
            // engine runs (bounded in case it never does).
            let mut seen = Vec::new();
            for round in 0..10_000usize {
                let idx = (t + round) % samples.len();
                let reply = c.infer("m", &samples[idx], None).expect("infer");
                let swapped = reply.model_version == 2;
                seen.push((idx, reply));
                if round >= 30 && swapped {
                    break;
                }
            }
            seen
        }));
    }
    // Swap mid-stream.
    std::thread::sleep(Duration::from_millis(5));
    engine.deploy("m", spec, &art_v2).expect("swap to v2");

    let mut versions_seen = std::collections::BTreeSet::new();
    for h in clients {
        for (idx, reply) in h.join().expect("client thread") {
            versions_seen.insert(reply.model_version);
            let want = match reply.model_version {
                1 => &ref_v1[idx],
                2 => &ref_v2[idx],
                v => panic!("reply reports unknown version {v}"),
            };
            assert_eq!(
                &bits(&reply.output),
                want,
                "reply mixes versions: reported v{} but bits do not match it",
                reply.model_version
            );
        }
    }
    assert!(
        versions_seen.contains(&2),
        "the swapped-in version must serve the tail of the stream"
    );
    engine.shutdown().expect("shutdown");
}

/// Cross-shard determinism: the **same** requests submitted directly to
/// every shard of a 4-shard engine — at worker-pool widths 1/2/4/8 — come
/// back bit-identical for each execution mode. Shard identity and pool
/// width never show in the bits; the f32 weaved path additionally matches
/// the dense path exactly. The consistent-hash router is checked on the
/// same lineup: a keyed request routed through the ring returns the same
/// bits as every per-shard submission.
#[test]
fn every_shard_replies_bit_identical_at_all_pool_widths() {
    let dense_spec = ModelSpec::default();
    let artifact = prune_to_artifact(dense_spec, 0.8);
    let n = 4usize;
    let samples: Vec<Tensor> = (0..n)
        .map(|i| request_sample(dense_spec, 500 + i as u64))
        .collect();
    let dense_ref = serial_reference(dense_spec, &artifact, &samples);

    for execution in [Execution::Dense, Execution::Weaved, Execution::WeavedInt8] {
        let spec = ModelSpec {
            execution,
            ..dense_spec
        };
        // The bar every (shard, pool-width) pair must clear: the serial
        // twin under the same execution backend.
        let own_ref = serial_reference(spec, &artifact, &samples);
        if execution != Execution::WeavedInt8 {
            assert_eq!(own_ref, dense_ref, "{execution} serial != dense serial");
        }

        for workers in POOL_SIZES {
            let shards = 4usize;
            let sharded = ShardedEngine::start(ShardPolicy {
                shards,
                workers,
                batch: BatchPolicy {
                    max_batch: 4,
                    max_wait: Duration::from_millis(1),
                    queue_cap: 64,
                },
                replicas: 16,
            })
            .expect("engine");
            sharded.deploy("m", spec, &artifact).expect("deploy");

            // Direct per-shard submission: bypass the router so every
            // shard provably answers every sample itself.
            for shard in 0..shards {
                let c = sharded.shard_client(shard);
                for (i, s) in samples.iter().enumerate() {
                    let reply = c.infer("m", s, None).expect("shard infer");
                    assert_eq!(
                        bits(&reply.output),
                        own_ref[i],
                        "{execution} sample {i} on shard {shard} at {workers} workers \
                         differs from its serial twin"
                    );
                }
            }
            // And through the ring: a keyed retry-pinned request lands on
            // whichever shard the hash picks — same bits regardless.
            let router = sharded.client();
            for (i, s) in samples.iter().enumerate() {
                let reply = router
                    .infer_keyed("m", s, None, 7000 + i as u64, i as u64)
                    .expect("routed infer");
                assert_eq!(
                    bits(&reply.output),
                    own_ref[i],
                    "{execution} routed sample {i} at {workers} workers differs"
                );
            }
            sharded.shutdown().expect("shutdown");
        }
    }
}

/// Dense ≡ weaved on every zoo family, not only `basic`: a
/// `LoadedModel::build()` forward with `Execution::Weaved` is bitwise the
/// `Execution::Dense` one at batch 1 and 8 and pool widths 1/2/4, so the
/// residual, inception-branch and 5×5 convs the heavy workloads serve are
/// covered, at the heavy (q = 1.0) and the lineup (q = 0.8) thresholds.
#[test]
fn weaved_forward_bit_identical_to_dense_for_every_family() {
    for family in FAMILIES {
        let dense_spec = ModelSpec {
            family,
            ..ModelSpec::default()
        };
        for q in [0.8, 1.0] {
            let artifact = prune_to_artifact(dense_spec, q);
            let build = |execution| {
                let spec = ModelSpec {
                    execution,
                    ..dense_spec
                };
                LoadedModel::from_artifact_bytes("m", spec, 1, &artifact)
                    .and_then(|m| m.build())
                    .expect("load and build")
            };
            let (mut dense, mut weaved) = (build(Execution::Dense), build(Execution::Weaved));
            for batch in [1usize, 8] {
                let x = sample_input(dense_spec, 40 + batch as u64, batch);
                let want = with_threads(1, || dense.forward(&x, false)).expect("dense forward");
                for threads in [1usize, 2, 4] {
                    let got = with_threads(threads, || weaved.forward(&x, false))
                        .expect("weaved forward");
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "{family:?} q {q} batch {batch} threads {threads}"
                    );
                }
            }
        }
    }
}

/// An empty batch is a valid input: every zoo family, under every
/// execution, forwards `[0, c, h, w]` to `(0, classes)`.
#[test]
fn every_family_forwards_an_empty_batch() {
    for family in FAMILIES {
        let dense_spec = ModelSpec {
            family,
            ..ModelSpec::default()
        };
        let artifact = prune_to_artifact(dense_spec, 0.8);
        for execution in [Execution::Dense, Execution::Weaved, Execution::WeavedInt8] {
            let spec = ModelSpec {
                execution,
                ..dense_spec
            };
            let mut net = LoadedModel::from_artifact_bytes("m", spec, 1, &artifact)
                .and_then(|m| m.build())
                .expect("load and build");
            let y = net
                .forward(&sample_input(spec, 1, 0), false)
                .unwrap_or_else(|e| panic!("{family:?} {execution}: {e}"));
            assert_eq!(y.dims(), &[0, spec.classes], "{family:?} {execution}");
        }
    }
}

/// Sparse serving end-to-end: a model loaded with `execution = weaved`
/// serves over the real TCP protocol, its replies are **bitwise** the
/// dense serial reference (the engines' bit-identity contract), batched
/// submission ≡ serial submission, and the execution backend is visible
/// in the wire telemetry snapshot. The int8 variant must be
/// deterministic (batched ≡ its own serial twin), though not bit-equal
/// to dense.
#[test]
fn weaved_execution_serves_bit_identical_over_tcp() {
    let dense_spec = ModelSpec::default();
    let artifact = prune_to_artifact(dense_spec, 0.8);
    let n = 5usize;
    let samples: Vec<Tensor> = (0..n)
        .map(|i| request_sample(dense_spec, 300 + i as u64))
        .collect();
    let dense_ref = serial_reference(dense_spec, &artifact, &samples);

    for execution in [Execution::Weaved, Execution::WeavedInt8] {
        let spec = ModelSpec {
            execution,
            ..dense_spec
        };
        // Serial twin under the *same* execution backend: the
        // determinism bar every backend must clear.
        let own_ref = serial_reference(spec, &artifact, &samples);
        if execution == Execution::Weaved {
            // …and the f32 weaved path must additionally be bitwise the
            // dense path.
            assert_eq!(own_ref, dense_ref, "weaved serial != dense serial");
        }

        let engine = ShardedEngine::start(ShardPolicy {
            shards: 1,
            workers: 2,
            batch: BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(10),
                queue_cap: 64,
            },
            ..ShardPolicy::default()
        })
        .expect("engine");
        engine
            .deploy("m", spec, &artifact)
            .expect("load sparse model");
        let server = ShardedServer::serve(engine.client(), "127.0.0.1:0", 2).expect("server");
        let addr = server.addr();
        let one_shot = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };

        // Concurrent TCP clients so the batcher actually coalesces.
        let handles: Vec<_> = samples
            .iter()
            .cloned()
            .map(|s| {
                std::thread::spawn(move || {
                    let mut tcp = ResilientClient::connect(&addr, one_shot).expect("connect");
                    tcp.infer("m", &s, None).expect("tcp infer")
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let reply = h.join().expect("client thread");
            assert_eq!(
                bits(&reply.output),
                own_ref[i],
                "{} reply {} differs from its serial twin",
                execution,
                i
            );
        }

        // The wire telemetry op reports which backend answered.
        let mut tcp = ResilientClient::connect(&addr, one_shot).expect("connect");
        let snap = tcp.telemetry().expect("telemetry");
        drop(tcp);
        assert!(
            snap.counter("serve.execution.batches", execution.name()) > 0,
            "telemetry missing serve.execution.batches[{execution}]"
        );
        server
            .shutdown(Duration::from_millis(500))
            .expect("server shutdown");
        engine.shutdown().expect("engine shutdown");
    }
}
