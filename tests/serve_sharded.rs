//! Sharded serving tier integration suite.
//!
//! Pins the three load-bearing properties of the sharded engine and its
//! event-loop front-end:
//!
//! 1. a rolling shard-by-shard hot-swap under continuous load drops zero
//!    requests and no single reply mixes model versions;
//! 2. the `.prev` artifact fallback recovers shards whose new artifact is
//!    corrupt — the roll completes and serving continues on the previous
//!    generation;
//! 3. the full TCP stack serves bit-identical replies at 1, 2, and 4
//!    engine shards, with the request accounting closed
//!    (admitted == completed + failed + expired).

use csp_io::atomic::write_with_history;
use csp_serve::testutil::{bits, prune_to_artifact, request_sample, serial_reference};
use csp_serve::{
    BatchPolicy, ModelSpec, ResilientClient, RetryPolicy, ShardPolicy, ShardedEngine, ShardedServer,
};
use csp_tensor::Tensor;
use std::time::Duration;

fn policy(shards: usize, workers: usize) -> ShardPolicy {
    ShardPolicy {
        shards,
        workers,
        batch: BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_cap: 256,
        },
        replicas: 16,
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("csp-serve-sharded-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Rolling shard-by-shard hot-swap under continuous concurrent load:
/// every request is answered (zero drops), every reply is bitwise the
/// output of exactly the version it reports, and the tail of the stream
/// sees the new version on every shard.
#[test]
fn rolling_hot_swap_under_load_drops_nothing_and_never_mixes_versions() {
    let spec = ModelSpec::default();
    let art_v1 = prune_to_artifact(spec, 0.8);
    let art_v2 = prune_to_artifact(spec, 1.4);
    let n_inputs = 6usize;
    let samples: Vec<Tensor> = (0..n_inputs)
        .map(|i| request_sample(spec, 700 + i as u64))
        .collect();
    let ref_v1 = serial_reference(spec, &art_v1, &samples);
    let ref_v2 = serial_reference(spec, &art_v2, &samples);

    let shards = 4usize;
    let sharded = ShardedEngine::start(policy(shards, 2)).expect("engine");
    sharded.deploy("m", spec, &art_v1).expect("deploy v1");
    let client = sharded.client();

    let n_threads = 4usize;
    let rounds = 30usize;
    let mut loaders = Vec::new();
    for t in 0..n_threads {
        let c = client.clone();
        let samples = samples.clone();
        loaders.push(std::thread::spawn(move || {
            let mut seen = Vec::new();
            for round in 0..rounds {
                let idx = (t + round) % samples.len();
                // No budget and a deep queue: a drop would surface as a
                // typed error here and fail the test.
                let reply = c
                    .infer("m", &samples[idx], None)
                    .expect("infer during roll");
                seen.push((idx, reply));
            }
            seen
        }));
    }
    // Roll shard-by-shard mid-stream.
    std::thread::sleep(Duration::from_millis(5));
    let roll = sharded.deploy("m", spec, &art_v2).expect("rolling swap");
    assert_eq!(roll.versions, vec![2; shards], "every shard must reach v2");
    assert!(roll.recovered.is_empty());

    let mut versions_seen = std::collections::BTreeSet::new();
    let mut total = 0usize;
    for h in loaders {
        for (idx, reply) in h.join().expect("loader thread") {
            total += 1;
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
    assert_eq!(total, n_threads * rounds, "zero dropped requests");
    assert!(
        versions_seen.contains(&2),
        "the swapped-in version must serve the tail of the stream"
    );
    for s in 0..shards {
        assert_eq!(
            sharded.shard_registry(s).get("m").expect("model").version,
            2,
            "shard {s} left behind by the roll"
        );
    }
    // Accounting closure across shards: everything admitted was answered.
    let snap = sharded.stats("m");
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.expired, 0);
    assert_eq!(
        snap.admitted, snap.completed,
        "admitted ≠ completed + failed + expired"
    );
    assert!(snap.completed >= (n_threads * rounds) as u64);
    sharded.shutdown().expect("shutdown");
}

/// A rolling swap whose new artifact is corrupt on disk: every shard
/// falls back to the `.prev` generation, reports the recovery, and keeps
/// serving bit-identical replies from the recovered weights.
#[test]
fn rolling_swap_from_path_recovers_every_shard_via_prev_fallback() {
    let spec = ModelSpec::default();
    let gen1 = prune_to_artifact(spec, 0.8);
    let dir = tmp_dir("prevfallback");
    let path = dir.join("model.cspio");
    write_with_history(&path, &gen1, None).expect("write gen1");

    let shards = 3usize;
    let sharded = ShardedEngine::start(policy(shards, 1)).expect("engine");
    let first = sharded
        .rolling_swap_from_path("m", spec, &path)
        .expect("initial load");
    assert_eq!(first.versions, vec![1; shards]);
    assert!(first.recovered.is_empty());

    let samples: Vec<Tensor> = (0..3).map(|i| request_sample(spec, 40 + i)).collect();
    let reference = serial_reference(spec, &gen1, &samples);

    // Publish a new generation (gen1 → .prev), then corrupt the primary
    // in place — the artifact the roll is about to pick up is unusable.
    write_with_history(&path, &prune_to_artifact(spec, 1.4), None).expect("write gen2");
    std::fs::write(&path, b"definitely not an artifact").expect("corrupt primary");

    let roll = sharded
        .rolling_swap_from_path("m", spec, &path)
        .expect("roll with corrupt primary");
    assert_eq!(
        roll.recovered,
        (0..shards).collect::<Vec<_>>(),
        "every shard must report the .prev fallback"
    );
    assert_eq!(roll.versions, vec![2; shards]);

    // The recovered generation is gen1 — replies must match its bits.
    let client = sharded.client();
    for (i, s) in samples.iter().enumerate() {
        let reply = client.infer("m", s, None).expect("infer after recovery");
        assert_eq!(
            bits(&reply.output),
            reference[i],
            "recovered shard serves wrong weights for sample {i}"
        );
    }
    sharded.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end determinism across shard counts: the same requests through
/// the full nonblocking TCP stack at 1, 2, and 4 engine shards return
/// bit-identical replies — shard choice and shard count never show in
/// the bits.
#[test]
fn sharded_tcp_stack_is_bit_identical_at_1_2_4_shards() {
    let spec = ModelSpec::default();
    let artifact = prune_to_artifact(spec, 0.8);
    let n = 6usize;
    let samples: Vec<Tensor> = (0..n)
        .map(|i| request_sample(spec, 900 + i as u64))
        .collect();
    let reference = serial_reference(spec, &artifact, &samples);

    for shards in [1usize, 2, 4] {
        let sharded = ShardedEngine::start(policy(shards, 2)).expect("engine");
        sharded.deploy("m", spec, &artifact).expect("deploy");
        let server = ShardedServer::serve(sharded.client(), "127.0.0.1:0", 2).expect("server");
        let addr = server.addr();

        // Concurrent clients, alternating one-shot (token 0, spread
        // round-robin) and retrying (token-pinned) policies, so requests
        // spread over shards and the batcher coalesces.
        let handles: Vec<_> = samples
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, s)| {
                std::thread::spawn(move || {
                    let policy = RetryPolicy {
                        max_attempts: if i % 2 == 0 { 1 } else { 4 },
                        seed: i as u64,
                        ..RetryPolicy::default()
                    };
                    let mut tcp = ResilientClient::connect(&addr, policy).expect("connect");
                    tcp.infer("m", &s, None).expect("tcp infer")
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let reply = h.join().expect("client thread");
            assert_eq!(
                bits(&reply.output),
                reference[i],
                "reply {i} at {shards} shards differs from the serial twin"
            );
        }

        // Routed accounting is closed and visible in the shard telemetry.
        let snap = sharded.stats("m");
        assert_eq!(snap.admitted, snap.completed + snap.failed + snap.expired);
        let tel = sharded.telemetry_snapshot();
        let routed: u64 = (0..shards)
            .map(|s| tel.counter("serve.shard.requests", &format!("s{s}")))
            .sum();
        assert_eq!(routed, n as u64, "every request routes through the ring");
        assert_eq!(
            server.shutdown(Duration::from_secs(5)).expect("shutdown"),
            0,
            "graceful drain must force-close nothing"
        );
        sharded.shutdown().expect("engine shutdown");
    }
}
