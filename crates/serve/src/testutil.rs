//! Small helpers for producing weaved artifacts and inputs without
//! running the full training pipeline — used by this crate's tests, the
//! serving benchmark, and the determinism property tests.

use crate::registry::ModelSpec;
use csp_core::build_family_model;
use csp_io::encode_weaved_model;
use csp_pruning::{ChunkedLayout, CspPruner, Weaved};
use csp_tensor::Tensor;
use rand::Rng;

/// Build `spec`'s skeleton from its seeded initialization, CSP-prune every
/// prunable layer at threshold multiplier `q` (chunk size 4), and encode
/// the result as a weaved-model artifact — exactly the container
/// `CspPipeline` persists, minus the training epochs.
///
/// # Panics
///
/// Panics if a layer cannot be pruned (all shipped families prune fine at
/// chunk size 4 — this is a test/bench helper, not a serving path).
pub fn prune_to_artifact(spec: ModelSpec, q: f32) -> Vec<u8> {
    let mut net = build_family_model(spec.family, spec.seed, spec.classes);
    let mut layers = Vec::new();
    for layer in net.prunable_layers() {
        let (m, c_out) = layer.csp_dims();
        let layout = ChunkedLayout::new(m, c_out, 4).expect("layout");
        let w = layer.csp_weight();
        let mask = CspPruner::new(q).prune(&w, layout).expect("prune");
        let weaved = Weaved::compress(&w, &mask).expect("compress");
        layers.push((layer.csp_label(), weaved));
    }
    encode_weaved_model(&layers)
}

/// A deterministic pseudo-random batch of `n` input samples shaped
/// `[n, c, side, side]` for `spec`, seeded by `seed`.
pub fn sample_input(spec: ModelSpec, seed: u64, n: usize) -> Tensor {
    let mut rng = csp_nn::seeded_rng(seed);
    let [c, h, w] = spec.input_dims();
    let data: Vec<f32> = (0..n * c * h * w)
        .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
        .collect();
    Tensor::from_vec(data, &[n, c, h, w]).expect("shape matches data")
}

/// Model `"m"` (the default spec) on two engine shards behind a two-IO-shard
/// event loop, both wearing one seeded chaos session when `plan` is given.
#[cfg(test)]
pub(crate) fn serve_sharded(
    plan: Option<csp_sim::FaultPlan>,
) -> (crate::ShardedEngine, crate::ShardedServer, ModelSpec) {
    use crate::{BatchPolicy, ChaosSession, ShardPolicy, ShardedEngine, ShardedServer};
    use std::sync::Arc;
    use std::time::Duration;

    let chaos = plan.map(|p| Arc::new(ChaosSession::new(p, Duration::ZERO)));
    let policy = ShardPolicy {
        shards: 2,
        workers: 1,
        batch: BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_cap: 64,
        },
        replicas: 16,
    };
    let engine = ShardedEngine::start_with_chaos(policy, chaos.clone()).unwrap();
    let spec = ModelSpec::default();
    engine
        .deploy("m", spec, &prune_to_artifact(spec, 0.8))
        .unwrap();
    let server = ShardedServer::serve_with_chaos(engine.client(), "127.0.0.1:0", 2, chaos).unwrap();
    (engine, server, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_through_decode() {
        let spec = ModelSpec::default();
        let bytes = prune_to_artifact(spec, 0.8);
        let layers = csp_io::decode_weaved_model(&bytes).unwrap();
        assert!(!layers.is_empty());
    }

    #[test]
    fn sample_input_is_deterministic() {
        let spec = ModelSpec::default();
        let a = sample_input(spec, 9, 2);
        let b = sample_input(spec, 9, 2);
        assert_eq!(a, b);
        assert_eq!(a.dims(), &[2, 1, 8, 8]);
    }
}
