//! The three traffic mixes, the models behind them, and everything derived
//! from `--seed` before timing starts: artifacts on disk, input pools,
//! serial reference outputs and Poisson schedules.

use csp_core::ModelFamily;
use csp_io::write_with_history;
use csp_nn::seeded_rng;
use csp_runtime::with_threads;
use csp_serve::testutil::{prune_to_artifact, sample_input};
use csp_serve::{Execution, InferReply, LoadedModel, ModelSpec};
use csp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One served (or probed) model: family, execution, and the CSP threshold
/// multiplier its artifact is pruned at.
#[derive(Debug, Clone, Copy)]
pub struct ModelPlan {
    pub family: ModelFamily,
    pub execution: Execution,
    pub q: f32,
}

impl ModelPlan {
    pub fn spec(&self) -> ModelSpec {
        ModelSpec {
            family: self.family,
            execution: self.execution,
            ..ModelSpec::default()
        }
    }

    /// `<model>-<execution>`, as used in metric names.
    pub fn label(&self) -> String {
        format!("{}-{}", self.family.name(), self.execution.name())
    }
}

const fn plan(family: ModelFamily, execution: Execution, q: f32) -> ModelPlan {
    ModelPlan {
        family,
        execution,
        q,
    }
}

/// One traffic mix. Every workload is an open loop of independent users:
/// Poisson arrivals at `rate_rps`, model chosen uniformly per request.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub models: &'static [ModelPlan],
    pub rate_rps: f64,
    /// The latency limit `slo_met_frac` is measured against.
    pub limit_ms: f64,
    /// Redeploy one model at a time while the open loop runs.
    pub churn: bool,
}

use Execution::{Dense, Weaved, WeavedInt8};
use ModelFamily::{AlexNet, Basic, Inception, ResNet, Vgg};

/// Forward costs microseconds here, so the event loop, the codec and the
/// batch hold time set latency; forward-path changes should read flat.
const LIGHT: [ModelPlan; 1] = [plan(Basic, Dense, 0.8)];
/// The weaved operating point (≈73–74% sparse) where the conv executor
/// path and the sparse GEMMs dominate; `LIGHT` is its bypass.
const HEAVY: [ModelPlan; 2] = [plan(ResNet, Weaved, 1.0), plan(Vgg, Weaved, 1.0)];
/// All five families, each on its own execution: batches split five ways,
/// the int8 path runs, and the registry is written beside reads.
const LINEUP: [ModelPlan; 5] = [
    plan(Basic, Dense, 0.8),
    plan(AlexNet, Weaved, 0.8),
    plan(Vgg, WeavedInt8, 0.8),
    plan(ResNet, Weaved, 0.8),
    plan(Inception, WeavedInt8, 0.8),
];

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "light-dense",
        models: &LIGHT,
        rate_rps: 2000.0,
        limit_ms: 20.0,
        churn: false,
    },
    Workload {
        name: "heavy-weaved",
        models: &HEAVY,
        rate_rps: 2000.0,
        limit_ms: 25.0,
        churn: false,
    },
    Workload {
        name: "lineup-churn",
        models: &LINEUP,
        rate_rps: 2000.0,
        limit_ms: 25.0,
        churn: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The forward probes: every served (model, execution) plus the dense twins
/// of the heavy models. The suite is the same on every workload, so every
/// traced run reports the same per-layer keys.
pub const FORWARD_PROBES: [ModelPlan; 8] = [
    plan(Basic, Dense, 0.8),
    plan(ResNet, Weaved, 1.0),
    plan(ResNet, Dense, 1.0),
    plan(Vgg, Weaved, 1.0),
    plan(Vgg, Dense, 1.0),
    plan(AlexNet, Weaved, 0.8),
    plan(Vgg, WeavedInt8, 0.8),
    plan(Inception, WeavedInt8, 0.8),
];

/// The per-layer and per-GEMM probes: the heavy operating point.
pub const LAYER_PROBES: [ModelPlan; 2] = HEAVY;

/// Request inputs per model.
pub const POOL: usize = 64;

/// Redeploys alternate between the artifact at `q` and one at `q + CHURN_DQ`,
/// so a reply's version names the weights that must have produced it.
const CHURN_DQ: f32 = 0.05;

/// A stream of the run's randomness: the same `(seed, stream)` always gives
/// the same draws.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    seeded_rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// A served model with its artifacts, inputs and reference outputs, plus the
/// window of versions a reply may legally carry.
pub struct Served {
    pub name: &'static str,
    pub spec: ModelSpec,
    /// Artifact bytes: `[0]` at `q` (also on disk at `path`), `[1]` at
    /// `q + CHURN_DQ`. Version `v` serves `artifacts[(v - 1) % 2]`.
    pub artifacts: [Vec<u8>; 2],
    pub path: PathBuf,
    /// `[c, h, w]` request inputs.
    pub pool: Vec<Tensor>,
    /// Output bits of the serial batch-1 forward, per artifact and input.
    refs: [Vec<Vec<u32>>; 2],
    /// Every shard serves at least this version.
    floor: AtomicU64,
    /// No shard serves a version above this.
    ceiling: AtomicU64,
}

impl Served {
    /// Write the artifact and compute inputs and references (untimed).
    pub fn prepare(plan: &ModelPlan, index: u64, seed: u64, dir: &Path) -> Result<Served, String> {
        let spec = plan.spec();
        let name = plan.family.name();
        let artifacts = [
            prune_to_artifact(spec, plan.q),
            prune_to_artifact(spec, plan.q + CHURN_DQ),
        ];
        let path = dir.join(format!("{name}.cspio"));
        write_with_history(&path, &artifacts[0], None).map_err(|e| format!("write {name}: {e}"))?;
        let [c, h, w] = spec.input_dims();
        let mut inputs = rng(seed, 1000 + index);
        let pool = (0..POOL)
            .map(|_| {
                let x = sample_input(spec, inputs.gen::<u64>(), 1);
                Tensor::from_vec(x.as_slice().to_vec(), &[c, h, w]).expect("same length")
            })
            .collect::<Vec<_>>();
        let refs = [
            reference(name, spec, &artifacts[0], &pool)?,
            reference(name, spec, &artifacts[1], &pool)?,
        ];
        Ok(Served {
            name,
            spec,
            artifacts,
            path,
            pool,
            refs,
            floor: AtomicU64::new(1),
            ceiling: AtomicU64::new(1),
        })
    }

    /// A freshly loaded stack serves version 1 everywhere.
    pub fn reset_versions(&self) {
        self.floor.store(1, Ordering::SeqCst);
        self.ceiling.store(1, Ordering::SeqCst);
    }

    pub fn floor(&self) -> u64 {
        self.floor.load(Ordering::SeqCst)
    }

    /// Open a redeploy: the version it will publish and the bytes to publish.
    pub fn begin_deploy(&self) -> (u64, &[u8]) {
        let v = self.ceiling.fetch_add(1, Ordering::SeqCst) + 1;
        (v, &self.artifacts[((v - 1) % 2) as usize])
    }

    /// Every shard now serves `v`.
    pub fn end_deploy(&self, v: u64) {
        self.floor.store(v, Ordering::SeqCst);
    }

    /// A reply to `pool[input]`, sent while every shard served at least
    /// `floor`, must carry a published version no older than `floor` and
    /// the exact bits the serial reference computes for that version.
    pub fn check(&self, input: usize, floor: u64, reply: &InferReply) -> Result<(), String> {
        let v = reply.model_version;
        let ceiling = self.ceiling.load(Ordering::SeqCst);
        if v < floor || v > ceiling {
            return Err(format!(
                "{}: reply version {v} outside [{floor}, {ceiling}]",
                self.name
            ));
        }
        let want = &self.refs[((v - 1) % 2) as usize][input];
        let same = reply.output.len() == want.len()
            && reply
                .output
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == *b);
        if same {
            Ok(())
        } else {
            Err(format!(
                "{}: input {input} at version {v} differs from the serial reference",
                self.name
            ))
        }
    }
}

/// `LoadedModel::build()` then a batch-1 forward under one thread, per input.
fn reference(
    name: &str,
    spec: ModelSpec,
    bytes: &[u8],
    pool: &[Tensor],
) -> Result<Vec<Vec<u32>>, String> {
    let model =
        LoadedModel::from_artifact_bytes(name, spec, 1, bytes).map_err(|e| e.to_string())?;
    let mut net = model.build().map_err(|e| e.to_string())?;
    let [c, h, w] = spec.input_dims();
    with_threads(1, || {
        pool.iter()
            .map(|x| {
                let y = net
                    .forward(&x.reshape(&[1, c, h, w]).map_err(|e| e.to_string())?, false)
                    .map_err(|e| e.to_string())?;
                Ok(y.as_slice().iter().map(|v| v.to_bits()).collect())
            })
            .collect()
    })
}

/// One request of an open-loop schedule, due `due` seconds into the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub due: f64,
    pub model: usize,
    pub input: usize,
}

/// Poisson arrivals at `rate` per second for `secs`, with model and input
/// drawn uniformly — a pure function of `(seed, stream)`.
pub fn poisson(seed: u64, stream: u64, rate: f64, secs: f64, models: usize) -> Vec<Planned> {
    let mut r = rng(seed, stream);
    let mut out = Vec::with_capacity((rate * secs * 1.1) as usize);
    let mut t = 0.0;
    loop {
        t += -(1.0 - r.gen::<f64>()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(Planned {
            due: t,
            model: r.gen_range(0..models),
            input: r.gen_range(0..POOL),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson(7, 3, 2000.0, 2.0, 5);
        assert_eq!(a, poisson(7, 3, 2000.0, 2.0, 5));
        assert_ne!(a, poisson(8, 3, 2000.0, 2.0, 5));
        assert_ne!(a, poisson(7, 4, 2000.0, 2.0, 5));
        // ≈ 4000 arrivals, ascending, inside the window, every model used.
        assert!((3700..4300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|p| p.due < 2.0 && p.input < POOL));
        assert!((0..5).all(|m| a.iter().any(|p| p.model == m)));
    }

    #[test]
    fn workloads_are_distinct_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.rate_rps > 0.0 && w.limit_ms > 0.0 && !w.models.is_empty());
        }
        assert!(find("nope").is_none());
    }
}
