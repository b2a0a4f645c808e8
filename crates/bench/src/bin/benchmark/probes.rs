//! Kernel probes of the traced run: `Sequential::forward`, each top-level
//! `Layer::forward`, each prunable layer's GEMM, and the artifact decode,
//! on one thread and timed from outside through public functions.

use crate::stats::{median, metric, Metric};
use crate::workload::{ModelPlan, Served, FORWARD_PROBES, LAYER_PROBES};
use csp_io::decode_weaved_model;
use csp_nn::{CspGemm, Sequential, SharedGemm};
use csp_runtime::with_threads;
use csp_serve::testutil::{prune_to_artifact, sample_input};
use csp_serve::LoadedModel;
use csp_tensor::{matmul, Tensor};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Batch of the layer and GEMM probes: the engine's `max_batch`.
const BATCH: usize = 8;

/// Seed of the probe inputs.
const INPUT_SEED: u64 = 11;

/// How long the probes repeat.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub min_reps: usize,
    pub min_time: Duration,
}

/// One timed call: metric name, unit, divisor of its µs, and the call.
struct Probe<'a> {
    name: String,
    unit: &'static str,
    per: f64,
    call: Box<dyn FnMut() + 'a>,
}

fn probe<'a>(name: String, unit: &'static str, per: f64, call: impl FnMut() + 'a) -> Probe<'a> {
    Probe {
        name,
        unit,
        per,
        call: Box::new(call),
    }
}

/// Median µs of every probe, run round-robin after one warm-up pass, so a
/// slow spell of a shared host lands on all probes alike.
fn round_robin(reps: Reps, probes: &mut [Probe<'_>]) -> Vec<Metric> {
    probes.iter_mut().for_each(|p| (p.call)());
    let mut samples = vec![Vec::new(); probes.len()];
    let t0 = Instant::now();
    while samples[0].len() < reps.min_reps || t0.elapsed() < reps.min_time {
        for (p, s) in probes.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            (p.call)();
            s.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    probes
        .iter()
        .zip(&samples)
        .map(|(p, s)| metric(p.name.clone(), median(s) / p.per, p.unit))
        .collect()
}

fn load(plan: &ModelPlan) -> Result<(LoadedModel, Sequential), String> {
    let spec = plan.spec();
    let bytes = prune_to_artifact(spec, plan.q);
    let model = LoadedModel::from_artifact_bytes(plan.family.name(), spec, 1, &bytes)
        .map_err(|e| e.to_string())?;
    let net = model.build().map_err(|e| e.to_string())?;
    Ok((model, net))
}

/// `conv2d(12->12,k3)` → `conv2d-12-12-k3`.
fn sanitize(label: &str) -> String {
    let mut out = String::new();
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else if !out.is_empty() && !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

/// Records every operand a layer's executor is called with, then
/// delegates.
struct Capture {
    inner: SharedGemm,
    operands: Mutex<Vec<Tensor>>,
}

impl CspGemm for Capture {
    fn dims(&self) -> (usize, usize) {
        self.inner.dims()
    }

    fn gemm_xw(&self, x: &Tensor) -> csp_tensor::Result<Tensor> {
        self.operands.lock().expect("capture lock").push(x.clone());
        self.inner.gemm_xw(x)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// What one heavy model's layer and GEMM probes run on.
struct LayerBench {
    plan: ModelPlan,
    model: LoadedModel,
    net: Sequential,
    /// The input of each top-level layer at `BATCH`.
    inputs: Vec<Tensor>,
    /// Per prunable layer: its executor and the operands one forward at
    /// `BATCH` hands it.
    gemms: Vec<(String, SharedGemm, Vec<Tensor>)>,
}

fn layer_bench(plan: &ModelPlan) -> Result<LayerBench, String> {
    let (model, mut net) = load(plan)?;
    let mut captures = Vec::new();
    for layer in net.prunable_layers() {
        let label = format!("p{}-{}", captures.len(), sanitize(&layer.csp_label()));
        let inner = layer
            .csp_executor()
            .cloned()
            .ok_or_else(|| format!("{} layer {label} has no executor", plan.label()))?;
        let capture = Arc::new(Capture {
            inner,
            operands: Mutex::new(Vec::new()),
        });
        layer
            .set_csp_executor(Some(Arc::clone(&capture) as SharedGemm))
            .map_err(|e| e.to_string())?;
        captures.push((label, capture));
    }
    let mut inputs = vec![sample_input(plan.spec(), INPUT_SEED, BATCH)];
    for layer in net.layers_mut() {
        let y = layer
            .forward(inputs.last().expect("starts non-empty"), false)
            .map_err(|e| e.to_string())?;
        inputs.push(y);
    }
    let gemms = captures
        .into_iter()
        .map(|(label, c)| {
            let ops = std::mem::take(&mut *c.operands.lock().expect("capture lock"));
            (label, Arc::clone(&c.inner), ops)
        })
        .collect();
    // Time the layers on a net without the capturing executors.
    let (_, net) = load(plan)?;
    Ok(LayerBench {
        plan: *plan,
        model,
        net,
        inputs,
        gemms,
    })
}

/// Every kernel probe, with telemetry off and one kernel thread:
/// `nn.forward_us_per_sample` for `FORWARD_PROBES` at batch 1 and 8, and
/// for `LAYER_PROBES` each top-level layer (`nn.layer_us`), each prunable
/// layer's executor (`sparse.gemm_us`) and a dense `matmul` on its
/// decompressed weights (`tensor.gemm_us`) over the operands a forward at
/// batch 8 hands it; plus `io.decode_ms` over the served artifacts.
pub fn run(models: &[Served], reps: Reps) -> Result<Vec<Metric>, String> {
    with_threads(1, || {
        let mut forwards = Vec::new();
        for plan in &FORWARD_PROBES {
            for batch in [1, BATCH] {
                let (_, net) = load(plan)?;
                let x = sample_input(plan.spec(), INPUT_SEED, batch);
                forwards.push((plan.label(), batch, net, x));
            }
        }
        let mut benches = LAYER_PROBES
            .iter()
            .map(layer_bench)
            .collect::<Result<Vec<_>, _>>()?;

        let mut probes = Vec::new();
        for (label, batch, net, x) in &mut forwards {
            let x = &*x;
            probes.push(probe(
                format!("nn.forward_us_per_sample.{label}.b{batch}"),
                "us",
                *batch as f64,
                move || {
                    black_box(net.forward(black_box(x), false).ok());
                },
            ));
        }
        for b in &mut benches {
            let (label, model) = (b.plan.label(), b.plan.family.name());
            for (i, (layer, x)) in b.net.layers_mut().iter_mut().zip(&b.inputs).enumerate() {
                let name = format!("nn.layer_us.{label}.{i}-{}", layer.name());
                probes.push(probe(name, "us", 1.0, move || {
                    black_box(layer.forward(black_box(x), false).ok());
                }));
            }
            for ((p, exec, ops), (_, w)) in b.gemms.iter().zip(b.model.weights()) {
                probes.push(probe(
                    format!("sparse.gemm_us.{model}.{p}"),
                    "us",
                    1.0,
                    move || {
                        for o in ops {
                            black_box(exec.gemm_xw(black_box(o)).ok());
                        }
                    },
                ));
                probes.push(probe(
                    format!("tensor.gemm_us.{model}.{p}"),
                    "us",
                    1.0,
                    move || {
                        for o in ops {
                            black_box(matmul(black_box(o), w).ok());
                        }
                    },
                ));
            }
        }
        probes.push(probe("io.decode_ms".to_string(), "ms", 1e3, || {
            for m in models {
                black_box(decode_weaved_model(black_box(&m.artifacts[0])).ok());
            }
        }));
        Ok(round_robin(reps, &mut probes))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sanitize_to_metric_name_characters() {
        assert_eq!(sanitize("conv2d(12->12,k3)"), "conv2d-12-12-k3");
        assert_eq!(sanitize("linear(48->4)"), "linear-48-4");
    }
}
