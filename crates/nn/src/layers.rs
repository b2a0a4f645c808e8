//! Core layers: `Linear`, `Conv2d`, activations, pooling, flatten, layer norm.

use crate::exec::SharedGemm;
use crate::model::{Layer, Param};
use crate::prunable::Prunable;
use csp_runtime::Pool;
use csp_tensor::{
    add_bias, avg_pool2d, avg_pool2d_grad, conv2d, conv2d_grad_input, conv2d_grad_weight, im2col,
    kaiming_uniform, matmul, matmul_a_bt, matmul_at_b, max_pool2d, max_pool2d_grad, relu,
    relu_grad, Conv2dSpec, Pool2dSpec, Result, Tensor, TensorError,
};
use rand::Rng;

/// Shape-check an executor against a layer's `(M, c_out)` view before
/// installing it — a mismatched engine must be a typed error at install
/// time, never a wrong answer at serve time.
fn check_executor_dims(exec: &SharedGemm, dims: (usize, usize)) -> Result<()> {
    if exec.dims() != dims {
        return Err(TensorError::IncompatibleShapes {
            op: "set_csp_executor",
            lhs: vec![dims.0, dims.1],
            rhs: vec![exec.dims().0, exec.dims().1],
        });
    }
    Ok(())
}

/// Fully-connected layer: `y = x · W + b`, with `W` stored as
/// `(in_features, out_features)` — exactly the `M × c_out` layout CSP-A
/// prunes (rows = input features, columns = output units).
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    cache_x: Option<Tensor>,
    exec: Option<SharedGemm>,
}

impl Linear {
    /// Kaiming-initialized layer mapping `inf` features to `outf`.
    pub fn new<R: Rng>(rng: &mut R, inf: usize, outf: usize) -> Self {
        Linear {
            weight: kaiming_uniform(rng, &[inf, outf], inf),
            bias: Tensor::zeros(&[outf]),
            weight_grad: Tensor::zeros(&[inf, outf]),
            bias_grad: Tensor::zeros(&[outf]),
            cache_x: None,
            exec: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Borrow the weight matrix `(in, out)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Borrow the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Overwrite the weight matrix.
    ///
    /// # Errors
    ///
    /// Returns a shape error on mismatch.
    pub fn set_weight(&mut self, w: &Tensor) -> Result<()> {
        if w.dims() != self.weight.dims() {
            return Err(TensorError::IncompatibleShapes {
                op: "set_weight",
                lhs: self.weight.dims().to_vec(),
                rhs: w.dims().to_vec(),
            });
        }
        self.weight = w.clone();
        Ok(())
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        // Inference with an installed executor runs the GEMM straight
        // from its (possibly compressed) weight representation; training
        // always uses the dense weights so backward sees them.
        let prod = match (&self.exec, train) {
            (Some(exec), false) => exec.gemm_xw(x)?,
            _ => matmul(x, &self.weight)?,
        };
        let y = add_bias(&prod, &self.bias)?;
        self.cache_x = train.then(|| x.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_x
            .as_ref()
            .ok_or_else(|| TensorError::InvalidParameter {
                what: "backward called before forward(train=true)".into(),
            })?;
        // dW = xᵀ · g, db = column sums of g, dx = g · Wᵀ.
        self.weight_grad.axpy(1.0, &matmul_at_b(x, grad_out)?)?;
        let (rows, cols) = (grad_out.dims()[0], grad_out.dims()[1]);
        for r in 0..rows {
            for c in 0..cols {
                self.bias_grad.as_mut_slice()[c] += grad_out.as_slice()[r * cols + c];
            }
        }
        matmul_a_bt(grad_out, &self.weight)
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                value: &mut self.weight,
                grad: &mut self.weight_grad,
            },
            Param {
                value: &mut self.bias,
                grad: &mut self.bias_grad,
            },
        ]
    }

    fn zero_grad(&mut self) {
        self.weight_grad.map_inplace(|_| 0.0);
        self.bias_grad.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn as_prunable(&mut self) -> Option<&mut dyn Prunable> {
        Some(self)
    }
}

impl Prunable for Linear {
    fn csp_dims(&self) -> (usize, usize) {
        (self.in_features(), self.out_features())
    }

    fn csp_weight(&self) -> Tensor {
        self.weight.clone()
    }

    fn set_csp_weight(&mut self, w: &Tensor) -> Result<()> {
        self.set_weight(w)
    }

    fn add_csp_weight_grad(&mut self, g: &Tensor) -> Result<()> {
        self.weight_grad.axpy(1.0, g)
    }

    fn apply_csp_mask(&mut self, mask: &Tensor) -> Result<()> {
        self.weight = self.weight.mul(mask)?;
        Ok(())
    }

    fn csp_label(&self) -> String {
        format!("linear({}->{})", self.in_features(), self.out_features())
    }

    fn set_csp_executor(&mut self, exec: Option<SharedGemm>) -> Result<()> {
        if let Some(e) = &exec {
            check_executor_dims(e, self.csp_dims())?;
        }
        self.exec = exec;
        Ok(())
    }

    fn csp_executor(&self) -> Option<&SharedGemm> {
        self.exec.as_ref()
    }
}

/// 2-D convolution layer over batched `(n, c, h, w)` inputs.
pub struct Conv2d {
    weight: Tensor, // (c_out, c_in, k, k)
    bias: Tensor,   // (c_out)
    weight_grad: Tensor,
    bias_grad: Tensor,
    spec: Conv2dSpec,
    cache_x: Option<Tensor>,
    exec: Option<SharedGemm>,
}

impl Conv2d {
    /// Kaiming-initialized convolution.
    pub fn new<R: Rng>(
        rng: &mut R,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        let fan_in = c_in * kernel * kernel;
        Conv2d {
            weight: kaiming_uniform(rng, &[c_out, c_in, kernel, kernel], fan_in),
            bias: Tensor::zeros(&[c_out]),
            weight_grad: Tensor::zeros(&[c_out, c_in, kernel, kernel]),
            bias_grad: Tensor::zeros(&[c_out]),
            spec: Conv2dSpec::new(kernel, stride, padding),
            cache_x: None,
            exec: None,
        }
    }

    /// Filter count.
    pub fn c_out(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Borrow the 4-D weight tensor.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Overwrite the 4-D weight tensor.
    ///
    /// # Errors
    ///
    /// Returns a shape error on mismatch.
    pub fn set_weight(&mut self, w: &Tensor) -> Result<()> {
        if w.dims() != self.weight.dims() {
            return Err(TensorError::IncompatibleShapes {
                op: "set_weight",
                lhs: self.weight.dims().to_vec(),
                rhs: w.dims().to_vec(),
            });
        }
        self.weight = w.clone();
        Ok(())
    }

    fn one(&self, x: &Tensor, exec: Option<&SharedGemm>) -> Result<Tensor> {
        let mut y = match exec {
            // Executor path: `Wᵀ · cols` on the `M × c_out` view is the
            // `W_flat · cols` product dense `conv2d` lowers to, in the same
            // `(c_out, P)` orientation, so per output element the engine
            // can replay the dense ascending-`m` mul/add stream.
            Some(e) => {
                let (oh, ow) = (
                    self.spec.out_dim(x.dims()[1]),
                    self.spec.out_dim(x.dims()[2]),
                );
                e.gemm_wt(&im2col(x, self.spec)?)?
                    .reshape(&[self.c_out(), oh, ow])?
            }
            None => conv2d(x, &self.weight, self.spec)?,
        };
        let (c, oh, ow) = (y.dims()[0], y.dims()[1], y.dims()[2]);
        for ci in 0..c {
            let b = self.bias.as_slice()[ci];
            for v in &mut y.as_mut_slice()[ci * oh * ow..(ci + 1) * oh * ow] {
                *v += b;
            }
        }
        Ok(y)
    }

    /// The flattened-filter-matrix view `(M, c_out)` with
    /// `M = c_in · k²` and row index `(ci·k + ky)·k + kx` (paper Fig. 2).
    fn to_csp_matrix(&self) -> Tensor {
        let (c_out, c_in, k) = (self.c_out(), self.c_in(), self.spec.kernel);
        let m = c_in * k * k;
        let w = self.weight.as_slice();
        Tensor::from_fn(&[m, c_out], |i| {
            let (row, col) = (i / c_out, i % c_out);
            w[col * m + row]
        })
    }

    #[allow(clippy::wrong_self_convention)] // converts a matrix *view* back, not Self
    fn from_csp_matrix(&self, mat: &Tensor) -> Result<Tensor> {
        let (c_out, c_in, k) = (self.c_out(), self.c_in(), self.spec.kernel);
        let m = c_in * k * k;
        if mat.dims() != [m, c_out] {
            return Err(TensorError::IncompatibleShapes {
                op: "from_csp_matrix",
                lhs: vec![m, c_out],
                rhs: mat.dims().to_vec(),
            });
        }
        let md = mat.as_slice();
        Ok(Tensor::from_fn(&[c_out, c_in, k, k], |i| {
            let (col, row) = (i / m, i % m);
            md[row * c_out + col]
        }))
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if x.rank() != 4 {
            return Err(TensorError::InvalidParameter {
                what: format!("Conv2d expects (n,c,h,w), got {:?}", x.dims()),
            });
        }
        let n = x.dims()[0];
        let per = [x.dims()[1], x.dims()[2], x.dims()[3]];
        let per_len: usize = per.iter().product();
        // Batch samples are independent shards: compute them on the pool
        // and concatenate in sample order. A sample costs roughly
        // per_len × c_out MAC-units, so convolutions shard in parallel
        // even for modest batches while degenerate shapes stay inline.
        let cost = (per_len as u64).saturating_mul(self.c_out() as u64);
        let exec = if train { None } else { self.exec.as_ref() };
        let outs = Pool::current().map_collect_weighted(n, cost, |i| -> Result<Tensor> {
            let xi = Tensor::from_vec(x.as_slice()[i * per_len..(i + 1) * per_len].to_vec(), &per)?;
            self.one(&xi, exec)
        });
        let mut data = Vec::with_capacity(x.len());
        for o in outs {
            data.extend_from_slice(o?.as_slice());
        }
        self.cache_x = train.then(|| x.clone());
        let (oh, ow) = (self.spec.out_dim(per[1]), self.spec.out_dim(per[2]));
        Tensor::from_vec(data, &[n, self.c_out(), oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_x
            .as_ref()
            .ok_or_else(|| TensorError::InvalidParameter {
                what: "backward called before forward(train=true)".into(),
            })?;
        let n = x.dims()[0];
        let in_dims = [x.dims()[1], x.dims()[2], x.dims()[3]];
        let in_len: usize = in_dims.iter().product();
        let g_dims = [grad_out.dims()[1], grad_out.dims()[2], grad_out.dims()[3]];
        let g_len: usize = g_dims.iter().product();
        let c_out = self.c_out();
        let weight = &self.weight;
        let spec = self.spec;
        // Per-sample gradients in parallel; the *accumulation* into
        // weight/bias grads happens below on the calling thread in sample
        // order, reproducing the serial floating-point association.
        let cost = (in_len as u64).saturating_mul(c_out as u64);
        let shards = Pool::current().map_collect_weighted(
            n,
            cost,
            |i| -> Result<(Tensor, Vec<f32>, Tensor)> {
                let xi = Tensor::from_vec(
                    x.as_slice()[i * in_len..(i + 1) * in_len].to_vec(),
                    &in_dims,
                )?;
                let gi = Tensor::from_vec(
                    grad_out.as_slice()[i * g_len..(i + 1) * g_len].to_vec(),
                    &g_dims,
                )?;
                let gw = conv2d_grad_weight(&xi, &gi, c_out, spec)?;
                // Bias gradient: sum over spatial positions per channel.
                let (oh, ow) = (g_dims[1], g_dims[2]);
                let bias_sums: Vec<f32> = (0..c_out)
                    .map(|c| gi.as_slice()[c * oh * ow..(c + 1) * oh * ow].iter().sum())
                    .collect();
                let gx = conv2d_grad_input(weight, &gi, &in_dims, spec)?;
                Ok((gw, bias_sums, gx))
            },
        );
        let mut gin = Tensor::zeros(x.dims());
        for (i, shard) in shards.into_iter().enumerate() {
            let (gw, bias_sums, gx) = shard?;
            self.weight_grad.axpy(1.0, &gw)?;
            for (c, s) in bias_sums.into_iter().enumerate() {
                self.bias_grad.as_mut_slice()[c] += s;
            }
            gin.as_mut_slice()[i * in_len..(i + 1) * in_len].copy_from_slice(gx.as_slice());
        }
        Ok(gin)
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                value: &mut self.weight,
                grad: &mut self.weight_grad,
            },
            Param {
                value: &mut self.bias,
                grad: &mut self.bias_grad,
            },
        ]
    }

    fn zero_grad(&mut self) {
        self.weight_grad.map_inplace(|_| 0.0);
        self.bias_grad.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn as_prunable(&mut self) -> Option<&mut dyn Prunable> {
        Some(self)
    }
}

impl Prunable for Conv2d {
    fn csp_dims(&self) -> (usize, usize) {
        (
            self.c_in() * self.spec.kernel * self.spec.kernel,
            self.c_out(),
        )
    }

    fn csp_weight(&self) -> Tensor {
        self.to_csp_matrix()
    }

    fn set_csp_weight(&mut self, w: &Tensor) -> Result<()> {
        self.weight = self.from_csp_matrix(w)?;
        Ok(())
    }

    fn add_csp_weight_grad(&mut self, g: &Tensor) -> Result<()> {
        let g4 = self.from_csp_matrix(g)?;
        self.weight_grad.axpy(1.0, &g4)
    }

    fn apply_csp_mask(&mut self, mask: &Tensor) -> Result<()> {
        let masked = self.to_csp_matrix().mul(mask)?;
        self.weight = self.from_csp_matrix(&masked)?;
        Ok(())
    }

    fn csp_label(&self) -> String {
        format!(
            "conv2d({}->{},k{})",
            self.c_in(),
            self.c_out(),
            self.spec.kernel
        )
    }

    fn set_csp_executor(&mut self, exec: Option<SharedGemm>) -> Result<()> {
        if let Some(e) = &exec {
            check_executor_dims(e, self.csp_dims())?;
        }
        self.exec = exec;
        Ok(())
    }

    fn csp_executor(&self) -> Option<&SharedGemm> {
        self.exec.as_ref()
    }
}

/// Element-wise ReLU.
#[derive(Default)]
pub struct Relu {
    cache_x: Option<Tensor>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        self.cache_x = train.then(|| x.clone());
        Ok(relu(x))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_x
            .as_ref()
            .ok_or_else(|| TensorError::InvalidParameter {
                what: "backward called before forward(train=true)".into(),
            })?;
        relu_grad(x, grad_out)
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Max pooling over batched `(n, c, h, w)` inputs.
pub struct MaxPool {
    spec: Pool2dSpec,
    cache: Option<(Vec<Vec<usize>>, [usize; 4])>,
}

impl MaxPool {
    /// Pooling with a square window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        MaxPool {
            spec: Pool2dSpec::new(window, stride),
            cache: None,
        }
    }
}

impl Layer for MaxPool {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let n = x.dims()[0];
        let per = [x.dims()[1], x.dims()[2], x.dims()[3]];
        let per_len: usize = per.iter().product();
        let spec = self.spec;
        // Pooling touches each input element about once: small batches
        // fall below the grain and run inline.
        let shards = Pool::current().map_collect_weighted(n, per_len as u64, |i| {
            let xi = Tensor::from_vec(x.as_slice()[i * per_len..(i + 1) * per_len].to_vec(), &per)?;
            max_pool2d(&xi, spec)
        });
        let mut outs = Vec::with_capacity(n);
        let mut args = Vec::with_capacity(n);
        for shard in shards {
            let (y, a) = shard?;
            outs.push(y);
            args.push(a);
        }
        let od = [per[0], spec.out_dim(per[1]), spec.out_dim(per[2])];
        let mut data = Vec::with_capacity(n * od.iter().product::<usize>());
        for o in &outs {
            data.extend_from_slice(o.as_slice());
        }
        if train {
            self.cache = Some((args, [n, per[0], per[1], per[2]]));
        }
        Tensor::from_vec(data, &[n, od[0], od[1], od[2]])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (args, in_dims) = self
            .cache
            .as_ref()
            .ok_or_else(|| TensorError::InvalidParameter {
                what: "backward called before forward(train=true)".into(),
            })?;
        let n = in_dims[0];
        let per = [in_dims[1], in_dims[2], in_dims[3]];
        let per_len: usize = per.iter().product();
        let g_len = grad_out.len() / n;
        let g_dims = [grad_out.dims()[1], grad_out.dims()[2], grad_out.dims()[3]];
        let shards = Pool::current().map_collect_weighted(n, per_len as u64, |i| {
            let gi = Tensor::from_vec(
                grad_out.as_slice()[i * g_len..(i + 1) * g_len].to_vec(),
                &g_dims,
            )?;
            max_pool2d_grad(&gi, &args[i], &per)
        });
        let mut gin = Tensor::zeros(&[n, per[0], per[1], per[2]]);
        for (i, shard) in shards.into_iter().enumerate() {
            let gx = shard?;
            gin.as_mut_slice()[i * per_len..(i + 1) * per_len].copy_from_slice(gx.as_slice());
        }
        Ok(gin)
    }

    fn name(&self) -> &'static str {
        "maxpool"
    }
}

/// Average pooling over batched `(n, c, h, w)` inputs.
pub struct AvgPool {
    spec: Pool2dSpec,
    cache_in_dims: Option<[usize; 4]>,
}

impl AvgPool {
    /// Pooling with a square window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        AvgPool {
            spec: Pool2dSpec::new(window, stride),
            cache_in_dims: None,
        }
    }
}

impl Layer for AvgPool {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let n = x.dims()[0];
        let per = [x.dims()[1], x.dims()[2], x.dims()[3]];
        let per_len: usize = per.iter().product();
        let spec = self.spec;
        let outs = Pool::current()
            .map_collect_weighted(n, per_len as u64, |i| {
                let xi =
                    Tensor::from_vec(x.as_slice()[i * per_len..(i + 1) * per_len].to_vec(), &per)?;
                avg_pool2d(&xi, spec)
            })
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        let od = [per[0], spec.out_dim(per[1]), spec.out_dim(per[2])];
        let mut data = Vec::with_capacity(n * od.iter().product::<usize>());
        for o in &outs {
            data.extend_from_slice(o.as_slice());
        }
        if train {
            self.cache_in_dims = Some([n, per[0], per[1], per[2]]);
        }
        Tensor::from_vec(data, &[n, od[0], od[1], od[2]])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let in_dims = self
            .cache_in_dims
            .ok_or_else(|| TensorError::InvalidParameter {
                what: "backward called before forward(train=true)".into(),
            })?;
        let n = in_dims[0];
        let per = [in_dims[1], in_dims[2], in_dims[3]];
        let per_len: usize = per.iter().product();
        let g_len = grad_out.len() / n;
        let g_dims = [grad_out.dims()[1], grad_out.dims()[2], grad_out.dims()[3]];
        let spec = self.spec;
        let shards = Pool::current().map_collect_weighted(n, per_len as u64, |i| {
            let gi = Tensor::from_vec(
                grad_out.as_slice()[i * g_len..(i + 1) * g_len].to_vec(),
                &g_dims,
            )?;
            avg_pool2d_grad(&gi, &per, spec)
        });
        let mut gin = Tensor::zeros(&[n, per[0], per[1], per[2]]);
        for (i, shard) in shards.into_iter().enumerate() {
            let gx = shard?;
            gin.as_mut_slice()[i * per_len..(i + 1) * per_len].copy_from_slice(gx.as_slice());
        }
        Ok(gin)
    }

    fn name(&self) -> &'static str {
        "avgpool"
    }
}

/// Flatten `(n, c, h, w)` (or any rank ≥ 2) to `(n, rest)`.
#[derive(Default)]
pub struct Flatten {
    cache_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        let n = x.dims()[0];
        let rest: usize = x.dims()[1..].iter().product();
        if train {
            self.cache_dims = Some(x.dims().to_vec());
        }
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dims = self
            .cache_dims
            .as_ref()
            .ok_or_else(|| TensorError::InvalidParameter {
                what: "backward called before forward(train=true)".into(),
            })?;
        grad_out.reshape(dims)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

/// Layer normalization over the last dimension of a rank-2 tensor, with
/// learnable scale (`gamma`) and shift (`beta`).
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    gamma_grad: Tensor,
    beta_grad: Tensor,
    eps: f32,
    cache: Option<(Tensor, Tensor, Tensor)>, // (x_hat, mean-removed std per row, x dims kept via x_hat)
}

impl LayerNorm {
    /// Normalization over `dim` features.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Tensor::ones(&[dim]),
            beta: Tensor::zeros(&[dim]),
            gamma_grad: Tensor::zeros(&[dim]),
            beta_grad: Tensor::zeros(&[dim]),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Normalized feature count.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor> {
        if x.rank() != 2 || x.dims()[1] != self.dim() {
            return Err(TensorError::IncompatibleShapes {
                op: "layer_norm",
                lhs: x.dims().to_vec(),
                rhs: vec![self.dim()],
            });
        }
        let (rows, d) = (x.dims()[0], x.dims()[1]);
        let mut x_hat = x.clone();
        let mut stds = Tensor::zeros(&[rows]);
        for r in 0..rows {
            let row = &mut x_hat.as_mut_slice()[r * d..(r + 1) * d];
            let mean: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let std = (var + self.eps).sqrt();
            stds.as_mut_slice()[r] = std;
            for v in row.iter_mut() {
                *v = (*v - mean) / std;
            }
        }
        let mut y = x_hat.clone();
        for r in 0..rows {
            for c in 0..d {
                let i = r * d + c;
                y.as_mut_slice()[i] =
                    y.as_slice()[i] * self.gamma.as_slice()[c] + self.beta.as_slice()[c];
            }
        }
        if train {
            self.cache = Some((x_hat, stds, x.clone()));
        }
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (x_hat, stds, _x) =
            self.cache
                .as_ref()
                .ok_or_else(|| TensorError::InvalidParameter {
                    what: "backward called before forward(train=true)".into(),
                })?;
        let (rows, d) = (grad_out.dims()[0], grad_out.dims()[1]);
        let mut gin = Tensor::zeros(grad_out.dims());
        for r in 0..rows {
            // Per-row layer-norm backward:
            // dx = (1/std) * (dxhat - mean(dxhat) - x_hat * mean(dxhat*x_hat))
            let mut dxhat = vec![0.0f32; d];
            for (c, dx) in dxhat.iter_mut().enumerate() {
                let i = r * d + c;
                *dx = grad_out.as_slice()[i] * self.gamma.as_slice()[c];
                self.gamma_grad.as_mut_slice()[c] += grad_out.as_slice()[i] * x_hat.as_slice()[i];
                self.beta_grad.as_mut_slice()[c] += grad_out.as_slice()[i];
            }
            let mean_dxhat: f32 = dxhat.iter().sum::<f32>() / d as f32;
            let mean_dxhat_xhat: f32 = dxhat
                .iter()
                .enumerate()
                .map(|(c, &v)| v * x_hat.as_slice()[r * d + c])
                .sum::<f32>()
                / d as f32;
            let std = stds.as_slice()[r];
            for (c, &dx) in dxhat.iter().enumerate() {
                let i = r * d + c;
                gin.as_mut_slice()[i] =
                    (dx - mean_dxhat - x_hat.as_slice()[i] * mean_dxhat_xhat) / std;
            }
        }
        Ok(gin)
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                value: &mut self.gamma,
                grad: &mut self.gamma_grad,
            },
            Param {
                value: &mut self.beta,
                grad: &mut self.beta_grad,
            },
        ]
    }

    fn zero_grad(&mut self) {
        self.gamma_grad.map_inplace(|_| 0.0);
        self.beta_grad.map_inplace(|_| 0.0);
    }

    fn name(&self) -> &'static str {
        "layernorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = seeded_rng(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        l.set_weight(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap())
            .unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = l.forward(&x, false).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn linear_backward_finite_difference() {
        let mut rng = seeded_rng(1);
        let mut l = Linear::new(&mut rng, 3, 2);
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.0, 0.0, -0.5], &[2, 3]).unwrap();
        let y = l.forward(&x, true).unwrap();
        let g = Tensor::ones(y.dims());
        let gin = l.backward(&g).unwrap();
        // Check dL/dx numerically where L = sum(y).
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = l.forward(&xp, false).unwrap().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lm = l.forward(&xm, false).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gin.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn linear_weight_grad_finite_difference() {
        let mut rng = seeded_rng(2);
        let mut l = Linear::new(&mut rng, 2, 2);
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]).unwrap();
        let y = l.forward(&x, true).unwrap();
        l.backward(&Tensor::ones(y.dims())).unwrap();
        let analytic = l.weight_grad.clone();
        let eps = 1e-3;
        for idx in 0..l.weight.len() {
            let orig = l.weight.as_slice()[idx];
            l.weight.as_mut_slice()[idx] = orig + eps;
            let lp = l.forward(&x, false).unwrap().sum();
            l.weight.as_mut_slice()[idx] = orig - eps;
            let lm = l.forward(&x, false).unwrap().sum();
            l.weight.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - analytic.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn conv_layer_batched_shapes() {
        let mut rng = seeded_rng(3);
        let mut c = Conv2d::new(&mut rng, 3, 8, 3, 1, 1);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = c.forward(&x, false).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_backward_input_grad_shape() {
        let mut rng = seeded_rng(4);
        let mut c = Conv2d::new(&mut rng, 2, 4, 3, 1, 1);
        let x = Tensor::from_fn(&[2, 2, 5, 5], |i| (i as f32 * 0.1).sin());
        let y = c.forward(&x, true).unwrap();
        let gin = c.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gin.dims(), x.dims());
        assert!(gin.norm_l2() > 0.0);
    }

    #[test]
    fn conv_bias_applied_per_channel() {
        let mut rng = seeded_rng(5);
        let mut c = Conv2d::new(&mut rng, 1, 2, 1, 1, 0);
        c.set_weight(&Tensor::zeros(&[2, 1, 1, 1])).unwrap();
        c.bias = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let y = c.forward(&Tensor::zeros(&[1, 1, 2, 2]), false).unwrap();
        assert_eq!(y.get(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert_eq!(y.get(&[0, 1, 0, 0]).unwrap(), -1.0);
    }

    #[test]
    fn relu_layer_masks_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        let y = r.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0]);
        let g = r.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = Relu::new();
        assert!(r.backward(&Tensor::ones(&[1, 2])).is_err());
        let mut rng = seeded_rng(0);
        let mut l = Linear::new(&mut rng, 2, 2);
        assert!(l.backward(&Tensor::ones(&[1, 2])).is_err());
    }

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut p = MaxPool::new(2, 2);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        let gin = p.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(gin.sum(), 4.0);
    }

    #[test]
    fn avgpool_layer_mean_and_grad() {
        let mut p = AvgPool::new(2, 2);
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 1.0]);
        let gin = p.backward(&Tensor::ones(y.dims())).unwrap();
        assert!(gin.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-6));
    }

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = f.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let back = f.backward(&y).unwrap();
        assert_eq!(back.dims(), x.dims());
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut ln = LayerNorm::new(4);
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0], &[2, 4]).unwrap();
        let y = ln.forward(&x, false).unwrap();
        let r0: f32 = y.row(0).unwrap().mean();
        assert!(r0.abs() < 1e-5);
        // Constant row normalizes to ~zero.
        assert!(y.row(1).unwrap().norm_l2() < 1e-2);
    }

    #[test]
    fn layernorm_backward_finite_difference() {
        let mut ln = LayerNorm::new(3);
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0], &[1, 3]).unwrap();
        let _ = ln.forward(&x, true).unwrap();
        // Weighted-sum loss to exercise non-uniform grads.
        let w = [1.0f32, -2.0, 0.5];
        let g = Tensor::from_vec(w.to_vec(), &[1, 3]).unwrap();
        let gin = ln.backward(&g).unwrap();
        let loss = |ln: &mut LayerNorm, x: &Tensor| -> f32 {
            let y = ln.forward(x, false).unwrap();
            y.as_slice().iter().zip(&w).map(|(&a, &b)| a * b).sum()
        };
        let eps = 1e-3;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&mut ln, &xp) - loss(&mut ln, &xm)) / (2.0 * eps);
            assert!(
                (fd - gin.as_slice()[idx]).abs() < 1e-2,
                "idx {idx}: {fd} vs {}",
                gin.as_slice()[idx]
            );
        }
    }
}
