//! The [`CspGemm`] execution hook: pluggable inference-time GEMM engines.
//!
//! `csp-sparse` implements this trait over weaved-compressed layouts so a
//! prunable layer can run its forward GEMM straight from the compressed
//! weights (the paper's early-stop), without this crate depending on the
//! pruning crate. The hook is *inference-only*: training forwards and all
//! backwards keep using the layer's dense weights, so gradients and the
//! cached activations stay exactly what the dense path produces.
//!
//! A layer picks the orientation that matches its dense twin: `Linear`
//! computes `x · W` ([`CspGemm::gemm_xw`]); `Conv2d` computes
//! `Wᵀ · cols` on one image's im2col matrix ([`CspGemm::gemm_wt`]), the
//! `W_flat · cols` product dense `conv2d` runs, so the output pixels `P`
//! are the long dimension in both.

use csp_tensor::{Result, Tensor};
use std::sync::Arc;

/// An engine that evaluates `y = x · W` for one layer's weight matrix `W`
/// in the canonical `M × c_out` flattened-filter layout (rows = filter
/// rows, columns = output units — paper Fig. 2).
///
/// Implementations own whatever representation of `W` they like (dense,
/// weaved-compressed, quantized). A layer given an executor calls it for
/// every inference forward instead of its dense `matmul`.
pub trait CspGemm: Send + Sync {
    /// `(M, c_out)` — the shape of the weight matrix this engine applies.
    fn dims(&self) -> (usize, usize);

    /// Compute `x · W` for a row-major `x` of shape `(n, M)`, returning
    /// `(n, c_out)`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `x` is not `(n, M)`.
    fn gemm_xw(&self, x: &Tensor) -> Result<Tensor>;

    /// Compute `Wᵀ · cols` for a row-major `cols` of shape `(M, P)` — one
    /// image's im2col matrix — returning `(c_out, P)`, the convolution
    /// output in channel-major order.
    ///
    /// The provided body is `(colsᵀ · W)ᵀ` through
    /// [`gemm_xw`](Self::gemm_xw); transposes move data without rounding,
    /// so it returns the same bits as `gemm_xw` on `colsᵀ`. Engines
    /// override it to run the product in this orientation directly.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `cols` is not `(M, P)`.
    fn gemm_wt(&self, cols: &Tensor) -> Result<Tensor> {
        self.gemm_xw(&cols.transpose()?)?.transpose()
    }

    /// Human-readable description (execution variant, shape, sparsity)
    /// for logs and debug output.
    fn describe(&self) -> String;
}

/// Shared, immutable executor handle as installed into layers.
pub type SharedGemm = Arc<dyn CspGemm>;
