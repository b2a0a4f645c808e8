//! # csp-sparse
//!
//! The weaved-format sparse execution engine: forward-pass GEMMs served
//! **directly from CSP compressed layouts** (paper §3.3), with each row's
//! surviving-chunk prefix turned into a tight inner-loop trip count — the
//! paper's *early-stop*. There are no per-element mask tests anywhere on
//! the hot path: a row that kept `c` chunks contributes exactly
//! `min(c·chunk_size, c_out)` multiply-accumulates and the loop simply
//! stops there.
//!
//! Two engines are provided, both implementing the
//! [`CspGemm`](csp_nn::CspGemm) layer hook in both of its orientations:
//! `gemm_xw` (`x · W`, what `Linear` runs) and `gemm_wt` (`Wᵀ · cols` on
//! one image's im2col matrix, what `Conv2d` runs — the paper's IpOS
//! dataflow, with the output-channel rows as stationary accumulators
//! and the im2col rows streaming past, each filter row stopping at its
//! prefix):
//!
//! * [`PreparedWeaved`] — f32, **bit-identical** to running the dense
//!   blocked GEMM on the decompressed weights in the same orientation,
//!   for every non-FMA
//!   [`KernelBackend`](csp_tensor::KernelBackend) and every runtime pool
//!   width (see `engine` module docs for the IEEE-754 argument).
//! * [`PreparedWeavedInt8`] — fused symmetric int8: weights quantized
//!   once at preparation, activations per sample, exact `i32`
//!   accumulation (dequant-free inner loop) and one dequantizing multiply
//!   per output element, within the documented
//!   [`error_bound`](PreparedWeavedInt8::error_bound); its two
//!   orientations are bitwise transposes of each other.
//!
//! Both validate their layout at construction
//! ([`Weaved::validate`](csp_pruning::Weaved::validate) plus shape
//! checks), so corrupted artifacts are typed errors before the first
//! inference, never wrong answers. Execution is parallel over the
//! supervised [`csp_runtime::Pool`] with fixed chunking, so results are
//! bit-identical for any thread count, and telemetry lands under the
//! `sparse.gemm.*` counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod int8;

pub use engine::PreparedWeaved;
pub use int8::PreparedWeavedInt8;

use csp_tensor::TensorError;

/// How a served model executes its prunable layers' GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Execution {
    /// Dense GEMM on the decompressed weights (the pre-sparse default).
    #[default]
    Dense,
    /// f32 early-stop directly from the weaved layout; bit-identical to
    /// [`Dense`](Execution::Dense).
    Weaved,
    /// Fused int8 early-stop from the weaved layout; within the engine's
    /// documented quantization error bound.
    WeavedInt8,
}

/// All execution variants, in presentation order.
pub const ALL_EXECUTIONS: [Execution; 3] =
    [Execution::Dense, Execution::Weaved, Execution::WeavedInt8];

impl Execution {
    /// Stable lower-case name (used in benches, CLI flags and telemetry
    /// labels): `dense` / `weaved` / `weaved-int8`.
    pub fn name(self) -> &'static str {
        match self {
            Execution::Dense => "dense",
            Execution::Weaved => "weaved",
            Execution::WeavedInt8 => "weaved-int8",
        }
    }

    /// Parse a [`name`](Self::name) back to the variant.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] for unknown names.
    pub fn parse(s: &str) -> Result<Self, TensorError> {
        ALL_EXECUTIONS
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| TensorError::InvalidParameter {
                what: format!("unknown execution {s:?} (expected dense | weaved | weaved-int8)"),
            })
    }
}

impl std::fmt::Display for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_names_round_trip() {
        for e in ALL_EXECUTIONS {
            assert_eq!(Execution::parse(e.name()).unwrap(), e);
        }
        assert!(Execution::parse("csr").is_err());
        assert_eq!(Execution::default(), Execution::Dense);
    }
}
