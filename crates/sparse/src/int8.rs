//! The fused int8 early-stop engine: symmetric 8-bit quantization on top
//! of the weaved prefix structure, with **dequant-free accumulation**.
//!
//! ## Quantized accumulation scheme
//!
//! Weights are quantized once at preparation with a per-layer symmetric
//! [`QuantSpec`] (`q = clamp(round(v / s_w))`, `|q| ≤ 128`); activations
//! are calibrated **per sample** with their own spec `s_x` — a sample's
//! scale depends only on that sample, so a served reply can never change
//! with the composition of the batch it was coalesced into (the serving
//! tier's batched ≡ serial rule). The inner loop is
//! pure integer: `acc[j] += q_x[p] · q_w[p][j]` in `i32`, walking the
//! same prefix-length groups as the f32 engine — integer accumulation is
//! exact, so the result is trivially identical for every backend and
//! pool width. Each output element is dequantized exactly once at the
//! end: `out[j] = acc[j] as f32 · (s_x · s_w)`.
//!
//! Both orientations of the f32 engine are served. In `gemm_xw` a sample
//! is a row of `x`; in `gemm_wt` (IpOS, `Conv2d`) it is a column of the
//! im2col matrix — one output pixel's receptive field, i.e. a row of
//! `colsᵀ` — and the `i32` accumulator row `acc[j, 0..P]` streams the
//! quantized im2col rows of the f32 engine's IpOS spans. Same specs, same
//! exact integer sums, same dequantizing multiply: `gemm_wt` returns
//! bitwise `gemm_xw(colsᵀ)ᵀ`.
//!
//! `|q_x · q_w| ≤ 128² = 16384`, so `i32` accumulation cannot overflow
//! for `M ≤ 131071`; preparation rejects larger layouts with a typed
//! error.
//!
//! ## Error bound
//!
//! Versus the f32 product on the decompressed weights, with `K` the
//! number of filter rows whose prefix is non-empty, per output element:
//!
//! ```text
//! |y_int8 − y_f32| ≤ K·( max|x|·s_w/2 + max|w|·s_x/2 + s_x·s_w/4 )   quantization
//!                  + K·16384·2⁻²⁴·s_x·s_w                            i32→f32 cast
//!                  + K²·ε·max|x|·max|w|                              f32 reference accumulation
//! ```
//!
//! (each quantized term errs by at most half a step in each factor; the
//! accumulator magnitude is ≤ `K·16384` so its f32 cast rounds by at most
//! `2⁻²⁴` relative; and the f32 reference itself accumulates rounding.)
//! `max|x|` and `s_x` are taken over the whole batch; every row's own
//! scale is ≤ that, and the bound is monotone in both, so it covers every
//! row. [`PreparedWeavedInt8::error_bound`] evaluates this for a concrete
//! activation tensor, and the property tests assert it.

use crate::engine::{prepare_groups, record_telemetry, Group, IposPlan, BLOCK};
use csp_nn::CspGemm;
use csp_pruning::quant::{quant_error_bound, QuantSpec};
use csp_pruning::Weaved;
use csp_runtime::Pool;
use csp_tensor::{KernelBackend, Tensor, TensorError};

/// Fixed output-row chunk of the parallel dispatch (same as the f32
/// engine; integer accumulation makes any chunking exact anyway).
const ROW_CHUNK: usize = 16;

/// Largest `M` for which `i32` accumulation of int8 products cannot
/// overflow: `M · 128² ≤ i32::MAX`.
const MAX_M: usize = (i32::MAX / (128 * 128)) as usize;

/// A weaved layout prepared for fused int8 execution: quantized payload,
/// the f32 engine's group table, and the per-layer weight [`QuantSpec`].
#[derive(Debug, Clone)]
pub struct PreparedWeavedInt8 {
    m: usize,
    c_out: usize,
    qpayload: Vec<i8>,
    groups: Vec<Group>,
    ipos: IposPlan<i8>,
    wspec: QuantSpec,
    max_abs_w: f32,
}

impl PreparedWeavedInt8 {
    /// Validate `w`, calibrate the weight spec over the payload and
    /// quantize it once.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] for corrupted layouts
    /// (as [`Weaved::validate`]) or when `M` exceeds the `i32`
    /// overflow-safety limit.
    pub fn new(w: &Weaved) -> Result<Self, TensorError> {
        let (m, c_out, groups, _nnz) = prepare_groups(w)?;
        if m > MAX_M {
            return Err(TensorError::InvalidParameter {
                what: format!("weaved-int8 supports M <= {MAX_M}, got {m}"),
            });
        }
        let max_abs_w = w.payload.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let wspec = if w.payload.is_empty() {
            QuantSpec {
                bits: 8,
                scale: 1.0,
            }
        } else {
            QuantSpec::calibrate(&Tensor::from_vec(w.payload.clone(), &[w.payload.len()])?, 8)?
        };
        let qpayload: Vec<i8> = w
            .payload
            .iter()
            .map(|&v| wspec.quantize_value(v) as i8)
            .collect();
        Ok(PreparedWeavedInt8 {
            m,
            c_out,
            ipos: IposPlan::new(&qpayload, &groups, m, c_out),
            qpayload,
            groups,
            wspec,
            max_abs_w,
        })
    }

    /// `(M, c_out)` — the dense shape this layout stands for.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.c_out)
    }

    /// Stored (surviving) quantized weight count.
    pub fn nnz(&self) -> usize {
        self.qpayload.len()
    }

    /// The per-layer weight quantization spec.
    pub fn weight_spec(&self) -> QuantSpec {
        self.wspec
    }

    /// Number of filter rows with a non-empty prefix — the `K` of the
    /// module-level error bound.
    fn k_rows(&self) -> usize {
        self.groups.iter().map(|g| g.rows).sum()
    }

    /// Evaluate the module-level error bound for activations `x`: an
    /// upper bound on `|gemm_xw(x) − x · W_decompressed|` per output
    /// element.
    pub fn error_bound(&self, x: &Tensor) -> f32 {
        let max_x = x.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let sx = Self::activation_spec(max_x).scale;
        let sw = self.wspec.scale;
        let k = self.k_rows() as f32;
        let quant = k
            * (max_x * quant_error_bound(&self.wspec) + self.max_abs_w * sx * 0.5 + sx * sw * 0.25);
        let cast = k * 16384.0 * 2.0f32.powi(-24) * sx * sw;
        let reference = k * k * f32::EPSILON * max_x * self.max_abs_w;
        quant + cast + reference + f32::MIN_POSITIVE
    }

    /// The per-call activation spec for a batch whose max magnitude is
    /// `max_x` (symmetric 8-bit; scale 1.0 for an all-zero batch,
    /// matching [`QuantSpec::calibrate`]).
    fn activation_spec(max_x: f32) -> QuantSpec {
        QuantSpec {
            bits: 8,
            scale: if max_x == 0.0 { 1.0 } else { max_x / 127.0 },
        }
    }

    /// Compute `x · W` through the fused int8 path: quantize each row of
    /// `x` with its own per-row spec, accumulate pure `i32` over the
    /// prefix groups, dequantize once per output element. Deterministic
    /// and identical for every backend, pool width, and batch
    /// composition (integer accumulation is exact; calibration is
    /// per row).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] when `x` is not
    /// `(n, M)`.
    pub fn gemm_xw(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        if x.rank() != 2 || x.dims()[1] != self.m {
            return Err(TensorError::IncompatibleShapes {
                op: "weaved_int8_gemm_xw",
                lhs: x.dims().to_vec(),
                rhs: vec![self.m, self.c_out],
            });
        }
        let n = x.dims()[0];
        let mut out = Tensor::zeros(&[n, self.c_out]);
        if n == 0 || self.c_out == 0 || self.m == 0 {
            return Ok(out);
        }
        let backend = KernelBackend::current();
        record_telemetry(
            "weaved-int8",
            backend,
            n,
            self.m,
            self.c_out,
            self.qpayload.len(),
        );
        let (m, c_out) = (self.m, self.c_out);
        let (xs, qpayload, groups) = (x.as_slice(), &self.qpayload, &self.groups);
        let unit = (self.qpayload.len() / c_out).max(1) as u64;
        Pool::current().for_each_chunk_mut_weighted(
            out.as_mut_slice(),
            ROW_CHUNK * c_out,
            unit,
            |_, elem_off, chunk| {
                let row0 = elem_off / c_out;
                let rows = chunk.len() / c_out;
                let mut qx = vec![0i32; m];
                let mut acc = vec![0i32; c_out];
                for r in 0..rows {
                    let xb = (row0 + r) * m;
                    let xrow = &xs[xb..xb + m];
                    // Per-row calibration: each sample's scale depends
                    // only on that sample, so a reply can never change
                    // with the composition of the batch it rode in
                    // (batched ≡ serial, the serving determinism rule).
                    let max_r = xrow.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
                    let xspec = Self::activation_spec(max_r);
                    let scale = xspec.scale * self.wspec.scale;
                    for (q, &v) in qx.iter_mut().zip(xrow) {
                        *q = xspec.quantize_value(v) as i32;
                    }
                    acc.iter_mut().for_each(|a| *a = 0);
                    for g in groups {
                        for gr in 0..g.rows {
                            let q = qx[g.p0 + gr];
                            if q == 0 {
                                continue;
                            }
                            let wrow = &qpayload[g.off + gr * g.len..g.off + (gr + 1) * g.len];
                            for (a, &wq) in acc[..g.len].iter_mut().zip(wrow) {
                                *a += q * wq as i32;
                            }
                        }
                    }
                    let orow = &mut chunk[r * c_out..(r + 1) * c_out];
                    for (o, &a) in orow.iter_mut().zip(&acc) {
                        *o = a as f32 * scale;
                    }
                }
            },
        );
        Ok(out)
    }

    /// Compute `Wᵀ · cols` (`cols` row-major `(M, P)`, one image's im2col
    /// matrix → `(c_out, P)`) through the fused int8 path in the IpOS
    /// orientation: quantize each column of `cols` with its own spec,
    /// accumulate pure `i32` per output-channel row, dequantize once per
    /// output element. Bitwise `gemm_xw(colsᵀ)ᵀ`, so identical for every
    /// backend, pool width, and batch composition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] when `cols` is not
    /// `(M, P)`.
    pub fn gemm_wt(&self, cols: &Tensor) -> Result<Tensor, TensorError> {
        if cols.rank() != 2 || cols.dims()[0] != self.m {
            return Err(TensorError::IncompatibleShapes {
                op: "weaved_int8_gemm_wt",
                lhs: vec![self.m, self.c_out],
                rhs: cols.dims().to_vec(),
            });
        }
        let p = cols.dims()[1];
        let mut out = Tensor::zeros(&[self.c_out, p]);
        if p == 0 || self.c_out == 0 || self.m == 0 {
            return Ok(out);
        }
        record_telemetry(
            "weaved-int8",
            KernelBackend::current(),
            p,
            self.m,
            self.c_out,
            self.qpayload.len(),
        );
        let cs = cols.as_slice();
        // Per-column calibration: a column is one pixel's sample, the row
        // `gemm_xw` would calibrate in `colsᵀ`, scanned in the same
        // ascending-`p` order.
        let mut max_col = vec![0.0f32; p];
        for row in cs.chunks_exact(p) {
            for (mx, &v) in max_col.iter_mut().zip(row) {
                *mx = mx.max(v.abs());
            }
        }
        let specs: Vec<QuantSpec> = max_col.into_iter().map(Self::activation_spec).collect();
        let scales: Vec<f32> = specs.iter().map(|xs| xs.scale * self.wspec.scale).collect();
        // |q| ≤ 128, so every product |q_x · q_w| ≤ 16384 fits an `i16`.
        let qx: Vec<i16> = cs
            .chunks_exact(p)
            .flat_map(|row| {
                row.iter()
                    .zip(&specs)
                    .map(|(&v, xs)| xs.quantize_value(v) as i16)
            })
            .collect();
        let plan = &self.ipos;
        let unit = (self.qpayload.len() / self.c_out).max(1) as u64;
        Pool::current().for_each_chunk_mut_weighted(
            out.as_mut_slice(),
            ROW_CHUNK * p,
            unit,
            |_, elem_off, chunk| {
                let b0 = elem_off / (BLOCK * p);
                let mut acc = vec![0i32; p];
                for (b, orows) in chunk.chunks_mut(BLOCK * p).enumerate() {
                    let spans = plan.spans(b0 + b);
                    for (q, orow) in orows.chunks_exact_mut(p).enumerate() {
                        acc.fill(0);
                        for s in spans {
                            for (r, &wq) in plan.weights(s, q).iter().enumerate() {
                                if wq == 0 {
                                    continue;
                                }
                                let wq = i16::from(wq);
                                let xrow = &qx[(s.p0 + r) * p..(s.p0 + r + 1) * p];
                                for (a, &xq) in acc.iter_mut().zip(xrow) {
                                    *a += i32::from(wq * xq);
                                }
                            }
                        }
                        for ((o, &a), &sc) in orow.iter_mut().zip(&acc).zip(&scales) {
                            *o = a as f32 * sc;
                        }
                    }
                }
            },
        );
        Ok(out)
    }
}

impl CspGemm for PreparedWeavedInt8 {
    fn dims(&self) -> (usize, usize) {
        (self.m, self.c_out)
    }

    fn gemm_xw(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        PreparedWeavedInt8::gemm_xw(self, x)
    }

    fn gemm_wt(&self, cols: &Tensor) -> Result<Tensor, TensorError> {
        PreparedWeavedInt8::gemm_wt(self, cols)
    }

    fn describe(&self) -> String {
        format!(
            "weaved int8 {}x{} (nnz {}, w-scale {:.3e})",
            self.m,
            self.c_out,
            self.nnz(),
            self.wspec.scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_pruning::{ChunkedLayout, CspMask};
    use csp_tensor::matmul;

    fn weaved_from_counts(
        m: usize,
        c_out: usize,
        cs: usize,
        counts: Vec<usize>,
        seed: u64,
    ) -> (Weaved, Tensor) {
        let layout = ChunkedLayout::new(m, c_out, cs).unwrap();
        let w = Tensor::from_fn(&[m, c_out], |i| ((i as f32) * 0.37 + seed as f32).sin());
        let mask = CspMask::from_chunk_counts(layout, counts).unwrap();
        let weaved = Weaved::compress(&w, &mask).unwrap();
        (weaved, mask.apply(&w).unwrap())
    }

    #[test]
    fn int8_within_documented_bound() {
        let (wv, dense) = weaved_from_counts(8, 12, 3, vec![4, 4, 2, 2, 1, 0, 3, 3], 2);
        let prep = PreparedWeavedInt8::new(&wv).unwrap();
        let x = Tensor::from_fn(&[6, 8], |i| ((i as f32) * 0.29).sin() * 2.0);
        let got = prep.gemm_xw(&x).unwrap();
        let want = matmul(&x, &dense).unwrap();
        let bound = prep.error_bound(&x);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() <= bound, "{g} vs {w} (bound {bound})");
        }
    }

    #[test]
    fn int8_identical_across_pool_widths() {
        let (wv, _) = weaved_from_counts(10, 16, 4, vec![4, 4, 3, 2, 2, 2, 1, 1, 0, 0], 5);
        let prep = PreparedWeavedInt8::new(&wv).unwrap();
        let x = Tensor::from_fn(&[33, 10], |i| ((i as f32) * 0.41).cos());
        let want = csp_runtime::with_threads(1, || prep.gemm_xw(&x).unwrap());
        for threads in [2usize, 4, 8] {
            let got = csp_runtime::with_threads(threads, || prep.gemm_xw(&x).unwrap());
            assert_eq!(got.as_slice(), want.as_slice(), "threads {threads}");
        }
    }

    #[test]
    fn corrupted_layouts_are_typed_errors() {
        let (wv, _) = weaved_from_counts(4, 6, 2, vec![3, 2, 1, 0], 0);
        let mut bad = wv.clone();
        bad.chunk_counts.push(0);
        assert!(matches!(
            PreparedWeavedInt8::new(&bad),
            Err(TensorError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn all_zero_activations_give_exact_zero() {
        let (wv, _) = weaved_from_counts(4, 6, 2, vec![3, 2, 1, 0], 0);
        let prep = PreparedWeavedInt8::new(&wv).unwrap();
        let y = prep.gemm_xw(&Tensor::zeros(&[3, 4])).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }
}
