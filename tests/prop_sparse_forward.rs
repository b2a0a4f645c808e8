//! Sparse-forward property suite (csp-sparse): the weaved f32 engine must
//! be **bit-identical** to the dense blocked GEMM on the decompressed
//! weights in both orientations (`x · W` for `Linear`, `Wᵀ · cols` for
//! `Conv2d`) for every bit-identical kernel backend, every pool width, and
//! ragged shapes; the fused int8 engine must stay inside its documented
//! error bound, with its two orientations bitwise transposes of each
//! other; and corrupted layouts must surface as typed errors at
//! preparation — never as wrong answers.
//!
//! Shapes are deliberately ragged: `c_out` is not forced to a multiple of
//! `chunk_size` (so the last chunk is partial), per-row chunk counts run
//! the full `0..=n_chunks` range (empty rows, full rows, and everything
//! between), and batch sizes straddle the parallel `ROW_CHUNK` boundary.

use csp_pruning::{ChunkedLayout, CspMask, Weaved};
use csp_runtime::with_threads;
use csp_sparse::{PreparedWeaved, PreparedWeavedInt8};
use csp_tensor::{matmul, with_backend, KernelBackend, Tensor, TensorError};
use proptest::prelude::*;

const POOL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Finite values with deliberate mass at exact zero so the engines'
/// zero-activation skip is exercised on every instance.
fn values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(prop_oneof![3 => -2.0f32..2.0, 1 => Just(0.0f32)], len..=len)
}

/// A weaved instance plus its dense (masked) reference and an activation
/// batch: ragged `m × c_out` with arbitrary chunk size, per-row counts
/// drawn independently over the full legal range.
fn weaved_instance() -> impl Strategy<Value = (Weaved, Tensor, Tensor)> {
    (1usize..12, 1usize..20, 1usize..6, 0usize..24)
        .prop_flat_map(|(m, c_out, cs, n)| {
            let n_chunks = c_out.div_ceil(cs);
            (
                Just((m, c_out, cs, n)),
                proptest::collection::vec(0usize..=n_chunks, m..=m),
                values(m * c_out),
                values(n * m),
            )
        })
        .prop_map(|((m, c_out, cs, n), counts, wbuf, xbuf)| {
            let layout = ChunkedLayout::new(m, c_out, cs).expect("layout");
            let w = Tensor::from_vec(wbuf, &[m, c_out]).expect("w dims");
            let mask = CspMask::from_chunk_counts(layout, counts).expect("mask");
            let weaved = Weaved::compress(&w, &mask).expect("compress");
            let dense = mask.apply(&w).expect("mask apply");
            let x = Tensor::from_vec(xbuf, &[n, m]).expect("x dims");
            (weaved, dense, x)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Weaved f32 ≡ dense GEMM on the decompressed weights, bitwise, for
    /// every bit-identical backend × pool widths 1/2/4/8, in both
    /// orientations: `gemm_xw(x)` ≡ `x · W` and, with `cols = xᵀ` as an
    /// im2col-shaped `(M, P)` operand, `gemm_wt(cols)` ≡ `Wᵀ · cols`.
    #[test]
    fn weaved_f32_bit_identical_to_dense((weaved, dense, x) in weaved_instance()) {
        let prep = PreparedWeaved::new(&weaved).expect("prepare");
        let cols = x.transpose().expect("cols");
        let (want_xw, want_wt) = with_backend(KernelBackend::Scalar, || {
            let wt = dense.transpose().expect("Wᵀ");
            (
                bits(&matmul(&x, &dense).expect("dense matmul")),
                bits(&matmul(&wt, &cols).expect("dense matmul")),
            )
        });
        for backend in KernelBackend::supported_backends() {
            if !backend.bit_identical_to_scalar() {
                continue;
            }
            for width in POOL_WIDTHS {
                let (got_xw, got_wt) = with_threads(width, || {
                    with_backend(backend, || {
                        (
                            bits(&prep.gemm_xw(&x).expect("weaved gemm_xw")),
                            bits(&prep.gemm_wt(&cols).expect("weaved gemm_wt")),
                        )
                    })
                });
                prop_assert_eq!(
                    &got_xw,
                    &want_xw,
                    "gemm_xw backend {} width {}",
                    backend.name(),
                    width
                );
                prop_assert_eq!(
                    &got_wt,
                    &want_wt,
                    "gemm_wt backend {} width {}",
                    backend.name(),
                    width
                );
            }
        }
    }

    /// The fused int8 engine stays inside `error_bound` versus the f32
    /// dense product, is itself bitwise width-invariant (integer
    /// accumulation is exact), and its IpOS orientation is bitwise the
    /// transpose of `x · W`: `gemm_wt(xᵀ)` ≡ `gemm_xw(x)ᵀ`.
    #[test]
    fn weaved_int8_within_documented_bound((weaved, dense, x) in weaved_instance()) {
        let prep = PreparedWeavedInt8::new(&weaved).expect("prepare int8");
        let want = matmul(&x, &dense).expect("dense matmul");
        let bound = prep.error_bound(&x);
        let serial = with_threads(1, || prep.gemm_xw(&x).expect("int8 gemm"));
        for (g, w) in serial.as_slice().iter().zip(want.as_slice()) {
            prop_assert!(
                (g - w).abs() <= bound,
                "int8 {g} vs f32 {w} exceeds bound {bound}"
            );
        }
        let cols = x.transpose().expect("cols");
        let serial_t = bits(&serial.transpose().expect("transpose"));
        for width in POOL_WIDTHS {
            let got = with_threads(width, || prep.gemm_xw(&x).expect("int8 gemm"));
            prop_assert_eq!(bits(&got), bits(&serial), "int8 width {}", width);
            let got = with_threads(width, || prep.gemm_wt(&cols).expect("int8 gemm_wt"));
            prop_assert_eq!(bits(&got), serial_t.clone(), "int8 gemm_wt width {}", width);
        }
    }

    /// Corrupting any structural field of a valid layout must yield a
    /// typed `InvalidParameter` from preparation — corruption can never
    /// produce an engine that answers.
    #[test]
    fn corrupted_layouts_are_typed_errors_not_wrong_answers(
        (weaved, _dense, _x) in weaved_instance(),
        tweak in 0usize..4,
    ) {
        let mut bad = weaved.clone();
        match tweak {
            0 => bad.payload.push(0.25),
            1 => {
                bad.chunk_counts.push(0);
            }
            2 => {
                // Inflate one row's count past the layout's chunk total.
                bad.chunk_counts[0] = bad.layout.n_chunks() + 1;
            }
            _ => {
                if bad.payload.is_empty() {
                    bad.payload.push(1.0); // trailing garbage
                } else {
                    bad.payload.pop(); // truncation
                }
            }
        }
        prop_assert!(bad.validate().is_err(), "tweak {} not detected", tweak);
        prop_assert!(
            matches!(
                PreparedWeaved::new(&bad),
                Err(TensorError::InvalidParameter { .. })
            ),
            "f32 prepare accepted corrupted layout (tweak {})",
            tweak
        );
        prop_assert!(
            matches!(
                PreparedWeavedInt8::new(&bad),
                Err(TensorError::InvalidParameter { .. })
            ),
            "int8 prepare accepted corrupted layout (tweak {})",
            tweak
        );
    }
}
