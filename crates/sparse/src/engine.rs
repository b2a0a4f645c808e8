//! The f32 early-stop engine: weaved layouts executed as prefix-length
//! trip counts, bit-identical to dense GEMM on the decompressed weights.
//!
//! ## Data layout walk
//!
//! A weaved matrix stores, per filter row `p` of the `M × c_out` view, a
//! surviving-chunk count `c_p`; cascade closure makes the survivors a
//! *prefix*, so row `p` contributes exactly its first
//! `len_p = min(c_p · chunk_size, c_out)` columns and the payload is the
//! dense row-major stack of those prefixes. Preparation walks the counts
//! once and groups **maximal runs of consecutive rows with equal prefix
//! length**: each run is a contiguous `rows × len` row-major panel inside
//! the payload — exactly the operand shape of the dense GEMM's packed
//! panel kernels, which is how the scalar/SSE2/AVX2 strip kernels
//! ([`csp_tensor::span_axpy`]/[`span_axpy4`](csp_tensor::span_axpy4)) are
//! reused unchanged for prefix-length spans.
//!
//! Preparation also lays the payload out for the IpOS orientation
//! (`IposPlan`): output channels in blocks of four, and per block the
//! **spans** of consecutive filter rows whose prefixes reach it, with the
//! block's weights stored channel-major per span. A span bridges gaps of
//! at most `MAX_GAP` rows that stop short of the block, storing exact
//! zeros there: a skipped zero costs less than the extra kernel call,
//! which reloads the block's accumulators.
//!
//! ## Early-stop loop structure
//!
//! Two orientations, one per layer kind; both walk the filter rows in
//! ascending `p`, and a row is visited only as far as its prefix — no
//! per-element mask test, no index indirection, strictly sequential
//! payload access (the paper's early-stop, §3.3/§6).
//!
//! * [`gemm_xw`](PreparedWeaved::gemm_xw) (`Linear`: `x (n × M) · W`):
//!   for each sample row `i` of `x`, AXPY `x[i, p0..p0+rows]` against the
//!   group's panel into `out[i, 0..len]`. The trip count *is* the prefix
//!   length; the vector dimension is at most `c_out`.
//! * [`gemm_wt`](PreparedWeaved::gemm_wt) (`Conv2d`: `Wᵀ · cols` on one
//!   image's `(M, P)` im2col matrix): the paper's IpOS dataflow. Four
//!   output-channel rows `out[j..j+4, 0..P]` are the stationary
//!   accumulators (the CPU stand-in for CSP-H's RegBins; the strip kernel
//!   holds a `4 × 16` tile of them in registers) and the im2col rows
//!   stream past in ascending `p`: one [`span_axpy4`](csp_tensor::span_axpy4)
//!   per span of the block. A filter row whose prefix stops before the
//!   block is never read for it. The vector dimension is the output pixel
//!   count `P`.
//!
//! ## Why this is bit-identical to the dense GEMM
//!
//! Per output element the dense blocked GEMM performs one IEEE
//! single-rounded `mul`-then-`add` per inner index in ascending order,
//! skipping exact-zero values of its left operand, starting from `+0.0`.
//!
//! * `gemm_xw` against `matmul(x, W)`: the left operand is `x`. The
//!   weaved loop performs the identical sequence except that it also
//!   omits the terms where the weight is a pruned (exact) zero. Those
//!   terms contribute a product of `±0.0`; with round-to-nearest,
//!   `acc + ±0.0` is bitwise `acc` for every `acc` that is not `-0.0`, and
//!   the accumulator can never become `-0.0` (it starts `+0.0`, and
//!   `+0.0 + -0.0 = +0.0`). Omitting them is therefore bitwise invisible.
//! * `gemm_wt` against `matmul(Wᵀ, cols)`, which is what dense `conv2d`
//!   runs: the left operand is the weights, so the dense GEMM already
//!   skips every pruned weight. The IpOS walk visits, per output element
//!   `(j, pixel)`, the filter rows in the same ascending order; every row
//!   it leaves out, and every zero it bridges, holds an exact-zero weight
//!   that the dense GEMM skips too. It multiplies the same operands in the
//!   same order, so its stream is the dense one term for term.
//!
//! Both hold for every backend whose
//! [`bit_identical_to_scalar`](csp_tensor::KernelBackend::bit_identical_to_scalar)
//! holds. Parallelism uses the same fixed 16-row output chunking as the
//! dense kernel, so results are bit-identical for every pool width.

use csp_nn::CspGemm;
use csp_pruning::Weaved;
use csp_runtime::Pool;
use csp_telemetry::names;
use csp_tensor::{span_axpy, span_axpy4, KernelBackend, Tensor, TensorError};

/// Fixed output-row chunk of the parallel dispatch — matching the dense
/// GEMM's chunking so the parallel split can never change results.
const ROW_CHUNK: usize = 16;

/// One maximal run of consecutive filter rows sharing a prefix length:
/// a contiguous `rows × len` row-major panel at `off` in the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Group {
    /// First filter row of the run.
    pub p0: usize,
    /// Rows in the run.
    pub rows: usize,
    /// Shared prefix length (surviving columns) of every row in the run.
    pub len: usize,
    /// Payload offset of the run's first element.
    pub off: usize,
}

/// Validate `w` and precompute the group table. Returns
/// `(m, c_out, groups, nnz)`; zero-length rows are dropped from the table
/// (they contribute nothing and would only add loop overhead).
pub(crate) fn prepare_groups(w: &Weaved) -> Result<(usize, usize, Vec<Group>, usize), TensorError> {
    w.validate()?;
    let m = w.layout.m();
    let c_out = w.layout.c_out();
    let cs = w.layout.chunk_size();
    let mut groups = Vec::new();
    let mut off = 0usize;
    let mut r = 0usize;
    while r < m {
        let len = (w.chunk_counts[r] * cs).min(c_out);
        let mut rows = 1usize;
        while r + rows < m && (w.chunk_counts[r + rows] * cs).min(c_out) == len {
            rows += 1;
        }
        if len > 0 {
            groups.push(Group {
                p0: r,
                rows,
                len,
                off,
            });
        }
        off += rows * len;
        r += rows;
    }
    debug_assert_eq!(off, w.payload.len(), "validate() guarantees this");
    Ok((m, c_out, groups, w.payload.len()))
}

/// Output channels per IpOS block: the four accumulator rows
/// [`span_axpy4`] updates together.
pub(crate) const BLOCK: usize = 4;

/// Longest run of rows outside a block's prefixes that one span bridges
/// with zero weights. Bridging costs a skipped zero per row; splitting
/// costs a kernel call, which loads and stores the block's accumulators.
const MAX_GAP: usize = 4;

/// One run of consecutive filter rows a channel block streams in one
/// kernel call: im2col rows `p0..p0+rows`, and at `off` the block's
/// weights for them, one `rows`-long slice per channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// First filter row.
    pub p0: usize,
    /// Rows in the span.
    pub rows: usize,
    /// Offset of the block's weight slices.
    pub off: usize,
}

/// The IpOS (`gemm_wt`) plan: output channels in blocks of [`BLOCK`]; per
/// block, the spans of filter rows whose prefixes reach it, ascending;
/// per span, the block's weights channel-major, with an exact zero where
/// a row's prefix stops before a channel.
#[derive(Debug, Clone)]
pub(crate) struct IposPlan<T> {
    /// Per block, its range in `spans`.
    blocks: Vec<std::ops::Range<usize>>,
    /// Every block's spans, block by block.
    spans: Vec<Span>,
    /// The spans' weight slices.
    weights: Vec<T>,
}

impl<T> IposPlan<T> {
    /// The spans of block `b` (output channels `BLOCK·b..`), ascending.
    pub(crate) fn spans(&self, b: usize) -> &[Span] {
        &self.spans[self.blocks[b].clone()]
    }

    /// Span `s`'s weights for channel `q` of its block.
    pub(crate) fn weights(&self, s: &Span, q: usize) -> &[T] {
        &self.weights[s.off + q * s.rows..s.off + (q + 1) * s.rows]
    }
}

impl<T: Copy + Default> IposPlan<T> {
    /// Lay `payload` (weaved order, walked by `groups`) out for `gemm_wt`.
    pub(crate) fn new(payload: &[T], groups: &[Group], m: usize, c_out: usize) -> Self {
        // Per filter row: prefix length and payload offset.
        let mut len = vec![0usize; m];
        let mut at = vec![0usize; m];
        for g in groups {
            for r in 0..g.rows {
                len[g.p0 + r] = g.len;
                at[g.p0 + r] = g.off + r * g.len;
            }
        }
        let mut plan = IposPlan {
            blocks: Vec::new(),
            spans: Vec::new(),
            weights: Vec::new(),
        };
        for j0 in (0..c_out).step_by(BLOCK) {
            let width = BLOCK.min(c_out - j0);
            let first = plan.spans.len();
            // Rows whose prefix reaches the block, merged into spans
            // across gaps of at most MAX_GAP rows.
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for p in (0..m).filter(|&p| len[p] > j0) {
                match runs.last_mut() {
                    Some((p0, rows)) if p - (*p0 + *rows) <= MAX_GAP => *rows = p + 1 - *p0,
                    _ => runs.push((p, 1)),
                }
            }
            for (p0, rows) in runs {
                let off = plan.weights.len();
                plan.weights.resize(off + width * rows, T::default());
                for (r, p) in (p0..p0 + rows).enumerate() {
                    // Row p's weights for the block's channels its prefix
                    // reaches; the rest stay zero.
                    let reach = len[p].clamp(j0, j0 + width) - j0;
                    for (q, &v) in payload[at[p] + j0..][..reach].iter().enumerate() {
                        plan.weights[off + q * rows + r] = v;
                    }
                }
                plan.spans.push(Span { p0, rows, off });
            }
            plan.blocks.push(first..plan.spans.len());
        }
        plan
    }
}

/// A weaved layout prepared for f32 early-stop execution: the payload,
/// its group table and its IpOS plan, as the module docs describe.
/// Immutable once built; share it across workers behind an `Arc`.
#[derive(Debug, Clone)]
pub struct PreparedWeaved {
    m: usize,
    c_out: usize,
    payload: Vec<f32>,
    groups: Vec<Group>,
    ipos: IposPlan<f32>,
}

impl PreparedWeaved {
    /// Validate `w` ([`Weaved::validate`] plus the prefix arithmetic) and
    /// precompute the execution plan.
    ///
    /// # Errors
    ///
    /// Returns the typed [`TensorError::InvalidParameter`] from
    /// [`Weaved::validate`] for corrupted layouts — corruption is an
    /// error at preparation, never a wrong answer at execution.
    pub fn new(w: &Weaved) -> Result<Self, TensorError> {
        let (m, c_out, groups, _nnz) = prepare_groups(w)?;
        Ok(PreparedWeaved {
            m,
            c_out,
            payload: w.payload.clone(),
            ipos: IposPlan::new(&w.payload, &groups, m, c_out),
            groups,
        })
    }

    /// `(M, c_out)` — the dense shape this layout stands for.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.c_out)
    }

    /// Stored (surviving) weight count.
    pub fn nnz(&self) -> usize {
        self.payload.len()
    }

    /// Compute `x · W` (`x` row-major `(n, M)` → `(n, c_out)`) with the
    /// early-stop loops, bit-identical to
    /// `csp_tensor::matmul(x, &w.decompress())` for every non-FMA backend
    /// and every pool width.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] when `x` is not
    /// `(n, M)`.
    pub fn gemm_xw(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        if x.rank() != 2 || x.dims()[1] != self.m {
            return Err(TensorError::IncompatibleShapes {
                op: "weaved_gemm_xw",
                lhs: x.dims().to_vec(),
                rhs: vec![self.m, self.c_out],
            });
        }
        let n = x.dims()[0];
        let mut out = Tensor::zeros(&[n, self.c_out]);
        if n == 0 || self.c_out == 0 || self.m == 0 {
            return Ok(out);
        }
        // Resolved once on the calling thread: pool workers must never
        // consult their own thread-local backend override.
        let backend = KernelBackend::current();
        record_telemetry("weaved", backend, n, self.m, self.c_out, self.payload.len());
        let (m, c_out) = (self.m, self.c_out);
        let (xs, payload, groups) = (x.as_slice(), &self.payload, &self.groups);
        // Each output element absorbs ~nnz/c_out MACs; lanes divide the
        // effective cost for the serial-inline cutoff.
        let unit = backend.unit_cost((self.payload.len() / c_out).max(1) as u64);
        Pool::current().for_each_chunk_mut_weighted(
            out.as_mut_slice(),
            ROW_CHUNK * c_out,
            unit,
            |_, elem_off, chunk| {
                let row0 = elem_off / c_out;
                let rows = chunk.len() / c_out;
                let mut r = 0usize;
                // Four sample rows per pass share each panel read.
                while r + 4 <= rows {
                    let base = r * c_out;
                    let (a01, a23) = chunk[base..base + 4 * c_out].split_at_mut(2 * c_out);
                    let (o0, o1) = a01.split_at_mut(c_out);
                    let (o2, o3) = a23.split_at_mut(c_out);
                    let xb = (row0 + r) * m;
                    for g in groups {
                        let panel = &payload[g.off..g.off + g.rows * g.len];
                        let a = |q: usize| &xs[xb + q * m + g.p0..xb + q * m + g.p0 + g.rows];
                        span_axpy4(
                            backend,
                            [a(0), a(1), a(2), a(3)],
                            panel,
                            [
                                &mut o0[..g.len],
                                &mut o1[..g.len],
                                &mut o2[..g.len],
                                &mut o3[..g.len],
                            ],
                        );
                    }
                    r += 4;
                }
                while r < rows {
                    let base = r * c_out;
                    let orow = &mut chunk[base..base + c_out];
                    let xb = (row0 + r) * m;
                    for g in groups {
                        span_axpy(
                            backend,
                            &xs[xb + g.p0..xb + g.p0 + g.rows],
                            &payload[g.off..g.off + g.rows * g.len],
                            &mut orow[..g.len],
                        );
                    }
                    r += 1;
                }
            },
        );
        Ok(out)
    }

    /// Compute `Wᵀ · cols` (`cols` row-major `(M, P)`, one image's im2col
    /// matrix → `(c_out, P)`) with the IpOS walk of the module docs,
    /// bit-identical to `csp_tensor::matmul(&w.decompress().transpose()?,
    /// cols)` — the product dense `conv2d` runs — for every non-FMA
    /// backend and every pool width.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] when `cols` is not
    /// `(M, P)`.
    pub fn gemm_wt(&self, cols: &Tensor) -> Result<Tensor, TensorError> {
        if cols.rank() != 2 || cols.dims()[0] != self.m {
            return Err(TensorError::IncompatibleShapes {
                op: "weaved_gemm_wt",
                lhs: vec![self.m, self.c_out],
                rhs: cols.dims().to_vec(),
            });
        }
        let p = cols.dims()[1];
        let mut out = Tensor::zeros(&[self.c_out, p]);
        if p == 0 || self.c_out == 0 || self.m == 0 {
            return Ok(out);
        }
        let backend = KernelBackend::current();
        record_telemetry("weaved", backend, p, self.m, self.c_out, self.payload.len());
        let (cs, plan) = (cols.as_slice(), &self.ipos);
        let unit = backend.unit_cost((self.payload.len() / self.c_out).max(1) as u64);
        // The im2col rows a span streams.
        let rows = |s: &Span| &cs[s.p0 * p..(s.p0 + s.rows) * p];
        let w = |s: &Span, q: usize| plan.weights(s, q);
        Pool::current().for_each_chunk_mut_weighted(
            out.as_mut_slice(),
            ROW_CHUNK * p,
            unit,
            |_, elem_off, chunk| {
                let b0 = elem_off / (BLOCK * p);
                for (b, orows) in chunk.chunks_mut(BLOCK * p).enumerate() {
                    let spans = plan.spans(b0 + b);
                    if orows.len() == BLOCK * p {
                        let (a01, a23) = orows.split_at_mut(2 * p);
                        let (o0, o1) = a01.split_at_mut(p);
                        let (o2, o3) = a23.split_at_mut(p);
                        for s in spans {
                            span_axpy4(
                                backend,
                                [w(s, 0), w(s, 1), w(s, 2), w(s, 3)],
                                rows(s),
                                [&mut *o0, &mut *o1, &mut *o2, &mut *o3],
                            );
                        }
                    } else {
                        // The last block of a c_out that is not a multiple
                        // of four.
                        for s in spans {
                            for (q, o) in orows.chunks_exact_mut(p).enumerate() {
                                span_axpy(backend, w(s, q), rows(s), o);
                            }
                        }
                    }
                }
            },
        );
        Ok(out)
    }
}

/// `sparse.gemm.*` counters for one engine call.
pub(crate) fn record_telemetry(
    variant: &str,
    backend: KernelBackend,
    n: usize,
    m: usize,
    c_out: usize,
    nnz: usize,
) {
    csp_telemetry::counter_add(names::SPARSE_GEMM_CALLS, variant, 1);
    csp_telemetry::counter_add(names::SPARSE_GEMM_BACKEND, backend.name(), 1);
    let macs = (n as u64) * nnz as u64;
    let dense = (n as u64) * (m as u64) * (c_out as u64);
    csp_telemetry::counter_add(names::SPARSE_GEMM_MACS, variant, macs);
    csp_telemetry::counter_add(
        names::SPARSE_GEMM_SKIPPED,
        variant,
        dense.saturating_sub(macs),
    );
}

impl CspGemm for PreparedWeaved {
    fn dims(&self) -> (usize, usize) {
        (self.m, self.c_out)
    }

    fn gemm_xw(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        PreparedWeaved::gemm_xw(self, x)
    }

    fn gemm_wt(&self, cols: &Tensor) -> Result<Tensor, TensorError> {
        PreparedWeaved::gemm_wt(self, cols)
    }

    fn describe(&self) -> String {
        format!(
            "weaved f32 {}x{} (nnz {}, {:.1}% of dense)",
            self.m,
            self.c_out,
            self.nnz(),
            100.0 * self.nnz() as f32 / (self.m * self.c_out).max(1) as f32
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_pruning::{ChunkedLayout, CspMask};
    use csp_tensor::matmul;

    pub(crate) fn weaved_from_counts(
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
    fn groups_cover_payload_in_row_order() {
        let (wv, _) = weaved_from_counts(6, 8, 2, vec![4, 4, 2, 0, 1, 1], 0);
        let (m, c_out, groups, nnz) = prepare_groups(&wv).unwrap();
        assert_eq!((m, c_out, nnz), (6, 8, wv.payload.len()));
        // Runs: rows 0-1 len 8, row 2 len 4, row 3 dropped (len 0),
        // rows 4-5 len 2.
        assert_eq!(groups.len(), 3);
        assert_eq!((groups[0].p0, groups[0].rows, groups[0].len), (0, 2, 8));
        assert_eq!((groups[1].p0, groups[1].rows, groups[1].len), (2, 1, 4));
        assert_eq!((groups[2].p0, groups[2].rows, groups[2].len), (4, 2, 2));
        assert_eq!(groups[2].off, 2 * 8 + 4);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Both orientations against the dense GEMM on the decompressed
    /// weights: `gemm_xw(x)` ≡ `x · W`, and `gemm_wt(cols)` ≡ `Wᵀ · cols`
    /// (what dense `conv2d` runs) on an im2col-shaped `(M, P)` operand.
    fn assert_both_orientations_match(
        prep: &PreparedWeaved,
        dense: &Tensor,
        x: &Tensor,
        what: &str,
    ) {
        let want = matmul(x, dense).unwrap();
        assert_eq!(
            bits(&prep.gemm_xw(x).unwrap()),
            bits(&want),
            "gemm_xw {what}"
        );
        let cols = x.transpose().unwrap();
        let want = matmul(&dense.transpose().unwrap(), &cols).unwrap();
        assert_eq!(
            bits(&prep.gemm_wt(&cols).unwrap()),
            bits(&want),
            "gemm_wt {what}"
        );
    }

    #[test]
    fn gemm_bit_identical_to_dense_on_decompressed() {
        for backend in KernelBackend::supported_backends() {
            if !backend.bit_identical_to_scalar() {
                continue;
            }
            csp_tensor::with_backend(backend, || {
                // Zero-length prefix rows (count 0) in the first and third
                // layouts; exact-zero activations every fifth element.
                for (m, c_out, cs, counts, n) in [
                    (6, 8, 2, vec![4, 4, 2, 0, 1, 1], 5),
                    (1, 1, 1, vec![1], 1),
                    (5, 7, 3, vec![3, 2, 0, 1, 3], 9),
                    (16, 32, 4, vec![8; 16], 17),
                    (9, 12, 4, vec![3, 0, 2, 2, 1, 0, 3, 3, 1], 64),
                ] {
                    let (wv, dense) = weaved_from_counts(m, c_out, cs, counts, 3);
                    let prep = PreparedWeaved::new(&wv).unwrap();
                    let x = Tensor::from_fn(&[n, m], |i| {
                        if i % 5 == 0 {
                            0.0
                        } else {
                            ((i as f32) * 0.61).cos()
                        }
                    });
                    let what = format!("backend {} shape {m}x{c_out}", backend.name());
                    assert_both_orientations_match(&prep, &dense, &x, &what);
                }
            });
        }
    }

    #[test]
    fn gemm_bit_identical_across_pool_widths() {
        let (wv, dense) =
            weaved_from_counts(12, 20, 4, vec![5, 5, 3, 3, 3, 2, 1, 0, 0, 4, 4, 4], 1);
        let prep = PreparedWeaved::new(&wv).unwrap();
        let x = Tensor::from_fn(&[37, 12], |i| ((i as f32) * 0.13).sin());
        for threads in [1usize, 2, 4, 8] {
            csp_runtime::with_threads(threads, || {
                assert_both_orientations_match(&prep, &dense, &x, &format!("threads {threads}"))
            });
        }
    }

    #[test]
    fn ipos_spans_cover_the_rows_reaching_each_block() {
        // c_out 6 in chunks of 2: blocks are channels 0..4 and 4..6.
        let counts = vec![3, 0, 0, 0, 0, 0, 1, 2, 0, 3, 1, 0];
        let (wv, dense) = weaved_from_counts(12, 6, 2, counts, 0);
        let (m, c_out, groups, _) = prepare_groups(&wv).unwrap();
        let plan = IposPlan::new(&wv.payload, &groups, m, c_out);
        let spans = |b: usize| -> Vec<(usize, usize)> {
            plan.spans(b).iter().map(|s| (s.p0, s.rows)).collect()
        };
        // Block 0: row 0, then rows 6..=10 (the zero-length row 8 is
        // bridged); the five-row gap 1..=5 is longer than MAX_GAP.
        assert_eq!(spans(0), [(0, 1), (6, 5)]);
        // Block 1 (channels 4..6) is reached by rows 0 and 9 only.
        assert_eq!(spans(1), [(0, 1), (9, 1)]);
        // Every span holds the dense column, pruned entries as zeros.
        for b in 0..2 {
            for s in plan.spans(b) {
                for q in 0..BLOCK.min(c_out - BLOCK * b) {
                    let col: Vec<f32> = (s.p0..s.p0 + s.rows)
                        .map(|p| dense.as_slice()[p * c_out + BLOCK * b + q])
                        .collect();
                    assert_eq!(plan.weights(s, q), &col[..], "block {b} channel {q}");
                }
            }
        }
    }

    #[test]
    fn corrupted_layouts_are_typed_errors() {
        let (wv, _) = weaved_from_counts(4, 6, 2, vec![3, 2, 1, 0], 0);
        assert!(PreparedWeaved::new(&wv).is_ok());

        let mut truncated = wv.clone();
        truncated.payload.pop();
        assert!(matches!(
            PreparedWeaved::new(&truncated),
            Err(TensorError::InvalidParameter { .. })
        ));

        let mut tampered = wv.clone();
        tampered.chunk_counts[0] = 99;
        assert!(matches!(
            PreparedWeaved::new(&tampered),
            Err(TensorError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn shape_mismatch_is_typed_error() {
        let (wv, _) = weaved_from_counts(4, 6, 2, vec![3, 2, 1, 0], 0);
        let prep = PreparedWeaved::new(&wv).unwrap();
        let x = Tensor::zeros(&[2, 5]);
        assert!(matches!(
            prep.gemm_xw(&x),
            Err(TensorError::IncompatibleShapes { .. })
        ));
        assert!(matches!(
            prep.gemm_wt(&x),
            Err(TensorError::IncompatibleShapes { .. })
        ));
    }

    #[test]
    fn empty_batch_and_empty_rows() {
        let (wv, dense) = weaved_from_counts(3, 4, 2, vec![0, 0, 0], 0);
        let prep = PreparedWeaved::new(&wv).unwrap();
        assert_eq!(prep.nnz(), 0);
        let y = prep.gemm_xw(&Tensor::zeros(&[0, 3])).unwrap();
        assert_eq!(y.dims(), &[0, 4]);
        let y = prep.gemm_xw(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(y, matmul(&Tensor::ones(&[2, 3]), &dense).unwrap());
        let y = prep.gemm_wt(&Tensor::zeros(&[3, 0])).unwrap();
        assert_eq!(y.dims(), &[4, 0]);
        let y = prep.gemm_wt(&Tensor::ones(&[3, 2])).unwrap();
        assert_eq!(y, Tensor::zeros(&[4, 2]));
    }

    /// An executor that implements only the required methods, so a layer
    /// reaches it through the provided `gemm_wt` body.
    struct XwOnly(PreparedWeaved);

    impl CspGemm for XwOnly {
        fn dims(&self) -> (usize, usize) {
            self.0.shape()
        }

        fn gemm_xw(&self, x: &Tensor) -> Result<Tensor, TensorError> {
            self.0.gemm_xw(x)
        }

        fn describe(&self) -> String {
            "x·W only".into()
        }
    }

    /// The provided `gemm_wt` (transpose, `gemm_xw`, transpose) and the
    /// IpOS override give a `Conv2d` the same bits, and both equal the
    /// dense `conv2d` on the pruned weights.
    #[test]
    fn conv_through_provided_gemm_wt_matches_override() {
        use csp_nn::{seeded_rng, Conv2d, Layer, Prunable, SharedGemm};
        use std::sync::Arc;

        let mut rng = seeded_rng(5);
        let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1);
        let (m, c_out) = conv.csp_dims();
        let layout = ChunkedLayout::new(m, c_out, 4).unwrap();
        let counts = (0..m).map(|r| (r * 7) % 3).collect();
        let mask = CspMask::from_chunk_counts(layout, counts).unwrap();
        let weaved = Weaved::compress(&conv.csp_weight(), &mask).unwrap();
        conv.set_csp_weight(&weaved.decompress()).unwrap();
        let x = Tensor::from_fn(&[3, 3, 6, 6], |i| {
            if i % 7 == 0 {
                0.0
            } else {
                ((i as f32) * 0.29).sin()
            }
        });
        let dense = conv.forward(&x, false).unwrap();
        let mut forward_with = |exec: SharedGemm| {
            conv.set_csp_executor(Some(exec)).unwrap();
            bits(&conv.forward(&x, false).unwrap())
        };
        let prep = PreparedWeaved::new(&weaved).unwrap();
        let provided = forward_with(Arc::new(XwOnly(prep.clone())));
        let overridden = forward_with(Arc::new(prep));
        assert_eq!(provided, overridden);
        assert_eq!(overridden, bits(&dense));
    }
}
