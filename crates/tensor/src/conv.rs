//! 2-D convolution (im2col formulation) with explicit accumulation order.
//!
//! Convolutions are where cuDNN's determinism trade-offs live, so they get
//! first-class treatment here: the forward inner products, and crucially the
//! *weight-gradient reduction across the whole batch* (the reduction the
//! paper singles out as an overlooked source of implementation noise), all
//! flow through the [`Reducer`].
//!
//! Both passes run on the blocked GEMM engine ([`crate::gemm`]) and are
//! bit-identical to the original per-element loops: the engine only
//! reorders *which outputs* are computed when, never the k-dimension
//! combine order inside one output. Each output's scheduler draws are
//! located by its position in the reference call order
//! ([`Reducer::plan_dots`]), so the forward pass batches all samples into
//! one GEMM under every order, Permuted included.
//!
//! The backward pass lowers the input once, as the transposed patch
//! matrix `colᵀ` (im2row), and transposes `dy` once. The weight gradient
//! is one batch-wide GEMM computing `dWᵀ = colᵀ × dyᵀ`, whose plan maps
//! each transposed output back to the reference's `(out channel, patch
//! position)` call order; the input gradient reuses `dyᵀ`.
//! [`conv2d_weight_grads_ws`] is the weight-gradient half on its own, for
//! a network's first layer, whose input gradient nothing reads.
//!
//! The `_ws` variants reuse caller-provided [`Workspace`] scratch
//! (lowerings, packed panels, transposes) across calls; the plain
//! variants allocate privately.

use crate::error::ShapeError;
use crate::gemm::gemm_packed_planned;
use crate::pack::{pack_b_panels, transpose_into, NR};
use crate::reduce::{DotPlan, Reducer};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// Geometry of a 2-D convolution.
///
/// # Example
///
/// ```
/// use nstensor::ConvGeometry;
/// let g = ConvGeometry::new(3, 16, 3, 1, 1, 8, 8);
/// assert_eq!(g.out_h(), 8);
/// assert_eq!(g.patch_len(), 27);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Square filter size.
    pub k: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub pad: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
}

impl ConvGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (except `pad`) or the filter does not
    /// fit the padded input.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
    ) -> Self {
        assert!(in_c > 0 && out_c > 0 && k > 0 && stride > 0 && in_h > 0 && in_w > 0);
        assert!(
            in_h + 2 * pad >= k && in_w + 2 * pad >= k,
            "filter {k} larger than padded input {}x{}",
            in_h + 2 * pad,
            in_w + 2 * pad
        );
        Self {
            in_c,
            out_c,
            k,
            stride,
            pad,
            in_h,
            in_w,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Receptive-field (patch) length: `in_c * k * k`.
    pub fn patch_len(&self) -> usize {
        self.in_c * self.k * self.k
    }

    /// Number of output pixels per channel.
    pub fn out_pixels(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Multiply-accumulate count for one forward pass over a batch of `n`.
    pub fn flops(&self, n: usize) -> u64 {
        2 * (n * self.out_c * self.out_pixels() * self.patch_len()) as u64
    }
}

/// Gradients produced by [`conv2d_backward_ws`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, C, H, W]`.
    pub dx: Tensor,
    /// Gradient w.r.t. the weights, `[out_c, patch_len]`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias, `[out_c]`.
    pub db: Tensor,
}

/// Lowers one sample into patch-major (`[out_pixels, patch_len]`) layout:
/// the reference lowering the test oracles build on.
#[cfg(test)]
fn im2col(x: &[f32], g: &ConvGeometry, out: &mut [f32]) {
    let (oh, ow, pl) = (g.out_h(), g.out_w(), g.patch_len());
    debug_assert_eq!(out.len(), oh * ow * pl);
    let kk = g.k * g.k;
    for oy in 0..oh {
        for c in 0..g.in_c {
            let chan = &x[c * g.in_h * g.in_w..(c + 1) * g.in_h * g.in_w];
            for ky in 0..g.k {
                let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                if iy < 0 || iy as usize >= g.in_h {
                    for ox in 0..ow {
                        let dst = (oy * ow + ox) * pl + c * kk + ky * g.k;
                        out[dst..dst + g.k].fill(0.0);
                    }
                    continue;
                }
                let src_row = &chan[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
                for ox in 0..ow {
                    let dst = &mut out[(oy * ow + ox) * pl + c * kk + ky * g.k..][..g.k];
                    let ix0 = (ox * g.stride) as isize - g.pad as isize;
                    if ix0 >= 0 && ix0 as usize + g.k <= g.in_w {
                        // Interior patch row: one contiguous copy.
                        dst.copy_from_slice(&src_row[ix0 as usize..ix0 as usize + g.k]);
                    } else {
                        for (kx, d) in dst.iter_mut().enumerate() {
                            let ix = ix0 + kx as isize;
                            *d = if ix >= 0 && (ix as usize) < g.in_w {
                                src_row[ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Lowers a batch of samples *directly into the GEMM engine's packed
/// panel layout* (see [`crate::pack::pack_b_panels`]): element
/// `[p * pl * NR + kk * NR + j]` is patch position `kk` of global output
/// pixel `p * NR + j`, where global pixels run `(sample, oy, ox)`
/// row-major across the batch. Panel columns past the last pixel are
/// zeroed. Fusing the lowering with packing skips the intermediate
/// `[pixels, patch_len]` buffer and turns the inner loop into contiguous
/// row copies (one per run of output pixels sharing an image row).
///
/// Packing only copies values, so this cannot perturb any accumulation
/// order.
pub(crate) fn im2col_packed(x: &[f32], g: &ConvGeometry, batch: usize, packed: &mut [f32]) {
    let (oh, ow, pl) = (g.out_h(), g.out_w(), g.patch_len());
    let pixels = oh * ow;
    let np = batch * pixels;
    let panels = np.div_ceil(NR);
    let kk2 = g.k * g.k;
    let ihw = g.in_h * g.in_w;
    let sample = g.in_c * ihw;
    debug_assert_eq!(x.len(), batch * sample);
    assert_eq!(packed.len(), panels * pl * NR, "packed buffer size");
    for p in 0..panels {
        let dst_panel = &mut packed[p * pl * NR..(p + 1) * pl * NR];
        let g0 = p * NR;
        let cols = NR.min(np - g0);
        // Zero the pad columns of the last panel (buffers may be dirty).
        if cols < NR {
            for kkp in 0..pl {
                dst_panel[kkp * NR + cols..(kkp + 1) * NR].fill(0.0);
            }
        }
        // Walk runs of pixels sharing one output row: one div/mod per run
        // instead of per element, and contiguous source rows inside.
        let mut j0 = 0;
        while j0 < cols {
            let gidx = g0 + j0;
            let s = gidx / pixels;
            let local = gidx - s * pixels;
            let oy = local / ow;
            let ox0 = local - oy * ow;
            let run = (ow - ox0).min(cols - j0);
            let xs = &x[s * sample..(s + 1) * sample];
            for c in 0..g.in_c {
                let chan = &xs[c * ihw..(c + 1) * ihw];
                for ky in 0..g.k {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    let kbase = c * kk2 + ky * g.k;
                    if iy < 0 || iy as usize >= g.in_h {
                        for kx in 0..g.k {
                            dst_panel[(kbase + kx) * NR + j0..(kbase + kx) * NR + j0 + run]
                                .fill(0.0);
                        }
                        continue;
                    }
                    let row = &chan[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
                    for kx in 0..g.k {
                        let dst =
                            &mut dst_panel[(kbase + kx) * NR + j0..(kbase + kx) * NR + j0 + run];
                        if g.stride == 1 {
                            // dst[dj] reads input column ix0 + dj; clip the
                            // padding edges, copy the interior in one go.
                            let ix0 = (ox0 + kx) as isize - g.pad as isize;
                            let lo = ((-ix0).max(0) as usize).min(run);
                            let hi = ((g.in_w as isize - ix0).max(0) as usize).min(run);
                            dst[..lo].fill(0.0);
                            if hi > lo {
                                dst[lo..hi].copy_from_slice(
                                    &row[(ix0 + lo as isize) as usize
                                        ..(ix0 + hi as isize) as usize],
                                );
                            }
                            let tail = hi.max(lo);
                            dst[tail..].fill(0.0);
                        } else {
                            for (dj, d) in dst.iter_mut().enumerate() {
                                let ix = ((ox0 + dj) * g.stride + kx) as isize - g.pad as isize;
                                *d = if ix >= 0 && (ix as usize) < g.in_w {
                                    row[ix as usize]
                                } else {
                                    0.0
                                };
                            }
                        }
                    }
                }
            }
            j0 += run;
        }
    }
}

/// Lowers a batch into the transposed patch matrix `colᵀ`
/// (`[patch_len, n·pixels]`, the A operand of the weight-gradient GEMM):
/// row `q = (c, ky, kx)` holds patch position `q` of every output pixel,
/// pixels running `(sample, oy, ox)` row-major across the batch. Along
/// one output row the values come from one input row shifted by
/// `kx − pad` (every `stride`-th element), so with stride 1 each stretch
/// is one contiguous copy between zero-filled edges.
fn im2row(x: &[f32], g: &ConvGeometry, batch: usize, out: &mut [f32]) {
    let (ow, pixels) = (g.out_w(), g.out_pixels());
    let np = batch * pixels;
    let ihw = g.in_h * g.in_w;
    let sample = g.in_c * ihw;
    debug_assert_eq!(x.len(), batch * sample);
    assert_eq!(out.len(), g.patch_len() * np, "im2row buffer size");
    if np == 0 {
        return;
    }
    for (q, row) in out.chunks_exact_mut(np).enumerate() {
        let (c, ky, kx) = (q / (g.k * g.k), q / g.k % g.k, q % g.k);
        // Input column read by output column 0.
        let ix0 = kx as isize - g.pad as isize;
        for (s, dst_s) in row.chunks_exact_mut(pixels).enumerate() {
            let chan = &x[s * sample + c * ihw..s * sample + (c + 1) * ihw];
            for (oy, dst) in dst_s.chunks_exact_mut(ow).enumerate() {
                let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                if iy < 0 || iy as usize >= g.in_h {
                    dst.fill(0.0);
                    continue;
                }
                let src = &chan[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
                if g.stride == 1 {
                    let lo = ((-ix0).max(0) as usize).min(ow);
                    let hi = ((g.in_w as isize - ix0).max(0) as usize).min(ow).max(lo);
                    dst[..lo].fill(0.0);
                    dst[lo..hi].copy_from_slice(
                        &src[(ix0 + lo as isize) as usize..(ix0 + hi as isize) as usize],
                    );
                    dst[hi..].fill(0.0);
                } else {
                    for (ox, d) in dst.iter_mut().enumerate() {
                        let ix = (ox * g.stride) as isize + ix0;
                        *d = if ix >= 0 && (ix as usize) < g.in_w {
                            src[ix as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// Scatters patch-major gradients back into an input-shaped buffer.
fn col2im(dcol: &[f32], g: &ConvGeometry, out: &mut [f32]) {
    let (oh, ow, pl) = (g.out_h(), g.out_w(), g.patch_len());
    let kk = g.k * g.k;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = (oy * ow + ox) * pl;
            for c in 0..g.in_c {
                for ky in 0..g.k {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for kx in 0..g.k {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        if iy >= 0 && ix >= 0 && (iy as usize) < g.in_h && (ix as usize) < g.in_w {
                            out[c * g.in_h * g.in_w + iy as usize * g.in_w + ix as usize] +=
                                dcol[row + c * kk + ky * g.k + kx];
                        }
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution on the blocked engine, reusing `ws` scratch
/// and running output row bands on up to `threads` threads.
///
/// `input` is `[N, in_c, in_h, in_w]`, `weights` is `[out_c, patch_len]`
/// (flattened `[out_c, in_c, k, k]`), `bias` is `[out_c]`. Returns
/// `[N, out_c, out_h, out_w]`.
///
/// Bit-identical, for every reducer configuration and thread count, to
/// the per-element definition: per sample, im2col, then one
/// [`Reducer::dot`] per output plus the bias, in `(sample, out channel,
/// pixel)` order. The whole batch is one GEMM; the plan locates each
/// output's scheduler draws by that order, so the reducer ends in exactly
/// the state the per-element loop leaves.
///
/// # Errors
///
/// Returns [`ShapeError`] if any operand disagrees with `geom`.
pub fn conv2d_forward_ws(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    geom: &ConvGeometry,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    validate(input, weights, bias, geom)?;
    let n = input.shape().dim(0);
    let (oh, ow, oc, pl) = (geom.out_h(), geom.out_w(), geom.out_c, geom.patch_len());
    let pixels = oh * ow;
    let mut out = Tensor::zeros(Shape::of(&[n, oc, oh, ow]));
    let xin = input.as_slice();
    let wv = weights.as_slice();
    let bv = bias.as_slice();
    let ov = out.as_mut_slice();
    // One batch-wide GEMM over n·pixels output columns. Each output's
    // chain is that of the per-sample `[out_c, pixels]` GEMM the reference
    // runs; only the order in which outputs are computed changes. Under
    // Permuted the reference draws sample `s`'s specs before sample
    // `s + 1`'s, so output `(o, s·pixels + p)` combines under spec
    // `s·oc·pixels + o·pixels + p`: column groups of `pixels`.
    let np = n * pixels;
    let mut packed = ws.take_scratch(np.div_ceil(NR) * pl * NR);
    im2col_packed(xin, geom, n, &mut packed);
    let plan = red.plan_dots(oc * np, pl).with_column_groups(pixels);
    let mut out_r = ws.take_scratch(oc * np);
    gemm_packed_planned(wv, &packed, oc, np, pl, &plan, threads, &mut out_r);
    // Scatter [oc, n·pixels] back to [n, oc, pixels], adding the bias
    // after the dot exactly as the reference computes.
    for s in 0..n {
        for o in 0..oc {
            let b = bv[o];
            let src = &out_r[o * np + s * pixels..o * np + (s + 1) * pixels];
            let dst = &mut ov[(s * oc + o) * pixels..(s * oc + o + 1) * pixels];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v + b;
            }
        }
    }
    ws.recycle(out_r);
    ws.recycle(packed);
    Ok(out)
}

/// Backward 2-D convolution on the blocked engine: gradients w.r.t.
/// input, weights and bias. See [`conv2d_forward_ws`] for the
/// engine/workspace contract.
///
/// The weight gradient is computed as a *single* matmul whose inner
/// dimension spans every (sample, pixel) pair in the batch — the exact
/// cross-data-point reduction whose accumulation order the paper identifies
/// as a latent implementation-noise source.
///
/// The weight and bias gradients are [`conv2d_weight_grads_ws`], which
/// fixes the reducer call order: the dW GEMM's `out_c × patch_len`
/// planned dots over the all-batch inner dimension, then `out_c`
/// bias-gradient sums. The input gradient never touches the reducer (the
/// reference combines channels with a fixed `channel % lanes` assignment,
/// left to right), so it runs afterwards under a stateless
/// [`DotPlan::fixed_lanes`] plan, reusing the weight gradient's `dyᵀ`.
///
/// # Errors
///
/// Returns [`ShapeError`] if any operand disagrees with `geom`.
pub fn conv2d_backward_ws(
    input: &Tensor,
    weights: &Tensor,
    dy: &Tensor,
    geom: &ConvGeometry,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Conv2dGrads, ShapeError> {
    let bias = Tensor::zeros(Shape::of(&[geom.out_c]));
    validate(input, weights, &bias, geom)?;
    let (dw, db, dyt) = weight_grads(input, dy, geom, red, threads, ws)?;
    let dx = input_grad(&dyt, weights, geom, input.shape(), red.lanes(), threads, ws);
    ws.recycle(dyt);
    Ok(Conv2dGrads { dx, dw, db })
}

/// The weight-gradient half of [`conv2d_backward_ws`]: returns `(dw, db)`
/// with bits and reducer state identical to the full backward, without
/// computing the input gradient. A network's first layer needs nothing
/// more, since nothing reads the gradient w.r.t. the network's input.
///
/// # Errors
///
/// Returns [`ShapeError`] if `input` or `dy` disagrees with `geom`.
pub fn conv2d_weight_grads_ws(
    input: &Tensor,
    dy: &Tensor,
    geom: &ConvGeometry,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<(Tensor, Tensor), ShapeError> {
    let (dw, db, dyt) = weight_grads(input, dy, geom, red, threads, ws)?;
    ws.recycle(dyt);
    Ok((dw, db))
}

/// Computes `(dw, db, dyᵀ)`, where `dyᵀ` is the row-major
/// `[n·pixels, out_c]` transpose of `dy` that the input gradient reuses as
/// its A operand.
///
/// dW runs as its transpose, `dWᵀ[q, o] = Σ_{s,p} colᵀ[q, (s, p)] ·
/// dyᵀ[(s, p), o]`: `x` is lowered once, by [`im2row`], straight into
/// the A operand, and `dyᵀ` is the B operand. With `out_c == NR` (one full
/// panel) the row-major `dyᵀ` already is the packed panel layout, so the
/// GEMM reads it in place; other widths pack it first. The reference
/// computes `dW[o, q]` in row-major `(o, q)` order, so output `(q, o)` of
/// the transposed GEMM must combine under spec `o·pl + q`: column groups
/// of width 1.
fn weight_grads(
    input: &Tensor,
    dy: &Tensor,
    geom: &ConvGeometry,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<(Tensor, Tensor, Vec<f32>), ShapeError> {
    validate_input(input, geom)?;
    let n = input.shape().dim(0);
    let (oh, ow, oc, pl) = (geom.out_h(), geom.out_w(), geom.out_c, geom.patch_len());
    if dy.shape() != Shape::of(&[n, oc, oh, ow]) {
        return Err(ShapeError::new(
            "conv2d_backward",
            format!("dy shape {} != [{n}, {oc}, {oh}, {ow}]", dy.shape()),
        ));
    }
    let pixels = oh * ow;
    let np = n * pixels;
    let dyv = dy.as_slice();

    let mut colt = ws.take_scratch(pl * np);
    im2row(input.as_slice(), geom, n, &mut colt);
    // dy [n, oc, pixels] → dyᵀ [n·pixels, oc].
    let mut dyt = ws.take_scratch(np * oc);
    for s in 0..n {
        for o in 0..oc {
            let src = &dyv[(s * oc + o) * pixels..(s * oc + o + 1) * pixels];
            for (p, &v) in src.iter().enumerate() {
                dyt[(s * pixels + p) * oc + o] = v;
            }
        }
    }
    let plan = red.plan_dots(oc * pl, np).with_column_groups(1);
    // O(pl·oc) buffers are plain allocations: the workspace hands out its
    // largest buffer first, so small takes would strand the big ones.
    let mut dwt = vec![0f32; pl * oc];
    if oc == NR {
        gemm_packed_planned(&colt, &dyt, pl, oc, np, &plan, threads, &mut dwt);
    } else {
        let mut dyt_packed = ws.take_scratch(oc.div_ceil(NR) * np * NR);
        pack_b_panels(&dyt, np, oc, &mut dyt_packed);
        gemm_packed_planned(&colt, &dyt_packed, pl, oc, np, &plan, threads, &mut dwt);
        ws.recycle(dyt_packed);
    }
    ws.recycle(colt);
    let mut dw = Tensor::zeros(Shape::of(&[oc, pl]));
    transpose_into(&dwt, pl, oc, dw.as_mut_slice());

    // db[o] = Σ_{s,p} dy[s,o,p] (cross-batch reduction), channel by channel.
    let mut db = Tensor::zeros(Shape::of(&[oc]));
    let mut chan = Vec::with_capacity(np);
    for (o, d) in db.as_mut_slice().iter_mut().enumerate() {
        chan.clear();
        for s in 0..n {
            chan.extend_from_slice(&dyv[(s * oc + o) * pixels..(s * oc + o + 1) * pixels]);
        }
        *d = red.sum(&chan);
    }
    Ok((dw, db, dyt))
}

/// dX: `dcol = dyᵀ [n·pixels, oc] × W [oc, patch_len]` in one GEMM, then
/// `col2im` per sample. The reference combines channels with a fixed
/// `o % lanes` assignment and a left-to-right lane sum, never consulting
/// the reducer's RNG; a stateless fixed-lane plan reproduces that
/// bit-for-bit, so all samples fuse into one GEMM and `W` packs
/// transpose-free.
fn input_grad(
    dyt: &[f32],
    weights: &Tensor,
    geom: &ConvGeometry,
    input_shape: Shape,
    lanes: usize,
    threads: usize,
    ws: &mut Workspace,
) -> Tensor {
    let n = input_shape.dim(0);
    let (oc, pl, pixels) = (geom.out_c, geom.patch_len(), geom.out_pixels());
    let np = n * pixels;
    let sample = geom.in_c * geom.in_h * geom.in_w;
    let dx_plan = DotPlan::fixed_lanes(lanes.min(oc.max(1)));
    let mut w_packed = vec![0f32; pl.div_ceil(NR) * oc * NR];
    pack_b_panels(weights.as_slice(), oc, pl, &mut w_packed);
    let mut dcol = ws.take_scratch(np * pl);
    gemm_packed_planned(dyt, &w_packed, np, pl, oc, &dx_plan, threads, &mut dcol);
    let mut dx = Tensor::zeros(input_shape);
    for (s, dxs) in dx.as_mut_slice().chunks_exact_mut(sample).enumerate() {
        col2im(&dcol[s * pixels * pl..(s + 1) * pixels * pl], geom, dxs);
    }
    ws.recycle(dcol);
    dx
}

fn validate(
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
) -> Result<(), ShapeError> {
    validate_input(input, g)?;
    if weights.shape() != Shape::of(&[g.out_c, g.patch_len()]) {
        return Err(ShapeError::new(
            "conv2d",
            format!(
                "weights {} != [{}, {}]",
                weights.shape(),
                g.out_c,
                g.patch_len()
            ),
        ));
    }
    if bias.shape() != Shape::of(&[g.out_c]) {
        return Err(ShapeError::new(
            "conv2d",
            format!("bias {} != [{}]", bias.shape(), g.out_c),
        ));
    }
    Ok(())
}

fn validate_input(input: &Tensor, g: &ConvGeometry) -> Result<(), ShapeError> {
    if input.shape().rank() != 4
        || input.shape().dim(1) != g.in_c
        || input.shape().dim(2) != g.in_h
        || input.shape().dim(3) != g.in_w
    {
        return Err(ShapeError::new(
            "conv2d",
            format!(
                "input {} incompatible with geometry (C={}, H={}, W={})",
                input.shape(),
                g.in_c,
                g.in_h,
                g.in_w
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReduceOrder;
    use proptest::prelude::*;

    /// Per-element oracle for [`conv2d_forward_ws`]: each sample is
    /// lowered with `im2col`, then every output is one [`Reducer::dot`] of
    /// a weight row with a patch, plus the bias, in `(sample, out channel,
    /// pixel)` order — the call order whose scheduler draws the batched
    /// engine must reproduce.
    fn oracle_forward(
        x: &Tensor,
        w: &Tensor,
        b: &Tensor,
        g: &ConvGeometry,
        red: &mut Reducer,
    ) -> Vec<f32> {
        let n = x.shape().dim(0);
        let (pl, pixels) = (g.patch_len(), g.out_pixels());
        let sample = g.in_c * g.in_h * g.in_w;
        let (xv, wv, bv) = (x.as_slice(), w.as_slice(), b.as_slice());
        let mut col = vec![0f32; pixels * pl];
        let mut out = Vec::with_capacity(n * g.out_c * pixels);
        for s in 0..n {
            im2col(&xv[s * sample..(s + 1) * sample], g, &mut col);
            for o in 0..g.out_c {
                let wrow = &wv[o * pl..(o + 1) * pl];
                for p in 0..pixels {
                    out.push(red.dot(wrow, &col[p * pl..(p + 1) * pl]) + bv[o]);
                }
            }
        }
        out
    }

    /// Per-element oracle for [`conv2d_backward_ws`], in the reference's
    /// reducer call order: first `dW[o, q]` as one [`Reducer::dot`] of
    /// channel `o`'s gradient with patch position `q`, both over the
    /// batch-flattened `(sample, pixel)` sequence, in `(o, q)` order; then
    /// the `out_c` bias sums in channel order; then, per sample, the input
    /// gradient through the fixed-lane dot (`channel % lanes`, lanes
    /// combined left to right, no scheduler draws) and `col2im`. Returns
    /// `(dx, dw, db)`.
    fn oracle_backward(
        x: &Tensor,
        w: &Tensor,
        dy: &Tensor,
        g: &ConvGeometry,
        red: &mut Reducer,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = x.shape().dim(0);
        let (oc, pl, pixels) = (g.out_c, g.patch_len(), g.out_pixels());
        let sample = g.in_c * g.in_h * g.in_w;
        let (xv, wv, dyv) = (x.as_slice(), w.as_slice(), dy.as_slice());
        // cols[(s·pixels + p)·pl + q]: patch position q of batch pixel (s, p).
        let mut cols = vec![0f32; n * pixels * pl];
        for s in 0..n {
            im2col(
                &xv[s * sample..(s + 1) * sample],
                g,
                &mut cols[s * pixels * pl..(s + 1) * pixels * pl],
            );
        }
        let channel = |o: usize| -> Vec<f32> {
            (0..n)
                .flat_map(|s| dyv[(s * oc + o) * pixels..(s * oc + o + 1) * pixels].to_vec())
                .collect()
        };
        let mut dw = Vec::with_capacity(oc * pl);
        for o in 0..oc {
            let gy = channel(o);
            for q in 0..pl {
                let patch: Vec<f32> = (0..n * pixels).map(|sp| cols[sp * pl + q]).collect();
                dw.push(red.dot(&gy, &patch));
            }
        }
        let db: Vec<f32> = (0..oc).map(|o| red.sum(&channel(o))).collect();
        let mut fixed = Reducer::new(ReduceOrder::FixedTree, red.lanes().min(oc), 0);
        let mut dx = vec![0f32; n * sample];
        let mut dcol = vec![0f32; pixels * pl];
        for s in 0..n {
            for p in 0..pixels {
                let gy: Vec<f32> = (0..oc).map(|o| dyv[(s * oc + o) * pixels + p]).collect();
                for q in 0..pl {
                    let wcol: Vec<f32> = (0..oc).map(|o| wv[o * pl + q]).collect();
                    dcol[p * pl + q] = fixed.dot(&gy, &wcol);
                }
            }
            col2im(&dcol, g, &mut dx[s * sample..(s + 1) * sample]);
        }
        (dx, dw, db)
    }

    /// Runs [`conv2d_backward_ws`] on a seeded batch of `n` under every
    /// order × lanes {1, 3, 16, 27, 64} × amp {0, 512} × threads {1, 3}
    /// and checks it against [`oracle_backward`]: every output bit, the
    /// reducer snapshot, and the reducer's next draw.
    fn check_backward_against_oracle(
        g: &ConvGeometry,
        n: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let x = Tensor::from_vec(
            Shape::of(&[n, g.in_c, g.in_h, g.in_w]),
            noise(n * g.in_c * g.in_h * g.in_w, seed),
        )
        .unwrap();
        let w = Tensor::from_vec(
            Shape::of(&[g.out_c, g.patch_len()]),
            noise(g.out_c * g.patch_len(), seed ^ 0xA5A5),
        )
        .unwrap();
        let dy = Tensor::from_vec(
            Shape::of(&[n, g.out_c, g.out_h(), g.out_w()]),
            noise(n * g.out_c * g.out_pixels(), seed ^ 0x5A5A),
        )
        .unwrap();
        let probe = noise(g.patch_len(), seed ^ 0xFFFF);
        let mut ws = Workspace::new();
        for order in [
            ReduceOrder::Sequential,
            ReduceOrder::FixedTree,
            ReduceOrder::Permuted,
        ] {
            for lanes in [1, 3, 16, 27, 64] {
                for amp in [0.0, 512.0] {
                    let base =
                        Reducer::new(order, lanes, seed.rotate_left(17)).with_amplification(amp);
                    let mut ref_red = base.clone();
                    let (dx, dw, db) = oracle_backward(&x, &w, &dy, g, &mut ref_red);
                    for threads in [1, 3] {
                        let what =
                            format!("{order:?} lanes={lanes} amp={amp} t={threads} n={n} {g:?}");
                        let mut red = base.clone();
                        let got =
                            conv2d_backward_ws(&x, &w, &dy, g, &mut red, threads, &mut ws).unwrap();
                        for (name, fast, expected) in [
                            ("dx", got.dx.as_slice(), &dx),
                            ("dw", got.dw.as_slice(), &dw),
                            ("db", got.db.as_slice(), &db),
                        ] {
                            prop_assert!(fast.len() == expected.len(), "{what}: {name} length");
                            for (idx, (a, e)) in fast.iter().zip(expected).enumerate() {
                                prop_assert!(
                                    a.to_bits() == e.to_bits(),
                                    "{what}: {name}[{idx}]: {a} vs {e}"
                                );
                            }
                        }
                        prop_assert!(
                            red.snapshot() == ref_red.snapshot(),
                            "{what}: reducer state"
                        );
                        let next = red.dot(&probe, &probe).to_bits();
                        let ref_next = ref_red.clone().dot(&probe, &probe).to_bits();
                        prop_assert!(next == ref_next, "{what}: next draw");
                    }
                }
            }
        }
        Ok(())
    }

    /// Batches whose `n·pixels` weight-gradient chains run past the
    /// engine's k-block for every tested lane count (the block is
    /// `lanes·⌈256/lanes⌉ ≤ 270` rows), stride 1 and stride 2 with
    /// padding, and channel counts below, at and above one panel.
    #[test]
    fn backward_matches_per_element_oracle_on_long_batches() {
        for (g, n) in [
            (ConvGeometry::new(3, 5, 3, 1, 1, 12, 12), 3),
            (ConvGeometry::new(2, 4, 3, 2, 1, 16, 16), 5),
            (ConvGeometry::new(1, 17, 2, 1, 0, 9, 9), 5),
            // out_c == NR: the weight gradient reads dyᵀ unpacked.
            (ConvGeometry::new(2, NR, 3, 1, 1, 8, 8), 5),
        ] {
            assert!(n * g.out_pixels() > 270, "{g:?} is not past the k-block");
            check_backward_against_oracle(&g, n, 0x5EED ^ n as u64).unwrap();
        }
    }

    /// Deterministic fill in `[-0.5, 0.5)` with some exact zeros of both
    /// signs mixed in.
    fn noise(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed | 1;
        (0..len)
            .map(|i| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match i % 11 {
                    3 => 0.0,
                    7 => -0.0,
                    _ => ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The batched engine is bit-identical to the per-element oracle
        /// for every order, lane count, amplification and thread count,
        /// and leaves the reducer exactly where the oracle leaves it.
        #[test]
        fn forward_matches_per_element_oracle(
            (in_c, out_c, k) in (1usize..4, 1usize..6, 1usize..4),
            (stride, pad, n) in (1usize..3, 0usize..3, 1usize..4),
            (in_h, in_w) in (2usize..9, 2usize..9),
            seed in any::<u64>(),
        ) {
            prop_assume!(in_h + 2 * pad >= k && in_w + 2 * pad >= k);
            let g = ConvGeometry::new(in_c, out_c, k, stride, pad, in_h, in_w);
            let x = Tensor::from_vec(
                Shape::of(&[n, in_c, in_h, in_w]),
                noise(n * in_c * in_h * in_w, seed),
            )
            .unwrap();
            let w = Tensor::from_vec(
                Shape::of(&[out_c, g.patch_len()]),
                noise(out_c * g.patch_len(), seed ^ 0xA5A5),
            )
            .unwrap();
            let b = Tensor::from_vec(Shape::of(&[out_c]), noise(out_c, seed ^ 0x5A5A)).unwrap();
            let probe = noise(g.patch_len(), seed ^ 0xFFFF);
            let mut ws = Workspace::new();
            for order in [ReduceOrder::Sequential, ReduceOrder::FixedTree, ReduceOrder::Permuted] {
                for lanes in [1, 3, 27, 64] {
                    for amp in [0.0, 512.0] {
                        let base = Reducer::new(order, lanes, seed.rotate_left(17))
                            .with_amplification(amp);
                        let mut ref_red = base.clone();
                        let expected = oracle_forward(&x, &w, &b, &g, &mut ref_red);
                        for threads in [1, 3] {
                            let what = format!("{order:?} lanes={lanes} amp={amp} t={threads} {g:?}");
                            let mut red = base.clone();
                            let y = conv2d_forward_ws(&x, &w, &b, &g, &mut red, threads, &mut ws)
                                .unwrap();
                            prop_assert!(y.as_slice().len() == expected.len(), "{what}: length");
                            for (idx, (a, e)) in y.as_slice().iter().zip(&expected).enumerate() {
                                prop_assert!(a.to_bits() == e.to_bits(), "{what}: element {idx}: {a} vs {e}");
                            }
                            prop_assert!(red.snapshot() == ref_red.snapshot(), "{what}: reducer state");
                            let next = red.dot(&probe, &probe).to_bits();
                            let ref_next = ref_red.clone().dot(&probe, &probe).to_bits();
                            prop_assert!(next == ref_next, "{what}: next draw");
                        }
                    }
                }
            }
        }

        /// The backward pass is bit-identical to the per-element oracle —
        /// dW, db and dx — for every order, lane count, amplification and
        /// thread count, and leaves the reducer where the oracle leaves it.
        #[test]
        fn backward_matches_per_element_oracle(
            (in_c, out_c, k) in (1usize..4, 1usize..6, 1usize..4),
            (stride, pad, n) in (1usize..3, 0usize..3, 1usize..4),
            (in_h, in_w) in (2usize..9, 2usize..9),
            seed in any::<u64>(),
        ) {
            prop_assume!(in_h + 2 * pad >= k && in_w + 2 * pad >= k);
            let g = ConvGeometry::new(in_c, out_c, k, stride, pad, in_h, in_w);
            check_backward_against_oracle(&g, n, seed)?;
        }
    }

    /// Direct (quadruple-loop) reference convolution in f64.
    fn reference_conv(x: &Tensor, w: &Tensor, b: &Tensor, g: &ConvGeometry) -> Vec<f64> {
        let n = x.shape().dim(0);
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = vec![0f64; n * g.out_c * oh * ow];
        for s in 0..n {
            for o in 0..g.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b.as_slice()[o] as f64;
                        for c in 0..g.in_c {
                            for ky in 0..g.k {
                                for kx in 0..g.k {
                                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                                    if iy >= 0
                                        && ix >= 0
                                        && (iy as usize) < g.in_h
                                        && (ix as usize) < g.in_w
                                    {
                                        let xv = x.get4(s, c, iy as usize, ix as usize) as f64;
                                        let wv = w.as_slice()
                                            [o * g.patch_len() + c * g.k * g.k + ky * g.k + kx]
                                            as f64;
                                        acc += xv * wv;
                                    }
                                }
                            }
                        }
                        out[((s * g.out_c + o) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    fn setup(g: &ConvGeometry, n: usize) -> (Tensor, Tensor, Tensor) {
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let x = Tensor::from_vec(
            Shape::of(&[n, g.in_c, g.in_h, g.in_w]),
            (0..n * g.in_c * g.in_h * g.in_w).map(|_| next()).collect(),
        )
        .unwrap();
        let w = Tensor::from_vec(
            Shape::of(&[g.out_c, g.patch_len()]),
            (0..g.out_c * g.patch_len()).map(|_| next()).collect(),
        )
        .unwrap();
        let b = Tensor::from_vec(
            Shape::of(&[g.out_c]),
            (0..g.out_c).map(|_| next()).collect(),
        )
        .unwrap();
        (x, w, b)
    }

    #[test]
    fn forward_matches_reference() {
        for (k, stride, pad) in [(3, 1, 1), (1, 1, 0), (3, 2, 1), (5, 1, 2)] {
            let g = ConvGeometry::new(2, 3, k, stride, pad, 6, 6);
            let (x, w, b) = setup(&g, 2);
            let mut ws = Workspace::new();
            let y =
                conv2d_forward_ws(&x, &w, &b, &g, &mut Reducer::sequential(), 1, &mut ws).unwrap();
            let r = reference_conv(&x, &w, &b, &g);
            for (a, e) in y.as_slice().iter().zip(&r) {
                assert!((*a as f64 - e).abs() < 1e-4, "k={k}: {a} vs {e}");
            }
        }
    }

    #[test]
    // Bit-identity across workspaces/threads is the property under test.
    #[allow(clippy::float_cmp)]
    fn ws_variants_bit_identical_across_threads_and_reuse() {
        let g = ConvGeometry::new(2, 5, 3, 1, 1, 6, 6);
        let (x, w, b) = setup(&g, 3);
        for order in [
            ReduceOrder::Sequential,
            ReduceOrder::FixedTree,
            ReduceOrder::Permuted,
        ] {
            let base = Reducer::new(order, 40, 9).with_amplification(1e3);
            let mut fresh = Workspace::new();
            let y0 = conv2d_forward_ws(&x, &w, &b, &g, &mut base.clone(), 1, &mut fresh).unwrap();
            let mut dy = y0.clone();
            dy.scale(0.5);
            let g0 = conv2d_backward_ws(&x, &w, &dy, &g, &mut base.clone(), 1, &mut fresh).unwrap();
            let mut ws = Workspace::new();
            for threads in [1, 3] {
                // Reuse the same workspace across iterations: recycled
                // (dirty) buffers must not leak into results.
                let y =
                    conv2d_forward_ws(&x, &w, &b, &g, &mut base.clone(), threads, &mut ws).unwrap();
                assert_eq!(y.as_slice(), y0.as_slice(), "{order:?} fwd t={threads}");
                let gr = conv2d_backward_ws(&x, &w, &dy, &g, &mut base.clone(), threads, &mut ws)
                    .unwrap();
                assert_eq!(gr.dx.as_slice(), g0.dx.as_slice(), "{order:?} dx");
                assert_eq!(gr.dw.as_slice(), g0.dw.as_slice(), "{order:?} dw");
                assert_eq!(gr.db.as_slice(), g0.db.as_slice(), "{order:?} db");
            }
        }
    }

    #[test]
    fn geometry_dims() {
        let g = ConvGeometry::new(3, 8, 3, 2, 1, 8, 8);
        assert_eq!(g.out_h(), 4);
        assert_eq!(g.out_w(), 4);
        assert_eq!(g.out_pixels(), 16);
        assert!(g.flops(1) > 0);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_filter_panics() {
        ConvGeometry::new(1, 1, 9, 1, 0, 4, 4);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let g = ConvGeometry::new(2, 2, 3, 1, 1, 4, 4);
        let (x, w, b) = setup(&g, 2);
        let n = 2;
        let mut ws = Workspace::new();
        // Scalar loss L = Σ y², so dL/dy = 2y.
        let y = conv2d_forward_ws(&x, &w, &b, &g, &mut Reducer::sequential(), 1, &mut ws).unwrap();
        let mut dy = y.clone();
        dy.scale(2.0);
        let grads =
            conv2d_backward_ws(&x, &w, &dy, &g, &mut Reducer::sequential(), 1, &mut ws).unwrap();

        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f64 {
            let mut red = Reducer::sequential();
            let y = conv2d_forward_ws(x, w, b, &g, &mut red, 1, &mut Workspace::new()).unwrap();
            y.as_slice().iter().map(|&v| (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-2f32;
        // Check a scattering of weight coordinates.
        for idx in [0usize, 3, 7, 11, 17] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps as f64);
            let an = grads.dw.as_slice()[idx] as f64;
            assert!(
                (fd - an).abs() < 0.05 * fd.abs().max(1.0),
                "dw[{idx}]: fd {fd} vs analytic {an}"
            );
        }
        // And input coordinates.
        for idx in [0usize, 5, 13, 30] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps as f64);
            let an = grads.dx.as_slice()[idx] as f64;
            assert!(
                (fd - an).abs() < 0.05 * fd.abs().max(1.0),
                "dx[{idx}]: fd {fd} vs analytic {an}"
            );
        }
        // Bias gradient = Σ dy per channel.
        let pixels = g.out_pixels();
        for o in 0..g.out_c {
            let mut s = 0f64;
            for smp in 0..n {
                for p in 0..pixels {
                    s += dy.as_slice()[(smp * g.out_c + o) * pixels + p] as f64;
                }
            }
            let an = grads.db.as_slice()[o] as f64;
            assert!((s - an).abs() < 1e-3 * s.abs().max(1.0), "db[{o}]");
        }
    }

    #[test]
    fn shape_validation_errors() {
        let g = ConvGeometry::new(2, 3, 3, 1, 1, 4, 4);
        let (x, w, b) = setup(&g, 1);
        let (mut red, mut ws) = (Reducer::sequential(), Workspace::new());
        let bad_w = Tensor::zeros(Shape::of(&[3, 10]));
        assert!(conv2d_forward_ws(&x, &bad_w, &b, &g, &mut red, 1, &mut ws).is_err());
        let bad_b = Tensor::zeros(Shape::of(&[4]));
        assert!(conv2d_forward_ws(&x, &w, &bad_b, &g, &mut red, 1, &mut ws).is_err());
        let bad_x = Tensor::zeros(Shape::of(&[1, 1, 4, 4]));
        assert!(conv2d_forward_ws(&bad_x, &w, &b, &g, &mut red, 1, &mut ws).is_err());
        let bad_dy = Tensor::zeros(Shape::of(&[1, 3, 9, 9]));
        assert!(conv2d_backward_ws(&x, &w, &bad_dy, &g, &mut red, 1, &mut ws).is_err());
    }
}
