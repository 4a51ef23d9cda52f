//! Cache-blocked, packed GEMM engine that is bit-identical to the
//! per-element reference path (one [`Reducer::dot`] per output, in
//! row-major order) for every [`ReduceOrder`].
//!
//! # Why a blocked engine can be bit-identical at all
//!
//! Floating-point addition is not associative, so a conventional blocked
//! GEMM (which tiles the *k* dimension and combines per-tile partials)
//! would change every output's accumulation order and therefore its bits.
//! This engine never does that. The invariant is:
//!
//! > **Blocking may reorder *which outputs* are computed when; it must
//! > never reorder the k-dimension combine chain *inside* one output.**
//!
//! Each output element's reduction is executed exactly as
//! [`Reducer::dot`] would execute it — a single left-to-right chain for
//! [`ReduceOrder::Sequential`], the `e % lanes` lane fill plus fixed
//! index-order combine for [`ReduceOrder::FixedTree`], and the same lane
//! fill plus the scheduler-drawn permutation for
//! [`ReduceOrder::Permuted`]. The speed comes from vectorizing *across*
//! outputs: the micro-kernel advances [`NR`] independent accumulation
//! chains (one per output column) with each pass over k, which the
//! auto-vectorizer turns into wide FMAs without touching any single
//! chain's order.
//!
//! The remaining subtlety is the scheduler RNG: the reference path draws
//! permutations interleaved with compute, one output at a time in
//! reference call order. The scheduler generator is a Weyl sequence, so
//! the draws of the *i*-th output start at a fixed offset from the
//! batch's starting state. [`Reducer::plan_dots`] records that state in a
//! [`DotPlan`] and jumps the reducer past the whole batch in O(1); the
//! Permuted kernel then derives each output's spec from its index, tile
//! by tile, and combines a tile's outputs together in a skewed-window walk
//! that keeps every output's rotated order (see `band_permuted`). Tiles
//! and threads are free to race over outputs while the reducer ends the
//! GEMM in precisely the state `m·n` sequential `dot` calls would have
//! left it. That makes the engine bit-invariant in the thread count by
//! construction.
//!
//! [`ReduceOrder`]: crate::reduce::ReduceOrder
//! [`Reducer::dot`]: crate::reduce::Reducer::dot
//! [`Reducer::plan_dots`]: crate::reduce::Reducer::plan_dots

use crate::error::ShapeError;
use crate::pack::{pack_b_panels, pack_bt_panels, transpose_into, MR, NR};
use crate::reduce::{DotPlan, PermuteSpecs, ReduceOrder, Reducer, MAX_LANES};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Computes `C = A × B` through the blocked engine.
///
/// Bit-identical, for any reducer state, to one [`Reducer::dot`] per
/// output in row-major order, but uses `ws` for scratch and runs row
/// bands on up to `threads` threads.
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or the inner
/// dimensions disagree.
///
/// # Example
///
/// ```
/// use nstensor::{matmul_ws, Reducer, Shape, Tensor, Workspace};
/// let a = Tensor::from_vec(Shape::of(&[2, 2]), vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::from_vec(Shape::of(&[2, 2]), vec![5.0, 6.0, 7.0, 8.0])?;
/// let c = matmul_ws(&a, &b, &mut Reducer::sequential(), 1, &mut Workspace::new())?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok::<(), nstensor::ShapeError>(())
/// ```
pub fn matmul_ws(
    a: &Tensor,
    b: &Tensor,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul", a, b)?;
    let (m, ka) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(ShapeError::mismatch("matmul", &a.shape(), &b.shape()));
    }
    let plan = red.plan_dots(m * n, ka);
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    if m != 0 && n != 0 {
        let mut packed = ws.take_scratch(n.div_ceil(NR) * ka * NR);
        pack_b_panels(b.as_slice(), kb, n, &mut packed);
        gemm_packed_planned(
            a.as_slice(),
            &packed,
            m,
            n,
            ka,
            &plan,
            threads,
            out.as_mut_slice(),
        );
        ws.recycle(packed);
    }
    Ok(out)
}

/// Computes `C = Aᵀ × B` through the blocked engine.
///
/// Bit-identical to one [`Reducer::dot`] per output in row-major order.
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or `A`'s rows do
/// not match `B`'s rows.
pub fn matmul_at_b_ws(
    a: &Tensor,
    b: &Tensor,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_at_b", a, b)?;
    let (ka, m) = (a.shape().dim(0), a.shape().dim(1));
    let (kb, n) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(ShapeError::mismatch("matmul_at_b", &a.shape(), &b.shape()));
    }
    let plan = red.plan_dots(m * n, ka);
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    if m != 0 && n != 0 {
        let mut at = ws.take_scratch(m * ka);
        transpose_into(a.as_slice(), ka, m, &mut at);
        let mut packed = ws.take_scratch(n.div_ceil(NR) * kb * NR);
        pack_b_panels(b.as_slice(), kb, n, &mut packed);
        gemm_packed_planned(&at, &packed, m, n, ka, &plan, threads, out.as_mut_slice());
        ws.recycle(at);
        ws.recycle(packed);
    }
    Ok(out)
}

/// Computes `C = A × Bᵀ` through the blocked engine.
///
/// Bit-identical to one [`Reducer::dot`] per output in row-major order.
/// This is the engine's
/// native operand layout (`B`'s rows are already the output columns), so
/// no transpose scratch is needed.
///
/// # Errors
///
/// Returns [`ShapeError`] if the operands are not rank 2 or the column
/// counts disagree.
pub fn matmul_a_bt_ws(
    a: &Tensor,
    b: &Tensor,
    red: &mut Reducer,
    threads: usize,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    check_rank2("matmul_a_bt", a, b)?;
    let (m, ka) = (a.shape().dim(0), a.shape().dim(1));
    let (n, kb) = (b.shape().dim(0), b.shape().dim(1));
    if ka != kb {
        return Err(ShapeError::mismatch("matmul_a_bt", &a.shape(), &b.shape()));
    }
    let plan = red.plan_dots(m * n, ka);
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    gemm_bt_planned(
        a.as_slice(),
        b.as_slice(),
        m,
        n,
        ka,
        &plan,
        threads,
        ws,
        out.as_mut_slice(),
    );
    Ok(out)
}

/// The engine core: `out[i, j] = plan-ordered reduction of
/// Σ_kk a[i, kk] · bt[j, kk]`.
///
/// `a` is row-major `[m, k]`; `bt` is row-major `[n, k]` (each row one
/// output column); `out` is row-major `[m, n]`. The `plan` must have been
/// drawn for exactly `m * n` outputs of length `k` (or be a
/// [`DotPlan::fixed_lanes`] plan, which has no per-output state). Rows
/// are split into contiguous bands across up to `threads` threads; the
/// result is bitwise independent of `threads` because all per-output
/// combine state lives in `plan`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bt_planned(
    a: &[f32],
    bt: &[f32],
    m: usize,
    n: usize,
    k: usize,
    plan: &DotPlan,
    threads: usize,
    ws: &mut Workspace,
    out: &mut [f32],
) {
    assert_eq!(bt.len(), n * k, "gemm Bt size");
    assert_eq!(out.len(), m * n, "gemm out size");
    if m == 0 || n == 0 {
        return;
    }
    let mut packed = ws.take_scratch(n.div_ceil(NR) * k * NR);
    pack_bt_panels(bt, n, k, &mut packed);
    gemm_packed_planned(a, &packed, m, n, k, plan, threads, out);
    ws.recycle(packed);
}

/// The engine core on an already-packed B operand (see
/// [`pack_b_panels`] / [`pack_bt_panels`] for the panel layout): callers
/// that produce panels directly — the conv lowering writes im2col output
/// straight into panel form — skip the intermediate `[n, k]` buffer
/// entirely.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed_planned(
    a: &[f32],
    packed: &[f32],
    m: usize,
    n: usize,
    k: usize,
    plan: &DotPlan,
    threads: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm A size");
    assert_eq!(packed.len(), n.div_ceil(NR) * k * NR, "gemm packed size");
    assert_eq!(out.len(), m * n, "gemm out size");
    if plan.order == ReduceOrder::Permuted {
        assert_eq!(plan.count, m * n, "plan drawn for a different GEMM");
    }
    if m == 0 || n == 0 {
        return;
    }
    let order = SpecOrder::new(plan, m, n);

    let threads_eff = threads.max(1).min(m);
    if threads_eff == 1 {
        run_band(a, packed, plan, order, n, k, 0, out);
    } else {
        let band_rows = m.div_ceil(threads_eff);
        std::thread::scope(|scope| {
            for (band_idx, band) in out.chunks_mut(band_rows * n).enumerate() {
                let row0 = band_idx * band_rows;
                scope.spawn(move || {
                    run_band(a, packed, plan, order, n, k, row0, band);
                });
            }
        });
    }
}

/// Where output `(i, j)` of an `m × n` GEMM sits in the reference call
/// order, i.e. which of the plan's specs it combines under:
/// `(j / group)·m·group + i·group + j % group`. With whole-row groups
/// (`group == n`) this is the row-major index `i·n + j`; see
/// [`DotPlan::with_column_groups`] for narrower groups.
#[derive(Debug, Clone, Copy)]
struct SpecOrder {
    group: usize,
    /// `m · group`: the spec distance between consecutive column groups.
    group_stride: usize,
}

impl SpecOrder {
    fn new(plan: &DotPlan, m: usize, n: usize) -> Self {
        let group = plan.column_group(n);
        SpecOrder {
            group,
            group_stride: m * group,
        }
    }

    /// The row-independent part of column `j`'s spec index.
    #[inline]
    fn column(&self, j: usize) -> usize {
        (j / self.group) * self.group_stride + j % self.group
    }

    /// The spec index of output `(i, j)`.
    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        self.column(j) + i * self.group
    }
}

/// Computes one contiguous row band `[row0 .. row0 + band.len() / n)` of
/// the output.
#[allow(clippy::too_many_arguments)]
fn run_band(
    a: &[f32],
    packed: &[f32],
    plan: &DotPlan,
    order: SpecOrder,
    n: usize,
    k: usize,
    row0: usize,
    band: &mut [f32],
) {
    let rows = band.len() / n;
    match plan.order {
        ReduceOrder::Sequential => band_sequential(a, packed, n, k, row0, rows, band),
        // A single lane *is* one left-to-right chain: the lane fill puts
        // every element in lane 0 in increasing-k order and the combine
        // reads it back, so the fast sequential kernel computes the same
        // bits. Permuted adds only the per-output amplification scale
        // (its draws are 0 when lanes == 1).
        ReduceOrder::FixedTree if plan.lanes == 1 => {
            band_sequential(a, packed, n, k, row0, rows, band)
        }
        ReduceOrder::Permuted if plan.lanes == 1 => {
            band_sequential(a, packed, n, k, row0, rows, band);
            if plan.amplified {
                for (i, orow) in band.chunks_mut(n).enumerate() {
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o *= plan.specs(&[order.index(row0 + i, j)]).scale[0];
                    }
                }
            }
        }
        // The lane kernels get a carry only when k spans several k-blocks
        // (see `for_each_lane_partial`); short-k instances hold none.
        ReduceOrder::FixedTree if k > k_block(plan.lanes) => {
            band_fixed_tree::<MAX_LANES>(a, packed, plan.lanes, n, k, row0, rows, band)
        }
        ReduceOrder::FixedTree => {
            band_fixed_tree::<0>(a, packed, plan.lanes, n, k, row0, rows, band)
        }
        ReduceOrder::Permuted if k > k_block(plan.lanes) => {
            band_permuted::<MAX_LANES>(a, packed, plan, order, n, k, row0, rows, band)
        }
        ReduceOrder::Permuted => band_permuted::<0>(a, packed, plan, order, n, k, row0, rows, band),
    }
}

/// Reads the `NR`-wide panel row at depth `kk` as a fixed-size array so
/// the optimizer sees compile-time trip counts (no bounds checks, clean
/// vector code).
#[inline(always)]
fn panel_row(panel: &[f32], kk: usize) -> &[f32; NR] {
    panel[kk * NR..kk * NR + NR]
        .try_into()
        .expect("panel row is NR wide")
}

/// Sequential micro-kernel: an `MR × NR` register tile of *independent*
/// single-chain accumulators. Each output's chain is
/// `acc += a[i, kk] · b[kk, j]` for `kk = 0..k` — the identical
/// left-to-right chain [`Reducer::dot`] runs — while the `NR`-wide inner
/// loop and `MR` parallel rows give the CPU wide FMAs and ILP.
fn band_sequential(
    a: &[f32],
    packed: &[f32],
    n: usize,
    k: usize,
    row0: usize,
    rows: usize,
    band: &mut [f32],
) {
    let panels = n.div_ceil(NR);
    for p in 0..panels {
        let panel = &packed[p * k * NR..(p + 1) * k * NR];
        let col0 = p * NR;
        let cols = NR.min(n - col0);
        let mut i = 0;
        while i < rows {
            let rm = MR.min(rows - i);
            let arows = tile_rows(a, k, row0 + i, rm);
            let mut acc = [[0f32; NR]; MR];
            // The r loop always runs all MR rows (remainder tiles repeat
            // the last real row and discard the duplicates below) so the
            // inner loops have fixed trip counts — no bounds checks, clean
            // vector code.
            #[allow(clippy::needless_range_loop)] // kk walks panel and arows in lockstep
            for kk in 0..k {
                let pr = panel_row(panel, kk);
                for r in 0..MR {
                    let av = arows[r][kk];
                    for j in 0..NR {
                        acc[r][j] += av * pr[j];
                    }
                }
            }
            for r in 0..rm {
                let orow = &mut band[(i + r) * n + col0..(i + r) * n + col0 + cols];
                orow.copy_from_slice(&acc[r][..cols]);
            }
            i += rm;
        }
    }
}

/// The `MR` A-row slices of one register tile, with remainder tiles
/// clamped to the last real row (the kernels compute the duplicate rows
/// and discard them — cheaper than a variable trip count in the hot
/// loop).
#[inline(always)]
fn tile_rows(a: &[f32], k: usize, first: usize, rm: usize) -> [&[f32]; MR] {
    core::array::from_fn(|r| {
        let row = first + r.min(rm - 1);
        &a[row * k..row * k + k]
    })
}

/// The lane accumulators of one register tile: `MR × NR` chains.
type LaneTile = [[f32; NR]; MR];

/// Depth of one k-block of [`for_each_lane_partial`], before rounding up
/// to a whole number of lane rows: 256 panel rows (16 KiB of B) and
/// `MR` A-row stretches of 1 KiB stay in L1 while every lane walks them.
const K_BLOCK: usize = 256;

/// The k-block of an `l`-lane walk: `l·⌈K_BLOCK/l⌉` rows, so every block
/// starts at a multiple of `l`.
#[inline]
fn k_block(l: usize) -> usize {
    l * K_BLOCK.div_ceil(l)
}

/// Computes the lane-partial vectors of one `rm × NR` tile, invoking
/// `sink(r, lane, partial)` for each lane in **increasing lane order**.
///
/// Lane `dl` owns the k indices `dl, dl + l, dl + 2l, …` — the same
/// assignment as the reference `p[e % l] += a[e] · b[e]` fill — and its
/// chain is accumulated in increasing-k order, so each invocation hands
/// the sink the exact reference lane partial.
///
/// k is walked in blocks of [`k_block`]`(l)` rows, lane by lane inside a
/// block, with each lane's accumulator tile carried over to the next
/// block through `carry` (the caller's per-band scratch). Blocks start at
/// multiples of `l`, so lane `dl` still visits exactly `kk ≡ dl (mod l)`
/// in increasing order and every chain is unchanged; what changes is that
/// all lanes of a block re-read the same few KiB of A and B from L1,
/// instead of each lane streaming the whole depth (megabytes for the
/// conv weight gradient, where k = n·pixels).
///
/// A k of at most one block needs no carry: each lane's tile lives in
/// registers from its first term to its sink call. Callers then pass an
/// empty carry (`CARRY == 0`), which compiles the blocked walk out of the
/// kernel altogether; a carry of `MAX_LANES` tiles in the same stack
/// frame measurably slowed the short-k kernels.
#[inline(always)]
fn for_each_lane_partial<const CARRY: usize>(
    arows: &[&[f32]; MR],
    panel: &[f32],
    l: usize,
    k: usize,
    rm: usize,
    carry: &mut [LaneTile; CARRY],
    mut sink: impl FnMut(usize, usize, &[f32; NR]),
) {
    let block = k_block(l);
    if CARRY == 0 {
        debug_assert!(k <= block, "a multi-block walk needs a carry");
        for dl in 0..l {
            let mut lane = [[0f32; NR]; MR];
            lane_chain(arows, panel, &mut lane, dl, k, l);
            for (r, partial) in lane.iter().enumerate().take(rm) {
                sink(r, dl, partial);
            }
        }
        return;
    }
    let carry = &mut carry[..l];
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + block).min(k);
        for (dl, tile) in carry.iter_mut().enumerate() {
            let mut lane = if k0 == 0 { [[0f32; NR]; MR] } else { *tile };
            lane_chain(arows, panel, &mut lane, k0 + dl, k1, l);
            *tile = lane;
        }
        k0 = k1;
    }
    for (dl, lane) in carry.iter().enumerate() {
        for (r, partial) in lane.iter().enumerate().take(rm) {
            sink(r, dl, partial);
        }
    }
}

/// Advances one lane's chains over `kk = start, start + l, … < end`.
#[inline(always)]
fn lane_chain(
    arows: &[&[f32]; MR],
    panel: &[f32],
    lane: &mut LaneTile,
    start: usize,
    end: usize,
    l: usize,
) {
    let mut kk = start;
    while kk < end {
        let pr = panel_row(panel, kk);
        for r in 0..MR {
            let av = arows[r][kk];
            for j in 0..NR {
                lane[r][j] += av * pr[j];
            }
        }
        kk += l;
    }
}

/// [`ReduceOrder::FixedTree`] micro-kernel: no lane buffer at all. The
/// running sum starts at +0.0 and folds each lane partial in increasing
/// lane order — bit-identical to the reference combine
/// `sum_ordered_f32(p[..l])` — with all `NR` output columns advancing
/// together so the combine vectorizes across columns. `CARRY` is the
/// lane-carry capacity [`for_each_lane_partial`] gets: 0 when k fits one
/// k-block, else `MAX_LANES`.
#[allow(clippy::too_many_arguments)]
fn band_fixed_tree<const CARRY: usize>(
    a: &[f32],
    packed: &[f32],
    l: usize,
    n: usize,
    k: usize,
    row0: usize,
    rows: usize,
    band: &mut [f32],
) {
    let panels = n.div_ceil(NR);
    let mut carry = [[[0f32; NR]; MR]; CARRY];
    for p in 0..panels {
        let panel = &packed[p * k * NR..(p + 1) * k * NR];
        let col0 = p * NR;
        let cols = NR.min(n - col0);
        let mut i = 0;
        while i < rows {
            let rm = MR.min(rows - i);
            let arows = tile_rows(a, k, row0 + i, rm);
            let mut s = [[0f32; NR]; MR];
            for_each_lane_partial(&arows, panel, l, k, rm, &mut carry, |r, _dl, partial| {
                for j in 0..NR {
                    s[r][j] += partial[j];
                }
            });
            for r in 0..rm {
                let orow = &mut band[(i + r) * n + col0..(i + r) * n + col0 + cols];
                orow.copy_from_slice(&s[r][..cols]);
            }
            i += rm;
        }
    }
}

/// [`ReduceOrder::Permuted`] micro-kernel. Lane partials are computed in
/// registers exactly as for [`ReduceOrder::FixedTree`] and stored once
/// into a lane-major `[lane][MR·NR]` block per tile. Each output then
/// combines its column of that block under its own spec, drawn on the
/// spot from the output's spec index ([`DotPlan::specs`]), as a *skewed
/// window*:
///
/// 1. the two transpositions are applied inside the column;
/// 2. one walk over lane rows `x = 0..2l−1` (lane `x mod l`) lets output
///    `q` accumulate only while `rot_q ≤ x < rot_q + l`, so its chain
///    reads lanes `rot_q, …, l−1, 0, …, rot_q−1` — the reference's exact
///    rotated order — while all `MR·NR` chains of the tile advance as
///    vectors;
/// 3. the amplified scale multiplies the finished sum.
///
/// Outside its window an output keeps its running sum through a bitwise
/// select rather than by adding `0.0`, which is not the identity on
/// `-0.0`; see [`add_where`]. `CARRY` is as for [`band_fixed_tree`].
#[allow(clippy::too_many_arguments)]
fn band_permuted<const CARRY: usize>(
    a: &[f32],
    packed: &[f32],
    plan: &DotPlan,
    order: SpecOrder,
    n: usize,
    k: usize,
    row0: usize,
    rows: usize,
    band: &mut [f32],
) {
    let l = plan.lanes;
    let panels = n.div_ceil(NR);
    let mut carry = [[[0f32; NR]; MR]; CARRY];
    // Lane partials of one tile, lane-major: `lanebuf[lane][r * NR + j]`.
    // Lanes `l..` are never read. The first `rm` rows of lanes `..l` are
    // written once per tile before they are read; the remaining rows hold
    // stale values whose sums are discarded, so no re-zeroing.
    let mut lanebuf = [[0f32; TILE]; MAX_LANES];
    for p in 0..panels {
        let panel = &packed[p * k * NR..(p + 1) * k * NR];
        let col0 = p * NR;
        let cols = NR.min(n - col0);
        // Spec indices of this panel's columns, minus the row term.
        // Columns past `n` get specs too (the counter has no end); their
        // outputs are discarded.
        let col_spec: [usize; NR] = core::array::from_fn(|j| order.column(col0 + j));
        let mut i = 0;
        while i < rows {
            let rm = MR.min(rows - i);
            let arows = tile_rows(a, k, row0 + i, rm);
            for_each_lane_partial(&arows, panel, l, k, rm, &mut carry, |r, dl, partial| {
                lanebuf[dl][r * NR..(r + 1) * NR].copy_from_slice(partial);
            });
            // Each output's spec, drawn from its spec index. Rows past
            // `rm` repeat the last real row and are discarded.
            let idx: [usize; TILE] = core::array::from_fn(|q| {
                let row = row0 + i + (q / NR).min(rm - 1);
                col_spec[q % NR] + row * order.group
            });
            let PermuteSpecs { j1, j2, rot, scale } = plan.specs(&idx);
            // Its two transpositions, in place.
            for q in 0..TILE {
                let (a1, a2) = (j1[q] as usize, j2[q] as usize);
                let v = lanebuf[0][q];
                lanebuf[0][q] = lanebuf[a1][q];
                lanebuf[a1][q] = v;
                let v = lanebuf[1][q];
                lanebuf[1][q] = lanebuf[a2][q];
                lanebuf[a2][q] = v;
            }
            let sums = skewed_sums(&lanebuf[..l], &rot);
            for r in 0..rm {
                let orow = &mut band[(i + r) * n + col0..(i + r) * n + col0 + cols];
                for (j, o) in orow.iter_mut().enumerate() {
                    let q = r * NR + j;
                    *o = if plan.amplified {
                        sums[q] * scale[q]
                    } else {
                        sums[q]
                    };
                }
            }
            i += rm;
        }
    }
}

/// Outputs of one `MR × NR` register tile.
const TILE: usize = MR * NR;

/// The skewed-window walk of [`band_permuted`] over `l = lanes.len()`
/// (≥ 2; one lane runs the sequential kernel) lane rows of a tile: output
/// `q` sums lanes `rot[q], …, l−1, 0, …, rot[q]−1` left to right from
/// `0.0`. All [`TILE`] chains advance together, one lane row per step.
#[inline(always)]
fn skewed_sums(lanes: &[[f32; TILE]], rot: &[u32; TILE]) -> [f32; TILE] {
    let l = lanes.len();
    debug_assert!(l > 1, "a single lane runs band_sequential");
    let mut s = [0f32; TILE];
    // Steps x = 0..l (lane x): live while `rot ≤ x`.
    for (x, row) in lanes.iter().enumerate() {
        let x = x as u32;
        for q in 0..TILE {
            add_where(&mut s[q], row[q], rot[q] <= x);
        }
    }
    // Steps x = l..2l−1 (lane x − l): live while `x − l < rot`; the last
    // lane is never live here because `rot < l`.
    for (x, row) in lanes[..l - 1].iter().enumerate() {
        let x = x as u32;
        for q in 0..TILE {
            add_where(&mut s[q], row[q], x < rot[q]);
        }
    }
    s
}

/// `s += v` if `live`, else `s` unchanged, as a bitwise select (a
/// merge-masked add once vectorized). Adding `0.0` for a dead step would
/// be the identity on every sum except `-0.0`, which it turns into
/// `+0.0`; the select keeps the window exact without any argument about
/// which values a chain can hold.
#[inline(always)]
fn add_where(s: &mut f32, v: f32, live: bool) {
    let mask = 0u32.wrapping_sub(u32::from(live));
    let sum = (*s + v).to_bits();
    *s = f32::from_bits((sum & mask) | (s.to_bits() & !mask));
}

fn check_rank2(op: &'static str, a: &Tensor, b: &Tensor) -> Result<(), ShapeError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(ShapeError::new(
            op,
            format!(
                "expected rank-2 operands, got {} and {}",
                a.shape(),
                b.shape()
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
// Bit-identity to the reference path is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::linalg::{matmul_a_bt_reference, matmul_at_b_reference, matmul_reference};
    use proptest::prelude::*;

    fn filled(rows: usize, cols: usize, salt: u64) -> Tensor {
        let mut seed = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(Shape::of(&[rows, cols]), data).unwrap()
    }

    fn reducers() -> Vec<Reducer> {
        let mut v = Vec::new();
        for order in [
            ReduceOrder::Sequential,
            ReduceOrder::FixedTree,
            ReduceOrder::Permuted,
        ] {
            for lanes in [1, 3, 40, MAX_LANES] {
                v.push(Reducer::new(order, lanes, 77));
                v.push(Reducer::new(order, lanes, 77).with_amplification(1e4));
            }
        }
        v
    }

    fn reduce_order() -> impl Strategy<Value = ReduceOrder> {
        (0usize..3).prop_map(|i| match i {
            0 => ReduceOrder::Sequential,
            1 => ReduceOrder::FixedTree,
            _ => ReduceOrder::Permuted,
        })
    }

    fn assert_tensor_bits(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        Ok(())
    }

    fn assert_bits_eq(fast: &Tensor, reference: &Tensor, what: &str) {
        assert_eq!(fast.shape(), reference.shape(), "{what}: shape");
        for (idx, (x, y)) in fast.as_slice().iter().zip(reference.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {idx}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_bit_identical_to_reference_all_orders() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (7, 129, 9), (16, 40, 24)] {
            let a = filled(m, k, 1);
            let b = filled(k, n, 2);
            for red in reducers() {
                let mut fast_red = red.clone();
                let mut ref_red = red.clone();
                let mut ws = Workspace::new();
                let fast = matmul_ws(&a, &b, &mut fast_red, 1, &mut ws).unwrap();
                let reference = matmul_reference(&a, &b, &mut ref_red).unwrap();
                assert_bits_eq(&fast, &reference, "matmul");
                // Reducer state must also be in sync (same RNG position,
                // same invocation count) for the *next* op to agree.
                assert_eq!(fast_red.invocations(), ref_red.invocations());
                let probe = filled(1, k.max(1), 3);
                assert_eq!(
                    fast_red.dot(probe.as_slice(), probe.as_slice()).to_bits(),
                    ref_red.dot(probe.as_slice(), probe.as_slice()).to_bits(),
                    "reducer RNG state diverged"
                );
            }
        }
    }

    #[test]
    fn at_b_and_a_bt_bit_identical_to_reference() {
        let (m, k, n) = (6, 33, 10);
        for red in reducers() {
            let mut ws = Workspace::new();
            let a = filled(k, m, 4);
            let b = filled(k, n, 5);
            let fast = matmul_at_b_ws(&a, &b, &mut red.clone(), 2, &mut ws).unwrap();
            let reference = matmul_at_b_reference(&a, &b, &mut red.clone()).unwrap();
            assert_bits_eq(&fast, &reference, "matmul_at_b");

            let a = filled(m, k, 6);
            let b = filled(n, k, 7);
            let fast = matmul_a_bt_ws(&a, &b, &mut red.clone(), 2, &mut ws).unwrap();
            let reference = matmul_a_bt_reference(&a, &b, &mut red.clone()).unwrap();
            assert_bits_eq(&fast, &reference, "matmul_a_bt");
        }
    }

    #[test]
    fn thread_count_is_bitwise_irrelevant() {
        let (m, k, n) = (13, 57, 11);
        let a = filled(m, k, 8);
        let b = filled(k, n, 9);
        for red in reducers() {
            let mut ws = Workspace::new();
            let one = matmul_ws(&a, &b, &mut red.clone(), 1, &mut ws).unwrap();
            for threads in [2, 3, 8, 64] {
                let many = matmul_ws(&a, &b, &mut red.clone(), threads, &mut ws).unwrap();
                assert_bits_eq(&many, &one, "threads");
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        let mut ws = Workspace::new();
        for red in reducers() {
            // k = 0: every output is an empty reduction.
            let a = Tensor::zeros(Shape::of(&[3, 0]));
            let b = Tensor::zeros(Shape::of(&[0, 4]));
            let fast = matmul_ws(&a, &b, &mut red.clone(), 2, &mut ws).unwrap();
            let reference = matmul_reference(&a, &b, &mut red.clone()).unwrap();
            assert_bits_eq(&fast, &reference, "k=0");
            // n = 0: no outputs at all.
            let a = filled(3, 4, 10);
            let b = Tensor::zeros(Shape::of(&[4, 0]));
            let mut fast_red = red.clone();
            let mut ref_red = red.clone();
            let fast = matmul_ws(&a, &b, &mut fast_red, 2, &mut ws).unwrap();
            let reference = matmul_reference(&a, &b, &mut ref_red).unwrap();
            assert_bits_eq(&fast, &reference, "n=0");
            assert_eq!(fast_red.invocations(), ref_red.invocations());
        }
    }

    #[test]
    fn shape_errors_match_reference_path() {
        let mut ws = Workspace::new();
        let mut red = Reducer::sequential();
        let a = filled(2, 3, 11);
        let b = filled(2, 2, 12);
        assert!(matmul_ws(&a, &b, &mut red, 1, &mut ws).is_err());
        let r4 = Tensor::zeros(Shape::of(&[2, 2, 1, 1]));
        assert!(matmul_ws(&r4, &b, &mut red, 1, &mut ws).is_err());
        let b3 = filled(3, 2, 13);
        assert!(matmul_at_b_ws(&a, &b3, &mut red, 1, &mut ws).is_err());
        assert!(matmul_a_bt_ws(&a, &b, &mut red, 1, &mut ws).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The blocked GEMM engine is bit-identical to the per-element
        /// reference path for every accumulation order, lane count,
        /// amplification tier and thread count — and leaves the reducer in
        /// the same state (RNG position + invocation count), so subsequent
        /// ops stay in sync too.
        #[test]
        fn blocked_gemm_bit_identical_to_reference(
            m in 1usize..24,
            k in 0usize..80,
            n in 1usize..24,
            order in reduce_order(),
            lanes in 1usize..MAX_LANES + 1,
            amp in (0usize..2).prop_map(|i| if i == 0 { 0.0f32 } else { 1e4 }),
            threads in 1usize..5,
            salt in any::<u64>(),
        ) {
            let a = filled(m, k, salt);
            let b = filled(k, n, salt.wrapping_add(1));
            let base = Reducer::new(order, lanes, salt ^ 0xda7a).with_amplification(amp);
            let mut fast_red = base.clone();
            let mut ref_red = base.clone();
            let mut ws = Workspace::new();
            let fast = matmul_ws(&a, &b, &mut fast_red, threads, &mut ws).unwrap();
            let reference = matmul_reference(&a, &b, &mut ref_red).unwrap();
            assert_tensor_bits(&fast, &reference)?;
            prop_assert_eq!(fast_red.invocations(), ref_red.invocations());
            // Probe: the *next* reduction must agree bitwise, proving the
            // scheduler RNG advanced identically on both paths.
            let probe = filled(1, k.max(1), salt.wrapping_add(2));
            prop_assert_eq!(
                fast_red.dot(probe.as_slice(), probe.as_slice()).to_bits(),
                ref_red.dot(probe.as_slice(), probe.as_slice()).to_bits()
            );
        }

        /// Long reductions, as in the conv weight gradient (k = n·pixels):
        /// k runs past the lane kernels' k-block (`lanes·⌈256/lanes⌉` rows)
        /// and is not a multiple of any tested lane count, so chains cross
        /// block boundaries mid-lane and end in a partial lane row. All three
        /// entry points stay bit-identical to the reference, with the same
        /// invocation count and the same next draw.
        #[test]
        fn blocked_gemm_long_k_bit_identical_to_reference(
            m in 1usize..10,
            k in 250usize..1100,
            n in 1usize..20,
            salt in any::<u64>(),
        ) {
            let lane_counts = [3, 16, 40, 64];
            prop_assume!(lane_counts.iter().all(|l| k % l != 0));
            let mut ws = Workspace::new();
            let probe = filled(1, k, salt.wrapping_add(8));
            let (a_mk, b_kn) = (filled(m, k, salt), filled(k, n, salt.wrapping_add(1)));
            let (a_km, b_nk) = (filled(k, m, salt.wrapping_add(2)), filled(n, k, salt.wrapping_add(3)));
            for order in [ReduceOrder::Sequential, ReduceOrder::FixedTree, ReduceOrder::Permuted] {
                for lanes in lane_counts {
                    for amp in [0.0, 512.0] {
                        let base = Reducer::new(order, lanes, salt ^ 0x10c6).with_amplification(amp);
                        for threads in [1, 3] {
                            for form in ["a_b", "at_b", "a_bt"] {
                                let mut fast_red = base.clone();
                                let mut ref_red = base.clone();
                                let (fast, reference) = match form {
                                    "a_b" => (
                                        matmul_ws(&a_mk, &b_kn, &mut fast_red, threads, &mut ws),
                                        matmul_reference(&a_mk, &b_kn, &mut ref_red),
                                    ),
                                    "at_b" => (
                                        matmul_at_b_ws(&a_km, &b_kn, &mut fast_red, threads, &mut ws),
                                        matmul_at_b_reference(&a_km, &b_kn, &mut ref_red),
                                    ),
                                    _ => (
                                        matmul_a_bt_ws(&a_mk, &b_nk, &mut fast_red, threads, &mut ws),
                                        matmul_a_bt_reference(&a_mk, &b_nk, &mut ref_red),
                                    ),
                                };
                                assert_tensor_bits(&fast.unwrap(), &reference.unwrap())?;
                                prop_assert_eq!(fast_red.invocations(), ref_red.invocations());
                                prop_assert_eq!(
                                    fast_red.dot(probe.as_slice(), probe.as_slice()).to_bits(),
                                    ref_red.dot(probe.as_slice(), probe.as_slice()).to_bits()
                                );
                            }
                        }
                    }
                }
            }
        }

        /// Same bit-identity contract for the transposed entry points.
        #[test]
        fn blocked_gemm_transposed_forms_bit_identical(
            m in 1usize..16,
            k in 1usize..48,
            n in 1usize..16,
            order in reduce_order(),
            threads in 1usize..4,
            salt in any::<u64>(),
        ) {
            let base = Reducer::new(order, 40, salt ^ 0x5eed).with_amplification(2e3);
            let mut ws = Workspace::new();
            let a = filled(k, m, salt);
            let b = filled(k, n, salt.wrapping_add(3));
            let fast = matmul_at_b_ws(&a, &b, &mut base.clone(), threads, &mut ws).unwrap();
            let reference = matmul_at_b_reference(&a, &b, &mut base.clone()).unwrap();
            assert_tensor_bits(&fast, &reference)?;
            let a = filled(m, k, salt.wrapping_add(4));
            let b = filled(n, k, salt.wrapping_add(5));
            let fast = matmul_a_bt_ws(&a, &b, &mut base.clone(), threads, &mut ws).unwrap();
            let reference = matmul_a_bt_reference(&a, &b, &mut base.clone()).unwrap();
            assert_tensor_bits(&fast, &reference)?;
        }
    }
}
