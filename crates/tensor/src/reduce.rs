//! Order-sensitive floating-point reduction.
//!
//! This module is the physical site of *implementation noise* in the
//! reproduction. A [`Reducer`] performs every sum and dot product in the
//! training hot path; its [`ReduceOrder`] decides whether the combination
//! order of partial sums is fixed (deterministic execution) or perturbed by
//! a scheduler RNG between calls (nondeterministic execution, as on GPUs
//! whose atomics and split-K kernels combine partials in arrival order).
//!
//! Two fidelity tiers are supported:
//!
//! - **Order-only** (`amp_ulps == 0`): the partial sums are mathematically
//!   identical across orders and differ only through f32 rounding — a
//!   faithful model, producing 1-ulp seeds that amplify through SGD.
//! - **Amplified** (`amp_ulps > 0`): an additional relative perturbation of
//!   `amp_ulps` ulps is applied to the combined result, modelling the far
//!   longer accumulation chains (millions of MACs) of full-scale workloads
//!   that a scaled-down simulation cannot afford to execute. The
//!   perturbation is proportional to the result's magnitude and vanishes
//!   identically under deterministic orders.

use detrand::SplitMix64;
use serde::{Deserialize, Serialize};

/// Maximum number of accumulation lanes a reducer will materialize.
///
/// Real devices have thousands of FP units; the *noise-relevant* property is
/// the number of independently-ordered partial sums, which saturates quickly.
/// Device models map core counts into `8..=MAX_LANES`.
pub const MAX_LANES: usize = 64;

/// The accumulation-order policy of a [`Reducer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceOrder {
    /// Left-to-right single-lane accumulation. Reference CPU semantics.
    Sequential,
    /// Strided multi-lane partials combined in fixed (index) order.
    /// Deterministic: bitwise-stable across calls and runs. Models
    /// deterministic GPU kernels and TPU systolic arrays.
    FixedTree,
    /// Strided multi-lane partials combined in an order perturbed by the
    /// scheduler RNG on every call. Models nondeterministic GPU kernels
    /// (atomic split-K, Winograd with atomic reductions, ...).
    Permuted,
}

impl ReduceOrder {
    /// Whether this order is bitwise reproducible across runs.
    pub fn is_deterministic(self) -> bool {
        !matches!(self, ReduceOrder::Permuted)
    }
}

/// An order-sensitive reduction engine.
///
/// Cheap to construct; typically one per simulated device execution stream.
/// See the [crate-level docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Reducer {
    order: ReduceOrder,
    lanes: usize,
    sched: SplitMix64,
    /// Relative perturbation amplitude in ulps (0 = faithful order-only).
    amp_ulps: f32,
    /// Count of reductions performed (for profiling/attribution).
    invocations: u64,
    /// One-shot fault-injection flag: when set, the next direct reduction
    /// returns NaN (see [`Reducer::inject_nan`]).
    poisoned: bool,
}

/// The replayable state of a [`Reducer`]: the scheduler RNG position and
/// the invocation counter. Configuration (order, lanes, amplification) is
/// not part of the snapshot — it is rebuilt from the device/mode pair —
/// so restoring into a reducer with different configuration is a logic
/// error the caller must avoid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReducerSnapshot {
    /// The scheduler RNG state.
    pub sched_state: u64,
    /// Reductions performed so far.
    pub invocations: u64,
}

impl Reducer {
    /// Creates a reducer.
    ///
    /// `lanes` is clamped into `1..=MAX_LANES`. `sched_seed` seeds the
    /// scheduler RNG (only consumed by [`ReduceOrder::Permuted`]).
    pub fn new(order: ReduceOrder, lanes: usize, sched_seed: u64) -> Self {
        Self {
            order,
            lanes: lanes.clamp(1, MAX_LANES),
            sched: SplitMix64::new(sched_seed),
            amp_ulps: 0.0,
            invocations: 0,
            poisoned: false,
        }
    }

    /// Captures the replayable state (scheduler RNG + invocation count).
    pub fn snapshot(&self) -> ReducerSnapshot {
        ReducerSnapshot {
            sched_state: self.sched.state(),
            invocations: self.invocations,
        }
    }

    /// Restores the state captured by [`Reducer::snapshot`]. The poison
    /// flag is transient fault-injection state and is always cleared.
    pub fn restore(&mut self, s: ReducerSnapshot) {
        self.sched = SplitMix64::new(s.sched_state);
        self.invocations = s.invocations;
        self.poisoned = false;
    }

    /// Arms a one-shot fault: the next direct reduction ([`Reducer::sum`],
    /// [`Reducer::dot`] or [`Reducer::sum_strided`]) returns NaN instead of
    /// its result, modelling a kernel that silently produced garbage.
    /// Pre-planned GEMM batches (`Reducer::plan_dots`) are unaffected —
    /// the poison stays armed until a direct reduction materializes it.
    pub fn inject_nan(&mut self) {
        self.poisoned = true;
    }

    /// Sequential reference reducer.
    pub fn sequential() -> Self {
        Self::new(ReduceOrder::Sequential, 1, 0)
    }

    /// Sets the amplified-noise tier (relative perturbation in ulps).
    ///
    /// Only affects [`ReduceOrder::Permuted`]; deterministic orders ignore it
    /// so that deterministic execution stays bitwise stable.
    ///
    /// # Panics
    ///
    /// Panics if `ulps` is negative or non-finite.
    pub fn with_amplification(mut self, ulps: f32) -> Self {
        assert!(ulps.is_finite() && ulps >= 0.0, "bad amplification {ulps}");
        self.amp_ulps = ulps;
        self
    }

    /// The accumulation-order policy.
    pub fn order(&self) -> ReduceOrder {
        self.order
    }

    /// The effective lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of reductions performed so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Sums a slice under the configured accumulation order.
    pub fn sum(&mut self, xs: &[f32]) -> f32 {
        self.invocations += 1;
        if self.poisoned {
            self.poisoned = false;
            return f32::NAN;
        }
        match self.order {
            ReduceOrder::Sequential => sum_ordered_f32(xs.iter().copied()),
            ReduceOrder::FixedTree => {
                let mut p = [0f32; MAX_LANES];
                let l = self.fill_lanes_sum(xs, &mut p);
                sum_ordered_f32(p[..l].iter().copied())
            }
            ReduceOrder::Permuted => {
                let mut p = [0f32; MAX_LANES];
                let l = self.fill_lanes_sum(xs, &mut p);
                self.combine_permuted(&mut p[..l])
            }
        }
    }

    /// Dot product of two equal-length slices under the configured order.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot(&mut self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        self.invocations += 1;
        if self.poisoned {
            self.poisoned = false;
            return f32::NAN;
        }
        match self.order {
            ReduceOrder::Sequential => {
                let mut s = 0f32;
                for i in 0..a.len() {
                    s += a[i] * b[i];
                }
                s
            }
            ReduceOrder::FixedTree => {
                let mut p = [0f32; MAX_LANES];
                let l = self.fill_lanes_dot(a, b, &mut p);
                sum_ordered_f32(p[..l].iter().copied())
            }
            ReduceOrder::Permuted => {
                let mut p = [0f32; MAX_LANES];
                let l = self.fill_lanes_dot(a, b, &mut p);
                self.combine_permuted(&mut p[..l])
            }
        }
    }

    /// Sums `xs[start], xs[start+stride], ...` (`count` elements) under the
    /// configured order. Used for reductions over strided tensor axes
    /// without materializing a copy.
    pub fn sum_strided(&mut self, xs: &[f32], start: usize, stride: usize, count: usize) -> f32 {
        self.invocations += 1;
        if self.poisoned {
            self.poisoned = false;
            return f32::NAN;
        }
        let lane_count = self.lanes.min(count.max(1));
        let mut p = [0f32; MAX_LANES];
        match self.order {
            ReduceOrder::Sequential => {
                let mut s = 0f32;
                let mut idx = start;
                for _ in 0..count {
                    s += xs[idx];
                    idx += stride;
                }
                s
            }
            ReduceOrder::FixedTree | ReduceOrder::Permuted => {
                let mut idx = start;
                for i in 0..count {
                    p[i % lane_count] += xs[idx];
                    idx += stride;
                }
                if self.order == ReduceOrder::FixedTree {
                    sum_ordered_f32(p[..lane_count].iter().copied())
                } else {
                    self.combine_permuted(&mut p[..lane_count])
                }
            }
        }
    }

    /// Fills lane partials for a plain sum; returns the lane count used.
    ///
    /// Element `i` lands in lane `i mod lanes`, iterated block-wise so the
    /// inner loop vectorizes.
    #[inline]
    fn fill_lanes_sum(&self, xs: &[f32], p: &mut [f32; MAX_LANES]) -> usize {
        let l = self.lanes.min(xs.len().max(1));
        let mut chunks = xs.chunks_exact(l);
        for chunk in &mut chunks {
            for (lane, &x) in p[..l].iter_mut().zip(chunk) {
                *lane += x;
            }
        }
        for (lane, &x) in p[..l].iter_mut().zip(chunks.remainder()) {
            *lane += x;
        }
        l
    }

    /// Fills lane partials for a dot product; returns the lane count used.
    #[inline]
    fn fill_lanes_dot(&self, a: &[f32], b: &[f32], p: &mut [f32; MAX_LANES]) -> usize {
        let l = self.lanes.min(a.len().max(1));
        let n = a.len();
        let full = n / l * l;
        let mut i = 0;
        while i < full {
            for j in 0..l {
                p[j] += a[i + j] * b[i + j];
            }
            i += l;
        }
        for j in 0..(n - full) {
            p[j] += a[i + j] * b[i + j];
        }
        l
    }

    /// Combines lane partials in a scheduler-perturbed order, optionally
    /// applying the amplified-noise tier.
    #[inline]
    fn combine_permuted(&mut self, p: &mut [f32]) -> f32 {
        let l = p.len();
        // Two random transpositions followed by a random rotation: cheap
        // (three RNG draws) yet changes the combine order of most calls.
        let spec = PermuteSpecs::draw(core::array::from_mut(&mut self.sched), l, self.amp_ulps);
        let mut s = if l > 1 {
            p.swap(0, spec.j1[0] as usize);
            p.swap(1, spec.j2[0] as usize);
            let rot = spec.rot[0] as usize;
            let mut s = 0f32;
            for k in 0..l {
                s += p[(k + rot) % l];
            }
            s
        } else {
            p[0]
        };
        if self.amp_ulps > 0.0 {
            s *= spec.scale[0];
        }
        s
    }
}

/// How `N` outputs' lane partials are combined under
/// [`ReduceOrder::Permuted`], one output per array slot: swap lane 0 with
/// lane `j1`, then lane 1 with lane `j2`, sum left to right starting at
/// lane `rot` and wrapping around, and (when amplified) multiply by
/// `scale`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PermuteSpecs<const N: usize> {
    /// First transposition targets (`p.swap(0, j1)`).
    pub j1: [u32; N],
    /// Second transposition targets (`p.swap(1, j2)`).
    pub j2: [u32; N],
    /// Rotation offsets of the combine loop.
    pub rot: [u32; N],
    /// Amplified-noise multipliers; only applied when the reducer is
    /// amplified (a `*= 1.0` is *not* a guaranteed bitwise no-op for NaN
    /// payloads, so "skip when amp == 0" is kept exact).
    pub scale: [f32; N],
}

impl<const N: usize> PermuteSpecs<N> {
    /// Draws output `q`'s spec from stream `g[q]`. This is the only place
    /// the Permuted combine consumes scheduler entropy — the direct
    /// reductions draw through it with `N = 1` — and every stream is
    /// consumed in the same order: two transpositions and a rotation
    /// (three draws, only when `lanes > 1`), then the amplified scale (one
    /// draw, only when `amp_ulps > 0`). Each draw is one loop across the
    /// `N` independent streams, so the GEMM engine's tile-wide draws
    /// vectorize.
    #[inline(always)]
    pub fn draw(g: &mut [SplitMix64; N], lanes: usize, amp_ulps: f32) -> Self {
        let mut s = PermuteSpecs {
            j1: [0; N],
            j2: [0; N],
            rot: [0; N],
            scale: [1.0; N],
        };
        if lanes > 1 {
            let l = lanes as u32;
            for (x, g) in s.j1.iter_mut().zip(g.iter_mut()) {
                *x = g.next_below(l);
            }
            for (x, g) in s.j2.iter_mut().zip(g.iter_mut()) {
                *x = g.next_below(l);
            }
            for (x, g) in s.rot.iter_mut().zip(g.iter_mut()) {
                *x = g.next_below(l);
            }
        }
        if amp_ulps > 0.0 {
            for (x, g) in s.scale.iter_mut().zip(g.iter_mut()) {
                let u = (g.next_f64() as f32) * 2.0 - 1.0;
                *x = 1.0 + u * amp_ulps * f32::EPSILON;
            }
        }
        s
    }

    /// Scheduler draws one output's spec consumes (see
    /// [`PermuteSpecs::draw`]).
    fn draws(lanes: usize, amp_ulps: f32) -> u64 {
        3 * u64::from(lanes > 1) + u64::from(amp_ulps > 0.0)
    }
}

/// The accumulation plan for a batch of equal-length dot products (one
/// GEMM). See [`Reducer::plan_dots`].
///
/// The plan holds no per-output state. Under [`ReduceOrder::Permuted`]
/// the spec of the batch's *i*-th dot in reference call order is drawn on
/// demand by [`DotPlan::specs`]: SplitMix64 is a Weyl sequence, so that
/// spec's first draw sits exactly `i · draws_per_spec` draws past the
/// scheduler state the batch started from.
#[derive(Debug, Clone)]
pub(crate) struct DotPlan {
    /// The accumulation order the batch runs under.
    pub order: ReduceOrder,
    /// Effective lane count (`lanes.min(k_len.max(1))`), as
    /// [`Reducer::dot`] would clamp it.
    pub lanes: usize,
    /// Whether the amplified-noise multiplier is applied.
    pub amplified: bool,
    /// Number of dot products the plan was drawn for.
    pub count: usize,
    /// Width of the output-column groups the reference call order walks
    /// (see [`DotPlan::with_column_groups`]); `None` means whole rows.
    col_group: Option<usize>,
    /// Scheduler state before the batch's first draw.
    sched0: u64,
    /// Scheduler draws per output spec (0 for deterministic orders).
    draws_per_spec: u64,
    /// Amplification in ulps (0 = faithful order-only).
    amp_ulps: f32,
}

impl DotPlan {
    /// A plan with deterministic fixed-lane combination and no reducer
    /// involvement — used for gradient paths whose reference code uses a
    /// fixed `index % lanes` lane assignment with left-to-right combining
    /// (e.g. the conv input-gradient loop) rather than a [`Reducer`] call.
    pub fn fixed_lanes(lanes: usize) -> Self {
        DotPlan {
            order: ReduceOrder::FixedTree,
            lanes: lanes.clamp(1, MAX_LANES),
            amplified: false,
            count: 0,
            col_group: None,
            sched0: 0,
            draws_per_spec: 0,
            amp_ulps: 0.0,
        }
    }

    /// Declares that the reference computed the GEMM's outputs group by
    /// group: the output columns split into consecutive groups of `width`,
    /// and the reference ran all rows of one group before the next. Output
    /// `(i, j)` of an `m`-row GEMM is then dot number
    /// `(j / width)·m·width + i·width + j % width`. The batched conv
    /// forward uses this: its columns are `(sample, pixel)` pairs, and the
    /// reference ran one `[out_c, pixels]` GEMM per sample.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_column_groups(mut self, width: usize) -> Self {
        assert!(width > 0, "column group width must be positive");
        self.col_group = Some(width);
        self
    }

    /// The width of the column groups the reference call order walks in
    /// an `n`-column GEMM: `n` (whole rows) unless
    /// [`DotPlan::with_column_groups`] narrowed it.
    pub fn column_group(&self, n: usize) -> usize {
        self.col_group.unwrap_or(n)
    }

    /// The combine specs of the plan's dots number `idx[0], idx[1], …` (in
    /// reference call order): slot `q` holds what the `idx[q]`-th of
    /// `count` sequential [`Reducer::dot`] calls would draw. O(1) per
    /// output, and independent of which other specs were drawn, so tiles
    /// and threads may evaluate outputs in any order.
    #[inline(always)]
    pub fn specs<const N: usize>(&self, idx: &[usize; N]) -> PermuteSpecs<N> {
        let mut g: [SplitMix64; N] = core::array::from_fn(|q| {
            let mut g = SplitMix64::new(self.sched0);
            g.advance(idx[q] as u64 * self.draws_per_spec);
            g
        });
        PermuteSpecs::draw(&mut g, self.lanes, self.amp_ulps)
    }
}

impl Reducer {
    /// Plans `count` dot products of length `k_len`, advancing this
    /// reducer's state (invocation counter and — for
    /// [`ReduceOrder::Permuted`] — the scheduler RNG) exactly as `count`
    /// sequential [`Reducer::dot`] calls would.
    ///
    /// This is the bridge that keeps the blocked GEMM engine bit-identical
    /// to the per-element reference path: the plan records where the
    /// batch's scheduler draws start, so every output's combine order is
    /// fixed before the engine runs and the engine is free to reorder
    /// which outputs are computed when. It costs O(1) whatever `count` is:
    /// the RNG jumps over the batch's `count · draws_per_spec` draws.
    pub(crate) fn plan_dots(&mut self, count: usize, k_len: usize) -> DotPlan {
        self.invocations += count as u64;
        let lanes = self.lanes.min(k_len.max(1));
        let sched0 = self.sched.state();
        let draws_per_spec = if self.order == ReduceOrder::Permuted {
            PermuteSpecs::<1>::draws(lanes, self.amp_ulps)
        } else {
            0
        };
        self.sched
            .advance((count as u64).wrapping_mul(draws_per_spec));
        DotPlan {
            order: self.order,
            lanes,
            amplified: self.amp_ulps > 0.0,
            count,
            col_group: None,
            sched0,
            draws_per_spec,
            amp_ulps: self.amp_ulps,
        }
    }
}

/// Fixed-order (left-to-right) `f64` summation for aggregation and
/// reporting paths.
///
/// The fold starts at `+0.0`, so an empty or all-`-0.0` input sums to
/// `+0.0`. (`Iterator::sum` may start at `-0.0` instead and return
/// `-0.0` there; on every other input the two agree bit for bit.) The
/// point of routing through this function is that the evaluation order is
/// explicit and lives in the one module audited for it. detlint rule DL004
/// flags ad-hoc float reductions and exempts this module, so every float
/// sum in the workspace is either a simulated-device [`Reducer`] call or
/// one of these ordered helpers.
pub fn sum_ordered_f64(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(0.0, |acc, x| acc + x)
}

/// Fixed-order (left-to-right) `f32` summation. See [`sum_ordered_f64`].
pub fn sum_ordered_f32(xs: impl IntoIterator<Item = f32>) -> f32 {
    xs.into_iter().fold(0.0, |acc, x| acc + x)
}

/// Neumaier-compensated fixed-order `f64` summation.
///
/// Still order-fixed and deterministic, but with an error bound independent
/// of length — use it when aggregating across many replicas where naive
/// accumulation error would rival the run-to-run deviations being measured.
pub fn sum_compensated_f64(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0f64;
    let mut comp = 0.0f64;
    for x in xs {
        let t = sum + x;
        comp += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + comp
}

#[cfg(test)]
// Tests assert exact float values: bit-identical replay is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (((i * 2654435761) % 1000) as f32 - 500.0) * 1.7e-3)
            .collect()
    }

    #[test]
    fn sequential_matches_iter_sum() {
        let xs = data(100);
        let mut r = Reducer::sequential();
        assert_eq!(r.sum(&xs), xs.iter().sum::<f32>());
    }

    #[test]
    fn fixed_tree_is_bitwise_stable() {
        let xs = data(10_000);
        let mut r1 = Reducer::new(ReduceOrder::FixedTree, 48, 1);
        let mut r2 = Reducer::new(ReduceOrder::FixedTree, 48, 99);
        // Different scheduler seeds, same result: seed must be irrelevant.
        assert_eq!(r1.sum(&xs).to_bits(), r2.sum(&xs).to_bits());
        // And stable across repeated calls.
        assert_eq!(r1.sum(&xs).to_bits(), r1.sum(&xs).to_bits());
    }

    #[test]
    fn permuted_differs_across_calls_sometimes() {
        let xs = data(4096);
        let mut r = Reducer::new(ReduceOrder::Permuted, 48, 7);
        let first = r.sum(&xs);
        let mut any_diff = false;
        for _ in 0..64 {
            if r.sum(&xs).to_bits() != first.to_bits() {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "permuted reduction never changed in 64 calls");
    }

    #[test]
    fn permuted_error_is_ulp_scale() {
        let xs = data(4096);
        let exact: f64 = xs.iter().map(|&x| x as f64).sum();
        let mut r = Reducer::new(ReduceOrder::Permuted, 48, 7);
        for _ in 0..100 {
            let s = r.sum(&xs) as f64;
            // Accumulation error of a 4096-element f32 sum is bounded well
            // below 1e-3 for these magnitudes.
            assert!((s - exact).abs() < 1e-3, "error too large: {}", s - exact);
        }
    }

    #[test]
    fn all_orders_agree_to_f32_tolerance() {
        let xs = data(2000);
        let exact: f64 = xs.iter().map(|&x| x as f64).sum();
        for order in [
            ReduceOrder::Sequential,
            ReduceOrder::FixedTree,
            ReduceOrder::Permuted,
        ] {
            let mut r = Reducer::new(order, 32, 3);
            let s = r.sum(&xs) as f64;
            assert!((s - exact).abs() < 1e-3, "{order:?} error {}", s - exact);
        }
    }

    #[test]
    fn dot_matches_reference() {
        let a = data(512);
        let b: Vec<f32> = data(512).iter().map(|x| x * 0.5 + 0.1).collect();
        let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
        for order in [
            ReduceOrder::Sequential,
            ReduceOrder::FixedTree,
            ReduceOrder::Permuted,
        ] {
            let mut r = Reducer::new(order, 32, 3);
            let d = r.dot(&a, &b) as f64;
            assert!((d - exact).abs() < 1e-3, "{order:?} error {}", d - exact);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_length_mismatch() {
        Reducer::sequential().dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn sum_strided_matches_dense() {
        let xs = data(300);
        let mut r = Reducer::new(ReduceOrder::FixedTree, 16, 0);
        // Sum every third element starting at 1.
        let dense: Vec<f32> = xs.iter().skip(1).step_by(3).copied().collect();
        let a = r.sum_strided(&xs, 1, 3, dense.len());
        let b = r.sum(&dense);
        assert!((a - b).abs() < 1e-5);
    }

    #[test]
    fn empty_inputs_sum_to_zero() {
        for order in [
            ReduceOrder::Sequential,
            ReduceOrder::FixedTree,
            ReduceOrder::Permuted,
        ] {
            let mut r = Reducer::new(order, 32, 1);
            assert_eq!(r.sum(&[]), 0.0);
            assert_eq!(r.dot(&[], &[]), 0.0);
            assert_eq!(r.sum_strided(&[], 0, 1, 0), 0.0);
        }
    }

    #[test]
    fn lanes_are_clamped() {
        assert_eq!(Reducer::new(ReduceOrder::FixedTree, 0, 0).lanes(), 1);
        assert_eq!(
            Reducer::new(ReduceOrder::FixedTree, 10_000, 0).lanes(),
            MAX_LANES
        );
    }

    #[test]
    fn amplification_respected_only_by_permuted() {
        let xs = data(128);
        let mut det = Reducer::new(ReduceOrder::FixedTree, 16, 5).with_amplification(1e6);
        assert_eq!(det.sum(&xs).to_bits(), det.sum(&xs).to_bits());
        let mut nd1 = Reducer::new(ReduceOrder::Permuted, 16, 5).with_amplification(1e6);
        let mut nd2 = Reducer::new(ReduceOrder::Permuted, 16, 6).with_amplification(1e6);
        assert_ne!(nd1.sum(&xs).to_bits(), nd2.sum(&xs).to_bits());
    }

    #[test]
    #[should_panic(expected = "bad amplification")]
    fn negative_amplification_panics() {
        Reducer::sequential().with_amplification(-1.0);
    }

    #[test]
    fn snapshot_restore_resumes_permuted_stream() {
        let xs = data(512);
        let mut r = Reducer::new(ReduceOrder::Permuted, 32, 11);
        for _ in 0..5 {
            r.sum(&xs);
        }
        let snap = r.snapshot();
        let ahead: Vec<u32> = (0..8).map(|_| r.sum(&xs).to_bits()).collect();
        let mut fresh = Reducer::new(ReduceOrder::Permuted, 32, 0);
        fresh.restore(snap);
        let replayed: Vec<u32> = (0..8).map(|_| fresh.sum(&xs).to_bits()).collect();
        assert_eq!(ahead, replayed);
        assert_eq!(fresh.invocations(), r.invocations());
    }

    #[test]
    fn inject_nan_poisons_exactly_one_reduction() {
        let xs = data(64);
        let mut r = Reducer::new(ReduceOrder::Permuted, 16, 3);
        let mut clean = r.clone();
        r.inject_nan();
        assert!(r.sum(&xs).is_nan());
        // One-shot: the next call is clean again (though the scheduler
        // stream has not advanced for the poisoned call).
        assert!(!r.sum(&xs).is_nan());
        // The poisoned call consumed no scheduler state.
        assert_eq!(clean.sum(&xs).to_bits(), {
            let mut r2 = Reducer::new(ReduceOrder::Permuted, 16, 3);
            r2.inject_nan();
            r2.sum(&[]);
            r2.sum(&xs).to_bits()
        });
    }

    #[test]
    fn restore_clears_poison() {
        let mut r = Reducer::new(ReduceOrder::FixedTree, 8, 0);
        let snap = r.snapshot();
        r.inject_nan();
        r.restore(snap);
        assert!(!r.sum(&[1.0, 2.0]).is_nan());
    }

    #[test]
    fn invocation_counter_increments() {
        let mut r = Reducer::sequential();
        r.sum(&[1.0]);
        r.dot(&[1.0], &[2.0]);
        r.sum_strided(&[1.0, 2.0], 0, 1, 2);
        assert_eq!(r.invocations(), 3);
    }

    #[test]
    fn plan_dots_advances_like_sequential_dots() {
        let (a, b) = (data(20), data(20));
        for order in [
            ReduceOrder::Sequential,
            ReduceOrder::FixedTree,
            ReduceOrder::Permuted,
        ] {
            for lanes in [1, 3, 40] {
                for amp in [0.0, 512.0] {
                    for count in [0, 1, 7, 1000] {
                        let base = Reducer::new(order, lanes, 0xDEAD_BEEF).with_amplification(amp);
                        let mut planned = base.clone();
                        planned.plan_dots(count, a.len());
                        let mut stepped = base.clone();
                        for _ in 0..count {
                            stepped.dot(&a, &b);
                        }
                        let what = format!("{order:?} lanes={lanes} amp={amp} count={count}");
                        assert_eq!(planned.snapshot(), stepped.snapshot(), "{what}");
                        assert_eq!(planned.invocations(), count as u64, "{what}");
                        if order != ReduceOrder::Permuted || (lanes == 1 && amp == 0.0) {
                            // No draws at all: the stream is untouched.
                            assert_eq!(planned.snapshot().sched_state, 0xDEAD_BEEF, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn plan_specs_match_sequential_draws() {
        // Spec `i` of a plan is what the `i`-th of a run of sequential
        // combines draws from one stream, whichever specs are asked for
        // and in whatever order.
        for (lanes, amp) in [(1, 512.0f32), (5, 0.0), (40, 512.0)] {
            let mut planner =
                Reducer::new(ReduceOrder::Permuted, lanes, 99).with_amplification(amp);
            let plan = planner.plan_dots(64, 100);
            let mut stream = SplitMix64::new(99);
            let l = lanes as u32;
            let expected: Vec<[u32; 4]> = (0..64)
                .map(|_| {
                    let mut spec = [0, 0, 0, 1f32.to_bits()];
                    if l > 1 {
                        for x in &mut spec[..3] {
                            *x = stream.next_below(l);
                        }
                    }
                    if amp > 0.0 {
                        let u = (stream.next_f64() as f32) * 2.0 - 1.0;
                        spec[3] = (1.0 + u * amp * f32::EPSILON).to_bits();
                    }
                    spec
                })
                .collect();
            let idx: [usize; 4] = [63, 0, 17, 17];
            let got = plan.specs(&idx);
            for (q, &i) in idx.iter().enumerate() {
                let spec = [got.j1[q], got.j2[q], got.rot[q], got.scale[q].to_bits()];
                assert_eq!(spec, expected[i], "lanes={lanes} amp={amp} spec {i}");
            }
            assert_eq!(stream.state(), planner.snapshot().sched_state);
        }
    }

    #[test]
    fn deterministic_flag() {
        assert!(ReduceOrder::Sequential.is_deterministic());
        assert!(ReduceOrder::FixedTree.is_deterministic());
        assert!(!ReduceOrder::Permuted.is_deterministic());
    }

    #[test]
    fn signed_zero_sums_agree_across_entry_points() {
        // All three entry points start from +0.0, so a sum of nothing or
        // of negative zeros is +0.0 whichever one computes it.
        let neg = [-0.0f32; 5];
        let ones = [1.0f32; 5];
        for order in [
            ReduceOrder::Sequential,
            ReduceOrder::FixedTree,
            ReduceOrder::Permuted,
        ] {
            let mut r = Reducer::new(order, 4, 9);
            for (xs, ys) in [(&neg[..], &ones[..]), (&[][..], &[][..])] {
                let n = xs.len();
                let bits = [
                    r.sum(xs).to_bits(),
                    r.sum_strided(xs, 0, 1, n).to_bits(),
                    r.dot(xs, ys).to_bits(),
                ];
                assert_eq!(bits, [0.0f32.to_bits(); 3], "{order:?} n={n}");
            }
        }
    }

    #[test]
    fn ordered_sums_are_bit_identical_to_iter_sum() {
        let xs: Vec<f64> = data(1000).iter().map(|&x| x as f64).collect();
        assert_eq!(
            sum_ordered_f64(xs.iter().copied()).to_bits(),
            xs.iter().sum::<f64>().to_bits()
        );
        let ys = data(1000);
        assert_eq!(
            sum_ordered_f32(ys.iter().copied()).to_bits(),
            ys.iter().sum::<f32>().to_bits()
        );
    }

    #[test]
    fn compensated_sum_survives_cancellation() {
        let xs = [1e16, 1.0, -1e16];
        assert_eq!(sum_compensated_f64(xs.iter().copied()), 1.0);
        // Naive order loses the 1.0 entirely.
        assert_eq!(sum_ordered_f64(xs.iter().copied()), 0.0);
    }
}
