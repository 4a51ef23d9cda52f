//! Network layers with hand-written forward/backward passes.
//!
//! Every accumulating operation inside a layer routes through the
//! [`hwsim::ExecutionContext`]'s reducer for the appropriate
//! [`hwsim::OpClass`], so that the executing device's accumulation-order
//! semantics (deterministic or not) apply to exactly the reductions real
//! hardware reorders: forward inner products, weight-gradient sums across
//! the batch, and batch-statistics.

mod activation;
mod conv;
mod dense;
mod norm;
mod pool;
mod residual;

pub use activation::{Dropout, Relu};
pub use conv::Conv2d;
pub use dense::Dense;
pub use norm::BatchNorm2d;
pub use pool::{Flatten, GlobalAvgPool, MaxPool2d};
pub use residual::{BottleneckBlock, ResidualBlock};

use detrand::Philox;
use hwsim::ExecutionContext;
use nstensor::Tensor;

/// A trainable network layer.
///
/// `forward` consumes the input and caches whatever the backward pass
/// needs; `backward` consumes the upstream gradient and returns the
/// downstream one, storing parameter gradients internally until the
/// optimizer collects them through [`Layer::visit_params`].
pub trait Layer: std::fmt::Debug {
    /// Forward pass.
    ///
    /// `algo` is the run's algorithmic-randomness root (consumed only by
    /// stochastic layers such as [`Dropout`]); `step` is the global
    /// training step (used to address per-step random streams); `training`
    /// selects train vs. inference behaviour (dropout, batch-norm stats).
    fn forward(
        &mut self,
        x: Tensor,
        exec: &mut ExecutionContext,
        algo: &Philox,
        step: u64,
        training: bool,
    ) -> Tensor;

    /// Backward pass: upstream gradient in, downstream gradient out.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, dy: Tensor, exec: &mut ExecutionContext) -> Tensor;

    /// Backward pass of a network's first layer, whose input gradient
    /// nothing reads: stores the same parameter gradients as
    /// [`Layer::backward`] and leaves the execution context in the same
    /// state. The default runs [`Layer::backward`] and drops the result.
    ///
    /// An override may skip the input gradient only if computing it
    /// neither borrows a reducer from `exec` nor draws from one; otherwise
    /// skipping it would shift the chaos op count or the scheduler state
    /// that every later reduction sees. [`Conv2d`] qualifies: its input
    /// gradient runs a stateless fixed-lane plan. [`Dense`] does not: its
    /// input gradient is an `InputGrad` GEMM, so it keeps the default.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward_discard_input_grad(&mut self, dy: Tensor, exec: &mut ExecutionContext) {
        drop(self.backward(dy, exec));
    }

    /// Visits every tensor the layer's output depends on, in a fixed
    /// order: `(parameter, Some(gradient))` for each trainable parameter
    /// and `(buffer, None)` for other state, such as batch-norm running
    /// statistics. Checkpoints save and restore through this visitor.
    fn visit_state(&mut self, _f: &mut dyn FnMut(&mut Tensor, Option<&mut Tensor>)) {}

    /// Visits `(parameter, gradient)` pairs for the optimizer: the
    /// trainable part of [`Layer::visit_state`].
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.visit_state(&mut |p, g| {
            if let Some(g) = g {
                f(p, g);
            }
        });
    }

    /// Total number of trainable scalars.
    fn param_count(&self) -> usize {
        0
    }

    /// Human-readable layer kind.
    fn kind(&self) -> &'static str;
}
