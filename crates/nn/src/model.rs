//! The network container.

use crate::layers::Layer;
use detrand::Philox;
use hwsim::ExecutionContext;
use nstensor::Tensor;

/// A sequential stack of layers.
///
/// # Example
///
/// ```
/// use detrand::{Philox, StreamId};
/// use hwsim::{Device, ExecutionContext, ExecutionMode};
/// use nnet::layers::{Dense, Relu};
/// use nnet::model::Network;
/// use nstensor::{Shape, Tensor};
///
/// let root = Philox::from_seed(1);
/// let mut rng = root.stream(StreamId::INIT.child(0));
/// let mut net = Network::new();
/// net.push(Dense::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(8, 2, &mut rng));
/// let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
/// let y = net.forward(Tensor::zeros(Shape::of(&[3, 4])), &mut exec, &root, 0, false);
/// assert_eq!(y.shape().dims(), &[3, 2]);
/// ```
#[derive(Debug, Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward pass through every layer.
    pub fn forward(
        &mut self,
        mut x: Tensor,
        exec: &mut ExecutionContext,
        algo: &Philox,
        step: u64,
        training: bool,
    ) -> Tensor {
        for layer in &mut self.layers {
            x = layer.forward(x, exec, algo, step, training);
        }
        x
    }

    /// Backward pass through every layer in reverse, storing each layer's
    /// parameter gradients. Nothing reads the gradient w.r.t. the
    /// network's input, so the first layer runs
    /// [`Layer::backward_discard_input_grad`].
    pub fn backward(&mut self, mut dy: Tensor, exec: &mut ExecutionContext) {
        if let Some((first, rest)) = self.layers.split_first_mut() {
            for layer in rest.iter_mut().rev() {
                dy = layer.backward(dy, exec);
            }
            first.backward_discard_input_grad(dy, exec);
        }
    }

    /// Visits every `(parameter, gradient)` pair.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Flattens every parameter into one vector (for weight-divergence
    /// measurements between replicas).
    pub fn flat_weights(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.visit_params(&mut |p, _| out.extend_from_slice(p.as_slice()));
        out
    }

    /// Visits every layer's state ([`Layer::visit_state`]).
    pub fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor, Option<&mut Tensor>)) {
        for layer in &mut self.layers {
            layer.visit_state(f);
        }
    }

    /// Flattens the full model state (parameters and buffers such as
    /// batch-norm running statistics): the model part of a checkpoint.
    pub fn state(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_state(&mut |t, _| out.extend_from_slice(t.as_slice()));
        out
    }

    /// Overwrites the full model state from a vector produced by
    /// [`Network::state`] (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns the expected length when `flat` does not match the
    /// network's state size; the network is left untouched.
    pub fn set_state(&mut self, flat: &[f32]) -> Result<(), usize> {
        let expected = self.state().len();
        if flat.len() != expected {
            return Err(expected);
        }
        let mut offset = 0usize;
        self.visit_state(&mut |t, _| {
            let n = t.len();
            t.as_mut_slice().copy_from_slice(&flat[offset..offset + n]);
            offset += n;
        });
        Ok(())
    }

    /// Euclidean norm of all weights.
    pub fn weight_norm(&mut self) -> f64 {
        let mut s = 0f64;
        self.visit_params(&mut |p, _| {
            s += nstensor::reduce::sum_ordered_f64(
                p.as_slice().iter().map(|&v| (v as f64) * (v as f64)),
            );
        });
        s.sqrt()
    }

    /// The kinds of the layers, in order.
    pub fn layer_kinds(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.kind()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::loss::softmax_cross_entropy;
    use crate::zoo;
    use detrand::StreamId;
    use hwsim::{Device, ExecutionMode};
    use nstensor::Shape;

    fn mlp(seed: u64) -> (Network, Philox) {
        let root = Philox::from_seed(seed);
        let mut rng = root.stream(StreamId::INIT.child(0));
        let mut net = Network::new();
        net.push(Dense::new(3, 5, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(5, 2, &mut rng));
        (net, root)
    }

    #[test]
    fn forward_backward_shapes() {
        let (mut net, root) = mlp(1);
        let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
        let y = net.forward(
            Tensor::full(Shape::of(&[4, 3]), 0.5),
            &mut exec,
            &root,
            0,
            true,
        );
        assert_eq!(y.shape().dims(), &[4, 2]);
        // `Network::backward` drops the input gradient; the first layer's
        // own `Dense::backward` still returns it.
        let mut dy = Tensor::full(Shape::of(&[4, 2]), 1.0);
        for layer in net.layers.iter_mut().rev() {
            dy = layer.backward(dy, &mut exec);
        }
        assert_eq!(dy.shape().dims(), &[4, 3]);
    }

    /// Every `(parameter, gradient)` pair's gradient bits, in visit order.
    fn grad_bits(net: &mut Network) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        net.visit_params(&mut |_, g| out.push(g.as_slice().iter().map(|v| v.to_bits()).collect()));
        out
    }

    /// After one forward, `Network::backward` — whose first layer may skip
    /// its input gradient — leaves every parameter gradient and every
    /// reducer bit-identical to a reverse chain of `Layer::backward` calls
    /// that still computes layer 0's input gradient.
    fn assert_first_layer_skip_is_invisible(
        build: impl Fn() -> (Network, Philox),
        x: Tensor,
        exec: ExecutionContext,
        what: &str,
    ) {
        let n = x.shape().dim(0);
        let labels: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let mut runs = Vec::new();
        for full_chain in [false, true] {
            let (mut net, root) = build();
            let mut exec = exec.clone();
            let logits = net.forward(x.clone(), &mut exec, &root, 0, true);
            let (_, dl) = softmax_cross_entropy(&logits, &labels);
            if full_chain {
                let mut dy = dl;
                for layer in net.layers.iter_mut().rev() {
                    dy = layer.backward(dy, &mut exec);
                }
                assert_eq!(dy.shape(), x.shape(), "{what}: input gradient shape");
            } else {
                net.backward(dl, &mut exec);
            }
            runs.push((grad_bits(&mut net), exec.snapshot()));
        }
        assert!(runs[0].0 == runs[1].0, "{what}: parameter gradients differ");
        assert_eq!(runs[0].1, runs[1].1, "{what}: reducer state differs");
    }

    #[test]
    fn first_layer_skip_matches_full_backward_chain() {
        let tpu = ExecutionContext::new(Device::tpu_v2(), ExecutionMode::Default, 5);
        let v100 = ExecutionContext::builder(Device::v100())
            .mode(ExecutionMode::Default)
            .entropy(5)
            .amp_ulps(512.0)
            .build();
        let input = |n: usize, hw: usize| {
            let len = n * 3 * hw * hw;
            let data = (0..len)
                .map(|i| ((i * 37 % 101) as f32 / 101.0) - 0.5)
                .collect();
            Tensor::from_vec(Shape::of(&[n, 3, hw, hw]), data).unwrap()
        };
        for (device, exec) in [("tpu", &tpu), ("v100_default", &v100)] {
            let small_cnn = || {
                let root = Philox::from_seed(11);
                (zoo::small_cnn(12, 3, 3, true, &root), root)
            };
            let resnet = || {
                let root = Philox::from_seed(12);
                (zoo::micro_resnet18(8, 3, 3, &root), root)
            };
            assert_first_layer_skip_is_invisible(
                small_cnn,
                input(5, 12),
                exec.clone(),
                &format!("small_cnn/{device}"),
            );
            assert_first_layer_skip_is_invisible(
                resnet,
                input(4, 8),
                exec.clone(),
                &format!("micro_resnet18/{device}"),
            );
            // Dense first: its input gradient draws from `InputGrad`, so
            // it keeps computing it and the reducer states still agree.
            assert_first_layer_skip_is_invisible(
                || mlp(6),
                Tensor::from_vec(Shape::of(&[4, 3]), vec![0.25; 12]).unwrap(),
                exec.clone(),
                &format!("mlp/{device}"),
            );
        }
    }

    #[test]
    fn param_count_and_flat_weights_agree() {
        let (mut net, _) = mlp(2);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(net.flat_weights().len(), net.param_count());
    }

    #[test]
    fn same_seed_identical_weights() {
        let (mut a, _) = mlp(3);
        let (mut b, _) = mlp(3);
        assert_eq!(a.flat_weights(), b.flat_weights());
        let (mut c, _) = mlp(4);
        assert_ne!(a.flat_weights(), c.flat_weights());
    }

    #[test]
    fn layer_kinds_in_order() {
        let (net, _) = mlp(5);
        assert_eq!(net.layer_kinds(), vec!["dense", "relu", "dense"]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }
}
