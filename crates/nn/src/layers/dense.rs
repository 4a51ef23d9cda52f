//! The fully-connected layer.

use super::Layer;
use crate::init::Init;
use detrand::{Philox, StreamRng};
use hwsim::{ExecutionContext, OpClass};
use nstensor::{matmul_a_bt_ws, matmul_at_b_ws, matmul_ws, ops, Shape, Tensor, Workspace};

/// A dense (fully-connected) layer: `y = x·W + b` on `[N, in]` inputs.
#[derive(Debug)]
pub struct Dense {
    w: Tensor, // [in, out]
    b: Tensor, // [out]
    dw: Tensor,
    db: Tensor,
    cached_x: Option<Tensor>,
    /// Recycled scratch (transposes, packed GEMM panels) reused across
    /// training steps instead of re-allocated per call.
    ws: Workspace,
}

impl Dense {
    /// Creates the layer with Glorot-uniform weights drawn from `rng`.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StreamRng) -> Self {
        let w = Init::GlorotUniform.tensor(
            Shape::of(&[in_features, out_features]),
            in_features,
            out_features,
            rng,
        );
        let b = Init::SmallPositive.tensor(Shape::of(&[out_features]), 1, 1, rng);
        Self {
            dw: Tensor::zeros(w.shape()),
            db: Tensor::zeros(b.shape()),
            w,
            b,
            cached_x: None,
            ws: Workspace::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.w.shape().dim(0)
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.w.shape().dim(1)
    }

    /// Immutable view of the weights.
    pub fn weights(&self) -> &Tensor {
        &self.w
    }
}

impl Layer for Dense {
    fn forward(
        &mut self,
        x: Tensor,
        exec: &mut ExecutionContext,
        _algo: &Philox,
        _step: u64,
        training: bool,
    ) -> Tensor {
        let threads = exec.threads();
        let mut y = matmul_ws(
            &x,
            &self.w,
            exec.reducer(OpClass::MatmulForward),
            threads,
            &mut self.ws,
        )
        .expect("dense forward shape");
        ops::add_row_bias(&mut y, &self.b).expect("bias shape");
        if training {
            self.cached_x = Some(x);
        }
        y
    }

    fn backward(&mut self, dy: Tensor, exec: &mut ExecutionContext) -> Tensor {
        let x = self.cached_x.take().expect("backward before forward");
        let threads = exec.threads();
        // dW = xᵀ·dy — the cross-batch weight-gradient reduction.
        self.dw = matmul_at_b_ws(
            &x,
            &dy,
            exec.reducer(OpClass::WeightGrad),
            threads,
            &mut self.ws,
        )
        .expect("dense dW shape");
        self.db = ops::sum_rows(&dy, exec.reducer(OpClass::WeightGrad)).expect("dense db shape");
        // dx = dy·Wᵀ.
        matmul_a_bt_ws(
            &dy,
            &self.w,
            exec.reducer(OpClass::InputGrad),
            threads,
            &mut self.ws,
        )
        .expect("dense dx shape")
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor, Option<&mut Tensor>)) {
        f(&mut self.w, Some(&mut self.dw));
        f(&mut self.b, Some(&mut self.db));
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn kind(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::StreamId;
    use hwsim::{Device, ExecutionMode};

    fn make(inf: usize, outf: usize) -> (Dense, ExecutionContext, Philox) {
        let root = Philox::from_seed(3);
        let mut rng = root.stream(StreamId::INIT.child(0));
        (
            Dense::new(inf, outf, &mut rng),
            ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0),
            root,
        )
    }

    #[test]
    fn forward_shape_and_bias() {
        let (mut l, mut exec, root) = make(4, 3);
        let x = Tensor::zeros(Shape::of(&[2, 4]));
        let y = l.forward(x, &mut exec, &root, 0, false);
        // Zero input → output equals the bias (small positive constant).
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert!(y.as_slice().iter().all(|&v| (v - 0.01).abs() < 1e-7));
    }

    #[test]
    fn gradient_check() {
        let (mut l, mut exec, root) = make(3, 2);
        let x = Tensor::from_vec(Shape::of(&[2, 3]), vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]).unwrap();
        // L = Σ y² — dL/dy = 2y.
        let y = l.forward(x.clone(), &mut exec, &root, 0, true);
        let mut dy = y.clone();
        dy.scale(2.0);
        let dx = l.backward(dy, &mut exec);

        let mut loss = |l: &mut Dense, x: &Tensor| -> f64 {
            let y = l.forward(x.clone(), &mut exec, &root, 0, false);
            y.as_slice().iter().map(|&v| (v as f64).powi(2)).sum()
        };
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps as f64);
            let an = dx.as_slice()[i] as f64;
            assert!(
                (fd - an).abs() < 1e-2 * fd.abs().max(1.0),
                "dx[{i}] {fd} vs {an}"
            );
        }
    }

    #[test]
    fn accessors() {
        let (l, _, _) = make(5, 7);
        assert_eq!(l.in_features(), 5);
        assert_eq!(l.out_features(), 7);
        assert_eq!(l.param_count(), 42);
        assert_eq!(l.kind(), "dense");
    }
}
