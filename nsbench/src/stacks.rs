//! SmallCNN and MicroResNet18 as explicit layer stacks.
//!
//! `nnet::Network` keeps its layers private, so the per-layer probes
//! rebuild the two trained architectures from the public `nnet::layers`
//! constructors, drawing initial weights from the same stream in the same
//! order as `nnet::zoo`. [`check_fidelity`] proves the rebuilt stacks are
//! bit-identical to the zoo networks, so a per-layer number always belongs
//! to the network the grids train.

use detrand::{Philox, StreamId};
use hwsim::{Device, ExecutionContext, ExecutionMode};
use nnet::layers::{
    BatchNorm2d, Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu, ResidualBlock,
};
use nnet::{zoo, Network};
use nstensor::{ConvGeometry, Shape, Tensor};

/// A sequential stack of layers whose members can be timed one by one.
pub type Stack = Vec<Box<dyn Layer>>;

/// The two architectures the workloads train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `zoo::small_cnn` without batch-norm, 12×12×3 input, 10 classes
    /// (the fig2 and fig6 task).
    SmallCnn,
    /// `zoo::micro_resnet18`, 8×8×3 input, 100 classes (the fig5 task).
    MicroResNet18,
}

impl Model {
    /// Both models.
    pub const ALL: [Model; 2] = [Model::SmallCnn, Model::MicroResNet18];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Model::SmallCnn => "small_cnn",
            Model::MicroResNet18 => "micro_resnet18",
        }
    }

    /// Input side length.
    pub fn hw(self) -> usize {
        match self {
            Model::SmallCnn => 12,
            Model::MicroResNet18 => 8,
        }
    }

    /// Output classes.
    pub fn classes(self) -> usize {
        match self {
            Model::SmallCnn => 10,
            Model::MicroResNet18 => 100,
        }
    }

    /// The layers the probes time, by stack index, with their metric names.
    pub fn probed_layers(self) -> &'static [(usize, &'static str)] {
        match self {
            Model::SmallCnn => &[
                (0, "l0_conv"),
                (3, "l3_conv"),
                (6, "l6_conv"),
                (9, "l9_dense"),
                (11, "l11_dense"),
            ],
            Model::MicroResNet18 => &[
                (0, "l0_conv"),
                (1, "l1_bn"),
                (3, "l3_res"),
                (4, "l4_res"),
                (5, "l5_res"),
                (7, "l7_dense"),
            ],
        }
    }

    /// The layer stack, initialised from `root` exactly as the zoo does.
    pub fn stack(self, root: &Philox) -> Stack {
        match self {
            Model::SmallCnn => small_cnn(self.hw(), 3, self.classes(), root),
            Model::MicroResNet18 => micro_resnet18(self.hw(), 3, self.classes(), root),
        }
    }

    /// The zoo network the grids train.
    pub fn network(self, root: &Philox) -> Network {
        match self {
            Model::SmallCnn => zoo::small_cnn(self.hw(), 3, self.classes(), false, root),
            Model::MicroResNet18 => zoo::micro_resnet18(self.hw(), 3, self.classes(), root),
        }
    }

    /// A deterministic input batch of `n` samples.
    pub fn batch(self, n: usize, seed: u64) -> Tensor {
        filled(Shape::of(&[n, 3, self.hw(), self.hw()]), seed)
    }
}

/// `zoo::small_cnn(hw, in_c, classes, false, root)`, layer by layer.
fn small_cnn(hw: usize, in_c: usize, classes: usize, root: &Philox) -> Stack {
    let mut rng = root.stream(StreamId::INIT.child(0));
    let mut stack: Stack = Vec::new();
    let (mut c_in, mut side) = (in_c, hw);
    for i in 0..3 {
        let geom = ConvGeometry::new(c_in, 16, 3, 1, 1, side, side);
        stack.push(Box::new(Conv2d::new(geom, &mut rng)));
        stack.push(Box::new(Relu::new()));
        if i < 2 {
            stack.push(Box::new(MaxPool2d::new(2)));
            side /= 2;
        }
        c_in = 16;
    }
    stack.push(Box::new(Flatten::new()));
    stack.push(Box::new(Dense::new(c_in * side * side, 32, &mut rng)));
    stack.push(Box::new(Relu::new()));
    stack.push(Box::new(Dense::new(32, classes, &mut rng)));
    stack
}

/// `zoo::micro_resnet18(hw, in_c, classes, root)`, layer by layer.
fn micro_resnet18(hw: usize, in_c: usize, classes: usize, root: &Philox) -> Stack {
    let mut rng = root.stream(StreamId::INIT.child(0));
    let stem = ConvGeometry::new(in_c, 8, 3, 1, 1, hw, hw);
    vec![
        Box::new(Conv2d::new(stem, &mut rng)),
        Box::new(BatchNorm2d::new(8, &mut rng)),
        Box::new(Relu::new()),
        Box::new(ResidualBlock::new(8, 8, 1, hw, hw, &mut rng)),
        Box::new(ResidualBlock::new(8, 16, 2, hw, hw, &mut rng)),
        Box::new(ResidualBlock::new(16, 32, 2, hw / 2, hw / 2, &mut rng)),
        Box::new(GlobalAvgPool::new()),
        Box::new(Dense::new(32, classes, &mut rng)),
    ]
}

/// Deterministic pseudo-random fill in `[-0.5, 0.5)`.
pub fn filled(shape: Shape, seed: u64) -> Tensor {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let data = (0..shape.len())
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(shape, data).expect("shape and data length agree")
}

/// Every parameter of a stack, flattened in `Network::flat_weights` order.
pub fn flat_weights(stack: &mut Stack) -> Vec<f32> {
    let mut out = Vec::new();
    for layer in stack.iter_mut() {
        layer.visit_params(&mut |p, _| out.extend_from_slice(p.as_slice()));
    }
    out
}

/// Forward pass through a whole stack.
pub fn forward(
    stack: &mut Stack,
    mut x: Tensor,
    exec: &mut ExecutionContext,
    root: &Philox,
    training: bool,
) -> Tensor {
    for layer in stack.iter_mut() {
        x = layer.forward(x, exec, root, 0, training);
    }
    x
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks that `model`'s stack, built from `seed`, matches its zoo
/// network bit for bit. See [`compare_with_zoo`].
pub fn check_fidelity(model: Model, seed: u64) -> Result<(), String> {
    compare_with_zoo(model, &mut model.stack(&Philox::from_seed(seed)), seed)
}

/// Compares `stack` with the zoo network of `model` built from `seed`:
/// the same flat weights, and the same logits for one batch in inference
/// and training mode under both reduction orders a V100 runs. Returns
/// what differed.
pub fn compare_with_zoo(model: Model, stack: &mut Stack, seed: u64) -> Result<(), String> {
    let root = Philox::from_seed(seed);
    let mut net = model.network(&root);
    if bits(&flat_weights(stack)) != bits(&net.flat_weights()) {
        return Err(format!("{}: weights differ from the zoo", model.name()));
    }
    for mode in [ExecutionMode::Deterministic, ExecutionMode::Default] {
        for training in [false, true] {
            let x = model.batch(8, seed);
            let mut exec_a = ExecutionContext::new(Device::v100(), mode, seed);
            let mut exec_b = ExecutionContext::new(Device::v100(), mode, seed);
            let a = forward(stack, x.clone(), &mut exec_a, &root, training);
            let b = net.forward(x, &mut exec_b, &root, 0, training);
            if bits(a.as_slice()) != bits(b.as_slice()) {
                return Err(format!(
                    "{}: logits differ from the zoo ({mode:?}, training={training})",
                    model.name()
                ));
            }
        }
    }
    Ok(())
}
