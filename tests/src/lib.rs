//! Shared fixtures for the NoiseScope integration tests.
//!
//! Everything here is sized for test speed: tiny datasets, one or two
//! epochs. The full-scale experiments live in the `repro` binary of
//! `ns-bench`.

use noisescope::prelude::*;
use nsdata::GaussianSpec;

/// A task small enough that a replica trains in well under a second.
pub fn tiny_task() -> TaskSpec {
    let mut t = TaskSpec::small_cnn_cifar10();
    t.data = DataSource::Gaussian(GaussianSpec {
        classes: 4,
        train_per_class: 16,
        test_per_class: 10,
        hw: 8,
        ..GaussianSpec::cifar10_sim()
    });
    t.train.epochs = 3;
    t.augment = false;
    t
}

/// A tiny residual-network task (exercises BN + residual paths).
pub fn tiny_resnet_task() -> TaskSpec {
    let mut t = TaskSpec::resnet18_cifar10();
    t.data = DataSource::Gaussian(GaussianSpec {
        classes: 4,
        train_per_class: 12,
        test_per_class: 8,
        hw: 8,
        ..GaussianSpec::cifar10_sim()
    });
    t.train.epochs = 2;
    t.augment = false;
    t
}

/// Two-replica settings for fast pairwise comparisons.
pub fn tiny_settings() -> ExperimentSettings {
    ExperimentSettings {
        replicas: 2,
        ..ExperimentSettings::default()
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of `xs`: the hash the
/// golden weight snapshots store.
pub fn fnv1a64_f32(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in xs.iter().flat_map(|x| x.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
