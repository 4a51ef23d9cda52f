//! Extension experiments beyond the paper's published figures.
//!
//! The paper's §6 names distributed training as the key open question
//! ("an important area of future work involves understanding how
//! distributed training impacts model stability"), and its §3.3 attributes
//! V100's higher implementation noise to its larger CUDA-core count.
//! The first two of these four experiments probe both claims directly in
//! the simulator; the other two split and widen the paper's ALGO and
//! architecture findings:
//!
//! - [`data_parallel_sweep`] — IMPL-only noise as the batch is sharded
//!   across 1..=8 simulated workers whose gradients are all-reduced in
//!   nondeterministic arrival order;
//! - [`lanes_sweep`] — IMPL-only noise as a synthetic GPU's core count
//!   (and therefore its independently-ordered accumulation-lane count)
//!   grows, isolating the parallelism → noise mechanism from all other
//!   architectural differences;
//! - [`algo_source_decomposition`] — ALGO noise split into its four
//!   sources (initialization, shuffling, augmentation, dropout);
//! - [`architecture_instability`] — ALGO+IMPL noise across four model
//!   families trained on the same dataset.

use crate::report::render_table;
use crate::runner::{run_variants, GridCell, PreparedTask};
use crate::settings::ExperimentSettings;
use crate::task::{ModelKind, TaskSpec};
use crate::variant::NoiseVariant;
use hwsim::{Architecture, Device};
use serde::{Deserialize, Serialize};

/// One point of the data-parallel extension sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataParallelPoint {
    /// Simulated worker count.
    pub workers: usize,
    /// IMPL-only pairwise churn.
    pub churn: f64,
    /// IMPL-only pairwise normalized weight L2.
    pub l2: f64,
    /// Mean test accuracy (sanity signal).
    pub mean_accuracy: f64,
}

/// Sweeps simulated data-parallel worker counts under IMPL-only noise.
pub fn data_parallel_sweep(settings: &ExperimentSettings) -> Vec<DataParallelPoint> {
    let device = Device::v100();
    let workers = [1usize, 2, 4, 8];
    let tasks: Vec<TaskSpec> = workers
        .iter()
        .map(|&w| {
            let mut task = TaskSpec::resnet18_cifar10();
            task.train.data_parallel_workers = w;
            task
        })
        .collect();
    let prepared = PreparedTask::prepare_all(&tasks);
    let cells: Vec<GridCell<'_>> = prepared
        .iter()
        .map(|prepared| GridCell {
            prepared,
            device: &device,
            variant: NoiseVariant::Impl,
            settings,
        })
        .collect();
    workers
        .into_iter()
        .zip(run_variants(&cells))
        .map(|(workers, runs)| DataParallelPoint {
            workers,
            churn: runs.churn(),
            l2: runs.l2(),
            mean_accuracy: nsmetrics::mean(&runs.accuracies()),
        })
        .collect()
}

/// One point of the accumulation-lane (parallelism) sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LanesPoint {
    /// Synthetic CUDA-core count.
    pub cuda_cores: u32,
    /// Effective accumulation lanes ([`Device::lanes`]).
    pub lanes: usize,
    /// IMPL-only pairwise churn.
    pub churn: f64,
    /// IMPL-only pairwise normalized weight L2.
    pub l2: f64,
}

/// Sweeps a synthetic GPU's core count under IMPL-only noise (everything
/// else — throughput model, architecture family — held fixed).
pub fn lanes_sweep(settings: &ExperimentSettings) -> Vec<LanesPoint> {
    let prepared = PreparedTask::prepare(&TaskSpec::small_cnn_cifar10());
    let devices: Vec<Device> = [640u32, 1280, 2560, 5120]
        .into_iter()
        .map(|cores| Device::custom("SWEEP-GPU", Architecture::Volta, cores, false, false, 14.9))
        .collect();
    let cells: Vec<GridCell<'_>> = devices
        .iter()
        .map(|device| GridCell {
            prepared: &prepared,
            device,
            variant: NoiseVariant::Impl,
            settings,
        })
        .collect();
    devices
        .iter()
        .zip(run_variants(&cells))
        .map(|(device, runs)| LanesPoint {
            cuda_cores: device.cuda_cores(),
            lanes: device.lanes(),
            churn: runs.churn(),
            l2: runs.l2(),
        })
        .collect()
}

/// Renders the data-parallel sweep.
pub fn render_data_parallel(points: &[DataParallelPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                format!("{:.4}", p.churn),
                format!("{:.4}", p.l2),
                format!("{:.2}%", 100.0 * p.mean_accuracy),
            ]
        })
        .collect();
    render_table(
        "Extension: IMPL noise vs simulated data-parallel workers (V100, ResNet18/CIFAR-10-sim)",
        &["Workers", "churn", "l2", "mean acc"],
        &rows,
    )
}

/// Renders the lanes sweep.
pub fn render_lanes(points: &[LanesPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.cuda_cores.to_string(),
                p.lanes.to_string(),
                format!("{:.4}", p.churn),
                format!("{:.4}", p.l2),
            ]
        })
        .collect();
    render_table(
        "Extension: IMPL noise vs accumulation-lane count (synthetic GPU sweep)",
        &["CUDA cores", "lanes", "churn", "l2"],
        &rows,
    )
}

/// One arm of the per-source ALGO decomposition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgoSourcePoint {
    /// The isolated source ("init", "shuffle", "augment", "dropout", "all").
    pub source: String,
    /// Pairwise churn across replicas varying only in this source.
    pub churn: f64,
    /// Pairwise normalized weight L2.
    pub l2: f64,
    /// Replicas that exhausted their retry budget; the metrics cover the
    /// rest.
    pub failed_replicas: Vec<u32>,
}

/// Decomposes ALGO noise into its four sources (paper Table 1): each arm
/// is one [`NoiseVariant`] that re-seeds a single source per replica —
/// initialization, data shuffling, augmentation, or dropout — and pins
/// the rest; "all" is [`NoiseVariant::AlgoImpl`]. The replicas run on the
/// deterministic TPU so no scheduler noise mixes in. (Shuffle-order arms
/// still pick up the data-order accumulation effect of Fig. 6; that is
/// intrinsic to varying the order.) Extends the framework in the
/// direction of Summers & Dinneen (2021), which the paper cites as the
/// per-source study.
pub fn algo_source_decomposition(settings: &ExperimentSettings) -> Vec<AlgoSourcePoint> {
    let mut task = TaskSpec::small_cnn_cifar10();
    task.model = ModelKind::SmallCnnDropout { rate: 0.2 };
    let prepared = PreparedTask::prepare(&task);
    let device = Device::tpu_v2();
    let arms = [
        ("init", NoiseVariant::InitOnly),
        ("shuffle", NoiseVariant::ShuffleOnly),
        ("augment", NoiseVariant::AugmentOnly),
        ("dropout", NoiseVariant::DropoutOnly),
        ("all", NoiseVariant::AlgoImpl),
    ];
    let cells: Vec<GridCell<'_>> = arms
        .iter()
        .map(|&(_, variant)| GridCell {
            prepared: &prepared,
            device: &device,
            variant,
            settings,
        })
        .collect();
    arms.iter()
        .zip(run_variants(&cells))
        .map(|(&(source, _), runs)| AlgoSourcePoint {
            source: source.to_string(),
            churn: runs.churn(),
            l2: runs.l2(),
            failed_replicas: runs.failed_replicas(),
        })
        .collect()
}

/// Renders the ALGO-source decomposition.
pub fn render_algo_sources(points: &[AlgoSourcePoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.source.clone(),
                format!("{:.4}", p.churn),
                format!("{:.4}", p.l2),
            ]
        })
        .collect();
    render_table(
        "Extension: per-source decomposition of ALGO noise (TPU, dropout small CNN)",
        &["Varied source", "churn", "l2"],
        &rows,
    )
}

/// One point of the architecture-instability comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArchInstabilityPoint {
    /// Model name.
    pub model: String,
    /// ALGO+IMPL pairwise churn.
    pub churn: f64,
    /// ALGO+IMPL accuracy stddev.
    pub std_accuracy: f64,
    /// Mean accuracy.
    pub mean_accuracy: f64,
}

/// Compares architecture families' instability under full (ALGO+IMPL)
/// noise on the same dataset — extends the paper's Fig. 1/2 observation
/// (model design moderates noise) to LeNet-5, which Pham et al. (ASE'20)
/// found to be the most variance-prone architecture across DL libraries,
/// next to the small CNN with and without batch-norm and MicroResNet18.
pub fn architecture_instability(settings: &ExperimentSettings) -> Vec<ArchInstabilityPoint> {
    let device = Device::v100();
    let models: [(&str, ModelKind); 4] = [
        ("LeNet5", ModelKind::LeNet5),
        ("SmallCNN", ModelKind::SmallCnn { with_bn: false }),
        ("SmallCNN+BN", ModelKind::SmallCnn { with_bn: true }),
        ("MicroResNet18", ModelKind::MicroResNet18),
    ];
    let tasks: Vec<TaskSpec> = models
        .iter()
        .map(|&(name, model)| {
            let mut task = TaskSpec::small_cnn_cifar10();
            task.name = name.to_string();
            task.model = model;
            task
        })
        .collect();
    let prepared = PreparedTask::prepare_all(&tasks);
    let cells: Vec<GridCell<'_>> = prepared
        .iter()
        .map(|prepared| GridCell {
            prepared,
            device: &device,
            variant: NoiseVariant::AlgoImpl,
            settings,
        })
        .collect();
    models
        .iter()
        .zip(run_variants(&cells))
        .map(|(&(name, _), runs)| ArchInstabilityPoint {
            model: name.to_string(),
            churn: runs.churn(),
            std_accuracy: nsmetrics::stddev(&runs.accuracies()),
            mean_accuracy: nsmetrics::mean(&runs.accuracies()),
        })
        .collect()
}

/// Renders the architecture-instability comparison.
pub fn render_architecture_instability(points: &[ArchInstabilityPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.model.clone(),
                format!("{:.4}", p.churn),
                format!("{:.3}", 100.0 * p.std_accuracy),
                format!("{:.2}%", 100.0 * p.mean_accuracy),
            ]
        })
        .collect();
    render_table(
        "Extension: architecture instability under ALGO+IMPL (same dataset, V100)",
        &["Model", "churn", "stddev(acc) %", "mean acc"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_variant;
    use crate::task::DataSource;
    use nsdata::GaussianSpec;

    #[test]
    fn data_parallel_training_still_learns_and_injects_noise() {
        // Direct check of the mechanism at tiny scale: sharded gradients
        // combined through a nondeterministic reducer diverge replicas.
        let mut task = TaskSpec::small_cnn_cifar10();
        task.data = DataSource::Gaussian(GaussianSpec {
            classes: 3,
            train_per_class: 16,
            test_per_class: 8,
            hw: 8,
            ..GaussianSpec::cifar10_sim()
        });
        task.train.epochs = 2;
        task.train.data_parallel_workers = 4;
        task.augment = false;
        let prepared = PreparedTask::prepare(&task);
        let settings = ExperimentSettings {
            replicas: 2,
            ..ExperimentSettings::default()
        };
        let runs = run_variant(&prepared, &Device::v100(), NoiseVariant::Impl, &settings);
        assert_ne!(runs.results[0].weights, runs.results[1].weights);
        // And the control stays exact even when sharded.
        let control = run_variant(&prepared, &Device::v100(), NoiseVariant::Control, &settings);
        assert_eq!(control.results[0].weights, control.results[1].weights);
    }

    #[test]
    fn sharded_and_unsharded_control_agree_on_learning() {
        // Sharding changes accumulation structure but must not change what
        // is learned in any material way (deterministic device).
        let mut task = TaskSpec::small_cnn_cifar10();
        task.data = DataSource::Gaussian(GaussianSpec {
            classes: 3,
            train_per_class: 16,
            test_per_class: 8,
            hw: 8,
            ..GaussianSpec::cifar10_sim()
        });
        task.train.epochs = 2;
        task.augment = false;
        let settings = ExperimentSettings {
            replicas: 1,
            ..ExperimentSettings::default()
        };
        let single = {
            let prepared = PreparedTask::prepare(&task);
            crate::runner::run_replica(
                &prepared,
                &Device::tpu_v2(),
                NoiseVariant::Control,
                &settings,
                0,
            )
            .expect("single-device control replica")
        };
        task.train.data_parallel_workers = 4;
        let sharded = {
            let prepared = PreparedTask::prepare(&task);
            crate::runner::run_replica(
                &prepared,
                &Device::tpu_v2(),
                NoiseVariant::Control,
                &settings,
                0,
            )
            .expect("sharded control replica")
        };
        // Not bitwise equal (different reduction structure), but the
        // learned functions must be close.
        let l2 = nsmetrics::l2_normalized(&single.weights, &sharded.weights);
        assert!(
            l2 < 0.5,
            "sharded training diverged from single-device: {l2}"
        );
    }
}
