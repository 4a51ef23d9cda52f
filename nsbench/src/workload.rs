//! The three benchmark workloads, as the `repro` invocations they stand
//! for. `run.py` holds the command lines; this module holds what the
//! probes need to replay and size them through the library.

use hwsim::Device;
use noisescope::prelude::*;
use noisescope::runner::PreparedTask;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro --exp fig2`: SmallCNN ±BN on V100, in process.
    Fig2Quick,
    /// `repro --exp fig5 --fleet 2`: MicroResNet18 on five accelerators,
    /// one worker process per replica.
    Fig5Fleet,
    /// `repro --exp fig6`: SmallCNN on the TPU at three batch sizes.
    Fig6Tpu,
}

/// Base epochs of the fig6 arms (batch 16, 64 and full batch). Mirrors
/// `noisescope::experiments::ordering::fig6`, which keeps them private.
const FIG6_EPOCHS: [u32; 3] = [30, 60, 300];

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [Workload::Fig2Quick, Workload::Fig5Fleet, Workload::Fig6Tpu];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name, as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Quick => "fig2-quick",
            Workload::Fig5Fleet => "fig5-fleet",
            Workload::Fig6Tpu => "fig6-tpu",
        }
    }

    /// The tasks the invocation prepares, in order.
    pub fn tasks(self) -> Vec<TaskSpec> {
        match self {
            Workload::Fig2Quick => vec![
                TaskSpec::small_cnn_cifar10(),
                TaskSpec::small_cnn_bn_cifar10(),
            ],
            Workload::Fig5Fleet => vec![TaskSpec::resnet18_cifar100()],
            // fig6 trains this task's data with its own schedule and epochs.
            Workload::Fig6Tpu => vec![TaskSpec::small_cnn_cifar10()],
        }
    }

    /// The devices of the workload's grid.
    pub fn devices(self) -> Vec<Device> {
        match self {
            Workload::Fig2Quick => vec![Device::v100()],
            Workload::Fig5Fleet => vec![
                Device::p100(),
                Device::v100(),
                Device::rtx5000(),
                Device::rtx5000_tensor_cores(),
                Device::tpu_v2(),
            ],
            Workload::Fig6Tpu => vec![Device::tpu_v2()],
        }
    }

    /// Replica executions one invocation attempts.
    pub fn replicas(self, settings: &ExperimentSettings) -> u64 {
        let cells = match self {
            Workload::Fig6Tpu => FIG6_EPOCHS.len(),
            _ => self.tasks().len() * self.devices().len() * NoiseVariant::MEASURED.len(),
        };
        cells as u64 * settings.replicas as u64
    }

    /// Training samples one invocation processes: Σ over replicas of
    /// epochs × training-set size.
    pub fn train_samples(self, settings: &ExperimentSettings, prepared: &[PreparedTask]) -> u64 {
        let mut total = 0u64;
        for p in prepared {
            let n = p.train_set().len() as u64;
            let per_replica = match self {
                Workload::Fig6Tpu => FIG6_EPOCHS
                    .iter()
                    .map(|&e| settings.scale_epochs(e) as u64 * n)
                    .sum::<u64>(),
                _ => {
                    let cells = self.devices().len() * NoiseVariant::MEASURED.len();
                    cells as u64 * p.spec.train_config(settings).epochs as u64 * n
                }
            };
            total += per_replica * settings.replicas as u64;
        }
        total
    }
}
