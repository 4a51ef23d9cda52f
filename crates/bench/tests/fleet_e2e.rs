//! End-to-end resilience tests for the fleet supervisor driving the real
//! `repro --worker` binary (via `CARGO_BIN_EXE_repro`).
//!
//! The properties under test are the fleet contract:
//!
//! - process-isolated replicas are **bit-identical** to in-process
//!   [`run_variant`] runs, including after watchdog kills and
//!   checkpoint-resumed retries;
//! - hung workers (chaos [`FaultKind::Hang`]) are killed by the heartbeat
//!   watchdog and re-dispatched;
//! - aborting workers (chaos [`FaultKind::Abort`], a real
//!   `std::process::abort`) are classified as signal deaths and
//!   re-dispatched;
//! - an exhausted retry budget degrades into failed [`ReplicaStatus`]
//!   entries and an `[INCOMPLETE ...]` report — never a supervisor error;
//! - a grid of cells on one pool of 1 or 3 worker processes equals each
//!   cell run on its own, results, statuses and manifests alike.

use hwsim::chaos::ChaosConfig;
use noisescope::prelude::*;
use std::path::PathBuf;

fn tiny_task() -> TaskSpec {
    let mut t = TaskSpec::small_cnn_cifar10();
    t.data = DataSource::Gaussian(nsdata::GaussianSpec {
        classes: 2,
        train_per_class: 4,
        test_per_class: 2,
        ..nsdata::GaussianSpec::cifar10_sim()
    });
    t.train.epochs = 1;
    t.augment = false;
    t
}

/// Fleet options pointing at the real worker binary.
fn repro_fleet() -> FleetOptions {
    FleetOptions {
        procs: 2,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_repro"))),
        ..FleetOptions::default()
    }
}

/// A chaos schedule with `hangs`/`aborts` faults per replica and nothing
/// else. Transient (non-persistent) unless stated otherwise: faults fire
/// on attempt 0 only, so retries run clean.
fn chaos(hangs: u32, aborts: u32, hang_ms: u32, persistent: bool) -> ChaosConfig {
    ChaosConfig {
        seed: 1234,
        launch_failures: 0,
        kernel_panics: 0,
        nan_poisons: 0,
        hangs,
        aborts,
        hang_ms,
        persistent,
    }
}

struct Scratch(CheckpointStore);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("noisescope-fleet-e2e-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(CheckpointStore::new(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(self.0.root()).ok();
    }
}

/// Asserts two fleets produced bit-for-bit identical replica results
/// (float fields compared via `to_bits`, never `==`).
fn assert_bit_identical(fleet: &VariantRuns, golden: &VariantRuns) {
    assert_eq!(fleet.results.len(), golden.results.len(), "replica count");
    for (f, g) in fleet.results.iter().zip(&golden.results) {
        assert_eq!(f.replica, g.replica);
        assert_eq!(
            f.accuracy.to_bits(),
            g.accuracy.to_bits(),
            "accuracy of replica {}",
            f.replica
        );
        assert_eq!(
            f.final_train_loss.to_bits(),
            g.final_train_loss.to_bits(),
            "final loss of replica {}",
            f.replica
        );
        assert_eq!(f.weights.len(), g.weights.len());
        assert!(
            f.weights
                .iter()
                .zip(&g.weights)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "weights of replica {} diverge",
            f.replica
        );
        assert_eq!(f.preds, g.preds, "predictions of replica {}", f.replica);
    }
}

#[test]
fn fleet_run_is_bit_identical_to_in_process() {
    let scratch = Scratch::new("plain");
    let prepared = PreparedTask::prepare(&tiny_task());
    let settings = ExperimentSettings {
        replicas: 2,
        worker_timeout_ms: 60_000,
        ..ExperimentSettings::default()
    };
    let fleet = run_variant_fleet(
        &prepared,
        &Device::cpu(),
        NoiseVariant::AlgoImpl,
        &settings,
        &scratch.0,
        1,
        &repro_fleet(),
    )
    .expect("fleet run");
    assert!(fleet.statuses.iter().all(|s| *s == ReplicaStatus::Ok));

    let golden = run_variant(&prepared, &Device::cpu(), NoiseVariant::AlgoImpl, &settings);
    assert_bit_identical(&fleet, &golden);
}

#[test]
fn hung_worker_is_watchdog_killed_retried_and_bit_identical() {
    let scratch = Scratch::new("hang");
    let prepared = PreparedTask::prepare(&tiny_task());
    // Every replica hangs 120 s mid-step on attempt 0 — far beyond the
    // 8 s heartbeat timeout — so the watchdog must kill and re-dispatch.
    let settings = ExperimentSettings {
        replicas: 2,
        retry_budget: 2,
        worker_timeout_ms: 8_000,
        chaos: Some(chaos(1, 0, 120_000, false)),
        ..ExperimentSettings::default()
    };
    let fleet = run_variant_fleet(
        &prepared,
        &Device::cpu(),
        NoiseVariant::AlgoImpl,
        &settings,
        &scratch.0,
        1,
        &repro_fleet(),
    )
    .expect("fleet run survives hung workers");
    for s in &fleet.statuses {
        assert!(
            matches!(s, ReplicaStatus::Retried { attempts } if *attempts >= 2),
            "hung replicas must be retried, got {s:?}"
        );
    }

    // Golden: the same experiment in-process with no chaos at all.
    let clean = ExperimentSettings {
        chaos: None,
        ..settings
    };
    let golden = run_variant(&prepared, &Device::cpu(), NoiseVariant::AlgoImpl, &clean);
    assert_bit_identical(&fleet, &golden);
}

#[test]
fn aborting_worker_is_classified_as_signal_retried_and_bit_identical() {
    let scratch = Scratch::new("abort");
    let prepared = PreparedTask::prepare(&tiny_task());
    // Every replica calls std::process::abort() mid-step on attempt 0.
    let settings = ExperimentSettings {
        replicas: 2,
        retry_budget: 2,
        worker_timeout_ms: 60_000,
        chaos: Some(chaos(0, 1, 0, false)),
        ..ExperimentSettings::default()
    };
    let fleet = run_variant_fleet(
        &prepared,
        &Device::cpu(),
        NoiseVariant::AlgoImpl,
        &settings,
        &scratch.0,
        1,
        &repro_fleet(),
    )
    .expect("fleet run survives aborting workers");
    for s in &fleet.statuses {
        assert!(
            matches!(s, ReplicaStatus::Retried { attempts } if *attempts >= 2),
            "aborted replicas must be retried, got {s:?}"
        );
    }

    let clean = ExperimentSettings {
        chaos: None,
        ..settings
    };
    let golden = run_variant(&prepared, &Device::cpu(), NoiseVariant::AlgoImpl, &clean);
    assert_bit_identical(&fleet, &golden);
}

#[test]
fn exhausted_retry_budget_degrades_into_incomplete_report() {
    let scratch = Scratch::new("exhaust");
    let prepared = PreparedTask::prepare(&tiny_task());
    // Persistent aborts: every attempt of every replica dies, so the
    // budget must exhaust. The supervisor must degrade, not error.
    let settings = ExperimentSettings {
        replicas: 2,
        retry_budget: 1,
        worker_timeout_ms: 60_000,
        chaos: Some(chaos(0, 1, 0, true)),
        ..ExperimentSettings::default()
    };
    let fleet = run_variant_fleet(
        &prepared,
        &Device::cpu(),
        NoiseVariant::AlgoImpl,
        &settings,
        &scratch.0,
        1,
        &repro_fleet(),
    )
    .expect("an exhausted budget is a degraded result, not an error");
    assert!(fleet.results.is_empty(), "no replica can finish");
    assert_eq!(fleet.statuses.len(), 2);
    for s in &fleet.statuses {
        assert!(
            matches!(s, ReplicaStatus::Crashed { reason } if reason.contains("2 attempts")),
            "persistent aborts must exhaust into Crashed, got {s:?}"
        );
    }

    let report = stability_report(&prepared, &Device::cpu(), NoiseVariant::AlgoImpl, &fleet);
    let line = report.summary_line();
    assert!(
        line.contains("[INCOMPLETE"),
        "summary must flag the incomplete fleet: {line}"
    );
}

#[test]
fn process_grid_equals_each_cell_run_alone() {
    let mut bn = tiny_task();
    bn.name = "tiny BN".into();
    bn.model = ModelKind::SmallCnn { with_bn: true };
    let prepared = PreparedTask::prepare_all(&[tiny_task(), bn]);
    let devices = [Device::cpu(), Device::v100()];
    let two = ExperimentSettings {
        replicas: 2,
        worker_timeout_ms: 60_000,
        ..ExperimentSettings::default()
    };
    let three = ExperimentSettings { replicas: 3, ..two };
    let cells = [
        GridCell {
            prepared: &prepared[0],
            device: &devices[0],
            variant: NoiseVariant::AlgoImpl,
            settings: &two,
        },
        GridCell {
            prepared: &prepared[1],
            device: &devices[1],
            variant: NoiseVariant::Impl,
            settings: &three,
        },
        GridCell {
            prepared: &prepared[1],
            device: &devices[0],
            variant: NoiseVariant::Control,
            settings: &two,
        },
    ];
    let manifests = |store: &CheckpointStore| -> Vec<String> {
        cells
            .iter()
            .map(|c| {
                let dir = store.cell_dir(&c.prepared.spec.name, c.device.name(), c.variant);
                std::fs::read_to_string(dir.join("manifest.txt")).expect("cell manifest")
            })
            .collect()
    };

    let reference = Scratch::new("grid-alone");
    let alone: Vec<VariantRuns> = cells
        .iter()
        .map(|c| {
            run_variant_fleet(
                c.prepared,
                c.device,
                c.variant,
                c.settings,
                &reference.0,
                1,
                &repro_fleet(),
            )
            .expect("one cell in worker processes")
        })
        .collect();
    for procs in [1, 3] {
        let scratch = Scratch::new(&format!("grid-{procs}"));
        let exec = Executor::Processes {
            store: scratch.0.clone(),
            checkpoint_every_epochs: 1,
            fleet: FleetOptions {
                procs,
                ..repro_fleet()
            },
        };
        let grid = run_grid(&cells, &exec).expect("grid in worker processes");
        assert_eq!(grid.len(), alone.len());
        for (g, a) in grid.iter().zip(&alone) {
            assert_eq!(g.variant, a.variant);
            assert_eq!(g.statuses, a.statuses, "statuses on {procs} workers");
            assert_bit_identical(g, a);
        }
        assert_eq!(
            manifests(&scratch.0),
            manifests(&reference.0),
            "{procs} workers"
        );
    }
}
