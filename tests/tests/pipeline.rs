//! Cross-crate pipeline tests: dataset generators → training stack →
//! metrics, exercising paths the per-crate unit tests cannot reach.

use detrand::Philox;
use hwsim::{Device, ExecutionContext, ExecutionMode};
use nnet::trainer::{predict_classes, AlgoRoots, Targets, Trainer};
use nnet::zoo;
use noisescope::prelude::*;
use ns_integration::{tiny_settings, tiny_task};
use nsdata::{GaussianSpec, ShiftFlip};

#[test]
fn model_actually_learns_the_generated_task() {
    // End-to-end sanity: a few epochs on an easy split must beat chance
    // by a wide margin.
    let spec = GaussianSpec {
        classes: 4,
        train_per_class: 32,
        test_per_class: 16,
        hw: 8,
        class_sep: 1.0,
        label_noise: 0.0,
        ..GaussianSpec::cifar10_sim()
    };
    let ds = spec.generate();
    let algo = Philox::from_seed(5);
    let mut net = zoo::micro_resnet18(8, 3, 4, &algo);
    let mut exec = ExecutionContext::new(Device::v100(), ExecutionMode::Default, 1);
    let cfg = nnet::trainer::TrainConfig {
        epochs: 8,
        ..Default::default()
    };
    Trainer::new(cfg)
        .fit(
            &mut net,
            &ds.train,
            &mut exec,
            &AlgoRoots::shared(algo),
            None,
        )
        .expect("sanity run trains");
    let preds = predict_classes(&mut net, &ds.test, &mut exec, &algo, 32);
    let labels = ds.test_labels();
    let acc = nsmetrics::accuracy(&preds, labels);
    assert!(acc > 0.7, "accuracy {acc} barely beats chance (0.25)");
}

#[test]
fn augmentation_changes_training_but_respects_the_seed() {
    let task = tiny_task();
    let prepared = PreparedTask::prepare(&task);
    let algo = Philox::from_seed(3);
    let run = |augment: bool| {
        let mut exec = ExecutionContext::new(Device::cpu(), ExecutionMode::Default, 0);
        let mut net = task.build_model(&algo);
        let aug = ShiftFlip::standard();
        Trainer::new(task.train)
            .fit(
                &mut net,
                prepared.train_set(),
                &mut exec,
                &AlgoRoots::shared(algo),
                if augment { Some(&aug) } else { None },
            )
            .expect("augmentation run trains");
        net.flat_weights()
    };
    let plain = run(false);
    let augmented = run(true);
    assert_ne!(plain, augmented, "augmentation had no effect");
    assert_eq!(augmented, run(true), "augmentation is not seed-replayable");
}

#[test]
fn dropout_task_trains_and_is_a_noise_source() {
    let spec = GaussianSpec {
        classes: 4,
        train_per_class: 16,
        test_per_class: 8,
        hw: 8,
        ..GaussianSpec::cifar10_sim()
    };
    let ds = spec.generate();
    let run = |seed: u64| {
        let algo = Philox::from_seed(seed);
        // Same *weights* (seed 1 for init) would require splitting roots;
        // here the whole root varies → dropout + init both vary.
        let mut net = zoo::small_cnn_dropout(8, 3, 4, 0.3, &algo);
        let mut exec = ExecutionContext::new(Device::tpu_v2(), ExecutionMode::Default, 0);
        let cfg = nnet::trainer::TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        Trainer::new(cfg)
            .fit(
                &mut net,
                &ds.train,
                &mut exec,
                &AlgoRoots::shared(algo),
                None,
            )
            .expect("dropout run trains");
        net.flat_weights()
    };
    assert_eq!(run(4), run(4), "dropout training must replay from the seed");
    assert_ne!(run(4), run(5));
}

#[test]
fn per_class_variance_exceeds_topline_variance() {
    // The Figure-4 effect at test scale: per-class accuracy across
    // replicas varies more than top-line accuracy.
    let prepared = PreparedTask::prepare(&tiny_task());
    let settings = ExperimentSettings {
        replicas: 4,
        ..tiny_settings()
    };
    let runs = run_variant(
        &prepared,
        &Device::v100(),
        NoiseVariant::AlgoImpl,
        &settings,
    );
    let report = stability_report(&prepared, &Device::v100(), NoiseVariant::AlgoImpl, &runs);
    let max_class = report.per_class_std.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max_class >= report.std_accuracy,
        "per-class stddev {max_class} below top-line {}",
        report.std_accuracy
    );
}

#[test]
fn binary_and_class_tasks_share_the_runner() {
    // The CelebA (binary) path must flow through the same replica runner.
    let mut task = TaskSpec::celeba();
    if let DataSource::Celeba(spec) = &mut task.data {
        spec.train_len = 120;
        spec.test_len = 80;
    }
    task.train.epochs = 2;
    let prepared = PreparedTask::prepare(&task);
    let r = run_replica(
        &prepared,
        &Device::v100(),
        NoiseVariant::AlgoImpl,
        &tiny_settings(),
        0,
    )
    .expect("CelebA replica trains");
    match (&r.preds, &prepared.test_set().targets) {
        (noisescope::runner::Preds::Binary(p), Targets::Binary(t)) => {
            assert_eq!(p.len(), t.len());
        }
        _ => panic!("expected binary predictions for the CelebA task"),
    }
}
