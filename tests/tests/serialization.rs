//! Serialization round-trips: every result structure the `repro` binary
//! writes to `results/` must survive JSON round-tripping (downstream
//! plotting/analysis consumes these files).

// Exact float assertions are deliberate: bit-identical replay is what these tests check.
#![allow(clippy::float_cmp)]

use noisescope::experiments::cost::OverheadPoint;
use noisescope::experiments::ordering::OrderingPoint;
use noisescope::prelude::*;
use noisescope::report::StabilityReport;
use noisescope::runner::{Preds, ReplicaResult};

#[test]
fn stability_report_round_trips() {
    let report = StabilityReport {
        task: "SmallCNN CIFAR-10".into(),
        device: "V100".into(),
        variant: NoiseVariant::Impl,
        replicas: 4,
        mean_accuracy: 0.62,
        std_accuracy: 0.009,
        churn: 0.21,
        l2: 0.24,
        per_class_std: vec![0.01, 0.04],
        max_per_class_ratio: 4.2,
        failed_replicas: vec![2],
        retried_replicas: 1,
    };
    let json = serde_json::to_string(&report).unwrap();
    let back: StabilityReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.task, report.task);
    assert_eq!(back.variant, report.variant);
    assert_eq!(back.per_class_std, report.per_class_std);
    assert_eq!(back.failed_replicas, report.failed_replicas);
    assert_eq!(back.retried_replicas, report.retried_replicas);
}

#[test]
fn replica_result_round_trips_both_pred_kinds() {
    for preds in [Preds::Classes(vec![1, 2, 3]), Preds::Binary(vec![0, 1, 1])] {
        let r = ReplicaResult {
            replica: 7,
            accuracy: 0.5,
            preds: preds.clone(),
            weights: vec![1.0, -2.0],
            final_train_loss: 0.3,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: ReplicaResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.preds, preds);
        assert_eq!(back.weights, r.weights);
    }
}

#[test]
fn experiment_points_round_trip() {
    let o = OverheadPoint {
        workload: "VGG19".into(),
        device: "P100".into(),
        default_time_s: 1.0,
        deterministic_time_s: 2.0,
        overhead_pct: 200.0,
    };
    let back: OverheadPoint = serde_json::from_str(&serde_json::to_string(&o).unwrap()).unwrap();
    assert_eq!(back.workload, "VGG19");
    assert_eq!(back.overhead_pct, 200.0);

    let p = OrderingPoint {
        batch_size: 400,
        churn: 0.02,
        l2: 1e-4,
        mean_accuracy: 0.5,
        failed_replicas: vec![1],
    };
    let back: OrderingPoint = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
    assert_eq!(back.batch_size, 400);
    assert_eq!(back.failed_replicas, vec![1]);
}

#[test]
fn variant_serialization_is_stable() {
    // The JSON encoding of variants is part of the results-file contract.
    assert_eq!(
        serde_json::to_string(&NoiseVariant::AlgoImpl).unwrap(),
        "\"AlgoImpl\""
    );
    let back: NoiseVariant = serde_json::from_str("\"Impl\"").unwrap();
    assert_eq!(back, NoiseVariant::Impl);
}

#[test]
fn task_specs_round_trip() {
    for task in [
        TaskSpec::small_cnn_cifar10(),
        TaskSpec::resnet18_cifar100(),
        TaskSpec::celeba(),
    ] {
        let json = serde_json::to_string(&task).unwrap();
        let back: TaskSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, task.name);
        assert_eq!(back.train.epochs, task.train.epochs);
        // The round-tripped spec must build the identical model.
        let root = detrand::Philox::from_seed(1);
        let mut a = task.build_model(&root);
        let mut b = back.build_model(&root);
        assert_eq!(a.flat_weights(), b.flat_weights());
    }
}
