//! Golden snapshot of IMPL-variant end-to-end training.
//!
//! The IMPL arm (fixed algorithmic seed, Default execution mode, amplified
//! noise at the default `amp_ulps`) runs every reduction of the training
//! hot path in [`ReduceOrder::Permuted`] order on a V100. Each replica's
//! scheduler stream is pinned by the settings' entropy salt, so the final
//! weights are replayable and must stay *byte-identical* across code
//! changes: a change to the scheduler draws, the combine order, the
//! amplification or the order in which reductions consume the stream
//! shows up here as a hash mismatch. Every replica is hashed, because
//! replicas differ only in their scheduler streams.
//!
//! The snapshot pins one conv task and one BN + residual task. It uses the
//! FNV-1a format of `golden_control.rs`; as there, a missing snapshot file
//! is regenerated and the test passes — delete the file *only* when a
//! change to the noise model is intentional and explained in the commit
//! message.
//!
//! [`ReduceOrder::Permuted`]: nstensor::ReduceOrder::Permuted

use noisescope::prelude::*;
use ns_integration::{fnv1a64_f32, tiny_resnet_task, tiny_settings, tiny_task};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenEntry {
    task: String,
    device: String,
    replica: u32,
    weights_len: usize,
    /// FNV-1a over the little-endian bytes of every final weight.
    fnv1a64: String,
    /// First few weights as bit patterns, for debugging a mismatch.
    head_bits: Vec<u32>,
}

fn snapshot() -> Vec<GoldenEntry> {
    let settings = ExperimentSettings {
        amp_ulps: 512.0,
        ..tiny_settings()
    };
    let device = Device::v100();
    let mut entries = Vec::new();
    for (task_name, task) in [
        ("tiny_cnn", tiny_task()),
        ("tiny_resnet", tiny_resnet_task()),
    ] {
        let prepared = PreparedTask::prepare(&task);
        let runs = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        assert_eq!(runs.results.len(), settings.replicas as usize);
        for result in &runs.results {
            let w = &result.weights;
            entries.push(GoldenEntry {
                task: task_name.to_string(),
                device: device.name().to_string(),
                replica: result.replica,
                weights_len: w.len(),
                fnv1a64: format!("{:016x}", fnv1a64_f32(w)),
                head_bits: w.iter().take(8).map(|x| x.to_bits()).collect(),
            });
        }
    }
    entries
}

#[test]
fn impl_weights_match_golden_snapshot() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/impl_weights.json");
    let current = snapshot();
    // The snapshot only means something if the noise is live: replicas
    // share an algorithmic seed, so equal hashes within a task would mean
    // the Permuted path had collapsed into a deterministic one.
    for task in ["tiny_cnn", "tiny_resnet"] {
        let hashes: Vec<&str> = current
            .iter()
            .filter(|e| e.task == task)
            .map(|e| e.fnv1a64.as_str())
            .collect();
        assert!(
            hashes.windows(2).any(|w| w[0] != w[1]),
            "{task}: IMPL replicas are bit-identical; the noise is not live"
        );
    }
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let golden: Vec<GoldenEntry> =
                serde_json::from_str(&text).expect("golden snapshot parses");
            assert_eq!(
                current, golden,
                "IMPL-variant weights diverged from the committed golden \
                 snapshot ({path}); the Permuted noise model or its \
                 scheduler-stream consumption changed"
            );
        }
        Err(_) => {
            std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/golden"))
                .expect("create golden dir");
            std::fs::write(
                path,
                serde_json::to_string_pretty(&current).expect("serialize snapshot"),
            )
            .expect("write golden snapshot");
            eprintln!("golden snapshot regenerated at {path}; commit it");
        }
    }
}
