//! Golden snapshot of Control-variant end-to-end training.
//!
//! The Control arm (fixed algorithmic seed + deterministic execution) must
//! produce *byte-identical* final weights across code changes: any
//! accumulation-order change anywhere in the training hot path shows up
//! here as a hash mismatch. The committed snapshot in
//! `tests/golden/control_weights.json` was generated before the blocked
//! GEMM engine landed, so it also certifies that the fast path is
//! bit-identical to the original per-element reference path.
//!
//! If the snapshot file is missing the test regenerates it and passes —
//! delete the file *only* when a change to golden values is intentional
//! and explained in the commit message.

use noisescope::prelude::*;
use ns_integration::{fnv1a64_f32, tiny_settings, tiny_task};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenEntry {
    device: String,
    weights_len: usize,
    /// FNV-1a over the little-endian bytes of every final weight.
    fnv1a64: String,
    /// First few weights as bit patterns, for debugging a mismatch.
    head_bits: Vec<u32>,
}

fn snapshot() -> Vec<GoldenEntry> {
    let prepared = PreparedTask::prepare(&tiny_task());
    let settings = tiny_settings();
    [
        Device::cpu(),
        Device::v100(),
        Device::rtx5000_tensor_cores(),
    ]
    .into_iter()
    .map(|device| {
        let runs = run_variant(&prepared, &device, NoiseVariant::Control, &settings);
        let w = &runs.results[0].weights;
        GoldenEntry {
            device: device.name().to_string(),
            weights_len: w.len(),
            fnv1a64: format!("{:016x}", fnv1a64_f32(w)),
            head_bits: w.iter().take(8).map(|x| x.to_bits()).collect(),
        }
    })
    .collect()
}

#[test]
fn control_weights_match_golden_snapshot() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/control_weights.json");
    let current = snapshot();
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let golden: Vec<GoldenEntry> =
                serde_json::from_str(&text).expect("golden snapshot parses");
            assert_eq!(
                current, golden,
                "Control-variant weights diverged from the committed golden \
                 snapshot ({path}); an accumulation order changed somewhere"
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
