//! Replays a workload cell by cell through the public entry points that
//! `repro` calls, timing each call. The replayed report must equal the
//! one `repro` wrote, which checks the replay as well as the program.

use crate::timed;
use crate::workload::Workload;
use noisescope::experiments::ordering;
use noisescope::experiments::stability::StabilityGrid;
use noisescope::prelude::*;
use std::io;
use std::path::Path;

/// The timed calls of one replay and the report they produced.
#[derive(Debug)]
pub struct Replay {
    /// (call, seconds), in call order.
    pub calls: Vec<(String, f64)>,
    /// The report, serialised as `repro` serialises it.
    pub report: String,
}

impl Replay {
    /// Total seconds spent in the replayed calls.
    pub fn total_s(&self) -> f64 {
        nstensor::reduce::sum_ordered_f64(self.calls.iter().map(|c| c.1))
    }
}

/// Replays `workload` with `settings`, keeping durable state under
/// `store_root` and running fleet workers from `repro`.
pub fn replay(
    workload: Workload,
    settings: &ExperimentSettings,
    repro: &Path,
    store_root: &Path,
) -> io::Result<Replay> {
    let mut calls = Vec::new();
    if workload == Workload::Fig6Tpu {
        let (points, s) = timed(|| ordering::fig6(settings));
        calls.push(("ordering::fig6".to_string(), s));
        let report = to_json(&points)?;
        return Ok(Replay { calls, report });
    }

    let store = CheckpointStore::for_settings(store_root, settings);
    let fleet = FleetOptions {
        procs: 2,
        worker_exe: Some(repro.to_path_buf()),
        ..FleetOptions::default()
    };
    let entry = match workload {
        Workload::Fig5Fleet => "run_variant_fleet",
        _ => "run_variant_resumable",
    };
    let mut reports = Vec::new();
    for task in workload.tasks() {
        let (prepared, s) = timed(|| PreparedTask::prepare(&task));
        calls.push((format!("PreparedTask::prepare {}", task.name), s));
        for device in workload.devices() {
            for variant in NoiseVariant::MEASURED {
                let (runs, s) = timed(|| match workload {
                    Workload::Fig5Fleet => {
                        run_variant_fleet(&prepared, &device, variant, settings, &store, 1, &fleet)
                    }
                    _ => run_variant_resumable(&prepared, &device, variant, settings, &store, 1),
                });
                let name = format!(
                    "{entry} {} {} {}",
                    task.name,
                    device.name(),
                    variant.label()
                );
                calls.push((name, s));
                reports.push(stability_report(&prepared, &device, variant, &runs?));
            }
        }
    }
    let report = to_json(&StabilityGrid { reports })?;
    Ok(Replay { calls, report })
}

fn to_json<T: serde::Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string(value).map_err(|e| io::Error::other(e.to_string()))
}
