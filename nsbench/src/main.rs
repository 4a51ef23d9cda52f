//! `nsprobe`: the compiled half of the NoiseScope benchmark.
//!
//! ```text
//! nsprobe setup <workload> <store-dir> <reps>
//! nsprobe trace <workload> <repro-exe> <scratch-dir>
//! ```
//!
//! Both read the workload's settings from the environment exactly as
//! `repro` does (`ExperimentSettings::from_env`) and print one JSON
//! object on stdout. `nsbench/run.py` drives them.

use noisescope::prelude::*;
use nsbench::probes::Probe;
use nsbench::replay::replay;
use nsbench::workload::Workload;
use nsbench::{median, now};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn num(v: f64) -> Value {
    serde_json::to_value(v).expect("f64 serialises")
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Times the public calls an invocation makes before its first optimizer
/// step: settings from the environment and their validation, the
/// checkpoint store, and one `PreparedTask::prepare` per task.
fn setup(workload: Workload, store_dir: &Path, reps: usize) -> Result<Value, String> {
    let mut samples = Vec::new();
    let mut sizes = (0, 0);
    for _ in 0..reps.max(1) {
        let t = now();
        let settings = ExperimentSettings::from_env();
        settings.validate().map_err(|e| e.to_string())?;
        let store = CheckpointStore::for_settings(store_dir, &settings);
        let prepared: Vec<PreparedTask> =
            workload.tasks().iter().map(PreparedTask::prepare).collect();
        samples.push(t.elapsed().as_secs_f64());
        std::hint::black_box(store);
        sizes = (
            workload.train_samples(&settings, &prepared),
            workload.replicas(&settings),
        );
    }
    Ok(obj(vec![
        ("setup_s", num(median(&mut samples))),
        ("train_samples", num(sizes.0 as f64)),
        ("replicas", num(sizes.1 as f64)),
    ]))
}

/// The traced run: replay the workload through the public entry points,
/// then run every per-layer probe.
fn trace(workload: Workload, repro: PathBuf, scratch: PathBuf) -> Result<Value, String> {
    let settings = ExperimentSettings::from_env();
    settings.validate().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let replayed = replay(workload, &settings, &repro, &scratch.join("replay"))
        .map_err(|e| format!("replay: {e}"))?;
    let report_path = scratch.join("replay-report.json");
    std::fs::write(&report_path, &replayed.report).map_err(|e| e.to_string())?;

    let mut probe = Probe::new(settings, repro, scratch.join("probes"));
    probe.data();
    probe.tensor();
    probe.reducer_calls();
    probe.nn_layers();
    probe.nn_train_step();
    if let Err(e) = probe.cells() {
        probe.failures.push(format!("cell probes: {e}"));
    }

    let metrics: BTreeMap<String, Value> = probe
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            (
                k.clone(),
                obj(vec![
                    ("value", num(*v)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let calls = replayed
        .calls
        .iter()
        .map(|(name, s)| Value::Arr(vec![Value::Str(name.clone()), num(*s)]))
        .collect();
    Ok(obj(vec![
        ("metrics", Value::Obj(metrics)),
        (
            "failures",
            Value::Arr(probe.failures.into_iter().map(Value::Str).collect()),
        ),
        ("replay_s", num(replayed.total_s())),
        ("replay_calls", Value::Arr(calls)),
        (
            "replay_report",
            Value::Str(report_path.display().to_string()),
        ),
    ]))
}

fn run(args: &[String]) -> Result<Value, String> {
    let workload =
        |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"));
    match args {
        [cmd, w, store, reps] if cmd == "setup" => {
            let reps = reps.parse().map_err(|_| format!("bad repetition count {reps:?}"))?;
            setup(workload(w)?, Path::new(store), reps)
        }
        [cmd, w, repro, scratch] if cmd == "trace" => {
            trace(workload(w)?, PathBuf::from(repro), PathBuf::from(scratch))
        }
        _ => Err("usage: nsprobe setup <workload> <store-dir> <reps> | trace <workload> <repro-exe> <scratch-dir>".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(v) => println!("{}", serde_json::to_string(&v).expect("JSON serialises")),
        Err(e) => {
            eprintln!("nsprobe: {e}");
            std::process::exit(2);
        }
    }
}
