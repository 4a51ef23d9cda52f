//! Canonical-JSON pins of reports that no other tier-1 test pins bit for
//! bit: training reports, each at a small scale fixed for its runtime, and
//! the cost-model and Table 3 reports at the scale `repro` runs them.
//!
//! A mismatch names the first JSON path that differs. Re-pin only in a
//! change that is meant to move bits: delete the file, re-run (the test
//! then writes it), and record the move in CHANGES.md.

use noisescope::experiments::{cost, extensions, fairness, ordering};
use noisescope::prelude::*;
use serde_json::Value;

/// The scale every pinned report runs at: two replicas, 1% of each epoch
/// budget (at least one epoch per arm).
fn pin_settings() -> ExperimentSettings {
    ExperimentSettings {
        replicas: 2,
        epochs_scale: 0.01,
        ..ExperimentSettings::default()
    }
}

/// Drops the fault-provenance keys, as the nsbench and CI digests do:
/// only they may differ between runs that computed the same replicas.
fn strip_provenance(v: Value) -> Value {
    match v {
        Value::Obj(map) => Value::Obj(
            map.into_iter()
                .filter(|(k, _)| k != "retried_replicas" && k != "failed_replicas")
                .map(|(k, v)| (k, strip_provenance(v)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.into_iter().map(strip_provenance).collect()),
        leaf => leaf,
    }
}

fn render(v: Option<&Value>) -> String {
    v.map_or_else(
        || "<absent>".to_string(),
        |v| serde_json::to_string(v).expect("render value"),
    )
}

/// The first path (in key and index order) at which `got` and `want`
/// differ, with both values.
fn first_diff(path: &str, got: Option<&Value>, want: Option<&Value>) -> Option<String> {
    match (got, want) {
        (Some(Value::Obj(g)), Some(Value::Obj(w))) => {
            let keys: std::collections::BTreeSet<&String> = g.keys().chain(w.keys()).collect();
            keys.into_iter()
                .find_map(|k| first_diff(&format!("{path}.{k}"), g.get(k), w.get(k)))
        }
        (Some(Value::Arr(g)), Some(Value::Arr(w))) => (0..g.len().max(w.len()))
            .find_map(|i| first_diff(&format!("{path}[{i}]"), g.get(i), w.get(i))),
        _ if got == want => None,
        _ => Some(format!(
            "{path}: got {}, golden {}",
            render(got),
            render(want)
        )),
    }
}

/// Compares `report` with `tests/golden/{name}.json`, writing the file
/// when it does not exist yet.
fn assert_matches_golden(name: &str, report: &impl serde::Serialize) {
    let path = format!("{}/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = serde_json::to_string_pretty(report).expect("serialize report");
    // Both sides go through the same render and parse, so only the
    // values can differ.
    let got = strip_provenance(serde_json::from_str(&text).expect("reparse report"));
    match std::fs::read_to_string(&path) {
        Ok(golden) => {
            let want = strip_provenance(serde_json::from_str(&golden).expect("golden parses"));
            if let Some(diff) = first_diff("$", Some(&got), Some(&want)) {
                panic!("{name} report diverged from {path} at {diff}");
            }
        }
        Err(_) => {
            std::fs::write(&path, text + "\n").expect("write golden report");
            eprintln!("golden report written to {path}; commit it");
        }
    }
}

#[test]
fn fig6_report_matches_golden() {
    assert_matches_golden("fig6", &ordering::fig6(&pin_settings()));
}

#[test]
fn ext_algo_sources_report_matches_golden() {
    assert_matches_golden(
        "ext_algo_sources",
        &extensions::algo_source_decomposition(&pin_settings()),
    );
}

/// The paper's cost-of-determinism result (Figs. 7, 8a and 8b) and
/// Table 3's subgroup counts: no training, so each runs at full `repro`
/// scale in milliseconds.
#[test]
fn cost_and_table3_reports_match_golden() {
    assert_matches_golden("fig7", &cost::fig7(100));
    assert_matches_golden("fig8a", &cost::fig8a(64));
    assert_matches_golden("fig8b", &cost::fig8b(64));
    assert_matches_golden("table3", &fairness::table3());
}

#[test]
fn first_diff_names_the_path() {
    let a: Value = serde_json::from_str(r#"[{"l2": 1.5, "n": 3}, {"l2": 2.0}]"#).unwrap();
    let b: Value = serde_json::from_str(r#"[{"l2": 1.5, "n": 3}, {"l2": 2.5}]"#).unwrap();
    assert_eq!(first_diff("$", Some(&a), Some(&a)), None);
    assert_eq!(
        first_diff("$", Some(&a), Some(&b)).as_deref(),
        Some("$[1].l2: got 2.0, golden 2.5")
    );
    let c: Value = serde_json::from_str(r#"[{"l2": 1.5}]"#).unwrap();
    assert_eq!(
        first_diff("$", Some(&c), Some(&a)).as_deref(),
        Some("$[0].n: got <absent>, golden 3")
    );
}
