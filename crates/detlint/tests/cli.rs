//! End-to-end tests of the `detlint` binary on throwaway workspaces:
//! exit codes, the `file:line` of a planted hazard, and the rejection of
//! flags the CLI does not have.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh workspace holding an empty `detlint.toml` and one
/// `src/lib.rs` with `lib_rs` as its text.
fn workspace(name: &str, lib_rs: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("detlint-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).unwrap();
    std::fs::write(root.join("detlint.toml"), "").unwrap();
    std::fs::write(root.join("src/lib.rs"), lib_rs).unwrap();
    root
}

fn detlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(args)
        .output()
        .expect("detlint runs")
}

fn scan(root: &Path) -> Output {
    let out = detlint(&["--root", root.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(root);
    out
}

#[test]
fn clean_workspace_exits_zero() {
    let root = workspace(
        "clean",
        "pub fn add(a: u32, b: u32) -> u32 {\n    a + b\n}\n",
    );
    let out = scan(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("detlint: clean"), "{stdout}");
}

#[test]
fn planted_float_sum_exits_one_with_its_location() {
    let root = workspace(
        "dl004",
        "pub fn total(xs: &[f32]) -> f32 {\n    xs.iter().sum()\n}\n",
    );
    let out = scan(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("src/lib.rs:2: DL004"), "{stdout}");
}

#[test]
fn removed_flags_are_unknown_arguments() {
    for flag in ["--cache", "--baseline"] {
        let out = detlint(&[flag, "x"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{flag}: {stderr}"
        );
    }
}
