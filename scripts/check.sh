#!/usr/bin/env bash
# The full local CI gate — the same steps .github/workflows/ci.yml runs.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --workspace --release
run cargo test -q --workspace
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --check
# A dangling or private intra-doc link fails the gate.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Determinism lint with --audit: a stale allow is a hard failure. The
# fleet clock shim's DL003 allow is the one sanctioned suppression and
# survives the audit because it is load-bearing.
run cargo run --release -p detlint -- --audit

echo "All checks passed."
