#!/usr/bin/env python3
"""Checks that two `repro` reports computed the same replicas.

Usage: compare_reports.py GOLDEN OTHER LABEL

Drops the fault-provenance keys `retried_replicas` and `failed_replicas`
from both reports (only they may differ between runs that computed the
same replicas), then requires every remaining value to match exactly.
Exits non-zero on a mismatch.
"""

import json
import sys


def strip(o):
    if isinstance(o, dict):
        return {k: strip(v) for k, v in o.items()
                if k not in ("retried_replicas", "failed_replicas")}
    if isinstance(o, list):
        return [strip(v) for v in o]
    return o


def main():
    golden_path, other_path, label = sys.argv[1:4]
    with open(golden_path) as f:
        golden = strip(json.load(f))
    with open(other_path) as f:
        other = strip(json.load(f))
    if golden != other:
        sys.exit(f"{label} diverged from the golden run {golden_path}")
    print(f"{label} is bit-identical to the golden run")


if __name__ == "__main__":
    main()
