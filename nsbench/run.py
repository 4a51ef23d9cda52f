#!/usr/bin/env python3
"""NoiseScope benchmark: runs `repro` workloads and reports their metrics.

Usage, from the root of a checkout:

    python3 nsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With `--trace 0` the run times whole `repro` invocations with tracing off
and reports the end-to-end metrics of BENCHMARK.json. With `--trace 1` it
runs one `repro` invocation, then `nsprobe trace`, which replays the
workload cell by cell through the public entry points and times each
crate's layers from outside; it reports the per-layer metrics.

Every run builds the program from source (`cargo build --release`), checks
that each report is bit-identical to the expected one, writes a result file
with a host record under `.bench_work/results/`, prints a table, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
See nsbench/README.md for the workloads and what each metric should move.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

# The seed `ExperimentSettings` uses when NS_SEED is unset.
DEFAULT_SEED = 42

# Knobs every workload pins. Every other NS_* variable of the caller's
# environment is removed, so a stray NS_CHAOS, NS_AMP_ULPS,
# NS_EXEC_THREADS or NS_RETRIES cannot change a workload. NS_QUICK=1 and
# NS_EPOCHS_SCALE=0.25 train an eighth of the paper-scale epoch budget.
PINNED_KNOBS = {"NS_QUICK": "1", "NS_EPOCHS_SCALE": "0.25"}

# Workload -> repro arguments, report file, concurrent workers, and the
# nominal seconds of one invocation on the reference host (2-core Xeon):
# a run makes max(1, seconds // nominal) invocations.
WORKLOADS = {
    "fig2-quick": {"args": ["--exp", "fig2"], "report": "fig2.json", "workers": 2, "nominal_s": 7},
    "fig5-fleet": {
        "args": ["--exp", "fig5", "--fleet", "2"],
        "report": "fig5.json",
        "workers": 2,
        "nominal_s": 14,
    },
    "fig6-tpu": {"args": ["--exp", "fig6"], "report": "fig6.json", "workers": 1, "nominal_s": 12},
}

# Repetitions of the set-up calls behind setup_s; the median is reported.
SETUP_REPS = 25

# A run must end within this many seconds after its build.
RUN_DEADLINE_S = 170

COUNT_UNITS = ("count", "bytes")


def fail_setup(msg):
    """Refuses to run: prints why and exits without a result."""
    print("nsbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def become_subreaper():
    """Adopts orphaned grandchildren (fleet workers of a killed repro) so
    that every process the benchmark starts is waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def measured_cpus():
    """At most two CPUs: every workload runs at most two threads or
    workers, on any host."""
    return sorted(os.sched_getaffinity(0))[:2]


def run_child(cmd, env, timeout_s, stdout_path, stderr_path):
    """Runs `cmd` in its own process group; returns (exit code, wall s,
    cpu s, peak rss MB). CPU and RSS include the child's own children."""
    cpus = measured_cpus()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        timer = threading.Timer(max(timeout_s, 1.0), lambda: reap_group(proc.pid))
        timer.start()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    reap_group(proc.pid)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def workload_env(seed):
    env = {k: v for k, v in os.environ.items() if not k.startswith("NS_")}
    env.update(PINNED_KNOBS)
    env["NS_SEED"] = str(seed)
    return env


# ---------------------------------------------------------------------------
# Build and host record
# ---------------------------------------------------------------------------


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ns-bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail_setup(f"build failed: {e}")
        if code != 0:
            fail_setup(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "repro"), os.path.join(release, "nsprobe")


def source_digest():
    """SHA-256 over the sources the build reads: which program was measured."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "third_party",
             os.path.relpath(BENCH_DIR, ROOT)]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def loadavg():
    with open("/proc/loadavg") as f:
        return f.read().split()[:3]


def host_record():
    model = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "measured_cpus": len(measured_cpus()),
        "cpu_model": model,
        "rustc": first_line(["rustc", "--version"]),
        "python": platform.python_version(),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "loadavg_before": loadavg(),
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def strip_provenance(o):
    """Drops the fault-provenance counters, as the CI fleet job does: only
    they may differ between runs that computed the same replicas."""
    if isinstance(o, dict):
        return {k: strip_provenance(v) for k, v in o.items()
                if k not in ("retried_replicas", "failed_replicas")}
    if isinstance(o, list):
        return [strip_provenance(v) for v in o]
    return o


def report_digest(path):
    with open(path) as f:
        data = json.load(f)
    canon = json.dumps(strip_provenance(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest(), data


def replica_faults(report):
    """(failed, retried) replica counts a stability report records."""
    cells = report.get("reports", []) if isinstance(report, dict) else []
    failed = sum(len(c.get("failed_replicas", [])) for c in cells)
    retried = sum(c.get("retried_replicas", 0) for c in cells)
    return failed, retried


def tree_size(path):
    files = size = 0
    for d, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(d, n))
    return files, size


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def save_json(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


class Checker:
    """Collects correctness problems of one run."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.problems = []
        pinned = load_json(os.path.join(BENCH_DIR, "digests.json"), {})
        self.pinned = pinned.get(workload, {}).get(str(seed))
        self.seen_path = os.path.join(WORK, "digests.json")

    def expect_digest(self, digest, what):
        """The pinned digest when this seed has one; otherwise the digest
        an earlier run of the same sources and seed recorded here."""
        if self.pinned is not None:
            if digest != self.pinned:
                self.problems.append(f"{what}: digest {digest[:16]} != pinned {self.pinned[:16]}")
            return
        seen = load_json(self.seen_path, {})
        key = f"{SOURCE}/{self.workload}/{self.seed}"
        if key not in seen:
            seen[key] = digest
            save_json(self.seen_path, seen)
        elif seen[key] != digest:
            self.problems.append(f"{what}: digest {digest[:16]} != earlier run {seen[key][:16]}")


SOURCE = None


def invoke(repro, workload, seed, tag, deadline):
    """One `repro` invocation from an empty output directory."""
    spec = WORKLOADS[workload]
    out = os.path.join(WORK, "runs", f"{workload}-{tag}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    # Anything left here would be harvested instead of trained.
    store_files_before = tree_size(out)[0]
    code, wall, cpu, rss = run_child(
        [repro, *spec["args"], "--out", out],
        workload_env(seed),
        deadline - time.perf_counter(),
        os.path.join(out, "stdout.txt"),
        os.path.join(out, "stderr.txt"),
    )
    inv = {"exit": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
           "store_files_before": store_files_before, "out": out}
    report = os.path.join(out, spec["report"])
    if code == 0 and os.path.exists(report):
        inv["digest"], data = report_digest(report)
        inv["failed"], inv["retried"] = replica_faults(data)
    inv["store_files"], inv["store_bytes"] = tree_size(os.path.join(out, ".ckpt"))
    return inv


def check_invocation(inv, checker, what):
    """True when the invocation ran cleanly from an empty store and wrote
    the expected report."""
    ok = True
    if inv["exit"] != 0 or "digest" not in inv:
        checker.problems.append(f"{what}: repro exited {inv['exit']} (see {inv['out']}/stderr.txt)")
        ok = False
    if inv["store_files_before"]:
        checker.problems.append(f"{what}: the store was not empty, so replicas were harvested")
        ok = False
    if "digest" in inv:
        before = len(checker.problems)
        checker.expect_digest(inv["digest"], what)
        ok = ok and len(checker.problems) == before
    return ok


def setup_probe(nsprobe, workload, seed, deadline):
    store = os.path.join(WORK, "setup-store")
    out = os.path.join(WORK, "setup.json")
    code, _, _, _ = run_child([nsprobe, "setup", workload, store, str(SETUP_REPS)], workload_env(seed),
                              deadline - time.perf_counter(), out, out + ".err")
    if code != 0:
        fail_setup(f"nsprobe setup exited {code}")
    with open(out) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def untraced(repro, nsprobe, workload, seed, seconds, deadline, checker):
    setup = setup_probe(nsprobe, workload, seed, deadline)
    replicas = int(setup["replicas"])
    reps = max(1, int(seconds // WORKLOADS[workload]["nominal_s"]))
    invs, attempted, failed, retried = [], 0, 0, 0
    for i in range(reps):
        inv = invoke(repro, workload, seed, f"inv{i}", deadline)
        invs.append(inv)
        attempted += replicas
        ok = check_invocation(inv, checker, f"invocation {i}")
        failed += inv.get("failed", 0) if ok else replicas
        retried += inv.get("retried", 0)
    wall = statistics.median(i["wall_s"] for i in invs)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(i["cpu_s"] for i in invs), "s"),
        "setup_s": (setup["setup_s"], "s"),
        "train_samples_per_s": (setup["train_samples"] / wall, "1/s"),
        "peak_rss_mb": (statistics.median(i["peak_rss_mb"] for i in invs), "MB"),
        "completed_share": (1.0 - failed / attempted, "share"),
        "first_try_share": (1.0 - retried / attempted, "share"),
    }
    extra = {"failed_share": failed / attempted, "retried_share": retried / attempted,
             "invocations": invs, "setup": setup}
    return metrics, attempted, failed, extra


def counts_of(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}


def traced(repro, nsprobe, workload, seed, deadline, checker):
    setup = setup_probe(nsprobe, workload, seed, deadline)
    replicas = int(setup["replicas"])
    inv = invoke(repro, workload, seed, "traced", deadline)
    ok = check_invocation(inv, checker, "untraced invocation")
    failed = inv.get("failed", 0) if ok else replicas

    scratch = os.path.join(WORK, "trace")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    out = os.path.join(scratch, "probe.json")
    code, _, _, _ = run_child([nsprobe, "trace", workload, repro, scratch], workload_env(seed),
                              deadline - time.perf_counter(), out, out + ".err")
    probe = load_json(out, None) if code == 0 else None
    if probe is None:
        checker.problems.append(f"nsprobe trace exited {code} (see {out}.err)")
        return {}, replicas, replicas, {"invocation": inv}
    checker.problems += [f"probe: {p}" for p in probe["failures"]]
    replay_digest, _ = report_digest(probe["replay_report"])
    if replay_digest != inv.get("digest"):
        checker.problems.append("replayed report differs from the repro report")
        failed = replicas

    metrics = {k: (v["value"], v["unit"]) for k, v in probe["metrics"].items()}
    replay_files, replay_bytes = tree_size(os.path.join(scratch, "replay"))
    if (replay_files, replay_bytes) != (inv["store_files"], inv["store_bytes"]):
        checker.problems.append(
            f"replay store ({replay_files} files, {replay_bytes} B) != repro store "
            f"({inv['store_files']} files, {inv['store_bytes']} B)")
    metrics["resume.store_files"] = (inv["store_files"], "count")
    metrics["resume.store_bytes"] = (inv["store_bytes"], "bytes")
    metrics["experiments.core_busy_share"] = (
        inv["cpu_s"] / (inv["wall_s"] * WORKLOADS[workload]["workers"]), "share")
    metrics["trace_overhead_pct"] = ((probe["replay_s"] - inv["wall_s"]) / inv["wall_s"] * 100.0, "%")

    # Exact counts must repeat between traced runs of the same sources.
    seen_path = os.path.join(WORK, "counts.json")
    seen = load_json(seen_path, {})
    key = f"{SOURCE}/{workload}"
    counts = counts_of(metrics)
    if key in seen and seen[key] != counts:
        diff = sorted(k for k in set(counts) | set(seen[key]) if counts.get(k) != seen[key].get(k))
        checker.problems.append(f"exact counts changed between traced runs: {diff}")
    elif key not in seen:
        seen[key] = counts
        save_json(seen_path, seen)
    extra = {"invocation": inv, "replay_calls": probe["replay_calls"], "replay_s": probe["replay_s"]}
    return metrics, replicas, failed, extra


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "bench"))):
        fail_setup("run me from the root of a NoiseScope checkout (no Cargo.toml/crates here)")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), None)
    if spec is None:
        fail_setup("BENCHMARK.json is missing or unreadable")
    become_subreaper()
    os.makedirs(WORK, exist_ok=True)

    global SOURCE
    repro, nsprobe = build()
    host = host_record()
    SOURCE = host["source_digest"][:16]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    checker = Checker(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, extra = traced(repro, nsprobe, args.workload, args.seed, deadline, checker)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics, attempted, failed, extra = untraced(
            repro, nsprobe, args.workload, args.seed, args.seconds, deadline, checker)
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        checker.problems.append(f"metrics not measured: {missing}")
    host["loadavg_after"] = loadavg()

    correct = not checker.problems
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": host, "correct": correct, "problems": checker.problems,
        "attempted": attempted, "failed": failed, "extra": extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    save_json(os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"), result)

    print(f"# nsbench {args.workload} seed={args.seed} trace={args.trace} "
          f"host: {host['cpu_model']} x{host['nproc']}, {host['rustc']}, "
          f"load {' '.join(host['loadavg_before'])} -> {' '.join(host['loadavg_after'])}")
    for problem in checker.problems:
        print(f"# PROBLEM: {problem}")
    if not args.trace:
        print(f"{'failed_share':48} {extra['failed_share']:>14.6g} share")
        print(f"{'retried_share':48} {extra['retried_share']:>14.6g} share")
    for name in wanted:
        if name in metrics:
            value, unit = metrics[name]
            print(f"{name:48} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }))


if __name__ == "__main__":
    main()
