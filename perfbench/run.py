"""Benchmark for strengthvote: seeded, closed-loop CLI workloads, checked against references.

Run from the repository root:

    python3 perfbench/run.py --workload verify_all|evaluate_large|evaluate_matrix|search
                             [--seed N] [--seconds S] [--trace 0|1]

The inputs are generated from --seed into .perfbench/, each with a reference
answer. A fresh workload process then imports the package and issues one CLI
operation after another through strengthvote.cli.main, in-process.
With --trace 0 it runs for --seconds (and at least the workload's minimum number
of operations) and the end-to-end metrics are reported. With --trace 1 it runs
one fixed pass untraced, then the same pass traced at the layer boundaries, and
the per-layer metrics are reported; the fixed pass makes every counter repeat
exactly for a seed. Every output is checked, and a mismatch counts as a failed
operation. The last line of standard output is one JSON object.

End-to-end times are reported at a reference host speed: the workload process
probes the host's speed on a timer and scales each stretch of an operation by it
(see calibrate.py). The times as measured are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import gate
import metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
IMPORT_SAMPLES = 10       # fresh-process imports per run, after one that compiles bytecode
RUN_LIMIT_S = 170.0       # the whole run, set-up included
TEARDOWN_S = 20.0         # kept free after the timed phase for checking and reporting
# Probes the host speed before and after the timed import (see calibrate.py).
IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, {here!r}); import calibrate; "
                  "a = calibrate.probe(); t = time.perf_counter(); "
                  "import strengthvote, strengthvote.cli; s = time.perf_counter() - t; "
                  "print(s, calibrate.scale(a, calibrate.probe()))")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(root: Path) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"), "git_sha": sha}


def _worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # The same string hashes, dict layouts and set orders in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def import_samples(root: Path, env: dict) -> list[tuple[float, float]]:
    """Seconds to import the package in fresh processes, each with its speed scale."""
    samples = []
    for k in range(IMPORT_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET.format(here=str(HERE))],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        if k:
            seconds, scale = proc.stdout.split()
            samples.append((float(seconds), float(scale)))
    return samples


def gate_records(records, workload) -> int:
    """Count failed operations, reporting the first few on standard error."""
    failed = 0
    for rec in records:
        c = rec["config"]
        if rec["error"]:
            bad = [rec["error"]]
        else:
            bad = gate.mismatches(rec["fingerprint"], workload.refs[c], workload.tolerances[c])
        if bad:
            failed += 1
            if failed <= 5:
                print(f"perfbench: {' '.join(workload.argvs[c])}: {'; '.join(bad)}",
                      file=sys.stderr)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        _fail("refusing to run under -O: it strips rule4's condition-1 cross-check")
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    src = root / "src"
    if not (src / "strengthvote" / "__init__.py").is_file():
        _fail(f"no strengthvote package under {src}; run from the repository root")
    spec = json.loads((root / "BENCHMARK.json").read_text())

    began = time.monotonic()
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        env = _worker_env(src)
        samples = [] if args.trace else import_samples(root, env)
        remaining = RUN_LIMIT_S - (time.monotonic() - began)
        plan = {
            "src": str(src), "argvs": workload.argvs, "trace": args.trace,
            "seconds": args.seconds, "deadline": remaining - TEARDOWN_S,
            "cycle": workload.cycle, "min_ops": workload.min_ops,
            "trace_ops": workload.trace_ops,
            "spans": str(scratch / f"spans-{args.workload}.npz"),
        }
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan))
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                       cwd=root, env=env, timeout=remaining - 5.0, check=True)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failed = gate_records(records, workload)
    if args.trace:
        values = metrics.per_layer(result["trace"], records, workload.argvs, failed)
        wanted = spec["per_layer"]
    else:
        samples.append((result["import_s"], result["import_scale"]))
        values = metrics.end_to_end(records, workload.argvs, workload.refs, samples,
                                    result["peak_rss_kb"])
        raw = metrics.end_to_end([{**rec, "scale": 1.0} for rec in records], workload.argvs,
                                 workload.refs, [(s, 1.0) for s, _ in samples],
                                 result["peak_rss_kb"])
        wanted = spec["end_to_end"]
    report = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"workload": args.workload, "seed": args.seed, **run_metadata(root)}))
    if not args.trace:
        print(f"{'error_ratio':40s} {failed / len(records):.6g} ratio ({failed}/{len(records)})")
    for name, entry in report.items():
        as_measured = "" if args.trace else f"  (as measured: {raw[name]:.6g})"
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}{as_measured}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
