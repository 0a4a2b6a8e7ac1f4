#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload paper|farm|fabric --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

Run from the root of a source checkout. The first run configures and
builds perfbench/ (and the library sources in src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Each
iteration of the workload is one process of the benchmark binary; the
run repeats whole iterations while the next one is predicted to end
within --seconds, and makes at least MIN_ITERATIONS. A traced run
(--trace 1) makes exactly one traced iteration, which also takes the
per-layer measurements.

Every metric is printed by name with its unit; the last line of
standard output is the JSON result. The exit code is 0 only when every
checked output is within its reference tolerance (result_dev <= 1),
the Liberty output validates and the trace is well formed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper", "farm", "fabric")
# VLS_THREADS of every workload, capped at nproc. Two threads keep the
# workloads parallel yet steadier than four on a shared host, and keep a
# fabric iteration short enough for three in a run (README.md,
# "Steadiness").
THREADS = 2
# An untraced run makes at least this many iterations, so that its median
# passes over one iteration the host slowed down. Stopping as soon as the
# next iteration no longer fits would end a run early exactly when its
# first iteration was slow, and report that slow value.
MIN_ITERATIONS = 3
# A run must end within 180 s; iterations are cut off well before that.
RUN_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", str(out_dir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return out_dir / "sstvs_perfbench"


def run_iteration(binary, args, traced, out_file, timeout_s):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--size", args.size, "--out", str(out_file)]
    if args.fault_sample >= 0:
        cmd += ["--fault-sample", str(args.fault_sample)]
    env = dict(os.environ, VLS_THREADS=str(args.threads))
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1.0, timeout_s))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark binary exited with {proc.returncode}")
    with open(out_file) as f:
        rec = json.load(f)
    # Cold start: spawn to the end of the first set-up, on the clock the
    # binary reports (both are CLOCK_MONOTONIC).
    rec["setup_cold_s"] = rec["setup_first_end_clock_s"] - spawned
    return rec


def load_reference(workload, size):
    with open(BENCH_DIR / "reference.json") as f:
        return json.load(f)[workload][size]


def check_outputs(records, reference, info):
    """Largest |x - ref| / tol over every checked output of every
    iteration (1e9 when a reference output is missing or extra), and
    the deviation of each known-defect output from its contract
    tolerance, so that the defect shows on every run."""
    dev = 0.0
    worst = ""
    defects = {}
    for rec in records:
        checks = rec["checks"]
        for name in sorted(set(checks) | set(reference)):
            if name not in checks or name not in reference:
                return 1e9, f"{name} (missing on one side)", defects
            ref = reference[name]
            if "sigma" in ref:  # Monte-Carlo mean: tolerance scales with 1/sqrt(n)
                tol = ref["k"] * ref["sigma"] / math.sqrt(int(info["mc_samples_per_cell_direction"]))
            else:
                tol = ref["tol"]
            d = abs(checks[name] - ref["ref"]) / tol
            if not d <= dev:  # also catches NaN
                dev, worst = d, name
            if "known_defect" in ref:
                d = abs(checks[name] - ref["ref"]) / ref["contract_tol"]
                defects[name] = max(defects.get(name, 0.0), d)
    return dev, worst, defects


def self_times(spans):
    """Validate span links and derive each span's self time."""
    by_id = {s["id"]: s for s in spans}
    run_ids = {s["run_id"] for s in spans}
    if len(run_ids) > 1:
        raise ValueError("spans of one run carry different run ids")
    children = {s["id"]: [] for s in spans}
    eps = 1e-6
    for s in spans:
        if s["end_s"] < s["start_s"]:
            raise ValueError(f"span {s['name']} ends before it starts")
        p = s["parent"]
        if p == -1:
            continue
        if p not in by_id or p >= s["id"]:
            raise ValueError(f"span {s['name']} has an invalid parent {p}")
        parent = by_id[p]
        if s["start_s"] < parent["start_s"] - eps or s["end_s"] > parent["end_s"] + eps:
            raise ValueError(f"span {s['name']} lies outside its parent {parent['name']}")
        children[p].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = -math.inf
        for c in sorted(children[s["id"]], key=lambda c: c["start_s"]):
            lo = max(c["start_s"], end)
            if c["end_s"] > lo:
                covered += c["end_s"] - lo
            end = max(end, c["end_s"])
        self_s = (s["end_s"] - s["start_s"]) - covered
        if self_s < -eps:
            raise ValueError(f"span {s['name']} has negative self time")
        out[s["id"]] = max(0.0, self_s)
    return out


def git_commit():
    """Commit of the checkout, read from .git (a plain source tree has none)."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--fault-sample", type=int, default=-1,
                    help="paper only: inject a zero-pivot fault into this Monte-Carlo sample")
    args = ap.parse_args()
    args.threads = max(1, min(THREADS, os.cpu_count() or 1))

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 1

    start = time.monotonic()
    records = []
    durations = []
    try:
        while True:
            t0 = time.monotonic()
            remaining = RUN_LIMIT_S - (t0 - start)
            rec = run_iteration(binary, args, args.trace == 1,
                                out_dir / f"iteration-{os.getpid()}.json", remaining)
            records.append(rec)
            durations.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            if args.trace == 1 or elapsed + median(durations) > RUN_LIMIT_S:
                break
            if len(records) >= MIN_ITERATIONS and elapsed + median(durations) > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"perfbench: {args.workload} failed: {e}")
        return 1
    finally:
        (out_dir / f"iteration-{os.getpid()}.json").unlink(missing_ok=True)

    first = records[0]
    first["host"]["git_commit"] = git_commit()
    reference = load_reference(args.workload, args.size)
    result_dev, worst, defects = check_outputs(records, reference, first["info"])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)

    values = {
        "setup_s": median([s for r in records for s in r["setup_s"]]),
        "wall_s": median([r["wall_s"] for r in records]),
        "cpu_s": median([r["cpu_s"] for r in records]),
        "setup_cold_s": median([r["setup_cold_s"] for r in records]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in records]),
        "fail_frac": failed / attempted if attempted else 1.0,
        "result_dev": result_dev,
        "host.cpu_s": sum(r["layers"]["host.cpu_s"] for r in records),
        "host.steal_s": sum(r["layers"]["host.steal_s"] for r in records),
        "host.threads": float(first["host"]["threads"]),
        "host.nproc": float(first["host"]["nproc"]),
    }
    for key in first["figures"]:
        values[key] = median([r["figures"][key] for r in records])

    trace_ok = True
    if args.trace == 1:
        values.update(first["layers"])
        try:
            selfs = self_times(first["spans"])
        except ValueError as e:
            log(f"perfbench: malformed trace: {e}")
            trace_ok = False
            selfs = {}
        trace_file = out_dir / "traces" / f"{first['run_id']}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        spans = [dict(s, self_s=selfs.get(s["id"])) for s in first["spans"]]
        with open(trace_file, "w") as f:
            json.dump({"run_id": first["run_id"], "host": first["host"], "spans": spans}, f,
                      indent=1)
        log(f"perfbench: trace written to {trace_file}")

    correct = result_dev <= 1.0 and trace_ok
    section = "per_layer" if args.trace == 1 else "end_to_end"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in spec[section]}

    print(f"workload {args.workload}  seed {args.seed}  iterations {len(records)}  "
          f"threads {args.threads}  trace {args.trace}  size {args.size}")
    print("host " + json.dumps(first["host"], sort_keys=True))
    print("info " + json.dumps(first["info"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(set(values) | set(metrics)):
        value = metrics[name]["value"] if name in metrics else values[name]
        print(f"  {name} = {value:.6g} {units.get(name, '')}".rstrip())
    print(f"  result_dev worst output: {worst or '-'}")
    for name, d in sorted(defects.items()):
        print(f"  known defect {name}: {d:.3g} x its contract tolerance "
              f"({reference[name]['known_defect']})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
