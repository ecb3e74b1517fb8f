"""End-to-end benchmark of hsc: four workloads, one process each.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  Each workload runs in
a process of its own (``workload.py``), so set-up time and peak RSS belong
to it alone; ``setup_s`` is the median over SETUP_RUNS processes.  With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  Every metric
is printed by name with its unit; the last line of standard output is one
JSON object.  The exit code is 1 when any correctness or operation-count
check fails, and 2 when the hsc sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pair-roundtrip", "issue-and-send", "demo-loopback", "cli-oneshot")
# extra processes that only set up; with the measured run's own set-up
# they give the median setup_s
SETUP_RUNS = 2
CHILD_GRACE_S = 60

RAW_UNITS = {"raw_setup_s": "s", "raw_ops_per_s": "1/s", "raw_latency_p50_ms": "ms"}
# times are reported at reference speed; see workload.run_phase
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def load_average() -> list[float] | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def run_child(workload, seed, seconds, trace, setup_only=False) -> dict:
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run([*argv, "--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=seconds + CHILD_GRACE_S, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 and not result:
        result["problems"] = [f"{workload} process exited with {proc.returncode}"]
    return result


def run_workload(workload, seed, seconds, trace) -> dict:
    probes = []
    if not trace:
        for _ in range(SETUP_RUNS):
            probe = run_child(workload, seed, seconds, 0, setup_only=True)
            if probe.get("problems") or "setup_s" not in probe:
                return probe
            probes.append(probe)
    result = run_child(workload, seed, seconds, trace)
    if "setup_s" in result:
        for key in ("setup_s", "raw_setup_s"):
            result[key] = statistics.median(r[key] for r in probes + [result])
    return result


def report(workload, result, trace, units) -> dict:
    """Print one workload's metrics and return them in the result format."""
    print(f"== {workload}")
    if trace:
        values = result.get("layers", {})
        for name in ("untraced_ops_per_s", "traced_ops_per_s"):
            print(f"  {name:42s} {result[name]:12.4f} 1/s")
    else:
        values = {name: result[name] for name in units}
        print(f"  {'error_rate':42s} {result['failed'] / result['ops']:12.6f} fraction")
        print(f"  {'latency_tail':42s} p{result['latency_tail_pct']:.2f} "
              f"({result['latency_tail_beyond']} of {result['ops']} samples beyond)")
        print(f"  {'host_speed':42s} {result['host_speed']:12.4f} (1 = reference speed)")
        for name, unit in RAW_UNITS.items():
            print(f"  {name:42s} {result[name]:12.4f} {unit} (wall clock)")
    metrics = {}
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:12.4f} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hsc end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hsc" / "__init__.py").is_file():
        print(f"hsc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    meta = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loadavg_before": load_average(),
            "steal_ticks_before": steal_ticks()}
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    meta.update(loadavg_after=load_average(), steal_ticks_after=steal_ticks())

    problems = [f"{w}: {p}" for w, r in results.items() for p in r.get("problems", [])]
    problems += [f"{w}: no result" for w, r in results.items()
                 if "ops" not in r and not r.get("problems")]
    if problems:
        for p in problems:
            print(f"FAIL {p}", file=sys.stderr)
        return 1

    metrics = {}
    for w, r in results.items():
        meta[w] = {k: r.get(k) for k in ("ops", "failed", "latency_tail_pct",
                                         "latency_tail_beyond", "host_speed", *RAW_UNITS)}
        for name, value in report(w, r, args.trace, units).items():
            metrics[name if args.workload else f"{w}.{name}"] = value
    print("meta " + json.dumps(meta))
    attempted = sum(r["ops"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
