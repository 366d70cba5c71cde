#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads solve oracle --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --trace 1 --json perfbench/baseline.json

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, and the same for the
unscaled figures a run prints to standard error.  ``--json`` also writes the
summary with the host's Python, NumPy, CPU count and CPU model.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures", "figures-pool", "oracle", "solve")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def host() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line of one run, and the unscaled figures it printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    unscaled = {}
    for line in proc.stderr.splitlines():
        if line.startswith("unscaled:"):
            words = line.removeprefix("unscaled:").split(";")[0].split()
            unscaled = {k: float(v) for k, v in zip(words[::2], words[1::2])}
    return json.loads(lines[-1]), unscaled


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args()

    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        for seed in args.seeds:
            result, raw = run_once(workload, seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in raw.items():
                unscaled.setdefault(name, []).append(v)
        summary[workload] = {name: summarise(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"{workload:13s} {name:42s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}",
                  flush=True)
        if unscaled:
            summary[workload]["unscaled"] = {n: summarise(v) for n, v in unscaled.items()}
            for name, s in summary[workload]["unscaled"].items():
                print(f"{workload:13s} {name + ' (unscaled)':42s} median {s['median']:<12.6g} "
                      f"spread {s['spread']:.4f}", flush=True)
    if args.json:
        doc = {"host": host(), "seeds": args.seeds, "seconds": args.seconds,
               "trace": args.trace, "workloads": summary}
        args.json.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
