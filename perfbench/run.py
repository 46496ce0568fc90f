"""kplane benchmark: runs a workload in fresh child processes for a fixed
time, checks every result against a closed-form oracle and prints every
metric by name and unit. The last line of stdout is one JSON object.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics of untraced runs; ``--trace 1``
alternates traced and untraced runs and reports the per-layer metrics. Full
results, with provenance, go to ``.perfbench_out/`` at the repository root.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import ACCURACY_FLOOR, END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".perfbench_out"

#: fewest child runs per workload run, so that every median has three samples
MIN_RUNS = 3
#: no child runs past this many seconds into the run (the run must end in 180)
HARD_LIMIT_S = 150.0
#: BLAS/OpenMP threads of every child: single-threaded, reductions fixed
THREADS = "1"
ACCURACY = tuple(name for name, unit, _b, _x in END_TO_END if unit == "rel")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PYTHONPATH=str(ROOT / "src"))
    env.pop("KPLANE_THREADS", None)
    return env


def spawn(workload: str, seed: int, trace: bool, timeout: float, tiny=False,
          oracle_scale=1.0) -> dict:
    """One child run; raises RuntimeError when it exits non-zero or prints
    no result, and subprocess.TimeoutExpired after ``timeout`` seconds."""
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--out-dir", str(OUT_DIR)]
    if tiny:
        cmd.append("--tiny")
    if oracle_scale != 1.0:
        cmd += ["--oracle-scale", repr(oracle_scale)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], env=child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    duration = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} child exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["duration_s"] = duration
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny=False, oracle_scale=1.0) -> dict:
    """Child runs until the next would end past ``seconds`` (at least
    MIN_RUNS), then the median of each metric over them. With ``trace``,
    traced and untraced children alternate, traced first."""
    OUT_DIR.mkdir(exist_ok=True)
    children = []
    start = time.monotonic()
    while True:
        traced = trace and len(children) % 2 == 0
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        children.append(spawn(workload, seed, traced, remaining, tiny,
                              oracle_scale))
        elapsed = time.monotonic() - start
        longest = max(c["duration_s"] for c in children)
        if elapsed + longest > HARD_LIMIT_S:
            break
        if len(children) >= MIN_RUNS and elapsed + longest > seconds:
            break
    untraced = [c for c in children if not c["trace"]]
    traced_runs = [c for c in children if c["trace"]]
    failures = {}
    for c in children:
        failures.update(c["failures"])
    values = {}
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        values[name] = statistics.median(c[name] for c in untraced)
    complete = True
    for name in ACCURACY:
        got = [c["companions"].get(name) for c in untraced]
        if any(v is None or not math.isfinite(v) for v in got):
            complete = False
            got = [1.0]
        values[name] = max(statistics.median(got), ACCURACY_FLOOR)
    layers = {}
    if traced_runs:
        for name, _unit in PER_LAYER:
            if name != "trace_overhead_frac":
                layers[name] = statistics.median(c["layers"][name]
                                                 for c in traced_runs)
        layers["trace_overhead_frac"] = (
            statistics.median(c["wall_s"] for c in traced_runs)
            / values["wall_s"] - 1.0)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(len(c["failures"]) for c in children)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "runs": len(children),
        "correct": complete and failed == 0,
        "attempted": attempted, "failed": failed, "failures": failures,
        "end_to_end": values, "per_layer": layers,
        "provenance": dict(children[0]["provenance"], seed=seed,
                           commit=git_commit(ROOT)),
        "children": children,
    }


def report(res: dict, trace: bool) -> dict:
    """Print the metrics of one workload run; return the reported metrics."""
    print(f"workload {res['workload']}: seed {res['seed']}, {res['runs']} "
          f"child runs in {res['seconds']} s, trace {res['trace']}")
    if trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": res["end_to_end"][name], "unit": unit}
                   for name, unit, _better, _bound in END_TO_END}
    shown = dict(metrics,
                 ops_attempted={"value": res["attempted"], "unit": "count"},
                 ops_failed={"value": res["failed"], "unit": "count"})
    for name, m in shown.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    for label, why in res["failures"].items():
        print(f"  FAILED {label}: {why}")
    print(f"  provenance {json.dumps(res['provenance'], sort_keys=True)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "kplane" / "__init__.py").is_file():
        sys.stderr.write(f"no kplane sources under {ROOT / 'src'}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            path = OUT_DIR / f"result_{name}_seed{args.seed}_trace{args.trace}.json"
            path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
            metrics = report(res, bool(args.trace))
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
