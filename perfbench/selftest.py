"""Fast self-test of the benchmark at tiny n (about 20 s):

* BENCHMARK.json, when present, lists the metrics of metrics.py;
* every workload reports each end-to-end and per-layer metric with its unit,
  as a finite number, with no failed op, and its spans cover the body;
* a deliberately wrong oracle value is reported as failures.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import math
import sys

import run
from metrics import END_TO_END, HIGHER_IS_BETTER, PER_LAYER, WORKLOADS

SEED = 5


def check_benchmark_json(fail):
    path = run.ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from metrics.WORKLOADS")
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if e2e != list(END_TO_END):
        fail("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    want = [(name, unit, "higher" if name in HIGHER_IS_BETTER else "lower")
            for name, unit in PER_LAYER]
    if layers != want:
        fail("BENCHMARK.json per_layer differs from metrics.PER_LAYER")


def check_workload(workload, fail):
    res = run.run_workload(workload, SEED, 0, True, tiny=True)
    if not res["correct"] or res["failed"]:
        fail(f"{workload}: {res['failed']} failed ops {res['failures']}")
    for trace, spec in ((False, [(n, u) for n, u, _b, _x in END_TO_END]),
                        (True, list(PER_LAYER))):
        metrics = run.report(res, trace)
        for name, unit in spec:
            got = metrics.get(name)
            if got is None or got["unit"] != unit:
                fail(f"{workload}: metric {name} missing or not in {unit}")
            elif not math.isfinite(got["value"]):
                fail(f"{workload}: metric {name} is {got['value']}")
    if min(res["end_to_end"].values()) <= 0:
        fail(f"{workload}: an end-to-end metric is not positive")
    if res["per_layer"]["transform.apply_T.calls"] < 1:
        fail(f"{workload}: no apply_T span recorded")
    if not 0.9 < res["per_layer"]["trace_coverage_frac"] <= 1.0:
        fail(f"{workload}: spans cover {res['per_layer']['trace_coverage_frac']:.3f} "
             "of the body")


def check_wrong_oracle(fail):
    res = run.run_workload("cold", SEED, 0, False, tiny=True, oracle_scale=1.001)
    if res["correct"] or not any(k.startswith("constant B") for k in res["failures"]):
        fail("a wrong oracle value was not reported as a failure")


def main() -> int:
    errors = []
    check_benchmark_json(errors.append)
    for workload in WORKLOADS:
        check_workload(workload, errors.append)
    check_wrong_oracle(errors.append)
    for msg in errors:
        print(f"FAIL {msg}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
