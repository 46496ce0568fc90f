"""One workload run in a fresh process: set-up, the timed body, then the
oracle checks. Prints one JSON object as the last line of its stdout.

Started by run.py, which sets the BLAS thread caps and PYTHONPATH before the
interpreter starts and passes the monotonic time at which it spawned this
process, so that set-up time includes interpreter start.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _provenance(np, scipy) -> dict:
    import platform
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as fh:
        threads = next((int(line.split()[1]) for line in fh
                        if line.startswith("Threads:")), None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caps": {v: os.environ.get(v) for v in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads_at_exit": threads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent when it spawned us")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--oracle-scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    import numpy as np
    import scipy
    import kplane
    src = (ROOT / "src").resolve()
    if Path(kplane.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"kplane imported from {kplane.__file__}, not {src}\n")
        return 2
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, Oracle, Ops

    # warm-up: start the BLAS pool; touches no kplane cache
    np.ones((64, 64)) @ np.ones((64, 64))
    with tempfile.TemporaryDirectory(dir=args.out_dir) as tmpdir:
        workload = WORKLOADS[args.workload](args.seed, tmpdir, args.tiny)
        workload.setup()
        setup_s = time.monotonic() - args.spawned_at
        tracer = Tracer() if args.trace else None
        ops = Ops(tracer)
        if tracer is not None:
            tracer.install()
        walls = []
        try:
            # a traced child times one body, so that spans count one body
            for _ in range(1 if tracer else workload.repeats):
                t0 = time.perf_counter()
                workload.body(ops)
                walls.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall_s = statistics.median(walls)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        companions = workload.check(ops, Oracle(args.oracle_scale))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "body_walls_s": walls,
        "peak_rss_mb": peak_rss_mb,
        "companions": companions,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "provenance": _provenance(np, scipy),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, wall_s)
        tracer.write(os.path.join(
            args.out_dir, f"spans_{args.workload}_seed{args.seed}.jsonl"))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
