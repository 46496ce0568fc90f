"""The benchmark's workloads, their Beta-integral oracle and the accuracy
companions.

Why these workloads:

* ``cold`` runs one-shot CLI commands in a fresh process. Almost all of its
  time is first-use O(n^2) operator builds, and its memory peak is the dense
  n = 4096 operator of ``transform``. Warm applies, the adjoint and
  ``symmetry`` do almost nothing here.
* ``search`` builds the forward and adjoint operators in set-up, so its body is
  warm matvecs, adjoint applies, dilation normalization and norms, plus the
  uncached k = 2 forward path on every call. It applies operators where
  ``cold`` builds them.
* ``verify`` runs every verification suite. Split radii enter the operator
  cache key, so the interaction and truncation suites rebuild the forward
  matrix once per split set; ``cold`` and ``search`` carry no splits, so a
  split-aware cache should move ``verify`` and leave them unchanged.

Workload code calls the package through ``kplane.<name>`` at call time, so the
spans installed by ``spans.Tracer`` see every call.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import traceback

import numpy as np

import kplane as K
import kplane.cli

#: tolerance of every oracle check: Phi, B(k,d), T h and the adjoint identity
TOL = 1e-6
#: tolerance of the dichotomy share reported by diagnose
ALPHA_TOL = 0.02
PAIRS = ((1, 3), (2, 4), (3, 4))
#: radius window of the transform CSV checked against the closed form
RMAX = 50.0
#: grid of the reference companions reported by workloads whose body does not
#: produce them
REFERENCE_N = 1024


def beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


class Oracle:
    """Closed forms for the extremizer h(r) = (1 + r^2)^{-(k+1)/2}:

        ||h||_p^p   = B(d/2, 1/2) / 2                   (measure r^{d-1} dr)
        T h(r)      = c_k (1 + r^2)^{-1/2},  c_k = B(k/2, 1/2) / 2
        ||T h||_q^q = c_k^q B((d-k)/2, (k+1)/2) / 2     (measure r^{d-k-1} dr)

    with p = (d+1)/(k+1) and q = d+1, so Phi(h) = B(k,d) = ||T h||_q / ||h||_p.
    ``scale`` multiplies c_k; the self-test sets it to feed in a wrong oracle.
    """

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def c(self, k: int) -> float:
        return self.scale * beta(k / 2, 0.5) / 2

    def phi(self, k: int, d: int) -> float:
        p, q = (d + 1) / (k + 1), d + 1
        h_pp = beta(d / 2, 0.5) / 2
        th_qq = self.c(k) ** q * beta((d - k) / 2, (k + 1) / 2) / 2
        return th_qq ** (1 / q) / h_pp ** (1 / p)

    def transform(self, k: int, r: np.ndarray) -> np.ndarray:
        return self.c(k) / np.sqrt(1.0 + r * r)


def rel_err(value: float, ref: float) -> float:
    return abs(value / ref - 1.0)


class Ops:
    """Counts the workload's operations and the ones that failed: raised,
    failed to converge, reported passed=False, exited non-zero or missed
    their oracle tolerance."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.outcome: dict[str, str | None] = {}
        self._calls = 0

    def call(self, label, fn, *args, **kwargs):
        """Run one body operation; an exception fails it and returns None."""
        self._calls += 1
        if self.tracer is not None:
            self.tracer.op = self._calls
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed op is counted, the workload goes on
            traceback.print_exc(file=sys.stderr)
            self.check(label, False, f"raised {type(exc).__name__}: {exc}")
            return None

    def check(self, label: str, ok: bool, detail: str = ""):
        if self.outcome.get(label) is None:
            self.outcome[label] = None if ok else (detail or "failed")

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def failures(self) -> dict:
        return {k: v for k, v in self.outcome.items() if v is not None}


def companions(ops: Ops, oracle: Oracle, grid, pairs,
               which=("phi", "transform", "adjoint")) -> dict:
    """Accuracy companions of the extremizer h and of a fixed smooth pair on
    ``grid``, each the worst over ``pairs`` and each an oracle-checked op:

    * phi_rel_err: Phi(h) against B(k,d);
    * transform_rel_err: max over nodes r <= RMAX of |T h / oracle - 1|;
    * adjoint_resid: |<Tf,g> - <f,T*g>| / (||Tf||_2 ||g||_2) with
      f = exp(-r^2), g = exp(-(r-1)^2), both norms in r^{d-k-1} dr.
    """
    r = grid.nodes
    window = r <= RMAX
    worst = {}
    for k, d in pairs:
        params = K.make_params(k, d)
        tag = f"k={k} d={d} n={grid.n}"
        errs = {}
        h = K.extremizer_profile(params, 1.0, grid)
        if "phi" in which:
            errs["phi_rel_err"] = rel_err(K.functional_ratio(params, h),
                                          oracle.phi(k, d))
        if "transform" in which:
            th = K.apply_T(params, h).values[window]
            errs["transform_rel_err"] = float(
                np.max(np.abs(th / oracle.transform(k, r[window]) - 1.0)))
        if "adjoint" in which:
            f = K.RadialProfile(grid, np.exp(-r * r))
            g = K.RadialProfile(grid, np.exp(-(r - 1.0) ** 2))
            tf = K.apply_T(params, f)
            tsg = K.apply_T_adjoint(params, g)
            lhs = K.core.weighted_signed_integral(tf.values * g.values, grid,
                                                  params.a_target)
            rhs = K.core.weighted_signed_integral(f.values * tsg.values, grid,
                                                  params.a_domain)
            errs["adjoint_resid"] = abs(lhs - rhs) / (
                K.weighted_lp_norm(tf, params.a_target, 2)
                * K.weighted_lp_norm(g, params.a_target, 2))
        for name, err in errs.items():
            ops.check(f"{name} {tag}", err <= TOL, f"{err:.3e} > {TOL:g}")
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


def reference_companions(ops: Ops, oracle: Oracle, which) -> dict:
    """Companions the body does not produce, at (1,3) on REFERENCE_N nodes."""
    grid = K.make_halfline_grid(REFERENCE_N)
    return companions(ops, oracle, grid, ((1, 3),), which)


def _cli(ops: Ops, label: str, argv: list[str]):
    """kplane.cli.main(argv) with its stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ops.call(label, kplane.cli.main, argv)
    return rc, buf.getvalue()


class Cold:
    """One-shot CLI commands in a fresh process; no random input."""

    repeats = 1  # a second body would find every operator built

    def __init__(self, seed: int, tmpdir: str, tiny: bool):
        self.n_constant = 512 if tiny else 2048
        self.n_transform = 512 if tiny else 4096
        self.csv_path = os.path.join(tmpdir, "transform.csv")

    def setup(self):
        pass

    def body(self, ops: Ops):
        self.constants = {}
        for k, d in PAIRS:
            label = f"constant B k={k} d={d}"
            self.constants[(k, d)] = _cli(ops, label, [
                "constant", "--k", str(k), "--d", str(d), "--which", "B",
                "--grid-n", str(self.n_constant)])
        self.transform_rc, _ = _cli(ops, "transform", [
            "transform", "--k", "1", "--d", "3", "--preset", "extremizer",
            "--grid-n", str(self.n_transform), "--rmax", str(RMAX),
            "--out", self.csv_path])
        self.diagnose = _cli(ops, "diagnose", [
            "diagnose", "--k", "1", "--d", "3", "--synthetic", "dichotomy:0.4",
            "--grid-n", str(self.n_constant)])

    def check(self, ops: Ops, oracle: Oracle) -> dict:
        phi_errs = []
        for (k, d), (rc, out) in self.constants.items():
            label = f"constant B k={k} d={d}"
            ops.check(label, rc == 0, f"exit code {rc}")
            if rc == 0:
                err = rel_err(json.loads(out)["value"], oracle.phi(k, d))
                phi_errs.append(err)
                ops.check(label, err <= TOL, f"B rel err {err:.3e} > {TOL:g}")
        out = {"phi_rel_err": max(phi_errs, default=None)}
        ops.check("transform", self.transform_rc == 0,
                  f"exit code {self.transform_rc}")
        if self.transform_rc == 0:
            r, v = _read_csv(self.csv_path)
            err = float(np.max(np.abs(v / oracle.transform(1, r) - 1.0)))
            ops.check("transform", len(r) > 0 and err <= TOL,
                      f"{len(r)} rows, T h rel err {err:.3e}")
            out["transform_rel_err"] = err
        rc, text = self.diagnose
        ops.check("diagnose", rc == 0, f"exit code {rc}")
        if rc == 0:
            report = json.loads(text)
            alpha = report["alpha_estimate"]
            ops.check("diagnose", report["verdict"] == "Dichotomy"
                      and abs(alpha - 0.4) <= ALPHA_TOL,
                      f"verdict {report['verdict']}, alpha {alpha}")
        out.update(reference_companions(ops, oracle, ("adjoint",)))
        return out


def _read_csv(path):
    """The r,value rows of a profile CSV, parsed without kplane."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0] == "r":
                continue
            rows.append((float(row[0]), float(row[1])))
    arr = np.asarray(rows, dtype=float).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


class Search:
    """Extremizer searches on warm operators, from the ball indicator and from
    a seeded non-monotone profile passed through rearrange."""

    #: bodies per untraced child, whose median is the child's wall time: each
    #: body repeats the same warm work, and set-up dominates a child's time
    repeats = 3

    def __init__(self, seed: int, tmpdir: str, tiny: bool):
        self.seed = seed
        self.n = 512 if tiny else 2048

    def setup(self):
        self.grid = K.make_halfline_grid(self.n)
        self.params = [K.make_params(k, d) for k, d in PAIRS]
        for params in self.params:
            h = K.extremizer_profile(params, 1.0, self.grid)
            K.apply_T(params, h)
            K.apply_T_adjoint(params, h)
        rng = np.random.default_rng(self.seed)
        r = self.grid.nodes
        self.inits = []
        for _ in self.params:
            amp = rng.uniform(0.2, 1.0, 3)
            centre = rng.uniform(0.5, 3.0, 3)
            width = rng.uniform(0.3, 1.5, 3)
            self.inits.append(sum(a * np.exp(-((r - c) / w) ** 2)
                                  for a, c, w in zip(amp, centre, width)))

    def body(self, ops: Ops):
        grid = self.grid
        ball = K.IntervalSet(((0.0, 1.0),))
        self.traces = {}

        def from_ball(params):
            return K.search_extremizer(params, K.indicator_profile(grid, ball))

        def from_seeded(params, vals):
            init = K.rearrange(params, K.RadialProfile(grid, vals))
            return K.search_extremizer(params, init)

        for params, vals in zip(self.params, self.inits):
            tag = f"k={params.k} d={params.d}"
            self.traces[f"search ball {tag}"] = (
                params, ops.call(f"search ball {tag}", from_ball, params))
            self.traces[f"search seeded {tag}"] = (
                params, ops.call(f"search seeded {tag}", from_seeded, params, vals))

    def check(self, ops: Ops, oracle: Oracle) -> dict:
        for label, (params, trace) in self.traces.items():
            if trace is None:
                continue
            err = rel_err(trace.iterates[-1], oracle.phi(params.k, params.d))
            ops.check(label, trace.converged and err <= TOL,
                      f"converged={trace.converged}, Phi rel err {err:.3e}")
        return companions(ops, oracle, self.grid, PAIRS)


class Verify:
    """Every verification suite, seeded by the benchmark seed."""

    repeats = 1  # a second body would find the operator cache warm

    def __init__(self, seed: int, tmpdir: str, tiny: bool):
        self.seed = seed
        self.suites = ("slide", "superadd") if tiny else ("all",)

    def setup(self):
        pass

    def body(self, ops: Ops):
        self.reports = []
        for suite in self.suites:
            self.reports += ops.call(f"verify {suite}", K.run_suite, suite,
                                     seed=self.seed) or []

    def check(self, ops: Ops, oracle: Oracle) -> dict:
        for i, rep in enumerate(self.reports):
            ops.check(f"check {i} {rep.name}", rep.passed,
                      f"lhs={rep.lhs!r} rhs={rep.rhs!r}")
        return reference_companions(ops, oracle,
                                    ("phi", "transform", "adjoint"))


WORKLOADS = {"cold": Cold, "search": Search, "verify": Verify}
