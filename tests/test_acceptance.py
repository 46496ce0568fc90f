"""Acceptance criteria, each at its stated tolerance, printing one PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
margins.
"""
import math
import time

import numpy as np
import pytest

import kplane as K
from kplane.cli import _synthetic_sequence
from kplane.verify import run_suite, suite_concentration_k1, suite_interaction

from conftest import smooth_decaying

PAIRS = [(1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_01_sharp_constant_beta_cross_check():
    # B(2,4) = (1/3)^{1/5} / (2/3)^{3/5} from the Beta-integral oracle,
    # within 1e-6 relative at grid-n 4096, under 10 s
    t0 = time.time()
    got = K.constant_B(K.make_params(2, 4), resolution=4096)
    elapsed = time.time() - t0
    target = (1 / 3) ** 0.2 / (2 / 3) ** 0.6
    rel = abs(got - target) / target
    report("01 sharp constant B(2,4)", rel < 1e-6 and elapsed < 10.0,
           f"rel err {rel:.2e}, {elapsed:.2f}s")


def test_02_constant_A_closed_form():
    got = K.constant_A(K.make_params(1, 2))
    rel = abs(got - (math.pi / 2) ** (1 / 3))
    report("02 A(1,2) = (pi/2)^(1/3)", rel < 1e-12, f"abs err {rel:.2e}")


def test_03_dilation_invariance():
    worst = 0.0
    for k, d in PAIRS:
        params = K.make_params(k, d)
        grid = K.make_halfline_grid(4096)
        phis = [K.functional_ratio(params, K.extremizer_profile(params, lam, grid))
                for lam in (0.25, 1.0, 4.0)]
        spread = (max(phis) - min(phis)) / np.mean(phis)
        worst = max(worst, spread)
    report("03 dilation invariance of Phi", worst < 1e-8, f"worst spread {worst:.2e}")


def test_04_extremality_bound():
    violations = 0
    worst = 0.0
    for k, d in PAIRS:
        params = K.make_params(k, d)
        grid = K.make_halfline_grid(2048)
        b = K.constant_B(params, resolution=2048)
        rng = np.random.default_rng(1000 + 10 * k + d)
        for _ in range(100):
            f = smooth_decaying(params, grid, rng, n_terms=4)
            ratio = K.functional_ratio(params, f) / b
            worst = max(worst, ratio)
            if ratio > 1 + 1e-4:
                violations += 1
    report("04 Phi(f) <= B for 500 random profiles", violations == 0,
           f"worst Phi/B = {worst:.10f}")


def test_05_extremizer_search():
    params = K.make_params(1, 3)
    grid = K.make_halfline_grid(2048)
    init = K.indicator_profile(grid, K.IntervalSet(((0.0, 1.0),)))
    trace = K.search_extremizer(params, init, max_iter=500, tol=1e-8)
    b = K.constant_B(params, resolution=4096)
    phi_ok = trace.converged and trace.iterates[-1] >= (1 - 1e-3) * b
    steps = np.diff(trace.iterates)
    mono_ok = (steps >= -1e-9 * np.array(trace.iterates[1:])).all()
    _, f_n = K.normalize_dilation(params, trace.final_profile)
    _, h_n = K.normalize_dilation(params, K.extremizer_profile(params, 1.0, grid))
    f_n = f_n.scaled(1.0 / K.weighted_lp_norm(f_n, params.a_domain, params.pf))
    h_n = h_n.scaled(1.0 / K.weighted_lp_norm(h_n, params.a_domain, params.pf))
    diff = K.RadialProfile(grid, f_n.values - h_n.values)
    lp_err = K.weighted_lp_norm(diff, params.a_domain, params.pf)
    report("05 search from indicator",
           phi_ok and mono_ok and lp_err < 1e-2,
           f"iters {trace.iterations_used}, Phi/B-1 = {trace.iterates[-1]/b-1:.2e}, "
           f"L^p profile err {lp_err:.2e}, monotone {mono_ok}")


def test_06_concentration_k2_bound():
    reps = run_suite("concentration-k2", seed=7, trials=100)
    n_pass = sum(r.passed for r in reps)
    worst = max(r.lhs / r.rhs for r in reps if r.rhs > 0)
    report("06 k>=2 far-set bound, 100 trials", n_pass == len(reps),
           f"{n_pass}/{len(reps)} pass, worst lhs/rhs = {worst:.4f}")


def test_07_concentration_k1_shape():
    reps = [r for r in suite_concentration_k1() if r.name == "concentration-k1"]
    ok = all(r.passed for r in reps)
    worst = max(r.lhs for r in reps)
    report("07 k=1 far-set ratio under recorded ceiling", ok,
           f"max ratio {worst:.4f} (ratios decay with R; the bound is one-sided)")


def test_08_slide_monotonicity():
    reps = run_suite("slide", seed=11, trials=100)
    min_margin = min(-r.lhs for r in reps)
    report("08 sliding monotonicity, 100 trials", all(r.passed for r in reps),
           f"min pointwise margin {min_margin:.2e} (tolerance -1e-10)")


def test_09_superadditivity():
    worst = 0.0
    for k in (1, 2, 3):
        params = K.make_params(k, k + 1 if k > 1 else 3)
        from fractions import Fraction
        alphas = [Fraction(j, 100) for j in range(1, 100)]
        rep = K.check_superadditivity(params, alphas)
        assert rep.passed
        worst = max(worst, rep.lhs)
    report("09 superadditivity (exact arithmetic)", worst < 1.0,
           f"max alpha^(k+1)+(1-alpha)^(k+1) = {worst:.6f} < 1")


def test_10_weak_interaction_decay():
    reps = suite_interaction()
    ok = all(r.passed for r in reps)
    bands = {f"({r.inputs['k']},{r.inputs['d']})": round(r.lhs, 4) for r in reps}
    report("10 weak interaction decay + factor-4 band", ok, f"bands {bands}")


def test_11_compactness():
    reps = run_suite("compactness", seed=0)
    ok = all(r.passed for r in reps)
    detail = "; ".join(
        f"k={r.inputs['k']}: sigma ratios {np.round(r.inputs['sigma_ratios'], 4)}, "
        f"moduli {np.round(r.inputs['moduli'], 5)}" for r in reps)
    report("11 truncated-operator compactness trends", ok, detail)


def test_12_trichotomy_classifier():
    params = K.make_params(1, 3)
    grid = K.make_halfline_grid(2048)
    results = {}
    for family, expected in (("tight", "Tight"), ("vanishing", "Vanishing"),
                             ("dichotomy:0.4", "Dichotomy")):
        seq = _synthetic_sequence(family, params, grid)
        rep = K.classify_trichotomy(params, seq, eps=0.05, separation_min=8.0)
        results[family] = rep.verdict
        if family.startswith("dichotomy"):
            alpha_ok = abs(rep.alpha_estimate - 0.4) < 0.05
            results["alpha"] = round(rep.alpha_estimate, 4)
    ok = (results["tight"] == "Tight" and results["vanishing"] == "Vanishing"
          and results["dichotomy:0.4"] == "Dichotomy" and alpha_ok)
    report("12 trichotomy classifier", ok, str(results))


def test_13_closed_form_transforms():
    worst_ind = 0.0
    grid = K.make_grid(4096, 50.0)
    for k, a in ((1, 1.0), (2, 1.0), (1, 3.0), (2, 3.0)):
        params = K.make_params(k, 3)
        tf = K.apply_T_indicator(params, K.IntervalSet(((0.0, a),)), grid)
        exact = np.maximum(a * a - grid.nodes ** 2, 0.0) ** (k / 2) / k
        worst_ind = max(worst_ind, float(np.abs(tf.values - exact).max()))
    worst_h = 0.0
    gridh = K.make_halfline_grid(4096)
    for k, ck in ((1, math.pi / 2), (2, 1.0)):
        params = K.make_params(k, 3)
        h = K.extremizer_profile(params, 1.0, gridh)
        th = K.apply_T(params, h)
        exact = ck * (1 + gridh.nodes ** 2) ** (-0.5)
        worst_h = max(worst_h, float(np.abs(th.values - exact).max()))
    report("13 closed-form transforms", worst_ind < 1e-8 and worst_h < 1e-6,
           f"indicator sup err {worst_ind:.2e} (tol 1e-8), "
           f"extremizer sup err {worst_h:.2e} (tol 1e-6)")
