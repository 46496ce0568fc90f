"""Numerical verification of the quantitative inequalities, one BoundReport per
check. Inequalities stated with an explicit constant are asserted directly;
those stated only up to an unspecified constant are checked regression-style
against ceilings recorded at the first oracle run (see BASELINES).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (IntervalSet, ParameterError, Params, PreconditionError,
                   RadialProfile, indicator_profile, make_grid, make_halfline_grid,
                   make_params, weighted_lp_norm)
from .cc import _interaction_bound, _interaction_term
from .extremal import constant_B, extremizer_profile
from .symmetry import truncate
from .transform import (_apply_T_once, apply_T, apply_T_indicator, discretize_T_R,
                        equicontinuity_modulus, singular_value_profile)

#: observed ceilings of implied-constant checks, recorded at the first oracle
#: run; later runs assert no regression beyond 10 percent.
BASELINES = {
    ("concentration-k1-ratio", 3): 0.93970,
    ("concentration-k1-ratio", 4): 0.83685,
    ("interaction-band", 1, 3): 1.0370,
    ("interaction-band", 2, 3): 1.0383,
}


@dataclass
class BoundReport:
    name: str
    lhs: float
    rhs: float
    passed: bool
    inputs: dict = field(default_factory=dict)
    tol: float = 0.0

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "passed": bool(self.passed),
            "tol": self.tol,
            "inputs": self.inputs,
        }


def _report(name, lhs, rhs, tol, inputs) -> BoundReport:
    return BoundReport(name=name, lhs=float(lhs), rhs=float(rhs),
                       passed=bool(lhs <= rhs * (1 + tol) + 1e-300),
                       inputs=inputs, tol=tol)


def _transform_q_norm(params: Params, F: IntervalSet, n: int = 4096) -> float:
    """||T 1_F||_{L^q(r^{d-k-1}dr)} on a grid truncated at sup F (the transform
    vanishes beyond it, so no tail is lost)."""
    grid = make_grid(n, F.sup())
    tf = apply_T_indicator(params, F, grid)
    return weighted_lp_norm(tf, params.a_target, params.qf)


def check_concentration_k2(params: Params, F: IntervalSet, R: float,
                           tol: float = 1e-6, n: int = 4096) -> BoundReport:
    """Far-set bound for k >= 2: ||T 1_F||_q <= 2 mu(F) R^{d(k-d)/(d+1)},
    with mu the domain measure r^{d-1}dr (the measure the proof integrates F
    against)."""
    if params.k < 2:
        raise ParameterError("this bound needs k >= 2 (use check_concentration_k1)")
    if not (R > 0):
        raise ParameterError(f"need R > 0, got {R}")
    if not F.empty and F.inf() < R * (1 - 1e-12):
        raise PreconditionError(f"F must be disjoint from [0, R]; inf F = {F.inf():.6g}")
    delta_mu = F.weighted_measure(params.a_domain)
    rhs = 2.0 * delta_mu * R ** (params.d * (params.k - params.d) / (params.d + 1))
    lhs = 0.0 if F.empty else _transform_q_norm(params, F, n)
    return _report("concentration-k2", lhs, rhs, tol,
                   {"k": params.k, "d": params.d, "R": R,
                    "F": [list(ab) for ab in F.intervals], "delta_mu": delta_mu})


def check_concentration_k1(params: Params, F: IntervalSet, R: float,
                           n: int = 4096) -> BoundReport:
    """k = 1 far-set shape bound ||T 1_F||_q <~ R^{-1/q} for mu(F) ~ 1:
    reports the ratio against the recorded regression ceiling."""
    if params.k != 1:
        raise ParameterError("this bound is the k = 1 case")
    if R < 1:
        raise PreconditionError(f"this bound requires R >= 1, got {R}")
    if F.empty:
        raise PreconditionError("F must have weighted measure ~ 1; got the empty set")
    if F.inf() < R * (1 - 1e-12):
        raise PreconditionError(f"F must be disjoint from [0, R]; inf F = {F.inf():.6g}")
    mu = F.weighted_measure(params.a_domain)
    if not (0.5 <= mu <= 2.0):
        raise PreconditionError(f"normalization |F|_mu in [1/2, 2] violated: {mu:.6g}")
    lhs = _transform_q_norm(params, F, n)
    rhs_shape = R ** (-1.0 / params.qf)
    ratio = lhs / rhs_shape
    ceiling = BASELINES.get(("concentration-k1-ratio", params.d))
    passed = ceiling is not None and ratio <= 1.1 * ceiling
    return BoundReport("concentration-k1", lhs=ratio,
                       rhs=(1.1 * ceiling if ceiling else float("nan")),
                       passed=passed, tol=0.0,
                       inputs={"d": params.d, "R": R, "mu": mu,
                               "F": [list(ab) for ab in F.intervals],
                               "rhs_shape": rhs_shape})


def slide_interval(a: float, b: float, delta: float) -> tuple[float, float]:
    """Slide (a, b) down by delta preserving the u du-measure: the new interval
    is (a - delta, b - delta') with (b-delta')^2 - (a-delta)^2 = b^2 - a^2."""
    b_new = math.sqrt(b * b - a * a + (a - delta) ** 2)
    return a - delta, b_new


def check_slide_monotonicity(params: Params, E_sup: float, I: tuple[float, float],
                             Delta: float, n_scan: int = 2049) -> BoundReport:
    """1-plane inverse concentration: sliding an interval toward 0 (measure
    preserved in u du) does not decrease T 1_I on [0, E_sup]."""
    if params.k != 1:
        raise ParameterError("the sliding argument is the k = 1 case")
    if n_scan < 2:
        raise ParameterError(f"need n_scan >= 2, got n_scan={n_scan}")
    a, b = I
    if not (0 <= Delta and a - Delta >= E_sup >= 0 and a < b):
        raise PreconditionError(
            f"need a - Delta >= E_sup >= 0 and a < b; got a={a}, b={b}, "
            f"Delta={Delta}, E_sup={E_sup}")
    a2, b2 = slide_interval(a, b, Delta)
    r = np.linspace(0.0, E_sup, n_scan)

    def t_ind(lo, hi):
        return (np.sqrt(np.maximum(hi * hi - r * r, 0.0))
                - np.sqrt(np.maximum(lo * lo - r * r, 0.0)))

    diff = t_ind(a2, b2) - t_ind(a, b)
    worst = float(diff.min())
    return BoundReport("slide-monotonicity", lhs=-worst, rhs=1e-10,
                       passed=worst >= -1e-10, tol=0.0,
                       inputs={"a": a, "b": b, "Delta": Delta, "E_sup": E_sup,
                               "slid": [a2, b2]})


def check_superadditivity(params: Params, alpha_grid) -> BoundReport:
    """Strict superadditivity backing S_1 > S_alpha + S_{1-alpha}:
    alpha^{k+1} + (1-alpha)^{k+1} < 1 in exact rational arithmetic, plus the
    q-homogeneity ||T(c f)||_q^q = c^q ||T f||_q^q that reduces S_alpha to it,
    f and c f each transformed once (_apply_T_once), with no dense M0 built."""
    alpha_grid = list(alpha_grid)
    worst = Fraction(0)
    for alpha in alpha_grid:
        fa = Fraction(alpha).limit_denominator(10 ** 9)
        if not (0 < fa < 1):
            raise ParameterError(f"alpha must lie in (0,1), got {alpha}")
        val = fa ** (params.k + 1) + (1 - fa) ** (params.k + 1)
        if val > worst:
            worst = val
    grid = make_halfline_grid(512)
    f = extremizer_profile(params, 1.0, grid)
    c = 2.0
    t1 = weighted_lp_norm(_apply_T_once(params, f.scaled(c)), params.a_target,
                          params.qf) ** params.qf
    t0 = weighted_lp_norm(_apply_T_once(params, f), params.a_target, params.qf) ** params.qf
    hom_err = abs(t1 - c ** params.qf * t0) / t1
    passed = worst < 1 and hom_err < 1e-10
    return BoundReport("superadditivity", lhs=float(worst), rhs=1.0,
                       passed=passed, tol=0.0,
                       inputs={"k": params.k, "alphas": len(alpha_grid),
                               "homogeneity_rel_err": hom_err})


def check_compactness(params: Params, R: float, n_list) -> BoundReport:
    """Truncated-operator compactness trends: the weighted singular-value ratio
    sigma_{n/4}/sigma_1 decreases as n doubles, and the equicontinuity modulus
    decreases as the step shrinks."""
    n_list = list(n_list)
    if (len(n_list) < 2 or any(n < 64 for n in n_list)
            or any(b <= a for a, b in zip(n_list, n_list[1:]))):
        raise ParameterError("n_list must hold two or more increasing sizes, each >= 64")
    ratios = []
    for n in n_list:
        op = discretize_T_R(params, R, n)
        s = singular_value_profile(op)
        ratios.append(float(s[n // 4] / s[0]))
    steps = (1e-1, 1e-2, 1e-3)
    moduli = [equicontinuity_modulus(params, R, h) for h in steps]
    ratio_ok = all(b < a for a, b in zip(ratios, ratios[1:]))
    mod_ok = all(b < a for a, b in zip(moduli, moduli[1:]))
    worst_ratio_growth = max(b / a for a, b in zip(ratios, ratios[1:]))
    return BoundReport("compactness", lhs=worst_ratio_growth, rhs=1.0,
                       passed=ratio_ok and mod_ok, tol=0.0,
                       inputs={"k": params.k, "d": params.d, "R": R,
                               "n_list": n_list, "sigma_ratios": ratios,
                               "h_steps": list(steps), "moduli": moduli})


def check_truncation_pipeline(params: Params, f: RadialProfile, m_list) -> BoundReport:
    """Mechanics of the truncation decomposition on one profile: operator bound
    ||T f - T g^m||_q <= B ||eps_m||_p, pointwise monotonicity of T g^m in m,
    and ||eps_m||_p -> 0 along m_list."""
    m_list = list(m_list)
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ParameterError("m_list must be increasing")
    tf = apply_T(params, f)
    # B on f's own grid size: the operators of that grid are cached by now
    B = constant_B(params, resolution=f.grid.n)
    tnorm_scale = float(np.max(np.abs(tf.values)))
    eps_norms = []
    bound_margins = []
    prev_tg = None
    mono_worst = 0.0
    for m in m_list:
        g, eps = truncate(params, f, m)
        tg = apply_T(params, g)
        eps_p = weighted_lp_norm(eps, params.a_domain, params.pf)
        diff = RadialProfile(f.grid, tf.values - tg.values)
        lhs = weighted_lp_norm(diff, params.a_target, params.qf)
        eps_norms.append(eps_p)
        bound_margins.append(B * eps_p * (1 + 1e-6) + 1e-12 - lhs)
        if prev_tg is not None:
            mono_worst = min(mono_worst, float((tg.values - prev_tg).min()))
        prev_tg = tg.values
    bound_ok = all(mg >= 0 for mg in bound_margins)
    mono_ok = mono_worst >= -1e-8 * max(tnorm_scale, 1e-300)
    decay_ok = all(b <= a + 1e-15 for a, b in zip(eps_norms, eps_norms[1:]))
    vanish_ok = eps_norms[-1] < 0.5 * eps_norms[0] if eps_norms[0] > 0 else True
    return BoundReport("truncation-pipeline",
                       lhs=-min(bound_margins), rhs=0.0,
                       passed=bound_ok and mono_ok and decay_ok and vanish_ok,
                       tol=0.0,
                       inputs={"m_list": m_list, "eps_norms": eps_norms,
                               "B": B, "pointwise_mono_worst": mono_worst})


# ---------------------------------------------------------------------------
# randomized instance generators and suite runners

def _random_far_intervals(rng, R: float, n_max: int = 5,
                          leb_range=(0.1, 2.0)) -> IntervalSet:
    total = rng.uniform(*leb_range)
    m = int(rng.integers(1, n_max + 1))
    lengths = rng.dirichlet(np.ones(m)) * total
    gaps = rng.uniform(0.0, R, size=m)
    gaps[0] = rng.uniform(0.0, 2 * R)
    pairs = []
    x = R
    for L, g in zip(lengths, gaps):
        x = x + g
        pairs.append((x, x + L))
        x += L
    return IntervalSet.from_pairs(pairs)


def _require_trials(trials: int) -> None:
    """A suite that runs `trials` random cases needs at least one."""
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")


def suite_concentration_k2(seed: int = 7, trials: int = 100,
                           k_values=(2, 3), d_values=(3, 4, 5)) -> list[BoundReport]:
    _require_trials(trials)
    rng = np.random.default_rng(seed)
    out = []
    cases = [(k, d) for k in k_values for d in d_values if k <= d - 1]
    for t in range(trials):
        k, d = cases[t % len(cases)]
        params = make_params(k, d)
        R = float(rng.uniform(1.0, 100.0))
        F = _random_far_intervals(rng, R)
        rep = check_concentration_k2(params, F, R, n=2048)
        rep.inputs["seed"] = seed
        rep.inputs["trial"] = t
        out.append(rep)
    return out


def suite_concentration_k1(d_values=(3, 4), n: int = 4096) -> list[BoundReport]:
    out = []
    for d in d_values:
        params = make_params(1, d)
        for R in (1.0, 4.0, 16.0, 64.0):
            rho = R
            # thin far interval with weighted measure exactly 1
            delta = (rho ** d + d) ** (1.0 / d) - rho
            F = IntervalSet(((rho, rho + delta),))
            rep = check_concentration_k1(params, F, R, n=n)
            out.append(rep)
        # inverse-concentration direction: sliding the union toward 0 (in the
        # u du-preserving sense of the k = 1 argument) raises the norm
        spread = IntervalSet(((4.0, 4.4), (7.0, 7.4), (11.0, 11.4)))
        packed_pairs = [spread.intervals[0]]
        for a, b in spread.intervals[1:]:
            delta = a - packed_pairs[-1][1]
            packed_pairs.append(slide_interval(a, b, delta))
        packed = IntervalSet.from_pairs(packed_pairs)
        lhs = _transform_q_norm(params, spread, n=2048)
        rhs = _transform_q_norm(params, packed, n=2048)
        out.append(_report("slide-compaction-direction", lhs, rhs, 1e-9,
                           {"d": d, "spread": [list(x) for x in spread.intervals],
                            "packed": [list(x) for x in packed.intervals]}))
    return out


def suite_slide(seed: int = 11, trials: int = 100) -> list[BoundReport]:
    _require_trials(trials)
    rng = np.random.default_rng(seed)
    params = make_params(1, 3)
    out = []
    for t in range(trials):
        E_sup = float(rng.uniform(0.0, 5.0))
        Delta = float(rng.uniform(0.0, 5.0))
        a = E_sup + Delta + float(rng.uniform(0.0, 5.0))
        b = a + float(rng.uniform(0.05, 5.0))
        rep = check_slide_monotonicity(params, E_sup, (a, b), Delta)
        rep.inputs.update(seed=seed, trial=t)
        out.append(rep)
    return out


def suite_superadditivity(k_values=(1, 2, 3)) -> list[BoundReport]:
    alphas = [Fraction(j, 100) for j in range(1, 100)]
    out = []
    for k in k_values:
        params = make_params(k, max(k + 1, 3) if k != 3 else 4)
        out.append(check_superadditivity(params, alphas))
    return out


def suite_compactness() -> list[BoundReport]:
    out = []
    for k in (1, 2):
        params = make_params(k, 3)
        out.append(check_compactness(params, 1.0, (64, 128, 256)))
    return out


def suite_truncation(seed: int = 3, trials: int = 5, n: int = 1024) -> list[BoundReport]:
    rng = np.random.default_rng(seed)
    out = []
    for t in range(trials):
        k, d = [(1, 3), (2, 3), (2, 4)][t % 3]
        params = make_params(k, d)
        grid = make_halfline_grid(n)
        lam = rng.uniform(0.5, 2.0, size=3)
        c = rng.uniform(0.2, 1.0, size=3)
        vals = sum(ci * li ** params.scale_exp_f
                   * (1 + (li * grid.nodes) ** 2) ** (-(k + 1) / 2.0)
                   for ci, li in zip(c, lam))
        if t % 2 == 1:
            # a nonmonotone profile exercises the height cut, not just the
            # radius cut
            vals = vals + 3.0 * np.exp(-((grid.nodes - 2.0) / 0.5) ** 2)
        f = RadialProfile(grid, vals)
        rep = check_truncation_pipeline(params, f, (1.0, 2.0, 4.0, 8.0, 16.0))
        rep.inputs.update(seed=seed, trial=t, k=k, d=d)
        out.append(rep)
    return out


def _critical_far_profile(params: Params, grid, r_cut: float) -> RadialProfile:
    """L^p-normalized psi(u) = u^{-(k+1)} 1_{u >= r_cut}: the critical power
    tail, for which the Hoelder step of the weak-interaction bound is tight."""
    vals = np.where(grid.nodes >= r_cut, grid.nodes ** (-(params.k + 1.0)), 0.0)
    psi = RadialProfile(grid, vals, splits=(float(r_cut),))
    nrm = weighted_lp_norm(psi, params.a_domain, params.pf)
    return psi.scaled(1.0 / nrm)


def suite_interaction(deltas=(2.0, 4.0, 8.0, 16.0, 32.0), n: int = 2048) -> list[BoundReport]:
    """Weak-interaction decay: for each (k, d) and every 1 <= m <= q-1, the
    cross term with an escaping normalized profile decreases along the dyadic
    sweep, and per m the ratio to the bound's shape stays within a factor-4
    band. The far profile carries the critical power tail u^{-(k+1)}, the
    family that saturates the Hoelder step; localized translates decay
    strictly faster than the bound's shape and would not form a band.
    interaction_term and interaction_bound_check are evaluated from one
    transform of each far profile (and of the near indicator) for all m, by
    the one-shot path those functions take (_apply_T_once), so the sweep
    rows are theirs bitwise. A far profile's T psi is integrated over the
    cells its support reaches alone, with no M0 formed: the five T psi of
    (1,3) at n = 2048 take about 32 ms with one thread, where building the
    dense M0 (18.6 MiB) and applying it five times took about 90 ms."""
    out = []
    R = 1.0
    for k, d in ((1, 3), (2, 3)):
        params = make_params(k, d)
        q = int(params.q)
        grid = make_halfline_grid(n)
        near = indicator_profile(grid, IntervalSet(((0.0, R),)))
        t_near = _apply_T_once(params, near).values
        # per m and delta: the cross term, and the bound's left side and shape
        terms, bounds = {}, {}
        for delta in deltas:
            psi = _critical_far_profile(params, grid, R + delta)
            t_psi = _apply_T_once(params, psi).values
            for m in range(1, q):
                terms[m, delta] = _interaction_term(params, t_near, t_psi, m, grid)
                bounds[m, delta] = _interaction_bound(params, R, delta, psi, t_psi, m)
        all_decreasing = True
        worst_band = 0.0
        bands = {}
        rows = []   # (m, delta, lhs, rhs_shape, ratio)
        for m in range(1, q):
            ratios = []
            for delta in deltas:
                lhs, shape = bounds[m, delta]
                ratios.append(lhs / shape)
                rows.append([m, delta, lhs, shape, lhs / shape])
            by_delta = [terms[m, delta] for delta in deltas]
            all_decreasing &= all(b < a for a, b in zip(by_delta, by_delta[1:]))
            bands[m] = max(ratios) / min(ratios)
            worst_band = max(worst_band, bands[m])
        ceiling = BASELINES.get(("interaction-band", k, d), math.inf)
        passed = all_decreasing and worst_band <= 4.0 and worst_band <= 1.1 * ceiling
        out.append(BoundReport("interaction-decay", lhs=worst_band, rhs=4.0,
                               passed=passed, tol=0.0,
                               inputs={"k": k, "d": d, "deltas": list(deltas),
                                       "bands_by_m": {str(m): b for m, b in bands.items()},
                                       "sweep_rows": rows,
                                       "ceiling": ceiling,
                                       "decreasing": all_decreasing}))
    return out


#: the suites that draw no random cases, which run_suite's seed leaves alone
UNSEEDED_SUITES = ("concentration-k1", "superadd", "compactness", "interaction")


def run_suite(name: str, seed: int = 7, trials: int | None = None,
              k: int | None = None, d: int | None = None) -> list[BoundReport]:
    """Run one verification suite (or 'all'). `trials` sets the random cases
    of the suites that draw them (100 unless given); k/d narrow the
    parameter sweep of suites that range over several pairs. A named suite
    refuses trials, k or d when it does not read them; 'all' passes each to
    the suites that read it. The seed reaches the suites not in
    UNSEEDED_SUITES."""
    if seed < 0:
        raise ParameterError(f"need seed >= 0, got {seed}")
    drawn = {} if trials is None else {"trials": trials}
    # suite -> (the arguments it reads, the run)
    suites = {
        "concentration-k2": ({"trials", "k", "d"}, lambda: suite_concentration_k2(
            seed, **drawn,
            k_values=(k,) if k is not None else (2, 3),
            d_values=(d,) if d is not None else (3, 4, 5))),
        "concentration-k1": ({"d"}, lambda: suite_concentration_k1(
            d_values=(d,) if d is not None else (3, 4))),
        "slide": ({"trials"}, lambda: suite_slide(seed, **drawn)),
        "superadd": ({"k"}, lambda: suite_superadditivity(
            k_values=(k,) if k is not None else (1, 2, 3))),
        "compactness": (set(), suite_compactness),
        "truncation": (set(), lambda: suite_truncation(seed)),
        "interaction": (set(), suite_interaction),
    }
    if name == "all":
        out = []
        for _, run in suites.values():
            out.extend(run())
        return out
    if name not in suites:
        raise ParameterError(f"unknown suite {name!r}; choose from "
                             f"{sorted(suites)} or 'all'")
    reads, run = suites[name]
    given = {"trials": trials, "k": k, "d": d}
    unread = [arg for arg, value in given.items() if value is not None and arg not in reads]
    if unread:
        raise ParameterError(f"suite {name!r} does not read {' or '.join(unread)}; of "
                             f"trials, k and d it reads {', '.join(sorted(reads)) or 'none'}")
    return run()
