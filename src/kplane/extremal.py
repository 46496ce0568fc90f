"""Extremizer family, sharp constants, the functional ratio, and the
Euler-Lagrange fixed-point search for the best constant."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DomainError, ParameterError, Params, RadialGrid, RadialProfile,
                   IterationAnomalyError, make_halfline_grid, make_params,
                   scaled_decay, weighted_lp_norm)
from .symmetry import _median_radius, dilate_profile
from .transform import _apply_T_once, _dense_for, apply_T, apply_T_adjoint

#: relative per-step tolerance for monotone ascent of the search functional
ASCENT_TOL = 1e-9

#: Anderson mixing depth of the search: it mixes the last _ANDERSON_DEPTH + 1
#: pairs (f_i, G(f_i)) of its fixed-point map G
_ANDERSON_DEPTH = 5


def sphere_area(i: int) -> float:
    """Surface measure |S^{i-1}| of the unit sphere in R^i: 2 pi^{i/2} / Gamma(i/2)."""
    if i < 1:
        raise ParameterError(f"need i >= 1, got {i}")
    return 2.0 * math.pi ** (i / 2.0) / math.gamma(i / 2.0)


def constant_A(params: Params) -> float:
    """Best constant of the ambient k-plane inequality:
    A(k,d) = [2^{k-d} |S^k|^d / |S^d|^k]^{1/(d+1)}."""
    k, d = params.k, params.d
    s_k = sphere_area(k + 1)
    s_d = sphere_area(d + 1)
    return (2.0 ** (k - d) * s_k ** d / s_d ** k) ** (1.0 / (d + 1))


def extremizer_profile(params: Params, lam: float, grid: RadialGrid) -> RadialProfile:
    """Samples of the dilated extremizer lam^{d/p} (1 + (lam r)^2)^{-(k+1)/2}."""
    scale = params.dilation_scale(lam)
    return RadialProfile(grid, scaled_decay(lam * grid.nodes, params.k + 1, scale))


def functional_ratio(params: Params, f: RadialProfile) -> float:
    """Phi(f) = ||T f||_{L^q(r^{d-k-1}dr)} / ||f||_{L^p(r^{d-1}dr)}."""
    return _ratio(params, f, apply_T)


def _ratio(params: Params, f: RadialProfile, transform) -> float:
    """Phi(f) with T f = transform(params, f)."""
    denom = weighted_lp_norm(f, params.a_domain, params.pf)
    if denom <= 0.0:
        raise DomainError("functional ratio undefined for the zero profile")
    tf = transform(params, f)
    num = weighted_lp_norm(tf, params.a_target, params.qf)
    return num / denom


@functools.lru_cache(maxsize=64)
def _constant_B_cached(k: int, d: int, resolution: int) -> tuple[float, float]:
    if resolution < 32:
        raise ParameterError(f"need resolution >= 32, got {resolution}: the error "
                             f"estimate also uses a grid of resolution // 2 = "
                             f"{resolution // 2} points, and a grid needs 16 at least")
    # one T h per grid: integrated directly, with no operator built and cached
    params = make_params(k, d)
    _dense_for(k, resolution)
    vals = []
    for n in (resolution // 2, resolution):
        grid = make_halfline_grid(n)
        vals.append(_ratio(params, extremizer_profile(params, 1.0, grid), _apply_T_once))
    return vals[1], abs(vals[1] - vals[0])


def constant_B(params: Params, resolution: int = 4096) -> float:
    """Sharp constant of the radial inequality, defined operationally as
    Phi(extremizer); resolution doubling supplies the quadrature error
    estimate (see constant_B_with_error), so resolution is 32 at least."""
    return _constant_B_cached(params.k, params.d, int(resolution))[0]


def constant_B_with_error(params: Params, resolution: int = 4096) -> tuple[float, float]:
    return _constant_B_cached(params.k, params.d, int(resolution))


@dataclass
class SearchTrace:
    """Per-iteration record of the extremizer search.

    iterates           Phi of the start and of each accepted iterate
    residuals          the Euler-Lagrange residual
                       ||f - N[(T*((T f)^{q-1}))^{1/(p-1)}]||_p of the iterate f
                       each step starts from, N the p-normalization; it
                       vanishes exactly at a fixed point, where Phi, which
                       moves only at second order there, certifies nothing
    accelerated_steps  the steps whose Anderson-mixed candidate was accepted
    stop               "residual" when a step started from a residual <= tol,
                       or None when max_iter ran out
    rate               the geometric mean of the last (up to 3) ratios of
                       consecutive residuals since the mixing history was
                       last cleared; None before there is one
    error_bound        the last residual / (1 - rate), a bound on the
                       distance to the fixed point if the contraction holds;
                       None when rate is None or >= 1
    """
    iterates: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    final_profile: RadialProfile | None = None
    converged: bool = False
    iterations_used: int = 0
    damped_steps: list[int] = field(default_factory=list)
    recentered_steps: list[int] = field(default_factory=list)
    accelerated_steps: list[int] = field(default_factory=list)
    stop: str | None = None
    rate: float | None = None
    error_bound: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "phi": self.iterates,
            "residual": self.residuals,
            "converged": self.converged,
            "iterations_used": self.iterations_used,
            "damped_steps": self.damped_steps,
            "recentered_steps": self.recentered_steps,
            "accelerated_steps": self.accelerated_steps,
            "stop": self.stop,
            "rate": self.rate,
            "error_bound": self.error_bound,
        }


def _normalized(params: Params, f: RadialProfile) -> RadialProfile:
    nrm = weighted_lp_norm(f, params.a_domain, params.pf)
    if nrm <= 0:
        raise DomainError("cannot normalize the zero profile")
    return f.scaled(1.0 / nrm)


def _anderson(pairs: list, sqrt_w: np.ndarray) -> np.ndarray:
    """Anderson mixing of the value pairs (f_i, G(f_i)), oldest first (Walker
    & Ni 2011): G(f_k) - dG gamma, where gamma minimizes ||F_k - dF gamma||
    with F_i = G(f_i) - f_i, dF and dG the differences of consecutive F_i
    and G(f_i), and the norm the L^2 one of the grid's base weights."""
    fs, gs = map(np.array, zip(*pairs))
    F = (gs - fs) * sqrt_w
    gamma = np.linalg.lstsq(np.diff(F, axis=0).T, F[-1], rcond=None)[0]
    return gs[-1] - gamma @ np.diff(gs, axis=0)


def search_extremizer(params: Params, init: RadialProfile, max_iter: int = 500,
                      tol: float = 1e-8) -> SearchTrace:
    """Fixed-point iteration for the Euler-Lagrange equation of the ratio,

        f  <-  G(f) = normalize( [T*((T f)^{q-1})]^{1/(p-1)} ),

    which preserves positivity and ascends Phi, accelerated by Anderson
    mixing of the last _ANDERSON_DEPTH + 1 pairs (f_i, G(f_i)): the mixed
    candidate, clipped at 0 and normalized, replaces G(f) when it passes the
    ascent check, and otherwise the plain step is taken and the history cut
    to its newest pair. The history is cleared whenever the residual grows
    and on every re-centring, which changes the coordinates.

    The ascent check (and the damping it may trigger on a plain step)
    compares each candidate with the previous iterate in one dilation frame.
    An accepted iterate whose mass median has drifted beyond a factor e^0.35
    is then dilated to move the median back to r = 1 and its Phi
    re-measured: the orbit is Phi-invariant, but the quadrature error is
    not, so Phi read at a new scale may differ by more than ASCENT_TOL.

    Checked after each step, so step 1 always runs: the search stops, with
    converged set and stop "residual", when the residual that step started
    from is <= tol. The residual has a floor that depends on n: from the
    ball, (1,3) reaches 1.2e-15 at n = 512 and 7e-16 at 2048, (1,2) 1.1e-15
    and 7e-16, and (3,4) 4e-15 and 4e-16. A tol below the floor ends at
    max_iter with converged False. At the default tol the searches from the
    ball at n = 2048 take 12 steps for (1,3) and (1,2), 9 for (2,4) and 8
    for (3,4), ending at residuals of 5e-10 to 1.4e-9. The trace's rate and
    error_bound read the last steps' contraction.
    """
    if not init.nonnegative:
        raise DomainError("search requires a nonnegative initial profile")
    if max_iter < 1:
        raise ParameterError(f"need max_iter >= 1, got {max_iter}")
    if not tol >= 0:
        raise ParameterError(f"need tol >= 0, got {tol}")
    qf, pf = params.qf, params.pf
    exp_update = 1.0 / (pf - 1.0)
    f = _normalized(params, init)
    sqrt_w = np.sqrt(f.grid.base_weights)
    trace = SearchTrace()

    def phi_of(prof: RadialProfile) -> tuple[float, RadialProfile]:
        tf = apply_T(params, prof)
        return weighted_lp_norm(tf, params.a_target, qf), tf

    phi, tf = phi_of(f)
    trace.iterates.append(phi)
    pairs = []  # the values of (f_i, G(f_i)) in the current frame
    fresh = 0  # the first residual since pairs was last cleared
    for it in range(1, max_iter + 1):
        powered = RadialProfile(f.grid, np.maximum(tf.values, 0.0) ** (qf - 1.0))
        grad = apply_T_adjoint(params, powered)
        cand_vals = np.maximum(grad.values, 0.0) ** exp_update
        cand = _normalized(params, RadialProfile(f.grid, cand_vals))
        residual = weighted_lp_norm(
            RadialProfile(f.grid, f.values - cand.values), params.a_domain, pf)
        if trace.residuals and residual > trace.residuals[-1]:
            pairs.clear()
            fresh = len(trace.residuals)
        trace.residuals.append(residual)
        pairs.append((f.values, cand.values))
        del pairs[:-_ANDERSON_DEPTH - 1]
        accepted = False
        if len(pairs) > 1:
            mixed = RadialProfile(f.grid, np.maximum(_anderson(pairs, sqrt_w), 0.0))
            mixed = _normalized(params, mixed)
            phi_c, tf_c = phi_of(mixed)
            accepted = phi_c >= phi * (1.0 - ASCENT_TOL)
            if accepted:
                cand = mixed
                trace.accelerated_steps.append(it)
            else:
                del pairs[:-1]
        if not accepted:
            phi_c, tf_c = phi_of(cand)
            if phi_c < phi * (1.0 - ASCENT_TOL):
                # damping: geometric mean with the previous iterate in log space
                damped_vals = np.sqrt(cand.values * f.values)
                cand = _normalized(params, RadialProfile(f.grid, damped_vals))
                phi_c, tf_c = phi_of(cand)
                trace.damped_steps.append(it)
                if phi_c < phi * (1.0 - ASCENT_TOL):
                    raise IterationAnomalyError(
                        f"Phi decreased at step {it}: {phi:.12g} -> {phi_c:.12g}; "
                        "adjoint or quadrature inconsistency")
        lam = _median_radius(params, cand)
        if abs(math.log(lam)) > 0.35:
            cand = _normalized(params, dilate_profile(params, cand, lam))
            phi_c, tf_c = phi_of(cand)
            trace.recentered_steps.append(it)
            pairs.clear()
            fresh = len(trace.residuals)
        f, phi, tf = cand, phi_c, tf_c
        trace.iterates.append(phi)
        if residual <= tol:
            trace.stop = "residual"
            trace.converged = True
            break
    trace.iterations_used = len(trace.iterates) - 1
    trace.final_profile = f
    recent = trace.residuals[max(fresh, len(trace.residuals) - 4):]
    if len(recent) > 1 and recent[0] > 0:
        trace.rate = (recent[-1] / recent[0]) ** (1.0 / (len(recent) - 1))
        if trace.rate < 1:
            trace.error_bound = recent[-1] / (1.0 - trace.rate)
    return trace
