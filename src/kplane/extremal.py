"""Extremizer family, sharp constants, the functional ratio, and the
Euler-Lagrange fixed-point search for the best constant."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DomainError, ParameterError, Params, RadialGrid, RadialProfile,
                   IterationAnomalyError, make_halfline_grid, make_params,
                   weighted_lp_norm)
from .symmetry import _median_radius, dilate_profile
from .transform import apply_T, apply_T_adjoint

#: relative per-step tolerance for monotone ascent of the search functional
ASCENT_TOL = 1e-9


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
    if not (lam > 0):
        raise ParameterError(f"need lam > 0, got {lam}")
    r = grid.nodes
    vals = lam ** params.scale_exp_f * (1.0 + (lam * r) ** 2) ** (-(params.k + 1) / 2.0)
    return RadialProfile(grid, vals)


def functional_ratio(params: Params, f: RadialProfile) -> float:
    """Phi(f) = ||T f||_{L^q(r^{d-k-1}dr)} / ||f||_{L^p(r^{d-1}dr)}."""
    denom = weighted_lp_norm(f, params.a_domain, params.pf)
    if denom <= 0.0:
        raise DomainError("functional ratio undefined for the zero profile")
    tf = apply_T(params, f)
    num = weighted_lp_norm(tf, params.a_target, params.qf)
    return num / denom


@functools.lru_cache(maxsize=64)
def _constant_B_cached(k: int, d: int, resolution: int) -> tuple[float, float]:
    params = make_params(k, d)
    vals = []
    for n in (resolution // 2, resolution):
        grid = make_halfline_grid(n)
        vals.append(functional_ratio(params, extremizer_profile(params, 1.0, grid)))
    return vals[1], abs(vals[1] - vals[0])


def constant_B(params: Params, resolution: int = 4096) -> float:
    """Sharp constant of the radial inequality, defined operationally as
    Phi(extremizer); resolution doubling supplies the quadrature error
    estimate (see constant_B_with_error)."""
    return _constant_B_cached(params.k, params.d, int(resolution))[0]


def constant_B_with_error(params: Params, resolution: int = 4096) -> tuple[float, float]:
    return _constant_B_cached(params.k, params.d, int(resolution))


@dataclass
class SearchTrace:
    """Per-iteration record of the extremizer search."""
    iterates: list[float] = field(default_factory=list)
    final_profile: RadialProfile | None = None
    converged: bool = False
    iterations_used: int = 0
    damped_steps: list[int] = field(default_factory=list)
    recentered_steps: list[int] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "phi": self.iterates,
            "converged": self.converged,
            "iterations_used": self.iterations_used,
            "damped_steps": self.damped_steps,
            "recentered_steps": self.recentered_steps,
        }


def _normalized(params: Params, f: RadialProfile) -> RadialProfile:
    nrm = weighted_lp_norm(f, params.a_domain, params.pf)
    if nrm <= 0:
        raise DomainError("cannot normalize the zero profile")
    return f.scaled(1.0 / nrm)


def search_extremizer(params: Params, init: RadialProfile, max_iter: int = 500,
                      tol: float = 1e-8) -> SearchTrace:
    """Fixed-point iteration for the Euler-Lagrange equation of the ratio:

        f  <-  normalize( [T*((T f)^{q-1})]^{1/(p-1)} )

    which preserves positivity and ascends Phi. The ascent check (and the
    damping it may trigger) compares each candidate with the previous iterate
    in one dilation frame. An accepted iterate whose mass median has drifted
    beyond a factor e^0.35 is then dilated to move the median back to r = 1
    and its Phi re-measured: the orbit is Phi-invariant, but the quadrature
    error is not, so Phi read at a new scale may differ by more than
    ASCENT_TOL. Stops when the relative change of Phi (within one frame)
    stays below tol for 5 consecutive iterations.
    """
    if not init.nonnegative:
        raise DomainError("search requires a nonnegative initial profile")
    if max_iter < 1:
        raise ParameterError(f"need max_iter >= 1, got {max_iter}")
    qf, pf = params.qf, params.pf
    exp_update = 1.0 / (pf - 1.0)
    f = _normalized(params, init)
    trace = SearchTrace()

    def phi_of(prof: RadialProfile) -> tuple[float, RadialProfile]:
        tf = apply_T(params, prof)
        return weighted_lp_norm(tf, params.a_target, qf), tf

    phi, tf = phi_of(f)
    trace.iterates.append(phi)
    stagnant = 0
    for it in range(1, max_iter + 1):
        powered = RadialProfile(f.grid, np.maximum(tf.values, 0.0) ** (qf - 1.0))
        grad = apply_T_adjoint(params, powered)
        cand_vals = np.maximum(grad.values, 0.0) ** exp_update
        cand = _normalized(params, RadialProfile(f.grid, cand_vals))
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
        rel_change = abs(phi_c - phi) / max(phi_c, 1e-300)
        lam = _median_radius(params, cand)
        if abs(math.log(lam)) > 0.35:
            cand = _normalized(params, dilate_profile(params, cand, lam))
            phi_c, tf_c = phi_of(cand)
            trace.recentered_steps.append(it)
        f, phi, tf = cand, phi_c, tf_c
        trace.iterates.append(phi)
        stagnant = stagnant + 1 if rel_change < tol else 0
        if stagnant >= 5:
            trace.converged = True
            break
    trace.iterations_used = len(trace.iterates) - 1
    trace.final_profile = f
    return trace
