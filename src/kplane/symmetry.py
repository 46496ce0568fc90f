"""Symmetric decreasing rearrangement in the r^{d-1}dr measure, canonical
dilation normalization, and the height/radius truncation decomposition."""
from __future__ import annotations

import math

import numpy as np

from .core import (DomainError, IntervalSet, ParameterError, Params, RadialProfile,
                   _running_integral, _running_median, indicator_profile, weighted_lp_norm)


def rearrange(params: Params, f: RadialProfile) -> RadialProfile:
    """Radial nonincreasing rearrangement w.r.t. mu = r^{d-1} dr.

    Node cells are sorted by |value| (ties broken by smaller radius) and their
    mass is poured back from r = 0 outward; a target cell fed by several source
    levels gets the mass-weighted p-power mean. Masses are taken in the
    quadrature's own discrete measure w_i r_i^{d-1}, so the node sums of
    ||.||_p^p and of every level-set mass seen by mass_above_level are
    conserved exactly (up to the single blended cell per level boundary).
    The end terms of the norm rule (see core._node_sum) are not poured, so
    ||.||_p itself is kept to about 1e-10 relative: 1.2e-10 at worst over 20
    random sums of three bumps for (1,3) at n = 2048, 5e-13 for steps.
    """
    grid = f.grid
    if f.indicator is not None:
        F, amp = f.indicator
        if F.empty or amp == 0.0:
            return RadialProfile(grid, np.zeros(grid.n))
        # mu([0, r*]) = mu(F): r*^d = sum (b^d - a^d)
        r_star = (F.weighted_measure(params.a_domain) * params.d) ** (1.0 / params.d)
        return indicator_profile(grid, IntervalSet(((0.0, r_star),)), abs(amp))
    p = params.pf
    omega = grid.base_weights * grid.nodes ** params.a_domain
    vals = np.abs(f.values)
    order = np.argsort(-vals, kind="stable")
    src_v = vals[order]
    src_m = omega[order]
    out = np.zeros(grid.n)
    ci = 0
    room = omega[0]
    acc = 0.0
    for v, m in zip(src_v, src_m):
        vp = v ** p
        while m > 0.0 and ci < grid.n:
            take = m if m <= room else room
            acc += take * vp
            room -= take
            m -= take
            if room <= 1e-300:
                out[ci] = (acc / omega[ci]) ** (1.0 / p)
                ci += 1
                acc = 0.0
                room = omega[ci] if ci < grid.n else 0.0
        if ci >= grid.n:
            break
    if ci < grid.n and acc > 0.0:
        out[ci] = (acc / omega[ci]) ** (1.0 / p)
    return RadialProfile(grid, out)


def _median_radius(params: Params, f: RadialProfile) -> float:
    """Radius splitting the p-mass in half (mu-mass median).

    The sampled branch reads it off the running p-mass of the norms' rule
    (core._running_integral), whose last value is weighted_integral's, at
    the lattice position core._running_median gives. Splits take no special
    path; across a jump the total C halves is itself first order."""
    if f.indicator is not None:
        F, amp = f.indicator
        d = params.d
        total = F.weighted_measure(params.a_domain)
        if total <= 0 or amp == 0.0:
            raise DomainError("zero profile has no dilation normalization")
        half = total / 2
        acc = 0.0
        for a, b in F.intervals:
            m = (b ** d - a ** d) / d
            if acc + m >= half:
                need = half - acc
                return (a ** d + need * d) ** (1.0 / d)
            acc += m
        return F.sup()
    C = _running_integral(f, params.a_domain, params.pf)
    if not C[-1] > 0:
        raise DomainError("zero profile has no dilation normalization")
    return float(math.tan(_running_median(C) * f.grid.h))


def dilate_profile(params: Params, f: RadialProfile, lam: float) -> RadialProfile:
    """f_lam(r) = lam^{d/p} f(lam r), resampled onto f's own grid.

    Sampled profiles are resampled by the profile's own degree-7 local
    Lagrange interpolant in theta (segment-aware across splits); at radii
    thrown beyond the last node the same stencils extrapolate g = f
    sec^{k+1}(theta), as the forward operator's last cell does, and f =
    g cos^{k+1}(theta) there, so no tail mass is dropped.
    Indicator-backed profiles stay exact.
    """
    if not (lam > 0):
        raise ParameterError(f"need lam > 0, got {lam}")
    grid = f.grid
    scale = lam ** params.scale_exp_f
    if f.indicator is not None:
        F, amp = f.indicator
        moved = IntervalSet(tuple((a / lam, b / lam) for a, b in F.intervals))
        return indicator_profile(grid, moved, amp * scale)
    if lam == 1.0:
        return f
    u = lam * grid.nodes
    interp = f.interpolator()
    vals = interp.eval(f.values, u)
    beyond = u > grid.r_max
    if beyond.any():
        power = (params.k + 1) / 2.0
        ub = u[beyond]
        g = interp.eval(f.values * (1.0 + grid.nodes ** 2) ** power, ub)
        vals[beyond] = g * (1.0 + ub * ub) ** -power
    vals = np.nan_to_num(vals, nan=0.0)
    if f.nonnegative:
        vals = np.maximum(vals, 0.0)
    vals = vals * scale
    splits = tuple(s / lam for s in f.splits if s / lam < grid.r_max)
    return RadialProfile(grid, vals, splits=splits)


def normalize_dilation(params: Params, f: RadialProfile) -> tuple[float, RadialProfile]:
    """Canonical representative of the dilation orbit: the lam with half of
    the p-mass of g = f_lam inside [0, 1] (mu-mass median moved to r = 1).
    lam is _median_radius(f), read off the norms' own lattice rule: for the
    extremizer's dilates by 1/8 to 8 it is within 3e-10 of the exact median
    at n = 512 and 1e-14 at n = 2048.

    Dilation preserves the p-norm identically, so the quadrature-measurement
    residue of the resampled g (~1e-9 relative at extreme lam) is divided out,
    making ||g||_p = ||f||_p exact."""
    lam = _median_radius(params, f)
    g = dilate_profile(params, f, lam)
    if g is not f:
        n_f = weighted_lp_norm(f, params.a_domain, params.pf)
        n_g = weighted_lp_norm(g, params.a_domain, params.pf)
        if n_g > 0:
            g = g.scaled(n_f / n_g)
    return lam, g


def truncate(params: Params, f: RadialProfile, m: float) -> tuple[RadialProfile, RadialProfile]:
    """Decomposition f = g_m + eps_m with g_m = f 1_{[0,m]} 1_{f <= m}.

    Exact pointwise at the samples; both halves carry splits at the cut radius
    and at level-crossing cell edges so transforms treat the jumps sharply.
    """
    if not (m > 0):
        raise ParameterError(f"need m > 0, got {m}")
    grid = f.grid
    mask = (grid.nodes <= m) & (f.values <= m)
    g_vals = np.where(mask, f.values, 0.0)
    eps_vals = f.values - g_vals
    splits = set(f.splits)
    if m < grid.r_max:
        splits.add(float(m))
    flips = np.nonzero(mask[:-1] != mask[1:])[0]
    for j in flips:
        edge = float(grid.cell_edges_r[j + 1])
        if 0.0 < edge < grid.r_max:
            splits.add(edge)
    splits = tuple(sorted(splits))
    g = RadialProfile(grid, g_vals, splits=splits, meta={"truncation_level": m})
    eps = RadialProfile(grid, eps_vals, splits=splits, meta={"truncation_level": m})
    return g, eps
