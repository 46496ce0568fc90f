"""Symmetric decreasing rearrangement in the r^{d-1}dr measure, canonical
dilation normalization, and the height/radius truncation decomposition."""
from __future__ import annotations

import functools
import math

import numpy as np

from ._quad import GL_MASS, tail_basis, tail_power_fit
from .core import (DomainError, IntervalSet, ParameterError, Params, RadialGrid,
                   RadialProfile, indicator_profile, weighted_integral, weighted_lp_norm)


def rearrange(params: Params, f: RadialProfile) -> RadialProfile:
    """Radial nonincreasing rearrangement w.r.t. mu = r^{d-1} dr.

    Node cells are sorted by |value| (ties broken by smaller radius) and their
    mass is poured back from r = 0 outward; a target cell fed by several source
    levels gets the mass-weighted p-power mean. Masses are taken in the
    quadrature's own discrete measure w_i r_i^{d-1}, so both ||.||_p and every
    level-set mass seen by mass_above_level are conserved exactly (up to the
    single blended cell per level boundary).
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


@functools.lru_cache(maxsize=16)
def _mass_rule(grid: RadialGrid) -> tuple:
    """The per-interval 5-point Gauss rule of _median_radius on `grid`:
    half-widths (n-1,), query radii tan(theta_q) (n-1, 5), and the stencil
    (idx, w) of the grid's split-free interpolant at those queries, planned
    once per grid as SegmentedInterp.eval would plan it on every call."""
    th = grid.theta_nodes
    hw = (th[1:] - th[:-1]) / 2
    tq = ((th[:-1] + th[1:]) / 2)[:, None] + hw[:, None] * GL_MASS[0][None, :]
    rq = np.tan(tq)
    return hw, rq, grid._interp_plain.plan(np.arctan(rq).ravel())


def _median_radius(params: Params, f: RadialProfile) -> float:
    """Radius splitting the p-mass in half (mu-mass median).

    The sampled branch accumulates the mass of the profile's interpolant in
    theta per node interval (Gauss rule, cached per grid by _mass_rule for
    profiles without splits), then inverts within the located interval by
    dense sub-sampling; the cell-constant view would bias the median by a
    fraction of a cell, which is too coarse for orbit alignment."""
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
    grid = f.grid
    p = params.pf
    a_exp = params.a_domain
    th = grid.theta_nodes
    total = weighted_integral(f, a_exp, p)
    if total <= 0:
        raise DomainError("zero profile has no dilation normalization")

    def density(r, v):
        return v ** p * r ** a_exp * (1.0 + r * r)

    # leading strip [0, theta_1]: f ~ v_1 there
    r1 = grid.nodes[0]
    head = abs(f.values[0]) ** p * r1 ** (a_exp + 1) / (a_exp + 1)
    # per-interval masses of the interpolant (5-point Gauss)
    interp = f.interpolator()
    hw, rq, (stencil, weights) = _mass_rule(grid)
    if f.splits:
        vq = interp.eval(f.values, rq)
    else:
        vq = (f.values[stencil] * weights).sum(axis=-1).reshape(rq.shape)
    cell_mass = (density(rq, np.abs(vq)) * GL_MASS[1]).sum(axis=1) * hw
    cum = head + np.concatenate([[0.0], np.cumsum(cell_mass)])
    half = total / 2
    if half <= head:
        return float(r1 * (half / max(head, 1e-300)) ** (1.0 / (a_exp + 1)))
    j = int(np.searchsorted(cum, half, side="right")) - 1
    j = min(max(j, 0), grid.n - 2)
    # dense inversion inside interval j
    ts = np.linspace(th[j], th[j + 1], 513)
    rs = np.tan(ts)
    dens = density(rs, np.abs(interp.eval(f.values, rs)))
    seg = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(ts))])
    target = half - cum[j]
    idx = int(np.searchsorted(seg, target, side="right")) - 1
    idx = min(max(idx, 0), len(seg) - 2)
    t = ts[idx] + (target - seg[idx]) / max(seg[idx + 1] - seg[idx], 1e-300) * (ts[idx + 1] - ts[idx])
    return float(math.tan(t))


def dilate_profile(params: Params, f: RadialProfile, lam: float) -> RadialProfile:
    """f_lam(r) = lam^{d/p} f(lam r), resampled onto f's own grid.

    Sampled profiles are resampled by the profile's own degree-7 local
    Lagrange interpolant in theta (segment-aware across splits); radii thrown
    beyond the last node are evaluated with the cos-power tail model fitted to
    the last three samples, so no tail mass is dropped.
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
    vals = f.interpolator().eval(f.values, u)
    beyond = u > grid.r_max
    if beyond.any():
        coef = tail_power_fit(grid.theta_nodes, params.k) @ f.values[-3:]
        ub = u[beyond]
        basis = tail_basis(ub * ub, params.k)
        vals[beyond] = sum(c * basis[:, j] for j, c in enumerate(coef))
    vals = np.nan_to_num(vals, nan=0.0)
    if f.nonnegative:
        vals = np.maximum(vals, 0.0)
    vals = vals * scale
    splits = tuple(s / lam for s in f.splits if s / lam < grid.r_max)
    return RadialProfile(grid, vals, splits=splits)


def normalize_dilation(params: Params, f: RadialProfile) -> tuple[float, RadialProfile]:
    """Canonical representative of the dilation orbit: the lam with exactly half
    of the p-mass of g = f_lam inside [0, 1] (mu-mass median moved to r = 1).

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
