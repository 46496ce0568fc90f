"""Concentration-compactness diagnostics: sliding-window concentration
function, trichotomy classification of profile sequences, dichotomy splitting,
and interaction terms between separated profiles.

A finite sequence can only exhibit trends, so the classifier works on trend
statistics of the concentration function across the sequence plus the split
structure of the last profile, and returns Undetermined when evidence
conflicts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DomainError, IntervalSet, ParameterError, Params,
                   PreconditionError, RadialProfile, _cell_masses, _window_integral,
                   restricted_mass, weighted_integral, weighted_lp_norm)
from .transform import apply_T, pairing

#: cells contributing less than this fraction of total mass are not support
NEGLIGIBLE_MASS = 1e-9

#: default window radii probed by the classifier
R_EVIDENCE = tuple(2.0 ** j for j in range(-2, 9))

_NORMALIZATION_TOL = 1e-6


@dataclass
class TrichotomyReport:
    verdict: str                                  # Tight | Vanishing | Dichotomy | Undetermined
    evidence: dict = field(default_factory=dict)  # {"R": [...], "Q": [[Q_n(R) ...] per profile]}
    split: tuple[IntervalSet, IntervalSet] | None = None
    alpha_estimate: float | None = None

    def to_json_dict(self) -> dict:
        split = None
        if self.split is not None:
            split = [list(map(list, s.intervals)) for s in self.split]
        return {
            "schema": 1,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "split": split,
            "alpha_estimate": self.alpha_estimate,
        }


def _cumulative_mass(params: Params, f: RadialProfile):
    """Callable r -> int_0^r |f|^p r^{d-1} dr (cellwise-constant profile view;
    exact for indicator-backed profiles)."""
    grid = f.grid
    if f.indicator is not None:
        F, amp = f.indicator
        scale = abs(amp) ** params.pf
        total = scale * F.weighted_measure(params.a_domain)

        def at_exact(r):
            r = np.asarray(r, dtype=float)
            out = np.zeros(r.shape)
            d = params.d
            for a, b in F.intervals:
                hi = np.clip(r, a, b)
                out += (hi ** d - a ** d) / d
            return scale * out

        return at_exact, total
    cum = np.concatenate([[0.0], np.cumsum(_cell_masses(params, f))])
    edges_d = grid.cell_edges_r ** params.d

    def at(r):
        r = np.asarray(r, dtype=float)
        j = np.clip(np.searchsorted(grid.cell_edges_r, r, side="right") - 1,
                    0, grid.n - 1)
        lo = edges_d[j]
        hi = edges_d[j + 1]
        frac = np.clip((np.minimum(r, grid.cell_edges_r[-1]) ** params.d - lo)
                       / np.maximum(hi - lo, 1e-300), 0.0, 1.0)
        return cum[j] + frac * (cum[j + 1] - cum[j])

    return at, float(cum[-1])


def concentration_function(params: Params, f: RadialProfile, R: float) -> float:
    """sup over centers y >= 0 of int_{|r-y|<=R} |f|^p r^{d-1} dr."""
    if not (R > 0):
        raise ParameterError(f"need R > 0, got {R}")
    cum, total = _cumulative_mass(params, f)
    y = np.concatenate([[0.0], f.grid.nodes])
    lo = np.maximum(y - R, 0.0)
    hi = y + R
    q = cum(hi) - cum(lo)
    return float(q.max())


def dichotomy_split(params: Params, f: RadialProfile, floor: float):
    """Largest support gap splitting the mass into two parts both above floor.

    Support is the set of cells contributing more than NEGLIGIBLE_MASS of the
    total; returns the bounding intervals of the two sides, or None (no split).
    """
    if not (0.0 < floor < 0.5):
        raise ParameterError(f"need floor in (0, 1/2), got {floor}")
    total_mass = weighted_integral(f, params.a_domain, params.pf)
    if not math.isclose(total_mass, 1.0, rel_tol=100 * _NORMALIZATION_TOL):
        raise DomainError(f"profile must be L^p-normalized, got mass {total_mass:.6g}")
    grid = f.grid
    masses = _cell_masses(params, f)
    essential = masses > NEGLIGIBLE_MASS * masses.sum()
    idx = np.nonzero(essential)[0]
    if len(idx) == 0:
        return None
    cum = np.cumsum(masses)
    # gaps between consecutive essential cells
    best = None
    for a_i, b_i in zip(idx[:-1], idx[1:]):
        if b_i == a_i + 1:
            continue
        gap_lo = grid.cell_edges_r[a_i + 1]
        gap_hi = grid.cell_edges_r[b_i]
        below = cum[a_i]
        above = masses.sum() - cum[b_i - 1]
        if below >= floor and above >= floor:
            width = gap_hi - gap_lo
            if best is None or width > best[0]:
                best = (width, a_i, b_i, below, above)
    if best is None:
        return None
    _, a_i, b_i, below, above = best
    e = grid.cell_edges_r
    part1 = IntervalSet(((float(e[idx[0]]), float(e[a_i + 1])),))
    part2 = IntervalSet(((float(e[b_i]), float(e[idx[-1] + 1])),))
    return part1, part2


def classify_trichotomy(params: Params, seq: list[RadialProfile], eps: float,
                        separation_min: float, mass_floor: float = 0.1) -> TrichotomyReport:
    """Classify a normalized profile sequence as Tight / Vanishing / Dichotomy.

    Dichotomy needs a qualifying split of the last profile together with
    growing separation across the sequence; Tight needs a window radius that
    keeps (1-eps) of every profile's mass; Vanishing needs the window mass to
    decay monotonically across the sequence at every probed radius.
    """
    if not seq:
        raise ParameterError("need at least one profile")
    r_max = seq[0].grid.r_max
    if not r_max > R_EVIDENCE[0]:
        raise DomainError(f"grid r_max = {r_max:.6g} is not above the smallest evidence "
                          f"radius {R_EVIDENCE[0]:.6g}; use a grid that reaches further")
    for f in seq:
        m = weighted_integral(f, params.a_domain, params.pf)
        if abs(m - 1.0) > 100 * _NORMALIZATION_TOL:
            raise DomainError(f"profiles must satisfy ||f||_p^p = 1, got {m:.6g}")
    radii = [R for R in R_EVIDENCE if R < r_max]
    Q = np.array([[concentration_function(params, f, R) for R in radii] for f in seq])
    evidence = {"R": list(map(float, radii)), "Q": Q.tolist()}

    splits = [dichotomy_split(params, f, mass_floor) for f in seq]
    last_split = splits[-1]
    separations = [s[1].inf() - s[0].sup() for s in splits if s is not None]
    sep_ok = (last_split is not None
              and (last_split[1].inf() - last_split[0].sup()) >= separation_min)
    growing = (len(seq) == 1
               or (len(separations) >= 2 and separations[-1] > 1.5 * separations[0]))
    if sep_ok and growing:
        inner, outer = last_split
        alpha = float(np.clip(_part_mass(params, seq[-1], inner), 0.0, 1.0))
        return TrichotomyReport("Dichotomy", evidence, last_split, alpha)

    tight = any((Q[:, j] >= 1.0 - eps).all() for j in range(len(radii)))
    if tight:
        return TrichotomyReport("Tight", evidence)

    if len(seq) >= 3:
        decreasing = all((np.diff(Q[:, j]) <= 1e-9).all() for j in range(len(radii)))
        mid = len(radii) // 2
        if decreasing and Q[-1, mid] < 1.0 - eps:
            return TrichotomyReport("Vanishing", evidence)
    return TrichotomyReport("Undetermined", evidence)


def _part_mass(params: Params, f: RadialProfile, part: IntervalSet) -> float:
    a, b = part.intervals[0][0], part.intervals[-1][1]
    return restricted_mass(params, f, a, b)


def interaction_term(params: Params, f1: RadialProfile, f2: RadialProfile,
                     m: int) -> float:
    """< (T f1)^{q-m}, (T f2)^m > against r^{d-k-1} dr."""
    q = int(params.q)
    if not (1 <= m <= q - 1):
        raise ParameterError(f"need 1 <= m <= q-1 = {q - 1}, got {m}")
    if not (f1.nonnegative and f2.nonnegative):
        raise DomainError("interaction term requires nonnegative profiles")
    t1 = apply_T(params, f1).values
    t2 = apply_T(params, f2).values
    return pairing(t1 ** (q - m), t2 ** m, f1.grid, params.a_target)


def interaction_bound_check(params: Params, R: float, delta: float,
                            psi: RadialProfile, m: int) -> tuple[float, float]:
    """Left side <1_{[0,R]}, (T psi)^m> and the bound's shape
    R^{d-k} (R+delta)^{-m/p'} ||psi||_p^m, without the implied constant."""
    q = int(params.q)
    if not (1 <= m <= q - 1):
        raise ParameterError(f"need 1 <= m <= q-1 = {q - 1}, got {m}")
    if R < 1:
        raise PreconditionError(f"the far-field bound requires R >= 1, got {R}")
    if delta < R:
        raise PreconditionError(f"the far-field bound requires delta >= R, got delta={delta}, R={R}")
    support_lo = _essential_support_inf(psi)
    if support_lo < (R + delta) * (1 - 1e-9):
        raise PreconditionError(
            f"psi must be supported in [R+delta, inf); support starts at {support_lo:.6g}")
    tpsi = apply_T(params, psi).values
    lhs = _window_integral(psi.grid, tpsi ** m, params.a_target, 0.0, R)
    psi_p = weighted_lp_norm(psi, params.a_domain, params.pf)
    rhs_shape = R ** (params.d - params.k) * (R + delta) ** (-m / params.p_conj_f) * psi_p ** m
    return lhs, rhs_shape


def _essential_support_inf(f: RadialProfile) -> float:
    if f.indicator is not None:
        return f.indicator[0].inf()
    big = np.abs(f.values) > 1e-12 * max(np.abs(f.values).max(), 1e-300)
    idx = np.nonzero(big)[0]
    if len(idx) == 0:
        return math.inf
    return float(f.grid.nodes[idx[0]])
