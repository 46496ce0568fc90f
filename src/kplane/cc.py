"""Concentration-compactness diagnostics: sliding-window concentration
function, trichotomy classification of profile sequences, dichotomy splitting,
and interaction terms between separated profiles.

Every mass here is the norms' lattice rule's: windows and the concentration
scan read its running integral (core._running_integral), the dichotomy split
its node masses, so a window over the whole half-line holds the norm.

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
                   PreconditionError, RadialProfile, _running_integral, _window_integral,
                   restricted_mass, weighted_integral, weighted_lp_norm,
                   weighted_signed_integral)
from .transform import _apply_T_once

#: nodes contributing less than this fraction of total mass are not support
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
    """Callable r -> int_0^r |f|^p r^{d-1} dr: the running integral of the
    norms' rule (core._running_integral), linear in theta between lattice
    points, which at r = inf is the norm; exact for indicator-backed
    profiles."""
    if f.indicator is not None:
        F, amp = f.indicator
        scale = abs(amp) ** params.pf

        def at_exact(r):
            r = np.asarray(r, dtype=float)
            out = np.zeros(r.shape)
            d = params.d
            for a, b in F.intervals:
                hi = np.clip(r, a, b)
                out += (hi ** d - a ** d) / d
            return scale * out

        return at_exact
    C = _running_integral(f, params.a_domain, params.pf)
    lattice = np.arange(C.size)
    return lambda r: np.interp(np.arctan(r) / f.grid.h, lattice, C)


def concentration_function(params: Params, f: RadialProfile, R: float) -> float:
    """sup over centers y >= 0 of int_{|r-y|<=R} |f|^p r^{d-1} dr."""
    if not (R > 0):
        raise ParameterError(f"need R > 0, got {R}")
    return _window_max(_cumulative_mass(params, f), f.grid.nodes, R)


def _window_max(cum, nodes: np.ndarray, R: float) -> float:
    """The largest mass cum(y + R) - cum(y - R) of a window of radius R
    centred at 0 or at a node y (cut at 0), cum a _cumulative_mass."""
    y = np.concatenate([[0.0], nodes])
    return float((cum(y + R) - cum(np.maximum(y - R, 0.0))).max())


def dichotomy_split(params: Params, f: RadialProfile, floor: float):
    """Largest support gap splitting the mass into two parts both above floor.

    Support is the set of nodes contributing more than NEGLIGIBLE_MASS of the
    total, in the node masses |f_i|^p w_i r_i^{d-1} of the norms' rule (the
    measure rearrange pours); a gap runs between the cell edges of two
    support nodes. Returns the bounding intervals of the two sides, or None
    (no split).
    """
    if not (0.0 < floor < 0.5):
        raise ParameterError(f"need floor in (0, 1/2), got {floor}")
    total_mass = weighted_integral(f, params.a_domain, params.pf)
    if not math.isclose(total_mass, 1.0, rel_tol=100 * _NORMALIZATION_TOL):
        raise DomainError(f"profile must be L^p-normalized, got mass {total_mass:.6g}")
    grid = f.grid
    masses = np.abs(f.values) ** params.pf * grid.base_weights * grid.nodes ** params.a_domain
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
    if not 0 < eps < 1:
        raise ParameterError(f"need 0 < eps < 1, got {eps}")
    if not separation_min > 0:
        raise ParameterError(f"need separation_min > 0, got {separation_min}")
    r_max = seq[0].grid.r_max
    if not r_max > R_EVIDENCE[0]:
        raise DomainError(f"grid r_max = {r_max:.6g} is not above the smallest evidence "
                          f"radius {R_EVIDENCE[0]:.6g}; use a grid that reaches further")
    for f in seq:
        m = weighted_integral(f, params.a_domain, params.pf)
        if abs(m - 1.0) > 100 * _NORMALIZATION_TOL:
            raise DomainError(f"profiles must satisfy ||f||_p^p = 1, got {m:.6g}")
    radii = [R for R in R_EVIDENCE if R < r_max]
    # one running integral per profile, read at every radius
    cums = [_cumulative_mass(params, f) for f in seq]
    Q = np.array([[_window_max(cum, f.grid.nodes, R) for R in radii]
                  for f, cum in zip(seq, cums)])
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
        alpha = float(np.clip(restricted_mass(params, seq[-1], inner.inf(), inner.sup()),
                              0.0, 1.0))
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


def interaction_term(params: Params, f1: RadialProfile, f2: RadialProfile,
                     m: int) -> float:
    """< (T f1)^{q-m}, (T f2)^m > against r^{d-k-1} dr, each T f integrated
    once, with no M0 formed unless it is cached (_apply_T_once)."""
    q = int(params.q)
    if not (1 <= m <= q - 1):
        raise ParameterError(f"need 1 <= m <= q-1 = {q - 1}, got {m}")
    if not (f1.nonnegative and f2.nonnegative):
        raise DomainError("interaction term requires nonnegative profiles")
    return _interaction_term(params, _apply_T_once(params, f1).values,
                             _apply_T_once(params, f2).values, m, f1.grid)


def _interaction_term(params: Params, t1: np.ndarray, t2: np.ndarray, m: int, grid) -> float:
    """interaction_term from the transforms t1 = T f1 and t2 = T f2."""
    q = int(params.q)
    return weighted_signed_integral(t1 ** (q - m) * t2 ** m, grid, params.a_target)


def interaction_bound_check(params: Params, R: float, delta: float,
                            psi: RadialProfile, m: int) -> tuple[float, float]:
    """Left side <1_{[0,R]}, (T psi)^m> and the bound's shape
    R^{d-k} (R+delta)^{-m/p'} ||psi||_p^m, without the implied constant;
    T psi is integrated once, over psi's support (_apply_T_once)."""
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
    return _interaction_bound(params, R, delta, psi, _apply_T_once(params, psi).values, m)


def _interaction_bound(params: Params, R: float, delta: float, psi: RadialProfile,
                       tpsi: np.ndarray, m: int) -> tuple[float, float]:
    """interaction_bound_check from the transform tpsi = T psi."""
    lhs = _window_integral(RadialProfile(psi.grid, tpsi), params.a_target, m, 0.0, R)
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
