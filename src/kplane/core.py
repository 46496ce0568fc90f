"""Parameters, grids, sampled radial profiles, and weighted-norm computation.

The exponent pair is p = (d+1)/(k+1), q = d+1; the operator maps
L^p((0,inf), r^{d-1}dr) to L^q((0,inf), r^{d-k-1}dr). Exponents are kept as
exact rationals so identities like q/p = k+1 are testable without float drift.

Grids place nodes at r_i = tan(theta_i) with theta_i uniform in (0, theta_max].
A finite r_max_hint truncates at theta_max = arctan(hint); hint = inf gives a
half-line grid whose norm quadrature covers all of (0, inf). Norms integrate
over the theta lattice j h, from 0 to the last node or pi/2, by the trapezoid
rule with order-8 Gregory end weights; see _node_sum.
"""
from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from ._quad import EXTRAPOLATE_END, GREGORY_END, SegmentedInterp, lagrange_weights


class KplaneError(Exception):
    """Base class for all library errors."""


class ParameterError(KplaneError, ValueError):
    """Invalid (k, d) or other mathematical parameter."""


class ConfigurationError(KplaneError, ValueError):
    """Invalid numerical configuration (grid size, tolerances, ...)."""


class DataError(KplaneError, ValueError):
    """Non-finite samples or malformed input data."""


class DomainError(KplaneError, ValueError):
    """Input outside an operation's mathematical domain (zero or signed profile, ...)."""


class PreconditionError(KplaneError, ValueError):
    """A documented precondition of a bound verifier is violated."""


class NumericalError(KplaneError, RuntimeError):
    """A numerical subroutine (SVD, root find) failed."""


class IterationAnomalyError(KplaneError, RuntimeError):
    """The extremizer search lost monotone ascent beyond tolerance."""


# ---------------------------------------------------------------------------
# parameters

@dataclass(frozen=True)
class Params:
    """The pair (k, d) and all derived exponents, kept as exact rationals."""
    k: int
    d: int
    p: Fraction
    q: Fraction
    p_conj: Fraction
    scale_exp: Fraction  # d/p, the dilation exponent of lam^{d/p} f(lam r)

    @property
    def pf(self) -> float:
        return float(self.p)

    @property
    def qf(self) -> float:
        return float(self.q)

    @property
    def p_conj_f(self) -> float:
        return float(self.p_conj)

    @property
    def scale_exp_f(self) -> float:
        return float(self.scale_exp)

    @property
    def a_domain(self) -> int:
        """Weight exponent of the domain measure r^{d-1} dr."""
        return self.d - 1

    @property
    def a_target(self) -> int:
        """Weight exponent of the target measure r^{d-k-1} dr."""
        return self.d - self.k - 1


def make_params(k: int, d: int) -> Params:
    """Build Params for plane dimension k and ambient dimension d."""
    if not (isinstance(k, (int, np.integer)) and isinstance(d, (int, np.integer))):
        raise ParameterError("k and d must be integers")
    if d < 2:
        raise ParameterError(f"need d >= 2, got d = {d}")
    if not (1 <= k <= d - 1):
        raise ParameterError(f"need 1 <= k <= d-1, got k = {k} with d = {d}")
    p = Fraction(d + 1, k + 1)
    q = Fraction(d + 1)
    return Params(k=int(k), d=int(d), p=p, q=q,
                  p_conj=p / (p - 1), scale_exp=Fraction(d, 1) / p)


# ---------------------------------------------------------------------------
# interval sets

@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint intervals (a_j, b_j) in [0, inf), sorted."""
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev = -math.inf
        for a, b in self.intervals:
            if not (0.0 <= a < b) or not math.isfinite(b):
                raise DataError(f"invalid interval ({a}, {b})")
            if a <= prev:
                raise DataError("intervals must be disjoint and sorted")
            prev = b

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "IntervalSet":
        """Build from unsorted pairs, merging touching or overlapping intervals."""
        items = sorted((float(a), float(b)) for a, b in pairs)
        merged: list[tuple[float, float]] = []
        for a, b in items:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return cls(tuple(merged))

    @property
    def empty(self) -> bool:
        return len(self.intervals) == 0

    def lebesgue(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def weighted_measure(self, a_exp: int) -> float:
        """Exact measure against r^{a_exp} dr: sum (b^{a+1}-a^{a+1})/(a+1)."""
        m = a_exp + 1
        return sum((b ** m - a ** m) / m for a, b in self.intervals)

    def inf(self) -> float:
        return self.intervals[0][0] if self.intervals else math.inf

    def sup(self) -> float:
        return self.intervals[-1][1] if self.intervals else 0.0

    def clip_left(self, r0: float) -> "IntervalSet":
        """Intersection with [r0, inf)."""
        out = [(max(a, r0), b) for a, b in self.intervals if b > r0]
        return IntervalSet(tuple(out))

    def clip_right(self, r1: float) -> "IntervalSet":
        """Intersection with [0, r1]."""
        out = [(a, min(b, r1)) for a, b in self.intervals if a < r1]
        return IntervalSet(tuple(out))

    def covered_length(self, lo: float, hi: float) -> float:
        """Lebesgue measure of the intersection with [lo, hi]."""
        return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in self.intervals)


# ---------------------------------------------------------------------------
# grids

class RadialGrid:
    """Tan-substitution quadrature grid on (0, r_max].

    nodes            increasing radii tan(theta_i)
    theta_nodes      the underlying uniform angles i*h
    r_max            effective truncation radius (the last node)
    base_weights     positive weights w_i with sum w_i f(r_i) ~ int_0^{r_max} f dr
                     (int_0^inf on half-line grids), each >= 0.257 h sec^2(theta_i)
    halfline         True when built with an infinite hint; the lattice then
                     ends at theta = pi/2, one step beyond the last node
    """

    def __init__(self, n_points: int, r_max_hint: float):
        if n_points < 16:
            raise ConfigurationError(f"need n_points >= 16, got {n_points}")
        if not (r_max_hint > 0):
            raise ConfigurationError(f"need r_max_hint > 0, got {r_max_hint}")
        self.n = int(n_points)
        self.halfline = math.isinf(r_max_hint)
        if self.halfline:
            self.h = (math.pi / 2) / (self.n + 1)
        else:
            self.h = math.atan(r_max_hint) / self.n
        self.theta_nodes = self.h * np.arange(1, self.n + 1)
        self.nodes = np.tan(self.theta_nodes)
        self.r_max = float(self.nodes[-1])
        sec2 = 1.0 + self.nodes ** 2
        # Gregory weights of the lattice j h, j = 0..n+1 on half-line grids
        # and 0..n on truncated ones (node i is lattice point i + 1); an end
        # that is not a node is folded onto its nearest node, and _ends holds
        # each as (its 8 nodes, extrapolation weights times sec^2 there, its
        # nearest node, sec^2 there)
        w = np.ones(self.n + 1 + self.halfline)
        w[:8], w[-8:] = GREGORY_END, GREGORY_END[::-1]
        w[1] += w[0]
        self._ends = [(slice(0, 8), EXTRAPOLATE_END * sec2[:8], 0, sec2[0])]
        if self.halfline:
            w[-2] += w[-1]
            self._ends.append((slice(self.n - 8, self.n), EXTRAPOLATE_END[::-1] * sec2[-8:],
                               self.n - 1, sec2[-1]))
        self.base_weights = self.h * w[1:self.n + 1] * sec2
        # cell edges: theta midpoints, closed at 0, half-cell beyond the last node
        edges_t = np.concatenate([[0.0],
                                  0.5 * (self.theta_nodes[:-1] + self.theta_nodes[1:]),
                                  [self.theta_nodes[-1] + self.h / 2]])
        if not self.halfline:
            edges_t[-1] = self.theta_nodes[-1]
        self.cell_edges_r = np.tan(edges_t)
        for arr in (self.theta_nodes, self.nodes, self.base_weights, self.cell_edges_r):
            arr.setflags(write=False)
        self._interp_plain = SegmentedInterp(self.theta_nodes, self.h)

    def fingerprint(self) -> tuple:
        return (self.n, self.halfline, round(self.r_max, 12))

    def __repr__(self):
        kind = "halfline" if self.halfline else "truncated"
        return f"RadialGrid(n={self.n}, r_max={self.r_max:.6g}, {kind})"


@functools.lru_cache(maxsize=64)
def _grid_cache(n_points: int, hint_key: float) -> RadialGrid:
    return RadialGrid(n_points, hint_key)


def make_grid(n_points: int, r_max_hint: float) -> RadialGrid:
    """Quadrature grid with n_points nodes, truncated near r_max_hint.

    Pass math.inf as the hint for a half-line grid (used for norms and the
    functional ratio, where tail mass beyond any finite cutoff matters).
    """
    return _grid_cache(int(n_points), float(r_max_hint))


def make_halfline_grid(n_points: int) -> RadialGrid:
    return make_grid(n_points, math.inf)


# ---------------------------------------------------------------------------
# profiles

@dataclass(frozen=True)
class RadialProfile:
    """Samples f(r_i) on a RadialGrid.

    indicator  set when the profile is exactly amp * 1_F for an IntervalSet F;
               norms and transforms then use closed forms instead of quadrature
    splits     radii where f may jump; interpolation stencils never cross them
    meta       free-form annotations (convergence warnings etc.)
    """
    grid: RadialGrid
    values: np.ndarray
    indicator: tuple[IntervalSet, float] | None = None
    splits: tuple[float, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise DataError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise DataError("profile contains non-finite samples")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "splits", tuple(sorted(set(self.splits))))

    @property
    def nonnegative(self) -> bool:
        return bool((self.values >= 0).all())

    def scaled(self, c: float) -> "RadialProfile":
        ind = None
        if self.indicator is not None:
            ind = (self.indicator[0], self.indicator[1] * c)
        return RadialProfile(self.grid, self.values * c, indicator=ind,
                             splits=self.splits, meta=dict(self.meta))

    def interpolator(self) -> SegmentedInterp:
        if not self.splits:
            return self.grid._interp_plain
        split_t = tuple(math.atan(s) for s in self.splits)
        return SegmentedInterp(self.grid.theta_nodes, self.grid.h, split_t)

    def __call__(self, u) -> np.ndarray:
        """Interpolated values at radii u (zero beyond the last node's reach
        is NOT enforced; dilate_profile extrapolates f sec^{k+1} there)."""
        return self.interpolator().eval(self.values, u)


def sample_profile(grid: RadialGrid, func: Callable[[np.ndarray], np.ndarray],
                   splits: tuple[float, ...] = ()) -> RadialProfile:
    return RadialProfile(grid, np.asarray(func(grid.nodes), dtype=float), splits=splits)


def indicator_profile(grid: RadialGrid, intervals: IntervalSet,
                      amplitude: float = 1.0) -> RadialProfile:
    """Sample amp * 1_F with sub-cell correction: a partially covered grid cell
    contributes its exact covered-length fraction."""
    lo, hi = grid.cell_edges_r[:-1], grid.cell_edges_r[1:]
    covered = np.zeros(grid.n)
    for a, b in intervals.intervals:
        covered += np.maximum(np.minimum(b, hi) - np.maximum(a, lo), 0.0)
    vals = covered / (hi - lo)
    splits = tuple(x for ab in intervals.intervals for x in ab)
    return RadialProfile(grid, amplitude * vals, indicator=(intervals, amplitude),
                         splits=splits)


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point slope at an end of the data, limited so the
    cubic keeps the data's shape."""
    e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(e) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(e) > 3 * abs(m0):
        return 3 * m0
    return e


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Node slopes of the Fritsch-Carlson monotone cubic through data with
    interval widths h and secants m: the weighted harmonic mean of the two
    secants at an interior node where they share a sign, else 0; the secant
    itself for 2 points, which makes the cubic linear."""
    if m.size == 1:
        return np.repeat(m, 2)
    d = np.zeros(m.size + 1)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    i = np.flatnonzero((np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0))
    d[i + 1] = 1.0 / ((w1[i] / m[i] + w2[i] / m[i + 1]) / (w1[i] + w2[i]))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def resample_values(grid: RadialGrid, radii: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Resample (radii, values) onto grid nodes by monotone cubic (PCHIP)
    interpolation in theta; zero outside the input's radial range."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 2:
        raise DataError("need matching 1-d radii/values with at least 2 samples")
    if not (np.isfinite(radii).all() and np.isfinite(values).all()):
        raise DataError("radii and values must be finite")
    if not (np.diff(radii) > 0).all():
        raise DataError("radii must be strictly increasing")
    x = np.arctan(radii)
    h = np.diff(x)
    m = np.diff(values) / h
    d = _pchip_slopes(h, m)
    th = grid.theta_nodes
    # by radius: arctan(tan(theta)) may round a node on an end sample outside
    inside = (grid.nodes >= radii[0]) & (grid.nodes <= radii[-1])
    j = np.clip(np.searchsorted(x, th[inside], side="right") - 1, 0, h.size - 1)
    s, h, m = th[inside] - x[j], h[j], m[j]
    t = (d[j] + d[j + 1] - 2 * m) / h
    out = np.zeros(grid.n)
    # the Hermite cubic on [x_j, x_j+1] in powers of s = theta - x_j
    out[inside] = values[j] + s * (d[j] + s * ((m - d[j]) / h - t + s * (t / h)))
    return out


# ---------------------------------------------------------------------------
# weighted integrals and norms

def _smooth_ends(grid: RadialGrid, splits) -> tuple[bool, bool]:
    """Whether the first and the last 8 nodes are each free of the jumps at
    the radii `splits`. A split counts only inside the grid, theta_0 <
    atan(s) < theta_{n-1}, as for SegmentedInterp."""
    th = grid.theta_nodes
    t = [x for x in map(math.atan, splits) if th[0] < x < th[-1]]
    return (all(x >= th[7] for x in t), all(x < th[-8] for x in t))


def _end_values(grid: RadialGrid, g: np.ndarray, a_exp: int, nonneg: bool,
                ends: tuple[bool, bool]) -> list[float]:
    """G = g sec^2 at each end of the lattice that is not a node (theta = 0,
    and pi/2 on half-line grids), g sampled with the weight r^{a_exp}: 0 at
    theta = 0 when a_exp >= 1, where that weight vanishes, else the degree-7
    extrapolation from the end's 8 nodes (clamped at 0 when nonneg). An end
    not in `ends` (a jump among its 8 nodes) takes its nearest node's G."""
    out = []
    for j, ((stencil, coef, near, sec2), smooth) in enumerate(zip(grid._ends, ends)):
        if not smooth:
            out.append(sec2 * g[near])
        elif j == 0 and a_exp >= 1:
            out.append(0.0)
        else:
            e = float(np.dot(coef, g[stencil]))
            out.append(max(e, 0.0) if nonneg else e)
    return out


def _node_sum(grid: RadialGrid, g: np.ndarray, a_exp: int, nonneg: bool,
              ends: tuple[bool, bool] = (True, True)) -> float:
    """int_0^inf g dr (int_0^{r_max} on truncated grids) from the samples g_i
    of a profile times r^{a_exp}: the lattice rule's node sum over
    base_weights, plus for each end that is not a node h GREGORY_END[0] (E -
    G_near), E the _end_values value of G = g sec^2 there and G_near that of
    its nearest node, which base_weights already holds."""
    out = float(np.dot(grid.base_weights, g))
    for (_, _, near, sec2), e in zip(grid._ends, _end_values(grid, g, a_exp, nonneg, ends)):
        out += grid.h * GREGORY_END[0] * (e - sec2 * g[near])
    return out


def _running_integral(f: RadialProfile, a_exp: int, power: float) -> np.ndarray:
    """int_0^{theta_j} G dtheta, G = |f|^power r^{a_exp} sec^2, at every
    lattice point j h (see _node_sum), by weighted_integral's rule: the
    trapezoid cumulative sum plus the Gregory corrections of both ends, with
    _end_values at the ends that are not nodes. The correction at j takes the
    8 points up to j, or, while j < 7, the 8 from j with the sign of the left
    end's (exact for degree 7 all the same)."""
    grid = f.grid
    g = np.abs(f.values) ** power * grid.nodes ** a_exp
    G = np.concatenate([[0.0], g * (1.0 + grid.nodes ** 2), [0.0] * grid.halfline])
    for j, e in zip((0, -1), _end_values(grid, g, a_exp, True, _smooth_ends(grid, f.splits))):
        G[j] = e
    c = GREGORY_END - np.r_[0.5, np.ones(7)]
    right = np.convolve(G, c)[:G.size]
    right[:7] = -np.correlate(G[:14], c)
    trap = np.concatenate([[0.0], np.cumsum((G[1:] + G[:-1]) / 2)])
    return grid.h * (trap + np.dot(c, G[:8]) + right)


def _running_start(C: np.ndarray, x) -> np.ndarray:
    """First of the 8 lattice points of the degree-7 interpolant that reads
    the running integral C at lattice positions x = theta / h."""
    return np.clip(np.floor(x).astype(int) - 3, 0, C.size - 8)


def _running_at(C: np.ndarray, x) -> np.ndarray:
    """The running integral C of _running_integral at lattice positions x:
    the Lagrange interpolant through C at the 8 points from _running_start,
    exactly C[x] at a lattice point x."""
    x = np.asarray(x, dtype=float)
    s = _running_start(C, x)
    return (C[s[..., None] + np.arange(8)] * lagrange_weights(x - s, 8)).sum(axis=-1)


def _running_median(C: np.ndarray) -> float:
    """The lattice position where _running_at crosses C[-1] / 2 > 0: in the
    interval [j, j + 1] where C does, Newton's root from the linear guess of
    the same polynomial fitted to C - C_j in powers of x - j (so that the
    residual does not cancel against C_j). A lower degree does not do: the
    cubic Hermite through C and G is off by 1.5e-10 in r at n = 2048 for the
    extremizer's dilates by 1/8 to 8, as sec^2 magnifies an error near pi/2."""
    half = C[-1] / 2
    j = min(max(int(np.searchsorted(C, half, side="right")) - 1, 0), C.size - 2)
    s = int(_running_start(C, j))
    u = np.arange(s - j, s - j + 8.0)
    coef = np.linalg.solve(np.vander(u, increasing=True), C[s:s + 8] - C[j])
    slope = coef[1:] * np.arange(1, 8)
    target = half - C[j]
    x = target / (C[j + 1] - C[j])
    for _ in range(16):
        dx = polyval(x, slope)
        if not dx > 0:
            break
        step = (polyval(x, coef) - target) / dx
        x = min(max(x - step, 0.0), 1.0)
        if abs(step) <= 1e-15:
            break
    return j + x


def _window_integral(f: RadialProfile, a_exp: int, power: float,
                     r_lo: float, r_hi: float) -> float:
    """int_{r_lo}^{r_hi} |f|^power r^{a_exp} dr by the norms' rule: the
    running integral (_running_integral) at r_hi less that at r_lo, each
    read by _running_at, clamped at 0."""
    C = _running_integral(f, a_exp, power)
    lo, hi = _running_at(C, np.clip(np.arctan([r_lo, r_hi]) / f.grid.h, 0, C.size - 1))
    return max(float(hi - lo), 0.0)


def weighted_integral(f: RadialProfile, a_exp: int, power: float = 1.0) -> float:
    """int_0^inf |f|^power r^{a_exp} dr by grid quadrature (exact for
    indicator-backed profiles)."""
    if f.indicator is not None:
        F, amp = f.indicator
        return abs(amp) ** power * F.weighted_measure(a_exp)
    vals = np.abs(f.values) ** power if power != 1.0 else np.abs(f.values)
    return _node_sum(f.grid, vals * f.grid.nodes ** a_exp, a_exp, True,
                     _smooth_ends(f.grid, f.splits))


def weighted_signed_integral(f_values: np.ndarray, grid: RadialGrid, a_exp: int) -> float:
    """Signed version of weighted_integral on raw values (pairings, cross terms)."""
    return _node_sum(grid, f_values * grid.nodes ** a_exp, a_exp, False)


def weighted_lp_norm(f: RadialProfile, a: int, p: float) -> float:
    """(int_0^inf |f(r)|^p r^a dr)^{1/p} on the profile's grid."""
    if p < 1:
        raise ParameterError(f"need p >= 1, got p = {p}")
    if a < 0:
        raise ParameterError(f"need weight exponent a >= 0, got {a}")
    return weighted_integral(f, a, p) ** (1.0 / p)


def restricted_mass(params: Params, f: RadialProfile, r_lo: float, r_hi: float) -> float:
    """int_{r_lo}^{r_hi} |f|^p r^{d-1} dr, read off the running integral of
    the norms' rule (exact for indicator-backed profiles); a window end next
    to a jump is first order."""
    if f.indicator is not None:
        F, amp = f.indicator
        clipped = F.clip_left(r_lo)
        if not math.isinf(r_hi):
            clipped = clipped.clip_right(r_hi)
        return abs(amp) ** params.pf * clipped.weighted_measure(params.a_domain)
    return _window_integral(f, params.a_domain, params.pf, r_lo, r_hi)


def mass_tail(params: Params, f: RadialProfile, R: float) -> float:
    """int_R^inf |f|^p r^{d-1} dr; equals the full p-mass at R = 0."""
    if R < 0:
        raise ParameterError(f"need R >= 0, got {R}")
    return restricted_mass(params, f, R, math.inf)


def mass_above_level(params: Params, f: RadialProfile, m: float) -> float:
    """int_{|f| > m} |f|^p r^{d-1} dr at cell granularity."""
    if m < 0:
        raise ParameterError(f"need level m >= 0, got {m}")
    if f.indicator is not None:
        F, amp = f.indicator
        if abs(amp) > m:
            return abs(amp) ** params.pf * F.weighted_measure(params.a_domain)
        return 0.0
    above = np.abs(f.values) > m
    vals = np.where(above, np.abs(f.values) ** params.pf, 0.0)
    left, right = _smooth_ends(f.grid, f.splits)
    # a level crossing among an end's 8 nodes is a jump there too
    ends = (left and above[:8].all() == above[:8].any(),
            right and above[-8:].all() == above[-8:].any())
    return _node_sum(f.grid, vals * f.grid.nodes ** params.a_domain, params.a_domain,
                     True, ends)


# ---------------------------------------------------------------------------
# CSV serialization (two columns r,value; '#' comment header)

def write_profile_csv(path, radii: np.ndarray, values: np.ndarray, meta: dict | None = None):
    lines = []
    for key, val in (meta or {}).items():
        lines.append(f"# {key}={val}")
    lines.append("r,value")
    for r, v in zip(radii, values):
        lines.append(f"{float(r)!r},{float(v)!r}")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray, dict]:
    if hasattr(path, "read"):
        raw = path.read()
    else:
        with open(path) as fh:
            raw = fh.read()
    meta = {}
    rows = []
    reader = csv.reader(io.StringIO(raw))
    header_seen = False
    for row in reader:
        if not row:
            continue
        if row[0].lstrip().startswith("#"):
            body = ",".join(row).lstrip("# ")
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        if not header_seen:
            if [c.strip().lower() for c in row[:2]] != ["r", "value"]:
                raise DataError("CSV must start with header row 'r,value'")
            header_seen = True
            continue
        try:
            rows.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError) as exc:
            raise DataError(f"malformed CSV row {row!r}") from exc
    if not rows:
        raise DataError("CSV contains no data rows")
    arr = np.asarray(rows)
    r, v = arr[:, 0], arr[:, 1]
    if not (np.diff(r) > 0).all():
        raise DataError("radii must be strictly increasing")
    if not np.isfinite(arr).all():
        raise DataError("CSV contains non-finite entries")
    return r, v, meta
