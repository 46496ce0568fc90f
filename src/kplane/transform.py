"""The radial k-plane operator, its adjoint, indicator transforms, the
truncated operator as a dense matrix, and the equicontinuity modulus.

Forward operator (s-form, no kernel singularity for any k >= 1):

    T f(r) = int_0^inf f(sqrt(r^2+s^2)) s^{k-1} ds
           = int_r^inf f(u) (u^2-r^2)^{k/2-1} u du

Adjoint w.r.t. the pairing <T f, g>_{r^{d-k-1}dr} = <f, T* g>_{r^{d-1}dr}:

    T* g(u) = u^{2-d} int_0^u g(w) (u^2-w^2)^{k/2-1} w^{d-k-1} dw

Discretization is product integration: the profile is replaced by a local
Lagrange interpolant in theta (segment-aware across splits) and the kernel is
integrated cell-by-cell with Gauss-Legendre rules; the cell adjacent to the
kernel edge uses the substitution s = sqrt(u^2-r^2) forward, integrated in
phi = atan(s / sqrt(1+r^2)), and w = u sin(psi) for the adjoint, which remove
the k = 1 singularity exactly, with GL_EDGE points (GL_EDGE_LAST in the
last LAST_EDGE_ROWS rows of either direction).
The forward operator interpolates g = f sec^{k+1}(theta), not f: its weight
grows like (pi/2 - theta)^{-(k+1)} near pi/2, the extremizer's exact decay,
so g is smooth there wherever f decays like r^{-(k+1)} times a smooth
function of theta; the adjoint, whose weight w^{d-k-1} dw grows like
(pi/2 - theta)^{-(d-k+1)}, interpolates its argument times sec^{d-k+1}.
The scaling lives in the quadrature (_quadrature): each stencil weight of
node j carries sec^m(theta_j) and each point weight cos^m(theta_p), so
every M0 and every apply reads the profile itself. On
half-line grids the last cell [theta_{n-1}, pi/2] is integrated as one more
lattice cell, where g is the degree-7 extrapolation through the last 8
nodes; apply_T's tail metadata reads that cell's share of row 0.
Every quadrature point carries its interpolation stencil as SegmentedInterp.plan
gives it: (idx, w), the indices of its degree + 1 nodes and their Lagrange
weights, with no basis matrix formed.

Every cached operator interpolates at INTERP_DEGREE. One operator M0 per
(grid, k) for the forward operator, and per (grid, k, d) for the adjoint, is
built without splits and memoized by _operator, the one entry point of both
directions, under the key _key gives. For k = 2 the kernel (u^2 - r^2)^0 is 1:
T f(r) = int_r^inf f(u) u du is a suffix integral and T* g(u) = u^{2-d}
int_0^u g(w) w^{d-3} dw a prefix integral, so M0 is kept as _PrefixSums:
per-cell and per-row node weights and one cumulative sum, O(n) memory and an
O(n) apply. For every other k M0 is dense, but one-sided: T f(r) reads only
u >= r and T* g(u) only w <= u, so M0 is triangular but for a band of
INTERP_DEGREE columns (upper forward, lower adjoint). It is held as
_RowBlocks, which builds itself: per _TILE_ROWS rows one contiguous array
over the columns _band gives them, about 18 MiB at n = 2048 and 68 MiB at
4096, and no n x n array is allocated. The byte budget still counts it as n x n entries (_dense,
_operator_bytes). Its interior kernel is evaluated in theta: by tan^2 a -
tan^2 b = sin(a - b) sin(a + b) / (cos^2 a cos^2 b), at GL point theta_p =
(c + 1 + u) h of cell c against row theta_i = (i + 1) h it is
cos(theta_i)^{2-k} cos(theta_p)^{2-k} times one sine power of (c - i + u) h
and one of (c + i + 2 + u) h. On the lattice of whole cells (the adjoint's
head strip [0, theta_0] is its cell -1) those two are a Toeplitz and a
Hankel table of O(n) values, kept per (grid, k, direction), every k alike:
for k = 2 the sine powers are 1 and the rounding correction of a row's
angle, a multiple of k/2 - 1, is exactly 0. A quadrature without splits
lies on the lattice alone, so a build (_accumulate, into row blocks) fills
each tile of rows x whole cells with one multiply of two strided views and
multiplies it by a small dense block of the stencils scaled by the cos power
of each point. Its row blocks are filled on _workers threads, each block by
one thread in one operation order, so M0 is bitwise the same for any worker
count, as is every _integrate (below), whose passes of rows go to the
workers too; k = 2 runs on the calling thread.

Split radii change only the interpolation stencils within INTERP_DEGREE
cells of a split and the subdivision of the cell that holds it, so M0 is
never rebuilt for them and nothing is cached per split set: every apply
of M0 integrates each range of those cells once with the splits,
contracted against f (_split_quadratures). The prefix sums take its
per-cell and per-row sums in place of the plain ones; a dense M0 f adds it
and the range's plain quadrature contracted against -f (_RowBlocks.apply).
A split is inside the grid when its angle lies strictly between the first
and last node angles, one test for the interpolant and the quadrature
alike. cache_info() counts the cache's entries, bytes, builds, hits,
evictions and build seconds per entry kind.

Every quadrature contracted against f, one weight per point, is integrated
by _integrate: the lattice weights of all of them are one vector, and a
pass of rows is one fused row-dot of the two views against it, with no
tile formed; the few points off the lattice, the pieces of the cells a split
cuts, are evaluated one by one. A T f needed once (the sharp constant's T h,
the CLI's transform, the cross terms of cc, the interaction suite's far
profiles and the superadd suite's f and 2f) need not form M0:
_apply_T_once plans the quadrature of the cells whose stencils can read a
nonzero sample of f with f's own interpolant and splits, one block of
_BUILD_CELLS cells at a time, contracts it against f block by block and
integrates it by one _integrate on the build's workers, holding no matrix,
no block of sine factors and caching nothing. With no M0 f to correct, it
plans no split range plain. discretize_T_R, uncached, plans its own
quadrature at degree 1 and fills views of its n x n matrix with the tile
loop of a dense build.
"""
from __future__ import annotations

import functools
import math
import os
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _quad
from ._quad import (GL_CELL, GL_EDGE, GL_EDGE_LAST, GL_TAIL, LAST_EDGE_ROWS,
                    SegmentedInterp, scaled_kernel_power, unique)
from .core import (ConfigurationError, IntervalSet, NumericalError, ParameterError,
                   Params, RadialGrid, RadialProfile, make_grid)

#: share of max|T f| above which a truncated grid's estimate of what lies
#: beyond r_max raises tail_warning
_TAIL_TOL = 1e-6
#: gap between the degree-7 and degree-5 extrapolations of g over the last
#: cell of a half-line grid, as a share of max|T f|, that raises tail_warning
_EXTRAPOLATION_TOL = 1e-9
#: largest dense operator matrix, in bytes, that a build may allocate
DENSE_BUDGET_BYTES = 2 * 1024 ** 3
#: tile of a dense build, rows x whole cells (256 x 1024 GL points), whose
#: share of the matrix is summed in a buffer of its own; _TILE_ROWS is also
#: the height of a stored row block of a dense M0
_TILE_ROWS, _TILE_CELLS = 256, 128
#: cells per dense stencil block within a tile (128 GL points)
_BLOCK_CELLS = 16
#: cells per block of a planned quadrature (_quadrature_blocks, _apply_T_once)
_BUILD_CELLS = 256
_MATRIX_CACHE: OrderedDict = OrderedDict()
_CACHE_LOCK = threading.Lock()
#: held by the one build in flight; no build calls _cached, so it cannot deadlock
_BUILD_LOCK = threading.Lock()
#: (entry kind, "builds" | "hits" | "evictions") -> count, and (entry kind,
#: "build_s") -> wall seconds in build(), under _CACHE_LOCK
_CACHE_COUNTS: Counter = Counter()


def _evict(need: int) -> None:
    """Drop least recently used entries while the held bytes plus `need`
    exceed DENSE_BUDGET_BYTES (caller holds _CACHE_LOCK)."""
    held = sum(v.nbytes for v in _MATRIX_CACHE.values())
    while held + need > DENSE_BUDGET_BYTES and _MATRIX_CACHE:
        key, value = _MATRIX_CACHE.popitem(last=False)
        held -= value.nbytes
        _CACHE_COUNTS[key[0], "evictions"] += 1


def _cached(key, build, need: int):
    """Memoized build() of an entry that holds at most `need` bytes.

    A hit takes _CACHE_LOCK alone and never waits for a build. Builds run
    one at a time under _BUILD_LOCK: a caller that missed checks the cache
    again, evicts least recently used entries until `need` fits in
    DENSE_BUDGET_BYTES beside what stays, and builds. So the held entries
    and the build in flight fit the budget for any number of callers, and
    callers that miss on one key get one build. A build that raises stores
    nothing, and the next caller builds again. The wall seconds of a build
    that stores its entry count in "build_s".
    """
    kind = key[0]
    with _CACHE_LOCK:
        if key in _MATRIX_CACHE:
            _MATRIX_CACHE.move_to_end(key)
            _CACHE_COUNTS[kind, "hits"] += 1
            return _MATRIX_CACHE[key]
    with _BUILD_LOCK:
        with _CACHE_LOCK:
            if key in _MATRIX_CACHE:
                _CACHE_COUNTS[kind, "hits"] += 1
                return _MATRIX_CACHE[key]
            _evict(need)
        start = time.perf_counter()
        value = build()
        elapsed = time.perf_counter() - start
        with _CACHE_LOCK:
            _MATRIX_CACHE[key] = value
            _CACHE_COUNTS[kind, "builds"] += 1
            _CACHE_COUNTS[kind, "build_s"] += elapsed
    return value


def cache_info() -> dict:
    """The operator cache per entry kind: "fwd" and "adj", M0 of the forward
    operator and of the adjoint, the only entries it holds (a profile's
    splits are re-integrated at every apply and cache nothing). Each maps to
    the entries and bytes held now and, since the process started, the
    builds, hits and evictions and build_s, the wall seconds spent in builds
    (a hit adds none)."""
    with _CACHE_LOCK:
        info = {kind: {"entries": 0, "bytes": 0, "builds": 0, "hits": 0, "evictions": 0,
                       "build_s": 0.0}
                for kind in ("fwd", "adj")}
        for key, value in _MATRIX_CACHE.items():
            info[key[0]]["entries"] += 1
            info[key[0]]["bytes"] += value.nbytes
        for (kind, event), count in _CACHE_COUNTS.items():
            info[kind][event] += count
    return info


def _operator_bytes(n: int, k: int) -> int:
    """Bytes the cache reserves before building M0 on n nodes: for a dense
    M0 its n x n entries, the measure of the budget (its row blocks hold
    about half of them); for k = 2 what its prefix-sum form holds, two
    node-weight bands of INTERP_DEGREE + 2 weights and nodes per row and the
    adjoint's row scaling."""
    if k == 2:
        return 8 * n * (4 * (_quad.INTERP_DEGREE + 2) + 1)
    return 8 * n * n


def _dense(n: int) -> None:
    """Refuse a dense operator on n nodes before anything is allocated when
    its n x n entries, 8n^2 bytes, exceed DENSE_BUDGET_BYTES: the budget
    counts the full matrix, though _RowBlocks hold about half of it."""
    if 8 * n * n > DENSE_BUDGET_BYTES:
        need, budget = 8 * n * n / 2 ** 20, DENSE_BUDGET_BYTES / 2 ** 20
        digits = 1
        while f"{need:.{digits}f}" == f"{budget:.{digits}f}":
            digits += 1
        raise ConfigurationError(
            f"a dense operator on {n} grid points needs {need:.{digits}f} MiB, "
            f"above the {budget:.{digits}f} MiB budget; use a smaller grid")


# ---------------------------------------------------------------------------
# local quadrature: cells c0..c1, optionally refined at split radii

def _refine(x: np.ndarray, c0: int, c1: int, cuts):
    """Cells [x_c, x_{c+1}], c0 <= c <= c1, cut at the points of `cuts` inside
    them: (lo, hi, owning cell) per piece."""
    edges = x[c0:c1 + 2]
    inside = np.array(sorted({t for t in cuts if x[c0] < t < x[c1 + 1]}), dtype=float)
    at = np.searchsorted(edges, inside)
    off_node = edges[at] != inside
    edges = np.insert(edges, at[off_node], inside[off_node])
    lo, hi = edges[:-1], edges[1:]
    return lo, hi, np.searchsorted(x, 0.5 * (lo + hi)) - 1


def _gl(lo, hi, rule):
    """Gauss-Legendre points and weights of `rule` on each [lo_j, hi_j]."""
    x, w = rule
    half = (hi - lo) / 2
    return ((lo + hi) / 2)[:, None] + half[:, None] * x, half[:, None] * w


def _cells(grid: RadialGrid, adjoint: bool) -> int:
    """Lattice cells the operator integrates: 0..n-2 between the nodes and,
    forward on a half-line grid, the last cell n-1, [theta_{n-1}, pi/2]."""
    return grid.n - 1 + (grid.halfline and not adjoint)


def _quadrature(grid: RadialGrid, k: int, d: int, interp: SegmentedInterp,
                c0: int, c1: int, splits_r, adjoint: bool) -> dict:
    """Product-integration nodes of the operator over grid cells c0..c1, cut
    at the split radii `splits_r`, each inside the grid (_split_clusters).

    Interior: GL points at angles `theta` = (cell + 1 + u) h, u in [0, 1]
    their offset in the owning cell, with a kernel-free weight and their
    interpolation stencils (sidx, sw), one row of node indices and weights
    per point as SegmentedInterp.plan gives them; a row integrates the points
    against |t^2 - r^2|^{k/2-1} over the cells it sees. A cell no split cuts
    holds the GL_CELL points at the same offsets u as every other, flagged
    `lattice`. Edge: stencils (idx, w) of the GL points of the cell at each
    row's kernel edge, integrated in phi = atan(s / sqrt(1 + r_row^2)), s =
    sqrt(u^2 - r_row^2), forward and in psi = asin(w / r_row) for the
    adjoint, with the row each one enters (`rows`, ascending), by GL_EDGE
    (GL_EDGE_LAST in the last LAST_EDGE_ROWS rows). For the adjoint with
    c0 == 0 the head strip [0, theta_0] joins the interior as lattice cell
    -1, in segment 0, and row 0's own range [0, r_0] joins the edge terms.

    Both directions interpolate the profile times sec^m(theta), m = k + 1
    forward and d - k + 1 adjoint, the power their weight grows like near
    pi/2: each stencil weight of node j carries sec^m(theta_j) and each
    point weight cos^m(theta_p), so M0 still reads the profile. On half-line
    grids the forward operator's last cell [theta_{n-1}, pi/2] is a lattice
    cell like any other, where the interpolant is the degree-7 extrapolation
    through the last 8 nodes, and the last row's edge cell, in phi, ends at
    pi/2.
    """
    th, r, h = grid.theta_nodes, grid.nodes, grid.h
    if c1 == grid.n - 1:
        # the last cell of a half-line grid ends at pi/2, r = inf
        th, r = np.append(th, (grid.n + 1) * h), np.append(r, np.inf)
    # the adjoint's head strip [0, theta_0] is cell -1 of the lattice
    # extended by theta = 0 (r = 0), whose pieces at index j are cell j - 1
    head = int(adjoint and c0 == 0)
    th_x, r_x = (np.insert(th, 0, 0.0), np.insert(r, 0, 0.0)) if head else (th, r)
    lo, hi, at = _refine(th_x, c0, c1 + head, [math.atan(s) for s in splits_r])
    cell = at - head
    # the pieces in units of h from their cell's first node: a whole cell is
    # exactly [0, 1], so its GL points fall on the offsets of every other cell
    ulo = np.where(lo == th_x[at], 0.0, lo / h - (cell + 1))
    uhi = np.where(hi == th_x[at + 1], 1.0, hi / h - (cell + 1))
    ug, wg = _gl(ulo, uhi, GL_CELL)
    seg = np.repeat(interp.segment_of(0.5 * (lo + hi)), GL_CELL[0].size)
    lattice = np.repeat((ulo == 0.0) & (uhi == 1.0), GL_CELL[0].size)
    cell = np.repeat(cell, GL_CELL[0].size)
    ug, wg = ug.ravel(), h * wg.ravel()
    thg = (cell + 1 + ug) * h
    # the power of sec(theta) the weight grows like, out of the interpolant
    m = d - k + 1 if adjoint else k + 1
    if adjoint:
        # w^{d-k-1} dw cos^{d-k+1}(theta) = sin^{d-k-1}(theta) dtheta
        base = np.sin(thg) ** (d - k - 1) * wg
    else:
        # u du cos^{k+1}(theta) = sin(theta) cos^{k-2}(theta) dtheta
        base = np.sin(thg) * np.cos(thg) ** (k - 2.0) * wg

    # an adjoint row's edge piece is the cell before it: row 0's is [0, r_0]
    lo, hi, at = _refine(r_x, c0, c1 + head, splits_r)
    rows = at - head + adjoint
    seg_r = interp.segment_of(np.arctan(0.5 * (lo + hi)))
    # in the last rows r_{i+1} / r_i nears 2 whatever n is: a forward piece
    # spans phi up to about pi/3 (pi/2 in the last row), an adjoint one psi
    # from about pi/6, too wide for GL_EDGE, so both take GL_EDGE_LAST
    last = rows >= grid.n - LAST_EDGE_ROWS
    thq, wts, segq, rows_q = [], [], [], []
    for sel, rule in ((~last, GL_EDGE), (last, GL_EDGE_LAST)):
        ri = r[rows[sel]]
        if adjoint:
            # w = r_i sin(psi): the weight r_i^{d-2} cos^{k-1} sin^{d-k-1} dpsi is
            # analytic, where in s = sqrt(r_i^2 - w^2) w^{d-k-2} has a branch
            # point at s = r_i, near rows 0 and 1's pieces, which end at 0.87 r_i
            p_lo = np.arcsin(np.minimum(lo[sel] / ri, 1.0))
            p_hi = np.arcsin(np.minimum(hi[sel] / ri, 1.0))
            pg, wpg = _gl(p_lo, p_hi, rule)
            ri = ri[:, None]
            xq = ri * np.sin(pg)
            wq = wpg * ri ** (d - 2) * np.cos(pg) ** (k - 1) * np.sin(pg) ** (d - k - 1)
            wq *= (1.0 + xq * xq) ** (-0.5 * m)
        else:
            # s = rho tan(phi), rho = sqrt(1 + r_i^2): 1 + u^2 = rho^2 sec^2(phi),
            # so cos^{k+1}(theta) s^{k-1} ds is sin^{k-1}(phi) dphi / rho, bounded
            # up to the last row's phi = pi/2 (u = inf)
            rho = np.sqrt(1.0 + ri * ri)
            p_lo = np.arctan(np.sqrt(np.maximum(lo[sel] * lo[sel] - ri * ri, 0.0)) / rho)
            p_hi = np.arctan(np.sqrt(np.maximum(hi[sel] * hi[sel] - ri * ri, 0.0)) / rho)
            pg, wpg = _gl(p_lo, p_hi, rule)
            s = rho[:, None] * np.tan(pg)
            xq = np.sqrt(np.maximum((ri * ri)[:, None] + s * s, 1e-300))
            wq = wpg * np.sin(pg) ** (k - 1) / rho[:, None]
        thq.append(np.arctan(xq).ravel())
        wts.append(wq.ravel())
        segq.append(np.repeat(seg_r[sel], rule[0].size))
        rows_q.append(np.repeat(rows[sel], rule[0].size))
    # one plan for the interior points and the edge points
    idx, w = interp.plan(np.concatenate([thg, *thq]), np.concatenate([seg, *segq]))
    w *= _sec_power(grid, m)[idx]
    g = thg.size
    w[g:] *= np.concatenate(wts)[:, None]
    rows = np.concatenate(rows_q)
    return {"theta": thg, "u": ug, "base": base, "cell": cell, "lattice": lattice,
            "sidx": idx[:g], "sw": w[:g], "rows": rows, "idx": idx[g:], "w": w[g:]}


@functools.lru_cache(maxsize=16)
def _sec_power(grid: RadialGrid, m: int) -> np.ndarray:
    """sec^m(theta_j) = (1 + r_j^2)^{m/2} at every node, from the radii the
    profile is sampled at, so g_j = f_j sec^m(theta_j) is exactly 1 to
    rounding for f = (1 + r^2)^{-m/2}."""
    sec = (1.0 + grid.nodes * grid.nodes) ** (m / 2.0)
    sec.setflags(write=False)
    return sec


def _quadrature_blocks(grid: RadialGrid, k: int, d: int, adjoint: bool):
    """The whole grid's _quadrature (its _cells) without splits, as one dict
    per block of _BUILD_CELLS cells in turn, so a build that reduces each
    block holds one block's stencils at a time. Concatenated (_concatenate),
    the blocks are the whole grid's _quadrature point for point: interior
    points go by cell and edge points by row, and the LAST_EDGE_ROWS rows
    whose points _quadrature puts after the others are the grid's last."""
    c1 = _cells(grid, adjoint) - 1
    for b0 in range(0, c1 + 1, _BUILD_CELLS):
        yield _quadrature(grid, k, d, grid._interp_plain, b0, min(b0 + _BUILD_CELLS - 1, c1),
                          (), adjoint)


def _concatenate(blocks: list) -> dict:
    """One quadrature from the blocks of _quadrature_blocks, each block's
    arrays dropped as their key is joined."""
    return {key: np.concatenate([q.pop(key) for q in blocks]) for key in list(blocks[0])}


# ---------------------------------------------------------------------------
# the interior kernel on the theta lattice
#
# With tan^2 a - tan^2 b = sin(a - b) sin(a + b) / (cos^2 a cos^2 b), a point at
# theta_p = (c + 1 + u) h against row i at theta_i = (i + 1) h has
#
#     |t^2 - r^2|^{k/2-1} = cos(theta_i)^{2-k} cos(theta_p)^{2-k}
#                           S(|c - i + u| h) S((c + i + 2 + u) h),
#
# S(x) = sin(x)^{k/2-1}, with no cancellation near the diagonal. The Toeplitz
# factor S(|c - i + u| h) depends on c - i and the Hankel factor on c + i, so on
# the lattice of whole cells each is a table of O(n GL_CELL) values. A row sits
# at the grid's rounded angle fl((i + 1) h), off the lattice by about an ulp;
# within _EDGE_BAND cells of its kernel edge, where that shift is largest
# against |theta_p - theta_i|, the Toeplitz factor takes its first-order
# correction, so the kernel there is that of the row's own radius.

#: cells past a row's kernel edge whose Toeplitz factor is corrected for the
#: rounding of the row's angle; further out the correction is below
#: 2^-53 |k/2 - 1| theta_i / (_EDGE_BAND h) relative
_EDGE_BAND = 8


def _sine_power(x: np.ndarray, k: int) -> np.ndarray:
    """S(x) = sin(x)^{k/2-1} for 0 < x < pi."""
    return scaled_kernel_power(np.sin(x), k, 1.0)


def _row_rounding(m: np.ndarray, h: float) -> np.ndarray:
    """fl(m h) - m h for integers 0 < m < 2^26: h splits into two halves of
    26 bits (Veltkamp) whose products with m are exact, so one rounding
    remains."""
    hi = 134217729.0 * h
    hi -= hi - h
    return (m * h - m * hi) - m * (h - hi)


def _toeplitz_factor(dc, u, h: float, k: int, adjoint: bool) -> np.ndarray:
    """S(|dc + u| h) of points at offset u in cell c against row i, dc = c - i
    (arrays that broadcast); 0 where the row does not see the cell, forward
    dc <= 0 and adjoint dc >= -1, whose angle is replaced by 1 first: no sine
    of a non-positive angle is raised to a power."""
    seen = dc <= -2 if adjoint else dc >= 1
    S = _sine_power(np.where(seen, np.abs(dc + u) * h, 1.0), k)
    S *= seen
    return S


def _rounding_factor(S: np.ndarray, dc, u, h: float, k: int, adjoint: bool) -> np.ndarray:
    """The change of the Toeplitz factor S (of _toeplitz_factor) per unit of
    rounding in the row's angle, within _EDGE_BAND cells of the edge (0
    beyond and where the row does not see the cell)."""
    # the row's angle moves theta_p - theta_i by -eps (forward) or
    # theta_i - theta_p by +eps (adjoint); dS/dx = (k/2 - 1) S cot(x)
    seen = dc <= -2 if adjoint else dc >= 1
    near = np.broadcast_to(seen & (np.abs(dc) <= _EDGE_BAND + adjoint), S.shape)
    x = np.broadcast_to(np.abs(dc + u) * h, S.shape)[near]
    dS = np.zeros(S.shape)
    dS[near] = (1 if adjoint else -1) * (k / 2 - 1) * S[near] / np.tan(x)
    return dS


def _hankel_factor(sc, u, h: float, k: int) -> np.ndarray:
    """S((sc + 2 + u) h) of points at offset u in cell c against row i,
    sc = c + i (arrays that broadcast)."""
    return _sine_power((sc + 2 + u) * h, k)


def _direct_sines(c: np.ndarray, u: np.ndarray, rows: np.ndarray, h: float, k: int,
                  adjoint: bool) -> np.ndarray:
    """The kernel's sine factors, rows x points, of points anywhere in their
    cells c (offsets u), each evaluated on its own; `rows` ascending."""
    dc = c - rows[:, None]
    S = _toeplitz_factor(dc, u, h, k, adjoint)
    H = _hankel_factor(c + rows[:, None], u, h, k)
    A = S * H
    # the rounding correction is 0 but on the rows within _EDGE_BAND cells
    # of some point's cell
    near = slice(*np.searchsorted(rows, [c.min() - _EDGE_BAND - 1, c.max() + _EDGE_BAND + 2]))
    dS = _rounding_factor(S[near], dc[near], u, h, k, adjoint)
    A[near] += _row_rounding(rows[near] + 1, h)[:, None] * (dS * H[near])
    return A


class _SineTables:
    """The sine factors of every row against the lattice of every whole cell
    of the grid, GL_CELL points each: the Toeplitz factor and its rounding
    correction tabulated over c - i, the Hankel factor over c + i, (cells +
    n) GL_CELL values each. The lattice starts at cell `origin`: -1 for the
    adjoint, whose head strip [0, theta_0] is cell -1, else 0, so cell c's
    points are (c - origin) GL_CELL.. of a row. views(a, b) gives rows
    a..b-1 against every lattice point as one strided view of each table, so
    a tile of sine factors is one multiply (and the rows of its edge band
    three more), and dot() sums rows of them against one vector without
    forming the tile."""

    def __init__(self, grid: RadialGrid, k: int, adjoint: bool):
        u = 0.5 + 0.5 * GL_CELL[0]           # a whole cell's offsets, as in _quadrature
        n, cells, o = grid.n, _cells(grid, adjoint), -int(adjoint)
        self.adjoint, self.g, self.n, self.origin = adjoint, u.size, n, o
        self.eps = _row_rounding(np.arange(1, n + 1), grid.h)
        dc = np.arange(o + 1 - n, cells)[:, None]
        U = _toeplitz_factor(dc, u, grid.h, k, adjoint)
        W = _rounding_factor(U, dc, u, grid.h, k, adjoint)
        # the Hankel table within _EDGE_BAND + 1 cells of zeros each side, so
        # a band of cells next to any row's kernel edge is in it (dot)
        self.pad = _EDGE_BAND + 1
        V = np.zeros((cells - o + n - 1 + 2 * self.pad, u.size))
        V[self.pad:-self.pad] = _hankel_factor(np.arange(o, cells + n - 1)[:, None], u, grid.h, k)
        self.V_flat = V.ravel()
        # the rounding factor of the _EDGE_BAND cells where it is not 0, the
        # same for every row: c - i from 1 forward, from -_EDGE_BAND - 1 adjoint
        edge = n - 1 - o + (-_EDGE_BAND - 1 if adjoint else 1)
        self.W_band = W[edge:edge + _EDGE_BAND].ravel()
        # window j: the table from flat index j on; row i starts at c - i =
        # origin - i of U and W, and at c + i = origin + i of V
        window = np.lib.stride_tricks.sliding_window_view
        self.U, self.W, self.V = (window(T.ravel(), (cells - o) * u.size)
                                  for T in (U, W, V[self.pad:-self.pad]))

    def views(self, a: int, b: int):
        """U, W and V of rows a..b-1 against every lattice point."""
        g, last = self.g, self.n - 1
        toeplitz = slice((last - b + 1) * g, (last - a) * g + 1, g)
        return (self.U[toeplitz][::-1], self.W[toeplitz][::-1], self.V[a * g:(b - 1) * g + 1:g])

    def band_rows(self, c_lo: int, c_hi: int) -> tuple[int, int]:
        """The rows [r0, r1) within _EDGE_BAND cells of the kernel edge of
        cells c_lo..c_hi: those whose rounding correction is not 0 there."""
        if self.adjoint:
            return c_lo + 2, c_hi + _EDGE_BAND + 2
        return c_lo - _EDGE_BAND, c_hi

    def sines(self, views, a: int, c_lo: int, c_hi: int, p0: int, p1: int,
              out: np.ndarray) -> np.ndarray:
        """Sine factors of rows a.. (those of `views`) against lattice points
        p0..p1-1, which lie in cells c_lo..c_hi, into `out`."""
        U, W, V = (t[:, p0:p1] for t in views)
        A = np.multiply(U, V, out=out)
        r0, r1 = self.band_rows(c_lo, c_hi)
        r0, r1 = max(r0 - a, 0), min(r1 - a, A.shape[0])
        if r0 < r1:
            near = W[r0:r1] * V[r0:r1]
            near *= self.eps[a + r0:a + r1, None]
            A[r0:r1] += near
        return A

    def dot(self, a: int, b: int, c_lo: int, c_hi: int, d: np.ndarray, d0: int) -> np.ndarray:
        """The sine factors of rows a..b-1 against the lattice points of
        cells c_lo..c_hi times d, d[(c - d0) GL_CELL + m] the weight of point
        m of cell c, summed per row in one fused pass; d is 0 on the
        _EDGE_BAND cells next to c_lo..c_hi that the rows see. Only the rows
        within _EDGE_BAND cells of those cells' kernel edge add the rounding
        correction, read from band views of the tables and of d."""
        g, o = self.g, self.origin
        U, _, V = self.views(a, b)
        p0, p1, e = (c_lo - o) * g, (c_hi + 1 - o) * g, (c_lo - d0) * g
        s = np.einsum("ij,ij,j->i", U[:, p0:p1], V[:, p0:p1], d[e:e + p1 - p0])
        r0, r1 = self.band_rows(c_lo, c_hi)
        r0, r1 = max(r0, a), min(r1, b)
        if r0 < r1:
            # row i's band is the _EDGE_BAND cells from i - _EDGE_BAND - 1
            # (adjoint) or i + 1 (forward) on: each row of it starts 2 cells
            # on in the Hankel table and 1 cell on in d
            c = r0 - _EDGE_BAND - 1 if self.adjoint else r0 + 1
            window = functools.partial(np.lib.stride_tricks.sliding_window_view,
                                       window_shape=_EDGE_BAND * g)
            v0, e0, rows = (r0 + c - o + self.pad) * g, (c - d0) * g, r1 - r0
            V_band = window(self.V_flat)[v0:v0 + 2 * g * rows:2 * g]
            d_band = window(d)[e0:e0 + g * rows:g]
            near = np.einsum("ij,ij,j->i", V_band, d_band, self.W_band)
            near *= self.eps[r0:r1]
            s[r0 - a:r1 - a] += near
        return s


@functools.lru_cache(maxsize=8)
def _lattice_tables(grid: RadialGrid, k: int, adjoint: bool) -> _SineTables:
    """_SineTables of the grid, about 48 n doubles, shared by M0's build,
    every split apply and every one-shot T f, which read the rows and cells
    they need from them."""
    tables = _SineTables(grid, k, adjoint)
    tables.eps.setflags(write=False)
    return tables


def _cell_tiles(cell: np.ndarray, sj: np.ndarray, sw: np.ndarray):
    """The points (sorted by cell) in stencil blocks of _BLOCK_CELLS cells,
    aligned to multiples of that size: (b0, b1, c_lo, c_hi, j0, j1, D) per
    block, points b0..b1-1 in cells c_lo..c_hi with D[p, j - j0] the weight
    of point b0 + p at column j. Returns them grouped in tiles of
    _TILE_CELLS cells, (J0, J1, blocks) with J0..J1-1 the columns the tile
    reaches; the adjoint's head strip, cell -1, is a tile of its own."""
    lo, hi = cell[0], cell[-1] + 1
    edges = unique(np.concatenate([np.arange(lo - lo % size, hi + size, size)
                                   for size in (_TILE_CELLS, _BLOCK_CELLS)]))
    bounds = unique(np.searchsorted(cell, edges))
    tiles = {}
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        js = sj[b0:b1]
        j0, j1 = js.min(), js.max() + 1
        flat = (np.arange(b1 - b0)[:, None] * (j1 - j0) + js - j0).ravel()
        D = np.bincount(flat, sw[b0:b1].ravel(), (b1 - b0) * (j1 - j0)).reshape(b1 - b0, -1)
        tiles.setdefault(cell[b0] // _TILE_CELLS, []).append(
            (b0, b1, cell[b0], cell[b1 - 1], j0, j1, D))
    return [(min(b[4] for b in blocks), max(b[5] for b in blocks), blocks)
            for blocks in tiles.values()]


def _workers(jobs: int) -> int:
    """Threads for a build of `jobs` row blocks: the CPUs this process may
    run on (os.cpu_count() where the platform keeps no affinity mask), at
    most KPLANE_THREADS when that is a positive integer in ASCII digits (one
    int() can read), and at most one per block."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    cap = os.environ.get("KPLANE_THREADS", "").strip()
    if cap.isascii() and cap.isdigit() and int(cap) > 0:
        cpus = min(cpus, int(cap))
    return max(1, min(cpus, jobs))


def _on_workers(work, jobs: list) -> None:
    """work(take) on _workers(len(jobs)) threads, the calling thread one of
    them: each thread's `take` yields jobs in the order given, each job to
    one thread, until none is left or some thread has raised. The threads
    last for this call; with one worker none is started. The first exception
    is re-raised here once every thread has joined."""
    lock, pending, errors = threading.Lock(), jobs[::-1], []

    def take():
        while True:
            with lock:
                if not pending:
                    return
                job = pending.pop()
            yield job

    def run():
        try:
            work(take())
        except BaseException as exc:   # re-raised by the caller below
            with lock:
                errors.append(exc)
                pending.clear()

    threads = []
    for _ in range(_workers(len(jobs)) - 1):
        thread = threading.Thread(target=run, name="kplane-build", daemon=True)
        try:
            thread.start()
        except RuntimeError:
            break       # no thread to be had: those started share the jobs
        threads.append(thread)
    run()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _accumulate(blocks: list, grid: RadialGrid, k: int, quad: dict, adjoint: bool,
                row_scale=None) -> None:
    """Operator row i at column j, integrated by `quad` (points sorted by
    cell, every one on the lattice: a quadrature without splits), times
    row_scale[i] if given, added to the row blocks (i0, c0, B), each B
    zeroed and taking rows i0.. in columns c0..: the blocks of _RowBlocks,
    or discretize_T_R's views of its n x n matrix. The columns are those of
    the stencil indices, every node of the grid.

    Forward row i integrates the interior cells c >= i+1, adjoint row i the
    cells c <= i-2; the edge stencils supply the cell at each row's kernel
    edge. The interior kernel is alpha_i beta_p times its sine factors:
    alpha_i = cos(theta_i)^{2-k} scales rows, beta_p = base_p
    cos(theta_p)^{2-k} the point weights. Rows go in passes of _TILE_ROWS;
    the sine factors of a pass and a block of cells are one multiply of
    views of the grid's _lattice_tables and their share of a row block one
    product with the block's stencils (_cell_tiles) times beta, summed per
    tile in a buffer of its own that is added to the row block once; a
    tile's columns outside the block's band add exact zeros and are
    dropped. What a row does not see has a zero Toeplitz factor.

    The stencil blocks, alpha, beta and the tables are made here and only
    read after; the row blocks, largest first, go to _on_workers, each
    filled by one thread alone, in the order of the single-threaded loop, so
    the blocks are bitwise the same for any worker count. Beyond the blocks
    and the kept tables a call holds `quad`, the stencil blocks, alpha and
    beta and, per worker that takes a block, one block of sine factors, one
    tile buffer and the edge band of the row block it fills.
    """
    rows = np.arange(max(i0 + B.shape[0] for i0, _, B in blocks))
    cell, g = quad["cell"], GL_CELL[0].size
    alpha = np.cos(grid.theta_nodes[rows]) ** (2.0 - k)
    w = quad["w"]
    if row_scale is not None:
        alpha *= row_scale
        w = w * row_scale[quad["rows"], None]
    beta = quad["base"] * np.cos(quad["theta"]) ** (2.0 - k)
    tiles = _cell_tiles(cell, quad["sidx"], beta[:, None] * quad["sw"])
    tables, R = _lattice_tables(grid, k, adjoint), min(_TILE_ROWS, rows.size)
    points = max(b[1] - b[0] for _, _, tile_blocks in tiles for b in tile_blocks)
    width = max(J1 - J0 for J0, J1, _ in tiles)
    edge_rows, edge_cols = quad["rows"], quad["idx"]

    def fill(take):
        # one worker: the row blocks it takes, each written by this worker
        # alone, with its own block of sine factors and tile buffer, made on
        # its first job (a worker that gets none allocates neither)
        buf = acc = None
        for i0, b0, B in take:
            if buf is None:
                buf, acc = np.empty((R, points)), np.empty((R, width))
            b1 = b0 + B.shape[1]
            for a in range(i0, i0 + B.shape[0], R):
                # per pass of rows, tile by tile, the blocks of the cells
                # some row of the pass sees
                rs = rows[a:min(a + R, i0 + B.shape[0])]
                first, last = (cell[0], rs[-1] - 2) if adjoint else (rs[0] + 1, cell[-1])
                views = tables.views(rs[0], rs[-1] + 1)
                for J0, J1, tile_blocks in tiles:
                    lo, hi = max(J0, b0), min(J1, b1)
                    tile_blocks = [b for b in tile_blocks if b[2] <= last and b[3] >= first]
                    if lo >= hi or not tile_blocks:
                        continue
                    tile = acc[:rs.size, :J1 - J0]
                    tile[:] = 0.0
                    for p0, p1, c_lo, c_hi, j0, j1, D in tile_blocks:
                        q0 = (c_lo - tables.origin) * g
                        A = tables.sines(views, rs[0], c_lo, c_hi, q0, q0 + p1 - p0,
                                         buf[:rs.size, :p1 - p0])
                        tile[:, j0 - J0:j1 - J0] += A @ D
                    tile *= alpha[a:a + rs.size, None]
                    B[a - i0:a - i0 + rs.size, lo - b0:hi - b0] += tile[:, lo - J0:hi - J0]
            # these rows' edge weights (quad["rows"] ascends) summed per entry
            # in a band indexed by row and column less row
            e0, e1 = np.searchsorted(edge_rows, (i0, i0 + B.shape[0]))
            if e1 > e0:
                r, c = edge_rows[e0:e1, None] - i0, edge_cols[e0:e1] - b0
                diag = c - r
                o0, ow = diag.min(), diag.max() + 1 - diag.min()
                S = np.bincount((r * ow + diag - o0).ravel(), w[e0:e1].ravel(),
                                B.shape[0] * ow)
                at = np.flatnonzero(S)
                i, j = np.divmod(at, ow)
                B[i, i + j + o0] += S[at]

    # forward blocks shrink along the triangle: the largest go first
    _on_workers(fill, sorted(blocks, key=lambda block: block[2].size, reverse=True))


def _integrate(grid: RadialGrid, k: int, quads: list, adjoint: bool, row0: int,
               row1: int) -> np.ndarray:
    """Rows row0..row1-1 of the operator integrated by the sum of `quads`,
    quadratures _contract-ed against f (one weight per point) that may
    overlap: a split range and its plain quadrature against -f (a dense M0's
    split apply), or a one-shot's quadrature of f's support with f's splits.

    The kernel is that of _accumulate. The lattice points of every
    quadrature go into one weight vector d, d[(c - d0) GL_CELL + m] the sum
    of beta_p sw_p over the quadratures that hold the point, with
    _EDGE_BAND cells of zeros each side, and a pass of rows is one fused
    row-dot of the tables' views against d (_SineTables.dot), no block of
    sine factors formed. A pass takes _TILE_ROWS rows, proportionally more
    over a lattice narrower than _TILE_CELLS cells, as a split range's is,
    so it covers as many points as a full tile. The points off the lattice
    (the pieces of the cells a split cuts) take _direct_sines against every
    row. The edge weights are summed per row of each quadrature, then over
    the quadratures, so a row's split and plain edge weights cancel as two
    sums, not term by term.

    The passes go to _on_workers, each computed by one thread alone, so the
    result is bitwise the same for any worker count. Beyond the quadratures
    and the kept tables a call holds d, alpha, the point weights and the
    result and, per worker, a pass's row sums.
    """
    g, tables = GL_CELL[0].size, _lattice_tables(grid, k, adjoint)
    alpha = np.cos(grid.theta_nodes[row0:row1]) ** (2.0 - k)
    out = np.zeros(row1 - row0)
    v = [q["base"] * np.cos(q["theta"]) ** (2.0 - k) * q["sw"] for q in quads]
    # the lattice cells of each quadrature, whose GL_CELL points come in turn
    on = [q["cell"][::g][q["lattice"][::g]] for q in quads]
    lattice = np.concatenate(on)
    if lattice.size:
        c_lo, c_hi = lattice.min(), lattice.max()
        d0 = c_lo - _EDGE_BAND
        d = np.zeros((c_hi + _EDGE_BAND + 1 - d0, g))
        for q, v_q, cells in zip(quads, v, on):
            d[cells - d0] += v_q[q["lattice"]].reshape(-1, g)
        d = d.ravel()
        R = min(_TILE_ROWS * max(_TILE_CELLS // (c_hi + 1 - c_lo), 1), out.size)

        def fill(take):
            for a in take:
                # the lattice cells some row of the pass, row0 + a.., sees
                b = min(a + R, out.size)
                lo, hi = (c_lo, row0 + b - 3) if adjoint else (row0 + a + 1, c_hi)
                lo, hi = max(lo, c_lo), min(hi, c_hi)
                if lo <= hi:
                    s = tables.dot(row0 + a, row0 + b, lo, hi, d, d0)
                    s *= alpha[a:b]
                    out[a:b] = s

        _on_workers(fill, list(range(0, out.size, R)))
    off = [(q["cell"][m], q["u"][m], v_q[m]) for q, v_q in zip(quads, v) for m in [~q["lattice"]]]
    cells, u, w = (np.concatenate(x) for x in zip(*off))
    if cells.size:
        part = _direct_sines(cells, u, np.arange(row0, row1), grid.h, k, adjoint) @ w
        part *= alpha
        out += part
    # the edge weights of rows row0.. per quadrature, then summed over them
    out += sum(np.bincount(q["rows"], q["w"], row1)[row0:row1] for q in quads)
    return out


class _RowBlocks:
    """A dense M0 of (grid, k, d) on n nodes as blocks (i0, c0, B) of
    _TILE_ROWS rows: B, contiguous, holds rows i0.. in columns c0.., the
    columns `_band` gives those rows. The triangle outside the band is zero
    and not stored, so a forward or adjoint M0 holds about (n + 2
    INTERP_DEGREE + _TILE_ROWS) / 2n of its n x n entries. apply() reads
    each block once against its columns and adds what f's splits change.

    The build refuses a grid over the dense budget (_dense) before anything
    is allocated, plans the quadrature without splits by _quadrature_blocks
    and joins it, so the plan's temporaries are one block's, and fills the
    zeroed blocks by _accumulate, adjoint rows scaled by r^{2-d}."""

    def __init__(self, grid: RadialGrid, k: int, d: int, adjoint: bool):
        n = grid.n
        _dense(n)
        quad = _concatenate(list(_quadrature_blocks(grid, k, d, adjoint)))
        self.grid, self.k, self.d, self.adjoint = grid, k, d, adjoint
        bands = [(i0, min(i0 + _TILE_ROWS, n)) for i0 in range(0, n, _TILE_ROWS)]
        bands = [(i0, i1, *_band(n, i0, i1, adjoint)) for i0, i1 in bands]
        # one zeroed buffer cut into the blocks: an allocation large enough
        # for numpy's huge-page advice, where one array per block faulted
        # in 4 KiB pages, 2.4 times the page faults of a build at n = 2048
        flat = np.zeros(sum((i1 - i0) * (c1 - c0) for i0, i1, c0, c1 in bands))
        self.n, self.blocks, at = n, [], 0
        for i0, i1, c0, c1 in bands:
            size = (i1 - i0) * (c1 - c0)
            self.blocks.append((i0, c0, flat[at:at + size].reshape(i1 - i0, c1 - c0)))
            at += size
        _accumulate(self.blocks, grid, k, quad, adjoint,
                    grid.nodes ** (2.0 - d) if adjoint else None)

    @property
    def nbytes(self) -> int:
        return sum(B.nbytes for _, _, B in self.blocks)

    def apply(self, f: RadialProfile) -> np.ndarray:
        """M0 f, one product per row block, plus what f's splits change: per
        range of _split_quadratures, its quadrature and the range's plain one
        contracted against -f, integrated together by one _integrate over the
        rows that see the range's cells, adjoint rows then scaled by r^{2-d}."""
        grid, k, d, adjoint = self.grid, self.k, self.d, self.adjoint
        v, out = f.values, np.empty(self.n)
        for i0, c0, B in self.blocks:
            out[i0:i0 + B.shape[0]] = B @ v[c0:c0 + B.shape[1]]
        for c0, c1, split in _split_quadratures(grid, k, d, f, adjoint):
            plain = _contract(_quadrature(grid, k, d, grid._interp_plain, c0, c1, (), adjoint), -v)
            row0, row1 = ((0 if c0 == 0 else c0 + 1), self.n) if adjoint else (0, c1 + 1)
            col = _integrate(grid, k, [split, plain], adjoint, row0, row1)
            if adjoint:
                col *= grid.nodes[row0:row1] ** (2.0 - d)
            out[row0:row1] += col
        return out

    def toarray(self) -> np.ndarray:
        """M0 as an n x n matrix."""
        M = np.zeros((self.n, self.n))
        for i0, c0, B in self.blocks:
            M[i0:i0 + B.shape[0], c0:c0 + B.shape[1]] = B
        return M


def _split_clusters(grid: RadialGrid, splits_r, adjoint: bool):
    """The split radii inside the grid, sorted, and the ranges [c0, c1] of
    the operator's _cells whose quadrature those splits change.

    A radius is inside when its angle is, th[0] < atan(s) < th[-1]: the test
    SegmentedInterp applies, so a split the interpolant ignores cuts no cell
    either. A split moves the stencils of the GL points within INTERP_DEGREE
    cells of its own (the stencil spans INTERP_DEGREE + 1 nodes) and refines
    that cell; windows that meet or touch form one range.
    """
    th, reach, last = grid.theta_nodes, _quad.INTERP_DEGREE, _cells(grid, adjoint) - 1
    kept = tuple(s for s in sorted(set(splits_r)) if th[0] < math.atan(s) < th[-1])
    clusters = []
    for t in (math.atan(s) for s in kept):
        c = int(np.searchsorted(th, t)) - 1
        lo, hi = max(c - reach, 0), min(c + reach, last)
        if clusters and lo <= clusters[-1][1] + 1:
            clusters[-1][1] = hi
        else:
            clusters.append([lo, hi])
    return kept, clusters


def _contract(q: dict, v: np.ndarray) -> dict:
    """The quadrature q with each point's stencil contracted against the
    node values v, in place: sw <- sum sw v[sidx] and w <- sum w v[idx], one
    weight per point, and the stencil indices dropped."""
    for idx, w in (("sidx", "sw"), ("idx", "w")):
        q[w] = np.einsum("ij,ij->i", q[w], v[q[idx]])
        del q[idx]
    return q


def _split_quadratures(grid: RadialGrid, k: int, d: int, f: RadialProfile, adjoint: bool):
    """(c0, c1, q) per _split_clusters range [c0, c1] of f's splits: q is
    the range's quadrature with the splits, _contract-ed against f (d is 0
    forward). The splits change no weight outside the ranges, so M0 f with
    each range's plain integral replaced by q's is the operator of f."""
    kept, clusters = _split_clusters(grid, f.splits, adjoint)
    interp = f.interpolator()
    for c0, c1 in clusters:
        yield c0, c1, _contract(_quadrature(grid, k, d, interp, c0, c1, kept, adjoint), f.values)


def _band(n: int, i0: int, i1: int, adjoint: bool) -> tuple[int, int]:
    """Columns [c0, c1) that a row block of M0 stores for its rows [i0, i1):
    every nonzero of those rows lies in them.

    Forward row i integrates the cells c >= i, whose stencils start at node
    min(c - INTERP_DEGREE // 2, n - 1 - INTERP_DEGREE) >= i - INTERP_DEGREE;
    adjoint row i integrates the cells c <= i - 1 (and the head strip), whose
    stencils end at or before node i + INTERP_DEGREE.
    """
    if adjoint:
        return 0, min(i1 + _quad.INTERP_DEGREE, n)
    return max(i0 - _quad.INTERP_DEGREE, 0), n


# ---------------------------------------------------------------------------
# k = 2: the kernel is 1, so M0 is prefix sums of per-cell integrals

def _add_stencils(band: tuple[np.ndarray, np.ndarray], keys: np.ndarray,
                  idx: np.ndarray, w: np.ndarray, n: int) -> None:
    """Sum stencils (idx, w), one row per entry, into the rows `keys`
    (ascending) of a band (lo, W) over n nodes: W[key, m] is the weight of
    node lo[key] + m. Each key takes all its stencils in one call, which sets
    its lo; its weights are summed in the order given."""
    lo, W = band
    starts = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
    first = np.minimum.reduceat(idx.min(axis=1), starts)
    present = keys[starts]
    lo[present] = np.minimum(first, n - W.shape[1])
    k0, width = present[0], W.shape[1]
    flat = (keys - k0)[:, None] * width + idx - lo[keys, None]
    W[k0:present[-1] + 1] += np.bincount(flat.ravel(), w.ravel(),
                                         (present[-1] + 1 - k0) * width).reshape(-1, width)


def _gather(band: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """sum_m W[key, m] v[cols[key, m]] for every key of a band (cols, W)."""
    cols, W = band
    return np.einsum("ij,ij->i", W, v[cols])


class _PrefixSums:
    """M0 of k = 2, whose kernel (u^2 - r^2)^0 is 1, as what its apply reads.

    Forward row i is the suffix sum over the cells c >= i + 1 of each cell's
    integral, adjoint row i the prefix sum over the cells c <= i - 2 (the
    head strip is cell -1), plus the row's kernel-edge cell. So M0 f takes
    the per-cell node weights (`cells`, a band of about INTERP_DEGREE + 2
    nodes per cell, the last cell's too on half-line grids, forward), the
    per-row edge weights (`edge`, as many per row), one cumulative sum and
    the rows' r^{2-d} scaling (adjoint): O(n) memory and an O(n) apply.
    The build integrates _BUILD_CELLS cells at a time, so it holds O(n) too.

    A profile with splits takes each _split_quadratures range's per-cell and
    per-row sums in place of the gathered ones, before the cumulative sum.
    """

    def __init__(self, grid: RadialGrid, d: int, adjoint: bool):
        n, m = grid.n, _cells(grid, adjoint) + adjoint
        self.grid, self.d, self.adjoint = grid, d, adjoint
        # the GL points of a cell, and of a row's edge cell, fall on two
        # neighbouring stencil anchors: INTERP_DEGREE + 2 nodes at most
        width = _quad.INTERP_DEGREE + 2
        # cell c at position c + 1 for the adjoint, whose cells start at -1
        cells = (np.zeros(m, dtype=int), np.zeros((m, width)))
        edge = (np.zeros(n, dtype=int), np.zeros((n, width)))
        for q in _quadrature_blocks(grid, 2, d, adjoint):
            _add_stencils(cells, q["cell"] + adjoint, q["sidx"], q["base"][:, None] * q["sw"], n)
            _add_stencils(edge, q["rows"], q["idx"], q["w"], n)
        # kept as (cols, W), the node of every weight, for the apply's gather
        self.cells, self.edge = ((lo[:, None] + np.arange(width), W) for lo, W in (cells, edge))
        self.scale = grid.nodes ** (2.0 - d) if adjoint else None

    @property
    def nbytes(self) -> int:
        held = [*self.cells, *self.edge, self.scale]
        return sum(a.nbytes for a in held if a is not None)

    def apply(self, f: RadialProfile) -> np.ndarray:
        v, n = f.values, self.grid.n
        cells, edge = _gather(self.cells, v), _gather(self.edge, v)
        for _, _, q in _split_quadratures(self.grid, 2, self.d, f, self.adjoint):
            # the range's cells and the rows whose edge cell is one of them,
            # each whole in q: its sums replace the plain ones just gathered
            for sums, keys, w in ((cells, q["cell"] + self.adjoint, q["base"] * q["sw"]),
                                  (edge, q["rows"], q["w"])):
                lo, hi = keys[0], keys[-1] + 1
                sums[lo:hi] = np.bincount(keys - lo, w, hi - lo)
        out = np.zeros(n)
        if self.adjoint:
            np.cumsum(cells[:n - 1], out=out[1:])
        else:
            out[:cells.size - 1] = np.cumsum(cells[:0:-1])[::-1]
        out += edge
        if self.scale is not None:
            out *= self.scale
        return out


# ---------------------------------------------------------------------------
# the cached operator

def _key(grid: RadialGrid, k: int, d: int, adjoint: bool) -> tuple:
    """The cache key of M0: ("fwd", fingerprint, k) forward, whose M0 does
    not depend on d, and ("adj", fingerprint, k, d) for the adjoint."""
    if adjoint:
        return "adj", grid.fingerprint(), k, d
    return "fwd", grid.fingerprint(), k


def _operator(grid: RadialGrid, k: int, d: int, adjoint: bool):
    """Memoized M0 of the forward operator (d = 0) or of the adjoint:
    _PrefixSums for k = 2, else _RowBlocks."""
    if k == 2:
        build = functools.partial(_PrefixSums, grid, d, adjoint)
    else:
        build = functools.partial(_RowBlocks, grid, k, d, adjoint)
    return _cached(_key(grid, k, d, adjoint), build, _operator_bytes(grid.n, k))


# ---------------------------------------------------------------------------
# forward operator

def _row0_weight(grid: RadialGrid, k: int, theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row 0's forward weight on g = f sec^{k+1} at angles theta beyond its
    kernel edge, base weights w: the kernel times u du cos^{k+1}(theta),
    cos(theta_0)^{2-k} sin(theta) (sin(theta - theta_0) sin(theta + theta_0))^{k/2-1} w."""
    t0 = grid.theta_nodes[0]
    return scaled_kernel_power(np.sin(theta - t0) * np.sin(theta + t0), k,
                               math.cos(t0) ** (2.0 - k) * np.sin(theta) * w)


@functools.lru_cache(maxsize=16)
def _tail_weights(grid: RadialGrid, k: int, cuts: tuple) -> tuple:
    """Row 0's weights on the last 8 samples of f, for the tail metadata, of
    a profile split at the angles `cuts` among those samples.

    Half-line grid: the last cell's share of row 0 through the extrapolation
    of g that the operator integrates (degree 7, within f's last segment),
    and the same share through the degree-5 extrapolation. Truncated grid:
    the share that the region beyond r_max would add to row 0 were g to keep
    its last value there (f decaying like r^{-(k+1)}), and None."""
    th, h, n, sec = grid.theta_nodes, grid.h, grid.n, _sec_power(grid, k + 1)
    if not grid.halfline:
        x, w = _gl(th[-1:], np.array([math.pi / 2]), GL_TAIL)
        return np.eye(8)[-1] * sec[-1] * _row0_weight(grid, k, x[0], w[0]).sum(), None
    theta = (n + 0.5 + 0.5 * GL_CELL[0]) * h
    omega = _row0_weight(grid, k, theta, 0.5 * h * GL_CELL[1])
    out = []
    for degree in (_quad.INTERP_DEGREE, 5):
        idx, w = SegmentedInterp(th, h, cuts, degree=degree).plan(theta)
        out.append(np.bincount((idx - (n - 8)).ravel(), (omega[:, None] * w * sec[idx]).ravel(),
                               8))
    return tuple(out)


def _tail_metadata(grid: RadialGrid, k: int, f: RadialProfile, out: np.ndarray) -> dict:
    """tail_fraction, the share of max|T f| in row 0 that comes from beyond
    the last node, and tail_warning, whether to distrust it (_tail_weights).
    On a half-line grid the warning is raised when the degree-7 and degree-5
    extrapolations of g over the last cell differ by more than
    _EXTRAPOLATION_TOL of max|T f|: g is then not smooth up to pi/2 (f's
    decay is not r^{-(k+1)} times a smooth function of theta). A truncated
    grid drops the region beyond r_max by design, so there the share is an
    estimate of what was lost, and a share above _TAIL_TOL warns."""
    th = grid.theta_nodes
    cuts = tuple(t for t in map(math.atan, f.splits) if th[-9] < t < th[-1])
    w, alt = _tail_weights(grid, k, cuts)
    share = float(w @ f.values[-8:])
    scale = float(np.max(np.abs(out)))
    if alt is None:
        fraction = abs(share) / (scale or 1.0)
        return {"tail_fraction": fraction, "tail_warning": fraction > _TAIL_TOL}
    meta = {"tail_fraction": 0.0, "tail_warning": False}
    if scale > 0:
        meta["tail_fraction"] = abs(share) / scale
        meta["tail_warning"] = abs(share - float(alt @ f.values[-8:])) / scale > _EXTRAPOLATION_TOL
    return meta


def apply_T(params: Params, f: RadialProfile) -> RadialProfile:
    """Forward transform of a sampled profile on its own grid.

    Indicator-backed profiles use the exact closed form. The result carries
    meta['tail_fraction'] (share of the answer supplied beyond the last
    node) and meta['tail_warning'] (see _tail_metadata), which signals a
    decay too irregular for the last cell's extrapolation.
    """
    k = params.k
    if f.indicator is not None:
        F, amp = f.indicator
        out = apply_T_indicator(params, F, f.grid)
        return out.scaled(amp) if amp != 1.0 else out
    return _forward_result(f, k, _operator(f.grid, k, 0, adjoint=False).apply(f))


def _forward_result(f: RadialProfile, k: int, out: np.ndarray) -> RadialProfile:
    """T f from its values `out`: with f's tail metadata, and clamped at 0
    for a nonnegative f."""
    meta = _tail_metadata(f.grid, k, f, out)
    if f.nonnegative:
        out = np.maximum(out, 0.0)
    return RadialProfile(f.grid, out, meta=meta)


def _apply_T_once(params: Params, f: RadialProfile) -> RadialProfile:
    """apply_T(params, f) for a profile transformed once: T f integrated
    directly, with no M0 formed and nothing cached. Its users are
    constant_B, the CLI's transform, cc.interaction_term,
    cc.interaction_bound_check and the interaction and superadd suites.

    T f = K (D f), D the Gauss points' interpolation stencils and K their
    kernel weights per row. Only the cells whose stencils can read a
    nonzero sample of f are planned: the node range of those samples
    widened by INTERP_DEGREE + 1 cells each side (a stencil, split or not,
    is at most INTERP_DEGREE + 1 consecutive nodes, one its cell's), so
    through the last cell when it comes that near the end, where the
    stencils are clamped and the half-line last cell extrapolates; a
    profile with nonzero samples that near both ends plans the whole grid.
    That span is planned one block of _BUILD_CELLS cells at
    a time by _quadrature with f's interpolant and its splits inside the
    grid, each block's stencils contracted against f (_contract) once
    planned; the blocks are joined and one _integrate call integrates every
    row, its passes on the build's workers shrunk to the narrower lattice,
    the pieces of the cells a split cuts evaluated off the lattice, and the
    rows past the planned cells left exactly 0. No plain quadrature of a
    split range is planned: there is no M0 f to correct. It holds one
    block's stencils, O(n) point weights and sums, never an n x n matrix,
    the whole grid's stencils or a block of sine factors, and still refuses
    a grid over the dense budget.
    Indicators (a closed form), k = 2 (O(n) prefix sums) and a (grid, k)
    whose M0 is cached, by the key _operator memoizes it under, go to
    apply_T.
    """
    k, grid = params.k, f.grid
    with _CACHE_LOCK:
        cached = _key(grid, k, 0, adjoint=False) in _MATRIX_CACHE
    if f.indicator is not None or k == 2 or cached:
        return apply_T(params, f)
    _dense(grid.n)
    out = np.zeros(grid.n)
    nonzero = np.flatnonzero(f.values)
    if nonzero.size:
        # the cells whose stencils can read a nonzero sample
        reach = _quad.INTERP_DEGREE + 1
        c0 = max(int(nonzero[0]) - reach, 0)
        c1 = min(int(nonzero[-1]) + reach, _cells(grid, False) - 1)
        kept, interp = _split_clusters(grid, f.splits, False)[0], f.interpolator()
        quad = _concatenate([_contract(_quadrature(grid, k, 0, interp, b0,
                                                   min(b0 + _BUILD_CELLS - 1, c1), kept, False),
                                       f.values)
                             for b0 in range(c0, c1 + 1, _BUILD_CELLS)])
        out = _integrate(grid, k, [quad], False, 0, grid.n)
    return _forward_result(f, k, out)


def apply_T_indicator(params: Params, F: IntervalSet,
                      grid: RadialGrid) -> RadialProfile:
    """Exact transform of an indicator: with v = u^2 the kernel integrates in
    closed form for every k >= 1:

        T 1_F(r) = sum_j [ (b_j^2-r^2)_+^{k/2} - (a_j^2-r^2)_+^{k/2} ] / k
    """
    k = params.k
    r2 = grid.nodes ** 2
    out = np.zeros(grid.n)
    for a, b in F.intervals:
        out += (np.maximum(b * b - r2, 0.0) ** (k / 2.0)
                - np.maximum(a * a - r2, 0.0) ** (k / 2.0)) / k
    splits = tuple(x for ab in F.intervals for x in ab)
    return RadialProfile(grid, out, splits=splits, meta={"exact": True})


# ---------------------------------------------------------------------------
# adjoint

def apply_T_adjoint(params: Params, g: RadialProfile) -> RadialProfile:
    """Adjoint transform T* g on g's grid.

    Derived once from Fubini on the pairing and validated by the adjoint
    identity <T f, g>_{d-k-1} = <f, T* g>_{d-1}; see the property tests.
    """
    k, d = params.k, params.d
    grid = g.grid
    if g.indicator is not None:
        F, amp = g.indicator
        return _adjoint_indicator(params, F, grid).scaled(amp)
    out = _operator(grid, k, d, adjoint=True).apply(g)
    if g.nonnegative:
        out = np.maximum(out, 0.0)
    return RadialProfile(grid, out)


def _adjoint_indicator(params: Params, F: IntervalSet, grid: RadialGrid) -> RadialProfile:
    """T* 1_F by the psi-substitution w = u sin(psi): per interval piece the
    integrand sin^{d-k-1} cos^{k-1} is analytic, so fixed GL is exact-grade."""
    k, d = params.k, params.d
    xg, wg = GL_TAIL
    u = grid.nodes
    out = np.zeros(grid.n)
    for a, b in F.intervals:
        lo = np.arcsin(np.clip(a / u, 0.0, 1.0))
        hi = np.arcsin(np.clip(b / u, 0.0, 1.0))
        mid = (lo + hi) / 2
        hw = (hi - lo) / 2
        psi = mid[:, None] + hw[:, None] * xg[None, :]
        w = hw[:, None] * wg[None, :]
        out += (np.sin(psi) ** (d - k - 1) * np.cos(psi) ** (k - 1) * w).sum(axis=1)
    return RadialProfile(grid, out)


# ---------------------------------------------------------------------------
# truncated operator and compactness diagnostics

@dataclass(frozen=True)
class OperatorMatrix:
    """Dense nonnegative discretization of T_R = T 1_{[0,R]} on a truncated grid.

    Built from hat-function (piecewise linear in theta) product integration so
    every entry is a nonnegative kernel integral; row i is the quadrature
    functional approximating f -> T f(r_i).
    """
    entries: np.ndarray
    R: float
    grid: RadialGrid
    params: Params

    def __post_init__(self):
        self.entries.setflags(write=False)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.entries @ values


def discretize_T_R(params: Params, R: float, n: int) -> OperatorMatrix:
    """Dense matrix M with M f_samples ~ (T 1_{[0,R]} f) on an n-point grid over [0, R],
    built on every call and not cached: its own quadrature at interpolation
    degree 1 (hat functions), integrated by _accumulate into row blocks that
    are views of M, then clamped at 0."""
    if not 0 < R < math.inf:
        raise ParameterError(f"need finite R > 0, got {R}")
    if n < 16:
        raise ParameterError(f"need n >= 16, got {n}")
    k, grid = params.k, make_grid(n, R)
    _dense(n)
    hat = SegmentedInterp(grid.theta_nodes, grid.h, degree=1)
    quad = _quadrature(grid, k, 0, hat, 0, _cells(grid, False) - 1, (), adjoint=False)
    M = np.zeros((n, n))
    _accumulate([(i0, 0, M[i0:i0 + _TILE_ROWS]) for i0 in range(0, n, _TILE_ROWS)],
                grid, k, quad, adjoint=False)
    np.maximum(M, 0.0, out=M)
    return OperatorMatrix(entries=M, R=float(R), grid=grid, params=params)


def singular_value_profile(op: OperatorMatrix) -> np.ndarray:
    """Singular values of the weighted discretization, approximating the
    operator's L^2(r^{d-1}dr) -> L^2(r^{d-k-1}dr) singular values."""
    grid, params = op.grid, op.params
    wq = grid.base_weights * grid.nodes ** params.a_target
    wp = grid.base_weights * grid.nodes ** params.a_domain
    W = np.sqrt(wq)[:, None] * op.entries / np.sqrt(wp)[None, :]
    try:
        return np.linalg.svd(W, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc


def equicontinuity_modulus(params: Params, R: float, h_step: float,
                           n_scan: int = 4097) -> float:
    """sup over r in [0, R-h] of I(h, r), the kernel-difference integral

        I(h,r) = int_0^R |1_{u>=r+h}(u^2-(r+h)^2)^{k/2-1}
                          - 1_{u>=r}(u^2-r^2)^{k/2-1}| u du,

    evaluated in closed form via v = u^2 (both pieces have fixed sign).

    I is homogeneous of degree k in (h, r, R), so it is evaluated at R = 1
    and scaled by R one factor at a time: nothing overflows unless the
    modulus itself does, which raises ParameterError."""
    if not 0 < R < math.inf:
        raise ParameterError(f"need finite R > 0, got R={R}")
    if n_scan < 2:
        raise ParameterError(f"need n_scan >= 2, got n_scan={n_scan}")
    if h_step == 0:
        return 0.0
    if not (0 < h_step < R):
        raise ParameterError(f"need 0 <= h_step < R, got h_step={h_step}, R={R}")
    k, s = params.k, h_step / R
    x = np.linspace(0.0, 1.0 - s, n_scan)
    # with b = 1 - x^2 and c = (x + s)^2 - x^2 the pieces are c^{k/2} and
    # b^{k/2} - (b - c)^{k/2} = b^{k/2} (1 - (1 - c/b)^{k/2}), the latter by
    # expm1 and log1p where c << b, whose difference would cancel
    b = (1.0 - x) * (1.0 + x)
    c = s * (2.0 * x + s)
    t = np.minimum(np.divide(c, b, out=np.ones_like(b), where=b > 0), 1.0)
    with np.errstate(divide="ignore"):      # log1p(-1) = -inf: the drop is 1
        drop = -np.expm1(k / 2.0 * np.log1p(-t))
    inner = c ** (k / 2.0)
    modulus = float((inner + np.abs(inner - b ** (k / 2.0) * drop)).max()) / k
    # the running product moves monotonically to R^k times the modulus
    for _ in range(k):
        modulus *= R
    if math.isinf(modulus):
        raise ParameterError(f"the modulus at R={R}, h_step={h_step} overflows a double "
                             f"for k={k}")
    return modulus
