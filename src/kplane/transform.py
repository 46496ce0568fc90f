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
kernel edge u = r uses the substitution s = sqrt(u^2-r^2), which removes the
k = 1 singularity exactly. On half-line grids the region beyond the last node
is covered by a cos-power tail model fitted to the last three samples.
Every quadrature point carries its interpolation stencil as SegmentedInterp.plan
gives it: (idx, w), the indices of its degree + 1 nodes and their Lagrange
weights, with no basis matrix formed. A build multiplies each kernel tile by
small dense blocks of these stencils; for k = 2, whose kernel is 1, it
scatters them and takes one cumulative sum over the rows.

One dense matrix M0 per (grid, k, degree) for the forward operator, and per
(grid, k, d, degree) for the adjoint, is built without splits and memoized.
Split radii change only the interpolation stencils within INTERP_DEGREE
cells of a split and the subdivision of the cell that holds it, so a profile
with splits is applied as M0 f + C f[cols], where the correction C is
re-integrated over those few cells alone. M0 is triangular but for a band
of INTERP_DEGREE columns, and M0 f reads only that triangle and band.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _quad
from ._quad import (GL_CELL, GL_EDGE, GL_TAIL, SegmentedInterp, scaled_kernel_power,
                    tail_basis, tail_power_fit)
from .core import (ConfigurationError, IntervalSet, NumericalError, ParameterError,
                   Params, RadialGrid, RadialProfile, make_grid,
                   weighted_signed_integral)

_TAIL_TOL = 1e-6
#: largest dense operator matrix, in bytes, that a build may allocate
DENSE_BUDGET_BYTES = 2 * 1024 ** 3
#: tile of the transposed kernel matrix: rows x GL points (4 MiB, cache-sized)
_TILE_ROWS, _TILE_POINTS = 256, 2048
#: GL points per dense stencil block within a tile
_BLOCK_POINTS = 96
_MATRIX_CACHE: OrderedDict = OrderedDict()
_CACHE_LOCK = threading.Lock()
_BUILD_LOCKS: dict = {}


def _nbytes(value) -> int:
    """Bytes held by a cached operator: a matrix, or a dict of matrices."""
    if isinstance(value, dict):
        return sum(v.nbytes for v in value.values() if v is not None)
    return value.nbytes


def _evict(need: int, keep: int) -> None:
    """Drop least recently used entries, all but the `keep` newest, while the
    held bytes plus `need` exceed DENSE_BUDGET_BYTES (caller holds the lock)."""
    held = sum(_nbytes(v) for v in _MATRIX_CACHE.values())
    while held + need > DENSE_BUDGET_BYTES and len(_MATRIX_CACHE) > keep:
        held -= _nbytes(_MATRIX_CACHE.popitem(last=False)[1])


def _cached(key, build, n: int):
    """Memoized build() of an operator on n grid points; concurrent callers
    with one key wait for one build.

    Before the n x n matrix is allocated, least recently used entries are
    evicted until it fits in DENSE_BUDGET_BYTES beside what stays; after the
    build the cache is trimmed to the budget again, never evicting the entry
    just built.
    """
    with _CACHE_LOCK:
        if key in _MATRIX_CACHE:
            _MATRIX_CACHE.move_to_end(key)
            return _MATRIX_CACHE[key]
        key_lock = _BUILD_LOCKS.setdefault(key, threading.Lock())
    with key_lock:
        with _CACHE_LOCK:
            if key in _MATRIX_CACHE:
                return _MATRIX_CACHE[key]
            _evict(8 * n * n, 0)
        value = build()
        with _CACHE_LOCK:
            _MATRIX_CACHE[key] = value
            _evict(0, 1)
            _BUILD_LOCKS.pop(key, None)
    return value


def _dense(n: int) -> np.ndarray:
    """Zeroed n x n matrix, refused before allocation beyond DENSE_BUDGET_BYTES."""
    if 8 * n * n > DENSE_BUDGET_BYTES:
        raise ConfigurationError(
            f"a dense operator on {n} grid points needs {8 * n * n / 2 ** 30:.1f} GiB, "
            f"above the {DENSE_BUDGET_BYTES / 2 ** 30:.1f} GiB budget; use a smaller grid")
    return np.zeros((n, n))


# ---------------------------------------------------------------------------
# local quadrature: cells c0..c1, optionally refined at split radii

def _refine(x: np.ndarray, c0: int, c1: int, cuts):
    """Cells [x_c, x_{c+1}], c0 <= c <= c1, cut at the points of `cuts` inside
    them: (lo, hi, owning cell) per piece."""
    edges = np.union1d(x[c0:c1 + 2], [t for t in cuts if x[c0] < t < x[c1 + 1]])
    lo, hi = edges[:-1], edges[1:]
    return lo, hi, np.searchsorted(x, 0.5 * (lo + hi)) - 1


def _gl(lo, hi, rule):
    """Gauss-Legendre points and weights of `rule` on each [lo_j, hi_j]."""
    x, w = rule
    half = (hi - lo) / 2
    return ((lo + hi) / 2)[:, None] + half[:, None] * x, half[:, None] * w


def _quadrature(grid: RadialGrid, k: int, d: int, interp: SegmentedInterp,
                c0: int, c1: int, splits_r, adjoint: bool) -> dict:
    """Product-integration nodes of the operator over grid cells c0..c1.

    Interior: GL points (t^2, kernel-free weight, owning cell) with their
    interpolation stencils (sidx, sw), one row of node indices and weights per
    point as SegmentedInterp.plan gives them; a row integrates the points
    against |t^2 - r^2|^{k/2-1} over the cells it sees. Edge: stencils (idx,
    w) of the GL points of the cell at each row's kernel edge, integrated in
    s = sqrt(|u^2 - r_row^2|), with the row each one enters. For the adjoint with
    c0 == 0 the head strip [0, theta_1] joins the interior as cell -1, and
    row 0's own range [0, r_0] joins the edge terms.
    """
    th, r = grid.theta_nodes, grid.nodes
    split_t = [math.atan(s) for s in splits_r]
    lo, hi, cell = _refine(th, c0, c1, split_t)
    thg, wg = _gl(lo, hi, GL_CELL)
    seg = np.repeat(interp.segment_of(0.5 * (lo + hi)), GL_CELL[0].size)
    cell = np.repeat(cell, GL_CELL[0].size)
    thg, wg = thg.ravel(), wg.ravel()
    head = adjoint and c0 == 0
    if head:
        th_h, w_h = _gl(np.zeros(1), th[:1], GL_EDGE)
        thg, wg = np.concatenate([th_h[0], thg]), np.concatenate([w_h[0], wg])
        seg = np.concatenate([np.zeros(GL_EDGE[0].size, dtype=int), seg])
        cell = np.concatenate([np.full(GL_EDGE[0].size, -1), cell])
    tg = np.tan(thg)
    base = (tg ** (d - k - 1) if adjoint else tg) * (1.0 + tg * tg) * wg
    sidx, sw = interp.plan(thg, seg)

    lo, hi, cell_r = _refine(r, c0, c1, splits_r)
    rows = cell_r + 1 if adjoint else cell_r
    if head:
        # row 0: [r_0/2, r_0] in s here, [0, r_0/2] in w directly below
        lo, hi = np.concatenate([[r[0] / 2], lo]), np.concatenate([[r[0]], hi])
        rows = np.concatenate([[0], rows])
    ri = r[rows]
    sign = -1.0 if adjoint else 1.0
    s_lo = np.sqrt(np.maximum(sign * (lo * lo - ri * ri), 0.0))
    s_hi = np.sqrt(np.maximum(sign * (hi * hi - ri * ri), 0.0))
    if adjoint:
        s_lo, s_hi = s_hi, s_lo
    sg, wsg = _gl(s_lo, s_hi, GL_EDGE)
    xq = np.sqrt(np.maximum((ri * ri)[:, None] + sign * sg * sg, 1e-300))
    wts = wsg * sg ** (k - 1) * (xq ** (d - k - 2) if adjoint else 1.0)
    thq = np.arctan(xq)
    segq = np.repeat(interp.segment_of(np.arctan(0.5 * (lo + hi))), GL_EDGE[0].size)
    rows = np.repeat(rows, GL_EDGE[0].size)
    thq, wts = thq.ravel(), wts.ravel()
    if head:
        wq, wgt = _gl(np.zeros(1), r[:1] / 2, GL_EDGE)
        wq, wgt = wq[0], wgt[0]
        w0 = scaled_kernel_power(np.maximum(r[0] ** 2 - wq * wq, 1e-300), k,
                                 wq ** (d - k - 1) * wgt)
        thq, wts = np.concatenate([thq, np.arctan(wq)]), np.concatenate([wts, w0])
        segq = np.concatenate([segq, np.zeros(wq.size, dtype=int)])
        rows = np.concatenate([rows, np.zeros(wq.size, dtype=int)])
    eidx, ebw = interp.plan(thq, segq)
    return {"t2": tg * tg, "base": base, "cell": cell, "sidx": sidx, "sw": sw,
            "rows": rows, "idx": eidx, "w": wts[:, None] * ebw}


def _stencil_blocks(sj: np.ndarray, sw: np.ndarray, q0: int, q1: int) -> list:
    """Points q0..q1 as dense stencil blocks of _BLOCK_POINTS points: (b0, b1,
    c0, c1, D) with D[p, c - c0] the weight of point b0 + p at column c."""
    blocks = []
    for b0 in range(q0, q1, _BLOCK_POINTS):
        b1 = min(b0 + _BLOCK_POINTS, q1)
        js = sj[b0:b1]
        c0, c1 = js.min(), js.max() + 1
        D = np.zeros((b1 - b0, c1 - c0))
        np.add.at(D, (np.arange(b1 - b0)[:, None], js - c0), sw[b0:b1])
        blocks.append((b0, b1, c0, c1, D))
    return blocks


def _accumulate(out: np.ndarray, row0: int, cols: np.ndarray, grid: RadialGrid,
                k: int, quad: dict, adjoint: bool) -> None:
    """out[i - row0, j] = operator row i at node cols[j], integrated by `quad`
    (interior points sorted by cell); `out` is zero on entry.

    Forward row i integrates the interior cells c >= i+1, adjoint row i the
    cells c <= i-2; the edge stencils supply the cell at each row's kernel edge.
    """
    rows = np.arange(row0, row0 + out.shape[0])
    cell, base = quad["cell"], quad["base"]
    sj, sw = np.searchsorted(cols, quad["sidx"]), quad["sw"]
    if k == 2:
        # the kernel is 1: rows are suffix (forward) or prefix (adjoint) sums
        # of per-cell integrals. Each point's stencil enters out at the first
        # row of the sum that sees it, then one in-place cumulative sum runs
        # over the rows: an O(n^2) pass with no kernel and no n x n temporary.
        last = row0 + out.shape[0] - 1
        if adjoint:
            keep = cell + 2 <= last
            enter = np.maximum(cell[keep] + 2, row0) - row0
        else:
            keep = cell - 1 >= row0
            enter = np.minimum(cell[keep] - 1, last) - row0
        np.add.at(out, (enter[:, None], sj[keep]), base[keep, None] * sw[keep])
        acc = out if adjoint else out[::-1]
        np.cumsum(acc, axis=0, out=acc)
    else:
        # A^T (points x rows), A^T[j, i] = base_j |t_j^2 - r_i^2|^{k/2-1}, is
        # evaluated in place one cache-sized tile at a time. A tile's share of
        # out is a sum of small products A^T[block]^T D over its dense stencil
        # blocks, each spanning the few columns its points' stencils reach.
        t2, r2 = quad["t2"], grid.nodes[rows] ** 2
        if adjoint:
            t2, r2 = -t2, -r2
        tiles = [(q0, min(q0 + _TILE_POINTS, t2.size)) for q0 in range(0, t2.size, _TILE_POINTS)]
        tiles = [(q0, q1, _stencil_blocks(sj, sw, q0, q1)) for q0, q1 in tiles]
        buf = np.empty(_TILE_ROWS * _TILE_POINTS)
        for i0 in range(0, rows.size, _TILE_ROWS):
            rs = rows[i0:i0 + _TILE_ROWS]
            # some row of the block sees points [p0, p1), not all of them [s0, s1)
            if adjoint:
                p0, p1 = 0, np.searchsorted(cell, rs[-1] - 2, side="right")
                s0, s1 = np.searchsorted(cell, rs[0] - 2, side="right"), p1
            else:
                p0, p1 = np.searchsorted(cell, rs[0] + 1), cell.size
                s0, s1 = p0, np.searchsorted(cell, rs[-1], side="right")
            for q0, q1, blocks in tiles:
                a, b = max(p0, q0), min(p1, q1)
                if a >= b:
                    continue
                At = buf[:(q1 - q0) * rs.size].reshape(q1 - q0, rs.size)
                At[:a - q0] = 0.0
                At[b - q0:] = 0.0
                seen = At[a - q0:b - q0]
                np.subtract.outer(t2[a:b], r2[i0:i0 + rs.size], out=seen)
                # t^2 - r^2 <= 0 occurs only in the staircase, and is masked there
                lo = max(s0, a)
                hi = max(lo, min(s1, b))
                stair = At[lo - q0:hi - q0]
                np.maximum(stair, 1e-300, out=stair)
                scaled_kernel_power(seen, k, base[a:b, None])
                unseen = (cell[lo:hi, None] > rs - 2) if adjoint else (cell[lo:hi, None] <= rs)
                stair[unseen] = 0.0
                for b0, b1, c0, c1, D in blocks:
                    if a < b1 and b0 < b:
                        out[i0:i0 + rs.size, c0:c1] += At[b0 - q0:b1 - q0].T @ D
    np.add.at(out, (quad["rows"][:, None] - row0, np.searchsorted(cols, quad["idx"])),
              quad["w"])


def _assemble(grid: RadialGrid, k: int, d: int, degree: int, adjoint: bool) -> np.ndarray:
    """Dense operator matrix without splits (adjoint rows scaled by r^{2-d})."""
    n = grid.n
    M = _dense(n)
    interp = SegmentedInterp(grid.theta_nodes, grid.h, degree=degree)
    quad = _quadrature(grid, k, d, interp, 0, n - 2, (), adjoint)
    _accumulate(M, 0, np.arange(n), grid, k, quad, adjoint)
    if adjoint:
        M *= (grid.nodes ** (2.0 - d))[:, None]
    return M


def _split_correction(grid: RadialGrid, k: int, d: int, splits_r, degree: int,
                      adjoint: bool) -> list:
    """Blocks (row0, cols, C): the operator of a profile with splits `splits_r`
    is M0 plus C on rows row0.. and columns cols of each block.

    A split moves the stencils of the GL points within `degree` cells of its
    own (the stencil spans degree + 1 nodes) and refines that cell, so each
    block integrates one cluster of such windows with the splits, minus the
    same cells without them.
    """
    n, th = grid.n, grid.theta_nodes
    split_t = sorted(math.atan(s) for s in splits_r if th[0] < math.atan(s) < th[-1])
    if not split_t:
        return []
    with_splits = SegmentedInterp(th, grid.h, split_t, degree=degree)
    plain = SegmentedInterp(th, grid.h, degree=degree)
    clusters = []
    for c in np.searchsorted(th, split_t) - 1:
        lo, hi = max(c - degree, 0), min(c + degree, n - 2)
        if clusters and lo <= clusters[-1][1] + 1:
            clusters[-1][1] = hi
        else:
            clusters.append([lo, hi])
    blocks = []
    for c0, c1 in clusters:
        q_split = _quadrature(grid, k, d, with_splits, c0, c1, splits_r, adjoint)
        q_plain = _quadrature(grid, k, d, plain, c0, c1, (), adjoint)
        q_plain["base"], q_plain["w"] = -q_plain["base"], -q_plain["w"]
        diff = {key: np.concatenate([q_split[key], q_plain[key]]) for key in q_split}
        order = np.argsort(diff["cell"], kind="stable")
        for key in ("t2", "base", "cell", "sidx", "sw"):
            diff[key] = diff[key][order]
        cols = np.unique(np.concatenate([diff["sidx"].ravel(), diff["idx"].ravel()]))
        row0, row1 = ((0 if c0 == 0 else c0 + 1), n) if adjoint else (0, c1 + 1)
        C = np.zeros((row1 - row0, cols.size))
        _accumulate(C, row0, cols, grid, k, diff, adjoint)
        if adjoint:
            C *= (grid.nodes[row0:row1] ** (2.0 - d))[:, None]
        blocks.append((row0, cols, C))
    return blocks


def _band(n: int, degree: int, i0: int, i1: int, adjoint: bool,
          halfline: bool) -> tuple[int, int]:
    """Columns [c0, c1) that hold every nonzero of M0's rows [i0, i1).

    Forward row i integrates the cells c >= i, whose stencils start at node
    min(c - degree // 2, n - 1 - degree) >= i - degree; adjoint row i
    integrates the cells c <= i - 1 (and the head strip), whose stencils end
    at or before node i + degree. The half-line forward operator also carries
    the tail model in its last three columns.
    """
    if adjoint:
        return 0, min(i1 + degree, n)
    c0 = max(i0 - degree, 0)
    return (min(c0, n - 3) if halfline else c0), n


def _apply(M: np.ndarray, f: RadialProfile, k: int, d: int, adjoint: bool) -> np.ndarray:
    """M0 f plus the split correction of f's splits.

    M0 is triangular but for a band of INTERP_DEGREE columns (upper for the
    forward operator, lower for the adjoint), so each block of _TILE_ROWS
    rows reads only the columns `_band` gives and skips the zero triangle.
    """
    n, v = f.grid.n, f.values
    out = np.empty(n)
    for i0 in range(0, n, _TILE_ROWS):
        i1 = min(i0 + _TILE_ROWS, n)
        c0, c1 = _band(n, _quad.INTERP_DEGREE, i0, i1, adjoint, f.grid.halfline)
        out[i0:i1] = M[i0:i1, c0:c1] @ v[c0:c1]
    for row0, cols, C in _split_correction(f.grid, k, d, f.splits,
                                           _quad.INTERP_DEGREE, adjoint):
        out[row0:row0 + C.shape[0]] += C @ f.values[cols]
    return out


# ---------------------------------------------------------------------------
# tail model (half-line grids)

def _tail_rows(grid: RadialGrid, k: int, shift: int = 0) -> np.ndarray:
    """Matrix (n x 3) mapping samples at nodes [n-3-shift : n-shift] to the
    tail integral int_{r_n}^inf Bext(u) (u^2-r_i^2)^{k/2-1} u du per row i.

    Bext is the cos-power fit cos^{k+1}, cos^{k+3}, cos^{k+5} through those
    samples. Substitution u = r_n sec(chi) keeps the integrand smooth for all
    rows including i = n-1 (stable form u^2-r_i^2 = (r_n^2-r_i^2)+r_n^2 tan^2 chi).
    """
    r = grid.nodes
    rn = r[-1]
    xt, wt = GL_TAIL
    cg = (np.pi / 4) * (xt + 1.0)
    wc = (np.pi / 4) * wt
    sec = 1.0 / np.cos(cg)
    tan = np.tan(cg)
    pw = tail_basis(rn * rn * sec * sec, k)
    du_fac = rn * rn * sec * sec * tan * wc
    gap = rn * rn - r * r
    kerarg = gap[:, None] + (rn * tan)[None, :] ** 2
    T3 = scaled_kernel_power(kerarg, k, du_fac[None, :]) @ pw
    return T3 @ tail_power_fit(grid.theta_nodes[:grid.n - shift], k)


# ---------------------------------------------------------------------------
# forward operator

def _assemble_forward(grid: RadialGrid, k: int, degree: int) -> dict:
    """M0 with, on half-line grids, the tail model's rows added to its last
    three columns; row 0 of the tail model (and, on half-line grids, of the
    fit through the three nodes before) is kept for the tail metadata."""
    M = _assemble(grid, k, 0, degree, adjoint=False)
    tail3 = _tail_rows(grid, k, shift=0)
    tail0_alt = None
    if grid.halfline:
        tail0_alt = _tail_rows(grid, k, shift=3)[0].copy()
        M[:, -3:] += tail3
    return {"M": M, "tail0": tail3[0].copy(), "tail0_alt": tail0_alt}


def _forward_matrix(grid: RadialGrid, k: int, degree: int) -> dict:
    """Memoized M0 of (grid, k, degree) with row 0 of its tail model."""
    return _cached(("fwd", grid.fingerprint(), k, degree),
                   lambda: _assemble_forward(grid, k, degree), grid.n)


def _tail_metadata(values: np.ndarray, out: np.ndarray, tail0, tail0_alt) -> dict:
    """Share of the answer supplied by the tail model, and whether to distrust
    it. A truncated grid (no tail0_alt) drops the tail beyond r_max by design,
    so there the share is an estimate of what was lost."""
    t_primary = float(tail0 @ values[-3:])
    scale = float(np.max(np.abs(out)))
    if tail0_alt is None:
        fraction = abs(t_primary) / (scale or 1.0)
        return {"tail_fraction": fraction, "tail_warning": fraction > _TAIL_TOL}
    meta = {"tail_fraction": 0.0, "tail_warning": False}
    if scale > 0:
        t_alt = float(tail0_alt @ values[-6:-3])
        meta["tail_fraction"] = abs(t_primary) / scale
        meta["tail_warning"] = abs(t_primary - t_alt) / scale > _TAIL_TOL
    return meta


def apply_T(params: Params, f: RadialProfile) -> RadialProfile:
    """Forward transform of a sampled profile on its own grid.

    Indicator-backed profiles use the exact closed form. The result carries
    meta['tail_fraction'] (share of the answer supplied by the tail model) and
    meta['tail_warning'] when two independent tail fits disagree beyond 1e-6,
    which signals a tail too slow or irregular for the model.
    """
    k = params.k
    if f.indicator is not None:
        F, amp = f.indicator
        out = apply_T_indicator(params, F, f.grid)
        return out.scaled(amp) if amp != 1.0 else out
    grid = f.grid
    built = _forward_matrix(grid, k, _quad.INTERP_DEGREE)
    out = _apply(built["M"], f, k, 0, adjoint=False)
    meta = _tail_metadata(f.values, out, built["tail0"], built["tail0_alt"])
    if f.nonnegative:
        out = np.maximum(out, 0.0)
    return RadialProfile(grid, out, meta=meta)


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

def _adjoint_matrix(grid: RadialGrid, k: int, d: int, degree: int) -> np.ndarray:
    """Memoized adjoint M0 of (grid, k, d, degree)."""
    return _cached(("adj", grid.fingerprint(), k, d, degree),
                   lambda: _assemble(grid, k, d, degree, adjoint=True), grid.n)


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
    M = _adjoint_matrix(grid, k, d, _quad.INTERP_DEGREE)
    out = _apply(M, g, k, d, adjoint=True)
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

    def to_csv(self, path):
        np.savetxt(path, self.entries, delimiter=",")


def discretize_T_R(params: Params, R: float, n: int) -> OperatorMatrix:
    """Dense matrix M with M f_samples ~ (T 1_{[0,R]} f) on an n-point grid over [0, R]."""
    if not (R > 0):
        raise ParameterError(f"need R > 0, got {R}")
    if n < 16:
        raise ParameterError(f"need n >= 16, got {n}")
    grid = make_grid(n, R)
    built = _forward_matrix(grid, params.k, degree=1)
    M = np.maximum(built["M"], 0.0)
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

    evaluated in closed form via v = u^2 (both pieces have fixed sign)."""
    if h_step == 0:
        return 0.0
    if not (0 < h_step < R):
        raise ParameterError(f"need 0 <= h_step < R, got h_step={h_step}, R={R}")
    k = params.k
    r = np.linspace(0.0, R - h_step, n_scan)
    rh = r + h_step
    A = (rh ** 2 - r ** 2) ** (k / 2.0) / k
    B = np.abs((np.maximum(R * R - rh ** 2, 0.0)) ** (k / 2.0)
               - (R * R - r ** 2) ** (k / 2.0)
               + (rh ** 2 - r ** 2) ** (k / 2.0)) / k
    return float((A + B).max())


# ---------------------------------------------------------------------------
# pairing helper shared by extremal / cc

def pairing(values_a: np.ndarray, values_b: np.ndarray, grid: RadialGrid,
            a_exp: int) -> float:
    """<a, b> against r^{a_exp} dr on a shared grid."""
    return weighted_signed_integral(values_a * values_b, grid, a_exp)
