"""Internal quadrature and interpolation machinery for tan-substitution grids.

Everything here works in the theta coordinate (r = tan(theta), theta uniform),
where profiles with critical power-law decay become smooth bounded functions.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

#: local Lagrange interpolation degree used by the transform machinery
INTERP_DEGREE = 7

GL_CELL = leggauss(8)    # per-cell rule for kernel product integration
GL_EDGE = leggauss(8)    # singular-edge cells (after desingularizing substitution)
GL_EDGE_LAST = leggauss(16)  # the edge cells of the operators' last rows
#: rows at the end of the forward operator and of the adjoint whose edge
#: cells take GL_EDGE_LAST
LAST_EDGE_ROWS = 8
GL_TAIL = leggauss(16)   # indicator adjoint pieces, and the region beyond a truncated grid


def _gregory_end() -> np.ndarray:
    """The order-8 Gregory weights of the first 8 points of a uniform lattice,
    in units of its spacing: 1/2, 1, 1, ... plus (-1)^{j+1} sum_k gamma_k
    C(k, j), gamma the Gregory coefficients (Javed & Trefethen 2016). Each is
    positive, the smallest 0.257."""
    gamma = (Fraction(1, 12), Fraction(1, 24), Fraction(19, 720), Fraction(3, 160),
             Fraction(863, 60480), Fraction(275, 24192), Fraction(33953, 3628800))
    w = [Fraction(1, 2)] + [Fraction(1)] * 7
    for j in range(8):
        w[j] += (-1) ** (j + 1) * sum(g * math.comb(k, j) for k, g in enumerate(gamma, 1))
    return np.array([float(x) for x in w])


#: Gregory end weights of the lattice points 0..7 (and, mirrored, of the last 8)
GREGORY_END = _gregory_end()
#: degree-7 extrapolation to lattice point 0 from the points 1..8
EXTRAPOLATE_END = np.array([8.0, -28.0, 56.0, -70.0, 56.0, -28.0, 8.0, -1.0])


def _denominators(length: int, ndim: int) -> np.ndarray:
    """D[m, j] = j - m for nodes 0..length-1, exact small integers, each
    shaped (1,) * ndim to broadcast against a weight W[j] of an ndim-d x."""
    j = np.arange(length, dtype=float)
    return (j - j[:, None]).reshape((length, length) + (1,) * ndim)


def lagrange_weights(x: np.ndarray, length: int) -> np.ndarray:
    """Cardinal weights of the Lagrange polynomial on nodes 0..length-1 at offsets x."""
    # W[j] = prod over m != j of (x - m) / (j - m), multiplied and divided in
    # that order, m ascending: every j at once, one node m at a time
    W = np.ones((length,) + x.shape)
    D = _denominators(length, x.ndim)
    for m in range(length):
        d = x - m
        for j in (slice(0, m), slice(m + 1, length)):
            W[j] *= d
            W[j] /= D[m, j]
    return np.moveaxis(W, 0, -1)


def unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a): the sorted distinct values of a, flattened. numpy 2.4's
    np.unique (and np.union1d) imports numpy.ma, 11-12 ms of a fresh process
    on a 2-core x86-64 host, which this sort and compare do not pay."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


class SegmentedInterp:
    """Local Lagrange interpolation in theta on uniform nodes, segment-aware.

    Segments are maximal node ranges not crossed by any split angle; stencils
    never straddle a split, so jumps marked by splits do not ring into the
    neighbouring smooth regions. The map data -> interpolant is linear.
    """

    def __init__(self, theta: np.ndarray, h: float, split_thetas=(),
                 degree: int = INTERP_DEGREE):
        self.theta = theta
        self.h = h
        self.n = len(theta)
        self.degree = degree
        # node j belongs to the segment left of a split when theta_j <= split;
        # a split in the same cell as the previous one opens no segment, so
        # only the splits that do are kept and segment_of counts those
        bounds, cuts = [0], []
        for t in sorted(t for t in split_thetas if theta[0] < t < theta[-1]):
            j = int(np.searchsorted(theta, t * (1 + 1e-15), side="right"))
            if bounds[-1] < j < self.n:
                bounds.append(j)
                cuts.append(t)
        bounds.append(self.n)
        self.splits = np.asarray(cuts)
        self.bounds = np.asarray(bounds)

    def segment_of(self, thq: np.ndarray) -> np.ndarray:
        """Segment index per query; a query exactly on a split counts as left."""
        if len(self.splits) == 0:
            return np.zeros(np.shape(thq), dtype=int)
        return np.searchsorted(self.splits, thq, side="left")

    def plan(self, thq: np.ndarray, seg: np.ndarray | None = None):
        """Stencil node indices and weights for query angles thq (flat array),
        padded to degree + 1 entries with zero weights."""
        if seg is None:
            seg = self.segment_of(thq)
        pos = thq / self.h                   # node i (0-based) sits at (i+1)h
        # the stencil around the nearest node, kept within its segment
        lo = self.bounds[seg]
        hi = self.bounds[seg + 1]
        L = np.minimum(self.degree + 1, hi - lo)
        j = np.clip(np.rint(pos).astype(int) - 1, 0, self.n - 1)
        start = np.clip(j - (L - 1) // 2, lo, np.maximum(hi - L, lo))
        x = pos - (start + 1)
        width = self.degree + 1
        idx_out = np.zeros(x.shape + (width,), dtype=int)
        w_out = np.zeros(x.shape + (width,))
        if np.diff(self.bounds).min() >= width:
            # every segment holds a whole stencil, so every L is width: one
            # weight call, with no masked copies (the weights stay contiguous)
            np.add(start[:, None], np.arange(width), out=idx_out)
            w_out[:] = lagrange_weights(x, width)
            return idx_out, w_out
        for Lv in unique(L):
            m = L == Lv
            idx = start[m][:, None] + np.arange(width)[None, :]
            idx_out[m] = np.minimum(idx, self.n - 1)
            w_out[m, :int(Lv)] = lagrange_weights(x[m], int(Lv))
        return idx_out, w_out

    def eval(self, values: np.ndarray, u) -> np.ndarray:
        """Evaluate the interpolant at radii u (polynomial extension beyond ends)."""
        u = np.asarray(u, dtype=float)
        thq = np.arctan(u)
        idx, w = self.plan(thq.ravel())
        out = (values[idx] * w).sum(axis=-1)
        return out.reshape(u.shape)


def scaled_kernel_power(x: np.ndarray, k: int, scale) -> np.ndarray:
    """x <- scale * x^{k/2-1} in place, with no temporaries (scale broadcasts);
    the small integer k are short-circuited."""
    if k == 1:
        np.sqrt(x, out=x)
        return np.divide(scale, x, out=x)
    if k == 3:
        np.sqrt(x, out=x)
    elif k != 4:
        np.power(x, k / 2.0 - 1.0, out=x)
    return np.multiply(x, scale, out=x)
