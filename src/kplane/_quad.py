"""Internal quadrature and interpolation machinery for tan-substitution grids.

Everything here works in the theta coordinate (r = tan(theta), theta uniform),
where profiles with critical power-law decay become smooth bounded functions.
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

# Closed Newton-Cotes coefficient tables (panel of `size` intervals, size+1 nodes).
_NC_COEF = {
    1: (1, 1),
    2: (1, 4, 1),
    3: (1, 3, 3, 1),
    4: (7, 32, 12, 32, 7),
    5: (19, 75, 50, 50, 75, 19),
    6: (41, 216, 27, 272, 27, 216, 41),
}
_NC_DEN = {1: 2, 2: 6, 3: 8, 4: 90, 5: 288, 6: 840}

#: local Lagrange interpolation degree used by the transform machinery
INTERP_DEGREE = 7

GL_CELL = leggauss(6)    # per-cell rule for kernel product integration
GL_EDGE = leggauss(8)    # singular-edge cells (after desingularizing substitution)
GL_TAIL = leggauss(16)   # tail region beyond the last node
# per-interval mass of an interpolant (dilation median): 5-point Gauss-Legendre
# as 16-digit decimals, which differ from leggauss(5) in the weights' last bit
GL_MASS = (np.array([-0.9061798459386640, -0.5384693101056831, 0.0,
                     0.5384693101056831, 0.9061798459386640]),
           np.array([0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
                     0.4786286704993665, 0.2369268850561891]))


def composite_weights(n: int, h: float) -> np.ndarray:
    """Quadrature weights in theta for int_0^{n h} g(theta) dtheta on nodes i*h.

    Composite Newton-Cotes 6 panels over [theta_1, theta_n]; a shorter leading
    panel absorbs (n-1) mod 6; the open strip [0, theta_1] is integrated by
    linear extrapolation from the first two nodes. All weights stay positive.
    """
    w = np.zeros(n)
    w[0] += 1.5 * h
    w[1] += -0.5 * h
    i = 0
    rem = (n - 1) % 6
    if rem:
        c = np.asarray(_NC_COEF[rem], dtype=float) * (rem / _NC_DEN[rem]) * h
        w[i:i + rem + 1] += c
        i += rem
    c6 = np.asarray(_NC_COEF[6], dtype=float) * (6.0 / _NC_DEN[6]) * h
    while i < n - 1:
        w[i:i + 7] += c6
        i += 6
    return w


def lagrange_weights(x: np.ndarray, length: int) -> np.ndarray:
    """Cardinal weights of the Lagrange polynomial on nodes 0..length-1 at offsets x."""
    out = np.empty(x.shape + (length,))
    for j in range(length):
        w = np.ones_like(x)
        for m in range(length):
            if m != j:
                w = w * (x - m) / (j - m)
        out[..., j] = w
    return out


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
        """Stencil node indices and weights for query angles thq (flat array)."""
        if seg is None:
            seg = self.segment_of(thq)
        lo = self.bounds[seg]
        hi = self.bounds[seg + 1]
        size = hi - lo
        L = np.minimum(self.degree + 1, size)
        width = self.degree + 1
        idx_out = np.zeros(thq.shape + (width,), dtype=int)
        w_out = np.zeros(thq.shape + (width,))
        # nearest node (0-based) to anchor the stencil
        j = np.clip(np.rint(thq / self.h).astype(int) - 1, 0, self.n - 1)
        start = np.clip(j - (L - 1) // 2, lo, np.maximum(hi - L, lo))
        for Lv in np.unique(L):
            m = L == Lv
            if Lv <= 0:
                continue
            x = thq[m] / self.h - (start[m] + 1)   # node i (0-based) sits at (i+1)h
            w = lagrange_weights(x, int(Lv))
            idx = start[m][:, None] + np.arange(width)[None, :]
            idx = np.minimum(idx, self.n - 1)
            idx_out[m] = idx
            w_out[m, :int(Lv)] = w
        return idx_out, w_out

    def eval(self, values: np.ndarray, u) -> np.ndarray:
        """Evaluate the interpolant at radii u (polynomial extension beyond ends)."""
        u = np.asarray(u, dtype=float)
        thq = np.arctan(u)
        idx, w = self.plan(thq.ravel())
        out = (values[idx] * w).sum(axis=-1)
        return out.reshape(u.shape)


def tail_basis(u2, k: int) -> np.ndarray:
    """The tail model's basis cos^{k+1}, cos^{k+3}, cos^{k+5} at radii u
    (cos = (1+u^2)^{-1/2}), given u^2; stacked along a new last axis."""
    return np.stack([(1.0 + u2) ** (-(k + 1 + 2 * j) / 2.0) for j in (0, 1, 2)], axis=-1)


def tail_power_fit(theta: np.ndarray, k: int) -> np.ndarray:
    """3x3 matrix mapping the node values at the last three angles of `theta`
    to the coefficients of tail_basis: the natural decay basis of p-critical
    tails."""
    c3 = np.cos(theta[-3:])
    a = np.stack([c3 ** (k + 1), c3 ** (k + 3), c3 ** (k + 5)], axis=1)
    return np.linalg.inv(a)


def strip_extrapolation_integral(theta3: np.ndarray, g_last3: np.ndarray) -> float:
    """Integral over [theta_n, pi/2] of the quadratic-in-cos(theta) fit through
    the last three integrand values. Used for norm tails on half-line grids."""
    c3 = np.cos(theta3)
    m = np.vstack([np.ones(3), c3, c3 * c3]).T
    a, b, c = np.linalg.solve(m, g_last3)
    t0, t1 = float(theta3[-1]), np.pi / 2
    i0 = t1 - t0
    i1 = np.sin(t1) - np.sin(t0)
    i2 = ((t1 + np.sin(t1) * np.cos(t1)) - (t0 + np.sin(t0) * np.cos(t0))) / 2
    return float(a * i0 + b * i1 + c * i2)


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
