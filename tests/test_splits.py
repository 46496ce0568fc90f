"""Profiles with split radii: the plain operator plus the local split
correction must act like a build that knows the splits."""
import math
from collections import Counter

import numpy as np
import pytest

import kplane as K
from kplane import verify
from kplane.core import weighted_signed_integral
from kplane.extremal import _constant_B_cached

from conftest import smooth_decaying

C_K = {1: math.pi / 2, 2: 1.0, 3: math.pi / 4}


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _split_cases(grid, rng):
    """Split sets that leave every segment at least INTERP_DEGREE + 1 nodes,
    so stencils keep their full degree and a smooth profile cannot tell."""
    th = grid.theta_nodes
    cells = 12 + 12 * rng.choice(np.arange((grid.n - 24) // 12), size=5, replace=False)
    return {
        "same-cell pair": (0.5, 0.5 + 1e-7, 3.0),
        "same-cell pair last": (0.716, 0.9999999999999999, 1.0),
        "below r0 and beyond r_max": (0.5 * grid.nodes[0], 2.0 * grid.r_max),
        "arbitrary": tuple(np.tan(th[cells] + rng.uniform(0.0, grid.h, size=cells.size))),
    }


@pytest.mark.parametrize("grid_name", ["half1024", "trunc1024"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_smooth_profile_ignores_splits(grids, grid_name, k):
    grid = grids["half1024"] if grid_name == "half1024" else K.make_grid(1024, 50.0)
    params = K.make_params(k, k + 2)
    rng = np.random.default_rng(k)
    f = smooth_decaying(params, grid, rng)
    tf = K.apply_T(params, f).values
    tsf = K.apply_T_adjoint(params, f).values
    for name, splits in _split_cases(grid, rng).items():
        fs = K.RadialProfile(grid, f.values, splits=splits)
        assert _rel(K.apply_T(params, fs).values, tf) < 1e-10, name
        assert _rel(K.apply_T_adjoint(params, fs).values, tsf) < 1e-10, name


# A split in the first or last cell leaves one node on its outer side, so the
# interpolant there is the constant f(r_0) or f(r_{n-1}): the error is that of
# a constant over the end cell, not of the local correction, and equals what a
# build that knows the splits gives. Bounds (forward, adjoint): about 5 times
# the largest error measured over k = 1..3 at n = 1024.
END_CELL_BOUNDS = {"first": (1e-9, 2e-6), "last": (1.5e-3, 1e-6)}


@pytest.mark.parametrize("end", sorted(END_CELL_BOUNDS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_split_in_end_cell(grids, k, end):
    grid = grids["half1024"]
    r = grid.nodes
    params = K.make_params(k, k + 2)
    if end == "first":
        f = K.RadialProfile(grid, np.exp(-r ** 2 / 4))
        split = 0.5 * (r[0] + r[1])
    else:
        f = smooth_decaying(params, grid, np.random.default_rng(k))
        split = 0.5 * (r[-2] + r[-1])
    fs = K.RadialProfile(grid, f.values, splits=(split,))
    fwd_bound, adj_bound = END_CELL_BOUNDS[end]
    assert _rel(K.apply_T(params, fs).values, K.apply_T(params, f).values) < fwd_bound
    assert _rel(K.apply_T_adjoint(params, fs).values,
                K.apply_T_adjoint(params, f).values) < adj_bound


@pytest.mark.parametrize("k", [1, 2, 3])
def test_same_cell_pair_before_a_split(grids, k):
    # a pair in one cell opens one segment, not two; the cells between the
    # pair and the next split must keep their own segment's stencil
    grid = grids["half1024"]
    params = K.make_params(k, k + 1)
    h = K.extremizer_profile(params, 1.0, grid)
    hs = K.RadialProfile(grid, h.values, splits=(2.5, 2.5000001, 9.0))
    exact = C_K[k] * (1 + grid.nodes ** 2) ** (-0.5)
    assert np.abs(K.apply_T(params, hs).values - exact).max() < 1e-9


# error of T on the sampled indicator against the closed form, as reached by
# the full split-aware build before the local correction replaced it (the
# floor 1e-14 stands for roundoff)
INDICATOR_GATES = {
    (1, "ball"): 5.1e-12, (2, "ball"): 1e-14, (3, "ball"): 1e-14,
    (1, "two"): 2.7e-2, (2, "two"): 4.0e-3, (3, "two"): 3.7e-3,
}
INDICATOR_SETS = {"ball": ((0.0, 1.0),), "two": ((0.5, 1.5), (3.0, 4.0))}


@pytest.mark.parametrize("k,which", sorted(INDICATOR_GATES))
def test_sampled_indicator_matches_closed_form(grids, k, which):
    grid = grids["half1024"]
    params = K.make_params(k, k + 2)
    F = K.IntervalSet(INDICATOR_SETS[which])
    ind = K.indicator_profile(grid, F)
    sampled = K.RadialProfile(grid, ind.values, splits=ind.splits)
    exact = K.apply_T_indicator(params, F, grid).values
    assert _rel(K.apply_T(params, sampled).values, exact) <= INDICATOR_GATES[(k, which)]


@pytest.mark.parametrize("k,d", [(1, 3), (2, 4)])
def test_adjoint_identity_with_splits(grids, k, d):
    params = K.make_params(k, d)
    g = grids["half2048"]
    rng = np.random.default_rng(5)
    f = smooth_decaying(params, g, rng, decay_boost=1)
    gg = smooth_decaying(params, g, rng, decay_boost=1)
    f = K.RadialProfile(g, f.values, splits=(0.3, 0.3 + 1e-9, 2.0, 7.5))
    gg = K.RadialProfile(g, gg.values, splits=(0.9, 4.0, 4.05))
    lhs = weighted_signed_integral(K.apply_T(params, f).values * gg.values, g, params.a_target)
    rhs = weighted_signed_integral(f.values * K.apply_T_adjoint(params, gg).values, g,
                                   params.a_domain)
    assert abs(lhs - rhs) / abs(lhs) < 1e-8


@pytest.mark.parametrize("suite", ["interaction", "truncation"])
def test_suite_builds_one_operator_per_grid_and_k(fresh_cache, monkeypatch, suite):
    T = fresh_cache
    _constant_B_cached.cache_clear()
    requested, built = set(), Counter()
    operator, cached = T._operator, T._cached

    def counting_operator(grid, k, d, adjoint):
        if not adjoint:
            requested.add((grid.fingerprint(), k))
        return operator(grid, k, d, adjoint)

    def counting_cached(key, build, need):
        def counting_build():
            if key[0] == "fwd":
                built[key[1:]] += 1
            return build()
        return cached(key, counting_build, need)

    monkeypatch.setattr(T, "_operator", counting_operator)
    monkeypatch.setattr(T, "_cached", counting_cached)
    assert all(rep.passed for rep in verify.run_suite(suite, seed=5))
    assert requested
    assert built == Counter(dict.fromkeys(requested, 1))
