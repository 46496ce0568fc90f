"""Split corrections of a dense M0 held in the operator cache, the cache's
counters, and its behaviour when a build fails."""
import math
import re
import sys
import threading

import numpy as np
import pytest

import kplane as K
from kplane import verify

GRIDS = {"half64": lambda: K.make_halfline_grid(64), "trunc64": lambda: K.make_grid(64, 8.0)}
SPLITS = {"two": (2.0, 7.9), "four": (0.4, 1.7, 1.7001, 6.0), "beyond": None}


def _operator(T, grid, k, adjoint):
    if adjoint:
        return T._adjoint_matrix(grid, k, k + 2), k + 2
    return T._forward_matrix(grid, k), 0


@pytest.mark.parametrize("splits", sorted(SPLITS))
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_cached_apply_bitwise_equal_to_uncached(fresh_cache, k, adjoint, grid, splits):
    T = fresh_cache
    grid = GRIDS[grid]()
    splits = SPLITS[splits] or (2.0 * grid.r_max,)
    M, d = _operator(T, grid, k, adjoint)
    v = np.random.default_rng(3).uniform(0.5, 1.5, grid.n)
    # uncached: M0 f, then every block of a fresh correction in order
    ref = T._apply(M, K.RadialProfile(grid, v), k, d, adjoint)
    for row0, cols, C in T._split_correction(grid, k, d, splits, adjoint):
        ref[row0:row0 + C.shape[0]] += C @ v[cols]
    f = K.RadialProfile(grid, v, splits=splits)
    first = T._apply(M, f, k, d, adjoint)
    again = T._apply(M, f, k, d, adjoint)
    assert np.array_equal(first, ref) and np.array_equal(again, ref)
    info = T.cache_info()["split"]
    built = 0 if splits[0] > grid.r_max else 1
    assert (info["entries"], info["builds"], info["hits"]) == (built, built, built)


def test_split_outside_in_theta_is_dropped(fresh_cache):
    # on make_grid(64, 4.0), atan(4.0) rounds above the last angle while 4.0
    # lies below the last node: the split is outside the grid by the theta
    # test, so it cuts no cell and keys no correction of its own
    T = fresh_cache
    grid = K.make_grid(64, 4.0)
    assert math.atan(4.0) >= grid.theta_nodes[-1] and 4.0 < grid.nodes[-1]
    near_end = 0.5 * (grid.nodes[-3] + grid.nodes[-2])
    M = T._forward_matrix(grid, 1)
    v = np.random.default_rng(4).uniform(0.5, 1.5, grid.n)
    outs = [T._apply(M, K.RadialProfile(grid, v, splits=splits), 1, 0, False)
            for splits in ((near_end,), (near_end, 4.0))]
    assert np.array_equal(*outs)
    info = T.cache_info()["split"]
    assert (info["builds"], info["hits"]) == (1, 1)


def test_interaction_suite_builds_each_correction_once(fresh_cache):
    T = fresh_cache
    assert all(rep.passed for rep in verify.run_suite("interaction", seed=5))
    info = T.cache_info()["split"]
    # nothing was evicted, so a key built twice would show as builds > entries
    assert info["evictions"] == 0
    assert info["builds"] == info["entries"] > 0
    # each far profile is transformed once per (pair, delta) for every m, so
    # no correction is read twice
    assert info["hits"] == 0
    assert info["bytes"] == sum(T._nbytes(v) for key, v in T._MATRIX_CACHE.items()
                                if key[0] == "split")


def test_concurrent_split_applies_build_once(fresh_cache):
    T = fresh_cache
    params = K.make_params(1, 3)
    grid = K.make_halfline_grid(1024)
    T._forward_matrix(grid, 1)
    f = K.RadialProfile(grid, K.extremizer_profile(params, 1.0, grid).values,
                        splits=(0.7, 3.0, 3.01))
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        barrier.wait(timeout=30)
        results[i] = K.apply_T(params, f).values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    info = T.cache_info()["split"]
    assert (info["builds"], info["hits"]) == (1, 3)
    assert all(np.array_equal(v, results[0]) for v in results)


def test_split_entries_share_the_budget_in_lru_order(fresh_cache, monkeypatch):
    T = fresh_cache
    grid = K.make_halfline_grid(100)
    params = K.make_params(1, 3)
    values = K.extremizer_profile(params, 1.0, grid).values
    far, near = (K.RadialProfile(grid, values, splits=(s,)) for s in (2.0, 0.5))
    reserve = [T._correction_bytes(grid.n, T._split_clusters(grid, f.splits, False)[1], False)
               for f in (far, near)]
    budget = T._nbytes(T._assemble_forward(grid, 1)) + max(reserve)
    monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", budget)

    def held():
        return [(key[0], key[4] if key[0] == "split" else None) for key in T._MATRIX_CACHE]

    K.apply_T(params, far)
    assert held() == [("fwd", None), ("split", far.splits)]
    K.apply_T(params, near)      # M0 is read first, so the far correction is the oldest
    assert held() == [("fwd", None), ("split", near.splits)]
    K.apply_T(params, far)
    assert held() == [("fwd", None), ("split", far.splits)]
    info = T.cache_info()
    assert info["split"]["evictions"] == 2 and info["fwd"]["evictions"] == 0
    assert info["fwd"]["bytes"] + info["split"]["bytes"] <= budget


@pytest.mark.parametrize("adjoint", [False, True])
def test_build_reserves_at_least_what_it_holds(adjoint):
    T = K.transform
    rng = np.random.default_rng(11)
    for grid in (K.make_halfline_grid(64), K.make_grid(40, 2.0)):
        for trial in range(40):
            m = int(rng.integers(1, 5))
            if trial % 2:
                splits = tuple(rng.uniform(0.0, 1.1 * grid.r_max, m))
            else:
                splits = tuple(rng.choice(grid.nodes, m))
            clusters = T._split_clusters(grid, splits, adjoint)[1]
            blocks = T._split_correction(grid, 1, 3 if adjoint else 0, splits, adjoint)
            assert T._nbytes(blocks) <= T._correction_bytes(grid.n, clusters, adjoint)


class TestFailedBuild:
    def test_refused_build_releases_its_lock_and_retries(self, fresh_cache, monkeypatch):
        T = fresh_cache
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", 8 * 100 * 100)
        params = K.make_params(1, 3)
        f = K.extremizer_profile(params, 1.0, K.make_halfline_grid(101))
        with pytest.raises(K.ConfigurationError, match="budget"):
            K.apply_T(params, f)
        assert T._BUILD_LOCKS == {}
        assert T.cache_info()["fwd"]["builds"] == 0
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", 8 * 101 * 101)
        assert K.apply_T(params, f).values.shape == (101,)
        assert T.cache_info()["fwd"]["builds"] == 1
        assert T._BUILD_LOCKS == {}

    @pytest.mark.parametrize("n,budget", [(16385, 2 * 1024 ** 3), (513, 8 * 512 * 512),
                                          (101, 8 * 100 * 100)])
    def test_refusal_sizes_never_read_equal(self, monkeypatch, n, budget):
        T = K.transform
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", budget)
        with pytest.raises(K.ConfigurationError) as err:
            T._dense(n)
        need, held = re.findall(r"([\d.]+) MiB", str(err.value))
        assert float(need) > float(held)
