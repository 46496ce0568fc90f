"""Split applies, which re-integrate the cells a split changes and cache
nothing beside M0, the cache's counters, and its behaviour when a build
fails."""
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


def _operator(T, grid, k, adjoint, cached):
    d = k + 2 if adjoint else 0
    return (T._operator if cached else T._RowBlocks)(grid, k, d, adjoint)


@pytest.mark.parametrize("splits", sorted(SPLITS))
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_cached_apply_bitwise_equal_to_uncached(fresh_cache, k, adjoint, grid, splits):
    # a split apply through the cached M0, first and again, against one
    # through an M0 assembled outside the cache; the splits add no entry
    T = fresh_cache
    grid = GRIDS[grid]()
    splits = SPLITS[splits] or (2.0 * grid.r_max,)
    v = np.random.default_rng(3).uniform(0.5, 1.5, grid.n)
    f = K.RadialProfile(grid, v, splits=splits)
    ref = _operator(T, grid, k, adjoint, cached=False).apply(f)
    first = _operator(T, grid, k, adjoint, cached=True).apply(f)
    again = _operator(T, grid, k, adjoint, cached=True).apply(f)
    assert np.array_equal(first, ref) and np.array_equal(again, ref)
    plain = _operator(T, grid, k, adjoint, cached=True).apply(K.RadialProfile(grid, v))
    assert np.array_equal(plain, ref) == (splits[0] > grid.r_max)
    info = T.cache_info()
    kind = "adj" if adjoint else "fwd"
    assert set(info) == {"fwd", "adj"} and len(T._MATRIX_CACHE) == 1
    assert (info[kind]["entries"], info[kind]["builds"], info[kind]["hits"]) == (1, 1, 2)


@pytest.mark.parametrize("adjoint", [False, True])
def test_build_reserves_at_least_what_it_holds(adjoint):
    # the bytes the cache reserves before a dense M0 is built bound what the
    # built M0 holds, on grids whose rows do not fill a whole row block
    T = K.transform
    for grid in (K.make_halfline_grid(64), K.make_grid(40, 2.0), K.make_halfline_grid(300)):
        for k in (1, 3):
            M = T._RowBlocks(grid, k, k + 2 if adjoint else 0, adjoint)
            assert 0 < M.nbytes <= T._operator_bytes(grid.n, k)


def test_split_outside_in_theta_is_dropped(fresh_cache):
    # on make_grid(64, 4.0), atan(4.0) rounds above the last angle while 4.0
    # lies below the last node: the split is outside the grid by the theta
    # test, so it cuts no cell, as one beyond the last node cuts none
    T = fresh_cache
    grid = K.make_grid(64, 4.0)
    assert math.atan(4.0) >= grid.theta_nodes[-1] and 4.0 < grid.nodes[-1]
    near_end = 0.5 * (grid.nodes[-3] + grid.nodes[-2])
    M = T._operator(grid, 1, 0, False)
    v = np.random.default_rng(4).uniform(0.5, 1.5, grid.n)
    outs = [M.apply(K.RadialProfile(grid, v, splits=splits))
            for splits in ((near_end,), (near_end, 4.0), (near_end, 8.0))]
    assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])
    assert not np.array_equal(outs[0], M.apply(K.RadialProfile(grid, v)))


@pytest.mark.parametrize("suite", ["interaction", "truncation"])
def test_suites_cache_only_the_operators(fresh_cache, monkeypatch, suite):
    # both suites apply split profiles (dense for k = 1, prefix sums for
    # k = 2), and those splits leave nothing in the cache beside each M0
    T = fresh_cache
    ranges = []
    split_quadratures = T._split_quadratures

    def counting(*args):
        for c0, c1, q in split_quadratures(*args):
            ranges.append((c0, c1))
            yield c0, c1, q

    monkeypatch.setattr(T, "_split_quadratures", counting)
    assert all(rep.passed for rep in verify.run_suite(suite, seed=5))
    assert ranges
    assert {key[0] for key in T._MATRIX_CACHE} <= {"fwd", "adj"}
    info = T.cache_info()
    assert set(info) == {"fwd", "adj"}
    assert info["fwd"]["entries"] > 0
    assert info["fwd"]["bytes"] + info["adj"]["bytes"] == sum(v.nbytes for v in
                                                             T._MATRIX_CACHE.values())


def _counting_quadrature(monkeypatch, T):
    # (c0, c1, splits) of every _quadrature call from here on
    calls, quadrature = [], T._quadrature

    def counting(grid, k, d, interp, c0, c1, splits_r, adjoint):
        calls.append((c0, c1, tuple(splits_r)))
        return quadrature(grid, k, d, interp, c0, c1, splits_r, adjoint)

    monkeypatch.setattr(T, "_quadrature", counting)
    return calls


@pytest.mark.parametrize("grid", ["half300", "trunc200"])
@pytest.mark.parametrize("adjoint", [False, True])
def test_k2_split_apply_plans_each_range_once(monkeypatch, adjoint, grid):
    # the prefix sums hold each range's plain per-cell and per-row sums, so
    # a split apply plans the range with its splits and nothing else
    T = K.transform
    grid = {"half300": lambda: K.make_halfline_grid(300),
            "trunc200": lambda: K.make_grid(200, 8.0)}[grid]()
    splits = SPLITS["four"]
    op = T._PrefixSums(grid, 4 if adjoint else 0, adjoint)
    kept, clusters = T._split_clusters(grid, splits, adjoint)
    assert len(clusters) > 1
    calls = _counting_quadrature(monkeypatch, T)
    op.apply(K.RadialProfile(grid, np.ones(grid.n), splits=splits))
    assert calls == [(c0, c1, kept) for c0, c1 in clusters]


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("k", [1, 3])
def test_dense_split_apply_integrates_each_range_once(monkeypatch, k, adjoint):
    # a range's split quadrature and its plain one, contracted against -f,
    # are integrated together, so M0 f adds each range by one _integrate
    T = K.transform
    grid = K.make_halfline_grid(300)
    splits = SPLITS["four"]
    op = T._RowBlocks(grid, k, k + 2 if adjoint else 0, adjoint)
    kept, clusters = T._split_clusters(grid, splits, adjoint)
    assert len(clusters) > 1
    f = K.RadialProfile(grid, np.random.default_rng(5).uniform(0.5, 1.5, grid.n), splits=splits)
    want = op.apply(f)
    calls, integrate = [], T._integrate

    def counting(grid, k, quads, *args):
        cells = np.concatenate([q["cell"] for q in quads])
        calls.append((cells.min(), cells.max(), len(quads)))
        return integrate(grid, k, quads, *args)

    monkeypatch.setattr(T, "_integrate", counting)
    assert np.array_equal(op.apply(f), want)
    assert calls == [(c0, c1, 2) for c0, c1 in clusters]


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("k", [1, 3])
def test_one_shot_plans_its_blocks_with_the_splits(fresh_cache, monkeypatch, k, grid):
    # no M0 is formed, so no plain quadrature is subtracted: every block of
    # the span is planned once, with f's splits inside the grid, and no
    # split range is planned plain
    T = fresh_cache
    monkeypatch.setattr(T, "_BUILD_CELLS", 32)
    grid = GRIDS[grid]()
    splits = SPLITS["four"]
    kept, clusters = T._split_clusters(grid, splits, adjoint=False)
    assert len(clusters) > 1
    calls = _counting_quadrature(monkeypatch, T)
    f = K.RadialProfile(grid, np.ones(grid.n), splits=splits)
    T._apply_T_once(K.make_params(k, k + 2), f)
    last = T._cells(grid, False) - 1
    assert calls == [(b0, min(b0 + 31, last), kept) for b0 in range(0, last + 1, 32)]
    assert T.cache_info()["fwd"]["builds"] == 0


def test_concurrent_split_applies_build_once(fresh_cache):
    # four cold callers with one split profile: one builds M0, the others
    # wait for it, and every split apply gives the same values bitwise
    T = fresh_cache
    params = K.make_params(1, 3)
    grid = K.make_halfline_grid(1024)
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
    info = T.cache_info()["fwd"]
    assert (info["entries"], info["builds"], info["hits"]) == (1, 1, 3)
    assert all(np.array_equal(v, results[0]) for v in results)


class TestFailedBuild:
    def test_refused_build_releases_its_lock_and_retries(self, fresh_cache, monkeypatch):
        T = fresh_cache
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", 8 * 100 * 100)
        params = K.make_params(1, 3)
        f = K.extremizer_profile(params, 1.0, K.make_halfline_grid(101))
        with pytest.raises(K.ConfigurationError, match="budget"):
            K.apply_T(params, f)
        assert not T._BUILD_LOCK.locked()
        assert T.cache_info()["fwd"]["builds"] == 0
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", 8 * 101 * 101)
        assert K.apply_T(params, f).values.shape == (101,)
        assert T.cache_info()["fwd"]["builds"] == 1
        assert not T._BUILD_LOCK.locked()

    @pytest.mark.parametrize("n,budget", [(16385, 2 * 1024 ** 3), (513, 8 * 512 * 512),
                                          (101, 8 * 100 * 100)])
    def test_refusal_sizes_never_read_equal(self, monkeypatch, n, budget):
        T = K.transform
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", budget)
        with pytest.raises(K.ConfigurationError) as err:
            T._dense(n)
        need, held = re.findall(r"([\d.]+) MiB", str(err.value))
        assert float(need) > float(held)
