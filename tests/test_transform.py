import math

import numpy as np
import pytest

import kplane as K
from kplane._quad import SegmentedInterp
from kplane.transform import pairing

from conftest import smooth_decaying

# T[(1+u^2)^{-(k+1)/2}](r) = c_k (1+r^2)^{-1/2} with c_k = B(k/2,1/2)/2
C_K = {1: math.pi / 2, 2: 1.0, 3: math.pi / 4}


class TestForwardClosedForms:
    @pytest.mark.parametrize("k,d", [(1, 3), (2, 4), (3, 4)])
    def test_extremizer_transform(self, grids, k, d):
        params = K.make_params(k, d)
        g = grids["half2048"]
        h = K.extremizer_profile(params, 1.0, g)
        th = K.apply_T(params, h)
        exact = C_K[k] * (1 + g.nodes ** 2) ** (-0.5)
        assert np.abs(th.values - exact).max() < 1e-9
        assert not th.meta["tail_warning"]

    def test_zero_maps_to_zero(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        z = K.RadialProfile(g, np.zeros(g.n))
        assert np.all(K.apply_T(params, z).values == 0.0)


class TestIndicatorTransform:
    @pytest.mark.parametrize("k,a", [(1, 1.0), (1, 2.5), (2, 1.0), (2, 3.0), (3, 2.0)])
    def test_ball_closed_form(self, grids, k, a):
        params = K.make_params(k, k + 2)
        g = grids["trunc50"]
        tf = K.apply_T_indicator(params, K.IntervalSet(((0.0, a),)), g)
        exact = np.maximum(a * a - g.nodes ** 2, 0.0) ** (k / 2) / k
        assert np.abs(tf.values - exact).max() < 1e-13

    def test_vanishes_beyond_support(self, grids):
        params = K.make_params(2, 3)
        tf = K.apply_T_indicator(params, K.IntervalSet(((1.0, 2.0),)), grids["trunc50"])
        assert np.all(tf.values[grids["trunc50"].nodes > 2.0] == 0.0)

    def test_apply_T_uses_exact_path(self, grids):
        params = K.make_params(1, 3)
        f = K.indicator_profile(grids["trunc50"], K.IntervalSet(((0.0, 2.0),)), 1.5)
        tf = K.apply_T(params, f)
        exact = 1.5 * np.sqrt(np.maximum(4.0 - grids["trunc50"].nodes ** 2, 0.0))
        assert np.abs(tf.values - exact).max() < 1e-12


class TestOperatorProperties:
    @pytest.mark.parametrize("k,d", [(1, 3), (2, 3)])
    def test_linearity(self, grids, k, d):
        params = K.make_params(k, d)
        g = grids["half1024"]
        rng = np.random.default_rng(4)
        f1 = smooth_decaying(params, g, rng)
        f2 = smooth_decaying(params, g, rng)
        a, b = 1.7, 0.6
        combo = K.RadialProfile(g, a * f1.values + b * f2.values)
        lhs = K.apply_T(params, combo).values
        rhs = a * K.apply_T(params, f1).values + b * K.apply_T(params, f2).values
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_positivity_even_on_rough_data(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        rng = np.random.default_rng(5)
        vals = rng.uniform(0, 1, g.n) * (g.nodes < 5.0)
        tf = K.apply_T(params, K.RadialProfile(g, vals))
        assert (tf.values >= 0.0).all()

    def test_monotonicity(self, grids):
        params = K.make_params(2, 3)
        g = grids["half1024"]
        rng = np.random.default_rng(6)
        f = smooth_decaying(params, g, rng)
        bump = smooth_decaying(params, g, rng, n_terms=1)
        fg = K.RadialProfile(g, f.values + bump.values)
        tf = K.apply_T(params, f).values
        tg = K.apply_T(params, fg).values
        scale = np.abs(tg).max()
        assert (tg - tf).min() >= -1e-9 * scale

    @pytest.mark.parametrize("k,d", [(1, 3), (2, 4)])
    def test_dilation_covariance(self, grids, k, d):
        # T f_lam(r) = lam^{d/p - k} (T f)(lam r), checked against the
        # closed form of the extremizer transform
        params = K.make_params(k, d)
        g = grids["half2048"]
        for lam in (0.5, 2.0):
            h_lam = K.extremizer_profile(params, lam, g)
            th = K.apply_T(params, h_lam).values
            expected = (lam ** (params.scale_exp_f - k)
                        * C_K[k] * (1 + (lam * g.nodes) ** 2) ** (-0.5))
            mask = g.nodes < g.r_max / max(lam, 1.0)
            rel = np.abs(th - expected)[mask] / np.abs(expected)[mask].max()
            assert rel.max() < 1e-8


class TestAdjoint:
    def test_zero(self, grids):
        params = K.make_params(2, 3)
        g = grids["half1024"]
        out = K.apply_T_adjoint(params, K.RadialProfile(g, np.zeros(g.n)))
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("k,d", [(1, 3), (2, 3), (2, 4)])
    def test_adjoint_identity(self, grids, k, d):
        # profiles decay one power faster than critical so both pairings have
        # bounded theta-densities
        params = K.make_params(k, d)
        g = grids["half4096"]
        rng = np.random.default_rng(11)
        f = smooth_decaying(params, g, rng, decay_boost=1)
        gg = smooth_decaying(params, g, rng, decay_boost=1)
        tf = K.apply_T(params, f)
        tsg = K.apply_T_adjoint(params, gg)
        lhs = pairing(tf.values, gg.values, g, params.a_target)
        rhs = pairing(f.values, tsg.values, g, params.a_domain)
        assert abs(lhs - rhs) / abs(lhs) < 1e-8

    def test_indicator_closed_form(self, grids):
        # k=2, d=3, g = 1_{[0,1]}: T* g(u) = min(u,1)/u
        params = K.make_params(2, 3)
        g = grids["half1024"]
        gi = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        out = K.apply_T_adjoint(params, gi)
        exact = np.minimum(g.nodes, 1.0) / g.nodes
        assert np.abs(out.values - exact).max() < 1e-12


class TestDiscretized:
    def test_matches_indicator_transform(self):
        # away from the jump cell: a sampled representation cannot resolve
        # the transform pointwise inside the cell containing the cut
        params = K.make_params(2, 3)
        op = K.discretize_T_R(params, 2.0, 1024)
        f = K.indicator_profile(op.grid, K.IntervalSet(((0.0, 1.0),)))
        got = op.apply(f.values)
        exact = np.maximum(1.0 - op.grid.nodes ** 2, 0.0) / 2
        cut_cell = np.searchsorted(op.grid.nodes, 1.0)
        away = np.abs(np.arange(op.grid.n) - cut_cell) > 3
        assert np.abs(got - exact)[away].max() < 1e-6

    def test_entries_nonnegative(self):
        params = K.make_params(1, 3)
        op = K.discretize_T_R(params, 1.0, 128)
        assert (op.entries >= 0.0).all()

    def test_lower_triangular_like(self):
        params = K.make_params(2, 3)
        op = K.discretize_T_R(params, 1.0, 128)
        # kernel support u >= r: columns left of the diagonal vanish beyond
        # the interpolation stencil width
        for i in range(3, 128):
            assert np.all(op.entries[i, :i - 1] == 0.0)

    def test_matrix_continuous_agreement(self):
        # smooth gentle profile on [0, R]; n = 512 per the contract
        params = K.make_params(2, 3)
        op = K.discretize_T_R(params, 1.0, 512)
        lam = 0.5
        f = K.extremizer_profile(params, lam, op.grid)
        got = op.apply(f.values)
        ref = K.apply_T(params, f).values
        assert np.abs(got - ref).max() < 1e-6

    def test_singular_values_zero_matrix(self):
        params = K.make_params(1, 3)
        op = K.discretize_T_R(params, 1.0, 64)
        zero_op = K.OperatorMatrix(entries=np.zeros_like(op.entries), R=op.R,
                                   grid=op.grid, params=params)
        s = K.singular_value_profile(zero_op)
        assert np.all(s == 0.0)

    def test_singular_values_nonincreasing_and_decay(self):
        params = K.make_params(2, 3)
        ratios = []
        for n in (64, 128, 256):
            s = K.singular_value_profile(K.discretize_T_R(params, 1.0, n))
            assert (np.diff(s) <= 1e-12).all()
            ratios.append(s[n // 4] / s[0])
        assert ratios[0] > ratios[1] > ratios[2]


class TestSmallGrids:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_minimum_size_grids_work(self, k):
        params = K.make_params(k, k + 2)
        for hint in (5.0, float("inf")):
            g = K.make_grid(16, hint)
            h = K.extremizer_profile(params, 1.0, g)
            tf = K.apply_T(params, h)
            assert np.isfinite(tf.values).all() and (tf.values >= 0).all()
            adj = K.apply_T_adjoint(params, h)
            assert np.isfinite(adj.values).all()


class TestEquicontinuity:
    def test_zero_step(self):
        params = K.make_params(1, 3)
        assert K.equicontinuity_modulus(params, 1.0, 0.0) == 0.0

    def test_k2_closed_form(self):
        params = K.make_params(2, 4)
        R = 1.0
        for h in (1e-1, 1e-2):
            got = K.equicontinuity_modulus(params, R, h)
            assert got == pytest.approx((2 * R * h - h * h) / 2, rel=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_vanishes_with_step(self, k):
        params = K.make_params(k, 4)
        vals = [K.equicontinuity_modulus(params, 1.0, h) for h in (1e-1, 1e-2, 1e-3)]
        assert vals[0] > vals[1] > vals[2] > 0


class TestOperatorCache:
    def test_concurrent_cold_callers_build_once(self, fresh_cache, monkeypatch):
        import sys
        import threading
        import time
        T = fresh_cache
        builds = []
        assemble = T._assemble_forward

        def slow_assemble(grid, k, degree):
            builds.append((grid.n, k, degree))
            time.sleep(0.05)   # hold the build open while the others arrive
            return assemble(grid, k, degree)

        monkeypatch.setattr(T, "_assemble_forward", slow_assemble)
        params = K.make_params(1, 3)
        f = K.extremizer_profile(params, 1.0, K.make_halfline_grid(256))
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
        assert builds == [(256, 1, T._quad.INTERP_DEGREE)]
        assert all(np.array_equal(v, results[0]) for v in results)

    def test_dense_size_guard_refuses_before_building(self, fresh_cache, monkeypatch):
        T = fresh_cache
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", 8 * 100 * 100)
        params = K.make_params(1, 3)
        f = K.extremizer_profile(params, 1.0, K.make_halfline_grid(101))
        with pytest.raises(K.ConfigurationError, match="budget"):
            K.apply_T(params, f)
        with pytest.raises(K.ConfigurationError, match="budget"):
            K.apply_T_adjoint(params, f)
        small = K.extremizer_profile(params, 1.0, K.make_halfline_grid(100))
        assert K.apply_T(params, small).values.shape == (100,)

    def test_cache_bounded_by_bytes_in_lru_order(self, fresh_cache, monkeypatch):
        T = fresh_cache
        a, b, c, d = (K.make_halfline_grid(n) for n in (100, 110, 120, 130))
        size = {g.n: T._nbytes(T._assemble_forward(g, 1, 7)) for g in (a, b, c, d)}

        def held():
            return [key[1] for key in T._MATRIX_CACHE]

        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", size[100] + size[120])
        T._forward_matrix(a, 1, 7)
        T._forward_matrix(b, 1, 7)
        T._forward_matrix(a, 1, 7)           # a becomes the most recently used
        assert held() == [b.fingerprint(), a.fingerprint()]
        T._forward_matrix(c, 1, 7)           # evicts b, the least recently used
        assert held() == [a.fingerprint(), c.fingerprint()]
        assert sum(map(T._nbytes, T._MATRIX_CACHE.values())) == size[100] + size[120]
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", size[130])
        T._forward_matrix(d, 1, 7)           # over budget with anything else held
        assert held() == [d.fingerprint()]
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", size[130] - 1)
        T._MATRIX_CACHE.clear()
        M = T._forward_matrix(d, 1, 7)       # the entry just built is never evicted
        assert held() == [d.fingerprint()] and T._forward_matrix(d, 1, 7) is M


class TestBlockedAssembly:
    """The tiled assembly against a dense reference, across tile boundaries,
    and within its memory bound."""

    @staticmethod
    def _reference(grid, k, d, adjoint):
        # every row against every GL point with an explicit visibility mask,
        # one dense matmul with the basis matrix, then the edge triplets
        T = K.transform
        q = T._quadrature(grid, k, d, SegmentedInterp(grid.theta_nodes, grid.h),
                          0, grid.n - 2, (), adjoint)
        i = np.arange(grid.n)[:, None]
        cell = q["cell"][None, :]
        seen = (cell <= i - 2) if adjoint else (cell >= i + 1)
        x = np.where(seen, np.abs(q["t2"][None, :] - grid.nodes[:, None] ** 2), 1.0)
        A = np.where(seen, x ** (k / 2 - 1) * q["base"], 0.0)
        M = A @ q["B"].toarray()
        np.add.at(M, (q["rows"][:, None], q["idx"]), q["w"])
        return M, q

    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_dense_reference(self, k, adjoint, hint):
        grid = K.make_grid(64, hint)
        ref, q = self._reference(grid, k, k + 2, adjoint)
        M = np.zeros((64, 64))
        K.transform._accumulate(M, 0, np.arange(64), grid, k, q, adjoint)
        assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_tile_boundaries_do_not_change_the_operator(self, monkeypatch, k, adjoint):
        T = K.transform
        grid = K.make_halfline_grid(300)
        splits = (0.4, 1.7, 1.7001, 6.0)

        def build():
            # the operator without splits, and with them as one dense matrix
            plain = T._assemble(grid, k, k + 2, 7, adjoint)
            split = plain.copy()
            blocks = T._split_correction(grid, k, k + 2, splits, 7, adjoint)
            for row0, cols, C in blocks:
                split[row0:row0 + C.shape[0], cols] += C
            return plain, split, len(blocks)

        *default, n_blocks = build()
        assert n_blocks > 1
        # tiles that end inside a cell and inside a row's staircase
        monkeypatch.setattr(T, "_TILE_ROWS", 5)
        monkeypatch.setattr(T, "_TILE_POINTS", 7)
        for got, want in zip(build()[:2], default):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cold_build_peaks_below_twice_the_matrix(self, fresh_cache, k):
        import tracemalloc
        T = fresh_cache
        grid = K.make_halfline_grid(2048)
        for build in (lambda: T._forward_matrix(grid, k, 7)["M"],
                      lambda: T._adjoint_matrix(grid, k, k + 2, 7)):
            tracemalloc.start()
            try:
                M = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * M.nbytes, peak / M.nbytes
