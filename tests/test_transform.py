import math
import sys

import numpy as np
import pytest

import kplane as K
from kplane._quad import GL_CELL, INTERP_DEGREE, SegmentedInterp
from kplane.core import weighted_signed_integral

from conftest import beta, smooth_decaying

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

    @pytest.mark.parametrize("k,d,tol", [(1, 3, 5e-11), (2, 4, 2e-12), (3, 4, 2e-11)])
    def test_last_rows_of_the_extremizer_transform(self, grids, k, d, tol):
        # the last rows' edge cells span s up to about r_i whatever n is,
        # near the branch points s = +-i r_i of their weight
        params = K.make_params(k, d)
        g = grids["half2048"]
        th = K.apply_T(params, K.extremizer_profile(params, 1.0, g)).values
        exact = C_K[k] * (1 + g.nodes ** 2) ** (-0.5)
        assert np.abs(th[-8:] / exact[-8:] - 1).max() < tol

    @pytest.mark.parametrize("step", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_last_rows_of_integer_decays(self, k, step):
        # f = (1 + r^2)^{-a/2}, a = k + step: g = f sec^{k+1} = cos^{a-k-1} is
        # analytic at pi/2, and T f = B(k/2, (a-k)/2) / 2 (1 + r^2)^{-(a-k)/2};
        # the last rows' edge cells, wide whatever n is, take GL_EDGE_LAST
        params, g = K.make_params(k, k + 1), K.make_halfline_grid(512)
        f = K.RadialProfile(g, (1 + g.nodes ** 2) ** (-(k + step) / 2))
        tf = K.apply_T(params, f).values
        exact = beta(k / 2, step / 2) / 2 * (1 + g.nodes ** 2) ** (-step / 2)
        assert np.abs(tf[-8:] / exact[-8:] - 1).max() <= 1e-10

    def test_k1_extremizer_transform_to_the_rounding_floor(self):
        # the cell after each row's kernel edge holds the Toeplitz factor's
        # branch point one cell away; too few Gauss points there leave an
        # error of order n^{-1/2}
        params = K.make_params(1, 3)
        g = K.make_halfline_grid(512)
        th = K.apply_T(params, K.extremizer_profile(params, 1.0, g)).values
        inside = g.nodes <= 50.0
        exact = C_K[1] * (1 + g.nodes[inside] ** 2) ** (-0.5)
        assert np.abs(th[inside] / exact - 1).max() <= 1e-13

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
        lhs = weighted_signed_integral(tf.values * gg.values, g, params.a_target)
        rhs = weighted_signed_integral(f.values * tsg.values, g, params.a_domain)
        assert abs(lhs - rhs) / abs(lhs) < 1e-8

    @pytest.mark.parametrize("n", [512, 2048])
    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4)])
    def test_euler_lagrange_identity_in_the_first_rows(self, k, d, n):
        # T*((T h)^{q-1}) = mu h^{p-1}, mu = ||T h||_q^q / ||h||_p^p, from
        # exact samples of T h; rows 0 and 1 hold the edge pieces that end
        # nearest their row's radius
        params = K.make_params(k, d)
        g = K.make_halfline_grid(n)
        p, q = params.pf, params.qf
        c_k = beta(k / 2, 0.5) / 2
        mu = c_k ** q * beta((d - k) / 2, (k + 1) / 2) / beta(d / 2, 0.5)
        th = c_k / np.sqrt(1 + g.nodes ** 2)
        out = K.apply_T_adjoint(params, K.RadialProfile(g, th ** (q - 1))).values
        want = mu * (1 + g.nodes ** 2) ** (-(k + 1) / 2 * (p - 1))
        assert np.abs(out[:4] / want[:4] - 1).max() < 1e-10

    @pytest.mark.parametrize("lam,tol", [(1 / 8, 2e-11), (1.0, 2e-11), (8.0, 1e-8)])
    @pytest.mark.parametrize("k,d", [(1, 3), (2, 4), (3, 4), (4, 5), (1, 2), (2, 3)])
    def test_euler_lagrange_identity_in_every_row(self, k, d, lam, tol):
        # the same identity for the dilate h_lam, from exact samples of
        # T h_lam = lam^{d/p-k} c_k (1 + lam^2 r^2)^{-1/2}; T* commutes with
        # dilation, so mu_lam = mu lam^{(d/p-k)(q-1) - (d/p)(p-1)}. The last
        # rows' edge pieces span psi from about pi/6 whatever n is; at
        # lam = 8 row 0 sets the bound
        params = K.make_params(k, d)
        g = K.make_halfline_grid(512)
        p, q, s = params.pf, params.qf, params.scale_exp_f
        c_k = beta(k / 2, 0.5) / 2
        mu = c_k ** q * beta((d - k) / 2, (k + 1) / 2) / beta(d / 2, 0.5)
        mu *= lam ** ((s - k) * (q - 1) - s * (p - 1))
        th = lam ** (s - k) * c_k / np.sqrt(1 + (lam * g.nodes) ** 2)
        out = K.apply_T_adjoint(params, K.RadialProfile(g, th ** (q - 1))).values
        want = mu * K.extremizer_profile(params, lam, g).values ** (p - 1)
        assert np.abs(out / want - 1).max() <= tol

    @pytest.mark.parametrize("k,d", [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4)])
    def test_adjoint_residual_at_the_rounding_floor(self, k, d):
        params = K.make_params(k, d)
        g = K.make_halfline_grid(512)
        r = g.nodes
        f = K.RadialProfile(g, np.exp(-r * r))
        gg = K.RadialProfile(g, np.exp(-(r - 1.0) ** 2))
        tf = K.apply_T(params, f)
        lhs = weighted_signed_integral(tf.values * gg.values, g, params.a_target)
        rhs = weighted_signed_integral(f.values * K.apply_T_adjoint(params, gg).values, g,
                                       params.a_domain)
        assert abs(lhs - rhs) <= 1e-13 * (K.weighted_lp_norm(tf, params.a_target, 2)
                                          * K.weighted_lp_norm(gg, params.a_target, 2))

    def test_indicator_closed_form(self, grids):
        # k=2, d=3, g = 1_{[0,1]}: T* g(u) = min(u,1)/u
        params = K.make_params(2, 3)
        g = grids["half1024"]
        gi = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        out = K.apply_T_adjoint(params, gi)
        exact = np.minimum(g.nodes, 1.0) / g.nodes
        assert np.abs(out.values - exact).max() < 1e-12


class TestDiscretized:
    """discretize_T_R: the M0 that apply_T applies on make_grid(n, R), as
    an n x n array."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_apply_T(self, k):
        # k = 2 densifies the same _RowBlocks build as every other k, where
        # apply_T reads _PrefixSums
        params = K.make_params(k, k + 1)
        M = K.discretize_T_R(params, 2.0, 256)
        grid = K.make_grid(256, 2.0)
        v = np.random.default_rng(k).standard_normal(grid.n)
        want = K.apply_T(params, K.RadialProfile(grid, v)).values
        assert isinstance(M, np.ndarray) and M.shape == (256, 256)
        assert np.abs(M @ v - want).max() <= 1e-14 * np.abs(want).max()

    def test_lower_triangular_like(self):
        # kernel support u >= r: a row reads no node more than a stencil
        # width left of its own
        for k in (1, 2, 3):
            M = K.discretize_T_R(K.make_params(k, k + 1), 1.0, 128)
            for i in range(INTERP_DEGREE, 128):
                assert np.all(M[i, :i - INTERP_DEGREE] == 0.0)

    def test_matrix_continuous_agreement(self):
        # a smooth profile on [0, R], n = 512: the matrix is apply_T's
        params = K.make_params(2, 3)
        M = K.discretize_T_R(params, 1.0, 512)
        f = K.extremizer_profile(params, 0.5, K.make_grid(512, 1.0))
        ref = K.apply_T(params, f).values
        assert np.abs(M @ f.values - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("R", [float("inf"), float("nan"), 0.0, -1.0])
    def test_refuses_a_radius_not_finite_and_positive(self, R):
        # R = inf would build on a half-line grid
        with pytest.raises(K.ParameterError, match="finite R > 0"):
            K.discretize_T_R(K.make_params(1, 3), R, 64)

    def test_refuses_fewer_than_16_nodes(self):
        with pytest.raises(K.ParameterError, match="n >= 16"):
            K.discretize_T_R(K.make_params(1, 3), 1.0, 15)


class TestSingularValues:
    """singular_value_profile: sigma_1..8 of T_R by Lanczos on T* T through
    apply_T and apply_T_adjoint."""

    def test_singular_values_nonincreasing_and_decay(self):
        # (2,3): with g = u f, T_R is the adjoint of the Volterra operator on
        # L^2[0, R], whose singular values are 2R / ((2j - 1) pi)
        s = K.singular_value_profile(K.make_params(2, 3), 1.0, 256)
        exact = 2 / ((2 * np.arange(1, 9) - 1) * math.pi)
        assert s.shape == (8,) and (np.diff(s) < 0).all()
        assert np.abs(s - exact).max() <= 1e-11

    def test_converged_in_n(self):
        # (1,3) has no closed form: n = 256 against n = 512
        params = K.make_params(1, 3)
        coarse, fine = (K.singular_value_profile(params, 1.0, n) for n in (256, 512))
        assert np.abs(coarse - fine).max() <= 1e-4

    @pytest.mark.parametrize("k", [1, 2])
    def test_dilation_scaling(self, k):
        # T_{lam R} is unitarily T_R times lam^{k/2}
        params = K.make_params(k, 3)
        ratio = (K.singular_value_profile(params, 2.5, 256)
                 / K.singular_value_profile(params, 1.0, 256))
        assert np.abs(ratio / 2.5 ** (k / 2) - 1).max() <= 1e-4

    def test_bitwise_equal_for_any_worker_count(self, fresh_cache, monkeypatch):
        # the (1,3) operators on 600 nodes are built in three row blocks
        from collections import OrderedDict
        T = fresh_cache
        params = K.make_params(1, 3)
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(T, "_MATRIX_CACHE", OrderedDict())
            monkeypatch.setattr(T, "_workers", lambda jobs, w=workers: min(w, jobs))
            got.append(K.singular_value_profile(params, 1.0, 600))
        assert all(np.array_equal(s, got[0]) for s in got[1:])

    @pytest.mark.parametrize("R", [float("inf"), float("nan"), 0.0, -1.0])
    def test_refuses_a_radius_not_finite_and_positive(self, R):
        with pytest.raises(K.ParameterError, match="finite R > 0"):
            K.singular_value_profile(K.make_params(1, 3), R, 256)

    def test_refuses_fewer_than_64_nodes(self):
        with pytest.raises(K.ParameterError, match="n >= 64"):
            K.singular_value_profile(K.make_params(1, 3), 1.0, 63)


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

    def test_zero_step_still_checks_R(self):
        with pytest.raises(K.ParameterError, match="R > 0"):
            K.equicontinuity_modulus(K.make_params(1, 3), -1.0, 0.0)

    @pytest.mark.parametrize("h_step", [0.0, 0.1])
    def test_infinite_R_refused(self, h_step):
        # the closed form at R = inf is inf - inf, NaN
        with pytest.raises(K.ParameterError, match="finite R > 0"):
            K.equicontinuity_modulus(K.make_params(1, 3), float("inf"), h_step)

    @pytest.mark.parametrize("h_step", [0.0, 0.1])
    def test_too_few_scan_points(self, h_step):
        # checked before the zero step's early return and before the scan
        with pytest.raises(K.ParameterError, match="n_scan"):
            K.equicontinuity_modulus(K.make_params(1, 3), 1.0, h_step, n_scan=0)

    def test_k2_closed_form(self):
        params = K.make_params(2, 4)
        R = 1.0
        for h in (1e-1, 1e-2):
            got = K.equicontinuity_modulus(params, R, h)
            assert got == pytest.approx((2 * R * h - h * h) / 2, rel=1e-6)

    def test_k1_at_huge_R(self):
        # R * R overflows, but the modulus does not: for h << R it is
        # 2 sqrt(2 R h) to leading order, and I is homogeneous of degree k
        params = K.make_params(1, 3)
        got = K.equicontinuity_modulus(params, 1e200, 0.1)
        assert got == pytest.approx(2 * math.sqrt(2e199), rel=1e-3)
        assert K.equicontinuity_modulus(params, 1e200, 1e199) == pytest.approx(
            1e200 * K.equicontinuity_modulus(params, 1.0, 0.1), rel=1e-12)

    def test_k3_at_huge_R(self):
        # for h << R the modulus is R^2 h / 2 to leading order, past a double
        # at R = 1e200 and h = 0.1, and the difference of (R^2 - r^2)^{3/2}
        # terms that gives it does not cancel to 0
        params = K.make_params(3, 4)
        with pytest.raises(K.ParameterError, match="overflows"):
            K.equicontinuity_modulus(params, 1e200, 0.1)
        assert K.equicontinuity_modulus(params, 1e130, 1e-100) == pytest.approx(5e159,
                                                                                rel=1e-6)
        assert K.equicontinuity_modulus(params, 1e100, 1e99) == pytest.approx(
            1e300 * K.equicontinuity_modulus(params, 1.0, 0.1), rel=1e-12)

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
        assemble = T._RowBlocks

        def slow_assemble(grid, k, d, adjoint):
            builds.append((grid.n, k))
            time.sleep(0.05)   # hold the build open while the others arrive
            return assemble(grid, k, d, adjoint)

        monkeypatch.setattr(T, "_RowBlocks", slow_assemble)
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
        assert builds == [(256, 1)]
        assert all(np.array_equal(v, results[0]) for v in results)

    def test_concurrent_builds_of_distinct_keys_hold_the_budget(self, fresh_cache,
                                                                 monkeypatch):
        # one forward M0 held, two callers build k = 3 and k = 4 at once: the
        # held entries and the reservations of the builds in flight never
        # exceed the budget, as builds run one at a time
        import sys
        import threading
        import time
        T = fresh_cache
        grid = K.make_halfline_grid(300)
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", int(2.5 * 8 * grid.n ** 2))
        expected = {k: T._RowBlocks(grid, k, 0, False).toarray() for k in (3, 4)}
        T._operator(grid, 1, 0, False)
        assemble, guard, in_flight, peaks = T._RowBlocks, threading.Lock(), [], []

        def slow_assemble(grid, k, d, adjoint):
            need = T._operator_bytes(grid.n, k)
            with T._CACHE_LOCK, guard:
                in_flight.append(need)
                held = sum(v.nbytes for v in T._MATRIX_CACHE.values())
                peaks.append(held + sum(in_flight))
            time.sleep(0.2)   # hold the build open while the other caller arrives
            try:
                return assemble(grid, k, d, adjoint)
            finally:
                with guard:
                    in_flight.remove(need)

        monkeypatch.setattr(T, "_RowBlocks", slow_assemble)
        barrier = threading.Barrier(2)
        results = {}

        def worker(k):
            barrier.wait(timeout=30)
            results[k] = T._operator(grid, k, 0, False).toarray()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in (3, 4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(peaks) == 2
        assert max(peaks) <= T.DENSE_BUDGET_BYTES, (peaks, T.DENSE_BUDGET_BYTES)
        assert all(np.array_equal(results[k], expected[k]) for k in (3, 4))
        assert T.cache_info()["fwd"]["builds"] == 3

    def test_concurrent_hit_returns_during_another_build(self, fresh_cache, monkeypatch):
        # a caller whose M0 is cached never waits for another key's build
        import threading
        T = fresh_cache
        grid = K.make_halfline_grid(128)
        held = T._operator(grid, 1, 0, False)
        assemble, started, release = T._RowBlocks, threading.Event(), threading.Event()

        def held_open(grid, k, d, adjoint):
            started.set()
            release.wait(timeout=30)
            return assemble(grid, k, d, adjoint)

        monkeypatch.setattr(T, "_RowBlocks", held_open)
        builder = threading.Thread(target=T._operator, args=(grid, 3, 0, False))
        got = []
        hit = threading.Thread(target=lambda: got.append(T._operator(grid, 1, 0, False)))
        builder.start()
        try:
            assert started.wait(timeout=30)
            hit.start()
            hit.join(timeout=10)
            assert not hit.is_alive() and got[0] is held
            assert builder.is_alive() and not release.is_set()
        finally:
            release.set()
            builder.join(timeout=60)
            hit.join(timeout=60)
        assert not builder.is_alive()
        info = T.cache_info()["fwd"]
        assert (info["entries"], info["builds"], info["hits"]) == (2, 2, 1)

    def test_build_seconds_count_builds_not_hits(self, fresh_cache, monkeypatch):
        import time
        T = fresh_cache
        assemble = T._RowBlocks

        def slow_assemble(grid, k, d, adjoint):
            time.sleep(0.05)
            return assemble(grid, k, d, adjoint)

        monkeypatch.setattr(T, "_RowBlocks", slow_assemble)
        grid = K.make_halfline_grid(128)
        T._operator(grid, 1, 0, False)
        spent = T.cache_info()["fwd"]["build_s"]
        assert spent >= 0.05
        T._operator(grid, 1, 0, False)    # a hit adds no build time
        info = T.cache_info()
        assert info["fwd"]["hits"] == 1 and info["fwd"]["build_s"] == spent
        assert info["adj"]["build_s"] == 0.0
        T._operator(grid, 1, 3, True)
        assert T.cache_info()["adj"]["build_s"] > 0.0

    def test_one_operator_per_k_forward_and_per_k_and_d_adjoint(self, fresh_cache):
        # the forward M0 does not depend on d, so (1, 3) and (1, 4) share
        # one, as (2, 4) and (2, 5) do; the adjoint's is built per (k, d)
        T = fresh_cache
        grid = K.make_halfline_grid(128)
        for k, d in ((1, 3), (1, 4), (2, 4), (2, 5)):
            params = K.make_params(k, d)
            f = K.extremizer_profile(params, 1.0, grid)
            K.apply_T(params, f)
            K.apply_T_adjoint(params, f)
        info = T.cache_info()
        assert (info["fwd"]["builds"], info["fwd"]["hits"], info["fwd"]["entries"]) == (2, 2, 2)
        assert (info["adj"]["builds"], info["adj"]["hits"], info["adj"]["entries"]) == (4, 0, 4)
        fp = grid.fingerprint()
        assert set(T._MATRIX_CACHE) == {("fwd", fp, 1), ("fwd", fp, 2), ("adj", fp, 1, 3),
                                        ("adj", fp, 1, 4), ("adj", fp, 2, 4), ("adj", fp, 2, 5)}

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
        size = {g.n: T._RowBlocks(g, 1, 0, False).nbytes for g in (a, b, c, d)}

        def held():
            return [key[1] for key in T._MATRIX_CACHE]

        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", size[100] + size[120])
        T._operator(a, 1, 0, False)
        T._operator(b, 1, 0, False)
        T._operator(a, 1, 0, False)       # a becomes the most recently used
        assert held() == [b.fingerprint(), a.fingerprint()]
        T._operator(c, 1, 0, False)       # evicts b, the least recently used
        assert held() == [a.fingerprint(), c.fingerprint()]
        assert sum(v.nbytes for v in T._MATRIX_CACHE.values()) == size[100] + size[120]
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", size[130])
        T._operator(d, 1, 0, False)       # over budget with anything else held
        assert held() == [d.fingerprint()]
        # the entry just built is never evicted, even alone over the budget:
        # k = 2's prefix sums, which the dense budget does not refuse
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", T._PrefixSums(d, 0, False).nbytes - 1)
        T._MATRIX_CACHE.clear()
        M = T._operator(d, 2, 0, False)
        assert held() == [d.fingerprint()] and T._operator(d, 2, 0, False) is M

    def test_cache_evicts_before_allocating(self, fresh_cache, monkeypatch):
        T = fresh_cache
        grids = [K.make_halfline_grid(n) for n in (100, 110, 120, 130)]
        size = {g.n: T._RowBlocks(g, 1, 0, False).nbytes for g in grids}
        budget = size[100] + size[120]
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", budget)
        allocations = []
        dense = T._dense

        def recording_dense(n):
            held = sum(v.nbytes for v in T._MATRIX_CACHE.values())
            allocations.append((n, held))
            return dense(n)

        monkeypatch.setattr(T, "_dense", recording_dense)
        for g in grids:
            T._operator(g, 1, 0, False)
        T._operator(grids[0], 1, 3, True)
        assert [n for n, _ in allocations] == [100, 110, 120, 130, 100]
        # the cache and the matrix being allocated fit the budget together
        assert all(held + 8 * n * n <= budget for n, held in allocations)
        assert sum(v.nbytes for v in T._MATRIX_CACHE.values()) <= budget


class TestBlockedAssembly:
    """The blocked assembly against a dense reference, across block
    boundaries, and within its memory bound."""

    @staticmethod
    def _reference(grid, k, d, adjoint, splits=(), degree=7):
        # every row against every GL point with an explicit visibility mask,
        # one dense matmul with the stencils as a dense basis, then the edge terms
        T = K.transform
        interp = SegmentedInterp(grid.theta_nodes, grid.h, [math.atan(s) for s in splits],
                                 degree=degree)
        q = T._quadrature(grid, k, d, interp, 0, T._cells(grid, adjoint) - 1, splits, adjoint)
        i = np.arange(grid.n)[:, None]
        cell = q["cell"][None, :]
        seen = (cell <= i - 2) if adjoint else (cell >= i + 1)
        t2 = np.tan(q["theta"]) ** 2
        x = np.where(seen, np.abs(t2[None, :] - grid.nodes[:, None] ** 2), 1.0)
        A = np.where(seen, x ** (k / 2 - 1) * q["base"], 0.0)
        basis = np.zeros((t2.size, grid.n))
        np.add.at(basis, (np.arange(t2.size)[:, None], q["sidx"]), q["sw"])
        M = A @ basis
        np.add.at(M, (q["rows"][:, None], q["idx"]), q["w"])
        return M, q

    @classmethod
    def _split_part(cls, grid, k, d, adjoint, splits):
        # what `splits` add to the operator (adjoint rows scaled by r^{2-d}):
        # the reference with them less the reference without
        C = cls._reference(grid, k, d, adjoint, splits)[0] - cls._reference(grid, k, d, adjoint)[0]
        if adjoint:
            C *= (grid.nodes ** (2.0 - d))[:, None]
        return C

    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_dense_reference(self, k, adjoint, hint):
        grid = K.make_grid(64, hint)
        ref, q = self._reference(grid, k, k + 2, adjoint)
        M = np.zeros((64, 64))
        K.transform._accumulate([(0, 0, M)], grid, k, q, adjoint)
        assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("cells", [None, 3])
    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_stencil_blocks_partition_the_points(self, monkeypatch, k, adjoint, hint, cells):
        # the stencil blocks of a build take the quadrature's points in
        # order, each block the points of one run of _BLOCK_CELLS cells
        # aligned to a multiple of that size, and their D scattered back is
        # the dense stencil matrix, beta sw at sidx
        T = K.transform
        if cells is not None:
            monkeypatch.setattr(T, "_BLOCK_CELLS", cells)
        grid = K.make_grid(300, hint)
        q = T._quadrature(grid, k, k + 2 if adjoint else 0, grid._interp_plain, 0,
                          T._cells(grid, adjoint) - 1, (), adjoint)
        points, size = q["cell"].size, T._BLOCK_CELLS
        sw = (q["base"] * np.cos(q["theta"]) ** (2.0 - k))[:, None] * q["sw"]
        want = np.zeros((points, grid.n))
        np.add.at(want, (np.arange(points)[:, None], q["sidx"]), sw)
        got, at, runs = np.zeros_like(want), 0, []
        for b0, b1, c_lo, c_hi, j0, j1, D in T._cell_tiles(q["cell"], q["sidx"], sw):
            assert b0 == at < b1
            assert (c_lo, c_hi) == (q["cell"][b0], q["cell"][b1 - 1])
            assert c_lo // size == c_hi // size
            runs.append(c_lo // size)
            got[b0:b1, j0:j1] = D
            at = b1
        assert at == points
        assert runs == sorted(set(runs))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_split_apply_matches_dense_reference(self, k, adjoint):
        # the split at 7.9 leaves a last segment shorter than a stencil, whose
        # padded stencil entries repeat the last node with zero weight
        T = K.transform
        grid, d, splits = K.make_grid(64, 8.0), k + 2, (2.0, 7.9)
        ref = self._reference(grid, k, d, adjoint, splits)[0]
        op = T._RowBlocks(grid, k, d, adjoint)
        if adjoint:
            ref *= (grid.nodes ** (2.0 - d))[:, None]
        got = _columns(op, grid, splits)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("adjoint,cells", [(False, 3), (True, 3), (False, None), (True, None)],
                             ids=["False", "True", "False-rows5", "True-rows5"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_tile_boundaries_do_not_change_the_operator(self, monkeypatch, k, adjoint, cells):
        T = K.transform
        grid, d = K.make_halfline_grid(300), k + 2
        splits = (0.4, 1.7, 1.7001, 6.0)
        assert len(T._split_clusters(grid, splits, adjoint)[1]) > 1
        V = np.random.default_rng(0).uniform(0.5, 1.5, (grid.n, 4))
        C = self._split_part(grid, k, d, adjoint, splits)

        def build():
            # the operator without splits, and with them applied to V, which
            # the reference's split part takes from the one to the other
            op = T._RowBlocks(grid, k, d, adjoint)
            plain = op.toarray()
            split = np.column_stack([op.apply(K.RadialProfile(grid, v, splits=splits))
                                     for v in V.T])
            want = plain @ V + C @ V
            assert np.abs(split - want).max() <= 1e-15 * np.abs(want).max()
            return plain

        default = build()
        # row blocks, and passes of the split applies over few cells, that
        # end inside a row's staircase
        monkeypatch.setattr(T, "_TILE_ROWS", 5)
        if cells is not None:
            monkeypatch.setattr(T, "_TILE_CELLS", cells)
        assert np.abs(build() - default).max() <= 1e-15 * np.abs(default).max()

    @pytest.mark.parametrize("k", [1, 3])
    def test_cold_build_peaks_below_twice_the_matrix(self, fresh_cache, k):
        import tracemalloc
        T = fresh_cache
        grid = K.make_halfline_grid(2048)
        for build in (lambda: T._operator(grid, k, 0, False),
                      lambda: T._operator(grid, k, k + 2, True)):
            tracemalloc.start()
            try:
                M = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * M.nbytes, peak / M.nbytes

    @pytest.mark.parametrize("rows", [None, 5])
    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("degree", [1, INTERP_DEGREE])
    @pytest.mark.parametrize("k", [1, 3])
    def test_row_blocks_equal_the_full_assembly(self, monkeypatch, k, degree, adjoint, hint,
                                                rows):
        # the n x n accumulation is zero wherever the row blocks store nothing,
        # and bitwise equal to them wherever they do: to full-width blocks of
        # _TILE_ROWS rows at any stencil degree, and at INTERP_DEGREE to the
        # banded blocks of _RowBlocks
        T = K.transform
        if rows is not None:
            monkeypatch.setattr(T, "_TILE_ROWS", rows)
        grid = K.make_grid(300, hint)
        d = k + 2 if adjoint else 0
        interp = SegmentedInterp(grid.theta_nodes, grid.h, degree=degree)
        q = T._quadrature(grid, k, d, interp, 0, T._cells(grid, adjoint) - 1, (), adjoint)
        scale = grid.nodes ** (2.0 - d) if adjoint else None
        full = np.zeros((grid.n, grid.n))
        T._accumulate([(0, 0, full)], grid, k, q, adjoint, scale)
        views = np.zeros((grid.n, grid.n))
        T._accumulate([(i0, 0, views[i0:i0 + T._TILE_ROWS])
                       for i0 in range(0, grid.n, T._TILE_ROWS)], grid, k, q, adjoint, scale)
        assert np.array_equal(views, full)
        if degree == INTERP_DEGREE:
            M = T._RowBlocks(grid, k, d, adjoint)
            assert len(M.blocks) == -(-grid.n // T._TILE_ROWS)
            assert np.array_equal(M.toarray(), full)

    @pytest.mark.parametrize("k", [1, 3])
    def test_row_blocks_hold_under_six_tenths_of_the_matrix(self, fresh_cache, k):
        # 8 blocks of 256 rows over their bands: (n + 256 + 14) / 2n of n^2
        T = fresh_cache
        n = 2048
        grid = K.make_halfline_grid(n)
        held = {"fwd": T._operator(grid, k, 0, False).nbytes,
                "adj": T._operator(grid, k, k + 2, True).nbytes}
        info = T.cache_info()
        for kind, nbytes in held.items():
            assert nbytes <= 0.6 * 8 * n * n, (kind, nbytes / (8 * n * n))
            assert info[kind]["bytes"] == nbytes

    def test_cold_build_allocates_no_n_by_n_matrix(self, fresh_cache):
        # an n x n array alone would take the traced peak to 8 n^2 bytes
        import tracemalloc
        T = fresh_cache
        n = 2048
        grid = K.make_halfline_grid(n)
        for build in (lambda: T._operator(grid, 1, 0, False),
                      lambda: T._operator(grid, 1, 3, True)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * n * n, peak / (8 * n * n)

    def test_k2_build_allocates_no_matrix(self, fresh_cache):
        # 2048^2 doubles are 32 MiB: the prefix sums of k = 2 allocate none
        import tracemalloc
        T = fresh_cache
        grid = K.make_halfline_grid(2048)
        tracemalloc.start()
        try:
            ops = [T._operator(grid, 2, 0, False), T._operator(grid, 2, 4, True)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak / 2 ** 20
        for op in ops:
            assert op.nbytes < 2 ** 20
            assert op.nbytes <= T._operator_bytes(grid.n, 2)


class TestSineKernel:
    """The interior kernel from theta-lattice sine tables against the dense
    t^2 - r^2 reference, with the default blocks and passes and with ones
    that split rows and cells unevenly: _TILE_ROWS the row blocks and the
    passes of a build, _TILE_CELLS the passes of _integrate, _BLOCK_CELLS
    the stencil blocks."""

    TILES = {"default-tiles": None, "uneven-tiles": (5, 7, 3)}

    @staticmethod
    def _tiles(monkeypatch, tiles):
        if tiles is not None:
            for name, value in zip(("_TILE_ROWS", "_TILE_CELLS", "_BLOCK_CELLS"), tiles):
                monkeypatch.setattr(K.transform, name, value)

    @pytest.mark.parametrize("tiles", TILES.values(), ids=TILES.keys())
    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 4, 5])
    def test_matches_dense_reference(self, monkeypatch, k, adjoint, hint, tiles):
        self._tiles(monkeypatch, tiles)
        grid = K.make_grid(64, hint)
        ref, q = TestBlockedAssembly._reference(grid, k, k + 2, adjoint)
        M = np.zeros((64, 64))
        K.transform._accumulate([(0, 0, M)], grid, k, q, adjoint)
        assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("tiles", TILES.values(), ids=TILES.keys())
    @pytest.mark.parametrize("k", [1, 3, 4, 5])
    def test_discretized_matches_dense_reference(self, monkeypatch, k, tiles):
        # the matrix of discretize_T_R, the truncated grid's forward M0
        self._tiles(monkeypatch, tiles)
        M = K.discretize_T_R(K.make_params(k, k + 1), 2.0, 64)
        ref = TestBlockedAssembly._reference(K.make_grid(64, 2.0), k, 0, False)[0]
        assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_tables_match_direct_evaluation(self, k, adjoint, hint):
        # every row block of a 200-point grid against the whole lattice, from
        # its origin (the adjoint's head strip, cell -1): the strided table
        # views and the point-by-point evaluation agree
        T = K.transform
        grid = K.make_grid(200, hint)
        tables = T._SineTables(grid, k, adjoint)
        g, cells = GL_CELL[0].size, np.arange(tables.origin, grid.n - 1)
        c, u = np.repeat(cells, g), np.tile(0.5 + 0.5 * GL_CELL[0], cells.size)
        for a, b in ((0, grid.n), (0, 7), (37, 121), (190, 200)):
            got = tables.sines(tables.views(a, b), 0, c.size, np.empty((b - a, c.size)))
            want = T._direct_sines(c, u, np.arange(a, b), grid.h, k, adjoint)
            assert np.array_equal(got == 0, want == 0)
            seen = want != 0
            assert seen.any()
            assert np.abs(got[seen] / want[seen] - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_direct_evaluation_of_few_cells_equals_tables(self, k, adjoint):
        # the points of one or two cells against every row, as a split
        # apply evaluates the cells a split cuts: bitwise the table
        # values; the lattice's first cell is the adjoint's head strip,
        # cell -1
        T = K.transform
        grid = K.make_halfline_grid(200)
        g, rows = GL_CELL[0].size, np.arange(grid.n)
        tables = T._SineTables(grid, k, adjoint)
        o = tables.origin
        every = tables.sines(tables.views(0, grid.n), 0, (grid.n - 1 - o) * g,
                             np.empty((grid.n, (grid.n - 1 - o) * g)))
        for cells in ([o], [0], [5], [100, 101], [197]):
            c, u = np.repeat(cells, g), np.tile(0.5 + 0.5 * GL_CELL[0], len(cells))
            want = every[:, (cells[0] - o) * g:(cells[-1] + 1 - o) * g]
            assert np.array_equal(T._direct_sines(c, u, rows, grid.h, k, adjoint), want)


    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fused_row_dots_equal_the_sine_blocks(self, k, adjoint, hint):
        # a one-column pass against lattice weights d, over cell ranges at
        # both ends of the lattice (from its origin, the adjoint's head
        # strip) and inside it, against a dense build's sine block times d
        T = K.transform
        grid = K.make_grid(64, hint)
        tables = T._SineTables(grid, k, adjoint)
        g, cells, o = GL_CELL[0].size, T._cells(grid, adjoint), tables.origin
        rng = np.random.default_rng(k + 2 * adjoint)
        for c_lo, c_hi, a, b in ((o, cells - 1, 0, grid.n), (o, 3, 0, 20), (30, 34, 20, 50),
                                 (cells - 4, cells - 1, 40, grid.n), (5, 40, 3, 61)):
            d0 = c_lo
            d = rng.uniform(0.5, 1.5, (c_hi + 1 - c_lo) * g)
            # the cells these rows see
            lo, hi = (c_lo, min(c_hi, b - 3)) if adjoint else (max(c_lo, a + 1), c_hi)
            A = tables.sines(tables.views(a, b), (lo - o) * g, (hi + 1 - o) * g,
                             np.empty((b - a, (hi + 1 - lo) * g)))
            want = A @ d[(lo - d0) * g:(hi + 1 - d0) * g]
            got = tables.dot(a, b, lo, hi, d, d0)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestContractedIntegration:
    """_integrate, the integrator of every quadrature contracted against f,
    and the dense builds, which integrate lattice points alone."""

    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_dense_builds_evaluate_no_point_off_the_lattice(self, monkeypatch, k, adjoint,
                                                            hint):
        # a quadrature without splits, the adjoint's head strip (cell -1)
        # included, lies on the lattice, so M0 reads the sine tables alone
        T = K.transform
        grid, d = K.make_grid(300, hint), k + 2
        want = T._RowBlocks(grid, k, d, adjoint).toarray()

        def refused(*args):
            raise AssertionError("a point off the lattice was evaluated")

        monkeypatch.setattr(T, "_direct_sines", refused)
        assert np.array_equal(T._RowBlocks(grid, k, d, adjoint).toarray(), want)

    @staticmethod
    def _quadratures(grid, k, adjoint, sign=1.0):
        # a split range of f (its cut cells off the lattice) and the plain
        # cells from 0 (the adjoint's head strip) into that range, both
        # contracted against sign f
        T, d = K.transform, k + 2
        r = grid.nodes
        f = K.RadialProfile(grid, sign * np.exp(-0.3 * r) * (1 + np.sin(3 * r)), splits=(0.4,))
        (c0, c1, split), = T._split_quadratures(grid, k, d, f, adjoint)
        plain = T._quadrature(grid, k, d, grid._interp_plain, 0, c0 + 5, (), adjoint)
        assert not split["lattice"].all() and plain["cell"][-1] > c0
        return split, T._contract(plain, f.values)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_overlapping_quadratures_add(self, k, adjoint):
        # to rounding: each row sums hundreds of terms in either order
        T = K.transform
        grid = K.make_halfline_grid(300)
        a, b = self._quadratures(grid, k, adjoint)
        both = T._integrate(grid, k, [a, b], adjoint, 0, grid.n)
        apart = (T._integrate(grid, k, [a], adjoint, 0, grid.n)
                 + T._integrate(grid, k, [b], adjoint, 0, grid.n))
        assert np.abs(apart).max() > 0
        assert np.abs(both - apart).max() <= 4e-15 * np.abs(apart).max()

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_a_quadrature_less_itself_integrates_to_zero(self, k, adjoint):
        T = K.transform
        grid = K.make_halfline_grid(300)
        for plus, minus in zip(self._quadratures(grid, k, adjoint),
                               self._quadratures(grid, k, adjoint, -1.0)):
            one = T._integrate(grid, k, [plus], adjoint, 0, grid.n)
            zero = T._integrate(grid, k, [plus, minus], adjoint, 0, grid.n)
            assert np.abs(zero).max() <= 1e-15 * np.abs(one).max()


def _columns(op, grid, splits):
    # the operator a profile with `splits` sees, one unit vector at a time
    return np.column_stack([op.apply(K.RadialProfile(grid, e, splits=splits))
                            for e in np.eye(grid.n)])


class TestPrefixSums:
    """The k = 2 operator as prefix sums against the dense reference."""

    @pytest.mark.parametrize("splits", [(), (2.0, 7.9), (0.4, 1.7, 1.7001, 6.0)])
    @pytest.mark.parametrize("degree", [7])
    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_matches_dense_reference(self, fresh_cache, adjoint, hint, degree, splits):
        T = fresh_cache
        grid, d = K.make_grid(64, hint), 4
        ref = TestBlockedAssembly._reference(grid, 2, d, adjoint, splits, degree)[0]
        if adjoint:
            op = T._operator(grid, 2, d, True)
            ref *= (grid.nodes ** (2.0 - d))[:, None]
        else:
            op = T._operator(grid, 2, 0, False)
        assert isinstance(op, T._PrefixSums)
        got = _columns(op, grid, splits)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("splits", [(), (0.4, 1.7, 6.0)])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_apply_matches_dense_matvec(self, adjoint, splits):
        # the cumulative sum over 600 rows against the dense assembly and
        # the reference's split part
        T = K.transform
        grid = K.make_halfline_grid(600)
        params = K.make_params(2, 4)
        f = K.RadialProfile(grid, smooth_decaying(params, grid, np.random.default_rng(2)).values,
                            splits=splits)
        op = T._PrefixSums(grid, 4 if adjoint else 0, adjoint)
        want = TestBandedApply._matrix(grid, 2, adjoint) @ f.values
        if splits:
            want += TestBlockedAssembly._split_part(grid, 2, 4, adjoint, splits) @ f.values
        got = op.apply(f)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n", [64, 512])
    def test_discretized_matches_dense_assembly(self, n):
        # every k against the independent reference: k = 2 densifies a
        # _RowBlocks build, the same operator as its prefix sums
        for k in (1, 2, 3):
            M = K.discretize_T_R(K.make_params(k, k + 1), 2.0, n)
            ref = TestBlockedAssembly._reference(K.make_grid(n, 2.0), k, 0, False)[0]
            assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max(), k

    def test_discretized_builds_no_cache_entry(self, fresh_cache):
        T = fresh_cache
        for k in (1, 2, 3):
            K.discretize_T_R(K.make_params(k, k + 1), 2.0, 64)
        info = T.cache_info()
        assert all(info[kind]["builds"] == info[kind]["entries"] == 0 for kind in info)

    def test_add_stencils_bitwise_equal_to_scattered_sums(self):
        # the bincount sums against np.add.at, stencil by stencil in order
        T = K.transform
        for grid in (K.make_halfline_grid(600), K.make_grid(300, 8.0)):
            for adjoint in (False, True):
                n = grid.n
                q = T._quadrature(grid, 2, 4, grid._interp_plain, 0, T._cells(grid, adjoint) - 1,
                                  (), adjoint)
                for keys, idx, w in ((q["cell"] + adjoint, q["sidx"], q["base"][:, None] * q["sw"]),
                                     (q["rows"], q["idx"], q["w"])):
                    size = keys.max() + 1
                    band = (np.zeros(size, dtype=int), np.zeros((size, 9)))
                    T._add_stencils(band, keys, idx, w, n)
                    lo, want = np.zeros(size, dtype=int), np.zeros((size, 9))
                    first = np.full(size, n)
                    np.minimum.at(first, keys, idx.min(axis=1))
                    present = first < n
                    lo[present] = np.minimum(first[present], n - 9)
                    np.add.at(want, (keys[:, None], idx - lo[keys, None]), w)
                    assert np.array_equal(band[0], lo)
                    assert np.array_equal(band[1], want)

    def test_apply_holds_no_matrix_and_build_reserves_what_it_holds(self, fresh_cache,
                                                                    monkeypatch):
        T = fresh_cache
        grid = K.make_halfline_grid(300)
        need = T._operator_bytes(grid.n, 2)
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", 2 * need)
        monkeypatch.setattr(T, "_dense", None)   # any dense allocation fails
        params = K.make_params(2, 4)
        f = K.extremizer_profile(params, 1.0, grid)
        K.apply_T(params, f)
        K.apply_T_adjoint(params, K.RadialProfile(grid, f.values, splits=(0.5, 2.0)))
        assert [key[0] for key in T._MATRIX_CACHE] == ["fwd", "adj"]
        assert sum(v.nbytes for v in T._MATRIX_CACHE.values()) <= 2 * need


class TestOneShotApply:
    """_apply_T_once integrates T f directly, with no M0 formed: the same
    result as apply_T to rounding, and nothing cached."""

    GRIDS = {"half257": lambda: K.make_halfline_grid(257),
             "half1000": lambda: K.make_halfline_grid(1000),
             "half2048": lambda: K.make_halfline_grid(2048),
             "trunc600": lambda: K.make_grid(600, 5.0)}

    @staticmethod
    def _profiles(params, grid):
        r = grid.nodes
        rng = np.random.default_rng(grid.n + params.k)
        return {"h": K.extremizer_profile(params, 0.7, grid),
                "smooth": smooth_decaying(params, grid, rng),
                "random": K.RadialProfile(grid, rng.standard_normal(grid.n)),
                "split": K.RadialProfile(grid, np.where(r < 1.1, 1.0, 0.4) * np.exp(-0.3 * r),
                                         splits=(1.1, 2.7))}

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("k,d", [(1, 3), (3, 4), (4, 5), (1, 2)])
    def test_matches_apply_T(self, fresh_cache, grid, k, d):
        T = fresh_cache
        params, grid = K.make_params(k, d), self.GRIDS[grid]()
        profiles = self._profiles(params, grid)
        once = {name: T._apply_T_once(params, f) for name, f in profiles.items()}
        for name, f in profiles.items():
            want, got = K.apply_T(params, f), once[name]
            scale = np.abs(want.values).max()
            assert np.abs(got.values - want.values).max() <= 1e-13 * scale, name
            assert got.meta["tail_warning"] == want.meta["tail_warning"], name
            assert got.meta["tail_fraction"] == pytest.approx(want.meta["tail_fraction"],
                                                              rel=1e-12, abs=0.0), name

    def test_clamps_a_nonnegative_profile_at_zero(self, fresh_cache):
        T = fresh_cache
        params, grid = K.make_params(1, 3), K.make_halfline_grid(257)
        f = K.RadialProfile(grid, np.where(grid.nodes < 1.0, 1.0, 0.0), splits=(1.0,))
        got, want = T._apply_T_once(params, f), K.apply_T(params, f)
        assert got.values.min() >= 0.0
        assert np.abs(got.values - want.values).max() <= 1e-13 * want.values.max()

    @pytest.mark.parametrize("grid", ["half1000", "trunc600"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_bitwise_equal_for_any_worker_count(self, fresh_cache, monkeypatch, k, grid):
        T = fresh_cache
        params, grid = K.make_params(k, k + 2), self.GRIDS[grid]()
        f = self._profiles(params, grid)["split"]
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(T, "_workers", lambda jobs, w=workers: min(w, jobs))
                got.append(T._apply_T_once(params, f).values)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(v, got[0]) for v in got[1:])

    @pytest.mark.parametrize("grid", ["half1000", "trunc600"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_column_outputs_form_no_sine_block(self, fresh_cache, monkeypatch, k, grid):
        # the one-shot T f and the split ranges of a dense M0's apply, both
        # directions, integrate one column each by fused row-dots: with the
        # dense build's sine blocks refused, both still give apply_T's values
        T = fresh_cache
        params, grid = K.make_params(k, k + 2), self.GRIDS[grid]()
        f = self._profiles(params, grid)["split"]
        want = K.apply_T(params, f).values
        operators = T._operator(grid, k, 0, False), T._operator(grid, k, k + 2, True)
        applied = [M.apply(f) for M in operators]
        T._MATRIX_CACHE.clear()         # so _apply_T_once integrates T f itself

        def refused(self, *args):
            raise AssertionError("a block of sine factors was formed")

        monkeypatch.setattr(T._SineTables, "sines", refused)
        once = T._apply_T_once(params, f).values
        assert T.cache_info()["fwd"]["entries"] == 0
        assert np.abs(once - want).max() <= 1e-13 * np.abs(want).max()
        assert all(np.array_equal(M.apply(f), v) for M, v in zip(operators, applied))

    def test_builds_and_caches_nothing(self, fresh_cache):
        T = fresh_cache
        params = K.make_params(3, 4)
        grid = K.make_halfline_grid(1000)
        for f in self._profiles(params, grid).values():
            T._apply_T_once(params, f)
        info = T.cache_info()
        assert all(info[kind]["builds"] == info[kind]["entries"] == 0 for kind in info)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_with_m0_cached_is_apply_T(self, fresh_cache, k):
        T = fresh_cache
        params = K.make_params(k, k + 2)
        grid = K.make_halfline_grid(1000)
        profiles = self._profiles(params, grid)
        K.apply_T(params, profiles["h"])
        for f in profiles.values():
            assert np.array_equal(T._apply_T_once(params, f).values,
                                  K.apply_T(params, f).values)
        assert T.cache_info()["fwd"]["builds"] == 1

    def test_refuses_a_grid_over_the_dense_budget(self, fresh_cache, monkeypatch):
        T = fresh_cache
        monkeypatch.setattr(T, "DENSE_BUDGET_BYTES", 8 * 100 * 100)
        params = K.make_params(1, 3)
        with pytest.raises(K.ConfigurationError, match="budget"):
            T._apply_T_once(params, K.extremizer_profile(params, 1.0, K.make_halfline_grid(101)))

    TRIM_GRIDS = {"half600": lambda: K.make_halfline_grid(600),
                  "trunc600": lambda: K.make_grid(600, 5.0)}

    @staticmethod
    def _supports(n):
        # the node range [j0, j1] of each profile's nonzero samples
        return {"tail": (n // 3, n - 1), "head": (0, n // 2), "window": (n // 4, n // 2),
                "node": (n // 2, n // 2), "near_start": (3, n // 2),
                "near_end": (n // 2, n - 4), "node_at_start": (5, 5),
                "node_at_end": (n - 8, n - 8), "full": (8, n - 9), "zero": None}

    @classmethod
    def _trim_profiles(cls, grid, split):
        # a smooth decay cut to each support; with `split`, split at the
        # radii halfway to the nodes beyond the support's ends
        r = grid.nodes
        out = {}
        for name, support in cls._supports(grid.n).items():
            vals, splits = np.zeros(grid.n), ()
            if support is not None:
                j0, j1 = support
                vals[j0:j1 + 1] = (1.5 + np.sin(r[j0:j1 + 1])) / (1.0 + r[j0:j1 + 1] ** 2)
                if split:
                    splits = tuple(0.5 * (r[j] + r[j + 1]) for j in (j0 - 1, j1)
                                   if 0 <= j < grid.n - 1)
            out[name] = K.RadialProfile(grid, vals, splits=splits)
        return out

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("grid", TRIM_GRIDS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_trimmed_to_the_support_matches_apply_T(self, fresh_cache, monkeypatch, k, grid,
                                                    split):
        # only the cells whose stencils can read a nonzero sample are
        # planned, through the last cell when the samples come within a
        # stencil's reach of the end, and all of them for samples that near
        # both ends; the rows past them stay exactly 0
        T = fresh_cache
        params, grid = K.make_params(k, k + 2), self.TRIM_GRIDS[grid]()
        profiles = self._trim_profiles(grid, split)
        planned, quadrature = [], T._quadrature

        def spying(grid, k, d, interp, c0, c1, splits_r, adjoint):
            planned[-1].append((c0, c1))
            return quadrature(grid, k, d, interp, c0, c1, splits_r, adjoint)

        monkeypatch.setattr(T, "_quadrature", spying)
        once = {}
        for name, f in profiles.items():
            planned.append([])
            once[name] = T._apply_T_once(params, f)
        monkeypatch.setattr(T, "_quadrature", quadrature)
        # each profile's blocks follow one another over its span
        assert all(b[0] == a[1] + 1 for blocks in planned for a, b in zip(blocks, blocks[1:]))
        spans = [(blocks[0][0], blocks[-1][1]) for blocks in planned if blocks]
        reach, last = INTERP_DEGREE + 1, T._cells(grid, False) - 1
        want_spans = [(max(j0 - reach, 0), min(j1 + reach, last))
                      for j0, j1 in filter(None, self._supports(grid.n).values())]
        assert spans == want_spans and spans[-1] == (0, last)    # "full"
        assert T.cache_info()["fwd"]["builds"] == 0
        for (name, f), support in zip(profiles.items(), self._supports(grid.n).values()):
            want, got = K.apply_T(params, f), once[name]
            if support is None:
                assert not got.values.any() and not want.values.any(), name
                continue
            scale = np.abs(want.values).max()
            assert np.abs(got.values - want.values).max() <= 1e-13 * scale, name
            assert not got.values[support[1] + reach + 1:].any(), name
            assert got.meta["tail_warning"] == want.meta["tail_warning"], name
            assert got.meta["tail_fraction"] == pytest.approx(want.meta["tail_fraction"],
                                                              rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize("n", [512, 2048])
    def test_far_profile_matches_its_closed_form(self, fresh_cache, n):
        # (1,3): psi_c = u^-2 1_{u >= c}, split at c, has T psi_c(r) =
        # int_{max(r, c)}^inf du / (u sqrt(u^2 - r^2)) = arcsin(min(r / c, 1)) / r
        T = fresh_cache
        params, grid = K.make_params(1, 3), K.make_halfline_grid(n)
        r = grid.nodes
        for c in (1.5, 3.0, 5.0, 9.0, 17.0, 33.0):
            psi = K.RadialProfile(grid, np.where(r >= c, r ** -2.0, 0.0), splits=(c,))
            want = np.arcsin(np.minimum(r / c, 1.0)) / r
            got = T._apply_T_once(params, psi).values
            assert np.abs(got - want).max() <= 5e-14 * want.max(), c
        assert T.cache_info()["fwd"]["builds"] == 0


class TestQuadratureBlocks:
    """A whole grid's quadrature is planned one block of _BUILD_CELLS cells
    at a time: the joined blocks are the whole grid's _quadrature point for
    point, so T f and every M0 are bitwise those of a single block."""

    GRIDS = {"half600": lambda: K.make_halfline_grid(600),
             "trunc600": lambda: K.make_grid(600, 5.0)}

    @staticmethod
    def _splits(grid, where):
        # a split radius inside cell 200, within the block of cells 128..255,
        # or inside cell 256, the first cell of a block (blocks of 128 cells)
        th = grid.theta_nodes
        cell = {"none": None, "inside": 200, "first": 256}[where]
        return () if cell is None else (math.tan(0.5 * (th[cell] + th[cell + 1])),)

    @pytest.mark.parametrize("where", ["none", "inside", "first"])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_joined_blocks_are_the_whole_grid_quadrature(self, monkeypatch, k, grid, adjoint,
                                                         where):
        # with a split, the whole grid's quadrature with it is the joined
        # plain blocks outside the split's range, point for point, and the
        # range's own quadrature (what _split_quadratures plans) inside it
        T = K.transform
        monkeypatch.setattr(T, "_BUILD_CELLS", 128)
        grid = self.GRIDS[grid]()
        splits = self._splits(grid, where)
        interp = SegmentedInterp(grid.theta_nodes, grid.h, [math.atan(s) for s in splits])
        blocks = list(T._quadrature_blocks(grid, k, k + 2, adjoint))
        assert len(blocks) == 5
        whole = T._quadrature(grid, k, k + 2, interp, 0, T._cells(grid, adjoint) - 1, splits,
                              adjoint)
        joined = T._concatenate(blocks)
        kept, clusters = T._split_clusters(grid, splits, adjoint)
        assert len(clusters) == (where != "none")
        part = {key: value[:0] for key, value in whole.items()}
        for c0, c1 in clusters:
            part = T._quadrature(grid, k, k + 2, interp, c0, c1, kept, adjoint)
            # the split cuts a cell: the range holds more points than plain
            assert part["u"].size > np.isin(joined["cell"], part["cell"]).sum()
        assert joined.keys() == whole.keys() == part.keys()
        for key, value in whole.items():
            # interior points go by cell, edge points by row
            by = "rows" if key in ("rows", "idx", "w") else "cell"
            mine, theirs = np.isin(whole[by], part[by]), np.isin(joined[by], part[by])
            assert value.dtype == joined[key].dtype == part[key].dtype, key
            assert np.array_equal(value[~mine], joined[key][~theirs]), key
            assert np.array_equal(value[mine], part[key]), key

    @pytest.mark.parametrize("where", ["none", "inside", "first"])
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_shot_bitwise_equal_for_any_block_size(self, fresh_cache, monkeypatch, k, grid,
                                                       where):
        T = fresh_cache
        params, grid = K.make_params(k, k + 2), self.GRIDS[grid]()
        splits = self._splits(grid, where)
        r = grid.nodes
        cut = splits[0] if splits else math.inf
        f = K.RadialProfile(grid, np.where(r < cut, 1.0, 0.4) * np.exp(-0.3 * r), splits=splits)
        got = []
        for cells in (128, grid.n):
            monkeypatch.setattr(T, "_BUILD_CELLS", cells)
            got.append(T._apply_T_once(params, f).values)
        assert np.array_equal(got[0], got[1])
        assert T.cache_info()["fwd"]["builds"] == 0

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("k", [1, 3])
    def test_assembly_bitwise_equal_for_any_block_size(self, monkeypatch, k, grid, adjoint):
        T = K.transform
        grid = self.GRIDS[grid]()
        got = []
        for cells in (128, grid.n):
            monkeypatch.setattr(T, "_BUILD_CELLS", cells)
            got.append(T._RowBlocks(grid, k, k + 2, adjoint).toarray())
        assert np.array_equal(got[0], got[1])

    def test_plan_of_whole_stencils_equals_the_per_length_plan(self):
        # a split before the last node leaves a 2-node segment, so that plan
        # groups queries by stencil length; queries far from it take whole
        # stencils either way, bitwise those of the plan without splits
        grid = K.make_halfline_grid(300)
        th = grid.theta_nodes
        split = SegmentedInterp(grid.theta_nodes, grid.h, [0.5 * (th[-3] + th[-2])])
        plain = SegmentedInterp(grid.theta_nodes, grid.h)
        thq = np.random.default_rng(3).uniform(0.0, th[-20], 4000)
        (idx, w), (idx_ref, w_ref) = plain.plan(thq), split.plan(thq)
        assert np.array_equal(idx, idx_ref) and np.array_equal(w, w_ref)
        assert w.flags.c_contiguous

    def test_one_shot_workers_hold_no_edge_band(self, fresh_cache, monkeypatch):
        # the edge weights are summed by row once, on the calling thread;
        # summed per worker by row and column less row, 256 x 256 doubles,
        # they took the peak up by 0.9 MiB per added worker at n = 2048. A
        # worker holds one pass's row sums, and at n = 2048 the peak does not
        # grow with the workers
        import tracemalloc
        T = fresh_cache
        params, grid = K.make_params(1, 3), K.make_halfline_grid(2048)
        f = K.extremizer_profile(params, 1.0, grid)
        T._apply_T_once(params, f)       # the sine tables, kept per grid
        peaks = {}
        for workers in (1, 4):
            monkeypatch.setattr(T, "_workers", lambda jobs, w=workers: min(w, jobs))
            tracemalloc.start()
            try:
                T._apply_T_once(params, f)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[4] - peaks[1]) / 3 < 0.55 * 2 ** 20, (peaks[4] - peaks[1]) / 3 / 2 ** 20

    def test_one_shot_holds_one_block_of_stencils(self, fresh_cache, monkeypatch):
        # the whole grid's stencils alone, 16 n points of 8 indices and 8
        # weights, are 8 MiB at n = 4096; the workers fixed at two, as each
        # holds a buffer of its own
        import tracemalloc
        T = fresh_cache
        monkeypatch.setattr(T, "_workers", lambda jobs: min(2, jobs))
        params, grid = K.make_params(1, 3), K.make_halfline_grid(4096)
        f = K.extremizer_profile(params, 1.0, grid)
        tracemalloc.start()
        try:
            T._apply_T_once(params, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20, peak / 2 ** 20


class TestTailMetadata:
    """On half-line grids tail_fraction is the last cell's share of row 0,
    and tail_warning compares the degree-7 and degree-5 extrapolations of
    g = f sec^{k+1} over that cell: f = (1 + r^2)^{-a/2} has g = cos^{a-k-1},
    smooth at pi/2 for integer a and with a branch point there otherwise."""

    @staticmethod
    def _decay(k, a, n=512):
        params, grid = K.make_params(k, k + 1), K.make_halfline_grid(n)
        return params, K.RadialProfile(grid, (1 + grid.nodes ** 2) ** (-a / 2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_warning_on_non_integer_decay_alone(self, k):
        for step in (0.75, 1.5):
            assert K.apply_T(*self._decay(k, k + step)).meta["tail_warning"], step
        for step in (1, 2, 3, 4):
            assert not K.apply_T(*self._decay(k, k + step)).meta["tail_warning"], step

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fraction_is_the_last_cells_share_of_row_0(self, k):
        T = K.transform
        for a in (k + 1, k + 1.5, k + 3):
            params, f = self._decay(k, a)
            grid, n = f.grid, f.grid.n
            tf = K.apply_T(params, f)
            # the last cell alone, integrated into row 0 as the operator does
            q = T._quadrature(grid, k, 0, grid._interp_plain, n - 1, n - 1, (), False)
            row0 = np.zeros((1, n))
            T._accumulate([(0, 0, row0)], grid, k, q, False)
            share = abs(row0[0] @ f.values) / np.abs(tf.values).max()
            assert tf.meta["tail_fraction"] == pytest.approx(share, rel=1e-12), a

    def test_a_split_among_the_last_nodes_keeps_its_segment(self):
        # h cut at r = 256, between the third and second last nodes of a
        # 1024-point grid: the last cell extrapolates the zero segment
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.0, K.make_halfline_grid(1024))
        cut = K.truncate(params, h, 256.0)[0]
        meta = K.apply_T(params, cut).meta
        assert meta == {"tail_fraction": 0.0, "tail_warning": False}


class TestProfileMeta:
    def test_each_key_has_one_producer(self):
        params = K.make_params(1, 3)
        f = K.extremizer_profile(params, 1.0, K.make_halfline_grid(256))
        ball = K.indicator_profile(f.grid, K.IntervalSet(((0.0, 1.0),)))
        assert f.meta == {} and ball.meta == {}
        # apply_T of a sampled profile: the last cell's share and its warning
        assert set(K.apply_T(params, f).meta) == {"tail_fraction", "tail_warning"}
        trunc = K.extremizer_profile(params, 1.0, K.make_grid(256, 8.0))
        assert set(K.apply_T(params, trunc).meta) == {"tail_fraction", "tail_warning"}
        # an indicator's closed-form transform, also when scaled
        assert K.apply_T(params, ball).meta == {"exact": True}
        assert K.apply_T(params, ball.scaled(2.0)).meta == {"exact": True}
        # both halves of a truncation
        g, eps = K.truncate(params, f, 2.0)
        assert g.meta == eps.meta == {"truncation_level": 2.0}
        # and nothing else sets one
        assert K.apply_T_adjoint(params, f).meta == {}
        assert K.dilate_profile(params, f, 2.0).meta == {}


class TestBandedApply:
    """The warm apply reads only the columns `_band` gives for each row block;
    every entry it skips is exactly zero."""

    @staticmethod
    def _matrix(grid, k, adjoint, degree=INTERP_DEGREE):
        # M0 as a dense matrix; below INTERP_DEGREE, the same operator of a
        # quadrature whose stencils span degree + 1 nodes
        T, d = K.transform, k + 2 if adjoint else 0
        if degree == INTERP_DEGREE:
            return T._RowBlocks(grid, k, d, adjoint).toarray()
        interp = SegmentedInterp(grid.theta_nodes, grid.h, degree=degree)
        q = T._quadrature(grid, k, d, interp, 0, T._cells(grid, adjoint) - 1, (), adjoint)
        M = np.zeros((grid.n, grid.n))
        T._accumulate([(0, 0, M)], grid, k, q, adjoint,
                      grid.nodes ** (2.0 - d) if adjoint else None)
        return M

    @pytest.mark.parametrize("hint", [float("inf"), 8.0])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("degree", [1, 3, INTERP_DEGREE])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_skipped_entries_are_zero(self, k, degree, adjoint, hint):
        # the band bounds every stencil of up to INTERP_DEGREE + 1 nodes
        grid = K.make_grid(67, hint)
        M = self._matrix(grid, k, adjoint, degree)
        assert M.any()
        # row by row: a block's columns are the union of its rows' columns
        for i in range(grid.n):
            c0, c1 = K.transform._band(grid.n, i, i + 1, adjoint)
            assert not M[i, :c0].any() and not M[i, c1:].any(), (i, c0, c1)
        # and the band is tight enough to matter
        kept = sum(np.subtract(*K.transform._band(grid.n, i, i + 1, adjoint)[::-1])
                   for i in range(grid.n))
        assert kept < 0.65 * grid.n ** 2

    @pytest.mark.parametrize("splits,rows", [((), None), ((0.4, 1.7, 6.0), None),
                                             ((), 5), ((0.4, 1.7, 6.0), 5)],
                             ids=["splits0", "splits1", "splits0-rows5", "splits1-rows5"])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_full_matvec(self, monkeypatch, k, adjoint, splits, rows):
        # 600 rows: two full row blocks of _TILE_ROWS and a partial one, or
        # blocks of 5 rows that end inside the band
        T = K.transform
        if rows is not None:
            monkeypatch.setattr(T, "_TILE_ROWS", rows)
        grid = K.make_halfline_grid(600)
        params = K.make_params(k, k + 2)
        f = K.RadialProfile(grid, smooth_decaying(params, grid, np.random.default_rng(k)).values,
                            splits=splits)
        M = self._matrix(grid, k, adjoint)
        want = M @ f.values
        if splits:
            want += TestBlockedAssembly._split_part(grid, k, k + 2, adjoint, splits) @ f.values
        op = T._RowBlocks(grid, k, k + 2 if adjoint else 0, adjoint)
        got = op.apply(f)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestThreadedBuild:
    """A dense M0's row blocks are built on worker threads: each block by one
    thread in one operation order, so M0 is the same for any worker count."""

    @staticmethod
    def _counting_threads(monkeypatch):
        # the threads a build starts, recorded by a Thread that counts
        import threading
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(K.transform.threading, "Thread", Counted)
        return started

    @pytest.mark.parametrize("grid", ["half257", "half1000", "trunc600"])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_operator_bitwise_equal_for_any_worker_count(self, monkeypatch, k, adjoint, grid):
        T = K.transform
        grid = {"half257": K.make_halfline_grid(257), "half1000": K.make_halfline_grid(1000),
                "trunc600": K.make_grid(600, 5.0)}[grid]
        started = self._counting_threads(monkeypatch)
        built = []
        # more workers than the two cores of a small host, switching often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(T, "_workers", lambda jobs, w=workers: min(w, jobs))
                del started[:]
                M = T._RowBlocks(grid, k, k + 2 if adjoint else 0, adjoint)
                assert len(started) == min(workers, len(M.blocks)) - 1
                assert not any(thread.is_alive() for thread in started)
                built.append(M.toarray())
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(M, built[0]) for M in built[1:])

    def test_discretized_bitwise_equal_for_any_worker_count(self, monkeypatch):
        T = K.transform
        params = K.make_params(1, 3)
        built = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(T, "_workers", lambda jobs, w=workers: min(w, jobs))
            built.append(K.discretize_T_R(params, 2.0, 600))
        assert all(np.array_equal(M, built[0]) for M in built[1:])

    @pytest.mark.parametrize("raising", ["worker", "caller"])
    def test_a_raising_thread_fails_the_build_and_stores_nothing(self, fresh_cache,
                                                                 monkeypatch, raising):
        import threading
        T = fresh_cache
        monkeypatch.setattr(T, "_workers", lambda jobs: min(2, jobs))
        sines = T._SineTables.sines
        # each thread's first block waits until the other thread has one too
        both_started, waited = threading.Barrier(2, timeout=30), set()

        def failing(self, *args):
            if threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                both_started.wait()
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == (raising == "worker"):
                raise RuntimeError(f"{raising} failed")
            return sines(self, *args)

        monkeypatch.setattr(T._SineTables, "sines", failing)
        grid = K.make_halfline_grid(1024)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{raising} failed"):
            T._operator(grid, 1, 0, False)
        assert threading.active_count() == before
        info = T.cache_info()["fwd"]
        assert info["entries"] == 0 and info["builds"] == 0
        monkeypatch.setattr(T._SineTables, "sines", sines)
        M = T._operator(grid, 1, 0, False)
        assert T.cache_info()["fwd"]["builds"] == 1
        assert np.array_equal(M.toarray(), T._RowBlocks(grid, 1, 0, False).toarray())

    def test_one_worker_starts_no_thread(self, monkeypatch):
        monkeypatch.setenv("KPLANE_THREADS", "1")
        started = self._counting_threads(monkeypatch)
        M = K.transform._RowBlocks(K.make_halfline_grid(1000), 1, 0, False)
        assert len(M.blocks) == 4 and started == []

    def test_idle_workers_allocate_no_buffers(self, monkeypatch):
        # T f's first _TILE_ROWS rows integrated in one pass, one job: with
        # three workers more than that, the idle ones take no job and
        # allocate nothing while the calling thread runs its fused pass
        import threading
        import time
        import tracemalloc
        T = K.transform
        params, grid = K.make_params(1, 3), K.make_halfline_grid(1024)
        q = T._quadrature(grid, 1, 0, grid._interp_plain, 0, T._cells(grid, False) - 1, (), False)
        q = T._contract(q, K.extremizer_profile(params, 1.0, grid).values)
        rows = 0, T._TILE_ROWS
        want = T._integrate(grid, 1, [q], False, *rows)     # and the sine tables, kept per grid
        dot, live, holding = T._SineTables.dot, threading.active_count(), threading.Event()
        grown = []

        class AfterTheJob(threading.Thread):
            # a worker thread looks for a job only once the calling thread
            # has taken the one job and holds its buffers
            def run(self):
                holding.wait(timeout=30)
                super().run()

        def until_the_others_end(self, *args):
            # what the traced memory grows by while the idle threads run
            if not holding.is_set():
                tracemalloc.reset_peak()
                holding.set()
                deadline = time.monotonic() + 30
                while threading.active_count() > live and time.monotonic() < deadline:
                    time.sleep(1e-3)
                now, peak = tracemalloc.get_traced_memory()
                grown.append(peak - now)
            return dot(self, *args)

        monkeypatch.setattr(T.threading, "Thread", AfterTheJob)
        monkeypatch.setattr(T._SineTables, "dot", until_the_others_end)
        monkeypatch.setattr(T, "_workers", lambda jobs: jobs + 3)
        tracemalloc.start()
        try:
            out = T._integrate(grid, 1, [q], False, *rows)
        finally:
            tracemalloc.stop()
        assert threading.active_count() == live
        assert np.array_equal(out, want)
        assert len(grown) == 1 and grown[0] < 64 * 2 ** 10, grown

    def test_a_thread_that_cannot_start_leaves_the_jobs_to_the_others(self, monkeypatch):
        import threading
        T = K.transform
        grid = K.make_halfline_grid(1000)
        want = T._RowBlocks(grid, 1, 0, False).toarray()

        class Unstartable(threading.Thread):
            def start(self):
                raise RuntimeError("can't start new thread")

        monkeypatch.setattr(T, "_workers", lambda jobs: min(3, jobs))
        monkeypatch.setattr(T.threading, "Thread", Unstartable)
        assert np.array_equal(T._RowBlocks(grid, 1, 0, False).toarray(), want)

    def test_worker_count(self, monkeypatch):
        import os
        T = K.transform
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.delenv("KPLANE_THREADS", raising=False)
        assert [T._workers(jobs) for jobs in (1, 3, 8)] == [1, 3, 4]
        # a digit outside ASCII, which int() refuses, is no cap
        for cap, want in (("2", 2), ("1", 1), ("0", 4), ("many", 4), ("²", 4)):
            monkeypatch.setenv("KPLANE_THREADS", cap)
            assert T._workers(8) == want, cap
        # without an affinity mask, the CPUs os.cpu_count gives
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delenv("KPLANE_THREADS")
        assert T._workers(8) == 3
