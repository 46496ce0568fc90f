import math

import numpy as np
import pytest

import kplane as K

from conftest import smooth_decaying

# Phi(h) from the Beta-integral oracle, frozen with sympy:
#   ||h||_p^p   = B(d/2, 1/2)/2
#   ||T h||_q^q = c_k^q * B((d-k)/2, (k+1)/2)/2
PHI_ORACLE = {
    (1, 3): 1.49045008942909,
    (2, 3): 1.12837916709551,
    (1, 4): 1.48296919491497,
    (2, 4): 1.02383625553961,
    (3, 4): 1.0017160603436,
}


class TestSphereArea:
    def test_known_values(self):
        assert K.sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
        assert K.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
        assert K.sphere_area(1) == pytest.approx(2.0, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(K.ParameterError):
            K.sphere_area(0)


class TestConstantA:
    def test_k1_d2(self):
        got = K.constant_A(K.make_params(1, 2))
        assert got == pytest.approx((math.pi / 2) ** (1 / 3), rel=1e-13)

    def test_k2_d3(self):
        # [2^{-1} (4 pi)^3 / (2 pi^2)^2]^{1/4} = (8/pi)^{1/4}
        got = K.constant_A(K.make_params(2, 3))
        assert got == pytest.approx((8 / math.pi) ** 0.25, rel=1e-13)

    def test_positive_everywhere(self):
        for d in range(2, 7):
            for k in range(1, d):
                assert K.constant_A(K.make_params(k, d)) > 0


class TestExtremizerProfile:
    def test_point_values(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        h = K.extremizer_profile(params, 1.0, g)
        assert h(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-10)
        assert h(np.array([1.0]))[0] == pytest.approx(0.5, rel=1e-8)

    def test_norm_dilation_invariant(self, grids):
        params = K.make_params(2, 4)
        g = grids["half4096"]
        norms = [K.weighted_lp_norm(K.extremizer_profile(params, lam, g),
                                    params.a_domain, params.pf)
                 for lam in (0.25, 1.0, 4.0)]
        for nv in norms[1:]:
            assert nv == pytest.approx(norms[0], rel=1e-10)


class TestFunctionalRatio:
    def test_scaling_invariance(self, grids):
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.0, grids["half1024"])
        base = K.functional_ratio(params, h)
        assert K.functional_ratio(params, h.scaled(7.5)) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("k,d", sorted(PHI_ORACLE))
    def test_matches_beta_oracle(self, grids, k, d):
        params = K.make_params(k, d)
        h = K.extremizer_profile(params, 1.0, grids["half2048"])
        assert K.functional_ratio(params, h) == pytest.approx(PHI_ORACLE[(k, d)], rel=1e-8)

    def test_zero_profile_rejected(self, grids):
        params = K.make_params(1, 3)
        z = K.RadialProfile(grids["half1024"], np.zeros(1024))
        with pytest.raises(K.DomainError):
            K.functional_ratio(params, z)


class TestConstantB:
    def test_b24_closed_form(self):
        got, err = K.constant_B_with_error(K.make_params(2, 4), resolution=2048)
        target = (1 / 3) ** 0.2 / (2 / 3) ** 0.6
        assert got == pytest.approx(target, rel=1e-8)
        assert err < 1e-8

    def test_dilation_independence(self, grids):
        params = K.make_params(2, 3)
        g = grids["half4096"]
        b = K.constant_B(params, resolution=4096)
        for lam in (0.25, 4.0):
            phi = K.functional_ratio(params, K.extremizer_profile(params, lam, g))
            assert phi == pytest.approx(b, rel=1e-8)

    def test_bounds_random_profiles(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        b = K.constant_B(params, resolution=2048)
        rng = np.random.default_rng(21)
        for _ in range(25):
            f = smooth_decaying(params, g, rng)
            assert K.functional_ratio(params, f) <= b * (1 + 1e-4)


class TestSearch:
    def test_extremizer_is_stationary(self, grids):
        params = K.make_params(2, 3)
        h = K.extremizer_profile(params, 1.0, grids["half1024"])
        trace = K.search_extremizer(params, h, max_iter=2, tol=1e-12)
        assert abs(trace.iterates[1] - trace.iterates[0]) < 1e-6

    def test_converges_from_indicator(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        init = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        trace = K.search_extremizer(params, init, max_iter=200, tol=1e-9)
        assert trace.converged
        b = K.constant_B(params, resolution=2048)
        assert trace.iterates[-1] >= (1 - 1e-3) * b
        diffs = np.diff(trace.iterates)
        assert (diffs >= -1e-9 * np.array(trace.iterates[1:])).all()

    def test_signed_init_rejected(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        vals = np.ones(g.n)
        vals[10] = -0.5
        with pytest.raises(K.DomainError):
            K.search_extremizer(params, K.RadialProfile(g, vals))

    def test_ascent_guard_raises_on_broken_adjoint(self, grids, monkeypatch):
        # a corrupted gradient must trip the monotone-ascent anomaly guard,
        # not silently degrade the trace
        import kplane.extremal as extremal
        params = K.make_params(1, 3)
        g = grids["half1024"]

        def bad_adjoint(p, prof):
            rng = np.random.default_rng(0)
            return K.RadialProfile(g, rng.uniform(0, 1, g.n) * (g.nodes < 2.0))

        monkeypatch.setattr(extremal, "apply_T_adjoint", bad_adjoint)
        init = K.extremizer_profile(params, 1.0, g)
        with pytest.raises(K.IterationAnomalyError):
            extremal.search_extremizer(params, init, max_iter=10, tol=1e-10)

    def test_dilates_only_to_recenter(self, grids, monkeypatch):
        # the search reads the mass median to decide on re-centering; the only
        # dilation it makes is the re-centering itself
        import kplane.extremal as extremal
        import kplane.symmetry as symmetry
        calls = []
        dilate = symmetry.dilate_profile

        def counting_dilate(params, f, lam):
            calls.append(lam)
            return dilate(params, f, lam)

        monkeypatch.setattr(symmetry, "dilate_profile", counting_dilate)
        monkeypatch.setattr(extremal, "dilate_profile", counting_dilate)
        params = K.make_params(1, 3)
        g = grids["half1024"]
        init = K.RadialProfile(g, np.exp(-g.nodes ** 2 / 30.0))
        trace = K.search_extremizer(params, init, max_iter=60)
        assert trace.converged and trace.recentered_steps
        assert len(calls) == len(trace.recentered_steps)

    @pytest.mark.parametrize("k,d,phi", [(1, 3, PHI_ORACLE[(1, 3)]), (1, 2, math.pi / 2)])
    def test_converges_from_dilated_start(self, k, d, phi):
        # the start's median sits far from r = 1, so step 1 re-centres it; the
        # ascent check must compare the candidate in the previous iterate's
        # dilation frame, where the scale-dependent quadrature error cancels
        params = K.make_params(k, d)
        init = K.extremizer_profile(params, 4.0, K.make_halfline_grid(512))
        trace = K.search_extremizer(params, init)
        assert trace.converged and 1 in trace.recentered_steps
        assert not trace.damped_steps
        assert trace.iterates[-1] == pytest.approx(phi, rel=1e-6)
