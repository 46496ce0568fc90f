import math

import numpy as np
import pytest

import kplane as K

from conftest import beta, smooth_decaying

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


SEVEN_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4)]


def phi_oracle(k, d):
    """Phi(h) = ||T h||_q / ||h||_p from the Beta integrals above."""
    p, q = (d + 1) / (k + 1), d + 1
    return ((beta(k / 2, 0.5) / 2) ** q * beta((d - k) / 2, (k + 1) / 2) / 2) ** (1 / q) \
        / (beta(d / 2, 0.5) / 2) ** (1 / p)


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


class TestLatticeNormRule:
    """The norms' trapezoid rule over the theta lattice with Gregory end
    corrections: Phi(h) to about 1e-11 from n = 512, at every scale."""

    @pytest.mark.parametrize("n,tol", [(512, 2e-11), (1024, 5e-12)])
    @pytest.mark.parametrize("k,d", SEVEN_PAIRS)
    def test_phi_of_the_extremizer(self, k, d, n, tol):
        # (512 - 1) mod 6 = 1: a size at which composite Newton-Cotes-6
        # panels need a low-order remainder panel
        params = K.make_params(k, d)
        h = K.extremizer_profile(params, 1.0, K.make_halfline_grid(n))
        assert abs(K.functional_ratio(params, h) / phi_oracle(k, d) - 1) < tol

    @pytest.mark.parametrize("k,d", SEVEN_PAIRS)
    def test_dilates_from_exact_samples(self, k, d):
        # T h_lam(r) = lam^{d/p - k} c_k (1 + (lam r)^2)^{-1/2}
        params = K.make_params(k, d)
        g = K.make_halfline_grid(512)
        c_k = beta(k / 2, 0.5) / 2
        for lam in (1 / 8, 1 / 2, 1.0, 4.0, 8.0):
            h = K.extremizer_profile(params, lam, g)
            th = K.RadialProfile(g, lam ** (params.scale_exp_f - k) * c_k
                                 / np.sqrt(1 + (lam * g.nodes) ** 2))
            phi = (K.weighted_lp_norm(th, params.a_target, params.qf)
                   / K.weighted_lp_norm(h, params.a_domain, params.pf))
            assert abs(phi / phi_oracle(k, d) - 1) < 1e-9, lam

    @pytest.mark.parametrize("k,d", SEVEN_PAIRS)
    def test_dilates_with_the_computed_transform(self, k, d):
        params = K.make_params(k, d)
        g = K.make_halfline_grid(512)
        for lam in (1.0, 4.0, 8.0):
            phi = K.functional_ratio(params, K.extremizer_profile(params, lam, g))
            assert abs(phi / phi_oracle(k, d) - 1) < 1e-9, lam

    def test_jump_in_an_end_stencil_keeps_the_nearest_node(self):
        # a split among the last 8 nodes drops that end's extrapolation, one
        # outside them (or outside the grid) changes nothing
        params = K.make_params(1, 3)
        g = K.make_halfline_grid(512)
        h = K.extremizer_profile(params, 1.0, g)
        full = K.weighted_lp_norm(h, params.a_domain, params.pf)
        for s in (g.nodes[100], 1e9, g.nodes[0] / 2):
            split = K.RadialProfile(g, h.values, splits=(s,))
            assert K.weighted_lp_norm(split, params.a_domain, params.pf) == full
        for s in (g.nodes[-3], g.nodes[3]):
            split = K.RadialProfile(g, h.values, splits=(s,))
            got = K.weighted_lp_norm(split, params.a_domain, params.pf)
            assert got != full and got == pytest.approx(full, rel=1e-4)


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


    def test_builds_no_forward_operator(self, fresh_cache):
        # one T h per grid, integrated directly: no M0 of n = 2048 or 4096
        from kplane.extremal import _constant_B_cached
        _constant_B_cached.cache_clear()
        b = K.constant_B(K.make_params(1, 3), resolution=4096)
        info = fresh_cache.cache_info()["fwd"]
        assert info["builds"] == info["entries"] == 0
        assert b == pytest.approx(phi_oracle(1, 3), rel=1e-11)

    @pytest.mark.parametrize("constant", [K.constant_B, K.constant_B_with_error])
    def test_resolution_below_32_names_the_halving(self, constant):
        # the error estimate's grid has resolution // 2 = 15 points, one too few
        with pytest.raises(K.ParameterError, match=r"resolution >= 32, got 31.*resolution // 2"):
            constant(K.make_params(1, 3), resolution=31)
        assert constant(K.make_params(1, 3), resolution=32)


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

    def test_residual_certifies_the_fixed_point(self):
        # Phi is stationary at the fixed point, so its change falls as the
        # square of the Euler-Lagrange residual: a tight tol drives the
        # residual itself below 1e-6
        params = K.make_params(1, 3)
        g = K.make_halfline_grid(512)
        init = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        trace = K.search_extremizer(params, init, max_iter=200, tol=1e-12)
        assert trace.converged
        assert len(trace.residuals) == trace.iterations_used
        assert trace.residuals[-1] < 1e-6 < trace.residuals[0]
        assert trace.to_json_dict()["residual"] == trace.residuals

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


class TestAndersonSearch:
    """Anderson mixing of the fixed-point map reaches the Euler-Lagrange fixed
    point in fewer steps than plain iteration, at the same Phi, and falls back
    to the plain step whenever a mixed candidate fails the ascent check."""

    @staticmethod
    def starts(grid):
        # the ball and a fixed-seed sum of three off-centre bumps (not monotone)
        rng = np.random.default_rng(7)
        r = grid.nodes
        bumps = sum(a * np.exp(-((r - c) / w) ** 2) for a, c, w in
                    zip(rng.uniform(0.2, 1.0, 3), rng.uniform(0.5, 3.0, 3),
                        rng.uniform(0.3, 1.5, 3)))
        return (K.indicator_profile(grid, K.IntervalSet(((0.0, 1.0),))),
                K.RadialProfile(grid, bumps))

    @staticmethod
    def steps_to(trace, level):
        # steps taken before an iterate with residual <= level, or one more
        # than the run took when it never reached one
        return next((i for i, res in enumerate(trace.residuals) if res <= level),
                    trace.iterations_used + 1)

    @pytest.mark.parametrize("k,d", [(1, 3), (2, 4), (3, 4)])
    def test_fewer_steps_to_the_fixed_point(self, grids, monkeypatch, k, d):
        import kplane.extremal as extremal
        params = K.make_params(k, d)
        depth = extremal._ANDERSON_DEPTH
        for init in self.starts(grids["half1024"]):
            monkeypatch.setattr(extremal, "_ANDERSON_DEPTH", depth)
            fast = extremal.search_extremizer(params, init, max_iter=100, tol=1e-12)
            monkeypatch.setattr(extremal, "_ANDERSON_DEPTH", 0)
            plain = extremal.search_extremizer(params, init, max_iter=100, tol=1e-12)
            assert fast.converged and plain.converged
            assert min(fast.residuals) <= 1e-9
            assert self.steps_to(fast, 1e-9) < self.steps_to(plain, 1e-9)
            assert fast.iterations_used < plain.iterations_used
            assert fast.accelerated_steps and not plain.accelerated_steps
            assert not fast.damped_steps
            assert fast.iterates[-1] == pytest.approx(plain.iterates[-1], rel=1e-9)

    @pytest.mark.parametrize("k,d", [(1, 3), (1, 2), (2, 4), (3, 4)])
    def test_default_tol_stops_on_the_residual(self, k, d):
        params = K.make_params(k, d)
        g = K.make_halfline_grid(512)
        trace = K.search_extremizer(params, K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),))))
        assert trace.converged and trace.stop == "residual"
        assert trace.residuals[-1] <= 1e-8
        payload = trace.to_json_dict()
        assert payload["schema"] == 1 and payload["stop"] == "residual"
        assert payload["accelerated_steps"] == trace.accelerated_steps

    @pytest.mark.parametrize("k,d", [(1, 3), (1, 2)])
    def test_k1_residual_floor(self, k, d):
        # with tol = 0 the search runs to max_iter and does not converge; the
        # residual it reaches is the floor of the discretization
        params = K.make_params(k, d)
        g = K.make_halfline_grid(512)
        ball = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        trace = K.search_extremizer(params, ball, max_iter=30, tol=0.0)
        assert not trace.converged and trace.stop is None
        assert trace.iterations_used == 30
        assert min(trace.residuals) <= 5e-13

    @pytest.mark.parametrize("k,d", [(1, 3), (1, 2)])
    def test_k1_residual_floor_at_rounding(self, k, d):
        # T* takes T's edge rule in its last rows and factors out its
        # weight's decay: the floor is then at rounding
        params = K.make_params(k, d)
        g = K.make_halfline_grid(512)
        ball = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        trace = K.search_extremizer(params, ball, max_iter=30, tol=0.0)
        assert min(trace.residuals) <= 1e-14

    def test_rate_and_error_bound(self):
        params = K.make_params(2, 4)
        g = K.make_halfline_grid(512)
        trace = K.search_extremizer(params, K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),))))
        assert 0 < trace.rate < 1
        assert trace.error_bound >= trace.residuals[-1]
        payload = trace.to_json_dict()
        assert payload["rate"] == trace.rate and payload["error_bound"] == trace.error_bound

    def test_rejected_candidate_takes_the_plain_step(self, grids, monkeypatch):
        import kplane.extremal as extremal
        params = K.make_params(1, 3)
        g = grids["half1024"]
        init = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        shell = np.where((g.nodes > 5.0) & (g.nodes < 6.0), 1.0, 0.0)
        mix, calls = extremal._anderson, []

        def first_fails(pairs, sqrt_w):
            # the first mixed candidate, at step 2, is a far shell of low Phi
            calls.append(len(pairs))
            return shell if len(calls) == 1 else mix(pairs, sqrt_w)

        monkeypatch.setattr(extremal, "_ANDERSON_DEPTH", 0)
        plain = extremal.search_extremizer(params, init, max_iter=100, tol=1e-8)
        monkeypatch.setattr(extremal, "_ANDERSON_DEPTH", 5)
        monkeypatch.setattr(extremal, "_anderson", first_fails)
        trace = extremal.search_extremizer(params, init, max_iter=100, tol=1e-8)
        assert calls[:2] == [2, 2]
        assert 2 not in trace.accelerated_steps and 3 in trace.accelerated_steps
        assert not trace.damped_steps
        assert trace.iterates[:3] == plain.iterates[:3]
        assert trace.residuals[:3] == plain.residuals[:3]

        # every mixed candidate failing leaves the plain iteration
        monkeypatch.setattr(extremal, "_anderson", lambda pairs, sqrt_w: shell)
        trace = extremal.search_extremizer(params, init, max_iter=100, tol=1e-8)
        assert trace.accelerated_steps == [] and not trace.damped_steps
        assert trace.iterates == plain.iterates
        assert trace.residuals == plain.residuals
        assert trace.stop == plain.stop
