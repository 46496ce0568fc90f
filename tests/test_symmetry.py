import math

import numpy as np
import pytest

import kplane as K

from conftest import smooth_decaying


def step_profile(grid, rng, n_steps=5, span=20.0):
    vals = np.zeros(grid.n)
    for _ in range(n_steps):
        a, b = sorted(rng.uniform(0, span, 2))
        vals += rng.uniform(0.2, 2.0) * ((grid.nodes >= a) & (grid.nodes <= b))
    return K.RadialProfile(grid, vals)


class TestRearrange:
    def test_monotone_profile_is_fixed(self, grids):
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.0, grids["half1024"])
        hs = K.rearrange(params, h)
        assert np.abs(hs.values - h.values).max() < 1e-12

    def test_indicator_closed_form(self, grids):
        # mu([1,2]) = 7/3 = mu([0, 7^{1/3}]) in d = 3
        params = K.make_params(1, 3)
        f = K.indicator_profile(grids["trunc50"], K.IntervalSet(((1.0, 2.0),)))
        fs = K.rearrange(params, f)
        assert fs.indicator is not None
        assert fs.indicator[0].intervals[0][1] == pytest.approx(7 ** (1 / 3), rel=1e-14)

    def test_norm_preserved_on_steps(self, grids):
        params = K.make_params(1, 3)
        g = grids["half2048"]
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = step_profile(g, rng)
            fs = K.rearrange(params, f)
            n1 = K.weighted_lp_norm(f, params.a_domain, params.pf)
            n2 = K.weighted_lp_norm(fs, params.a_domain, params.pf)
            assert n2 == pytest.approx(n1, rel=1e-12)
            assert (np.diff(fs.values) <= 1e-12).all()

    def test_level_set_masses_preserved(self, grids):
        params = K.make_params(1, 3)
        g = grids["half2048"]
        rng = np.random.default_rng(10)
        f = step_profile(g, rng)
        fs = K.rearrange(params, f)
        omega = g.base_weights * g.nodes ** params.a_domain
        for m in (0.1, 0.5, 1.0):
            lhs = K.mass_above_level(params, f, m)
            rhs = K.mass_above_level(params, fs, m)
            slack = float((omega * np.abs(fs.values) ** params.pf).max())
            assert abs(lhs - rhs) <= slack + 1e-12


class TestNormalizeDilation:
    def test_indicator_median(self, grids):
        # mass median of r^2 dr on [0, a] sits at a 2^{-1/3}
        params = K.make_params(1, 3)
        a = 2.0
        f = K.indicator_profile(grids["trunc50"], K.IntervalSet(((0.0, a),)))
        lam, g = K.normalize_dilation(params, f)
        assert lam == pytest.approx(a * 2 ** (-1 / 3), rel=1e-12)

    def test_idempotent(self, grids):
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.7, grids["half2048"])
        lam1, g1 = K.normalize_dilation(params, h)
        lam2, g2 = K.normalize_dilation(params, g1)
        assert abs(lam2 - 1.0) < 1e-6

    def test_norm_preserved(self, grids):
        params = K.make_params(2, 3)
        h = K.extremizer_profile(params, 1.0, grids["half4096"])
        lam, g = K.normalize_dilation(params, h)
        n0 = K.weighted_lp_norm(h, params.a_domain, params.pf)
        n1 = K.weighted_lp_norm(g, params.a_domain, params.pf)
        assert n1 == pytest.approx(n0, rel=1e-10)

    def test_equivariant_across_dilates(self, grids):
        params = K.make_params(1, 3)
        g = grids["half2048"]
        outs = []
        for mu in (0.25, 1.0, 4.0):
            f = K.extremizer_profile(params, mu, g)
            _, gn = K.normalize_dilation(params, f)
            outs.append(gn.values)
        for v in outs[1:]:
            assert np.abs(v - outs[0]).max() < 1e-6

    def test_zero_rejected(self, grids):
        params = K.make_params(1, 3)
        z = K.RadialProfile(grids["half1024"], np.zeros(1024))
        with pytest.raises(K.DomainError):
            K.normalize_dilation(params, z)



class TestDilateProfile:
    def test_overflowing_scale_rejected(self, grids):
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.0, grids["half1024"])
        with pytest.raises(K.ParameterError, match="overflows"):
            K.dilate_profile(params, h, 1e300)

    def test_a_scale_that_fits_dilates_without_overflow(self):
        # lam = 1e200 throws every node beyond the last, where (lam r)^2 does
        # not fit a double though the scale does; the extremizer's g = f
        # sec^2 is 1 there, so its dilate is the dilated extremizer
        params = K.make_params(1, 3)
        grid = K.make_halfline_grid(256)
        got = K.dilate_profile(params, K.extremizer_profile(params, 1.0, grid), 1e200)
        want = K.extremizer_profile(params, 1e200, grid)
        assert np.all(want.values > 0)
        assert np.abs(got.values / want.values - 1).max() <= 1e-12

    def test_infinite_lam_rejected_for_a_sampled_profile(self, grids):
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.0, grids["half1024"])
        with pytest.raises(K.ParameterError, match="finite"):
            K.dilate_profile(params, h, math.inf)

    def test_infinite_lam_rejected_for_an_indicator(self, grids):
        params = K.make_params(1, 3)
        f = K.indicator_profile(grids["half1024"], K.IntervalSet(((0.5, 2.0),)))
        with pytest.raises(K.ParameterError, match="finite"):
            K.dilate_profile(params, f, math.inf)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_beyond_the_last_node_extrapolates_g(self, k):
        # f = (1 + r^2)^{-a/2} has g = f sec^{k+1} = cos^{a-k-1}: smooth at
        # pi/2 for integer a, where radii thrown past r_max land
        params = K.make_params(k, k + 1)
        grid = K.make_halfline_grid(512)
        r = grid.nodes
        for lam in (4.0, 64.0):
            beyond = lam * r > grid.r_max
            assert beyond.sum() >= 3
            for a in (k + 1, k + 2, k + 3):
                f = K.RadialProfile(grid, (1 + r ** 2) ** (-a / 2))
                got = K.dilate_profile(params, f, lam).values
                want = lam ** params.scale_exp_f * (1 + (lam * r) ** 2) ** (-a / 2)
                # in g, whose values there are at most 1
                sec = (1 + (lam * r[beyond]) ** 2) ** ((k + 1) / 2) / lam ** params.scale_exp_f
                assert (np.abs(got[beyond] - want[beyond]) * sec).max() < 1e-10, (lam, a)


class TestMassRule:
    """The mass median runs on the norms' lattice rule: its running p-mass
    ends at weighted_integral, it finds the closed-form median of the
    extremizer's dilates, and a split outside the grid moves no median."""

    @staticmethod
    def median_angle(d):
        # Theta_d with int_0^Theta sin^{d-1} = half of int_0^{pi/2}, by
        # bisection over a 200-point Gauss-Legendre integral
        x, w = np.polynomial.legendre.leggauss(200)

        def mass(t):
            return t / 2 * np.dot(w, np.sin(t / 2 * (x + 1)) ** (d - 1))

        half, lo, hi = mass(math.pi / 2) / 2, 0.0, math.pi / 2
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mass(mid) < half else (lo, mid)
        return (lo + hi) / 2

    @pytest.mark.parametrize("hint", [5.0, 50.0, float("inf")])
    @pytest.mark.parametrize("n", [256, 1024, 2048])
    def test_running_mass_ends_at_the_norm(self, n, hint):
        from kplane.core import _running_integral
        grid = K.make_grid(n, hint)
        rng = np.random.default_rng(n)
        for k, d in ((1, 2), (1, 3), (2, 4), (3, 4)):
            params = K.make_params(k, d)
            profiles = [K.extremizer_profile(params, lam, grid) for lam in (0.3, 1.0, 3.0)]
            profiles.append(smooth_decaying(params, grid, rng))
            for f in profiles:
                running = _running_integral(f, params.a_domain, params.pf)
                assert running.size == n + 1 + grid.halfline
                assert running[-1] == pytest.approx(
                    K.weighted_integral(f, params.a_domain, params.pf), rel=1e-13, abs=0)

    @pytest.mark.parametrize("n,tol", [(512, 1e-9), (2048, 1e-13)])
    def test_closed_form_median(self, n, tol):
        # r = tan(theta) turns |h|^p r^{d-1} dr into sin^{d-1}(theta) dtheta,
        # so the median of h_lam is tan(Theta_d) / lam (Theta_2 = pi/3)
        from kplane import symmetry
        assert self.median_angle(2) == pytest.approx(math.pi / 3, rel=1e-15)
        grid = K.make_halfline_grid(n)
        for k, d in ((1, 2), (1, 3), (2, 4), (3, 4)):
            params = K.make_params(k, d)
            exact = math.tan(self.median_angle(d))
            for lam in (1 / 8, 1 / 2, 1.0, 4.0, 8.0):
                h = K.extremizer_profile(params, lam, grid)
                assert symmetry._median_radius(params, h) == \
                    pytest.approx(exact / lam, rel=tol, abs=0), (k, d, lam)

    @pytest.mark.parametrize("hint", [float("inf"), 50.0])
    @pytest.mark.parametrize("n", [1024, 2048])
    def test_bitwise_equal_to_uncached(self, n, hint):
        # a split beyond the last node is no jump of the profile
        from kplane import symmetry
        grid = K.make_grid(n, hint)
        rng = np.random.default_rng(n)
        for k, d in ((1, 3), (2, 4), (3, 4)):
            params = K.make_params(k, d)
            profiles = [K.extremizer_profile(params, lam, grid) for lam in (0.3, 1.0, 3.0)]
            profiles.append(smooth_decaying(params, grid, rng))
            for f in profiles:
                inert = K.RadialProfile(grid, f.values, splits=(1e9,))
                assert inert.interpolator().bounds.tolist() == [0, n]
                assert symmetry._median_radius(params, f) == \
                    symmetry._median_radius(params, inert)


    @pytest.mark.parametrize("hint", [float("inf"), 50.0])
    def test_inversion_plan_matches_per_call_plan(self, hint):
        # bumps whose medians lie in intervals near both ends of the grid
        # and in the middle
        from kplane import symmetry
        from kplane._quad import INTERP_DEGREE as D
        grid = K.make_grid(1024, hint)
        n, th = grid.n, grid.theta_nodes
        for k, d in ((1, 3), (2, 4)):
            params = K.make_params(k, d)
            for j in (D - 1, D, n // 2, n - 2 - D, n - 1 - D):
                # a bump whose mass median lies in interval j, centred by bisection
                lo, hi = th[j] - 16 * grid.h, th[j] + 2 * grid.h
                for _ in range(50):
                    centre = (lo + hi) / 2
                    f = K.RadialProfile(grid, np.exp(-((th - centre) / (4 * grid.h)) ** 2))
                    median = symmetry._median_radius(params, f)
                    hit = np.searchsorted(grid.nodes, median) - 1
                    if hit == j:
                        break
                    lo, hi = (centre, hi) if hit < j else (lo, centre)
                assert hit == j
                inert = K.RadialProfile(grid, f.values, splits=(1e9,))
                assert median == pytest.approx(symmetry._median_radius(params, inert),
                                               rel=1e-14, abs=0)


    @pytest.mark.parametrize("hint", [float("inf"), 50.0])
    @pytest.mark.parametrize("n", [512, 2048])
    def test_median_inverts_the_window_interpolant(self, n, hint):
        # the median is where the interpolant core._running_at reads windows
        # with crosses half the mass: dilates, a random sum, and h times
        # b^{1/p}, b a Gaussian bump in theta at 0, mid-grid or the lattice's
        # end, whose mass density is b sin^{d-1}: its median lies in the
        # first or last few lattice intervals, where the 8-point window is
        # clipped
        from kplane.core import _running_at, _running_integral, _running_median
        grid = K.make_grid(n, hint)
        th, rng = grid.theta_nodes, np.random.default_rng(n)
        for k, d in ((1, 2), (1, 3), (2, 4), (3, 4)):
            params = K.make_params(k, d)
            h = K.extremizer_profile(params, 1.0, grid)
            profiles = [K.extremizer_profile(params, lam, grid) for lam in (1 / 8, 1.0, 8.0)]
            profiles.append(smooth_decaying(params, grid, rng))
            profiles += [K.RadialProfile(grid, h.values * np.exp(
                -((th - c) / (4 * grid.h)) ** 2 / params.pf))
                for c in (0.0, th[n // 2], (n + grid.halfline) * grid.h)]
            for f in profiles:
                C = _running_integral(f, params.a_domain, params.pf)
                x = _running_median(C)
                assert float(_running_at(C, x)) == pytest.approx(C[-1] / 2, rel=1e-13, abs=0)
                assert K.symmetry._median_radius(params, f) == math.tan(x * grid.h)


class TestTruncate:
    def test_large_level_inactive(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        h = K.extremizer_profile(params, 1.0, g)
        gm, em = K.truncate(params, h, g.r_max * 2)
        assert np.all(em.values == 0.0)
        assert np.array_equal(gm.values, h.values)

    def test_tiny_level_empties(self, grids):
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.0, grids["half1024"])
        gm, _ = K.truncate(params, h, 1e-9)
        assert np.all(gm.values == 0.0)

    def test_extremizer_level_cut_inactive_at_one(self, grids):
        # h(0) = 1 is the max, so at m = 1 only the radius cut acts
        params = K.make_params(2, 3)
        g = grids["half1024"]
        h = K.extremizer_profile(params, 1.0, g)
        gm, em = K.truncate(params, h, 1.0)
        inside = g.nodes <= 1.0
        assert np.array_equal(gm.values[inside], h.values[inside])
        assert np.all(gm.values[~inside] == 0.0)
        assert np.abs(gm.values + em.values - h.values).max() == 0.0

    def test_monotone_in_level(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        rng = np.random.default_rng(3)
        f = smooth_decaying(params, g, rng)
        prev = None
        for m in (0.5, 1.0, 2.0, 4.0):
            gm, _ = K.truncate(params, f, m)
            if prev is not None:
                assert np.all(gm.values >= prev - 1e-15)
            prev = gm.values

    def test_eps_vanishes(self, grids):
        # (1,3) tails decay like 1/R in p-mass, so the norms shrink slowly but
        # strictly, and vanish once the cut passes the grid's reach
        params = K.make_params(1, 3)
        g = grids["half1024"]
        h = K.extremizer_profile(params, 1.0, g)
        norms = [K.weighted_lp_norm(K.truncate(params, h, m)[1],
                                    params.a_domain, params.pf)
                 for m in (1.0, 4.0, 16.0, 64.0)]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 0.2 * norms[0]
        _, eps_all = K.truncate(params, h, 2 * g.r_max)
        assert K.weighted_lp_norm(eps_all, params.a_domain, params.pf) == 0.0
