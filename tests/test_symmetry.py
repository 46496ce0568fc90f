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



class TestMassRule:
    """The mass median's Gauss rule and its interpolation plan are built once
    per grid; the medians they give are those of the per-call plan."""

    def test_plan_built_once_per_search(self, monkeypatch):
        from kplane import symmetry
        from kplane._quad import SegmentedInterp
        grid = K.make_halfline_grid(512)
        rule_points = 5 * (grid.n - 1)
        sizes, medians = [], []
        plan, median = SegmentedInterp.plan, symmetry._median_radius

        def counting_plan(self, thq, seg=None):
            sizes.append(np.size(thq))
            return plan(self, thq, seg)

        def counting_median(params, f):
            medians.append(f)
            return median(params, f)

        monkeypatch.setattr(SegmentedInterp, "plan", counting_plan)
        monkeypatch.setattr(K.extremal, "_median_radius", counting_median)
        symmetry._mass_rule.cache_clear()
        params = K.make_params(1, 3)
        init = K.RadialProfile(grid, np.exp(-grid.nodes ** 2 / 30.0))
        trace = K.search_extremizer(params, init, max_iter=60)
        assert trace.converged and len(medians) == trace.iterations_used > 5
        assert sizes.count(rule_points) == 1

    @pytest.mark.parametrize("hint", [float("inf"), 50.0])
    @pytest.mark.parametrize("n", [1024, 2048])
    def test_bitwise_equal_to_uncached(self, n, hint):
        # a split beyond the last node changes no stencil, but sends the
        # profile down the per-call plan of SegmentedInterp.eval
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
