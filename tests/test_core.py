import io
import math
from fractions import Fraction

import numpy as np
import pytest

import kplane as K

from conftest import beta


class TestParams:
    def test_k1_d3(self):
        p = K.make_params(1, 3)
        assert p.p == Fraction(2) and p.q == Fraction(4)
        assert p.p_conj == Fraction(2) and p.scale_exp == Fraction(3, 2)

    def test_k2_d3(self):
        p = K.make_params(2, 3)
        assert p.p == Fraction(4, 3) and p.q == Fraction(4)

    def test_rejects_k_equal_d(self):
        with pytest.raises(K.ParameterError):
            K.make_params(3, 3)
        with pytest.raises(K.ParameterError):
            K.make_params(0, 3)
        with pytest.raises(K.ParameterError):
            K.make_params(1, 1)

    def test_exponent_identities_exact(self):
        for d in range(2, 9):
            for k in range(1, d):
                p = K.make_params(k, d)
                assert p.q / p.p == Fraction(k + 1)
                assert 1 / p.p + 1 / p.p_conj == 1


class TestGrid:
    def test_basic_construction(self):
        g = K.make_grid(16, 10.0)
        assert g.n == 16
        assert (np.diff(g.nodes) > 0).all()
        assert g.nodes[-1] <= 10.0 * (1 + 1e-12)
        assert (g.base_weights > 0).all()

    def test_too_small_rejected(self):
        with pytest.raises(K.ConfigurationError):
            K.make_grid(2, 1.0)

    def test_indicator_weighted_integral_exact(self):
        # int_0^1 1 * r^2 dr = 1/3
        g = K.make_grid(4096, 50.0)
        f = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        got = K.weighted_integral(f, 2, 1.0)
        assert abs(got - 1 / 3) < 1e-10

    def test_constant_reproduces_r_max(self):
        g = K.make_grid(4096, 50.0)
        got = float(np.dot(g.base_weights, np.ones(g.n)))
        assert abs(got - g.r_max) / g.r_max < 1e-10

    @pytest.mark.parametrize("j,a", [(0, 0), (1, 0), (0, 2), (2, 2), (3, 3), (2, 4)])
    def test_polynomial_exactness(self, j, a):
        g = K.make_grid(8192, 50.0)
        got = float(np.dot(g.base_weights, g.nodes ** (j + a)))
        exact = g.r_max ** (j + a + 1) / (j + a + 1)
        assert abs(got - exact) / exact < 1e-10

    def test_theta_nodes_uniform(self):
        g = K.make_grid(64, 10.0)
        assert np.allclose(np.diff(g.theta_nodes), g.h, rtol=1e-14)

    def test_weights_positive_many_sizes(self):
        for n in (16, 17, 23, 64, 101, 513, 2048):
            for hint in (1.0, 50.0, math.inf):
                g = K.make_grid(n, hint)
                assert (g.base_weights > 0).all()


class TestNorms:
    def test_zero_profile(self, grids):
        g = grids["half1024"]
        f = K.RadialProfile(g, np.zeros(g.n))
        assert K.weighted_lp_norm(f, 2, 2.0) == 0.0

    def test_indicator_norm_closed_form(self, grids):
        # ||1_{[0,1]}||_p with weight r^{d-1}: (1/d)^{1/p}
        g = grids["trunc50"]
        f = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        for d in (3, 4):
            for p in (1.5, 2.0, 4.0):
                got = K.weighted_lp_norm(f, d - 1, p)
                assert got == pytest.approx((1 / d) ** (1 / p), rel=1e-14)

    def test_extremizer_beta_integral(self, grids):
        # oracle: int_0^inf (1+r^2)^{-(d+1)/2} r^{d-1} dr = 2/3 at d = 4,
        # so ||h||_{5/3} = (2/3)^{3/5} for (k, d) = (2, 4)
        params = K.make_params(2, 4)
        h = K.extremizer_profile(params, 1.0, grids["half4096"])
        got = K.weighted_lp_norm(h, 3, 5 / 3)
        assert got == pytest.approx((2 / 3) ** 0.6, rel=1e-9)

    @pytest.mark.parametrize("k,d", [(1, 3), (2, 4), (3, 4)])
    def test_concentrated_extremizer_norm(self, k, d):
        # ||h_8||_p^p = B(d/2, 1/2)/2 whatever the dilation; at lam = 8 the
        # profile's mass sits in the first nodes, where the weight r^{d-1}
        # makes G(0) = 0 exactly and the end takes that value
        params = K.make_params(k, d)
        h = K.extremizer_profile(params, 8.0, K.make_halfline_grid(512))
        exact = beta(d / 2, 0.5) / 2
        got = K.weighted_integral(h, params.a_domain, params.pf)
        assert abs(got / exact - 1) <= 1e-11

    def test_homogeneity(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        h = K.extremizer_profile(params, 1.0, g)
        for c in (0.25, 3.0):
            lhs = K.weighted_lp_norm(h.scaled(c), 2, 2.0)
            rhs = c * K.weighted_lp_norm(h, 2, 2.0)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_nonfinite_rejected(self, grids):
        g = grids["half1024"]
        vals = np.zeros(g.n)
        vals[3] = np.inf
        with pytest.raises(K.DataError):
            K.RadialProfile(g, vals)


class TestMassTail:
    def test_indicator_closed_form(self, grids):
        params = K.make_params(1, 3)
        f = K.indicator_profile(grids["trunc50"], K.IntervalSet(((0.0, 1.0),)))
        assert K.mass_tail(params, f, 0.5) == pytest.approx((1 - 1 / 8) / 3, rel=1e-14)
        assert K.mass_tail(params, f, 2.0) == 0.0

    def test_r_zero_gives_full_mass(self, grids):
        params = K.make_params(2, 4)
        h = K.extremizer_profile(params, 1.0, grids["half2048"])
        full = K.weighted_integral(h, params.a_domain, params.pf)
        assert K.mass_tail(params, h, 0.0) == pytest.approx(full, rel=1e-13)

    def test_monotone_in_r(self, grids):
        params = K.make_params(1, 4)
        h = K.extremizer_profile(params, 0.7, grids["half2048"])
        vals = [K.mass_tail(params, h, R) for R in np.linspace(0, 40, 30)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(v >= 0 for v in vals)

    def test_beyond_grid_reach(self, grids):
        # the last cell edge lies half a theta-step past the last node, about
        # 2 r_max on half-line grids; the tail beyond it is the lattice's last
        # strip, int_{atan R}^{pi/2} sin^2 = e/2 + sin(2e)/4 with e = atan(1/R)
        params = K.make_params(1, 3)
        g = grids["half1024"]
        h = K.extremizer_profile(params, 1.0, g)
        R = float(g.cell_edges_r[-1])
        e = math.atan(1 / R)
        assert K.mass_tail(params, h, R) == pytest.approx(e / 2 + math.sin(2 * e) / 4,
                                                          rel=1e-11, abs=0)


class TestWindowMass:
    @staticmethod
    def windows():
        # 20 windows inside [0.3, 30], 5 reaching infinity, 5 from the origin
        rng = np.random.default_rng(11)
        wins = [tuple(sorted(rng.uniform(0.3, 30.0, 2))) for _ in range(20)]
        wins += [(a, math.inf) for a in rng.uniform(0.3, 30.0, 5)]
        return wins + [(0.0, b) for b in rng.uniform(0.3, 30.0, 5)]

    @pytest.mark.parametrize("n,tol", [(512, 1e-9), (2048, 1e-12)])
    def test_extremizer_windows_closed_form(self, n, tol):
        # r = tan(theta) turns |h_lam|^p r^{d-1} dr into sin^{d-1}(theta) dtheta,
        # so a window [a, b] holds the integral of sin^{d-1} over
        # [atan(lam a), atan(lam b)]: a 64-point Gauss-Legendre rule gives it to
        # rounding. The masses total at most pi/2, so the bound is absolute.
        from kplane.core import restricted_mass
        x, w = np.polynomial.legendre.leggauss(64)
        grid = K.make_halfline_grid(n)
        for k, d in ((1, 2), (1, 3), (2, 4), (3, 4)):
            params = K.make_params(k, d)
            for lam in (1 / 8, 1.0, 8.0):
                h = K.extremizer_profile(params, lam, grid)
                for a, b in self.windows():
                    t0, t1 = math.atan(lam * a), math.atan(lam * b)
                    exact = (t1 - t0) / 2 * np.dot(w, np.sin(t0 + (t1 - t0) / 2 * (x + 1))
                                                   ** (d - 1))
                    got = restricted_mass(params, h, a, b)
                    assert abs(got - exact) <= tol, (k, d, lam, a, b, got - exact)


class TestMassAboveLevel:
    def test_level_zero_full_mass(self, grids):
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.0, grids["half1024"])
        full = K.weighted_integral(h, params.a_domain, params.pf)
        assert K.mass_above_level(params, h, 0.0) == pytest.approx(full, rel=1e-13)

    def test_level_above_sup(self, grids):
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.0, grids["half1024"])
        assert K.mass_above_level(params, h, 1.5) == 0.0

    def test_scaled_indicator(self, grids):
        # f = 2 * 1_{[0,1]}, m = 1, d = 3, p = 2: 4 * (1/3)
        params = K.make_params(1, 3)
        f = K.indicator_profile(grids["trunc50"], K.IntervalSet(((0.0, 1.0),)), 2.0)
        assert K.mass_above_level(params, f, 1.0) == pytest.approx(4 / 3, rel=1e-14)

    def test_monotone_in_level(self, grids):
        params = K.make_params(2, 3)
        h = K.extremizer_profile(params, 1.3, grids["half1024"])
        vals = [K.mass_above_level(params, h, m) for m in np.linspace(0, 2, 25)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestIntervalSet:
    def test_validation(self):
        with pytest.raises(K.DataError):
            K.IntervalSet(((1.0, 0.5),))
        with pytest.raises(K.DataError):
            K.IntervalSet(((0.0, 2.0), (1.0, 3.0)))

    def test_from_pairs_merges_touching(self):
        s = K.IntervalSet.from_pairs([(2.0, 3.0), (0.0, 1.0), (1.0, 1.5)])
        assert s.intervals == ((0.0, 1.5), (2.0, 3.0))

    def test_measures(self):
        s = K.IntervalSet(((1.0, 2.0),))
        assert s.lebesgue() == 1.0
        assert s.weighted_measure(2) == pytest.approx(7 / 3, rel=1e-15)


    @pytest.mark.parametrize("pairs", [((0.0, 1.0),), ((0.2, 0.9), (1.3, 4.0)),
                                       ((0.5, 30.0),), ((0.01, 0.011), (7.0, 1e6))])
    def test_indicator_profile_is_covered_fraction(self, pairs):
        # each sample is the covered share of its cell, as covered_length gives it
        g = K.make_halfline_grid(512)
        F = K.IntervalSet(pairs)
        e = g.cell_edges_r
        want = [1.7 * (F.covered_length(e[i], e[i + 1]) / (e[i + 1] - e[i]))
                for i in range(g.n)]
        f = K.indicator_profile(g, F, 1.7)
        assert f.values.tolist() == want
        assert f.indicator == (F, 1.7) and f.splits == tuple(sorted(set(sum(pairs, ()))))


class TestCsv:
    def test_roundtrip(self, grids):
        g = grids["half1024"]
        buf = io.StringIO()
        K.write_profile_csv(buf, g.nodes[:10], np.arange(10.0), {"k": 1})
        buf.seek(0)
        r, v, meta = K.read_profile_csv(buf)
        assert np.array_equal(v, np.arange(10.0))
        assert meta["k"] == "1"

    def test_malformed_rejected(self):
        with pytest.raises(K.DataError):
            K.read_profile_csv(io.StringIO("r,value\n"))
        with pytest.raises(K.DataError):
            K.read_profile_csv(io.StringIO("x,y\n1,2\n"))
        with pytest.raises(K.DataError):
            K.read_profile_csv(io.StringIO("r,value\n1,abc\n"))


class TestResample:
    @pytest.mark.parametrize("bad", ["radius_nan", "radius_inf", "value_nan", "value_inf"])
    def test_non_finite_rejected(self, bad):
        g = K.make_halfline_grid(64)
        r, v = np.array([0.5, 1.0, 2.0]), np.array([1.0, 0.5, 0.25])
        which, kind = bad.split("_")
        (r if which == "radius" else v)[-1] = np.nan if kind == "nan" else np.inf
        with pytest.raises(K.DataError, match="finite"):
            K.resample_values(g, r, v)

    def test_exact_at_input_nodes(self):
        g = K.make_halfline_grid(128)
        rng = np.random.default_rng(3)
        r = g.nodes[10:100:9]
        v = rng.normal(size=r.size)
        out = K.resample_values(g, r, v)
        assert np.abs(out[10:100:9] - v).max() <= 1e-14 * np.abs(v).max()

    def test_zero_outside_input_range(self):
        g = K.make_halfline_grid(128)
        r = np.array([0.7, 1.3, 2.9])
        out = K.resample_values(g, r, np.array([2.0, 1.0, 3.0]))
        outside = (g.nodes < 0.7) | (g.nodes > 2.9)
        assert outside.any() and not out[outside].any()
        assert (out[~outside] > 0).all()

    def test_two_samples_are_linear_in_theta(self):
        g = K.make_halfline_grid(128)
        out = K.resample_values(g, np.array([0.5, 2.0]), np.array([1.0, 3.0]))
        t0, t1 = math.atan(0.5), math.atan(2.0)
        inside = (g.theta_nodes >= t0) & (g.theta_nodes <= t1)
        want = 1.0 + 2.0 * (g.theta_nodes[inside] - t0) / (t1 - t0)
        assert np.abs(out[inside] - want).max() <= 1e-14

    def test_keeps_end_samples_on_grid_nodes(self):
        # arctan(tan(theta_j)) rounds outside the input's angle range at some
        # nodes; the range is decided by radius, so no end sample is lost
        g = K.make_halfline_grid(2048)
        v = K.extremizer_profile(K.make_params(1, 3), 1.0, g).values
        for i in range(g.n - 1):
            first = K.resample_values(g, g.nodes[i:], v[i:])
            last = K.resample_values(g, g.nodes[:i + 2], v[:i + 2])
            assert first[i] == pytest.approx(v[i], rel=1e-13), i
            assert last[i + 1] == pytest.approx(v[i + 1], rel=1e-13), i + 1
            assert not first[:i].any() and not last[i + 2:].any()

    def test_csv_round_trip_keeps_every_sample(self):
        # samples from the first node whose angle rounds up through
        # arctan(tan(.)) to the first that rounds down: both ends at risk
        g = K.make_halfline_grid(2048)
        v = K.extremizer_profile(K.make_params(1, 3), 1.0, g).values
        i = np.flatnonzero(np.arctan(g.nodes) > g.theta_nodes)[0]
        j = np.flatnonzero(np.arctan(g.nodes[i:]) < g.theta_nodes[i:])[0] + i
        buf = io.StringIO()
        K.write_profile_csv(buf, g.nodes[i:j + 1], v[i:j + 1])
        buf.seek(0)
        r, w, _ = K.read_profile_csv(buf)
        out = K.resample_values(g, r, w)
        assert np.abs(out[i:j + 1] - v[i:j + 1]).max() <= 1e-13 * v[i]
        assert not out[:i].any() and not out[j + 1:].any()

    def test_matches_scipy_pchip(self):
        # the reference implementation of Fritsch-Carlson PCHIP (test-only extra)
        interpolate = pytest.importorskip("scipy.interpolate")
        g = K.make_grid(96, 6.0)
        rng = np.random.default_rng(11)
        worst = 0.0
        for trial in range(1200):
            m = int(rng.integers(2, 13))
            r = np.sort(rng.uniform(0.02, 7.0, m))
            if not (np.diff(r) > 0).all():
                continue
            v = rng.normal(size=m)
            if trial % 4 == 1:
                v = np.round(v)                     # flat runs
            elif trial % 4 == 2:
                v = np.cumsum(np.abs(v))            # monotone
            elif trial % 4 == 3:
                v[rng.random(m) < 0.4] = 0.0        # zero runs and sign changes
            want = interpolate.PchipInterpolator(np.arctan(r), v, extrapolate=False)(
                g.theta_nodes)
            got = K.resample_values(g, r, v)
            outside = np.isnan(want)
            assert np.array_equal(outside, (g.nodes < r[0]) | (g.nodes > r[-1]))
            assert not got[outside].any()
            scale = np.abs(v).max() or 1.0
            worst = max(worst, np.abs(got[~outside] - want[~outside]).max(initial=0.0) / scale)
        assert worst <= 1e-14, worst


class TestLagrangeWeights:
    @staticmethod
    def _weight_loop(x, length):
        # one cardinal weight at a time, the loop the vectorized weights replace
        out = np.empty(x.shape + (length,))
        for j in range(length):
            w = np.ones_like(x)
            for m in range(length):
                if m != j:
                    w = w * (x - m) / (j - m)
            out[..., j] = w
        return out

    @pytest.mark.parametrize("shape", [(0,), (1,), (513,), (30, 7)])
    def test_bitwise_equal_to_weight_loop(self, shape):
        from kplane._quad import lagrange_weights
        x = np.random.default_rng(len(shape)).uniform(-1.0, 8.0, shape)
        for length in range(1, 9):
            got = lagrange_weights(x, length)
            assert got.shape == shape + (length,)
            assert np.array_equal(got, self._weight_loop(x, length)), length
