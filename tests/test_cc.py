import math

import numpy as np
import pytest

import kplane as K
from kplane.cli import _synthetic_sequence

from conftest import smooth_decaying


def normalized(params, f):
    return f.scaled(K.weighted_integral(f, params.a_domain, params.pf) ** (-1 / params.pf))


class TestConcentrationFunction:
    def test_window_covering_everything(self, grids):
        params = K.make_params(1, 3)
        f = normalized(params, K.indicator_profile(grids["trunc50"],
                                                   K.IntervalSet(((0.0, 1.0),))))
        q = K.concentration_function(params, f, grids["trunc50"].r_max)
        assert q == pytest.approx(1.0, rel=1e-9)

    def test_indicator_windows(self, grids):
        # f = 1_{[0,1]}, d=3: the window [1/2, 1] holds (1 - 1/8)/3 of the raw
        # mass, the best half-width-1/2 window ([0,1], centered at 1/2) holds
        # all of it
        params = K.make_params(1, 3)
        f = K.indicator_profile(grids["trunc50"], K.IntervalSet(((0.0, 1.0),)))
        q = K.concentration_function(params, f, 0.5)
        outer_half = (1 - 1 / 8) / 3
        assert q >= outer_half - 1e-12
        assert q == pytest.approx(1 / 3, rel=1e-6)

    def test_monotone_in_radius(self, grids):
        params = K.make_params(2, 3)
        rng = np.random.default_rng(2)
        f = normalized(params, smooth_decaying(params, grids["half1024"], rng))
        qs = [K.concentration_function(params, f, R) for R in (0.25, 0.5, 1, 2, 4, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert qs[-1] <= 1.0 + 1e-9


    @pytest.mark.parametrize("n", [512, 2048])
    def test_infinite_window_holds_the_norm(self, n):
        # the scan reads the norms' running integral, so a window covering
        # the half-line holds exactly the mass the p-norm normalized to 1
        grid = K.make_halfline_grid(n)
        for k, d in ((1, 2), (1, 3), (2, 4), (3, 4)):
            params = K.make_params(k, d)
            for lam in (1 / 8, 1.0, 8.0):
                h = normalized(params, K.extremizer_profile(params, lam, grid))
                q = K.concentration_function(params, h, math.inf)
                assert abs(q - 1.0) <= 1e-13, (k, d, lam, q - 1.0)


class TestDichotomySplit:
    def test_single_bump_no_split(self, grids):
        params = K.make_params(1, 3)
        f = normalized(params, K.indicator_profile(grids["half1024"],
                                                   K.IntervalSet(((0.5, 1.5),))))
        assert K.dichotomy_split(params, f, 0.1) is None

    @staticmethod
    def _two_bump(params, g, alpha):
        # node-mask bumps normalized by the quadrature norm, so the mass split
        # is alpha/(1-alpha) as the quadrature sees it
        m1 = (g.nodes >= 0.5) & (g.nodes <= 1.5)
        m2 = (g.nodes >= 11.5) & (g.nodes <= 12.5)
        f1 = normalized(params, K.RadialProfile(g, m1.astype(float)))
        f2 = normalized(params, K.RadialProfile(g, m2.astype(float)))
        vals = (alpha ** (1 / params.pf) * f1.values
                + (1 - alpha) ** (1 / params.pf) * f2.values)
        return normalized(params, K.RadialProfile(g, vals))

    def test_two_bumps_split(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        f = self._two_bump(params, g, 0.5)
        split = K.dichotomy_split(params, f, 0.1)
        assert split is not None
        part1, part2 = split
        gap = part2.inf() - part1.sup()
        assert gap > 8.0
        from kplane.core import restricted_mass
        inner = restricted_mass(params, f, 0.0, part1.sup() + gap / 2)
        assert inner == pytest.approx(0.5, abs=0.01)

    def test_floor_semantics(self, grids):
        # 0.4/0.6 split with floor 0.45: smaller side under floor -> no split
        params = K.make_params(1, 3)
        g = grids["half1024"]
        f = self._two_bump(params, g, 0.4)
        assert K.dichotomy_split(params, f, 0.45) is None
        assert K.dichotomy_split(params, f, 0.3) is not None

    def test_unnormalized_rejected(self, grids):
        params = K.make_params(1, 3)
        f = K.indicator_profile(grids["half1024"], K.IntervalSet(((0.5, 1.5),)), 3.0)
        with pytest.raises(K.DomainError):
            K.dichotomy_split(params, f, 0.1)


class TestClassifier:
    @pytest.mark.parametrize("family,expected", [
        ("tight", "Tight"), ("vanishing", "Vanishing"), ("dichotomy:0.4", "Dichotomy")])
    def test_synthetic_families(self, grids, family, expected):
        params = K.make_params(1, 3)
        seq = _synthetic_sequence(family, params, grids["half2048"])
        rep = K.classify_trichotomy(params, seq, eps=0.05, separation_min=8.0)
        assert rep.verdict == expected

    def test_dichotomy_alpha_estimate(self, grids):
        params = K.make_params(2, 3)
        seq = _synthetic_sequence("dichotomy:0.4", params, grids["half2048"])
        rep = K.classify_trichotomy(params, seq, eps=0.05, separation_min=8.0)
        assert rep.verdict == "Dichotomy"
        assert abs(rep.alpha_estimate - 0.4) < 0.05

    def test_single_profile_split_only(self, grids):
        params = K.make_params(1, 3)
        seq = _synthetic_sequence("dichotomy:0.4", params, grids["half2048"])[-1:]
        rep = K.classify_trichotomy(params, seq, eps=0.05, separation_min=8.0)
        assert rep.verdict == "Dichotomy"

    def test_grid_below_every_evidence_radius_rejected(self):
        params = K.make_params(1, 3)
        grid = K.make_grid(64, 0.2)
        f = K.extremizer_profile(params, 1.0, grid)
        f = f.scaled(K.weighted_integral(f, params.a_domain, params.pf) ** (-1 / params.pf))
        with pytest.raises(K.DomainError, match="r_max = 0.2.*0.25"):
            K.classify_trichotomy(params, [f, f, f], eps=0.05, separation_min=8.0)


class TestInteraction:
    def test_zero_far_profile(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        f1 = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        z = K.RadialProfile(g, np.zeros(g.n))
        assert K.interaction_term(params, f1, z, 1) == 0.0

    def test_binomial_identity(self, grids):
        # sum_m C(q,m) <(Tf)^{q-m}, (Tf)^m> over 0 <= m <= q equals 2^q ||Tf||_q^q
        params = K.make_params(1, 3)
        g = grids["half1024"]
        rng = np.random.default_rng(8)
        f = smooth_decaying(params, g, rng, decay_boost=1)
        q = int(params.q)
        tf = K.apply_T(params, f)
        tq = K.weighted_lp_norm(tf, params.a_target, params.qf) ** q
        total = 2 * tq
        for m in range(1, q):
            total += math.comb(q, m) * K.interaction_term(params, f, f, m)
        assert total == pytest.approx(2 ** q * tq, rel=1e-10)

    def test_hoelder_bound(self, grids):
        params = K.make_params(2, 3)
        g = grids["half1024"]
        rng = np.random.default_rng(12)
        f1 = smooth_decaying(params, g, rng, decay_boost=1)
        f2 = smooth_decaying(params, g, rng, decay_boost=1)
        q = int(params.q)
        n1 = K.weighted_lp_norm(K.apply_T(params, f1), params.a_target, params.qf)
        n2 = K.weighted_lp_norm(K.apply_T(params, f2), params.a_target, params.qf)
        for m in range(1, q):
            term = K.interaction_term(params, f1, f2, m)
            assert term <= n1 ** (q - m) * n2 ** m * (1 + 1e-8)

    def test_m_range_validated(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        f = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        with pytest.raises(K.ParameterError):
            K.interaction_term(params, f, f, int(params.q))

    def test_decay_with_separation(self, grids):
        params = K.make_params(1, 3)
        g = grids["half2048"]
        f1 = K.indicator_profile(g, K.IntervalSet(((0.0, 1.0),)))
        terms = []
        for delta in (2.0, 4.0, 8.0, 16.0, 32.0):
            F = K.IntervalSet(((1 + delta, 2 + delta),))
            amp = F.weighted_measure(params.a_domain) ** (-1 / params.pf)
            psi = K.indicator_profile(g, F, amp)
            terms.append(K.interaction_term(params, f1, psi, 2))
        assert all(b < a for a, b in zip(terms, terms[1:]))

    def test_bound_check_zero_far_profile(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        z = K.RadialProfile(g, np.zeros(g.n))
        lhs, shape = K.interaction_bound_check(params, 1.0, 2.0, z, 1)
        assert lhs == 0.0 and shape == 0.0

    def test_bound_check_preconditions(self, grids):
        params = K.make_params(1, 3)
        g = grids["half1024"]
        psi_close = K.indicator_profile(g, K.IntervalSet(((1.5, 2.5),)))
        with pytest.raises(K.PreconditionError):
            K.interaction_bound_check(params, 1.0, 2.0, psi_close, 1)
        psi_far = K.indicator_profile(g, K.IntervalSet(((3.0, 4.0),)))
        with pytest.raises(K.PreconditionError):
            K.interaction_bound_check(params, 1.0, 0.5, psi_far, 1)
        with pytest.raises(K.ParameterError):
            K.interaction_bound_check(params, 1.0, 2.0, psi_far, int(params.q))
        lhs, shape = K.interaction_bound_check(params, 1.0, 2.0, psi_far, 1)
        assert lhs >= 0 and shape > 0

    @pytest.mark.parametrize("R,delta", [(math.nan, 2.0), (1.0, math.nan)])
    def test_bound_check_nan_rejected(self, grids, R, delta):
        params = K.make_params(1, 3)
        psi_far = K.indicator_profile(grids["half1024"], K.IntervalSet(((3.0, 4.0),)))
        with pytest.raises(K.ParameterError):
            K.interaction_bound_check(params, R, delta, psi_far, 1)
