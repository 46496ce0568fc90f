import math

import numpy as np
import pytest

import kplane as K
from kplane.verify import (BASELINES, run_suite, slide_interval,
                           suite_concentration_k1, suite_interaction)


class TestConcentrationK2:
    def test_empty_set_passes(self):
        params = K.make_params(2, 3)
        rep = K.check_concentration_k2(params, K.IntervalSet(()), 2.0)
        assert rep.passed and rep.lhs == 0.0

    def test_worked_instance(self):
        # F = (2,3), R = 2, (k,d) = (2,3): ||T 1_F||_4^4 = 27428/315 exactly
        # (piecewise antiderivatives), mu(F) = 19/3; quadrature meets the
        # check's own 1e-6 tolerance, limited by the kinks of T 1_F
        params = K.make_params(2, 3)
        rep = K.check_concentration_k2(params, K.IntervalSet(((2.0, 3.0),)), 2.0)
        assert rep.lhs == pytest.approx((27428 / 315) ** 0.25, rel=1e-6)
        assert rep.rhs == pytest.approx(2 * (19 / 3) * 2 ** (-3 / 4), rel=1e-14)
        assert rep.passed

    def test_lebesgue_variant_is_false_on_worked_instance(self):
        # the same instance violates the Lebesgue-measure variant of the bound
        # with exponent -d/p: that form cannot be the intended statement
        params = K.make_params(2, 3)
        rep = K.check_concentration_k2(params, K.IntervalSet(((2.0, 3.0),)), 2.0)
        lebesgue_rhs = 2 * 1.0 * 2.0 ** (-float(params.d) / params.pf)
        assert rep.lhs > lebesgue_rhs

    def test_precondition(self):
        params = K.make_params(2, 3)
        with pytest.raises(K.PreconditionError):
            K.check_concentration_k2(params, K.IntervalSet(((1.0, 2.0),)), 1.5)

    def test_randomized_sweep(self):
        reps = run_suite("concentration-k2", seed=7, trials=60)
        assert all(r.passed for r in reps)


class TestConcentrationK1:
    def test_sweep_under_ceiling(self):
        reps = suite_concentration_k1()
        ratio_reps = [r for r in reps if r.name == "concentration-k1"]
        assert ratio_reps and all(r.passed for r in ratio_reps)
        for r in ratio_reps:
            assert r.lhs <= 1.1 * BASELINES[("concentration-k1-ratio", r.inputs["d"])]

    def test_compaction_raises_norm(self):
        reps = [r for r in suite_concentration_k1()
                if r.name == "slide-compaction-direction"]
        assert reps and all(r.passed for r in reps)

    def test_preconditions(self):
        params = K.make_params(1, 3)
        with pytest.raises(K.PreconditionError):
            K.check_concentration_k1(params, K.IntervalSet(()), 2.0)
        with pytest.raises(K.PreconditionError):
            # weighted measure far from 1
            K.check_concentration_k1(params, K.IntervalSet(((10.0, 20.0),)), 2.0)


class TestSlide:
    def test_delta_zero_no_change(self):
        params = K.make_params(1, 3)
        rep = K.check_slide_monotonicity(params, 1.0, (3.0, 4.0), 0.0)
        assert rep.passed and rep.lhs <= 1e-14

    def test_worked_instance_strictly_positive(self):
        # a=5, b=6, Delta=2: closed-form difference is positive at r = 0
        params = K.make_params(1, 3)
        a2, b2 = slide_interval(5.0, 6.0, 2.0)
        diff0 = (b2 - a2) - (6.0 - 5.0)
        assert diff0 > 0
        rep = K.check_slide_monotonicity(params, 1.0, (5.0, 6.0), 2.0)
        assert rep.passed

    def test_randomized(self):
        reps = run_suite("slide", seed=11, trials=100)
        assert all(r.passed for r in reps)


class TestSuperadditivity:
    def test_half(self):
        params = K.make_params(1, 3)
        rep = K.check_superadditivity(params, [0.5])
        assert rep.passed and rep.lhs == pytest.approx(0.5, rel=1e-15)

    def test_k3(self):
        params = K.make_params(3, 4)
        rep = K.check_superadditivity(params, [0.3])
        assert rep.lhs == pytest.approx(0.3 ** 4 + 0.7 ** 4, rel=1e-12)

    def test_grid_all_k(self):
        reps = run_suite("superadd", seed=0, trials=0)
        assert all(r.passed for r in reps)

    def test_endpoint_rejected(self):
        params = K.make_params(1, 3)
        with pytest.raises(K.ParameterError):
            K.check_superadditivity(params, [0.0])

    def test_generator_grid_counted(self):
        params = K.make_params(1, 3)
        rep = K.check_superadditivity(params, (j / 10 for j in range(1, 10)))
        assert rep.inputs["alphas"] == 9
        assert rep.lhs == pytest.approx(0.1 ** 2 + 0.9 ** 2, rel=1e-12)


class TestCompactness:
    def test_trends(self):
        reps = run_suite("compactness", seed=0, trials=0)
        assert all(r.passed for r in reps)
        for r in reps:
            ratios = r.inputs["sigma_ratios"]
            moduli = r.inputs["moduli"]
            assert ratios[0] > ratios[1] > ratios[2]
            assert moduli[0] > moduli[1] > moduli[2]

    def test_bad_nlist_rejected(self):
        params = K.make_params(1, 3)
        with pytest.raises(K.ParameterError):
            K.check_compactness(params, 1.0, (32, 64))


class TestTruncationPipeline:
    def test_randomized(self):
        reps = run_suite("truncation", seed=3, trials=0)
        assert all(r.passed for r in reps)

    def test_extremizer_large_m(self, grids):
        params = K.make_params(1, 3)
        h = K.extremizer_profile(params, 1.0, grids["half1024"])
        rep = K.check_truncation_pipeline(params, h, (1.0, 4.0, 16.0, 64.0, 256.0))
        assert rep.passed
        assert rep.inputs["eps_norms"][-1] < 0.1 * rep.inputs["eps_norms"][0]


class TestInteractionSuite:
    def test_bands_and_decay(self):
        reps = suite_interaction()
        assert all(r.passed for r in reps)
        for r in reps:
            assert r.lhs <= 4.0
            assert r.inputs["decreasing"]


def test_run_suite_unknown_name():
    with pytest.raises(K.ParameterError):
        run_suite("nope")
