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

    @pytest.mark.parametrize("k", [1, 2])
    def test_nan_radius_refused_before_any_grid(self, monkeypatch, k):
        # a NaN R passes every comparison: it is refused as a parameter
        # before a grid is built, where k = 1 once returned lhs = nan
        from kplane import verify
        monkeypatch.setattr(verify, "make_grid", lambda *args: pytest.fail("grid built"))
        F = K.IntervalSet(((4.0, 4.0 + ((4.0 ** 3 + 3) ** (1 / 3) - 4.0)),))
        check = K.check_concentration_k1 if k == 1 else K.check_concentration_k2
        with pytest.raises(K.ParameterError, match="R > 0"):
            check(K.make_params(k, 3), F, math.nan)


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

    def test_too_few_scan_points(self):
        with pytest.raises(K.ParameterError, match="n_scan"):
            K.check_slide_monotonicity(K.make_params(1, 3), 1.0, (3.0, 4.0), 0.0, n_scan=0)


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
        reps = run_suite("superadd", seed=0)
        assert all(r.passed for r in reps)

    def test_builds_no_dense_operator(self, fresh_cache):
        # f and 2f are transformed once each: k = 1 and k = 3 by the one-shot
        # path, k = 2 by its O(n) prefix sums
        T = fresh_cache
        assert all(r.passed for r in run_suite("superadd", seed=0))
        assert not any(isinstance(M, T._RowBlocks) for M in T._MATRIX_CACHE.values())
        assert T.cache_info()["fwd"]["builds"] == 1

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
        reps = run_suite("compactness", seed=0)
        assert all(r.passed for r in reps)
        for r in reps:
            sigma = r.inputs["sigma"]
            moduli = r.inputs["moduli"]
            assert r.inputs["n"] == 256 and len(sigma) == 8
            assert all(b < a for a, b in zip(sigma, sigma[1:])) and sigma[-1] > 0
            assert r.lhs == max(b / a for a, b in zip(sigma, sigma[1:])) < 1.0
            assert moduli[0] > moduli[1] > moduli[2]

    def test_volterra_closed_form(self):
        # (2,3): T_R with g = u f is the adjoint of the Volterra operator
        reps = {(r.inputs["k"], r.inputs["d"]): r for r in run_suite("compactness")}
        sigma = np.array(reps[2, 3].inputs["sigma"])
        exact = 2 / ((2 * np.arange(1, 9) - 1) * math.pi)
        assert np.abs(sigma - exact).max() <= 1e-11
        assert reps[2, 3].inputs["closed_form_err"] == np.abs(sigma - exact).max()
        assert reps[1, 3].inputs["closed_form_err"] is None

    def test_decay_exponents(self):
        reps = {(r.inputs["k"], r.inputs["d"]): r for r in run_suite("compactness")}
        assert reps[1, 3].inputs["decay_exponent"] == pytest.approx(-0.590, abs=2e-3)
        assert reps[2, 3].inputs["decay_exponent"] == pytest.approx(-1.280, abs=2e-3)

    def test_closed_form_gate_fails_a_wrong_sigma(self, monkeypatch):
        # sigma_1 of (2,3) moved by 1e-10 fails the report; (1,3) has no gate
        from kplane import verify
        true = verify.singular_value_profile
        monkeypatch.setattr(verify, "singular_value_profile",
                            lambda params, R, n: true(params, R, n) + np.eye(8)[0] * 1e-10)
        assert not K.check_compactness(K.make_params(2, 3), 1.0, 256).passed
        assert K.check_compactness(K.make_params(1, 3), 1.0, 256).passed

    def test_bad_nlist_rejected(self):
        params = K.make_params(1, 3)
        with pytest.raises(K.ParameterError, match="n >= 64"):
            K.check_compactness(params, 1.0, 32)

    def test_infinite_R_rejected(self):
        with pytest.raises(K.ParameterError, match="finite R > 0"):
            K.check_compactness(K.make_params(1, 3), float("inf"), 256)


class TestTruncationPipeline:
    def test_randomized(self):
        reps = run_suite("truncation", seed=3)
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

    def test_one_transform_per_far_profile(self, monkeypatch):
        # the sweep against the public functions, each of which transforms
        # psi for every m; the suite transforms each psi once per (pair, delta),
        # by the one-shot path those functions take too
        import kplane.verify as V
        deltas, n, transformed = (2.0, 4.0, 8.0), 512, []
        apply_T_once = V._apply_T_once

        def counting(params, f):
            transformed.append(f)
            return apply_T_once(params, f)

        monkeypatch.setattr(V, "_apply_T_once", counting)
        reps = V.suite_interaction(deltas=deltas, n=n)
        monkeypatch.undo()
        far = [f for f in transformed if f.indicator is None]
        assert len(far) == len(reps) * len(deltas)
        assert len({(f.splits, f.values.tobytes()) for f in far}) == len(far)
        for rep in reps:
            params = K.make_params(rep.inputs["k"], rep.inputs["d"])
            grid = K.make_halfline_grid(n)
            near = K.indicator_profile(grid, K.IntervalSet(((0.0, 1.0),)))
            rows, decreasing = [], True
            for m in range(1, int(params.q)):
                terms = []
                for delta in deltas:
                    psi = V._critical_far_profile(params, grid, 1.0 + delta)
                    terms.append(K.interaction_term(params, near, psi, m))
                    lhs, shape = K.interaction_bound_check(params, 1.0, delta, psi, m)
                    rows.append([m, delta, lhs, shape, lhs / shape])
                decreasing &= all(b < a for a, b in zip(terms, terms[1:]))
            assert rep.inputs["sweep_rows"] == rows
            assert rep.inputs["decreasing"] == decreasing

    def test_builds_no_dense_forward_operator(self, fresh_cache):
        # every far profile is transformed once, over its support, with no
        # dense M0 built; k = 2's O(n) prefix sums are the one forward entry
        T = fresh_cache
        grid = K.make_halfline_grid(512)
        suite_interaction(deltas=(2.0, 4.0), n=grid.n)
        info = T.cache_info()
        assert info["fwd"]["builds"] == info["fwd"]["entries"] == 1
        assert list(T._MATRIX_CACHE) == [("fwd", grid.fingerprint(), 2)]


def test_run_suite_unknown_name():
    with pytest.raises(K.ParameterError):
        run_suite("nope")
