"""Names, units and bounds of every metric the benchmark reports.

BENCHMARK.json at the repository root repeats these lists; selftest.py checks
that the two agree.
"""

#: floor of the accuracy companions, near double-precision roundoff of an
#: n-term sum, so that a reordered sum does not read as a change
ACCURACY_FLOOR = 1e-13

#: (name, unit, better, bound): bound is the share of the parent's median by
#: which the metric may worsen before a change counts as a regression
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("phi_rel_err", "rel", "lower", 0.1),
    ("transform_rel_err", "rel", "lower", 0.1),
    ("adjoint_resid", "rel", "lower", 0.1),
)

WORKLOADS = ("cold", "search", "verify")

SUITES = ("concentration-k2", "concentration-k1", "slide", "superadd",
          "compactness", "truncation", "interaction")

#: (name, unit); every per-layer metric is better lower except the coverage
PER_LAYER = (
    ("transform.apply_T.calls", "count"),
    ("transform.apply_T.self_s", "s"),
    ("transform.apply_T.first_s", "s"),
    ("transform.apply_T.distinct", "count"),
    ("transform.apply_T.repeat_s", "s"),
    ("transform.apply_T.repeat_p50_ms", "ms"),
    ("transform.apply_T.repeat_p90_ms", "ms"),
    ("transform.apply_T_adjoint.calls", "count"),
    ("transform.apply_T_adjoint.first_s", "s"),
    ("transform.apply_T_adjoint.distinct", "count"),
    ("transform.apply_T_adjoint.repeat_s", "s"),
    ("transform.apply_T_indicator.s", "s"),
    ("transform.discretize_T_R.s", "s"),
    ("transform.singular_value_profile.s", "s"),
    ("extremal.search_extremizer.self_s", "s"),
    ("extremal.search_extremizer.iterations", "count"),
    ("extremal.search_extremizer.damped", "count"),
    ("extremal.search_extremizer.recentered", "count"),
    ("extremal.functional_ratio.calls", "count"),
    ("extremal.functional_ratio.self_s", "s"),
    ("extremal.constant_B_with_error.s", "s"),
    ("symmetry.normalize_dilation.calls", "count"),
    ("symmetry.normalize_dilation.self_s", "s"),
    ("symmetry.dilate_profile.calls", "count"),
    ("symmetry.dilate_profile.self_s", "s"),
    ("symmetry.rearrange.s", "s"),
    ("symmetry.truncate.s", "s"),
    ("cc.interaction_term.calls", "count"),
    ("cc.interaction_term.self_s", "s"),
    ("cc.interaction_bound_check.calls", "count"),
    ("cc.interaction_bound_check.self_s", "s"),
    ("cc.classify_trichotomy.s", "s"),
    ("core.weighted_lp_norm.calls", "count"),
    ("core.weighted_lp_norm.self_s", "s"),
    ("core.make_grid.s", "s"),
    ("core.indicator_profile.s", "s"),
    ("core.write_profile_csv.s", "s"),
    ("core.write_profile_csv.bytes", "bytes"),
    ("cli.constant.s", "s"),
    ("cli.transform.s", "s"),
    ("cli.diagnose.s", "s"),
) + tuple((f"verify.{suite}.{field}", unit) for suite in SUITES
          for field, unit in (("s", "s"), ("failed", "count"))) + (
    ("trace_overhead_frac", "frac"),
    ("trace_coverage_frac", "frac"),
)

HIGHER_IS_BETTER = {"trace_coverage_frac"}
