"""Radial k-plane transform: the sharp L^p -> L^q inequality, extremizers,
and numerical verifiers for its quantitative bounds."""

import os as _os

__version__ = "0.1.0"

# KPLANE_THREADS caps the BLAS/OpenMP thread pools. Those libraries read their
# variables once, when numpy loads, so the cap is set here, before this
# package imports numpy; a variable the caller set explicitly wins. It also
# caps the worker threads of a dense operator build (transform._workers),
# which read it at each build.
if _os.environ.get("KPLANE_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["KPLANE_THREADS"])

from .core import (ConfigurationError, DataError, DomainError, IntervalSet,
                   IterationAnomalyError, KplaneError, NumericalError,
                   ParameterError, Params, PreconditionError, RadialGrid,
                   RadialProfile, indicator_profile, make_grid,
                   make_halfline_grid, make_params, mass_above_level, mass_tail,
                   read_profile_csv, resample_values, sample_profile,
                   weighted_integral, weighted_lp_norm, write_profile_csv)
from .transform import (apply_T, apply_T_adjoint, apply_T_indicator,
                        discretize_T_R, equicontinuity_modulus,
                        singular_value_profile)
from .extremal import (SearchTrace, constant_A, constant_B,
                       constant_B_with_error, extremizer_profile,
                       functional_ratio, search_extremizer, sphere_area)
from .symmetry import dilate_profile, normalize_dilation, rearrange, truncate
from .cc import (TrichotomyReport, classify_trichotomy, concentration_function,
                 dichotomy_split, interaction_bound_check, interaction_term)
from .verify import (BoundReport, check_compactness, check_concentration_k1,
                     check_concentration_k2, check_slide_monotonicity,
                     check_superadditivity, check_truncation_pipeline, run_suite)
