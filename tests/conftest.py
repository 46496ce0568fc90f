import math

import numpy as np
import pytest

import kplane as K


@pytest.fixture(scope="session")
def grids():
    """Shared grids so operator matrices are assembled once per session."""
    return {
        "half1024": K.make_halfline_grid(1024),
        "half2048": K.make_halfline_grid(2048),
        "half4096": K.make_halfline_grid(4096),
        "trunc50": K.make_grid(4096, 50.0),
    }


def beta(a, b):
    """The Beta function B(a, b) from math.lgamma."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def smooth_decaying(params, grid, rng, n_terms=3, decay_boost=0):
    """Random positive profile built from extremizer dilates; decay_boost > 0
    makes the tail fall faster than the critical rate."""
    lam = rng.uniform(0.4, 2.5, n_terms)
    c = rng.uniform(0.2, 1.0, n_terms)
    power = (params.k + 1 + 2 * decay_boost) / 2.0
    vals = sum(ci * li ** params.scale_exp_f * (1 + (li * grid.nodes) ** 2) ** (-power)
               for ci, li in zip(c, lam))
    return K.RadialProfile(grid, vals)


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty operator cache with zeroed counters for one test; the shared
    cache is restored after."""
    from collections import Counter, OrderedDict
    from kplane import transform
    monkeypatch.setattr(transform, "_MATRIX_CACHE", OrderedDict())
    monkeypatch.setattr(transform, "_CACHE_COUNTS", Counter())
    return transform
