"""The numpy scrambled Halton sequence against scipy's, and its interior points."""

import numpy as np
import pytest
from scipy.stats import qmc

from levelflow import ConformalChart, DomainError, flat_factor
from levelflow.sampling import _halton, _halton_permutations, quasi_random_points

SEEDS = [0, 1, 7, 11, 501, 12345, 2**31 - 1]
SIZES = [3, 16, 200, 5000]


@pytest.mark.parametrize("seed", SEEDS)
def test_halton_equals_scipy_bit_for_bit(seed):
    perms = _halton_permutations(seed)
    for n in SIZES:
        fresh = qmc.Halton(d=2, scramble=True, seed=seed).random(n)
        assert np.array_equal(_halton(perms, 0, n), fresh)
    # continued draws from one generator
    sampler = qmc.Halton(d=2, scramble=True, seed=seed)
    start = 0
    for n in SIZES:
        assert np.array_equal(_halton(perms, start, n), sampler.random(n))
        start += n


def test_quasi_random_points_stay_inside_the_annulus():
    chart = ConformalChart(flat_factor(), 1.0, 4.0)
    pts = quasi_random_points(chart, 500, 3)
    r = np.hypot(pts[:, 0], pts[:, 1])
    assert pts.shape == (500, 2) and np.all((1.0 < r) & (r < 4.0))
    assert np.array_equal(pts, quasi_random_points(chart, 500, 3))
    with pytest.raises(DomainError, match="unbounded"):
        quasi_random_points(ConformalChart(flat_factor(), 1.0, None), 10)
