import math

import numpy as np
import pytest
from scipy import special

from quantilab._quad import (
    QuadratureError,
    integrate,
    integrate_batch,
    integrate_endpoint_power,
)


def test_polynomial_is_exact():
    val, err = integrate(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert abs(val - 8.0) < 1e-13
    assert err < 1e-12


def test_kink_with_breakpoint():
    val, _ = integrate(lambda x: np.abs(x), -1.0, 2.0, breakpoints=(0.0,))
    assert abs(val - 2.5) < 1e-13


def test_narrow_bump_found_via_breakpoint():
    f = lambda x: np.exp(-0.5 * ((x - 3.0) / 0.01) ** 2)
    val, _ = integrate(f, -50.0, 50.0, breakpoints=(2.9, 3.0, 3.1))
    assert abs(val - 0.01 * math.sqrt(2 * math.pi)) < 1e-12


def test_empty_and_reversed_interval():
    assert integrate(lambda x: x, 1.0, 1.0) == (0.0, 0.0)
    assert integrate(lambda x: x, 2.0, 1.0) == (0.0, 0.0)


def test_budget_exhaustion_carries_diagnostics():
    rough = lambda x: np.abs(np.sin(50.0 / (np.abs(x) + 1e-3)))
    with pytest.raises(QuadratureError) as exc:
        integrate(rough, 0.0, 1.0, abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=8)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.error_bound > 0.0


def test_endpoint_power_sqrt_singularity():
    # integral of x**(-1/2) e**(-x) over (0, 1) = gamma(1/2) P(1/2, 1)
    val, _ = integrate_endpoint_power(
        lambda x: np.exp(-x), -0.5, 0.0, 1.0, singular_at="lo"
    )
    ref = math.gamma(0.5) * special.gammainc(0.5, 1.0)
    assert abs(val - ref) < 1e-12


def test_endpoint_power_at_upper_end():
    # integral of (1-x)**(-0.3) over (0, 1) = 1 / 0.7
    val, _ = integrate_endpoint_power(
        lambda x: np.ones_like(x), -0.3, 0.0, 1.0, singular_at="hi"
    )
    assert abs(val - 1.0 / 0.7) < 1e-12


def test_endpoint_power_rejects_nonintegrable():
    with pytest.raises(ValueError):
        integrate_endpoint_power(lambda x: x, -1.0, 0.0, 1.0)


# -- batched integrator ------------------------------------------------------

BATCH = [
    lambda x: 3.0 * x**2,
    lambda x: np.exp(-0.5 * ((x - 3.0) / 0.05) ** 2),  # needs refinement
    lambda x: np.sqrt(np.abs(x)),  # algebraic endpoint at 0
]


def _stacked(x, k):
    out = np.empty_like(x)
    for j, fn in enumerate(BATCH):
        rows = k == j
        out[rows] = fn(x[rows])
    return out


def test_batch_matches_scalar_integrator():
    lo = np.array([0.0, 2.0, 0.0, 1.0])
    hi = np.array([2.0, 4.0, 1.0, 1.0])  # the last interval is empty
    owner = np.array([0, 1, 2, 0])
    vals, errs = integrate_batch(lambda x, k: _stacked(x, owner[k]), lo, hi)
    for j in range(3):
        ref, _ = integrate(BATCH[owner[j]], lo[j], hi[j])
        assert abs(vals[j] - ref) <= max(1e-12, 1e-10 * abs(ref))
        assert errs[j] <= max(1e-12, 1e-10 * abs(vals[j]))
    assert vals[3] == 0.0 and errs[3] == 0.0


def test_batch_budget_exhaustion_carries_diagnostics():
    rough = lambda x, k: np.abs(np.sin(50.0 / (np.abs(x) + 1e-3)))
    with pytest.raises(QuadratureError) as exc:
        integrate_batch(
            rough, np.zeros(2), np.ones(2), abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=8
        )
    assert math.isfinite(exc.value.estimate)
    assert exc.value.error_bound > 0.0
