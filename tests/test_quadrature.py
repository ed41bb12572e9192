import math

import numpy as np
import pytest
from scipy import special

from quantilab._quad import (
    _CHUNK,
    _NODES,
    _WEIGHTS,
    QuadratureError,
    _jacobi_rule,
    _panels,
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
    # x is node-major: column j holds the 16 nodes of panel j
    out = np.empty_like(x)
    for j, fn in enumerate(BATCH):
        cols = k == j
        out[:, cols] = fn(x[:, cols])
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


# -- Gauss-Jacobi end panels -------------------------------------------------

@pytest.mark.parametrize("p", [-0.7, -0.5, 0.3, 0.5, 1.5, 2.5])
def test_batch_end_power_matches_lower_incomplete_gamma(p):
    # integral of x**p e**(-x) over (0, L) = gamma(p + 1) P(p + 1, L)
    length = np.array([0.1, 1.0, 3.0, 10.0, 40.0])
    vals, _ = integrate_batch(
        lambda x, k: x**p * np.exp(-x),
        np.zeros(length.size),
        length,
        power=np.full(length.size, p),
        abs_tol=0.0,
        rel_tol=1e-15,
    )
    ref = special.gamma(p + 1.0) * special.gammainc(p + 1.0, length)
    np.testing.assert_allclose(vals, ref, rtol=1e-14, atol=0.0)


def test_batch_end_power_is_at_each_integrals_own_lower_end():
    # integral of (x - lo)**-0.5 over (lo, lo + 1) = 2, for a mix of powers
    lo = np.array([-3.0, 0.5, 7.0, 2.0])
    power = np.array([-0.5, -0.5, 0.0, 1.5])
    vals, _ = integrate_batch(
        lambda x, k: (x - lo[k]) ** power[k],
        lo,
        lo + 1.0,
        power=power,
        abs_tol=0.0,
        rel_tol=1e-15,
    )
    np.testing.assert_allclose(vals, [2.0, 2.0, 1.0, 0.4], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("bad", [-1.0, -1.5, math.nan])
def test_batch_end_power_rejects_nonintegrable(bad):
    with pytest.raises(ValueError):
        integrate_batch(
            lambda x, k: np.ones_like(x), np.zeros(2), np.ones(2), power=np.array([0.5, bad])
        )


def test_batch_zero_end_powers_are_bit_identical_to_none():
    lo = np.array([0.0, 2.0, 0.0, 1.0])
    hi = np.array([2.0, 4.0, 1.0, 1.0])
    owner = np.array([0, 1, 2, 0])
    fn = lambda x, k: _stacked(x, owner[k])
    plain = integrate_batch(fn, lo, hi)
    zero = integrate_batch(fn, lo, hi, power=np.zeros(4))
    np.testing.assert_array_equal(zero[0], plain[0])
    np.testing.assert_array_equal(zero[1], plain[1])


@pytest.mark.parametrize("mixed", [False, True])
def test_each_panel_sums_as_it_does_alone(mixed):
    # a panel's bits must not depend on the panels it is batched with: two
    # full chunks and a lone last panel against one call per panel
    rng = np.random.default_rng(5)
    lo = np.array([0.0, -1.0, 2.0])
    p = 2 * _CHUNK + 1
    owner = rng.integers(0, 3, p)
    a = lo[owner] + np.where(rng.random(p) < 0.4, 0.0, rng.uniform(0.1, 3.0, p))
    b = a + rng.uniform(1e-3, 2.0, p)
    fn = lambda x, k: np.exp(-0.5 * x) * np.cos(x - lo[k]) + np.abs(x - lo[k]) ** 0.3
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    ends, scale, rule = None, half, np.zeros(p, dtype=int)
    rules = [(_NODES, _WEIGHTS), _jacobi_rule(0.3), _jacobi_rule(-0.5)]
    if mixed:
        rule_of = np.array([0, 1, 2])
        ends = (lo, rule_of, *(np.stack(r, axis=1) for r in zip(*rules)))
        rule = np.where(a == lo[owner], rule_of[owner], 0)
        assert (rule > 0).any() and (rule == 0).any()
        scale = np.where(rule > 0, b - a, half)
    batch = _panels(fn, a, b, owner, ends)
    alone = [_panels(fn, a[j : j + 1], b[j : j + 1], owner[j : j + 1], ends)[0] for j in range(p)]
    np.testing.assert_array_equal(batch, alone)
    # and each is its panel's 16-point rule
    nodes = np.array([r[0] for r in rules])[rule]
    x = nodes * scale[:, None] + np.where(rule > 0, a, mid)[:, None]
    ref = scale * (fn(x, owner[:, None]) * np.array([r[1] for r in rules])[rule]).sum(axis=1)
    np.testing.assert_allclose(batch, ref, rtol=1e-14, atol=0.0)
