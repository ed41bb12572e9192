import contextlib
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantilab.dilatation import (
    AdmissibilityError,
    RateQuery,
    admissible_theta_range,
    condition_integral,
    default_mu,
    q_inf,
    q_sup_sub,
    rate_constants,
    theta_star,
)
from quantilab.distributions import (
    DistributionSpec,
    QuadratureOpts,
    c_fr,
    zador_q,
)

from oracles import quadrature_sdpi

GAUSS = DistributionSpec.gaussian()
EXPO = DistributionSpec.exponential()
INF = math.inf
TIGHT = QuadratureOpts(abs_tol=1e-13, rel_tol=1e-12)

EXPONENT_GRID = [0.5, 1.0, 2.0, 4.0]


# -- theta_star ---------------------------------------------------------------

def test_theta_star_reference_values():
    assert theta_star(GAUSS, 2.0, 1.0) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-7)
    assert theta_star(GAUSS, 2.0, 4.0) == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-7)
    assert theta_star(EXPO, 2.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert theta_star(DistributionSpec.gamma(7.0), 2.0, 1.0) == pytest.approx(8.0 / 9.0)


@pytest.mark.parametrize(
    "spec", [GAUSS, EXPO, DistributionSpec.gamma(1.2)], ids=["gauss", "exp", "gamma"]
)
@pytest.mark.parametrize("r", EXPONENT_GRID)
def test_theta_star_is_one_at_equal_exponents(spec, r):
    assert theta_star(spec, r, r) == pytest.approx(1.0, rel=1e-15)


def test_theta_star_uses_dimension_for_gaussian():
    assert theta_star(DistributionSpec.gaussian(d=3), 2.0, 1.0) == pytest.approx(
        math.sqrt(4.0 / 5.0)
    )


def test_theta_star_flags_gaussian_edge_case():
    with pytest.warns(UserWarning):
        val = theta_star(GAUSS, 2.0, 3.0)  # s == r + d
    assert val == pytest.approx(math.sqrt(4.0 / 3.0))


def test_theta_star_gamma_shape_window():
    # s > r + 1 restricts the shape to (0, (s+r+1)/s)
    with pytest.raises(AdmissibilityError):
        theta_star(DistributionSpec.gamma(3.0), 1.0, 5.0)
    assert theta_star(DistributionSpec.gamma(1.2), 1.0, 5.0) == pytest.approx(6.2 / 2.2)


def test_theta_star_independent_of_scale_parameters():
    vals = {theta_star(DistributionSpec.gaussian(1.0, s2), 2.0, 1.0) for s2 in (0.3, 1.0, 9.0)}
    assert len(vals) == 1
    vals = {theta_star(DistributionSpec.exponential(lam), 2.0, 4.0) for lam in (0.2, 1.0, 5.0)}
    assert len(vals) == 1


# -- admissible ranges ---------------------------------------------------------

def test_admissible_range_reference_values():
    lo, hi = admissible_theta_range(GAUSS, 2.0, 4.0)
    assert (lo, hi) == (pytest.approx(math.sqrt(4.0 / 3.0)), INF)
    assert admissible_theta_range(EXPO, 2.0, 1.0) == (pytest.approx(0.5), INF)
    assert admissible_theta_range(DistributionSpec.gamma(2.0), 2.0, 4.0) == (
        pytest.approx(4.0 / 3.0),
        INF,
    )


@pytest.mark.parametrize(
    "spec", [GAUSS, EXPO, DistributionSpec.gamma(1.2)], ids=["gauss", "exp", "gamma"]
)
@pytest.mark.parametrize("r", EXPONENT_GRID)
@pytest.mark.parametrize("s", EXPONENT_GRID)
def test_theta_star_lies_in_admissible_range(spec, r, s):
    lo, hi = admissible_theta_range(spec, r, s)
    # the Gaussian s = r + d lies outside the proven window
    window = pytest.warns(UserWarning, match="outside the proven equivalence window")
    with window if spec is GAUSS and s == r + 1.0 else contextlib.nullcontext():
        th = theta_star(spec, r, s)
    assert lo < th < hi


# -- quadrature constants vs closed forms ---------------------------------------

def _gauss_condition_closed_form(sigma2, r, s, theta):
    return (2.0 * math.pi * sigma2) ** (s / (2.0 * (1.0 + r))) / math.sqrt(
        theta**2 - s / (1.0 + r)
    )


def _exp_condition_closed_form(lam, r, s, theta):
    return lam ** (-s / (1.0 + r)) / (theta - s / (1.0 + r))


def _gamma_condition_closed_form(a, lam, r, s, theta):
    power = (a - 1.0) * (1.0 - s / (1.0 + r))
    rate = lam * (theta - s / (1.0 + r))
    const = math.exp(
        (1.0 - s / (1.0 + r)) * (a * math.log(lam) - math.lgamma(a))
    )
    return const * theta ** (a - 1.0) * math.gamma(power + 1.0) / rate ** (power + 1.0)


@pytest.mark.parametrize("theta", [0.85, 1.0, 1.6])
def test_condition_integral_gaussian_matches_closed_form(theta):
    q = RateQuery(DistributionSpec.gaussian(0.5, 2.0), 2.0, 1.5, theta)
    assert condition_integral(q) == pytest.approx(
        _gauss_condition_closed_form(2.0, 2.0, 1.5, theta), rel=1e-10
    )


@pytest.mark.parametrize("theta", [0.7, 1.3])
def test_condition_integral_exponential_matches_closed_form(theta):
    q = RateQuery(DistributionSpec.exponential(2.0), 2.0, 1.0, theta)
    assert condition_integral(q) == pytest.approx(
        _exp_condition_closed_form(2.0, 2.0, 1.0, theta), rel=1e-10
    )


@pytest.mark.parametrize("a", [0.6, 2.0, 7.0])
def test_condition_integral_gamma_matches_closed_form(a):
    q = RateQuery(DistributionSpec.gamma(a, 1.5), 2.0, 1.0, 0.9)
    assert condition_integral(q) == pytest.approx(
        _gamma_condition_closed_form(a, 1.5, 2.0, 1.0, 0.9), rel=1e-9
    )


def test_condition_integral_reference_value():
    # corrected closed form: ((2 pi)^d det)**(s/(2(d+r))) ((d+r)/d)**(d/2)
    q = RateQuery(GAUSS, 2.0, 4.0, math.sqrt(5.0 / 3.0))
    ref = (2.0 * math.pi) ** (2.0 / 3.0) * math.sqrt(3.0)
    assert condition_integral(q) == pytest.approx(ref, rel=1e-10)


def test_condition_integral_near_zero_exponent_is_unit_mass():
    val = condition_integral(RateQuery(GAUSS, 2.0, 1e-9, 1.0))
    assert val == pytest.approx(1.0, abs=1e-6)


def test_condition_integral_divergence_is_analytic():
    assert condition_integral(RateQuery(EXPO, 2.0, 4.0, 1.0)) == INF  # 1 < 4/3
    assert condition_integral(RateQuery(GAUSS, 2.0, 1.0, math.sqrt(1.0 / 3.0))) == INF
    # Gamma shape condition a(r+1-s) + s <= 0 diverges at any theta
    bad = RateQuery(DistributionSpec.gamma(5.0), 1.0, 4.0, 10.0)
    assert condition_integral(bad) == INF


# -- q_inf ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", [GAUSS, EXPO], ids=["gauss", "exp"])
@pytest.mark.parametrize("s", [1.0, 4.0])
def test_q_inf_at_theta_star_recovers_zador_constant(spec, s):
    th = theta_star(spec, 2.0, s)
    val = q_inf(RateQuery(spec, 2.0, s, th))
    assert val == pytest.approx(zador_q(spec, s), rel=1e-6)


def test_q_inf_reference_values():
    val = q_inf(RateQuery(GAUSS, 2.0, 1.0, math.sqrt(2.0 / 3.0)))
    assert val == pytest.approx(math.sqrt(2.0 * math.pi) / 2.0, rel=1e-9)
    val = q_inf(RateQuery(EXPO, 2.0, 1.0, 2.0 / 3.0))
    assert val == pytest.approx(1.0, rel=1e-10)


def test_q_inf_divergence_matches_condition_integral():
    for theta in (0.2, 0.5, 0.6, 1.0, 2.0):
        query = RateQuery(EXPO, 2.0, 4.0, theta)
        assert math.isinf(q_inf(query)) == math.isinf(condition_integral(query))


# -- q_sup_sub --------------------------------------------------------------------

def test_q_sup_sub_reference_values():
    val = q_sup_sub(RateQuery(GAUSS, 2.0, 1.0, math.sqrt(2.0 / 3.0)))
    ref = 2.0 * math.sqrt(1.0 / 12.0) * math.sqrt(2.0 * math.pi)
    assert val == pytest.approx(ref, rel=1e-9)
    val = q_sup_sub(RateQuery(EXPO, 2.0, 1.0, 2.0 / 3.0))
    assert val == pytest.approx(0.5 * 4.0 / math.sqrt(3.0), rel=1e-10)


def test_q_sup_sub_divergence_below_threshold():
    assert q_sup_sub(RateQuery(GAUSS, 2.0, 1.0, math.sqrt(0.5))) == INF
    assert q_sup_sub(RateQuery(EXPO, 2.0, 1.0, 0.5)) == INF


def test_q_sup_sub_is_infinite_just_above_threshold():
    # theta > s / r, but the closed form's rate lam (1.5 theta - 0.5) rounds to 0
    assert q_sup_sub(RateQuery(EXPO, 3.0, 1.0, math.nextafter(1.0 / 3.0, INF))) == INF


def test_q_sup_sub_rejects_s_not_below_r():
    with pytest.raises(ValueError):
        q_sup_sub(RateQuery(GAUSS, 2.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        q_sup_sub(RateQuery(GAUSS, 1.0, 2.0, 1.0))


@pytest.mark.parametrize("spec", [GAUSS, EXPO], ids=["gauss", "exp"])
@pytest.mark.parametrize("theta_scale", [1.0, 1.1, 1.4])
def test_lower_bound_sandwiched_by_upper_bound(spec, theta_scale):
    r, s = 2.0, 1.0
    theta = theta_star(spec, r, s) * theta_scale
    query = RateQuery(spec, r, s, theta)
    lo = q_inf(query)
    hi = q_sup_sub(query)
    assert lo <= hi + 1e-12


def test_theta_star_minimises_upper_bound_objective():
    for spec in (GAUSS, EXPO, DistributionSpec.gamma(1.4)):
        for r, s in ((2.0, 1.0), (2.0, 4.0), (4.0, 1.0)):
            th = theta_star(spec, r, s)
            if s < r:
                h = lambda t: q_sup_sub(RateQuery(spec, r, s, t))
            else:
                h = lambda t: t ** (s + 1) * condition_integral(
                    RateQuery(spec, r, s, t)
                )
            centre = h(th)
            assert centre < h(th * 1.05)
            assert centre < h(th * 0.95)


def test_holder_identity_at_theta_star():
    r, s = 2.0, 1.0
    th = theta_star(GAUSS, r, s)
    lhs = quadrature_sdpi(GAUSS, th, 0.0, 1.0, -s / (1.0 + r), TIGHT)
    holder = quadrature_sdpi(GAUSS, th, 0.0, r / (r - s), -s / (r - s), TIGHT)
    rhs = holder ** ((r - s) / r) * c_fr(GAUSS, r) ** (s / r)
    assert lhs == pytest.approx(rhs, rel=1e-8)


# -- query validation and bundles -------------------------------------------------

def test_rate_query_defaults_and_mu_rules():
    q = RateQuery(DistributionSpec.gaussian(3.0), 2.0, 1.0, 1.0)
    assert q.mu == 3.0
    assert default_mu(EXPO) == 0.0
    with pytest.raises(AdmissibilityError):
        RateQuery(EXPO, 2.0, 1.0, 1.0, mu=0.3)
    with pytest.raises(ValueError):
        RateQuery(GAUSS, 2.0, 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rate_inputs_are_rejected_by_name(bad):
    for call, name in (
        (lambda: RateQuery(GAUSS, bad, 1.0, 1.0), "r"),
        (lambda: RateQuery(GAUSS, 2.0, bad, 1.0), "s"),
        (lambda: RateQuery(GAUSS, 2.0, 1.0, bad), "theta"),
        (lambda: RateQuery(GAUSS, 2.0, 1.0, 1.0, mu=bad), "mu"),
        (lambda: theta_star(EXPO, bad, 1.0), "r"),
        (lambda: theta_star(EXPO, 2.0, bad), "s"),
        (lambda: admissible_theta_range(GAUSS, 2.0, bad), "s"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call()


def test_q_inf_accepts_offcentre_gaussian_mu():
    val = q_inf(RateQuery(GAUSS, 2.0, 1.0, 1.0, mu=0.7))
    assert math.isfinite(val) and val > 0.0


def test_rate_constants_bundle():
    query = RateQuery(EXPO, 2.0, 1.0, 2.0 / 3.0)
    consts = rate_constants(query)
    assert consts.theta_star == pytest.approx(2.0 / 3.0)
    assert consts.theta_admissible
    assert consts.q_inf == pytest.approx(1.0, rel=1e-10)
    assert consts.q_sup_sub == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-10)
    assert consts.condition_integral == pytest.approx(3.0, rel=1e-10)
    s_large = rate_constants(RateQuery(EXPO, 2.0, 4.0, 0.5))
    assert s_large.q_sup_sub is None
    assert math.isinf(s_large.q_inf) and math.isinf(s_large.condition_integral)
    assert not s_large.theta_admissible


# -- scale equivariance -------------------------------------------------------------

@settings(max_examples=60, deadline=None, database=None)
@given(
    gaussian=st.booleans(),
    a=st.floats(0.5, 8.0),
    scale=st.floats(1e-6, 1e6),
    m=st.floats(-100.0, 100.0),
    r=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    s=st.sampled_from([0.5, 1.0, 2.5, 4.0]),
    stretch=st.floats(1.05, 3.0),
)
def test_rate_constants_scale_exactly_with_the_law(gaussian, a, scale, m, r, s, stretch):
    # q_inf and q_sup_sub scale as sigma**s (Gaussian, mu = m) or lam**(-s)
    # (Gamma(a, lam)); the condition integral as the same factor**(s/(1+r))
    if gaussian:
        unit, law = GAUSS, DistributionSpec.gaussian(m, scale**2)
        factor = law.sigma
    else:
        unit, law = DistributionSpec.gamma(a), DistributionSpec.gamma(a, scale)
        factor = 1.0 / law.lam
    theta = admissible_theta_range(unit, r, s)[0] * stretch
    base, scaled = RateQuery(unit, r, s, theta), RateQuery(law, r, s, theta)
    cond = condition_integral(base)
    assume(math.isfinite(cond))
    pairs = [
        (condition_integral(scaled), cond * factor ** (s / (1.0 + r))),
        (q_inf(scaled), q_inf(base) * factor**s),
    ]
    if s < r:
        pairs.append((q_sup_sub(scaled), q_sup_sub(base) * factor**s))
    for got, want in pairs:
        assert abs(got - want) <= 1e-11 * abs(want)
