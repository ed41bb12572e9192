import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import special
from hypothesis import strategies as st

from quantilab import distributions
from quantilab.distributions import (
    DEFAULT_QUAD,
    DistributionSpec,
    Family,
    QuadratureOpts,
    UnsupportedDimensionError,
    _abs_moment,
    _abs_moments,
    _edge_law,
    _edge_masses,
    _effective_bounds,
    c_fr,
    cdf,
    cell_gradient,
    cell_moment,
    cube_coefficient,
    empirical_density,
    empirical_measure_law,
    log_pdf,
    pdf,
    quantile,
    quantile_sf,
    scaled_density_power_integral,
    sf,
    zador_q,
)
from quantilab.quantizer import voronoi_bounds
from quantilab.solver import _QUAD as SOLVER_QUAD

from oracles import mp_cell_moment, quadrature_sdpi

GAUSS = DistributionSpec.gaussian()
EXPO = DistributionSpec.exponential()
GAMMA7 = DistributionSpec.gamma(7.0)
FAMILIES = [GAUSS, EXPO, GAMMA7, DistributionSpec.gamma(0.5), DistributionSpec.gamma(2.0, 3.0)]

TIGHT = QuadratureOpts(abs_tol=1e-13, rel_tol=1e-12)
INF = math.inf


# -- pdf / cdf / quantile ----------------------------------------------------

def test_pdf_standard_normal_mode():
    assert pdf(GAUSS, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)


def test_pdf_exponential_support_boundary():
    assert pdf(EXPO, 0.0) == 1.0
    assert pdf(EXPO, -1.0) == 0.0


def test_pdf_gamma7_at_one():
    # x**6 e**(-x) / 6! at x = 1
    assert pdf(GAMMA7, 1.0) == pytest.approx(math.exp(-1.0) / 720.0, rel=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", FAMILIES + [DistributionSpec.exponential(2.5)])
def test_pdf_vanishes_at_both_infinities(spec):
    # a Gamma shape above 1 once took (a - 1) log(x) - lam x = inf - inf at +inf;
    # lam x and (x - m)^2 overflow at huge finite x, which once warned
    assert pdf(spec, INF) == pdf(spec, -INF) == 0.0
    assert pdf(spec, 1e308) == pdf(spec, -1e308) == 0.0
    assert log_pdf(spec, INF) == log_pdf(spec, -INF) == -INF
    xs = np.array([-INF, -1e308, -1e200, 1.0, 1e200, 1e308, INF])
    np.testing.assert_array_equal(np.delete(pdf(spec, xs), 3), 0.0)
    np.testing.assert_array_equal(log_pdf(spec, np.array([-INF, INF])), -INF)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", FAMILIES)
def test_pointwise_functions_give_nan_at_nan(spec):
    # a Gamma density once read NaN as a point outside its support
    for fn in (pdf, log_pdf, cdf, sf):
        assert math.isnan(fn(spec, math.nan))
        got = fn(spec, np.array([[math.nan, 1.0], [2.0, math.nan]]))
        assert np.isnan(got).tolist() == [[True, False], [False, True]]


EDGE_X = [math.nan, -INF, -1.0, 0.0, INF]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [0.3, 1.0, 2.0, 7.0])
@pytest.mark.parametrize("lam", [1.0, 2.5])
def test_gamma_density_at_the_support_edges(a, lam):
    # log_pdf evaluates its formula on every point and fixes up only these
    at_zero = INF if a < 1.0 else math.log(lam) if a == 1.0 else -INF
    want = [math.nan, -INF, -INF, at_zero, -INF]
    spec = DistributionSpec.gamma(a, lam)
    np.testing.assert_array_equal(log_pdf(spec, np.array(EDGE_X)), want)
    np.testing.assert_array_equal(pdf(spec, np.array(EDGE_X)), np.exp(want))
    for x, w in zip(EDGE_X, want):
        got, dens = log_pdf(spec, x), pdf(spec, x)
        assert type(got) is float and type(dens) is float
        np.testing.assert_array_equal([got, dens], [w, math.exp(w)])


def _masked_gamma_log_pdf(a, lam, x):
    out = np.where(np.isnan(x), math.nan, -INF)
    inside = (x > 0.0) & (x < INF)
    xi = x[inside]
    out[inside] = a * math.log(lam) - math.lgamma(a) + (a - 1.0) * np.log(xi) - lam * xi
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 2.0, 7.0, 40.0])
@pytest.mark.parametrize("lam", [1.0, 2.5])
def test_gamma_log_pdf_is_bit_for_bit_the_masked_formula(a, lam):
    rng = np.random.default_rng(11)
    x = np.concatenate(
        [np.geomspace(1e-300, 1e300, 601), rng.uniform(0.0, 30.0, 992), EDGE_X, [-0.0, 5e-324]]
    )
    rng.shuffle(x)
    spec = DistributionSpec.gamma(a, lam)
    want = _masked_gamma_log_pdf(a, lam, x)
    want[x == 0.0] = INF if a < 1.0 else math.log(lam) if a == 1.0 else -INF
    np.testing.assert_array_equal(log_pdf(spec, x), want)
    np.testing.assert_array_equal(log_pdf(spec, x.reshape(16, -1)), want.reshape(16, -1))
    inside = x[(x > 0.0) & (x < INF)]
    np.testing.assert_array_equal(log_pdf(spec, inside), _masked_gamma_log_pdf(a, lam, inside))


@pytest.mark.parametrize("spec", FAMILIES)
def test_pdf_integrates_to_one(spec):
    mass = quadrature_sdpi(spec, 1.0, 0.0, 0.0, 1.0, TIGHT)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_exponential_is_gamma_with_shape_one():
    assert DistributionSpec.exponential(2.0) == DistributionSpec.gamma(1.0, 2.0)
    assert EXPO.family is Family.GAMMA and EXPO.a == 1.0
    assert [f.value for f in Family] == ["gaussian", "gamma"]


# The exponential law runs through the Gamma code; its closed forms stay as
# the oracle.  x, p and q are drawn log-uniformly so every decade is hit.
TINY = np.finfo(float).tiny
EXP_RATES = st.sampled_from([0.3, 1.0, 7.0])
ORACLE = settings(max_examples=300, deadline=None, database=None)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(
        lambda t: min(max(math.exp(t), lo), hi)
    )


def _assert_rel_close(got: float, want: float) -> None:
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


@ORACLE
@given(
    lam=EXP_RATES,
    x=st.one_of(_log_uniform(1e-300, 700.0), st.floats(1e-300, 700.0)),
)
def test_exponential_cdf_and_sf_match_closed_forms(lam, x):
    spec = DistributionSpec.exponential(lam)
    _assert_rel_close(cdf(spec, x), -math.expm1(-lam * x))
    tail = math.exp(-lam * x)
    if tail >= TINY:
        _assert_rel_close(sf(spec, x), tail)


@ORACLE
@given(
    lam=EXP_RATES,
    p=st.one_of(
        _log_uniform(TINY, 0.5),
        _log_uniform(1e-16, 0.5).map(lambda u: 1.0 - u),
        st.floats(TINY, 1.0, exclude_max=True),
    ),
)
def test_exponential_quantiles_match_closed_forms(lam, p):
    spec = DistributionSpec.exponential(lam)
    _assert_rel_close(quantile(spec, p), -math.log1p(-p) / lam)
    _assert_rel_close(quantile_sf(spec, p), -math.log(p) / lam)


# Gamma shapes below 1 take cdf and sf near the origin from shape a + 1.
SUBUNIT_X = np.concatenate([np.geomspace(1e-8, 40.0, 120), np.linspace(0.05, 1.1, 200)])


def _max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / want))


@pytest.mark.parametrize("lam", [1.0, 2.5])
@pytest.mark.parametrize("a", [1e-6, 0.05, 0.3, 0.5, 0.9])
def test_subunit_gamma_cdf_and_sf_match_mpmath(a, lam):
    # the recurrence, its cancellation guard (a = 1e-6, and a = 0.05 near
    # x = 1.1) and the points left to scipy stay within scipy's own error
    spec = DistributionSpec.gamma(a, lam)
    x = SUBUNIT_X / lam
    u = lam * x
    with mpmath.workdps(40):
        p = np.array([float(mpmath.gammainc(a, 0, v, regularized=True)) for v in u])
        q = np.array([float(mpmath.gammainc(a, v, mpmath.inf, regularized=True)) for v in u])
    assert _max_rel_err(cdf(spec, x), p) <= max(5e-14, _max_rel_err(special.gammainc(a, u), p))
    assert _max_rel_err(sf(spec, x), q) <= max(5e-14, _max_rel_err(special.gammaincc(a, u), q))


def test_gamma_half_cdf_and_sf_match_the_error_function():
    spec = DistributionSpec.gamma(0.5)
    x = SUBUNIT_X
    assert _max_rel_err(cdf(spec, x), special.erf(np.sqrt(x))) <= 5e-14
    assert _max_rel_err(sf(spec, x), special.erfc(np.sqrt(x))) <= 5e-14


@pytest.mark.parametrize("a", [0.05, 0.5, 0.9])
def test_subunit_gamma_cdf_and_sf_at_the_ends_and_in_any_shape(a):
    spec = DistributionSpec.gamma(a, 2.5)
    assert (cdf(spec, 0.0), sf(spec, 0.0)) == (0.0, 1.0)
    assert (cdf(spec, -1.0), sf(spec, -1.0)) == (0.0, 1.0)
    assert (cdf(spec, INF), sf(spec, INF)) == (1.0, 0.0)
    assert isinstance(cdf(spec, 0.3), float) and isinstance(sf(spec, 0.3), float)
    grid = np.array([[0.0, 0.01, 0.3], [0.44, 2.0, INF]])
    for fn in (cdf, sf):
        got = fn(spec, grid)
        assert got.shape == grid.shape
        np.testing.assert_array_equal(got.ravel(), fn(spec, grid.ravel()))
        np.testing.assert_array_equal(got[0], [fn(spec, v) for v in grid[0]])


def test_subunit_gamma_cdf_stays_at_most_one_where_its_sf_is_below_round_off():
    x = np.linspace(0.0, 1.1, 1001)
    assert np.all(cdf(DistributionSpec.gamma(1e-20), x) <= 1.0)


@pytest.mark.parametrize("a", [1.0, 2.0, 7.0])
def test_gamma_shapes_from_one_take_scipy_bit_for_bit(a):
    x = np.concatenate([[0.0, INF, math.nan], SUBUNIT_X])
    spec = DistributionSpec.gamma(a)
    np.testing.assert_array_equal(cdf(spec, x), special.gammainc(a, x))
    np.testing.assert_array_equal(sf(spec, x), special.gammaincc(a, x))


def test_quantile_examples():
    assert quantile(GAUSS, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert quantile(EXPO, 0.5) == pytest.approx(math.log(2.0), rel=1e-14)
    assert quantile(DistributionSpec.gamma(2.0), 0.5) == pytest.approx(1.678347, abs=1e-6)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
def test_quantile_rejects_bad_levels(p):
    with pytest.raises(ValueError):
        quantile(GAUSS, p)


@pytest.mark.parametrize("spec", FAMILIES)
def test_quantile_inverts_cdf(spec):
    for p in (1e-6, 0.021, 0.5, 0.77, 1.0 - 1e-6):
        assert cdf(spec, quantile(spec, p)) == pytest.approx(p, abs=1e-12)


# -- cell moments ------------------------------------------------------------

def test_cell_moment_gaussian_variance():
    assert cell_moment(GAUSS, 0.0, -INF, INF, 2.0) == pytest.approx(1.0, abs=5e-10)


def test_cell_moment_exponential_variance():
    # default tail cut leaves a ~cut * |t-a|^r deficit, per the documented bound
    assert cell_moment(EXPO, 1.0, 0.0, INF, 2.0) == pytest.approx(1.0, abs=2e-9)
    deep = QuadratureOpts(abs_tol=1e-13, rel_tol=1e-12, tail_mass_cut=1e-16)
    assert cell_moment(EXPO, 1.0, 0.0, INF, 2.0, deep) == pytest.approx(1.0, abs=2e-12)


def test_cell_moment_gaussian_first_absolute_moment():
    ref = math.sqrt(2.0 / math.pi)
    assert cell_moment(GAUSS, 0.0, -INF, INF, 1.0) == pytest.approx(ref, abs=5e-10)


@pytest.mark.parametrize("spec", [GAUSS, EXPO, GAMMA7])
@pytest.mark.parametrize("r", [1.0, 2.0, 3.5])
def test_cell_moment_additive_over_splits(spec, r):
    opts = QuadratureOpts(abs_tol=1e-12, rel_tol=1e-13)
    a, lo, hi, mid = 0.7, 0.05, 4.0, 1.1
    whole = cell_moment(spec, a, lo, hi, r, opts)
    parts = cell_moment(spec, a, lo, mid, r, opts) + cell_moment(spec, a, mid, hi, r, opts)
    assert abs(whole - parts) <= 2.0 * opts.abs_tol + 1e-14


def test_cell_moment_about_gamma_support_edge():
    # weight point at the singular support edge: powers merge analytically
    from scipy import special

    gm = DistributionSpec.gamma(0.5)
    got = cell_moment(gm, 0.0, 0.0, INF, 2.0, QuadratureOpts(tail_mass_cut=1e-16))
    assert got == pytest.approx(math.gamma(2.5) / math.gamma(0.5), rel=1e-10)
    got = cell_moment(gm, 0.0, 0.0, 1.0, 1.5)
    ref = special.gammainc(2.0, 1.0) * math.gamma(2.0) / math.gamma(0.5)
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.5])
def test_cell_moment_exponential_scaling_equivariance(lam):
    a, lo, hi, r = 0.8, 0.1, 3.0, 2.0
    scaled = cell_moment(DistributionSpec.exponential(lam), a, lo, hi, r, TIGHT)
    unit = cell_moment(EXPO, lam * a, lam * lo, lam * hi, r, TIGHT)
    assert scaled == pytest.approx(unit / lam**r, rel=1e-10)


def test_cell_gradient_symmetry_and_roots():
    assert abs(cell_gradient(GAUSS, 0.0, -INF, INF, 2.0)) < 1e-10
    assert abs(cell_gradient(EXPO, 1.0, 0.0, INF, 2.0)) < 1e-10  # mean minimises L2
    assert abs(cell_gradient(EXPO, math.log(2.0), 0.0, INF, 1.0)) < 1e-10  # median, L1


@pytest.mark.parametrize("spec", [GAUSS, EXPO, GAMMA7])
@pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
def test_cell_gradient_matches_finite_difference(spec, r):
    a, lo, hi, h = 1.3, 0.2, 3.7, 1e-5
    grad = cell_gradient(spec, a, lo, hi, r, TIGHT)
    fd = (
        cell_moment(spec, a + h, lo, hi, r, TIGHT)
        - cell_moment(spec, a - h, lo, hi, r, TIGHT)
    ) / (2.0 * h)
    assert grad == pytest.approx(fd, rel=1e-5)


def test_cell_gradient_rejects_subunit_exponent():
    with pytest.raises(ValueError):
        cell_gradient(GAUSS, 0.0, -1.0, 1.0, 0.5)


def test_cell_moment_budget_exhaustion_is_diagnosable():
    from quantilab.distributions import QuadratureError

    # fractional exponent: algebraic endpoint behaviour needs real refinement
    starved = QuadratureOpts(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=4)
    with pytest.raises(QuadratureError) as exc:
        cell_moment(GAUSS, 0.0, -math.inf, math.inf, 1.5, starved)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.error_bound > 0.0


# -- batched cell integrals against the scalar oracle -------------------------

ORACLE_SPECS = [
    DistributionSpec.gaussian(0.3, 2.0),
    DistributionSpec.exponential(1.7),
    DistributionSpec.gamma(2.0),
    DistributionSpec.gamma(0.5),  # singular density in the cell at 0
]


@pytest.mark.parametrize("opts", [DEFAULT_QUAD, SOLVER_QUAD], ids=["default", "solver"])
@pytest.mark.parametrize("n", [1, 3, 5, 40])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["gauss", "exp", "gamma2", "gamma0.5"])
def test_batched_cell_integrals_match_scalar_oracle(spec, n, opts):
    law = empirical_measure_law(spec, 2.0)
    pts = np.asarray(quantile(law, (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)))
    b = voronoi_bounds(pts)  # the two end cells are the unbounded tails
    # r = 1.5: gradient weight, Jacobian weight (singular at the point), moment
    for q, signed in ((0.5, True), (-0.5, False), (1.5, False)):
        vals = _abs_moments(spec, pts, b[:-1], b[1:], q, opts, signed)
        for i in range(n):
            ref = _abs_moment(spec, float(pts[i]), b[i], b[i + 1], q, opts, signed)
            # a signed integral can cancel to ~0; its two pieces carry the error
            size = _abs_moment(spec, float(pts[i]), b[i], b[i + 1], q, opts)
            tol = max(opts.abs_tol, opts.rel_tol * abs(size))
            assert abs(vals[i] - ref) <= tol, (q, signed, i, vals[i], ref)


@pytest.mark.parametrize(
    "weights",
    [
        ((0.5, True), (-0.5, False)),  # r = 1.5: residual and curvature
        ((2.0, True), (1.0, False)),  # r = 3
        ((-0.5, True),) * 3,  # one power on three grids
        ((-0.5, True), (0.5, False)),  # r = 0.5: residual and moment
    ],
    ids=["r1.5", "r3", "r0.5", "r0.5-moment"],
)
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["gauss", "exp", "gamma2", "gamma0.5"])
def test_per_cell_powers_in_one_batch_equal_the_separate_calls(spec, weights):
    # the solver stacks a residual's cells with a curvature's or a
    # moment's into one call; each cell must come out bit for bit as its
    # own call gives it
    opts = SOLVER_QUAD
    n = 20
    law = empirical_measure_law(spec, 2.0)
    base = np.asarray(quantile(law, (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)))
    grids = [base + 1e-7 * (1.0 + base) * (np.arange(n) % 3 == k) for k in range(len(weights))]
    bounds = [voronoi_bounds(g) for g in grids]
    stacked = _abs_moments(
        spec,
        np.concatenate(grids),
        np.concatenate([b[:-1] for b in bounds]),
        np.concatenate([b[1:] for b in bounds]),
        np.repeat([q for q, _ in weights], n),
        opts,
        signed=np.repeat([s for _, s in weights], n),
    )
    for j, (pts, b, (q, signed)) in enumerate(zip(grids, bounds, weights)):
        vals = _abs_moments(spec, pts, b[:-1], b[1:], q, opts, signed)
        assert np.array_equal(stacked[j * n : (j + 1) * n], vals), (q, signed)


@pytest.mark.parametrize("q", [-0.7, -0.5, 0.5, 1.5, 2.5])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["gauss", "exp", "gamma2", "gamma0.5"])
def test_fractional_cell_integrals_match_mpmath(spec, q):
    # the weight |x - pt|**q is not smooth at the point (and the Gamma(0.5)
    # density not at the origin).  At the solver's options every cell must
    # come out within 1e-12 relative, the far-tail cells too: their values
    # (~5e-6) sit so low that the absolute floor abs_tol = 1e-16 alone would
    # let them off at 1e-11.
    opts = SOLVER_QUAD
    n = 40
    law = empirical_measure_law(spec, 2.0)
    pts = np.asarray(quantile(law, (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)))
    b = voronoi_bounds(pts)
    vals = _abs_moments(spec, pts, b[:-1], b[1:], q, opts)
    for i in (0, 1, 20, 37, 38, 39):  # the origin cell of a Gamma law, the tail cells
        ref = mp_cell_moment(spec, float(pts[i]), b[i], b[i + 1], q)
        assert abs(vals[i] - ref) <= 1e-12 * abs(ref), (i, vals[i], ref)


@pytest.mark.parametrize(
    "spec",
    [GAUSS, EXPO, DistributionSpec.gamma(2.0, 1.5), DistributionSpec.gamma(0.5)],
    ids=["gauss", "exp", "gamma2", "gamma0.5"],
)
def test_edge_masses_match_the_per_interval_choice(spec):
    # reference: one interval at a time, cdf difference below the median,
    # sf difference above it (no cancellation in either tail)
    lo_s = spec.support[0]
    inner = np.sort(quantile(spec, np.array([1e-12, 0.1, 0.4999, 0.5, 0.7, 0.99, 1 - 1e-12])))
    edges = np.concatenate(([lo_s], inner, inner[-1:], [INF]))  # one empty interval
    ref = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if cdf(spec, lo) <= 0.5:
            mass = cdf(spec, hi) - cdf(spec, lo)
        else:
            mass = sf(spec, lo) - sf(spec, hi)
        ref.append(max(mass, 0.0) if hi > lo else 0.0)
    np.testing.assert_array_equal(_edge_masses(spec, edges), ref)
    assert _edge_masses(spec, edges)[-1] == sf(spec, inner[-1])


def _record_abscissae(monkeypatch, *names):
    """Wrap distributions.<name> to record every abscissa it is given."""
    seen = {name: [] for name in names}

    def recorder(name, real):
        def recording(spec, x, *args, **kwargs):
            seen[name].append(np.ravel(np.array(x, dtype=float)))
            return real(spec, x, *args, **kwargs)

        return recording

    for name in names:
        monkeypatch.setattr(distributions, name, recorder(name, getattr(distributions, name)))
    return {name: lambda name=name: np.concatenate(seen[name] or [np.empty(0)]) for name in names}


@pytest.mark.parametrize("n", [1, 2, 5, 40, 41])
@pytest.mark.parametrize(
    "spec",
    [GAUSS, EXPO, DistributionSpec.gamma(2.0, 1.5), DistributionSpec.gamma(0.5)],
    ids=["gauss", "exp", "gamma2", "gamma0.5"],
)
def test_edge_masses_evaluate_each_edge_once_outside_the_median_band(spec, n, monkeypatch):
    # an interval's mass is a cdf difference below the median and an sf
    # difference above it; an edge outside the band around the median
    # goes to each function once if one of its intervals needs it, else
    # never (the edge where lower intervals meet upper ones goes to both).
    # Even-n Gaussian grids put an edge on the median itself.
    edges = voronoi_bounds(quantile(spec, (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)))
    upper = cdf(spec, edges[:-1]) > 0.5
    need = {"cdf": np.zeros(n + 1, bool), "sf": np.zeros(n + 1, bool)}
    for name, cells in (("cdf", ~upper), ("sf", upper)):
        need[name][:-1] |= cells
        need[name][1:] |= cells
    lo, hi = quantile(spec, np.array([0.5 - 1e-9, 0.5 + 1e-9]))
    outside = (edges < lo) | (edges > hi)
    seen = _record_abscissae(monkeypatch, "cdf", "sf")
    mass = _edge_masses(spec, edges)
    for name in ("cdf", "sf"):
        counts = np.array([np.count_nonzero(seen[name]() == x) for x in edges])
        np.testing.assert_array_equal(counts[outside], need[name][outside].astype(int))
    assert mass.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("a", [3.0, 7.0, 20.0])
def test_edge_masses_keep_the_rule_on_edges_ulps_apart_at_the_median(a):
    # scipy's gammainc steps back across 0.5 within a few ulps of these
    # medians (Gamma(7): cdf 0.5000000000000001 one ulp above the computed
    # median, 0.49999999999999994 at the next float)
    spec = DistributionSpec.gamma(a)
    med = quantile(spec, 0.5)
    near = med + np.arange(-16, 17) * np.spacing(med)
    edges = np.concatenate(([0.0, 0.5 * med], near, [2.0 * med, INF]))
    ref = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if cdf(spec, lo) <= 0.5:
            ref.append(max(cdf(spec, hi) - cdf(spec, lo), 0.0))
        else:
            ref.append(max(sf(spec, lo) - sf(spec, hi), 0.0))
    np.testing.assert_array_equal(_edge_masses(spec, edges), ref)


def test_edge_masses_keep_the_rule_where_the_cdf_steps_back_in_the_band(monkeypatch):
    # a cdf whose round-off is not monotone inside the median band: the
    # intervals there still take their own lower edge's side
    x1, x2 = -1e-10, 1e-10
    real = distributions.cdf

    def stepping(spec, x):
        out = np.array(real(spec, x), dtype=float)
        xs = np.asarray(x, dtype=float)
        out[xs == x1] = 0.5 + 2.0**-53
        out[xs == x2] = 0.5
        return out

    monkeypatch.setattr(distributions, "cdf", stepping)
    edges = np.array([-INF, -1.0, x1, x2, 1.0, INF])
    ref = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if stepping(GAUSS, lo) <= 0.5:
            ref.append(float(stepping(GAUSS, hi) - stepping(GAUSS, lo)))
        else:
            ref.append(float(sf(GAUSS, lo) - sf(GAUSS, hi)))
    np.testing.assert_array_equal(_edge_masses(GAUSS, edges), ref)
    law = _edge_law(GAUSS, edges)
    np.testing.assert_array_equal(law.upper, [False, False, True, False, True])
    np.testing.assert_array_equal(law.masses(), ref)
    tail = law.tails()
    assert tail[2] == sf(GAUSS, x1) and tail[3] == 0.5


def test_tail_cut_is_relative_to_the_cell_mass():
    cut = 1e-12
    lo = np.array([0.0, 30.0])
    lo_e, hi_e = _effective_bounds(EXPO, lo, np.full(2, INF), cut)
    # memoryless law: each tail is cut the same distance beyond its start
    np.testing.assert_allclose(hi_e, lo - math.log(cut), rtol=1e-14)
    lo_e, hi_e = _effective_bounds(GAUSS, np.array([-INF]), np.array([-8.0]), cut)
    assert cdf(GAUSS, lo_e[0]) == pytest.approx(cut * cdf(GAUSS, -8.0), rel=1e-9)
    # a two-sided infinite cell drops cut at each end, as an absolute cut would
    lo_e, hi_e = _effective_bounds(GAUSS, np.array([-INF]), np.array([INF]), cut)
    assert (lo_e[0], hi_e[0]) == (quantile(GAUSS, cut), -quantile(GAUSS, cut))


def test_batched_cell_integrals_budget_exhaustion():
    from quantilab.distributions import QuadratureError

    # q = -0.5 (the r = 1.5 Jacobian weight) still needs more than 4 panels
    # at this tolerance; with Jacobi end panels, q = 1.5 no longer does
    starved = QuadratureOpts(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=4)
    pts = np.array([-1.0, 0.0, 1.0])
    b = voronoi_bounds(pts)
    with pytest.raises(QuadratureError) as exc:
        _abs_moments(GAUSS, pts, b[:-1], b[1:], -0.5, starved)
    assert math.isfinite(exc.value.estimate)
    assert exc.value.error_bound > 0.0


# -- closed-form constants ---------------------------------------------------

def test_c_fr_closed_forms():
    assert c_fr(EXPO, 2.0) == pytest.approx(3.0, rel=1e-15)
    assert c_fr(GAUSS, 2.0) == pytest.approx((2 * math.pi) ** (1 / 3) * math.sqrt(3), rel=1e-14)
    # Gamma(1, lam) must coincide with the exponential formula
    assert c_fr(DistributionSpec.gamma(1.0), 2.0) == pytest.approx(3.0, rel=1e-14)
    assert c_fr(DistributionSpec.gamma(1.0, 2.5), 4.0) == pytest.approx(
        c_fr(DistributionSpec.exponential(2.5), 4.0), rel=1e-14
    )


def test_c_fr_for_large_gamma_shapes():
    # Gamma(a) leaves the float range above a = 171.6; c_fr does not
    def product(a, r, lam):
        e = (r + a) / (r + 1.0)
        return (
            math.gamma(e)
            * math.gamma(a) ** (-1.0 / (1.0 + r))
            * lam ** (-r / (r + 1.0))
            * (r + 1.0) ** e
        )

    for a in (0.3, 1.0, 7.0, 50.0, 120.0, 170.0):
        for r in (0.5, 1.0, 2.0, 4.0):
            for lam in (1.0, 1.3):
                got = c_fr(DistributionSpec.gamma(a, lam), r)
                assert got == pytest.approx(product(a, r, lam), rel=1e-14, abs=0.0)
    # the log-sum's terms reach lgamma(a) (858 at a = 200, 82,000 at 1e4),
    # whose rounding bounds the relative error; mpmath at 40 digits
    for a, tol in ((200.0, 1e-12), (1e4, 1e-10)):
        for r in (0.5, 2.0, 4.0):
            for lam in (1.0, 1.3):
                with mpmath.workdps(40):
                    a_, r_ = mpmath.mpf(a), mpmath.mpf(r)
                    e = (r_ + a_) / (r_ + 1)
                    ref = float(
                        mpmath.gamma(e) * mpmath.gamma(a_) ** (-1 / (1 + r_))
                        * mpmath.mpf(lam) ** (-r_ / (r_ + 1)) * (r_ + 1) ** e
                    )
                got = c_fr(DistributionSpec.gamma(a, lam), r)
                assert abs(got / ref - 1.0) <= tol, (a, r, lam)


@pytest.mark.parametrize("spec", FAMILIES)
@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_c_fr_agrees_with_quadrature(spec, r):
    quad = quadrature_sdpi(spec, 1.0, 0.0, 0.0, 1.0 / (1.0 + r), TIGHT)
    assert abs(quad - c_fr(spec, r)) / c_fr(spec, r) <= 1e-8


def test_zador_closed_forms():
    assert zador_q(GAUSS, 2.0) == pytest.approx(math.pi * math.sqrt(3.0) / 2.0, rel=1e-14)
    assert zador_q(EXPO, 2.0) == pytest.approx(2.25, rel=1e-15)
    assert zador_q(GAUSS, 1.0) == pytest.approx(math.sqrt(2.0 * math.pi) / 2.0, rel=1e-14)


def test_zador_needs_cube_coefficient_beyond_1d():
    square = DistributionSpec.gaussian(d=2)
    with pytest.raises(UnsupportedDimensionError):
        zador_q(square, 2.0)
    assert zador_q(square, 2.0, j_const=0.0802) > 0.0  # caller-supplied J


def test_cube_coefficient_values():
    assert cube_coefficient(2.0) == pytest.approx(1.0 / 12.0)
    assert cube_coefficient(1.0) == pytest.approx(0.25)
    assert cube_coefficient(4.0) == pytest.approx(1.0 / 80.0)


# -- density-power product integrals ----------------------------------------

SDPI_LAWS = [
    GAUSS,
    DistributionSpec.gaussian(0.5, 2.0),
    EXPO,
    DistributionSpec.exponential(2.0),
    GAMMA7,
    DistributionSpec.gamma(0.5),
    DistributionSpec.gamma(2.0, 3.0),
]


@pytest.mark.parametrize("spec", SDPI_LAWS, ids=lambda s: s.cache_token())
def test_density_power_integral_matches_quadrature(spec):
    # the (p_scaled, p_plain) of the condition integral, c_fr and the s < r
    # upper bound, over whole, central, lower-tail and upper-tail windows
    q10, q90 = (float(v) for v in quantile(spec, np.array([0.1, 0.9])))
    windows = [(None, None), (q10, q90), (None, q10), (q90, None)]
    mus = [spec.m, spec.m + 0.7] if spec.family is Family.GAUSSIAN else [0.0]
    checked = 0
    for r, s in ((2.0, 1.0), (2.0, 4.0), (4.0, 1.0), (1.0, 2.0), (0.5, 0.25)):
        powers = [(1.0, -s / (1.0 + r)), (0.0, 1.0 / (1.0 + r))]
        if s < r:
            powers.append((r / (r - s), -s / (r - s)))
        for theta in (0.5, 0.8, 1.0, 1.3, 2.2):
            for p1, p2 in powers:
                for lo, hi in windows:
                    for mu in mus:
                        args = (spec, theta, mu, p1, p2)
                        try:
                            ref = quadrature_sdpi(*args, TIGHT, lo=lo, hi=hi)
                        except ValueError:  # divergent: both sides must say so
                            with pytest.raises(ValueError):
                                scaled_density_power_integral(*args, lo, hi)
                            continue
                        got = scaled_density_power_integral(*args, lo, hi)
                        assert abs(got - ref) <= 1e-9 * abs(ref), (args, lo, hi)
                        checked += 1
    assert checked >= 200


@pytest.mark.parametrize("spec", FAMILIES)
def test_density_power_integral_far_tail_windows_keep_relative_accuracy(spec):
    # p = (0, 1) integrates the density itself: windows deep in either tail
    # must come out as sf/cdf differences without cancellation
    for lo, hi in ((quantile_sf(spec, 1e-30), None), (None, quantile(spec, 1e-30))):
        want = sf(spec, lo) if hi is None else cdf(spec, hi)
        got = scaled_density_power_integral(spec, 1.0, 0.0, 0.0, 1.0, lo, hi)
        assert abs(got - want) <= 1e-12 * want


def test_density_power_integral_divergence_guards():
    with pytest.raises(ValueError):  # A = p_scaled theta**2 + p_plain <= 0
        scaled_density_power_integral(GAUSS, 0.5, 0.0, 1.0, -0.25)
    with pytest.raises(ValueError):  # rho = lam (theta p_scaled + p_plain) <= 0
        scaled_density_power_integral(EXPO, 0.5, 0.0, 1.0, -0.5)
    with pytest.raises(ValueError):  # k = (a - 1)(p_scaled + p_plain) + 1 <= 0
        scaled_density_power_integral(DistributionSpec.gamma(0.5), 1.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        scaled_density_power_integral(EXPO, 1.0, 0.3, 1.0, 0.0)  # half-line needs mu = 0
    assert scaled_density_power_integral(GAUSS, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0) == 0.0


# -- limiting point density --------------------------------------------------

def test_empirical_density_gaussian_is_wider_gaussian():
    xs = np.linspace(-4.0, 4.0, 9)
    ref = pdf(DistributionSpec.gaussian(0.0, 3.0), xs)
    got = empirical_density(GAUSS, 2.0, xs)
    np.testing.assert_allclose(got, ref, rtol=1e-13)


def test_empirical_density_exponential_halves_rate():
    xs = np.linspace(0.0, 6.0, 7)
    ref = pdf(DistributionSpec.exponential(0.5), xs)
    np.testing.assert_allclose(empirical_density(EXPO, 1.0, xs), ref, rtol=1e-13)


def test_empirical_density_outside_support():
    assert empirical_density(EXPO, 2.0, -3.0) == 0.0
    assert empirical_density(GAMMA7, 4.0, -0.5) == 0.0


@pytest.mark.parametrize("spec", [GAUSS, EXPO, GAMMA7])
@pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
def test_empirical_density_normalised_and_in_family(spec, s):
    law = empirical_measure_law(spec, s)
    xs = np.linspace(*quantile(law, np.array([1e-4, 1.0 - 1e-4])), 31)
    np.testing.assert_allclose(
        empirical_density(spec, s, xs), pdf(law, xs), rtol=1e-12, atol=1e-300
    )
    mass = quadrature_sdpi(spec, 1.0, 0.0, 0.0, 1.0 / (1.0 + s), TIGHT)
    assert mass / c_fr(spec, s) == pytest.approx(1.0, abs=1e-8)


# -- validation --------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec.gaussian(sigma2=0.0)
    with pytest.raises(ValueError):
        DistributionSpec.exponential(-1.0)
    with pytest.raises(ValueError):
        DistributionSpec.gamma(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: DistributionSpec.gaussian(m=v), "m"),
        (lambda v: DistributionSpec.gaussian(sigma2=v), "sigma2"),
        (lambda v: DistributionSpec.gamma(2.0, v), "lam"),
        (lambda v: DistributionSpec.gamma(v), "a"),
        (lambda v: QuadratureOpts(abs_tol=v), "abs_tol"),
        (lambda v: QuadratureOpts(rel_tol=v), "rel_tol"),
        (lambda v: QuadratureOpts(max_subdivisions=v), "max_subdivisions"),
        (lambda v: c_fr(GAUSS, v), "r"),
        (lambda v: empirical_measure_law(GAUSS, v), "s"),
        (lambda v: cube_coefficient(2.0, override=v), "j_const"),
    ],
    ids=["m", "sigma2", "lam", "a", "abs_tol", "rel_tol", "max_subdivisions", "c_fr-r", "law-s",
         "cube-j_const"],
)
def test_non_finite_parameters_are_rejected_by_name(make, name, bad):
    # NaN passes every "x <= 0" test; each parameter must be checked as finite
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make(bad)


def test_quadrature_opts_validation():
    with pytest.raises(ValueError):
        QuadratureOpts(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureOpts(tail_mass_cut=1e-3)  # must stay below 1e-6
    with pytest.raises(ValueError):
        QuadratureOpts(tail_mass_cut=0.0)


def test_pointwise_ops_require_1d():
    square = DistributionSpec.gaussian(d=2)
    with pytest.raises(UnsupportedDimensionError):
        pdf(square, 0.0)
    with pytest.raises(UnsupportedDimensionError):
        cell_moment(square, 0.0, -1.0, 1.0, 2.0)
