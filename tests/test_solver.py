import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

import quantilab
from quantilab import solver
from quantilab.distributions import (
    DistributionSpec,
    QuadratureOpts,
    _abs_moment,
    _abs_moments,
    _edge_masses,
    _effective_bounds,
    cell_moment,
    empirical_measure_law,
    quantile,
)
from quantilab.quantizer import Grid, distortion, voronoi_bounds
from quantilab.solver import (
    AkSequence,
    GridCache,
    SolverError,
    SolverOpts,
    cell_argmin,
    exp_ak_sequence,
    exp_optimal_grid,
    optimal_grid,
    solve,
)

GAUSS = DistributionSpec.gaussian()
EXPO = DistributionSpec.exponential()
INF = math.inf


# -- cell_argmin ---------------------------------------------------------------

def test_cell_argmin_examples():
    assert cell_argmin(GAUSS, -INF, INF, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert cell_argmin(EXPO, 0.0, INF, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert cell_argmin(GAUSS, 0.0, INF, 2.0) == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-12
    )


def test_cell_argmin_generic_exponent_matches_gradient_root():
    from quantilab.distributions import cell_gradient

    a = cell_argmin(GAUSS, -0.5, 2.0, 3.0)
    assert abs(cell_gradient(GAUSS, a, -0.5, 2.0, 3.0)) < 1e-10


def test_cell_argmin_subunit_exponent_minimises_moment():
    from quantilab.distributions import cell_moment

    a = cell_argmin(EXPO, 0.0, 2.0, 0.5)
    base = cell_moment(EXPO, a, 0.0, 2.0, 0.5)
    for delta in (-1e-3, 1e-3):
        assert base <= cell_moment(EXPO, a + delta, 0.0, 2.0, 0.5) + 1e-12


def test_cell_argmin_empty_cell_raises():
    with pytest.raises(SolverError):
        cell_argmin(GAUSS, 50.0, 60.0, 2.0)


def _argmin_by_minimisation(spec, lo, hi, r, opts):
    """Oracle: bounded scalar minimisation of the cell moment itself.

    This locates a minimum only to about sqrt(machine eps) relative: the
    moment changes by M'' d**2 / 2 at a distance d from its minimum,
    which sinks below rounding once d < ~1e-8.
    """
    cut = opts.quad.tail_mass_cut
    lo_e, hi_e, _ = _effective_bounds(spec, np.array([lo]), np.array([hi]), cut)
    res = minimize_scalar(
        lambda x: cell_moment(spec, x, lo, hi, r, opts.quad),
        bounds=(float(lo_e[0]), float(hi_e[0])),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x)


SUBUNIT_CELLS = [
    ("gauss", GAUSS, -0.5, 2.0),
    ("gauss", GAUSS, 1.0, INF),
    ("gauss", GAUSS, -INF, INF),
    ("exp", EXPO, 0.0, 2.0),
    ("exp", EXPO, 1.0, INF),
    ("gamma2", DistributionSpec.gamma(2.0), 0.0, 1.5),
    ("gamma2", DistributionSpec.gamma(2.0), 2.0, INF),
    ("gamma0.5", DistributionSpec.gamma(0.5), 0.0, 0.8),  # r = 0.5: gradient -inf at 0
    ("gamma0.5", DistributionSpec.gamma(0.5), 0.3, 2.0),
    ("gamma0.5", DistributionSpec.gamma(0.5), 0.0, INF),
]


@pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
@pytest.mark.parametrize(
    "spec, lo, hi",
    [c[1:] for c in SUBUNIT_CELLS],
    ids=[f"{c[0]}-[{c[2]},{c[3]}]" for c in SUBUNIT_CELLS],
)
def test_subunit_cell_argmin_matches_minimisation_oracle(spec, lo, hi, r):
    opts = SolverOpts()
    a = cell_argmin(spec, lo, hi, r, opts)
    assert a == pytest.approx(_argmin_by_minimisation(spec, lo, hi, r, opts), abs=5e-8)
    # sharper, from the scalar integrator: the moment derivative changes
    # sign across a, to well below the oracle's resolution
    h = 1e-9 * (1.0 + abs(a))
    below, _ = _abs_moment(spec, a - h, lo, hi, r - 1.0, opts.quad, signed=True)
    above, _ = _abs_moment(spec, a + h, lo, hi, r - 1.0, opts.quad, signed=True)
    assert below < 0.0 < above


def test_subunit_argmin_respects_memorylessness_and_symmetry():
    # the exponential law is memoryless; the Gaussian one symmetric
    opts = SolverOpts()
    for r in (0.3, 0.5, 0.8):
        tail = cell_argmin(EXPO, 1.0, INF, r, opts)
        assert tail == pytest.approx(1.0 + cell_argmin(EXPO, 0.0, INF, r, opts), abs=1e-12)
        left = cell_argmin(GAUSS, -INF, -1.0, r, opts)
        assert left == pytest.approx(-cell_argmin(GAUSS, 1.0, INF, r, opts), abs=1e-12)


@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_batched_sweep_empty_cell_raises(r):
    from quantilab.solver import _lloyd_sweep

    # the middle cell [55, 65] holds no Gaussian mass in double precision
    with pytest.raises(SolverError):
        _lloyd_sweep(GAUSS, np.array([50.0, 60.0, 70.0]), r, SolverOpts())


# -- closed-form stationarity system (r = 1, 2) ------------------------------------

FAMILIES = [GAUSS, EXPO, DistributionSpec.gamma(2.0), DistributionSpec.gamma(0.5)]
FAMILY_IDS = ["gauss", "exp", "gamma2", "gamma0.5"]


def _off_stationary(spec, n, r, seed):
    # quantiles of the limiting point law at levels jittered by up to a
    # quarter cell: ordered, inside the support, and not stationary
    rng = np.random.default_rng(seed)
    levels = (2.0 * np.arange(1, n + 1) - 1.0 + rng.uniform(-0.5, 0.5, n)) / (2.0 * n)
    return quantile(empirical_measure_law(spec, r), levels)


@pytest.mark.parametrize("n", [1, 3, 40, 900])
@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
def test_closed_form_residual_matches_quadrature(spec, r, n):
    q = SolverOpts().quad
    pts = _off_stationary(spec, n, r, seed=n)
    b = voronoi_bounds(pts)
    quad, _ = _abs_moments(spec, pts, b[:-1], b[1:], r - 1.0, q, signed=True)
    np.testing.assert_allclose(solver._residual(spec, pts, r, q), r * quad, rtol=0, atol=1e-13)


# closed-form Jacobians (r = 1, 2) and difference Jacobians (r < 1); at
# the x**(-1/2) origin pole of Gamma(0.5), r < 1 difference quotients
# disagree by up to 4e-5, and the r < 1 solve tests cover that law instead
JACOBIAN_CASES = [
    pytest.param(spec, r, id=f"{name}-{r}")
    for spec, name in zip(FAMILIES, FAMILY_IDS)
    for r in (1.0, 2.0) + (() if name == "gamma0.5" else (0.3, 0.5, 0.8))
]


@pytest.mark.parametrize("n", [1, 3, 40])
@pytest.mark.parametrize("spec, r", JACOBIAN_CASES)
def test_jacobian_matches_central_differences_of_the_residual(spec, r, n):
    q = SolverOpts().quad
    pts = _off_stationary(spec, n, r, seed=n)
    h = 1e-4 * (np.min(np.diff(pts)) if n > 1 else 1.0)
    ab = solver._jacobian_banded(spec, pts, r, q)
    fd = np.zeros((3, n))
    for k in range(3):  # residual i sees points i - 1, i, i + 1 only
        moved = np.arange(n) % 3 == k
        step = np.where(moved, h, 0.0)
        up = solver._residual(spec, pts + step, r, q)
        d = (up - solver._residual(spec, pts - step, r, q)) / (2.0 * h)
        j = np.flatnonzero(moved)
        fd[1, j] = d[j]
        fd[0, j[j > 0]] = d[j[j > 0] - 1]
        fd[2, j[j < n - 1]] = d[j[j < n - 1] + 1]
    np.testing.assert_allclose(ab, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(ab)))


@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
def test_closed_form_solves_run_no_quadrature(spec, r, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature reached")

    monkeypatch.setattr(solver, "_abs_moments", refuse)
    res = optimal_grid(spec, 60, r, full_result=True)
    assert res.grid.n == 60 and res.newton_iters > 0


# -- optimal_grid ----------------------------------------------------------------

def test_one_point_grids_are_the_classic_centres(grid_of):
    assert grid_of(GAUSS, 1, 2.0).points[0] == pytest.approx(0.0, abs=1e-10)
    assert grid_of(EXPO, 1, 2.0).points[0] == pytest.approx(1.0, rel=1e-12)
    assert grid_of(EXPO, 1, 1.0).points[0] == pytest.approx(math.log(2.0), rel=1e-10)


def test_two_point_gaussian_grid(grid_of):
    g = grid_of(GAUSS, 2, 2.0)
    c = math.sqrt(2.0 / math.pi)
    np.testing.assert_allclose(g.points, [-c, c], atol=1e-9)


def test_two_point_gaussian_grid_against_brute_force(grid_of):
    # independent oracle: direct distortion minimisation over point pairs
    fast = QuadratureOpts(abs_tol=1e-11, rel_tol=1e-10)

    def objective(p):
        if p[1] - p[0] < 1e-6:
            return 10.0
        return distortion(Grid(np.asarray(p)), GAUSS, 2.0, fast)

    coarse = [
        (a, b)
        for a in np.linspace(-2.0, 0.0, 9)
        for b in np.linspace(0.1, 2.0, 9)
    ]
    start = min(coarse, key=objective)
    res = minimize(objective, start, method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-14})
    np.testing.assert_allclose(grid_of(GAUSS, 2, 2.0).points, res.x, atol=2e-5)


@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_gaussian_grids_antisymmetric(grid_of, r):
    pts = grid_of(GAUSS, 9, r).points
    np.testing.assert_allclose(pts, -pts[::-1], atol=1e-9)


@pytest.mark.parametrize(
    "spec", [GAUSS, EXPO, DistributionSpec.gamma(2.0, 1.5)], ids=["gauss", "exp", "gamma2"]
)
@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_stationarity_and_lloyd_stability(spec, r, grid_of):
    from quantilab.distributions import cell_gradient

    opts = SolverOpts()
    grid = grid_of(spec, 7, r)
    b = voronoi_bounds(grid)
    res = [
        cell_gradient(spec, float(p), b[i], b[i + 1], r, opts.quad)
        for i, p in enumerate(grid.points)
    ]
    assert max(abs(v) for v in res) <= opts.grad_tol
    moves = [
        abs(cell_argmin(spec, b[i], b[i + 1], r, opts) - grid.points[i])
        for i in range(grid.n)
    ]
    assert max(moves) <= 10.0 * opts.grad_tol


def test_distortion_decreases_with_grid_size(grid_of):
    prev = None
    for n in range(1, 21):
        d = distortion(grid_of(GAUSS, n, 2.0), GAUSS, 2.0)
        if prev is not None:
            assert d < prev + 1e-9
        prev = d


@pytest.mark.parametrize(
    "spec",
    [GAUSS, EXPO, DistributionSpec.exponential(2.5)],
    ids=["gauss", "exp", "exp-rate-2.5"],
)
@pytest.mark.parametrize("r", [1.0, 2.0])
def test_scaled_distortion_approaches_zador_constant(spec, r, grid_of):
    from quantilab.distributions import zador_q

    grid = grid_of(spec, 200, r)
    scaled = 200.0**r * distortion(grid, spec, r)
    assert scaled == pytest.approx(zador_q(spec, r), rel=0.05)


def test_user_grid_init_and_validation():
    init = Grid(np.array([-1.0, 1.0]))
    g = optimal_grid(GAUSS, 2, 2.0, init_grid=init)
    c = math.sqrt(2.0 / math.pi)
    np.testing.assert_allclose(g.points, [-c, c], atol=1e-9)
    with pytest.raises(ValueError):
        optimal_grid(GAUSS, 3, 2.0, init_grid=init)
    with pytest.raises(ValueError):
        optimal_grid(GAUSS, 0, 2.0)
    with pytest.raises(ValueError):
        optimal_grid(DistributionSpec.gaussian(d=2), 2, 2.0)


def test_nonconvergence_error_carries_best_iterate():
    starved = SolverOpts(max_lloyd_iters=1, max_newton_iters=0, grad_tol=1e-14)
    with pytest.raises(SolverError) as exc:
        optimal_grid(GAUSS, 6, 4.0, starved)
    assert exc.value.points.size == 6
    assert exc.value.residual_sup > 0.0
    # the best iterate is reported on the scale of the law asked for
    with pytest.raises(SolverError) as scaled:
        optimal_grid(DistributionSpec.gaussian(5.0, 4.0), 6, 4.0, starved)
    np.testing.assert_array_equal(scaled.value.points, 5.0 + 2.0 * exc.value.points)


# -- scale equivariance ------------------------------------------------------------

@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("lam", [1e-6, 1e6, 1e13])
def test_extreme_rates_match_the_exact_grid(lam, r):
    # an absolute merge tolerance would collapse the grid at 1e13, and
    # tolerances in the law's own units fail to converge at 1e-6, r = 4
    grid = optimal_grid(DistributionSpec.exponential(lam), 10, r)
    exact = exp_optimal_grid(10, r, lam).points
    assert grid.n == 10
    assert np.max(np.abs(grid.points - exact)) <= 1e-12 * np.max(exact)


def test_init_grid_is_read_on_the_scale_of_the_law():
    init = Grid(np.array([1.0, 5.0]))
    g = optimal_grid(DistributionSpec.gaussian(3.0, 4.0), 2, 2.0, init_grid=init)
    c = 2.0 * math.sqrt(2.0 / math.pi)
    np.testing.assert_allclose(g.points, [3.0 - c, 3.0 + c], atol=1e-9)


SCALE_EQUIVARIANT = settings(max_examples=15, deadline=None, database=None)


@SCALE_EQUIVARIANT
@given(
    log_lam=st.floats(-12.0, 12.0),
    a=st.sampled_from([0.5, 1.0, 2.0]),
    r=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_gamma_grids_are_scale_equivariant(log_lam, a, r):
    lam = 10.0**log_lam
    grid = optimal_grid(DistributionSpec.gamma(a, lam), 8, r)
    unit = optimal_grid(DistributionSpec.gamma(a), 8, r)
    np.testing.assert_array_equal(grid.points, unit.points / lam)


@SCALE_EQUIVARIANT
@given(
    m=st.floats(-100.0, 100.0),
    log_sigma=st.floats(-4.0, 6.0),
    r=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_gaussian_grids_are_location_scale_equivariant(m, log_sigma, r):
    sigma = 10.0**log_sigma
    grid = optimal_grid(DistributionSpec.gaussian(m, sigma * sigma), 8, r)
    unit = optimal_grid(GAUSS, 8, r)
    np.testing.assert_allclose(
        grid.points, m + sigma * unit.points, rtol=0, atol=4e-16 * (abs(m) + 4.0 * sigma)
    )


SOLVER_PROPERTY = settings(max_examples=25, deadline=None, database=None)


@SOLVER_PROPERTY
@given(
    log_lam=st.floats(-3.0, 3.0),
    n=st.integers(1, 60),
    r=st.floats(0.2, 4.0),
)
def test_exponential_grids_match_the_recursion(log_lam, n, r):
    lam = 10.0**log_lam
    exact = exp_optimal_grid(n, r).points / lam
    grid = optimal_grid(DistributionSpec.exponential(lam), n, r)
    np.testing.assert_allclose(grid.points, exact, rtol=0, atol=1e-10 * (1.0 + exact[-1]))


@SOLVER_PROPERTY
@given(n=st.integers(1, 60), r=st.floats(0.2, 4.0))
def test_gaussian_grids_are_antisymmetric(n, r):
    pts = optimal_grid(GAUSS, n, r).points
    np.testing.assert_allclose(pts, -pts[::-1], rtol=0, atol=1e-12)


@SOLVER_PROPERTY
@given(
    spec=st.sampled_from(
        [GAUSS, EXPO, DistributionSpec.gamma(2.0), DistributionSpec.gamma(0.5, 3.0)]
    ),
    r=st.floats(0.3, 4.0),
    n=st.integers(1, 29),
)
def test_optimal_distortion_decreases_with_n(spec, r, n):
    # one more point can always do at least as well: keep the old grid and
    # split its worst cell
    coarse = distortion(solve(spec, n, r), spec, r)
    fine = distortion(solve(spec, n + 1, r), spec, r)
    assert fine < coarse


def test_full_result_reports_and_gamma_flag():
    res = optimal_grid(DistributionSpec.gamma(0.5), 3, 2.0, full_result=True)
    assert res.stationary_only
    assert res.grid.n == 3
    res2 = optimal_grid(EXPO, 3, 2.0, full_result=True)
    assert not res2.stationary_only
    assert res2.residual_sup <= SolverOpts().grad_tol


@pytest.mark.parametrize(
    "spec, r",
    [
        (EXPO, 2.0),
        (GAUSS, 4.0),
        (DistributionSpec.gamma(2.0), 2.0),
        (DistributionSpec.gamma(2.0), 4.0),
    ],
    ids=["exp-r2", "gauss-r4", "gamma2-r2", "gamma2-r4"],
)
def test_poor_seed_never_converges_to_a_wrong_grid(spec, r, grid_of):
    # without Lloyd sweeps, Newton alone can push the last point into a
    # cell of negligible mass, where the stationarity residual vanishes
    try:
        poor = optimal_grid(spec, 200, r, SolverOpts(max_lloyd_iters=0))
    except SolverError:
        return
    np.testing.assert_allclose(poor.points, grid_of(spec, 200, r).points, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "spec, r", [(EXPO, 2.0), (GAUSS, 4.0)], ids=["exp-r2", "gauss-r4"]
)
def test_newton_keeps_every_cell_above_the_tail_cut(spec, r):
    opts = SolverOpts(max_lloyd_iters=0)
    pts, _, _, _ = solver._newton(spec, solver._initial_points(spec, 200, r), r, opts)
    b = voronoi_bounds(pts)
    assert np.min(_edge_masses(spec, b)) > opts.quad.tail_mass_cut


@pytest.mark.parametrize(
    "spec, r", [(EXPO, 2.0), (GAUSS, 4.0)], ids=["exp-r2", "gauss-r4"]
)
def test_newton_success_is_checked_by_a_lloyd_sweep(spec, r):
    # Newton tolerances far looser than the sweep check: Newton alone
    # would stop on a grid several units from stationary
    opts = SolverOpts(max_lloyd_iters=0, grad_tol=1e-3, position_tol=1e-3)
    try:
        grid = optimal_grid(spec, 30, r, opts)
    except SolverError:
        return
    swept = solver._lloyd_sweep(spec, grid.points, r, opts)
    scale = 1.0 + np.max(np.abs(grid.points))
    assert np.max(np.abs(swept - grid.points)) <= solver._LLOYD_MOVE_TOL * scale


@pytest.mark.parametrize("sweeps", [0, 2])
@pytest.mark.parametrize("r", [2.0, 4.0])
def test_planted_tail_point_never_converges_to_a_wrong_grid(r, sweeps):
    exact = exp_optimal_grid(10, r)
    planted = exact.points.copy()
    planted[-1] = 60.0  # its cell holds mass ~1e-15
    opts = SolverOpts(max_lloyd_iters=sweeps)
    try:
        res = optimal_grid(EXPO, 10, r, opts, init_grid=Grid(planted))
    except SolverError:
        return
    np.testing.assert_allclose(res.points, exact.points, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [100, 200])
def test_far_tail_cells_are_unbiased_by_truncation(n, grid_of):
    # the last exponential cell at n = 200, r = 4 holds mass ~3e-11; an
    # absolute tail cut at 1e-20 moved its centre by 3.5e-6
    np.testing.assert_allclose(
        grid_of(EXPO, n, 4.0).points, exp_optimal_grid(n, 4.0).points, rtol=0, atol=1e-8
    )


def test_subunit_exponent_matches_closed_form():
    res = optimal_grid(EXPO, 20, 0.5, full_result=True)
    assert res.residual_sup <= SolverOpts().grad_tol
    np.testing.assert_allclose(res.grid.points, exp_optimal_grid(20, 0.5).points, atol=1e-6)


def test_subunit_exponent_newton_budget_raises():
    # one Newton iteration cannot meet the tolerances; an unconverged grid
    # is never returned
    with pytest.raises(SolverError, match="no verified convergence") as exc:
        optimal_grid(EXPO, 20, 0.5, SolverOpts(max_newton_iters=1))
    assert exc.value.points.size == 20


@pytest.mark.parametrize("n", [100, 400])
@pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
def test_subunit_exponent_grids_match_the_recursion(r, n):
    np.testing.assert_allclose(
        optimal_grid(EXPO, n, r).points, exp_optimal_grid(n, r).points, rtol=0, atol=1e-8
    )


@pytest.mark.parametrize("r", [0.3, 0.8])
@pytest.mark.parametrize(
    "spec", [GAUSS, DistributionSpec.gamma(2.0), DistributionSpec.gamma(0.5)],
    ids=["gauss", "gamma2", "gamma0.5"],
)
def test_subunit_solves_reach_the_residual_tolerance(spec, r):
    res = optimal_grid(spec, 200, r, full_result=True)
    assert res.grid.n == 200 and res.residual_sup <= SolverOpts().grad_tol


def test_subunit_gamma_pole_at_origin_solves():
    # Gamma(0.5) at r = 0.5: the first cell's moment derivative is -inf at 0
    res = optimal_grid(DistributionSpec.gamma(0.5), 3, 0.5, full_result=True)
    assert res.grid.n == 3 and res.grid.points[0] > 0.0
    assert res.residual_sup <= SolverOpts().grad_tol and res.stationary_only


def test_subunit_exponent_points_minimise_their_cell_moments():
    res = optimal_grid(EXPO, 3, 0.5, full_result=True)
    assert res.residual_sup <= SolverOpts().grad_tol
    assert not res.stationary_only  # exponential density is log-concave
    # each point minimises its own cell moment
    from quantilab.distributions import cell_moment

    b = voronoi_bounds(res.grid)
    for i, p in enumerate(res.grid.points):
        base = cell_moment(EXPO, float(p), b[i], b[i + 1], 0.5)
        for delta in (-1e-4, 1e-4):
            assert base <= cell_moment(EXPO, float(p) + delta, b[i], b[i + 1], 0.5) + 1e-10


@pytest.mark.parametrize("spec", [GAUSS, DistributionSpec.gamma(2.0)], ids=["gauss", "gamma2"])
def test_subunit_newton_hands_its_residual_to_the_jacobian(spec, monkeypatch):
    real_residual, real_jacobian = solver._residual, solver._jacobian_banded
    calls = [0]
    passes = []  # residual passes inside each Newton iteration's Jacobian

    def counting_residual(*args, **kwargs):
        calls[0] += 1
        return real_residual(*args, **kwargs)

    def counting_jacobian(*args, **kwargs):
        before = calls[0]
        ab = real_jacobian(*args, **kwargs)
        passes.append(calls[0] - before)
        return ab

    monkeypatch.setattr(solver, "_residual", counting_residual)
    monkeypatch.setattr(solver, "_jacobian_banded", counting_jacobian)
    reused = optimal_grid(spec, 20, 0.5, full_result=True)
    assert len(passes) == reused.newton_iters > 0
    assert passes == [3] * len(passes)  # the 3 colour steps; the base is reused

    def recomputing_jacobian(spec, pts, r, q, mass=None, res=None):
        return real_jacobian(spec, pts, r, q, mass)  # base residual evaluated anew

    monkeypatch.setattr(solver, "_jacobian_banded", recomputing_jacobian)
    recomputed = optimal_grid(spec, 20, 0.5, full_result=True)
    assert np.array_equal(reused.grid.points, recomputed.grid.points)
    assert reused.newton_iters == recomputed.newton_iters


# -- exponential closed form -----------------------------------------------------

def test_ak_first_terms():
    assert exp_ak_sequence(2.0, 1).values[0] == pytest.approx(2.0, abs=1e-10)
    assert exp_ak_sequence(1.0, 1).values[0] == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_ak_sequence_decreasing_with_harmonic_decay():
    seq = exp_ak_sequence(2.0, 200)
    assert np.all(np.diff(seq.values) < 0.0)
    assert 200.0 * seq.values[-1] / 3.0 == pytest.approx(1.0, abs=0.02)


def test_ak_sequence_type_rejects_non_decreasing():
    with pytest.raises(ValueError):
        AkSequence(2.0, np.array([1.0, 1.0]))


def test_exp_grid_one_point():
    assert exp_optimal_grid(1, 2.0).points[0] == pytest.approx(1.0, abs=1e-12)
    assert exp_optimal_grid(1, 1.0).points[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_exp_grid_two_points_assembles_spacings():
    seq = exp_ak_sequence(2.0, 2)
    g = exp_optimal_grid(2, 2.0)
    np.testing.assert_allclose(
        g.points, [seq.values[1] / 2.0, seq.values[1] / 2.0 + seq.values[0]], rtol=1e-14
    )
    assert seq.values[0] == pytest.approx(2.0, abs=1e-10)


def test_exp_grid_scaling_by_rate():
    base = exp_optimal_grid(5, 2.0, 1.0)
    scaled = exp_optimal_grid(5, 2.0, 4.0)
    np.testing.assert_allclose(scaled.points, base.points / 4.0, rtol=1e-14)


@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("n", [2, 7, 10])
def test_recursion_agrees_with_newton(r, n, grid_of):
    closed = exp_optimal_grid(n, r)
    solved = grid_of(EXPO, n, r)
    np.testing.assert_allclose(solved.points, closed.points, atol=1e-8)


def _mp_spacings(r: float, n: int) -> list:
    """The spacing recursion at 40 digits: each root of
    (y**r / r) 1F1(r; r+1; y) = target by Newton from the previous root."""
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        target, y, out = mpmath.gamma(r), mpmath.mpf(1), []
        for _ in range(n):
            for _ in range(200):
                step = (y**r / r * mpmath.hyp1f1(r, r + 1, y) - target) / (
                    y ** (r - 1) * mpmath.exp(y)
                )
                y -= step
                if abs(step) < mpmath.mpf(10) ** -36 * y:
                    break
            out.append(2 * y)
            target = mpmath.gammainc(r, 0, y)
        return [float(v) for v in out]


@pytest.mark.parametrize("r, n", [(4.0, 100), (2.0, 200), (0.5, 100)])
def test_spacings_match_a_40_digit_recursion(r, n):
    ref = np.array(_mp_spacings(r, n))
    got = exp_ak_sequence(r, n).values
    assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-13


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_solver_matches_the_recursion_at_n_900(r, grid_of):
    gap = np.max(np.abs(grid_of(EXPO, 900, r).points - exp_optimal_grid(900, r).points))
    assert gap <= 1e-10


def test_library_calls_do_not_import_scipy_optimize():
    script = (
        "import sys\n"
        "import quantilab as ql\n"
        "ql.exp_optimal_grid(50, 2.0)\n"
        "for r in (0.5, 1.0, 3.0):\n"
        "    ql.optimal_grid(ql.DistributionSpec.gamma(2.0), 8, r)\n"
        "ql.rate_constants(ql.RateQuery(ql.DistributionSpec.gaussian(), 2.0, 1.0, 0.9))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(quantilab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# -- cache -----------------------------------------------------------------------

def test_grid_cache_round_trip(tmp_path):
    cache = GridCache(tmp_path)
    opts = SolverOpts()
    first = optimal_grid(EXPO, 4, 2.0, opts, cache=cache)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    again = optimal_grid(EXPO, 4, 2.0, opts, cache=cache)
    assert again == first
    assert files[0].read_text() == first.to_text()


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: "".join(text.splitlines(keepends=True)[:4]),  # truncated
        lambda text: text.replace("\n", "x\n", 1),  # does not parse
        lambda text: "".join(reversed(text.splitlines(keepends=True))),  # not increasing
    ],
    ids=["truncated", "garbage", "unordered"],
)
def test_grid_cache_damaged_file_is_a_miss(tmp_path, damage):
    cache = GridCache(tmp_path)
    opts = SolverOpts()
    first = optimal_grid(EXPO, 10, 2.0, opts, cache=cache)
    (path,) = tmp_path.iterdir()
    path.write_text(damage(path.read_text()))
    assert cache.load(EXPO, 10, 2.0, opts) is None
    again = optimal_grid(EXPO, 10, 2.0, opts, cache=cache)
    assert again == first
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_text() == first.to_text()


def test_grid_cache_keys_on_every_solver_option(tmp_path):
    # same grad_tol, looser quadrature: a grid 5e-6 off the default solve
    cache = GridCache(tmp_path)
    loose = SolverOpts(
        quad=QuadratureOpts(abs_tol=1e-8, rel_tol=1e-6, tail_mass_cut=1e-8)
    )
    stale = optimal_grid(GAUSS, 30, 4.0, loose, cache=cache)
    fresh = optimal_grid(GAUSS, 30, 4.0)
    assert np.max(np.abs(stale.points - fresh.points)) > 1e-6
    assert optimal_grid(GAUSS, 30, 4.0, cache=cache) == fresh
    assert cache.load(GAUSS, 30, 4.0, loose) == stale
    assert len(list(tmp_path.iterdir())) == 2


@pytest.mark.parametrize("lam", [1.0, 2.5])
def test_solve_takes_the_exact_recursion_for_shape_one(lam, tmp_path):
    exact = exp_optimal_grid(30, 3.0, lam)
    cache = GridCache(tmp_path)
    assert solve(DistributionSpec.exponential(lam), 30, 3.0, cache=cache) == exact
    assert solve(DistributionSpec.gamma(1.0, lam), 30, 3.0) == exact
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "spec",
    [GAUSS, DistributionSpec.gamma(2.0), DistributionSpec.gamma(0.5, 3.0)],
    ids=["gauss", "gamma2", "gamma0.5"],
)
def test_solve_uses_the_solver_for_other_laws(spec, tmp_path):
    opts = SolverOpts(grad_tol=1e-9)
    cache = GridCache(tmp_path)
    grid = solve(spec, 8, 3.0, opts, cache=cache)
    assert grid == optimal_grid(spec, 8, 3.0, opts)
    assert cache.load(spec, 8, 3.0, opts) == grid


def test_grid_cache_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QUANTILAB_CACHE_DIR", str(tmp_path / "store"))
    cache = GridCache.from_env()
    assert cache is not None and cache.root.is_dir()
    monkeypatch.delenv("QUANTILAB_CACHE_DIR")
    assert GridCache.from_env() is None
