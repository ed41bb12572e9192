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
from scipy.linalg import solve_banded
from scipy.optimize import minimize, minimize_scalar

import quantilab
from quantilab import distributions, solver
from quantilab.analysis import empirical_discrepancy, empirical_identity_check, table_experiment
from quantilab.distributions import (
    DistributionSpec,
    QuadratureError,
    QuadratureOpts,
    _abs_moment,
    _abs_moments,
    _edge_law,
    _edge_masses,
    _effective_bounds,
    cell_moment,
    empirical_measure_law,
    pdf,
    quantile,
)
from quantilab.quantizer import Grid, count_in_interval, distortion, nearest, voronoi_bounds
from quantilab.solver import (
    AkSequence,
    GridCache,
    SolveResult,
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


_GRID3 = Grid(np.array([0.0, 1.0, 2.0]))


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: count_in_interval(_GRID3, math.nan, 1.0), "lo=nan"),
        (lambda: nearest(_GRID3, math.nan), "^x must not be NaN"),
        (lambda: cell_argmin(GAUSS, math.nan, 1.0, 3.0), "lo=nan"),
        (lambda: cell_argmin(GAUSS, -1.0, 1.0, math.nan), "^r must be finite and positive, got nan"),
        (lambda: cell_moment(GAUSS, 0.0, math.nan, 1.0, 2.0), "lo=nan"),
        (lambda: distributions.cell_gradient(GAUSS, 0.0, -1.0, 1.0, INF), "r=inf"),
        (lambda: cell_moment(GAUSS, math.nan, 0.0, 1.0, 2.0), "a=nan"),
        (lambda: cell_moment(GAUSS, INF, 0.0, 1.0, 2.0), "a=inf"),
        (lambda: distributions.cell_gradient(GAUSS, math.nan, 0.0, 1.0, 2.0), "a=nan"),
        (lambda: distributions.cell_gradient(GAUSS, -INF, 0.0, 1.0, 2.0), "a=-inf"),
        (lambda: empirical_identity_check(GAUSS, 2.0, 1.0, (math.nan, 1.0)), "lo=nan"),
    ],
    ids=[
        "count-lo", "nearest-x", "argmin-lo", "argmin-r", "moment-lo", "gradient-r",
        "moment-a-nan", "moment-a-inf", "gradient-a-nan", "gradient-a-inf", "identity-lo",
    ],
)
def test_nan_and_infinite_arguments_raise_value_error_naming_them(call, bad):
    with pytest.raises(ValueError, match=bad):
        call()


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda n: optimal_grid(GAUSS, n, 2.0), "n"),
        (lambda n: exp_optimal_grid(n, 2.0), "n"),
        (lambda n: exp_ak_sequence(2.0, n), "n"),
        (lambda n: table_experiment(EXPO, 2.0, 1.0, ns=(3, n)), r"ns\[1\]"),
        (lambda n: empirical_discrepancy(_GRID3, GAUSS, 1.0, n), "n_bins"),
        (lambda n: DistributionSpec.gaussian(d=n), "d"),
    ],
    ids=["optimal-grid", "exp-grid", "ak-sequence", "table-ns", "bins", "spec-d"],
)
def test_counts_that_are_not_integers_raise_value_error_naming_them(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        make(2.5)
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        make(0)
    make(np.int64(2))  # numpy integers stay accepted


def _argmin_by_minimisation(spec, lo, hi, r):
    """Oracle: bounded scalar minimisation of the cell moment itself.

    This locates a minimum only to about sqrt(machine eps) relative: the
    moment changes by M'' d**2 / 2 at a distance d from its minimum,
    which sinks below rounding once d < ~1e-8.
    """
    q = solver._QUAD
    lo_e, hi_e = _effective_bounds(spec, np.array([lo]), np.array([hi]), q.tail_mass_cut)
    res = minimize_scalar(
        lambda x: cell_moment(spec, x, lo, hi, r, q),
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
    a = cell_argmin(spec, lo, hi, r)
    assert a == pytest.approx(_argmin_by_minimisation(spec, lo, hi, r), abs=5e-8)
    # sharper, from the scalar integrator: the moment derivative changes
    # sign across a, to well below the oracle's resolution
    h = 1e-9 * (1.0 + abs(a))
    below = _abs_moment(spec, a - h, lo, hi, r - 1.0, solver._QUAD, signed=True)
    above = _abs_moment(spec, a + h, lo, hi, r - 1.0, solver._QUAD, signed=True)
    assert below < 0.0 < above


def test_subunit_argmin_respects_memorylessness_and_symmetry():
    # the exponential law is memoryless; the Gaussian one symmetric
    for r in (0.3, 0.5, 0.8):
        tail = cell_argmin(EXPO, 1.0, INF, r)
        assert tail == pytest.approx(1.0 + cell_argmin(EXPO, 0.0, INF, r), abs=1e-12)
        left = cell_argmin(GAUSS, -INF, -1.0, r)
        assert left == pytest.approx(-cell_argmin(GAUSS, 1.0, INF, r), abs=1e-12)


@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_batched_sweep_empty_cell_raises(r):
    from quantilab.solver import _lloyd_sweep

    # the middle cell [55, 65] holds no Gaussian mass in double precision
    with pytest.raises(SolverError):
        _lloyd_sweep(GAUSS, np.array([50.0, 60.0, 70.0]), r)


# -- closed-form stationarity system (r = 1, 2) ------------------------------------

FAMILIES = [GAUSS, EXPO, DistributionSpec.gamma(2.0), DistributionSpec.gamma(0.5)]
FAMILY_IDS = ["gauss", "exp", "gamma2", "gamma0.5"]


def _off_stationary(spec, n, r, seed):
    # quantiles of the limiting point law at levels jittered by up to a
    # quarter cell: ordered, inside the support, and not stationary
    rng = np.random.default_rng(seed)
    levels = (2.0 * np.arange(1, n + 1) - 1.0 + rng.uniform(-0.5, 0.5, n)) / (2.0 * n)
    return quantile(empirical_measure_law(spec, r), levels)


def _state(spec, pts, r, cut=None):
    """The Newton state of the one grid ``pts``; None if ``cut`` refuses it."""
    return solver._states(spec, pts, [0], r, None if cut is None else [cut])[0]


@pytest.mark.parametrize("n", [1, 3, 40, 900])
@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
def test_closed_form_residual_matches_quadrature(spec, r, n):
    pts = _off_stationary(spec, n, r, seed=n)
    b = voronoi_bounds(pts)
    quad = _abs_moments(spec, pts, b[:-1], b[1:], r - 1.0, solver._QUAD, signed=True)
    res = _state(spec, pts, r).res
    np.testing.assert_allclose(res, r * quad, rtol=0, atol=1e-13)


# closed-form Jacobians (r = 1, 2), quadrature curvatures (r = 1.5) and
# curvatures integrated by parts (r < 1)
JACOBIAN_CASES = [
    pytest.param(spec, r, id=f"{name}-{r}")
    for spec, name in zip(FAMILIES, FAMILY_IDS)
    for r in (1.0, 1.5, 2.0, 0.3, 0.5, 0.8)
]


@pytest.mark.parametrize("n", [1, 3, 40])
@pytest.mark.parametrize("spec, r", JACOBIAN_CASES)
def test_jacobian_matches_central_differences_of_the_residual(spec, r, n):
    def residual(x):
        return _state(spec, x, r).res

    pts = _off_stationary(spec, n, r, seed=n)
    h = 1e-4 * (np.min(np.diff(pts)) if n > 1 else 1.0)
    ab = solver._jacobian_banded(spec, _state(spec, pts, r), r)
    fd = np.zeros((3, n))
    for k in range(3):  # residual i sees points i - 1, i, i + 1 only
        moved = np.arange(n) % 3 == k
        step = np.where(moved, h, 0.0)
        d = (residual(pts + step) - residual(pts - step)) / (2.0 * h)
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


def _count_law(monkeypatch):
    """Count the abscissae given to cdf, sf, quantile and quantile_sf, in
    every module that calls them."""
    counts = dict.fromkeys(("cdf", "sf", "quantile", "quantile_sf"), 0)
    for name in counts:
        real = getattr(distributions, name)

        def counting(spec, x, *args, _name=name, _real=real, **kwargs):
            counts[_name] += np.size(x)
            return _real(spec, x, *args, **kwargs)

        for module in (distributions, solver):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
def test_median_state_takes_its_cell_masses_from_the_half_cell_edges(spec):
    # one evaluation of the interleaved edges b0, a0, b1, ..., bn gives the
    # half-cell masses, bit for bit as a call of its own, and the cell
    # masses are their pair sums, whether the cdf side ends at a cell edge
    # or at a point
    parities = set()
    for n in (1, 2, 3, 4, 7, 40):
        for seed in range(4):
            pts = _off_stationary(spec, n, 1.0, seed)
            b = voronoi_bounds(pts)
            edges = np.empty(2 * n + 1)
            edges[0::2], edges[1::2] = b, pts
            st = _state(spec, pts, 1.0)
            law = _edge_law(spec, edges)
            halves = law.masses()
            np.testing.assert_array_equal(halves, _edge_masses(spec, edges))
            np.testing.assert_array_equal(st.res, halves[0::2] - halves[1::2])
            np.testing.assert_array_equal(st.mass, halves[0::2] + halves[1::2])
            np.testing.assert_array_equal(st.upper, law.upper[0::2])
            np.testing.assert_array_equal(np.where(st.upper, st.s, st.c), law.tails()[0::2])
            np.testing.assert_allclose(st.mass, _edge_masses(spec, b), rtol=1e-13)
            parities.add(np.count_nonzero(~law.upper) % 2)
    assert parities == {0, 1}


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_closed_form_solves_take_the_law_once_per_abscissa(r, monkeypatch):
    spec, n = DistributionSpec.gamma(0.5), 300
    counts = _count_law(monkeypatch)
    real_states, states = solver._states, [0]

    def counting_states(*args, **kwargs):
        states[0] += 1
        return real_states(*args, **kwargs)

    monkeypatch.setattr(solver, "_states", counting_states)
    optimal_grid(spec, n, r)
    law = counts["cdf"] + counts["sf"]
    # a Newton state takes, for r = 1, the 2n + 1 interleaved edges and
    # the edge where the cdf side meets the sf side twice; for r = 2, the
    # n + 1 cell edges under the law and under Gamma(a + 1, lam) (for M1),
    # one edge twice in each.  Two more allow for edges inside the median
    # band.  The r = 1 check takes the law at 2n more points, the r = 2
    # check at none.
    per_state = 2 * n + 4 if r == 1.0 else 2 * n + 6
    assert law <= states[0] * per_state + (2 * n if r == 1.0 else 0)
    # when every edge took the cdf, the upper ones the sf too, and the
    # check re-ran the Lloyd sweep: 11,875 (r = 1) and 8,345 (r = 2)
    assert law <= {1.0: 5_000, 2.0: 4_500}[r]
    assert counts["quantile_sf"] == 0


@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
def test_closed_form_fixed_point_check_reads_the_newton_state(spec, r, grid_of, monkeypatch):
    n = 300
    pts = grid_of(spec, n, r).points
    state = _state(spec, pts, r)
    counts = _count_law(monkeypatch)
    assert solver._sweep_keeps(spec, state, r)
    # r = 1: the residual at a -+ d; r = 2: max|F| of the state itself
    assert counts["cdf"] + counts["sf"] == (2 * n if r == 1.0 else 0)
    assert counts["quantile"] == counts["quantile_sf"] == 0


def test_each_newton_state_takes_its_voronoi_edges_once(monkeypatch):
    # the Jacobian and the fixed-point check read the state's edges: 27
    # voronoi_bounds calls for the 9 states of this solve before
    real_bounds, real_states = solver.voronoi_bounds, solver._states
    bounds, states = [0], [0]

    def counting_bounds(*args, **kwargs):
        bounds[0] += 1
        return real_bounds(*args, **kwargs)

    def counting_states(*args, **kwargs):
        st, ok = real_states(*args, **kwargs)
        states[0] += st is not None
        return st, ok

    monkeypatch.setattr(solver, "voronoi_bounds", counting_bounds)
    monkeypatch.setattr(solver, "_states", counting_states)
    res = optimal_grid(GAUSS, 300, 4.0, full_result=True)
    assert res.lloyd_sweeps == 1
    assert bounds[0] == states[0] > 0


@pytest.mark.parametrize("r", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
def test_quadrature_fixed_point_check_reads_the_clipped_cells_of_the_state(
    spec, r, grid_of, monkeypatch
):
    # no mass test and no second clip: a Gaussian n = 300 check sent 305
    # abscissae to cdf and sf and made 2 tail inversions before
    pts = grid_of(spec, 300, r).points
    state = _state(spec, pts, r)
    counts = _count_law(monkeypatch)
    assert solver._sweep_keeps(spec, state, r)
    assert counts == dict.fromkeys(("cdf", "sf", "quantile", "quantile_sf"), 0)


@pytest.mark.parametrize("spec", [GAUSS, DistributionSpec.gamma(2.0)], ids=["gauss", "gamma2"])
def test_newton_matrix_matches_central_differences_of_the_scaled_residual(spec):
    # r = 1: F = R / (2 f(a)), and dD/da = D (log f)' holds exactly
    n = 20
    pts = _off_stationary(spec, n, 1.0, seed=n)
    st = _state(spec, pts, 1.0)
    np.testing.assert_array_equal(st.curv, 2.0 * pdf(spec, pts))
    ab = solver._newton_matrix(spec, st, 1.0)

    def scaled(x):
        return _state(spec, x, 1.0).res / (2.0 * pdf(spec, x))

    h = 1e-4 * np.min(np.diff(pts))
    fd = np.zeros((3, n))
    for k in range(3):  # F_i sees points i - 1, i, i + 1 only
        moved = np.arange(n) % 3 == k
        step = np.where(moved, h, 0.0)
        d = (scaled(pts + step) - scaled(pts - step)) / (2.0 * h)
        j = np.flatnonzero(moved)
        fd[1, j] = d[j]
        fd[0, j[j > 0]] = d[j[j > 0] - 1]
        fd[2, j[j < n - 1]] = d[j[j < n - 1] + 1]
    np.testing.assert_allclose(ab, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(ab)))


def test_each_cell_set_is_clipped_to_its_tail_cuts_once(monkeypatch):
    # the tail cut of the two unbounded end cells costs one quantile_sf
    # call; an r < 1 Newton state and a Lloyd sweep each clip their cells
    # once and integrate over the clipped brackets from then on
    real = distributions.quantile_sf
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(distributions, "quantile_sf", counting)
    pts = _off_stationary(GAUSS, 3, 0.5, seed=3)
    _state(GAUSS, pts, 0.5)
    assert calls[0] == 1
    calls[0] = 0
    solver._lloyd_sweep(GAUSS, pts, 0.5)
    assert calls[0] == 1


def _record_batches(monkeypatch, *names):
    """Wrap each solver.<name> to record, per call, the number of
    ``_abs_moments`` batches it ran, its arguments and its result."""
    real_moments = solver._abs_moments
    calls = [0]
    records = {name: [] for name in names}

    def counting_moments(*args, **kwargs):
        calls[0] += 1
        return real_moments(*args, **kwargs)

    def recorder(name, real):
        def recording(*args, **kwargs):
            before = calls[0]
            out = real(*args, **kwargs)
            records[name].append((calls[0] - before, args, kwargs, out))
            return out

        return recording

    monkeypatch.setattr(solver, "_abs_moments", counting_moments)
    for name in names:
        monkeypatch.setattr(solver, name, recorder(name, getattr(solver, name)))
    return [records[name] for name in names]


@pytest.mark.parametrize("r", [0.5, 1.5, 3.0])
def test_newton_hands_each_iterates_curvature_to_the_jacobian(r, monkeypatch):
    states, jacobians = _record_batches(monkeypatch, "_states", "_jacobian_banded")
    res = optimal_grid(GAUSS, 20, r, full_result=True)
    assert len(jacobians) == res.newton_iters > 0
    # residual and curvature of a computed Newton state: one batch between
    # them; a refused candidate runs none
    computed = [st for *_, (st, _) in states if st is not None]
    assert [batches for batches, *_, (st, _) in states if st is not None] == [1] * len(computed)
    assert all(batches == 0 for batches, *_, (st, _) in states if st is None)
    for batches, args, _, _ in jacobians:
        # no integral of its own: each Jacobian reads a state's curvature
        assert batches == 0
        assert any(args[1] is st for st in computed)


def test_a_solve_stops_at_the_round_off_floor(monkeypatch):
    # the last state no longer only confirms a step: the solve before took 9
    (states,) = _record_batches(monkeypatch, "_states")
    res = optimal_grid(GAUSS, 300, 4.0, full_result=True)
    assert res.lloyd_sweeps == 1
    assert 0 < sum(st is not None for *_, (st, _) in states) <= 6


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

    grad_tol = SolverOpts().grad_tol
    grid = grid_of(spec, 7, r)
    b = voronoi_bounds(grid)
    res = [
        cell_gradient(spec, float(p), b[i], b[i + 1], r, solver._QUAD)
        for i, p in enumerate(grid.points)
    ]
    assert max(abs(v) for v in res) <= grad_tol
    moves = [abs(cell_argmin(spec, b[i], b[i + 1], r) - grid.points[i]) for i in range(grid.n)]
    assert max(moves) <= 10.0 * grad_tol


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_solver_inputs_are_rejected_by_name(bad):
    for call, name in (
        (lambda: optimal_grid(GAUSS, 3, bad), "r"),
        (lambda: exp_ak_sequence(bad, 3), "r"),
        (lambda: exp_optimal_grid(3, 2.0, bad), "lam"),
        (lambda: SolverOpts(grad_tol=bad), "grad_tol"),
        (lambda: SolverOpts(position_tol=bad), "position_tol"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call()


def test_nonconvergence_error_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 0)
    starved = SolverOpts(grad_tol=1e-14)
    swept = solver._lloyd_sweep(GAUSS, solver._initial_points(GAUSS, 6, 4.0), 4.0)
    start = 5.0 + 2.0 * swept  # on the scale of N(5, 4)
    with pytest.raises(SolverError) as exc:
        # the unit-law start of the N(5, 4) solve below
        optimal_grid(GAUSS, 6, 4.0, starved, init_grid=Grid((start - 5.0) / 2.0))
    assert exc.value.points.size == 6
    assert exc.value.residual_sup > 0.0
    # the best iterate is reported on the scale of the law asked for
    with pytest.raises(SolverError) as scaled:
        optimal_grid(DistributionSpec.gaussian(5.0, 4.0), 6, 4.0, starved, init_grid=Grid(start))
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
        poor = optimal_grid(spec, 200, r)
    except SolverError:
        return
    np.testing.assert_allclose(poor.points, grid_of(spec, 200, r).points, rtol=0, atol=1e-9)


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
def test_newton_converges_from_the_seed(spec, r):
    # no Lloyd sweep runs before Newton: the only sweep is the verifying
    # one, and the grid is the one two sweeps first would give
    for n in (10, 50, 200, 900):
        seeded = optimal_grid(spec, n, r, full_result=True)
        assert seeded.lloyd_sweeps == 1
        pts = solver._initial_points(spec, n, r)
        for _ in range(2):
            pts = solver._lloyd_sweep(spec, pts, r)
        swept = optimal_grid(spec, n, r, init_grid=Grid(pts))
        np.testing.assert_allclose(seeded.grid.points, swept.points, rtol=0, atol=1e-9)


@pytest.mark.parametrize("r", [0.5, 4.0])
def test_the_seed_is_the_limiting_law_quantiles_at_i_over_n_plus_1(r):
    n = 7
    levels = np.arange(1, n + 1) / (n + 1.0)
    for spec in (GAUSS, DistributionSpec.gamma(0.3)):
        q = quantile(empirical_measure_law(spec, r), levels)
        pts = solver._initial_points(spec, n, r)
        if spec.a + r < 1.0:  # the pole cell: its point starts at its optimum
            assert pts[0] == cell_argmin(spec, 0.0, 0.5 * (q[0] + q[1]), r) < q[0]
            pts, q = pts[1:], q[1:]
        np.testing.assert_array_equal(pts, q)


@pytest.mark.parametrize(
    "spec, n",
    [
        (GAUSS, 400),
        (EXPO, 100),
        (DistributionSpec.gamma(2.0), 100),
        (DistributionSpec.gamma(0.5), 100),
        (DistributionSpec.gamma(7.0), 100),
        (EXPO, 900),
        (DistributionSpec.gamma(0.5), 900),
        (DistributionSpec.gamma(2.0, 1.5), 900),
        (DistributionSpec.gamma(0.3), 900),
    ],
    ids=["gauss", "exp", "gamma2", "gamma0.5", "gamma7", "exp-900", "gamma0.5-900",
         "gamma2-1.5-900", "gamma0.3-900"],
)
def test_r6_solves_converge(spec, n):
    # at n = 900 the seed already has cells below the 1e-20 tail cut
    res = optimal_grid(spec, n, 6.0, full_result=True)
    assert res.grid.n == n and res.residual_sup <= SolverOpts().grad_tol
    assert res.lloyd_sweeps == 1
    if spec == EXPO:
        np.testing.assert_allclose(
            res.grid.points, exp_optimal_grid(n, 6.0).points, rtol=0, atol=1e-9
        )


@pytest.mark.parametrize("n", [1, 2])
def test_a_state_at_its_round_off_floor_is_converged(n):
    # Gamma(7), r = 8, n = 1 holds R = -4.66e-10 at its round-off floor, above
    # grad_tol, from the first state on; sup|F| and the pending step are nil
    res = optimal_grid(DistributionSpec.gamma(7.0), n, 8.0, full_result=True)
    assert res.grid.n == n and res.lloyd_sweeps == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [1.0, 2.0])
def test_a_large_n_solve_stops_once_it_stalls_at_round_off(r):
    # at n = 1e5 the step's round-off (||J^-1|| ~ n**2) stays far above
    # position_tol, and the run used to end without verified convergence
    n = 100_000
    res = optimal_grid(GAUSS, n, r, full_result=True)
    assert res.grid.n == n and res.lloyd_sweeps == 1
    assert res.newton_iters <= 10 and res.residual_sup <= SolverOpts().grad_tol


@pytest.mark.parametrize(
    "a, r, n", [(0.3, 0.3, 1), (0.3, 0.3, 5), (0.2, 0.2, 5), (0.2, 0.3, 5)]
)
def test_gamma_optimum_at_the_origin_raises_solver_error(a, r, n):
    # 2a + r <= 1: the first cell's optimal point is the origin itself,
    # where its stationarity integral diverges
    with pytest.raises(SolverError, match="origin") as exc:
        optimal_grid(DistributionSpec.gamma(a), n, r)
    assert exc.value.points.size == 0 and math.isnan(exc.value.residual_sup)


@pytest.mark.parametrize("hi", [1.0, math.inf])
@pytest.mark.parametrize("dr", [-0.01, 0.0, 0.01])
@pytest.mark.parametrize("a", [0.1, 0.25, 0.4])
def test_gamma_first_cell_optimum_is_the_origin_exactly_when_2a_plus_r_is_at_most_1(a, dr, hi):
    # as x -> 0+ the first cell's moment derivative behaves like
    # x**(a+r-1) (B(r, a) - B(r, 1-a-r)), and B(r, .) decreases; at the tie
    # the bounded remainder is positive
    r = 1.0 - 2.0 * a + dr
    assert (cell_argmin(DistributionSpec.gamma(a), 0.0, hi, r) == 0.0) == (2.0 * a + r <= 1.0)


def test_origin_laws_raise_before_any_newton_iteration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an origin law reached the solver")

    monkeypatch.setattr(solver, "_newton", refuse)
    monkeypatch.setattr(solver, "_cell_argmins", refuse)
    for a, r, n in ((0.3, 0.3, 1), (0.3, 0.3, 400), (0.25, 0.5, 5), (0.05, 0.9, 50)):
        with pytest.raises(SolverError, match="origin"):
            optimal_grid(DistributionSpec.gamma(a), n, r)


@pytest.mark.parametrize(
    "spec, r", [(DistributionSpec.gamma(0.2), 0.7), (GAUSS, 0.5)], ids=["gamma0.2", "gauss"]
)
def test_a_candidate_whose_midpoint_rounds_onto_a_point_is_refused(spec, r):
    # two points one ulp apart: their midpoint is one of them, and the
    # r < 1 curvature would divide by zero there (an error under this
    # suite's warning filter) if the candidate were integrated
    pts = np.array([0.5, 1.0, np.nextafter(1.0, 2.0), 3.0])
    assert _state(spec, pts, r, solver._QUAD.tail_mass_cut) is None


def test_gamma_with_a_plus_r_below_one_and_an_interior_optimum_solves():
    res = optimal_grid(DistributionSpec.gamma(0.3), 5, 0.5, full_result=True)
    assert res.grid.n == 5 and res.grid.points[0] > 0.0
    assert res.residual_sup <= SolverOpts().grad_tol


@pytest.mark.parametrize(
    "spec, r", [(EXPO, 2.0), (GAUSS, 4.0)], ids=["exp-r2", "gauss-r4"]
)
def test_newton_keeps_every_cell_above_the_tail_cut(spec, r):
    seed = _state(spec, solver._initial_points(spec, 200, r), r, 0.0)
    st = solver._newton(spec, seed, r, SolverOpts())[0][0]
    pts = st.pts
    b = voronoi_bounds(pts)
    assert np.min(_edge_masses(spec, b)) > solver._QUAD.tail_mass_cut


@pytest.mark.parametrize(
    "spec, r", [(EXPO, 2.0), (GAUSS, 4.0)], ids=["exp-r2", "gauss-r4"]
)
def test_newton_success_is_checked_by_a_lloyd_sweep(spec, r):
    # Newton tolerances far looser than the sweep check: Newton alone
    # would stop on a grid several units from stationary
    opts = SolverOpts(grad_tol=1e-3, position_tol=1e-3)
    try:
        grid = optimal_grid(spec, 30, r, opts)
    except SolverError:
        return
    swept = solver._lloyd_sweep(spec, grid.points, r)
    scale = 1.0 + np.max(np.abs(grid.points))
    assert np.max(np.abs(swept - grid.points)) <= solver._LLOYD_MOVE_TOL * scale


@pytest.mark.parametrize("sweeps", [0, 2])
@pytest.mark.parametrize("r", [2.0, 4.0])
def test_planted_tail_point_never_converges_to_a_wrong_grid(r, sweeps):
    exact = exp_optimal_grid(10, r)
    planted = exact.points.copy()
    planted[-1] = 60.0  # its cell holds mass ~1e-15
    for _ in range(sweeps):
        planted = solver._lloyd_sweep(EXPO, planted, r)
    try:
        res = optimal_grid(EXPO, 10, r, init_grid=Grid(planted))
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


def test_subunit_exponent_newton_budget_raises(monkeypatch):
    # one Newton iteration cannot meet the tolerances; an unconverged grid
    # is never returned
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 1)
    with pytest.raises(SolverError, match="no verified convergence") as exc:
        optimal_grid(EXPO, 20, 0.5)
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
    # a + r <= 1: the first cell's moment derivative is -inf at 0, and on
    # the curvature-scaled system Newton would stall near there
    cases = [(0.5, r, n) for r, n in ((0.5, 3), (0.3, 3), (0.3, 400))]
    cases += [(a, r, n) for a, r in ((0.3, 0.5), (0.4, 0.3)) for n in (1, 20, 100)]
    for a, r, n in cases:
        res = optimal_grid(DistributionSpec.gamma(a), n, r, full_result=True)
        assert res.grid.n == n and res.grid.points[0] > 0.0
        assert res.residual_sup <= SolverOpts().grad_tol and res.stationary_only
        assert res.lloyd_sweeps == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 5, 50])
@pytest.mark.parametrize("a, r", [(0.05, 0.91), (0.1, 0.81), (0.3, 0.41), (0.45, 0.11)])
def test_gamma_just_above_the_origin_line_solves(a, r, n):
    # 2a + r = 1.01: the first point's optimum lies within 1e-4 of the
    # origin, and from a seed point of order 1 Newton on R walked it onto
    # the second point
    res = optimal_grid(DistributionSpec.gamma(a), n, r, full_result=True)
    assert res.grid.n == n and 0.0 < res.grid.points[0] < 1e-4
    assert res.residual_sup <= SolverOpts().grad_tol and res.lloyd_sweeps == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [200, 900])
@pytest.mark.parametrize("a, r", [(0.05, 0.91), (0.1, 0.81)])
def test_the_pole_cell_seed_is_found_to_relative_precision(a, r, n):
    # the first point's optimum lies at 1e-16 to 1e-23; a root search to an
    # absolute 1e-12 returned the origin itself, a seed the state refused
    # with a ValueError from the quadrature
    spec = DistributionSpec.gamma(a)
    seed = solver._initial_points(spec, n, r)[0]
    res = optimal_grid(spec, n, r, full_result=True)
    assert 0.0 < res.grid.points[0] < seed < 1e-12
    assert res.newton_iters <= 6 and res.lloyd_sweeps == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, r", [(0.3, 0.5), (0.5, 0.5)])
def test_a_seed_on_the_support_edge_is_refused(a, r):
    # a point at the origin, where the first cell's integrand is not
    # integrable (a + r <= 1): the run is a SolverError, and the solve goes
    # on from the default seed
    spec = DistributionSpec.gamma(a)
    (run,) = solver._lloyd_newton(spec, [iter([np.array([0.0, 1.0, 2.0])])], r, SolverOpts())
    assert isinstance(run, SolverError) and "inadmissible seed" in str(run)
    seeded = optimal_grid(spec, 3, r, init_grid=Grid(np.array([0.0, 1.0, 2.0])))
    np.testing.assert_array_equal(seeded.points, optimal_grid(spec, 3, r).points)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("init", [None, Grid(np.linspace(1.0, 40.0, 20))])
def test_a_seed_whose_cell_integrals_overflow_is_refused(init):
    # at r = 200 the seed's own cell integrals overflow, as a line-search
    # candidate's can: the seed is inadmissible, not a QuadratureError, and
    # a user seed is followed by the default one
    with pytest.raises(SolverError, match="inadmissible seed"):
        optimal_grid(DistributionSpec.gamma(0.5), 20, 200.0, init_grid=init)


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


@pytest.mark.parametrize("r, n, longer", [(0.5, 20, 300), (2.0, 50, 300), (4.0, 100, 300)])
def test_spacing_sequence_is_a_prefix_of_a_longer_one(r, n, longer):
    np.testing.assert_array_equal(
        exp_ak_sequence(r, n).values, exp_ak_sequence(r, longer).values[:n]
    )


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0])
def test_spacing_roots_take_few_evaluations(r, monkeypatch):
    # a converged Newton step from above lands on the bracket end; it must
    # end the search there, not restart it by bisection from the midpoint
    real, calls = solver._phi_minus, [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(solver, "_phi_minus", counting)
    exp_ak_sequence(r, 300)
    assert calls[0] / 300 <= 6.0


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_solver_matches_the_recursion_at_n_900(r, grid_of):
    gap = np.max(np.abs(grid_of(EXPO, 900, r).points - exp_optimal_grid(900, r).points))
    assert gap <= 1e-10


def test_subunit_solver_matches_the_recursion_at_n_900(grid_of):
    # an exact Jacobian lands the r < 1 grid where the recursion puts it
    gap = np.max(np.abs(grid_of(EXPO, 900, 0.3).points - exp_optimal_grid(900, 0.3).points))
    assert gap <= 5e-12


def _fresh_stdout(script: str) -> str:
    """What ``script`` prints in a fresh interpreter that imports this quantilab."""
    src = str(Path(quantilab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


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
    assert _fresh_stdout(script) == "False"


def test_scipy_linalg_is_imported_on_the_first_tridiagonal_solve():
    # commands that solve nothing skip its import time
    script = (
        "import sys\n"
        "import quantilab as ql\n"
        "print('scipy.linalg' in sys.modules)\n"
        "ql.optimal_grid(ql.DistributionSpec.gaussian(), 5, 2.0)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    assert _fresh_stdout(script).split() == ["False", "True"]


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


def test_grid_cache_keys_on_every_solver_option(tmp_path, monkeypatch):
    # same tolerances, looser quadrature: a grid 5e-6 off the default solve
    cache = GridCache(tmp_path)
    loose = QuadratureOpts(abs_tol=1e-8, rel_tol=1e-6, tail_mass_cut=1e-8)
    with monkeypatch.context() as m:
        m.setattr(solver, "_QUAD", loose)
        stale = optimal_grid(GAUSS, 30, 4.0, cache=cache)
    fresh = optimal_grid(GAUSS, 30, 4.0)
    assert np.max(np.abs(stale.points - fresh.points)) > 1e-6
    assert optimal_grid(GAUSS, 30, 4.0, cache=cache) == fresh
    with monkeypatch.context() as m:
        m.setattr(solver, "_QUAD", loose)
        assert cache.load(GAUSS, 30, 4.0, SolverOpts()) == stale
    assert len(list(tmp_path.iterdir())) == 2


def test_a_grid_stored_by_other_solver_code_is_not_served(tmp_path, monkeypatch):
    # a wrong grid under the name that solver code with another digest uses
    cache = GridCache(tmp_path)
    with monkeypatch.context() as m:
        m.setattr(solver, "_code_digest", lambda: "other solver code", raising=False)
        cache.store(GAUSS, 20, 2.0, SolverOpts(), Grid(np.linspace(-3.0, 3.0, 20)))
    assert cache.load(GAUSS, 20, 2.0, SolverOpts()) is None
    grid = optimal_grid(GAUSS, 20, 2.0, cache=cache)
    assert grid == optimal_grid(GAUSS, 20, 2.0)
    assert cache.load(GAUSS, 20, 2.0, SolverOpts()) == grid
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


# -- batched verification and tridiagonal solve ---------------------------------

@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, 0.5])
@pytest.mark.parametrize(
    "spec", [GAUSS, EXPO, DistributionSpec.gamma(0.5), DistributionSpec.gamma(3.0)],
    ids=["gauss", "exp", "gamma0.5", "gamma3"],
)
def test_sign_test_agrees_with_a_lloyd_sweep(spec, r, grid_of):
    rng = np.random.default_rng(7)
    decisions = set()
    for n in (5, 20):
        base = grid_of(spec, n, r).points
        for eps in (1e-8, 1e-7, 1e-6, 3e-6, 1e-5, 1e-3):
            pts = base + eps * (1.0 + np.max(np.abs(base))) * rng.uniform(-1.0, 1.0, n)
            if np.any(np.diff(pts) <= 0.0) or pts[0] <= spec.support[0]:
                continue
            swept = solver._lloyd_sweep(spec, pts, r)
            move = np.max(np.abs(swept - pts))
            fixed = move <= solver._LLOYD_MOVE_TOL * (1.0 + np.max(np.abs(pts)))
            assert solver._sweep_keeps(spec, _state(spec, pts, r), r) == fixed, (
                n, eps, move,
            )
            decisions.add(bool(fixed))
    assert decisions == {True, False}


@pytest.mark.parametrize("a, r, n", [(0.3, 0.3, 1), (0.3, 0.3, 5), (0.2, 0.2, 5)])
def test_sign_test_rejects_a_grid_the_sweep_sends_to_the_origin(a, r, n):
    spec = DistributionSpec.gamma(a)
    if n == 1:  # the one-point seed is already swept: take the limiting law's median
        pts = quantile(empirical_measure_law(spec, r), np.array([0.5]))
    else:
        pts = solver._initial_points(spec, n, r)
    assert solver._lloyd_sweep(spec, pts, r)[0] == spec.support[0]
    assert not solver._sweep_keeps(spec, _state(spec, pts, r), r)


@pytest.mark.parametrize("n", [1, 2])
def test_a_first_point_near_the_origin_that_the_sweep_sends_there_is_refused_by_the_law(n):
    # the first point lies within the sweep tolerance of the origin and
    # every later cell is stationary, so the sign test keeps the grid even
    # though the sweep sends the first point to the origin; the solve
    # refuses such a law (2a + r <= 1) before it starts
    spec, r = DistributionSpec.gamma(0.3), 0.3
    first = 0.5 * solver._LLOYD_MOVE_TOL
    pts = np.array([first])
    if n == 2:
        x = 1.0
        for _ in range(80):
            x = cell_argmin(spec, 0.5 * (first + x), math.inf, r)
        pts = np.array([first, x])
    roots = solver._cell_argmins(spec, voronoi_bounds(pts), r)
    assert roots[0] == spec.support[0]
    assert np.all(np.abs(roots[1:] - pts[1:]) <= solver._LLOYD_MOVE_TOL * (1.0 + pts[-1]))
    assert solver._lloyd_sweep(spec, pts, r)[0] == spec.support[0]
    assert solver._sweep_keeps(spec, _state(spec, pts, r), r)
    with pytest.raises(SolverError, match="origin"):
        optimal_grid(spec, n, r)


def test_gamma_half_with_a_first_point_near_the_pole_solves():
    # the first point (~6.4e-6) lies closer to the origin than the sweep
    # tolerance, so the sign test evaluates the pole rule there
    res = optimal_grid(DistributionSpec.gamma(0.5), 900, 0.5, full_result=True)
    assert res.grid.n == 900 and 0.0 < res.grid.points[0] < 1e-5
    assert res.residual_sup <= SolverOpts().grad_tol and res.lloyd_sweeps == 1


@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
def test_gamma_seed_near_the_origin_solves(a, r):
    # (a - 1) / x once overflowed in the Newton matrix (Gamma(0.5), r = 1, 2)
    spec = DistributionSpec.gamma(a)
    seeded = optimal_grid(spec, 5, r, init_grid=Grid(np.linspace(0.01, 5.0, 5))).points
    ref = optimal_grid(spec, 5, r).points
    assert np.max(np.abs(seeded - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("r", [0.5, 4.0])
@pytest.mark.parametrize(
    "spec",
    [GAUSS, EXPO, DistributionSpec.gamma(0.5), DistributionSpec.gamma(2.0),
     DistributionSpec.gamma(7.0)],
    ids=["gauss", "exp", "gamma0.5", "gamma2", "gamma7"],
)
def test_equally_spaced_seeds_reach_the_default_seed_grid(spec, r):
    # a seed whose Newton run fails is followed by the default seed; at
    # n = 5 on [F^-1(1e-6), F^-1(1 - 1e-6)] a Gamma(0.5), r = 4 line-search
    # candidate overflows its cell integrals and must be refused
    for n, p in ((100, 0.001), (5, 1e-6)):
        seed = Grid(np.linspace(*quantile(spec, np.array([p, 1.0 - p])), n))
        seeded = optimal_grid(spec, n, r, init_grid=seed, full_result=True)
        ref = optimal_grid(spec, n, r).points
        assert seeded.lloyd_sweeps == 1
        assert np.max(np.abs(seeded.grid.points - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


def _mp_cell_centres(a: float, pts: np.ndarray, r: float) -> np.ndarray:
    """Each Voronoi cell's conditional median (r = 1) or mean (r = 2) under
    Gamma(a, 1) at 40 digits; a median is two Newton steps from the cell's
    point, which is far closer than the steps' quadratic error can show."""
    with mpmath.workdps(40):
        a_ = mpmath.mpf(a)
        b = [mpmath.mpf(0)] + [mpmath.mpf(v) for v in voronoi_bounds(pts)[1:-1]] + [mpmath.inf]
        P = [mpmath.gammainc(a_, 0, v, regularized=True) for v in b]
        if r == 2.0:
            P1 = [mpmath.gammainc(a_ + 1, 0, v, regularized=True) for v in b]
            return np.array(
                [float(a_ * (P1[i + 1] - P1[i]) / (P[i + 1] - P[i])) for i in range(len(pts))]
            )
        out = []
        for i, p in enumerate(pts):
            target, y = (P[i] + P[i + 1]) / 2, mpmath.mpf(p)
            for _ in range(2):
                dens = y ** (a_ - 1) * mpmath.exp(-y) / mpmath.gamma(a_)
                y -= (mpmath.gammainc(a_, 0, y, regularized=True) - target) / dens
            out.append(float(y))
        return np.array(out)


@pytest.mark.parametrize("r, tol", [(1.0, 1e-14), (2.0, 1e-12)])
@pytest.mark.parametrize("a", [0.3, 0.5])
def test_subunit_gamma_grids_sit_at_their_mpmath_cell_centres(a, r, tol):
    pts = optimal_grid(DistributionSpec.gamma(a), 100, r).points
    centres = _mp_cell_centres(a, pts, r)
    assert np.all(np.abs(pts - centres) <= tol * (1.0 + np.abs(pts)))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 900])
def test_tridiagonal_solve_matches_solve_banded(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        ab = rng.normal(size=(3, n))
        ab[1] += 3.0 * np.sign(ab[1])
        rhs = rng.normal(size=n)
        expected = solve_banded((1, 1), ab, rhs)
        assert np.array_equal(solver._tridiagonal_solve(ab.copy(), rhs.copy()), expected)


def test_tridiagonal_solve_reports_a_singular_band():
    # [[1, 1, 0], [1, 1, 0], [0, 1, 1]] in banded form: rows 0 and 1 are equal
    ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((1, 1), ab, np.ones(3))
    assert solver._tridiagonal_solve(ab.copy(), np.ones(3)) is None
    # a zero 1x1 system, with no division by zero
    assert solver._tridiagonal_solve(np.zeros((3, 1)), np.ones(1)) is None


# -- one Newton batch over several sizes -------------------------------------------

BATCH_LAWS = [GAUSS] + [DistributionSpec.gamma(a) for a in (0.5, 2.0, 7.0)]
BATCH_IDS = ["gauss", "gamma0.5", "gamma2", "gamma7"]
BATCH_SIZES = (1, 2, 5, 20, 100)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("spec", BATCH_LAWS, ids=BATCH_IDS)
def test_a_batch_of_sizes_solves_each_as_its_own_solve_does(spec, r):
    # every block passes through the states of its own solve: the same
    # grid, residual and Newton iterations, bit for bit
    batch = solver._optimal_grids(spec, BATCH_SIZES, r, full_result=True)
    for n, got in zip(BATCH_SIZES, batch):
        alone = optimal_grid(spec, n, r, full_result=True)
        assert isinstance(got, SolveResult), (n, got)
        assert np.array_equal(got.grid.points, alone.grid.points), n
        assert got.residual_sup == alone.residual_sup, n
        assert got.newton_iters == alone.newton_iters, n


def _batch(grids):
    """The grids one after another, and where each starts."""
    return np.concatenate(grids), [0, *np.cumsum([pts.size for pts in grids[:-1]]).tolist()]


def _blocks(st):
    """Each block of the state ``st`` as a state of its own."""
    return [solver._block(st, i) for i in range(len(st.starts))]


@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("spec", [GAUSS, DistributionSpec.gamma(2.0)], ids=["gauss", "gamma2"])
def test_a_block_diagonal_newton_solve_equals_the_solves_of_its_blocks(spec, r):
    # the seed states of six sizes as one batch and one tridiagonal solve:
    # the couplings across a block border are 0, so elimination never
    # mixes blocks, with blocks of one and two points among them
    sizes = (1, 2, 20, 50, 100, 300)
    seeds = [solver._initial_points(spec, n, r) for n in sizes]
    joined, ok = solver._states(spec, *_batch(seeds), r, [0.0] * len(sizes))
    assert ok == [True] * len(sizes) and joined.sizes() == list(sizes)
    alone = [_state(spec, pts, r, 0.0) for pts in seeds]
    for got, own in zip(_blocks(joined), alone):
        for field, value in zip(own._fields, own):
            mine = getattr(got, field)
            if field in ("c", "s") and value is not None:  # each read on its own side
                side = own.upper if field == "s" else ~own.upper
                mine, value = mine[side], value[side]
            assert value is None or np.array_equal(mine, value), field
    ab = solver._newton_matrix(spec, joined, r)
    borders = np.cumsum(sizes)[:-1]
    assert np.all(ab[0, borders] == 0.0) and np.all(ab[2, borders - 1] == 0.0)
    own_abs = [solver._newton_matrix(spec, st, r) for st in alone]
    for line in range(3):
        np.testing.assert_array_equal(
            ab[line], np.concatenate([m[line] for m in own_abs]), strict=True
        )
    step = solver._tridiagonal_solve(ab, -joined.f)
    steps = [solver._tridiagonal_solve(m, -st.f) for m, st in zip(own_abs, alone)]
    assert np.array_equal(step, np.concatenate(steps))


def _refusing(real, size, error=None):
    """``real`` with the block of ``size`` points refused, or raising
    ``error`` whenever that block is in the batch."""

    def check(spec, st, r):
        if error is not None and size in st.sizes():
            raise error
        return real(spec, st, r) & (np.array(st.sizes()) != size)

    return check


def test_a_block_that_fails_its_check_fails_alone(monkeypatch):
    sizes = (2, 20, 50, 100)
    alone = {n: optimal_grid(GAUSS, n, 4.0, full_result=True) for n in sizes}
    monkeypatch.setattr(solver, "_sweep_keeps", _refusing(solver._sweep_keeps, 50))
    batch = solver._optimal_grids(GAUSS, sizes, 4.0, full_result=True)
    for n, got in zip(sizes, batch):
        if n == 50:
            assert isinstance(got, SolverError) and "no verified convergence for n=50" in str(got)
            continue
        assert np.array_equal(got.grid.points, alone[n].grid.points)
        assert got.newton_iters == alone[n].newton_iters


def test_a_quadrature_error_stays_with_its_own_block(monkeypatch):
    # a check that raises for one block: the batch is checked block by
    # block, and only that size meets the error, as its own solve would
    sizes = (5, 20, 50)
    alone = {n: optimal_grid(GAUSS, n, 1.5, full_result=True) for n in sizes}
    error = QuadratureError("budget exhausted", 1.0, 0.0)
    monkeypatch.setattr(solver, "_sweep_keeps", _refusing(solver._sweep_keeps, 20, error))
    batch = solver._optimal_grids(GAUSS, sizes, 1.5, full_result=True)
    assert batch[1] is error
    for n, got in zip(sizes, batch):
        if n != 20:
            assert np.array_equal(got.grid.points, alone[n].grid.points)
    with pytest.raises(QuadratureError):
        optimal_grid(GAUSS, 20, 1.5)


def test_a_batched_candidate_that_raises_is_computed_block_by_block(monkeypatch):
    # states whose integrals raise for one grid: that grid's seed is
    # refused, and every other grid runs as alone
    real = solver._states
    sizes = (5, 20, 50)
    alone = {n: optimal_grid(GAUSS, n, 3.0, full_result=True) for n in sizes}

    def states(spec, pts, starts, r, cuts=None):
        if 20 in solver._sizes(starts, pts.size):
            raise QuadratureError("overflow", math.inf, 0.0)
        return real(spec, pts, starts, r, cuts)

    monkeypatch.setattr(solver, "_states", states)
    batch = solver._optimal_grids(GAUSS, sizes, 3.0, full_result=True)
    assert isinstance(batch[1], SolverError) and "inadmissible seed for n=20" in str(batch[1])
    for n, got in zip(sizes, batch):
        if n != 20:
            assert np.array_equal(got.grid.points, alone[n].grid.points)
            assert got.newton_iters == alone[n].newton_iters


def test_a_singular_block_stops_alone(monkeypatch):
    # a block whose Newton matrix is singular spoils the batch's solve:
    # each block is then solved alone, and only that run stops
    sizes = (5, 20, 50)
    alone = {n: optimal_grid(GAUSS, n, 2.0, full_result=True) for n in sizes}
    real = solver._newton_matrix

    def singular_20(spec, st, r):
        ab = real(spec, st, r)
        if 20 in st.sizes():
            at = st.starts[st.sizes().index(20)]
            ab[:, at : at + 20] = 0.0
        return ab

    monkeypatch.setattr(solver, "_newton_matrix", singular_20)
    batch = solver._optimal_grids(GAUSS, sizes, 2.0, full_result=True)
    assert isinstance(batch[1], SolverError) and "no verified convergence for n=20" in str(batch[1])
    for n, got in zip(sizes, batch):
        if n != 20:
            assert np.array_equal(got.grid.points, alone[n].grid.points)
            assert got.newton_iters == alone[n].newton_iters


def test_a_refused_candidate_leaves_the_rest_of_its_batch():
    # a grid whose point leaves its cell is refused before any law
    # evaluation; the others' states are those of their own batches
    grids = [np.array([-1.0, 1.0]), np.array([0.5, 0.2]), np.array([-2.0, 0.0, 2.0])]
    got, ok = solver._states(GAUSS, *_batch(grids), 4.0, [0.0, 0.0, 0.0])
    assert ok == [True, False, True]
    for pts, st in zip(grids[::2], _blocks(got)):
        own = _state(GAUSS, pts, 4.0, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(st[1:], own[1:]) if b is not None)
    # a cut refuses the grid whose tail cells are too light
    light = [np.array([-1.0, 1.0]), np.array([8.0, 9.0])]
    assert solver._states(GAUSS, *_batch(light), 2.0, [0.0, 1e-12])[1] == [True, False]
