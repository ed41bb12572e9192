import contextlib
import math

import numpy as np
import pytest

from quantilab import analysis, solver
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantilab.analysis import (
    CI_TABLE_SIZES,
    GAMMA_COUNTEREXAMPLE_RHS,
    RegressionRow,
    empirical_discrepancy,
    empirical_identity_check,
    gamma_counterexample,
    ols_fit,
    rows_from_csv,
    rows_to_csv,
    table_experiment,
)
from quantilab.dilatation import theta_star
from quantilab.distributions import (
    DistributionSpec,
    empirical_measure_law,
    quantile,
    sf,
)
from quantilab.quantizer import DilationParams, Grid, dilate
from quantilab.solver import GridCache, exp_ak_sequence, exp_optimal_grid, optimal_grid, solve

GAUSS = DistributionSpec.gaussian()
EXPO = DistributionSpec.exponential()


# -- least squares -------------------------------------------------------------

def test_ols_identity_and_exact_affine():
    xs = np.array([0.0, 1.0, 2.0, 5.0])
    assert ols_fit(xs, xs) == (1.0, 0.0, 0.0, 0.0)
    fit = ols_fit(xs, 2.0 * xs + 3.0)
    assert fit.a_hat == pytest.approx(2.0) and fit.b_hat == pytest.approx(3.0)
    assert fit.eps_rmse == 0.0 and fit.eps_maxabs == 0.0


def test_ols_hand_computed_normal_equations():
    fit = ols_fit([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    assert fit.a_hat == pytest.approx(1.5)
    assert fit.b_hat == pytest.approx(-1.0 / 6.0)


def test_ols_affine_equivariance():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=12)
    ys = rng.normal(size=12)
    base = ols_fit(xs, ys)
    moved = ols_fit(xs, 2.5 * ys + 0.75)
    assert moved.a_hat == pytest.approx(2.5 * base.a_hat, rel=1e-12)
    assert moved.b_hat == pytest.approx(2.5 * base.b_hat + 0.75, rel=1e-12)


def test_ols_rejects_degenerate_input():
    with pytest.raises(ValueError):
        ols_fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        ols_fit([1.0], [2.0])
    with pytest.raises(ValueError):
        ols_fit([1.0, 2.0], [1.0, 2.0, 3.0])


# -- regression tables -----------------------------------------------------------

def test_exponential_table_rows_match_reference():
    rows = table_experiment(EXPO, 2.0, 1.0, ns=(20, 50))
    by_n = {row.n: row for row in rows}
    assert by_n[20].a_hat == pytest.approx(0.6765013, abs=1e-6)
    assert by_n[20].b_hat == pytest.approx(-0.0104881, abs=1e-6)
    assert by_n[50].a_hat == pytest.approx(0.6726145, abs=1e-6)
    assert all(row.status == "ok" for row in rows)


def test_exponential_table_builds_each_spacing_sequence_once(monkeypatch):
    calls = []

    def recording(r, n):
        calls.append((r, n))
        return exp_ak_sequence(r, n)

    monkeypatch.setattr(analysis, "exp_ak_sequence", recording)
    ns = (20, 50, 7)
    rows = table_experiment(EXPO, 2.0, 1.0, ns)
    assert calls == [(2.0, 50), (1.0, 50)]
    # each size's grids are solve's, bit for bit
    for row in rows:
        fit = ols_fit(solve(EXPO, row.n, 2.0).points, solve(EXPO, row.n, 1.0).points)
        assert (row.a_hat, row.b_hat, row.eps_rmse, row.eps_maxabs) == tuple(fit)


def test_table_slopes_converge_to_theta_star():
    rows = table_experiment(EXPO, 2.0, 1.0, ns=CI_TABLE_SIZES)
    gaps = [abs(row.a_hat - 2.0 / 3.0) for row in rows]
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= 1.10 * earlier


def _recording_newton(monkeypatch):
    """Record the grid sizes of every Newton batch."""
    real, batches = solver._newton, []

    def recording(spec, st, r, opts):
        batches.append((r, st.sizes()))
        return real(spec, st, r, opts)

    monkeypatch.setattr(solver, "_newton", recording)
    return batches


def test_a_table_loads_the_cache_first_and_solves_the_misses_in_one_batch(tmp_path, monkeypatch):
    ns = (20, 50, 100, 300)
    cold = table_experiment(GAUSS, 2.0, 1.0, ns)
    warm = GridCache(tmp_path / "warm")
    for n in (20, 100):
        for e in (2.0, 1.0):
            optimal_grid(GAUSS, n, e, cache=warm)
    batches = _recording_newton(monkeypatch)
    assert table_experiment(GAUSS, 2.0, 1.0, ns, cache=warm) == cold
    assert batches == [(2.0, [50, 300]), (1.0, [50, 300])]
    # the files written are those optimal_grid writes, byte for byte
    alone = GridCache(tmp_path / "alone")
    for n in ns:
        for e in (2.0, 1.0):
            optimal_grid(GAUSS, n, e, cache=alone)
    files = {p.name: p.read_bytes() for p in warm.root.iterdir()}
    assert files == {p.name: p.read_bytes() for p in alone.root.iterdir()}
    assert len(files) == 8


def test_a_size_that_fails_leaves_the_other_rows_as_they_are(monkeypatch):
    ns = (20, 50, 100)
    cold = {row.n: row for row in table_experiment(GAUSS, 2.0, 4.0, ns)}
    real = solver._sweep_keeps

    def refuse_50(spec, st, r):
        return real(spec, st, r) & (np.array(st.sizes()) != 50)

    monkeypatch.setattr(solver, "_sweep_keeps", refuse_50)
    rows = {row.n: row for row in table_experiment(GAUSS, 2.0, 4.0, ns)}
    assert rows[50].status.startswith("error: no verified convergence for n=50")
    assert math.isnan(rows[50].a_hat)
    assert rows[20] == cold[20] and rows[100] == cold[100]


def test_regressing_a_grid_on_itself_is_trivial():
    pts = exp_optimal_grid(15, 2.0).points
    assert ols_fit(pts, pts) == (1.0, 0.0, 0.0, 0.0)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60, unique=True))
def test_regressing_any_sample_on_itself_is_exact(xs):
    assume(max(xs) - min(xs) > 1e-3)  # sxx must not underflow
    assert ols_fit(xs, xs) == (1.0, 0.0, 0.0, 0.0)


def test_csv_format_and_round_trip():
    rows = table_experiment(EXPO, 2.0, 4.0, ns=(20, 50))
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "n,a_hat,b_hat,eps_rmse,eps_maxabs"
    assert text.endswith("\n") and "\r" not in text
    parsed = rows_from_csv(text)
    for row, back in zip(rows, parsed):
        assert back.n == row.n
        assert back.a_hat == pytest.approx(row.a_hat, rel=1e-8)
    with pytest.raises(ValueError):
        rows_from_csv("bogus\n1,2,3,4,5\n")


# -- empirical measure checks ------------------------------------------------------

def test_quantile_grid_has_vanishing_discrepancy():
    law = empirical_measure_law(GAUSS, 1.0)
    n = 1000
    levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    grid = Grid(np.asarray(quantile(law, levels)))
    report = empirical_discrepancy(grid, GAUSS, 1.0, 10)
    assert report.max_discrepancy <= 1.0 / n
    assert report.n == n
    assert len(report.partition) == 10


def test_clustered_grid_discrepancy_is_missing_mass():
    grid = Grid(np.linspace(0.01, 0.02, 8))  # all inside one decile bin
    report = empirical_discrepancy(grid, GAUSS, 1.0, 10)
    assert report.max_discrepancy == pytest.approx(1.0 - 0.1)


def test_dilated_optimal_gaussian_grid_follows_limit_law(grid_of):
    grid = grid_of(GAUSS, 500, 2.0)
    th = theta_star(GAUSS, 2.0, 1.0)
    report = empirical_discrepancy(dilate(grid, DilationParams(th, 0.0)), GAUSS, 1.0, 10)
    assert report.max_discrepancy <= 0.02


def test_empirical_discrepancy_needs_two_bins():
    with pytest.raises(ValueError):
        empirical_discrepancy(Grid(np.array([0.0])), GAUSS, 1.0, 1)


# -- identity checks and counterexample ---------------------------------------------

def test_gamma_counterexample_numbers():
    res = gamma_counterexample()
    ref = (185.0 / 128.0) * math.exp(-0.375) - (79.0 / 48.0) * math.exp(-0.5)
    assert res.lhs == pytest.approx(ref, abs=1e-15)
    assert res.rhs == -511.0 / 512.0
    assert not res.holds
    assert abs(res.lhs - res.rhs) >= 0.9


@pytest.mark.parametrize(
    "spec,r,s,interval",
    [
        (GAUSS, 2.0, 1.0, (-1.0, 1.0)),
        (EXPO, 2.0, 4.0, (0.0, 2.0)),
        (DistributionSpec.gamma(1.0), 2.0, 1.0, (0.0, 1.5)),
    ],
    ids=["gauss", "exp", "gamma-shape-1"],
)
def test_identity_holds_for_gaussian_and_exponential(spec, r, s, interval):
    res = empirical_identity_check(spec, r, s, interval)
    assert res.abs_gap <= 1e-8


@pytest.mark.parametrize("spec", [GAUSS, EXPO], ids=["gauss", "exp"])
@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
def test_identity_via_quantile_windows(spec, r, s):
    interval = (float(quantile(spec, 0.1)), float(quantile(spec, 0.9)))
    # the Gaussian s = r + d lies outside theta_star's proven window
    window = pytest.warns(UserWarning, match="outside the proven equivalence window")
    with window if spec is GAUSS and s == r + 1.0 else contextlib.nullcontext():
        res = empirical_identity_check(spec, r, s, interval)
    assert res.abs_gap <= 1e-8


def test_gamma_identity_failure_reports_counterexample_numbers():
    res = empirical_identity_check(DistributionSpec.gamma(7.0), 2.0, 1.0, (0.0, 1.0))
    ce = gamma_counterexample()
    assert res.lhs == pytest.approx(ce.lhs, abs=1e-9)
    assert res.rhs == GAMMA_COUNTEREXAMPLE_RHS
    assert res.abs_gap >= 0.1
    assert res.abs_gap == pytest.approx(0.9931, abs=2e-3)


def test_counterexample_lhs_is_the_limit_laws_tail_difference():
    # at (r, s) = (2, 1) the limit laws of Gamma(7) are Gamma(3, 1/3) and
    # Gamma(4, 1/2); the closed-form lhs is the first's tail beyond
    # 1 / theta_star minus the second's tail beyond 1
    g7 = DistributionSpec.gamma(7.0)
    law_r, law_s = empirical_measure_law(g7, 2.0), empirical_measure_law(g7, 1.0)
    assert law_r == DistributionSpec.gamma(3.0, 1.0 / 3.0)
    assert law_s == DistributionSpec.gamma(4.0, 0.5)
    tails = sf(law_r, 1.0 / theta_star(g7, 2.0, 1.0)) - sf(law_s, 1.0)
    res = empirical_identity_check(g7, 2.0, 1.0, (0.0, 1.0))
    assert all(type(v) is float for v in (res.lhs, res.rhs, res.abs_gap))
    assert abs(res.lhs - gamma_counterexample().lhs) <= 1e-15
    assert abs(tails - gamma_counterexample().lhs) <= 1e-15


def test_table_rows_keep_status_field():
    row = RegressionRow(10, 1.0, 0.0, 0.0, 0.0)
    assert row.status == "ok"
