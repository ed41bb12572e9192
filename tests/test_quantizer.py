import json
import math

import numpy as np
import pytest

from quantilab.distributions import DistributionSpec, QuadratureOpts
from quantilab.quantizer import (
    DilationParams,
    Grid,
    count_in_interval,
    dilate,
    distortion,
    nearest,
    voronoi_bounds,
)

GAUSS = DistributionSpec.gaussian()
EXPO = DistributionSpec.exponential()
TIGHT = QuadratureOpts(abs_tol=1e-13, rel_tol=1e-12, tail_mass_cut=1e-16)


# -- Grid construction -------------------------------------------------------

def test_grid_canonicalises_input():
    g = Grid(np.array([3.0, -1.0, 3.0 + 5e-13, 0.5]))
    np.testing.assert_array_equal(g.points, [-1.0, 0.5, 3.0])
    assert g.n == 3


def test_grid_merge_tolerance_is_relative_to_the_largest_point():
    assert Grid(np.array([1e-13, 2e-13])).n == 2
    assert Grid(np.array([0.0, 1e-300])).n == 2
    assert Grid(np.array([0.0, 0.0])).n == 1
    np.testing.assert_array_equal(Grid(np.array([1e6, 1e6 + 1e-7, 2e6])).points, [1e6, 2e6])


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        Grid(np.array([]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, math.inf]))


def test_grid_is_immutable():
    g = Grid(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        g.points[0] = 7.0


# -- Voronoi geometry --------------------------------------------------------

def test_voronoi_bounds_examples():
    np.testing.assert_array_equal(
        voronoi_bounds(Grid(np.array([0.0]))), [-math.inf, math.inf]
    )
    np.testing.assert_array_equal(
        voronoi_bounds(Grid(np.array([0.0, 2.0]))), [-math.inf, 1.0, math.inf]
    )
    np.testing.assert_array_equal(
        voronoi_bounds(Grid(np.array([-1.0, 0.0, 4.0]))),
        [-math.inf, -0.5, 2.0, math.inf],
    )


def test_nearest_examples_and_tie_rule():
    g = Grid(np.array([0.0, 2.0]))
    assert nearest(g, 0.9) == 0
    assert nearest(g, 1.0) == 0  # exact midpoint goes to the lower index
    assert nearest(g, 1.0 + 1e-12) == 1
    assert nearest(Grid(np.array([-1.0, 0.0, 4.0])), 3.0) == 2


def test_count_in_interval_examples():
    g = Grid(np.array([1.0, 2.0, 3.0]))
    assert count_in_interval(g, 1.0, 2.0) == 2
    assert count_in_interval(g, 4.0, 5.0) == 0
    assert count_in_interval(g, 2.0, 2.0) == 1


# -- dilatation map ----------------------------------------------------------

def test_dilate_examples():
    assert dilate(Grid(np.array([0.0])), DilationParams(2.0, 1.0)).points[0] == -1.0
    g = Grid(np.array([-0.3, 1.7, 2.0]))
    assert dilate(g, DilationParams(1.0, 5.0)) == g
    np.testing.assert_allclose(
        dilate(Grid(np.array([1.0, 3.0])), DilationParams(0.5, 0.0)).points,
        [0.5, 1.5],
    )


def test_dilation_params_validation():
    with pytest.raises(ValueError):
        DilationParams(0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^theta must be finite"):
            DilationParams(bad)
        with pytest.raises(ValueError, match="^mu must be finite"):
            DilationParams(1.5, bad)
        with pytest.raises(ValueError, match="^r must be finite"):
            distortion(Grid([0.0, 1.0]), GAUSS, bad)


# -- distortion --------------------------------------------------------------

def test_distortion_one_point_grids():
    assert distortion(Grid(np.array([0.0])), GAUSS, 2.0, TIGHT) == pytest.approx(
        1.0, abs=1e-11
    )
    assert distortion(Grid(np.array([1.0])), EXPO, 2.0, TIGHT) == pytest.approx(
        1.0, abs=1e-11
    )


def test_distortion_symmetric_two_point_grid():
    c = math.sqrt(2.0 / math.pi)
    val = distortion(Grid(np.array([-c, c])), GAUSS, 2.0, TIGHT)
    assert val == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-11)


def test_distortion_invariant_under_unit_dilation():
    g = Grid(np.array([-1.0, 0.2, 1.4]))
    assert distortion(dilate(g, DilationParams(1.0, 3.0)), GAUSS, 2.0, TIGHT) == (
        distortion(g, GAUSS, 2.0, TIGHT)
    )


@pytest.mark.parametrize("m,sigma2,r", [(1.5, 4.0, 2.0), (-0.7, 0.25, 1.0), (0.3, 2.0, 4.0)])
def test_distortion_gaussian_affine_equivariance(m, sigma2, r):
    base = Grid(np.array([-1.1, -0.2, 0.4, 1.7]))
    sigma = math.sqrt(sigma2)
    moved = Grid(m + sigma * base.points)
    lhs = distortion(moved, DistributionSpec.gaussian(m, sigma2), r, TIGHT)
    rhs = sigma**r * distortion(base, GAUSS, r, TIGHT)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_distortion_insensitive_to_input_order():
    pts = np.array([0.9, -0.4, 1.8, 0.1])
    a = distortion(Grid(pts), GAUSS, 2.0, TIGHT)
    b = distortion(Grid(pts[::-1].copy()), GAUSS, 2.0, TIGHT)
    assert a == b


def test_adding_a_point_never_hurts():
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        pts = np.sort(rng.normal(size=4))
        extra = float(rng.normal())
        before = distortion(Grid(pts), GAUSS, 2.0, TIGHT)
        after = distortion(Grid(np.append(pts, extra)), GAUSS, 2.0, TIGHT)
        assert after <= before + 1e-9


def test_point_beyond_double_precision_tail_adds_an_empty_cell():
    # the cell [40, inf) of Grid([0, 80]) has Gaussian mass below 1e-308,
    # so its relative tail cut has no mass to scale
    far = distortion(Grid(np.array([0.0, 80.0])), GAUSS, 2.0, TIGHT)
    assert far == pytest.approx(distortion(Grid(np.array([0.0])), GAUSS, 2.0, TIGHT), abs=1e-12)


# -- serialisation -----------------------------------------------------------

def test_text_round_trip_is_exact_and_deterministic():
    g = Grid(np.array([-1.0 / 3.0, 0.1, 2.0**0.5, 1.0]))
    text = g.to_text()
    assert text.endswith("\n")
    assert Grid.from_text(text) == g
    assert Grid.from_text(text).to_text() == text


def test_json_round_trip():
    g = Grid(np.array([0.1, 0.2, 0.30000000000000004]))
    payload = g.to_json()
    assert json.loads(payload) == list(g.points)
    assert Grid.from_json(payload) == g
