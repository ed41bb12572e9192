"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with the measured quantity."""

import math
import time

import numpy as np

from quantilab.analysis import (
    empirical_identity_check,
    gamma_counterexample,
    table_experiment,
)
from quantilab.dilatation import (
    RateQuery,
    admissible_theta_range,
    q_inf,
    q_sup_sub,
    theta_star,
)
from quantilab.distributions import (
    DistributionSpec,
    QuadratureOpts,
    c_fr,
    cell_gradient,
    cell_moment,
    zador_q,
)
from quantilab.quantizer import Grid, distortion
from quantilab.solver import exp_ak_sequence, exp_optimal_grid

from oracles import quadrature_sdpi

GAUSS = DistributionSpec.gaussian()
EXPO = DistributionSpec.exponential()
TIGHT = QuadratureOpts(abs_tol=1e-13, rel_tol=1e-12)

TABLE1_A12 = {20: 0.8250096, 50: 0.8211387, 100: 0.8193424}
TABLE1_A42 = {20: 1.2761027, 50: 1.2828110, 100: 1.2859567}
TABLE1_FULL_A12 = {**TABLE1_A12, 300: 0.8177506, 700: 0.8171428, 800: 0.8170775, 900: 0.8170251}
TABLE1_FULL_A42 = {**TABLE1_A42, 300: 1.2887640, 700: 1.2898393, 800: 1.2900041, 900: 1.2900417}

TABLE2_A12 = {20: 0.6765013, 50: 0.6726145, 100: 0.6706176}
TABLE2_B12 = {20: -0.0104881, 50: -0.0082123, 100: -0.0062439}
TABLE2_A42 = {20: 1.6396807, 50: 1.6502245, 100: 1.6556979}
TABLE2_FULL_A12 = {**TABLE2_A12, 300: 0.6686428, 700: 0.6677864, 800: 0.6676880, 900: 0.6676079}
TABLE2_FULL_B12 = {**TABLE2_B12, 300: -0.0036234, 700: -0.0022222, 800: -0.0020482, 900: -0.0019043}
TABLE2_FULL_A42 = {**TABLE2_A42, 300: 1.6611520, 700: 1.6635261, 800: 1.6638043, 900: 1.6640023}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"{criterion}: {detail}"


def _check_table(rows, a12_ref, a42_ref, b12_ref=None, b_bound=1e-3):
    s1, s4 = rows
    worst = {"a12": 0.0, "a42": 0.0, "b": 0.0}
    for row in s1:
        worst["a12"] = max(worst["a12"], abs(row.a_hat - a12_ref[row.n]))
        if b12_ref is not None:
            worst["b"] = max(worst["b"], abs(row.b_hat - b12_ref[row.n]))
        else:
            worst["b"] = max(worst["b"], abs(row.b_hat))
    for row in s4:
        worst["a42"] = max(worst["a42"], abs(row.a_hat - a42_ref[row.n]))
        if b12_ref is None:
            worst["b"] = max(worst["b"], abs(row.b_hat))
    ok = worst["a12"] <= 1e-3 and worst["a42"] <= 2e-3 and worst["b"] <= b_bound
    return ok, worst


def test_criterion_1_table1_gaussian(shared_cache):
    start = time.time()
    ns = tuple(TABLE1_A12)
    rows = (
        table_experiment(GAUSS, 2.0, 1.0, ns, cache=shared_cache),
        table_experiment(GAUSS, 2.0, 4.0, ns, cache=shared_cache),
    )
    elapsed = time.time() - start
    ok, worst = _check_table(rows, TABLE1_A12, TABLE1_A42)
    ok = ok and elapsed <= 120.0
    _report(
        "1 table1-gaussian",
        ok,
        f"max|da12|={worst['a12']:.2e} max|da42|={worst['a42']:.2e} "
        f"max|b|={worst['b']:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_1_full_table1(shared_cache):
    ns = tuple(TABLE1_FULL_A12)
    rows = (
        table_experiment(GAUSS, 2.0, 1.0, ns, cache=shared_cache),
        table_experiment(GAUSS, 2.0, 4.0, ns, cache=shared_cache),
    )
    ok, worst = _check_table(rows, TABLE1_FULL_A12, TABLE1_FULL_A42)
    _report(
        "1f full-table1-gaussian",
        ok,
        f"max|da12|={worst['a12']:.2e} max|da42|={worst['a42']:.2e} max|b|={worst['b']:.2e}",
    )


def test_criterion_2_table2_exponential(shared_cache):
    ns = tuple(TABLE2_A12)
    rows = (
        table_experiment(EXPO, 2.0, 1.0, ns, cache=shared_cache),
        table_experiment(EXPO, 2.0, 4.0, ns, cache=shared_cache),
    )
    s1, _ = rows
    ok, worst = _check_table(rows, TABLE2_A12, TABLE2_A42, b12_ref=TABLE2_B12)
    _report(
        "2 table2-exponential",
        ok,
        f"max|da12|={worst['a12']:.2e} max|da42|={worst['a42']:.2e} "
        f"max|db12|={worst['b']:.2e}",
    )


def test_criterion_2_full_table2(shared_cache):
    ns = tuple(TABLE2_FULL_A12)
    rows = (
        table_experiment(EXPO, 2.0, 1.0, ns, cache=shared_cache),
        table_experiment(EXPO, 2.0, 4.0, ns, cache=shared_cache),
    )
    ok, worst = _check_table(rows, TABLE2_FULL_A12, TABLE2_FULL_A42, b12_ref=TABLE2_FULL_B12)
    _report(
        "2f full-table2-exponential",
        ok,
        f"max|da12|={worst['a12']:.2e} max|da42|={worst['a42']:.2e} max|db12|={worst['b']:.2e}",
    )


def test_criterion_3_closed_form_vs_solver(grid_of):
    worst = 0.0
    for r in (1.0, 2.0, 4.0):
        for n in range(1, 31):
            closed = exp_optimal_grid(n, r)
            solved = grid_of(EXPO, n, r)
            worst = max(worst, float(np.max(np.abs(closed.points - solved.points))))
    _report("3 exponential-routes-agree", worst <= 1e-7, f"max pointwise gap {worst:.2e}")


def test_criterion_4_spacing_asymptotics():
    worst = 0.0
    for r in (1.0, 2.0, 4.0):
        seq = exp_ak_sequence(r, 200)
        worst = max(worst, abs(200.0 * seq.values[-1] / (r + 1.0) - 1.0))
    a1_gap = abs(exp_ak_sequence(2.0, 1).values[0] - 2.0)
    ok = worst <= 0.02 and a1_gap <= 1e-10
    _report("4 spacing-asymptotics", ok, f"max|k a_k/(r+1) - 1|={worst:.3f} |a_1-2|={a1_gap:.1e}")


def test_criterion_5_zador_limit_at_desk_scale(grid_of):
    gaps = {}
    for spec, name in ((GAUSS, "gaussian"), (EXPO, "exponential")):
        grid = grid_of(spec, 200, 2.0)
        scaled = 200**2 * distortion(grid, spec, 2.0)
        gaps[name] = abs(scaled - zador_q(spec, 2.0)) / zador_q(spec, 2.0)
    ok = all(g <= 0.05 for g in gaps.values())
    _report(
        "5 zador-limit-n200",
        ok,
        " ".join(f"{k}: rel gap {v:.4f}" for k, v in gaps.items()),
    )


def test_criterion_6_lower_bound_reaches_zador():
    worst = 0.0
    for spec in (GAUSS, EXPO):
        for s in (1.0, 4.0):
            th = theta_star(spec, 2.0, s)
            val = q_inf(RateQuery(spec, 2.0, s, th))
            worst = max(worst, abs(val - zador_q(spec, s)) / zador_q(spec, s))
    _report("6 q-inf-equals-zador-at-theta-star", worst <= 1e-6, f"max rel gap {worst:.2e}")


def test_criterion_7_holder_identity():
    r, s = 2.0, 1.0
    th = theta_star(GAUSS, r, s)
    lhs = quadrature_sdpi(GAUSS, th, 0.0, 1.0, -s / (1.0 + r), TIGHT)
    holder = quadrature_sdpi(GAUSS, th, 0.0, r / (r - s), -s / (r - s), TIGHT)
    rhs = holder ** ((r - s) / r) * c_fr(GAUSS, r) ** (s / r)
    gap = abs(lhs - rhs) / abs(rhs)
    _report("7 holder-identity-theta-star", gap <= 1e-8, f"rel gap {gap:.2e}")


def test_criterion_8_counterexample():
    res = gamma_counterexample()
    formula = (185.0 / 128.0) * math.exp(-0.375) - (79.0 / 48.0) * math.exp(-0.5)
    ok = abs(res.lhs - (-511.0 / 512.0)) >= 0.9 and abs(res.lhs - formula) <= 1e-12
    _report(
        "8 gamma-counterexample",
        ok and not res.holds,
        f"lhs={res.lhs:.9f} |lhs-rhs|={abs(res.lhs - res.rhs):.4f}",
    )


def test_criterion_9_property_suites():
    failures = []

    # closed-form constants vs quadrature (1e-8 relative)
    for spec in (GAUSS, EXPO, DistributionSpec.gamma(7.0)):
        for r in (1.0, 2.0, 4.0):
            quad = quadrature_sdpi(spec, 1.0, 0.0, 0.0, 1.0 / (1.0 + r), TIGHT)
            if abs(quad - c_fr(spec, r)) / c_fr(spec, r) > 1e-8:
                failures.append(f"c_fr {spec.family.value} r={r}")

    # moment derivative vs central finite difference (1e-5 relative)
    for r in (1.5, 2.0, 4.0):
        h = 1e-5
        grad = cell_gradient(GAUSS, 0.9, -0.4, 2.2, r, TIGHT)
        fd = (
            cell_moment(GAUSS, 0.9 + h, -0.4, 2.2, r, TIGHT)
            - cell_moment(GAUSS, 0.9 - h, -0.4, 2.2, r, TIGHT)
        ) / (2.0 * h)
        if abs(grad - fd) / abs(fd) > 1e-5:
            failures.append(f"gradient-fd r={r}")

    # affine equivariance of the distortion (1e-9 relative)
    base = Grid(np.array([-1.3, -0.1, 0.8, 1.9]))
    moved = Grid(0.7 + 1.5 * base.points)
    lhs = distortion(moved, DistributionSpec.gaussian(0.7, 2.25), 2.0, TIGHT)
    rhs = 1.5**2 * distortion(base, GAUSS, 2.0, TIGHT)
    if abs(lhs - rhs) / rhs > 1e-9:
        failures.append("affine-equivariance")

    # theta_star admissibility and local optimality
    for spec in (GAUSS, EXPO, DistributionSpec.gamma(1.2)):
        for r in (0.5, 1.0, 2.0, 4.0):
            for s in (0.5, 1.0, 2.0, 4.0):
                if s == r:
                    continue
                th = theta_star(spec, r, s)
                lo, hi = admissible_theta_range(spec, r, s)
                if not lo < th < hi:
                    failures.append(f"admissibility {spec.family.value} r={r} s={s}")
    for spec in (GAUSS, EXPO):
        th = theta_star(spec, 2.0, 1.0)
        h = lambda t: q_sup_sub(RateQuery(spec, 2.0, 1.0, t))
        if not (h(th) < h(1.05 * th) and h(th) < h(0.95 * th)):
            failures.append(f"minimiser {spec.family.value}")

    # limiting-measure identity gaps
    if empirical_identity_check(GAUSS, 2.0, 1.0, (-1.0, 1.0)).abs_gap > 1e-8:
        failures.append("identity gauss")
    if empirical_identity_check(EXPO, 2.0, 4.0, (0.0, 2.0)).abs_gap > 1e-8:
        failures.append("identity exp")
    gamma_gap = empirical_identity_check(
        DistributionSpec.gamma(7.0), 2.0, 1.0, (0.0, 1.0)
    ).abs_gap
    if gamma_gap < 0.1:
        failures.append("identity gamma")

    _report(
        "9 property-suites",
        not failures,
        "all sub-checks green" if not failures else "; ".join(failures),
    )
