"""The four benchmark workloads: seeded inputs, timed operations, checks.

Every library call goes through a module attribute (``ql.optimal_grid``,
``cli.main``) so that the layer tracer's wrappers see it.  An operation's
``check`` returns ``(label, gap, tolerance)`` triples; the operation
missed its reference when any gap exceeds its tolerance or is NaN.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import quantilab as ql
from quantilab import analysis, cli
from references import reference_grid

NAMES = ("tables", "solve-large-n", "solve-fractional", "evaluate")

# Paper regression tables at the CI sizes (acceptance criteria 1 and 2).
TABLE1_A12 = {20: 0.8250096, 50: 0.8211387, 100: 0.8193424, 300: 0.8177506}
TABLE1_A42 = {20: 1.2761027, 50: 1.2828110, 100: 1.2859567, 300: 1.2887640}
TABLE2_A12 = {20: 0.6765013, 50: 0.6726145, 100: 0.6706176, 300: 0.6686428}
TABLE2_B12 = {20: -0.0104881, 50: -0.0082123, 100: -0.0062439, 300: -0.0036234}
TABLE2_A42 = {20: 1.6396807, 50: 1.6502245, 100: 1.6556979, 300: 1.6611520}
SLOPE_TOL = {"1": 1e-3, "4": 2e-3}
INTERCEPT_TOL = 1e-3

ZADOR_TOL = 0.05  # criterion 5: n**r * distortion within 5% of zador_q
EXACT_GRID_TOL = 1e-7  # criterion 3: solver route vs closed form
FRACTIONAL_GRID_TOL = 1e-6  # r < 1 route at position_tol=1e-8
Q_INF_TOL = 1e-6  # criterion 6: q_inf at theta_star equals zador_q(s)

Check = list[tuple[str, float, float]]


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Check]
    fingerprint: Callable[[object], str]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    begin_pass: Callable[[], None] = field(default=lambda: None)


def build(name: str, seed: int, scratch: Path, tiny: bool = False) -> Workload:
    """Inputs depend on ``seed`` only; ``tiny`` shrinks every size for self-tests."""
    rng = random.Random(f"{name}:{seed}")
    makers = {
        "tables": _tables,
        "solve-large-n": _solve_large_n,
        "solve-fractional": _solve_fractional,
        "evaluate": _evaluate,
    }
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    ops, begin_pass = makers[name](rng, scratch, tiny)
    rng.shuffle(ops)
    return Workload(name, ops, begin_pass)


def warmup() -> None:
    """One small call down each path, so lazy imports happen in set-up."""
    gauss = ql.DistributionSpec.gaussian()
    grid = ql.optimal_grid(gauss, 3, 4.0)
    ql.distortion(grid, gauss, 1.5)
    ql.empirical_discrepancy(grid, gauss, 1.0, 2)
    ql.rate_constants(ql.RateQuery(gauss, 2.0, 1.0, 0.9))
    ql.exp_optimal_grid(3, 2.0)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["theta-star", "--r", "2", "--s", "1"])


def _digest(points) -> str:
    return hashlib.sha256(np.ascontiguousarray(points, dtype=float).tobytes()).hexdigest()


def _jitter(rng: random.Random, n: int) -> int:
    return max(1, round(n * (1.0 + rng.uniform(-0.03, 0.03))))


# ---------------------------------------------------------------- tables


@contextlib.contextmanager
def _table_sizes(sizes):
    """The CLI has no size flag; tiny self-test runs shrink its CI sizes."""
    saved = analysis.CI_TABLE_SIZES
    if sizes != saved:
        analysis.CI_TABLE_SIZES = sizes
    try:
        yield
    finally:
        analysis.CI_TABLE_SIZES = saved


def _tables(rng, scratch: Path, tiny: bool):
    sizes = (20,) if tiny else analysis.CI_TABLE_SIZES
    state = {"dir": None, "k": 0}

    def begin_pass() -> None:
        if state["dir"] is not None:
            shutil.rmtree(state["dir"], ignore_errors=True)
        state["k"] += 1
        state["dir"] = scratch / f"grids-{state['k']}"

    def make(table: str, s: str) -> Op:
        def run():
            out = io.StringIO()
            argv = [table, "--s", s, "--cache-dir", str(state["dir"]), "--format", "json"]
            with _table_sizes(sizes), contextlib.redirect_stdout(out):
                code = cli.main(argv)
            cached = sorted((p.name, p.read_text()) for p in state["dir"].iterdir())
            return code, out.getvalue(), cached

        def check(res) -> Check:
            code, text, _ = res
            if code != 0:
                return [("exit code", math.inf, 0.0)]
            rows = json.loads(text)
            found = sorted(row["n"] for row in rows)
            out: Check = [("sizes", 0.0 if found == sorted(sizes) else math.inf, 0.0)]
            a_ref = {("table1", "1"): TABLE1_A12, ("table1", "4"): TABLE1_A42,
                     ("table2", "1"): TABLE2_A12, ("table2", "4"): TABLE2_A42}[table, s]
            for row in rows:
                n = row["n"]
                if row["status"] != "ok":
                    out.append((f"n={n} status", math.inf, 0.0))
                    continue
                out.append((f"n={n} a_hat", abs(row["a_hat"] - a_ref[n]), SLOPE_TOL[s]))
                if table == "table1":
                    out.append((f"n={n} b_hat", abs(row["b_hat"]), INTERCEPT_TOL))
                elif s == "1":
                    out.append((f"n={n} b_hat", abs(row["b_hat"] - TABLE2_B12[n]), INTERCEPT_TOL))
            return out

        def fingerprint(res) -> str:
            return json.dumps(res)

        return Op(f"{table} --s {s}", run, check, fingerprint)

    ops = [make(t, s) for t in ("table1", "table2") for s in ("1", "4")]
    return ops, begin_pass


# ---------------------------------------------------------------- solves


def _grid_gap(grid, ref_points) -> float:
    ref = np.asarray(ref_points, dtype=float)
    if grid.n != ref.size:
        return math.inf
    return float(np.max(np.abs(grid.points - ref)))


def _solve_op(label, spec, n, r, opts, reference) -> Op:
    """``reference(grid)`` returns the check triples for the solved grid."""

    def run():
        return ql.optimal_grid(spec, n, r, opts, full_result=True)

    return Op(label, run, lambda res: reference(res.grid),
              lambda res: _digest(res.grid.points))


def _exact_exponential(spec, n, r, tol):
    def reference(grid) -> Check:
        exact = ql.exp_optimal_grid(n, r, spec.lam)
        return [("max |grid - exp_optimal_grid|", _grid_gap(grid, exact.points), tol)]

    return reference


def _zador(spec, n, r):
    def reference(grid) -> Check:
        scaled = n**r * ql.distortion(grid, spec, r)
        return [("n^r distortion / zador_q - 1", abs(scaled / ql.zador_q(spec, r) - 1.0), ZADOR_TOL)]

    return reference


def _solve_large_n(rng, scratch, tiny):
    base = 60 if tiny else 900
    families = (
        ("gaussian", ql.DistributionSpec.gaussian()),
        ("exponential", ql.DistributionSpec.exponential()),
        ("gamma2", ql.DistributionSpec.gamma(2.0)),
        ("gamma0.5", ql.DistributionSpec.gamma(0.5)),
    )
    ops = []
    for fam, spec in families:
        for r in (1.0, 2.0):
            n = _jitter(rng, base)
            if fam == "exponential":
                ref = _exact_exponential(spec, n, r, EXACT_GRID_TOL)
            else:
                ref = _zador(spec, n, r)
            ops.append(_solve_op(f"{fam} n={n} r={r:g}", spec, n, r, None, ref))
    return ops, lambda: None


def _stored(family, shape, n, r, loc, scale):
    def reference(grid) -> Check:
        ref = reference_grid(family, shape, n, r, loc, scale)
        return [("max |grid - stored reference|", _grid_gap(grid, ref), EXACT_GRID_TOL)]

    return reference


def _solve_fractional(rng, scratch, tiny):
    n_small = 2 if tiny else 5
    lam = [rng.uniform(0.9, 1.1) for _ in range(3)]
    m, s2 = rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.25)
    expo = [ql.DistributionSpec.exponential(x) for x in lam[:2]]
    gamma3 = ql.DistributionSpec.gamma(3.0, lam[2])
    gauss = ql.DistributionSpec.gaussian(m, s2)
    n_half = 1 if tiny else 3
    ops = [
        # Lloyd-only minimize_scalar route
        _solve_op(
            f"exponential n={n_half} r=0.5", expo[0], n_half, 0.5,
            ql.SolverOpts(position_tol=1e-8),
            _exact_exponential(expo[0], n_half, 0.5, FRACTIONAL_GRID_TOL),
        ),
        # brentq on a cell gradient with a |x-a|**0.5 weight
        _solve_op(
            f"gaussian n={n_small} r=1.5", gauss, n_small, 1.5, None,
            _stored("gaussian", 0.0, n_small, 1.5, m, math.sqrt(s2)),
        ),
        _solve_op(
            f"exponential n={n_small} r=1.5", expo[1], n_small, 1.5, None,
            _exact_exponential(expo[1], n_small, 1.5, EXACT_GRID_TOL),
        ),
        _solve_op(
            f"gamma3 n={n_small} r=3", gamma3, n_small, 3.0, None,
            _stored("gamma", 3.0, n_small, 3.0, 0.0, 1.0 / lam[2]),
        ),
    ]
    return ops, lambda: None


# ---------------------------------------------------------------- evaluate


def _limit_quantile_grid(spec, n: int, r: float):
    law = ql.empirical_measure_law(spec, r)
    levels = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    return ql.Grid(np.asarray(ql.quantile(law, levels), dtype=float))


def _evaluate(rng, scratch, tiny):
    gauss = ql.DistributionSpec.gaussian()
    expo = ql.DistributionSpec.exponential()
    gamma7 = ql.DistributionSpec.gamma(7.0)
    plan = (
        ("gaussian", gauss, ((2.0, 1.0), (2.0, 4.0), (4.0, 2.0))),
        ("exponential", expo, ((2.0, 1.0), (2.0, 4.0), (4.0, 2.0))),
        # s > r + 1 is inadmissible for Gamma shapes >= (s+r+1)/s, and at s = r + 1
        # n**s * distortion approaches q_inf too slowly (10% off at n = 200)
        ("gamma7", gamma7, ((2.0, 1.0), (4.0, 2.0), (2.0, 2.5))),
    )
    if tiny:
        plan = (plan[0][:2] + (plan[0][2][:1],),)
    ops = []
    for fam, spec, pairs in plan:
        sizes = [200] if tiny else rng.sample([200, 550, 900], 3)
        for (r, s), nominal in zip(pairs, sizes):
            n = _jitter(rng, nominal)
            if fam == "exponential":
                grid = ql.exp_optimal_grid(n, r)
            else:
                grid = _limit_quantile_grid(spec, n, r)
            factor = rng.uniform(0.97, 1.03)
            ops.append(_dilate_op(fam, spec, grid, r, s, factor))
            ops.append(_sweep_op(fam, spec, r, s, factor))
    return ops, lambda: None


def _q_inf_at_star(fam, spec, r, s, theta, q_inf) -> Check:
    star = ql.theta_star(spec, r, s)
    if fam == "gamma7" or theta != star:
        return []  # q_inf(theta_star) = zador_q(s) fails for Gamma(7): the counterexample
    return [("q_inf(theta*) / zador_q(s) - 1", abs(q_inf / ql.zador_q(spec, s) - 1.0), Q_INF_TOL)]


def _dilate_op(fam, spec, grid, r, s, factor) -> Op:
    star = ql.theta_star(spec, r, s)
    thetas = (star, star * factor)
    mu = ql.dilatation.default_mu(spec)

    def run():
        out = []
        for theta in thetas:
            dilated = ql.dilate(grid, ql.DilationParams(theta, mu))
            dist = ql.distortion(dilated, spec, s)
            disc = ql.empirical_discrepancy(dilated, spec, s, 10).max_discrepancy
            out.append((theta, dist, disc))
        return out

    def check(res) -> Check:
        out: Check = []
        for theta, dist, _ in res:
            qi = ql.q_inf(ql.RateQuery(spec, r, s, theta))
            out.append((f"theta={theta:.6g} n^s distortion / q_inf - 1",
                        abs(grid.n**s * dist / qi - 1.0), ZADOR_TOL))
            out += _q_inf_at_star(fam, spec, r, s, theta, qi)
        return out

    return Op(f"dilate+distortion {fam} n={grid.n} r={r:g} s={s:g}", run, check,
              lambda res: repr(res))


def _sweep_op(fam, spec, r, s, factor) -> Op:
    star = ql.theta_star(spec, r, s)
    lo, _ = ql.admissible_theta_range(spec, r, s)
    thetas = [star, star * factor] + [
        float(t) for t in star * np.linspace(0.8, 1.25, 24) if t > 1.01 * lo
    ]

    def run():
        return [ql.rate_constants(ql.RateQuery(spec, r, s, t)) for t in thetas]

    def check(res) -> Check:
        zq = ql.zador_q(spec, s)
        out: Check = []
        worst_lower = worst_upper = 0.0
        for theta, rc in zip(thetas, res):
            if not (math.isfinite(rc.q_inf) and rc.theta_admissible):
                return [(f"theta={theta:.6g} finite and admissible", math.inf, 0.0)]
            # no grid sequence beats the optimal one: q_inf >= zador_q(s)
            worst_lower = max(worst_lower, 1.0 - rc.q_inf / zq)
            if rc.q_sup_sub is not None:
                worst_upper = max(worst_upper, 1.0 - rc.q_sup_sub / rc.q_inf)
            out += _q_inf_at_star(fam, spec, r, s, theta, rc.q_inf)
        out.append(("1 - q_inf / zador_q(s)", worst_lower, Q_INF_TOL))
        out.append(("1 - q_sup_sub / q_inf", worst_upper, Q_INF_TOL))
        return out

    return Op(f"rate sweep {fam} r={r:g} s={s:g} ({len(thetas)} thetas)", run, check,
              lambda res: repr(res))
