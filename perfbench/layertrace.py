"""Layer tracer for the quantilab benchmark.

The tracer wraps the public functions of each quantilab module from the
outside; ``src/quantilab`` is never edited.  ``solver``, ``quantizer`` and
``distributions`` bind names with ``from .x import y``, so one wrapper is
written into every quantilab module namespace that holds the original
function object (``quantilab.distributions.cell_gradient`` and
``quantilab.solver.cell_gradient`` both get it).

Hot boundaries (quadrature, densities, cdfs, cell integrals) run millions
of times per pass; they are aggregated in memory as call counts, total
time and self time.  From ``cell_argmin`` upward every call is also kept
as a span with a parent link.  ``write`` dumps everything at the end.

A call into a layer from inside the same layer (``pdf`` calling
``log_pdf``, ``rate_constants`` calling ``condition_integral``) is part
of the outer call and is not traced again.  Self time is a frame's
duration minus the duration of the traced frames directly under it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

MODULES = ("_quad", "distributions", "quantizer", "solver", "dilatation", "analysis", "cli")

# (layer, defining module, function names, record spans), bottom to top.
LAYERS = (
    ("quad", "_quad", ("integrate", "integrate_endpoint_power"), False),
    ("density", "distributions", ("pdf", "log_pdf"), False),
    ("cdf", "distributions", ("cdf", "sf", "quantile", "quantile_sf", "interval_mass"), False),
    ("cell", "distributions", ("cell_moment", "cell_gradient", "_abs_moment"), False),
    ("sdpi", "distributions", ("scaled_density_power_integral",), False),
    ("argmin", "solver", ("cell_argmin",), True),
    # private: one call per Newton iteration; the only way to count Newton
    # iterations of solves that return a bare Grid (the tables workload)
    ("jacobian", "solver", ("_jacobian_banded",), True),
    ("solve", "solver", ("optimal_grid",), True),
    ("recursion", "solver", ("exp_ak_sequence",), True),
    ("distortion", "quantizer", ("distortion",), True),
    ("dilatation", "dilatation", ("q_inf", "q_sup_sub", "condition_integral", "rate_constants"), True),
    ("table", "analysis", ("table_experiment",), True),
    ("empirical", "analysis", ("empirical_discrepancy",), True),
    ("cli", "cli", ("main",), True),
)


class LayerStat:
    """Aggregates of the outermost calls into one layer."""

    __slots__ = ("calls", "total_s", "self_s", "errors", "by_name")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        self.by_name: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "errors": self.errors,
            "by_name": dict(self.by_name),
        }


class Tracer:
    """Install with ``install()``; only counts while ``on`` is true."""

    def __init__(self) -> None:
        self.on = False
        self.stats = {layer: LayerStat() for layer, *_ in LAYERS}
        # quadrature panels, density points and derived solver counts
        self.counts = {
            "panels": 0,
            "density_points": 0,
            "grad_under_argmin": 0,
            "lloyd_sweeps": 0,
            "newton_iters": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
        self.spans: list[tuple[int, int, str, float, float]] = []
        # frame: [layer, time covered by traced children, span id in scope]
        self._stack: list[list] = [[None, 0.0, 0]]
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("quantilab")
        modules = [pkg] + [importlib.import_module(f"quantilab.{m}") for m in MODULES]
        errors = self._error_types()
        for layer, home, names, spans in LAYERS:
            src = importlib.import_module(f"quantilab.{home}")
            for name in names:
                original = getattr(src, name, None)
                if original is None:
                    continue  # private hook gone in a later version
                wrapper = self._wrap(original, layer, name, spans, errors.get(layer))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        solver = importlib.import_module("quantilab.solver")
        cache_cls = solver.GridCache
        load = cache_cls.__dict__["load"]
        self._patched.append((cache_cls, "load", load))
        cache_cls.load = self._wrap_cache_load(load)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @staticmethod
    def _error_types() -> dict[str, type]:
        from quantilab._quad import QuadratureError
        from quantilab.solver import SolverError

        return {"quad": QuadratureError, "solve": SolverError, "recursion": SolverError}

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, record_span: bool, error_type):
        stack = self._stack
        stat = self.stats[layer]
        counts = self.counts
        spans = self.spans
        clock = time.perf_counter
        t0 = self._t0
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if not tracer.on or parent[0] == layer:
                return fn(*args, **kwargs)
            if layer == "quad":
                args = (_count_panels(args[0], counts),) + args[1:]
            elif layer == "density":
                counts["density_points"] += getattr(args[1], "size", 1)
            elif layer == "cell" and parent[0] == "argmin" and name == "cell_gradient":
                counts["grad_under_argmin"] += 1
            elif layer == "solve":
                argmin_before = tracer.stats["argmin"].calls
                jac_before = tracer.stats["jacobian"].calls
            span_id = len(spans) + 1 if record_span else parent[2]
            frame = [layer, 0.0, span_id]
            if record_span:
                spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if error_type is not None and isinstance(err, error_type):
                    stat.errors += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1]
                stat.by_name[name] = stat.by_name.get(name, 0) + 1
                stack[-1][1] += dur
                if record_span:
                    spans[span_id - 1] = (span_id, parent[2], name, start - t0, start - t0 + dur)
            if layer == "solve":
                tracer._count_solve(args, kwargs, result, argmin_before, jac_before)
            return result

        return wrapper

    def _count_solve(self, args, kwargs, result, argmin_before: int, jac_before: int) -> None:
        sweeps = getattr(result, "lloyd_sweeps", None)
        if sweeps is not None:
            self.counts["lloyd_sweeps"] += sweeps
            self.counts["newton_iters"] += result.newton_iters
            return
        n = args[1] if len(args) > 1 else kwargs["n"]
        self.counts["lloyd_sweeps"] += (self.stats["argmin"].calls - argmin_before) / n
        self.counts["newton_iters"] += self.stats["jacobian"].calls - jac_before

    def _wrap_cache_load(self, load):
        counts = self.counts
        tracer = self

        @functools.wraps(load)
        def wrapper(*args, **kwargs):
            hit = load(*args, **kwargs)
            if tracer.on:
                counts["cache_misses" if hit is None else "cache_hits"] += 1
            return hit

        return wrapper

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (counts repeat exactly)."""
        st, c = self.stats, self.counts
        per = 1.0 / max(passes, 1)
        quad = st["quad"]
        argmin = st["argmin"]
        cell = st["cell"].by_name
        return {
            "quad.calls": quad.calls * per,
            "quad.panels": c["panels"] * per,
            "quad.panels_per_call": c["panels"] / quad.calls if quad.calls else 0.0,
            "quad.self_s": quad.self_s * per,
            "quad.errors": quad.errors * per,
            "dist.density_calls": st["density"].calls * per,
            "dist.density_points": c["density_points"] * per,
            "dist.density_s": st["density"].total_s * per,
            "dist.cdf_calls": st["cdf"].calls * per,
            "dist.cdf_s": st["cdf"].total_s * per,
            "dist.cell_moment_calls": cell.get("cell_moment", 0) * per,
            "dist.cell_gradient_calls": cell.get("cell_gradient", 0) * per,
            "dist.raw_moment_calls": cell.get("_abs_moment", 0) * per,
            "dist.cell_self_s": st["cell"].self_s * per,
            "dist.sdpi_calls": st["sdpi"].calls * per,
            "dist.sdpi_s": st["sdpi"].total_s * per,
            "solver.solves": st["solve"].calls * per,
            "solver.solve_s": st["solve"].total_s * per,
            "solver.argmin_calls": argmin.calls * per,
            "solver.argmin_s": argmin.total_s * per,
            "solver.grad_per_argmin": (
                c["grad_under_argmin"] / argmin.calls if argmin.calls else 0.0
            ),
            "solver.lloyd_sweeps": c["lloyd_sweeps"] * per,
            "solver.newton_iters": c["newton_iters"] * per,
            # every cell_argmin in these workloads runs inside optimal_grid
            "solver.outside_argmin_s": (st["solve"].total_s - argmin.total_s) * per,
            "solver.recursion_s": st["recursion"].total_s * per,
            "solver.cache_hits": c["cache_hits"] * per,
            "solver.cache_misses": c["cache_misses"] * per,
            "solver.errors": (st["solve"].errors + st["recursion"].errors) * per,
            "quantizer.distortion_calls": st["distortion"].calls * per,
            "quantizer.distortion_s": st["distortion"].total_s * per,
            "dilatation.calls": st["dilatation"].calls * per,
            "dilatation.s": st["dilatation"].total_s * per,
            "analysis.table_s": st["table"].total_s * per,
            "analysis.empirical_s": st["empirical"].total_s * per,
            "cli.invocations": st["cli"].calls * per,
            "cli.self_s": st["cli"].self_s * per,
        }

    def write(self, path: Path, extra: dict) -> None:
        """Dump layer aggregates, counts and spans as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "layers": {k: v.as_dict() for k, v in self.stats.items()},
            "counts": self.counts,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [s for s in self.spans if s is not None],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _count_panels(fn, counts: dict):
    """Integrand wrapper: each call evaluates one 16-node panel."""

    def counted(x):
        counts["panels"] += 1
        return fn(x)

    return counted
