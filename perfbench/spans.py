"""Span tracing of glslab's layers from outside the package.

``instrument(tracer)`` wraps the public functions of each layer module at
the module attribute and at every alias another glslab module bound to the
same object (``functionals.integrate_with_error``, ``stability.report``,
...), and wraps the evaluation methods of every function family and of
``EvolvedDensity``.  Nested calls become child spans.  Each span records
its name, start, end, parent span and the op it belongs to; spans stay in
flat arrays in memory and are written once, at the end of the run.

A span's self time is its duration minus the time its direct children
cover.  Nothing is recorded while ``tracer.active`` is false, which is how
the correctness checks and the untraced replay run.  A wrapped name the
package no longer has is listed in ``tracer.missing``; its metrics read 0.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from metrics import BOUNDS

FAMILY_METHODS = ("value", "gradient", "hessian", "density", "hess_log_density")
EVOLVED_METHODS = FAMILY_METHODS + ("density_gradient", "density_hessian", "_average")


class Tracer:
    """Spans of one traced run in flat arrays indexed by span id, plus counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.active = False
        self.op_id = -1
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.missing: list[str] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def innermost(self) -> int:
        top = self._stack[-1]
        return -1 if top < 0 else self.name[top]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int, kind: str) -> int:
        self.op_id = op_id
        self.active = True
        return self.open(self.intern(f"op.{kind}"))

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.active = False

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span count and total self time per span name."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {n: (int(calls[i]), float(own[i])) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _wrap(tracer: Tracer, name: str, fn, after=None, flat: bool = False):
    """fn recorded as a span called name; ``after`` updates counters.

    With ``flat``, a call made from inside a span of the same name is not a
    span of its own (a family's density calling its own value).
    """
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active or (flat and tracer.innermost() == name_id):
            return fn(*args, **kwargs)
        idx = tracer.open(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return traced


def _glslab_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "glslab" or n.startswith("glslab.")]


def _patch_function(tracer, module, attr, name, after=None) -> None:
    original = getattr(module, attr, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return
    wrapped = _wrap(tracer, name, original, after)
    for mod in _glslab_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def _patch_methods(tracer, cls, methods, name, after=None, flat=False) -> None:
    for method in methods:
        original = cls.__dict__.get(method)
        if original is not None:
            setattr(cls, method, _wrap(tracer, name, original, after, flat))


# ---------------------------------------------------------------- counters


def _grid_points(tracer, args, kwargs, out) -> None:
    grid = args[0] if args else kwargs["grid"]
    tracer.counts["measure.integrand_points"] += grid.n_points


def _eval_points(tracer, args, kwargs, out) -> None:
    tracer.counts["functions.eval.points"] += len(out)
    # the initial function evaluated at outer x inner points of an average
    if tracer.innermost() == tracer.intern("ou_flow.density_average"):
        tracer.counts["ou_flow.density_average.points"] += len(out)


def _evolve(tracer, args, kwargs, out) -> None:
    t = args[1] if len(args) > 1 else kwargs["t"]
    if t > 0:
        tracer.counts["ou_flow.evolve_t_positive"] += 1
    tracer.maxima["ou_flow.inner_order_max"] = max(
        tracer.maxima["ou_flow.inner_order_max"], getattr(out, "inner_order", 0)
    )


def _inner_rule(tracer, args, kwargs, out) -> None:
    tracer.counts["ou_flow.inner_rules"] += 1


def _certify(tracer, args, kwargs, out) -> None:
    tracer.counts["logconcavity.probes"] += out.n_probes
    tracer.counts["logconcavity.active"] += out.n_active


def _verify_bounds(tracer, args, kwargs, out) -> None:
    tracer.counts["stability.bounds"] += len(out)
    tracer.counts["stability.skipped"] += sum(b.status == "skipped" for b in out)


def _run_search(tracer, args, kwargs, out) -> None:
    tracer.counts["search.objective_evals"] += out.n_evaluations


def _objective(big):
    def count(tracer, args, kwargs, out) -> None:
        tracer.counts["search.raw_objective"] += 1
        tracer.counts["search.feasible"] += out < big

    return count


def instrument(tracer: Tracer) -> None:
    """Wrap glslab's layers; call once, after ``import glslab``."""
    from glslab import functions, functionals, logconcavity, measure, ou_flow, search, stability

    _patch_function(tracer, measure, "gauss_hermite_1d", "measure.gauss_hermite_1d")
    _patch_function(tracer, measure, "build_grid", "measure.build_grid")
    _patch_function(tracer, measure, "integrate", "measure.integrate", _grid_points)
    _patch_function(tracer, measure, "integrate_with_error", "measure.integrate_with_error")

    base = functions.TestFunction
    families = [
        c for c in vars(functions).values()
        if isinstance(c, type) and issubclass(c, base) and c.__module__ == functions.__name__
    ]
    for cls in families:
        _patch_methods(tracer, cls, FAMILY_METHODS, "functions.eval", _eval_points, flat=True)
    _patch_function(tracer, functions, "normalize", "functions.normalize")

    _patch_function(tracer, functionals, "report", "functionals.report")

    _patch_function(tracer, ou_flow, "evolve", "ou_flow.evolve", _evolve)
    _patch_function(tracer, ou_flow, "_inner_mismatch", "ou_flow.inner_rule", _inner_rule)
    evolved = getattr(ou_flow, "EvolvedDensity", None)
    if evolved is None:
        tracer.missing.append("glslab.ou_flow.EvolvedDensity")
    else:
        _patch_methods(tracer, evolved, EVOLVED_METHODS, "ou_flow.density_average")

    _patch_function(tracer, logconcavity, "certify", "logconcavity.certify", _certify)

    _patch_function(tracer, stability, "verify_bounds", "stability.verify_bounds", _verify_bounds)
    for bound in BOUNDS:
        _patch_function(tracer, stability, f"verify_{bound}", f"stability.verify_{bound}")
    _patch_function(tracer, stability, "compact_improvement_pipeline", "stability.pipeline")

    _patch_function(tracer, search, "run_search", "search.run_search", _run_search)
    big = getattr(search, "BIG_VALUE", 1e6)
    _patch_function(tracer, search, "raw_objective", "search.raw_objective", _objective(big))
    _patch_function(tracer, search, "minimize_callable", "search.optimizer")
