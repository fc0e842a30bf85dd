"""Per-layer tracing from outside the program.

``install()`` replaces every binding of each public function of the
``cellspec`` modules, plus a few class-level boundaries, with a wrapper that
opens a span on entry and closes it on exit.  A span has a name, a start, an
end and a parent (the span open when it began).  Closed spans are folded
into per-name totals at once, so memory stays flat however many calls a
pass makes: self time is the span's duration minus the time its child spans
cover, which is all the fold needs.

The layers are the modules; a span belongs to the module that defines the
wrapped function.  Generator functions are not wrapped, because a wrapper
would time only the creation of the generator; their time counts to the
caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "cli", "fibpoly", "intmat", "staircase", "coxeter", "dihedral",
    "based_algebra", "higher_rank", "quiver",
)

# Class-level boundaries, wrapped on the class.  Span names drop the
# underscores, so IntPolynomial.__divmod__ is fibpoly.divmod, and the two
# validate methods share based_algebra.validate.
METHODS = {
    "fibpoly": {"IntPolynomial": ("gcd", "__divmod__")},
    "intmat": {"IntMatrix": ("__matmul__",)},
    "based_algebra": {
        "BasedAlgebra": ("validate", "cells"),
        "BasedModule": ("validate", "apex"),
    },
}

# Spans whose distinct inputs are counted, to measure how much a workload's
# inputs repeat.
DISTINCT = {
    "fibpoly.sturm_chain", "intmat.charpoly", "intmat.spectrum_in_range",
    "staircase.canonical_form",
}

# Spans whose results count as outcomes: spectral tests passed, classes
# found, unique-expression elements kept.
OUTCOMES = {
    "intmat.spectrum_in_range": lambda result: int(bool(result)),
    "staircase.brute_force_under4": len,
    "coxeter.enumerate_J": len,
}


def _freeze(value):
    """A hashable key for a call argument: polynomials by coefficients,
    matrices by rows."""
    for attr in ("coeffs", "rows"):
        if hasattr(value, attr):
            return getattr(value, attr)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class SpanStats:
    __slots__ = ("calls", "self_s", "outcomes", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.outcomes = 0
        self.keys: set = set()


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._open: list[list[float]] = []  # child time of each open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        open_spans = self._open
        clock = time.perf_counter
        keyed = name in DISTINCT
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                stats.keys.add((_freeze(args), _freeze(tuple(sorted(kwargs.items())))))
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += duration
                stats.calls += 1
                stats.self_s += duration - children[0]
            if outcome is not None:
                stats.outcomes += outcome(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and METHODS of every layer, and rebind
        each name in every cellspec module that refers to one of them."""
        modules = {layer: importlib.import_module(f"cellspec.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    span = f"{layer}.{method.strip('_')}"
                    setattr(cls, method, self.wrap(span, vars(cls)[method]))
        for mod in [sys.modules["cellspec"], *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if callable(obj) and not isinstance(obj, type) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def metrics(self, job_wall_s: float, factor: float) -> dict:
        """Per-layer metrics of one traced pass whose job took job_wall_s.
        Times are scaled to the reference speed by the pass's speed factor
        (see speed.py); they include the probes that fell inside each span,
        about two per cent."""

        def stat(name):
            return self.stats.get(name, SpanStats())

        out = {}
        attributed = 0.0
        for layer in LAYERS:
            own = sum(s.self_s for n, s in self.stats.items() if n.split(".")[0] == layer)
            out[f"{layer}.self_s"] = own * factor
            attributed += own
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s * factor
            if name in DISTINCT:
                out[f"{name}.distinct"] = len(s.keys)
        tests = stat("intmat.spectrum_in_range")
        out["intmat.spectrum_in_range.pass_ratio"] = tests.outcomes / tests.calls if tests.calls else 0.0
        gram_tests = stat("staircase.gram_spectrum_below_4").calls
        classes = stat("staircase.brute_force_under4").outcomes
        out["staircase.classes_per_spectral_test"] = classes / gram_tests if gram_tests else 0.0
        reduced = stat("coxeter.is_reduced").calls
        kept = stat("coxeter.enumerate_J").outcomes
        out["coxeter.kept_ratio"] = kept / reduced if reduced else 0.0
        out["cli.calls"] = stat("cli.main").calls
        out["trace.unattributed_s"] = (job_wall_s - attributed) * factor
        return out
