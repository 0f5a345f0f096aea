"""Wrappers the traced passes install around rdnorm's public functions.

The wrappers live in the benchmark, not in rdnorm: each one replaces a
public function at every name a caller looks it up by (the defining module,
every ``from .x import y`` site and the package namespace), so rdnorm's own
calls go through it.  Spans are kept in memory and handed back at the end.

Two kinds of pass use them:
- the span pass wraps the pell, reduction, solve, rdtheory and cli layers;
- the counting pass counts QuadInt multiplies, sign tests and radicand
  checks, which are too frequent to time one by one without distorting
  the span times.
"""

from __future__ import annotations

import functools
import sys
import time

SPAN_LAYERS = ("pell", "reduction", "solve", "rdtheory", "cli")
ALL_MODULES = ("rdnorm", "rdnorm.qint", "rdnorm.pell", "rdnorm.reduction",
               "rdnorm.solve", "rdnorm.rdtheory", "rdnorm.cli")


def _bits(*values: int) -> int:
    return max(abs(v).bit_length() for v in values)


# Per-function facts recorded on the span, from the arguments and result.
_EXTRA = {
    "pell.fundamental_unit": lambda args, res: res.a.bit_length(),
    "solve.coeff_bounds": lambda args, res: res[1],
    "solve.solve_norm": lambda args, res: len(res.reps),
    "reduction.reduce_window":
        lambda args, res: (abs(res.j), _bits(args[0].a, args[0].b)),
    "rdtheory.verify_prop":
        lambda args, res: (res.checked_count, res.t_max - res.t_min + 1),
}


def public_functions(module) -> dict[str, object]:
    """Functions a module defines and exports (no leading underscore)."""
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


def _install(replacements: dict[int, object]) -> None:
    """Rebind every module-level name that refers to a replaced object."""
    for mod_name in ALL_MODULES:
        module = sys.modules[mod_name]
        for name, obj in list(vars(module).items()):
            if id(obj) in replacements:
                setattr(module, name, replacements[id(obj)])


class SpanRecorder:
    """Spans as [name, start_ns, end_ns, parent index, op id, extra]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[5] = extra(args, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> None:
        replacements = {}
        for layer in SPAN_LAYERS:
            module = sys.modules[f"rdnorm.{layer}"]
            for name, fn in public_functions(module).items():
                replacements[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        _install(replacements)


class Counters:
    """Call counts of the qint hot paths."""

    def __init__(self) -> None:
        self.counts = {"mul": 0, "sign": 0, "radicand": 0}

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        qint = sys.modules["rdnorm.qint"]
        cls = qint.QuadInt
        for attr, key in (("__mul__", "mul"), ("__rmul__", "mul"),
                          ("sign_real", "sign")):
            setattr(cls, attr, self._counted(key, vars(cls)[attr]))
        check = qint.check_radicand
        _install({id(check): self._counted("radicand", check)})
