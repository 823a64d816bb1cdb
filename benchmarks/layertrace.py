"""Per-layer tracing by wrapping crraport's public functions from outside.

``Tracer.install`` replaces each traced function with a timing wrapper
in every ``crraport`` module namespace that binds it (a function
imported with ``from .frontier import efficient_constants`` is bound in
``crraport.frontier``, ``crraport.crra``, ``crraport.study`` and the
package itself), and ``Tracer.remove`` puts the originals back. Nothing
under ``src/`` is edited.

A function's self time is its wall time minus the time spent in traced
functions it called.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (layer, owner, attribute): the traced function is getattr(owner, attribute)
# where owner is the module crraport.<layer> or, for a method, a class in it.
TRACED = (
    ("market", None, "estimate_params"),
    ("market", None, "load_returns_csv"),
    ("market", None, "synth_market"),
    ("frontier", None, "efficient_constants"),
    ("frontier", None, "sharpe_weights"),
    ("crra", None, "power_solution"),
    ("crra", None, "gamma_min"),
    ("crra", None, "objective_value"),
    ("stats", None, "shapiro_wilk"),
    ("stats", None, "quantile"),
    ("study", None, "run_study"),
    ("study", "StudyReport", "write"),
    ("oracle", None, "maximize_numeric"),
    # scipy's minimize as crraport.oracle binds it; nfev is read from its results.
    ("oracle", None, "minimize"),
)


def traced_names() -> list[str]:
    return [
        ".".join(p for p in (layer, owner, attr) if p) for layer, owner, attr in TRACED
    ]


class Tracer:
    """Call counts, self and total seconds per traced function."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.nfev = 0
        self.write_bytes = 0
        self._child_s: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - child
                self.total_s[name] += dt
                if stack:
                    stack[-1] += dt
            if name == "oracle.minimize":
                self.nfev += int(result.nfev)
            elif name == "study.StudyReport.write":
                self.write_bytes += sum(
                    p.stat().st_size for p in result.values() if p.suffix == ".csv"
                )
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "crraport" or n.startswith("crraport."))
        ]
        for (layer, owner, attr), name in zip(TRACED, traced_names()):
            module = sys.modules[f"crraport.{layer}"]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def remove(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()
