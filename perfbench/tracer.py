"""Span tracing for the traced benchmark run, applied from outside the program.

The tracer wraps public functions of the arithcurves modules and replaces them
in every namespace where a caller looks them up: the defining module, every
``arithcurves.*`` module that imported the name with ``from x import f``, or
the class for methods.  The program itself is not modified.  Spans are kept in
memory as per-function aggregates (calls, wall time, self time, counters) and
written out when the run ends.  Self time is a span's duration minus the time
covered by its traced children.

A target that no longer exists is recorded in ``absent`` and skipped, so a
later refactor that renames or merges a function does not break the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    name: str                    # metric prefix, e.g. "curve.ramified_primes"
    module: str                  # defining module
    attr: str                    # "func" or "Class.method" in that module
    result_count: tuple[str, object] | None = None   # (counter, fn(result) -> int)
    nested_in: tuple[str, str] | None = None         # (ancestor span, counter on it)


def _len(result) -> int:
    return len(result)


def _jacobi(result) -> int:
    return int(getattr(result, "jacobi_triples", 0))


TARGETS = (
    Target("cli.run", "arithcurves.cli", "run"),
    Target("rootsys.build_root_system", "arithcurves.rootsys", "build_root_system"),
    Target("rootsys.weyl_group", "arithcurves.rootsys", "weyl_group",
           result_count=("elements", _len)),
    Target("rootsys.word_matrix", "arithcurves.rootsys", "word_matrix"),
    Target("charmorph.realization", "arithcurves.charmorph", "realization"),
    Target("charmorph.chi_torus", "arithcurves.charmorph", "chi_torus"),
    Target("charmorph.char_coeffs", "arithcurves.charmorph", "char_coeffs"),
    Target("chevalley.structure_constants", "arithcurves.chevalley", "structure_constants"),
    Target("chevalley.build_chevalley_basis", "arithcurves.chevalley",
           "build_chevalley_basis"),
    Target("chevalley.verify_chevalley", "arithcurves.chevalley", "verify_chevalley",
           result_count=("jacobi_triples", _jacobi)),
    Target("arakelov.FractionalIdeal.from_elements", "arithcurves.arakelov",
           "FractionalIdeal.from_elements"),
    Target("arakelov.FractionalIdeal.power", "arithcurves.arakelov", "FractionalIdeal.power"),
    Target("arakelov.arithmetic_degree", "arithcurves.arakelov", "arithmetic_degree"),
    Target("curve.higgs_field", "arithcurves.curve", "higgs_field"),
    Target("curve.spectral_curve", "arithcurves.curve", "spectral_curve"),
    Target("curve.cameral_curve", "arithcurves.curve", "cameral_curve"),
    Target("curve.characteristic_point", "arithcurves.curve", "characteristic_point"),
    Target("curve.poly_discriminant", "arithcurves.curve", "poly_discriminant"),
    Target("curve.ramified_primes", "arithcurves.curve", "ramified_primes",
           result_count=("reported", _len)),
    Target("curve.smallest_split_prime", "arithcurves.curve", "smallest_split_prime"),
    Target("curve.covering_degree_check", "arithcurves.curve", "covering_degree_check"),
    Target("curve.cameral_fiber_rational", "arithcurves.curve", "cameral_fiber_rational"),
    Target("finitefield.is_prime", "arithcurves.finitefield", "is_prime",
           nested_in=("curve.ramified_primes", "prime_tests")),
    Target("finitefield.factor_pattern", "arithcurves.finitefield", "factor_pattern",
           nested_in=("curve.smallest_split_prime", "factor_calls")),
    Target("finitefield.roots_mod_p", "arithcurves.finitefield", "roots_mod_p"),
    Target("torsor.slope", "arithcurves.torsor", "slope"),
    Target("torsor.verify_compatibility", "arithcurves.torsor", "verify_compatibility"),
)


def _resolve(target: Target):
    """(owner, attribute, raw object) for a target, or None if it is absent."""
    try:
        mod = importlib.import_module(target.module)
    except ImportError:
        return None
    owner = mod
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(leaf)
    else:
        raw = getattr(owner, leaf, None)
    if raw is None or not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
        return None
    return owner, leaf, raw


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                **self.counters}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []       # child time of each open span
        self._open: dict[str, int] = {}           # open-span depth per name
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        self.absent = []
        for t in self.targets:
            found = _resolve(t)
            if found is None:
                self.absent.append(t.name)
                continue
            owner, leaf, raw = found
            self.stats.setdefault(t.name, Stat())
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(t, raw.__func__))
                elif isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(t, raw.__func__))
                else:
                    new = self._wrap(t, raw)
                self._patch(owner, leaf, raw, new)
                continue
            new = self._wrap(t, raw)
            # every arithcurves namespace that holds the same object
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "arithcurves" or name.startswith("arithcurves.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, raw, new)
        return self

    def _patch(self, owner, key, old, new) -> None:
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans -------------------------------------------------------------

    def _wrap(self, target: Target, fn):
        stat_name = target.name
        stack, open_depth, stats = self._stack, self._open, self.stats
        clock = time.perf_counter
        nested = target.nested_in
        result_count = target.result_count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested is not None and open_depth.get(nested[0]):
                c = stats[nested[0]].counters
                c[nested[1]] = c.get(nested[1], 0) + 1
            frame = [0.0]
            stack.append(frame)
            open_depth[stat_name] = open_depth.get(stat_name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                open_depth[stat_name] -= 1
                st = stats[stat_name]
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if result_count is not None:
                key, fn_count = result_count
                st.counters[key] = st.counters.get(key, 0) + fn_count(result)
            return result

        return traced

    def summary(self) -> dict:
        return {"absent": list(self.absent),
                "stats": {k: v.as_dict() for k, v in self.stats.items()}}


def merge(into: dict, summary: dict) -> None:
    """Add one summary's aggregates into ``into`` (same shape as ``summary()``)."""
    for name in summary.get("absent", []):
        if name not in into.setdefault("absent", []):
            into["absent"].append(name)
    stats = into.setdefault("stats", {})
    for name, st in summary.get("stats", {}).items():
        acc = stats.setdefault(name, {})
        for key, value in st.items():
            acc[key] = acc.get(key, 0) + value
