"""Span tracer for the benchmark's traced runs.

The tracer wraps heckemod2 functions from outside the package: it rebinds
every module-level name that refers to a target function (so a name
imported with ``from .series import _hecke_bits`` into another module is
wrapped too) and replaces methods on their class.  Each call records a span
(name, start, end, parent) in flat in-memory arrays until the command ends;
``summary`` then turns the spans into per-layer counts and times.  Span
times are process CPU seconds, which the benchmark scales like the
command's own times (see reference.py).  Nothing is written inside
``src/``.

A target that no longer exists is reported as absent rather than crashing
the run.  ``layer_metrics`` maps summaries to the benchmark's per-layer
metric names, declared in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

CHECK_NAMES = (
    "triangularity-nilpotency", "hecke-commutativity",
    "iterated-hecke-pairing", "hecke-algebra-dimension", "commutant",
    "generation-by-pairs", "kernel-equality", "module-cyclicity", "m-table",
    "m-basis-structure", "dominant-exponents", "injectivity-witnesses",
    "tp-expansion-tables", "frobenian-criteria", "tp-coefficient-consistency",
    "theta-tables-identities", "theta-span-equalities", "hecke-on-theta",
    "hecke-composition-compatibility", "composition-groups",
    "theta-kernel-characterization",
)
CLI_NAMES = ("m-table", "tp-table", "theta-table", "code-of", "decompose",
             "verify")

# Per-layer metrics in BENCHMARK.json order: (name, unit, targets).  A
# metric is absent when any of its targets (a span name, or a counter
# the tracer could not take) is gone.
_LAYERS = [
    ("series.hecke_bits.calls", "count", ("series.hecke_bits",)),
    ("series.hecke_bits.self_s", "s", ("series.hecke_bits",)),
    # coeffs = sum of precision // p over calls: coefficients computed
    ("series.hecke_bits.coeffs", "count", ("series.hecke_bits",)),
    ("series.odd_delta_powers.calls", "count", ("series.odd_delta_powers",)),
    ("series.odd_delta_powers.self_s", "s", ("series.odd_delta_powers",)),
    # bits = sum of count * (precision + 1) over calls: bits produced
    ("series.odd_delta_powers.bits", "count", ("series.odd_delta_powers",)),
    ("series.mul.calls", "count", ("series.mul",)),
    ("series.mul.self_s", "s", ("series.mul",)),
    ("series.mul.in_odd_delta_powers.self_s", "s",
     ("series.mul", "series.odd_delta_powers")),
    ("series.delta_pow.calls", "count", ("series.delta_pow",)),
    ("series.delta_pow.self_s", "s", ("series.delta_pow",)),
    ("spaces.hecke_matrix.calls", "count", ("spaces.hecke_matrix",)),
    ("spaces.hecke_matrix.misses", "count",
     ("spaces.hecke_matrix", "spaces.hecke_matrix.misses")),
    ("spaces.hecke_matrix.hit_ratio", "ratio",
     ("spaces.hecke_matrix", "spaces.hecke_matrix.misses")),
    ("spaces.hecke_matrix.self_s", "s", ("spaces.hecke_matrix",)),
    ("spaces.hecke_matrix.max_level", "dim", ("spaces.hecke_matrix",)),
    ("spaces.expand_in_delta_basis.calls", "count",
     ("spaces.expand_in_delta_basis",)),
    ("spaces.expand_in_delta_basis.self_s", "s",
     ("spaces.expand_in_delta_basis",)),
    ("spaces.greedy_expand.calls", "count", ("spaces.greedy_expand",)),
    ("spaces.greedy_expand.self_s", "s", ("spaces.greedy_expand",)),
    ("spaces.AlgebraSpan.self_s", "s", ("spaces.AlgebraSpan",)),
    ("spaces.commutant_dimension.self_s", "s", ("spaces.commutant_dimension",)),
    ("gf2.LinearSolver.init.calls", "count", ("gf2.LinearSolver.init",)),
    ("gf2.LinearSolver.init.self_s", "s", ("gf2.LinearSolver.init",)),
    ("gf2.LinearSolver.solve.calls", "count", ("gf2.LinearSolver.solve",)),
    ("gf2.LinearSolver.solve.self_s", "s", ("gf2.LinearSolver.solve",)),
    ("gf2.LinearSolver.solve.unsolvable", "count", ("gf2.LinearSolver.solve",)),
    ("gf2.Span.add.calls", "count", ("gf2.Span.add",)),
    ("gf2.Span.add.self_s", "s", ("gf2.Span.add",)),
    ("gf2.Span.add.useful_ratio", "ratio", ("gf2.Span.add",)),
    ("gf2.GF2Matrix.mul.calls", "count", ("gf2.GF2Matrix.mul",)),
    ("gf2.GF2Matrix.mul.self_s", "s", ("gf2.GF2Matrix.mul",)),
    ("mbasis.level_growths", "count", ("mbasis.grow",)),
    ("mbasis.max_level", "dim", ("mbasis.rebuild",)),
    ("mbasis.precision_regrowths", "count", ("mbasis.ensure_precision",)),
    ("mbasis.ensure_precision.self_s", "s", ("mbasis.ensure_precision",)),
    ("mbasis.tp_expansion.self_s", "s", ("mbasis.tp_expansion",)),
    ("mbasis.code_of.self_s", "s", ("mbasis.code_of",)),
    ("mbasis.coefficients.self_s", "s", ("mbasis.coefficients",)),
    ("theta.theta_series.calls", "count", ("theta.theta_series",)),
    ("theta.theta_series.self_s", "s", ("theta.theta_series",)),
    ("theta.verify_composition_group.self_s", "s",
     ("theta.verify_composition_group",)),
    ("theta.verify_hecke_on_theta.self_s", "s", ("theta.verify_hecke_on_theta",)),
]
# total (not self) seconds of each check and each CLI subcommand
_LAYERS += [(f"checks.{name}.s", "s", ("checks", f"checks.{name}"))
            for name in CHECK_NAMES]
_LAYERS += [(f"cli.{name}.s", "s", (f"cli.{name}",)) for name in CLI_NAMES]
# traced solve_s of the same run, and its excess over the untraced solve_s
_LAYERS += [("trace.solve_s", "s", ()), ("trace.overhead_s", "s", ())]

PER_LAYER = {name: unit for name, unit, _ in _LAYERS}
_TARGETS = {name: targets for name, _, targets in _LAYERS}
MUL_IN_POWERS = "series.mul.in_odd_delta_powers.self_s"


class Tracer:
    """In-memory span recorder; one per traced command."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.absent: set[str] = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, before=None, after=None, rename=None):
        """Return fn wrapped in a span called `name`.

        `before(args)` runs before the call and `after(args, result)` after
        it returns; they feed counters.  `rename(result)` names the span
        from its result.  A hook or rename that fails marks `name` absent
        instead of failing the command.
        """
        nid = self.name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.process_time

        def hook(fn_, *args):
            try:
                fn_(*args)
            except Exception:  # the program changed shape; keep running
                self.absent.add(name)

        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args)
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                hook(after, args, result)
            if rename is not None:
                try:
                    name_of[idx] = self.name_id(rename(result))
                except Exception:  # keep the span under `name`
                    self.absent.add(name)
            return result

        return functools.update_wrapper(traced, fn)

    def summary(self) -> dict:
        """Per span name: [calls, self seconds, total seconds]; self time
        is a span's duration minus the durations of its direct children."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans: dict[str, list] = {}
        mul_in_powers = 0.0
        mul = self._ids.get("series.mul")
        powers = self._ids.get("series.odd_delta_powers")
        for i in range(n):
            total = self.end[i] - self.start[i]
            own = total - child[i]
            rec = spans.setdefault(self.names[self.name_of[i]], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += own
            rec[2] += total
            p = self.parent[i]
            if self.name_of[i] == mul and p >= 0 and self.name_of[p] == powers:
                mul_in_powers += own
        counters = dict(self.counters)
        counters[MUL_IN_POWERS] = mul_in_powers
        return {"spans": spans, "counters": counters,
                "absent": sorted(self.absent)}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "heckemod2" or name.startswith("heckemod2."))]


def _rebind(original, wrapped):
    """Replace every module-level binding of `original` in the package."""
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install() -> Tracer:
    """Wrap every traced target of the imported heckemod2 package."""
    import heckemod2  # noqa: F401  (loads every submodule the CLI uses)

    tracer = Tracer()
    mods = {m.__name__: m for m in _package_modules()}

    def lookup(module, path):
        obj = mods.get(module)
        owner = None
        for part in path.split("."):
            owner, obj = obj, getattr(obj, part, None)
            if obj is None:
                return None, None
        return owner, obj

    def function(name, module, attr, **hooks):
        _, original = lookup(module, attr)
        if original is None:
            tracer.absent.add(name)
            return None
        _rebind(original, tracer.wrap(name, original, **hooks))
        return original

    def method(name, module, path, **hooks):
        cls, original = lookup(module, path)
        if original is None:
            tracer.absent.add(name)
            return
        setattr(cls, path.rsplit(".", 1)[1], tracer.wrap(name, original, **hooks))

    def most(counter, value):
        tracer.counters[counter] = max(tracer.counters.get(counter, 0), value)

    count = tracer.count
    function("series.hecke_bits", "heckemod2.series", "_hecke_bits",
             before=lambda a: count("series.hecke_bits.coeffs", a[2] // a[0]))
    function("series.odd_delta_powers", "heckemod2.series",
             "_odd_delta_power_bits",
             before=lambda a: count("series.odd_delta_powers.bits",
                                    a[0] * (a[1] + 1)))
    function("series.mul", "heckemod2.series", "mul")
    function("series.delta_pow", "heckemod2.series", "delta_pow")
    # wrapped outside its lru_cache: calls counts hits and misses alike
    cached = function("spaces.hecke_matrix", "heckemod2.spaces", "hecke_matrix",
                      before=lambda a: most("spaces.hecke_matrix.max_level", a[1]))
    function("spaces.expand_in_delta_basis", "heckemod2.spaces",
             "expand_in_delta_basis")
    function("spaces.greedy_expand", "heckemod2.spaces", "_greedy_expand")
    method("spaces.AlgebraSpan", "heckemod2.spaces", "AlgebraSpan.__init__")
    function("spaces.commutant_dimension", "heckemod2.spaces",
             "commutant_dimension")
    method("gf2.LinearSolver.init", "heckemod2.gf2", "LinearSolver.__init__")
    method("gf2.LinearSolver.solve", "heckemod2.gf2", "LinearSolver.solve",
           after=lambda a, r: r is None and count("gf2.LinearSolver.solve.unsolvable"))
    method("gf2.Span.add", "heckemod2.gf2", "Span.add",
           after=lambda a, r: r and count("gf2.Span.add.useful"))
    method("gf2.GF2Matrix.mul", "heckemod2.gf2", "GF2Matrix.mul")
    method("mbasis.grow", "heckemod2.mbasis", "MBasis._grow",
           after=lambda a, r: count("mbasis.level_growths"))
    method("mbasis.rebuild", "heckemod2.mbasis", "MBasis._rebuild",
           after=lambda a, r: most("mbasis.max_level", a[0].level))
    method("mbasis.ensure_precision", "heckemod2.mbasis",
           "MBasis.ensure_precision",
           before=lambda a: a[1] > a[0].precision
           and count("mbasis.precision_regrowths"))
    for name in ("tp_expansion", "code_of", "coefficients"):
        method(f"mbasis.{name}", "heckemod2.mbasis", f"MBasis.{name}")
    function("theta.theta_series", "heckemod2.theta", "theta_series")
    function("theta.verify_composition_group", "heckemod2.theta",
             "verify_composition_group")
    function("theta.verify_hecke_on_theta", "heckemod2.theta",
             "verify_hecke_on_theta")

    for name in CLI_NAMES:
        function(f"cli.{name}", "heckemod2.cli", "cmd_" + name.replace("-", "_"))

    suites = getattr(mods.get("heckemod2.checks"), "SUITES", None)
    if not isinstance(suites, dict) or "all" not in suites:
        tracer.absent.add("checks")
    else:
        for check in list(suites["all"]):
            wrapped = tracer.wrap("checks.?", check,
                                  rename=lambda r: f"checks.{r.name}")
            _rebind(check, wrapped)
            for members in suites.values():
                members[:] = [wrapped if f is check else f for f in members]

    if cached is not None and hasattr(cached, "cache_info"):
        misses0 = cached.cache_info().misses
        summary = tracer.summary

        def summary_with_misses():
            tracer.count("spaces.hecke_matrix.misses",
                         cached.cache_info().misses - misses0)
            return summary()

        tracer.summary = summary_with_misses
    else:
        tracer.absent.add("spaces.hecke_matrix.misses")
    return tracer


def scaled(summary: dict, factor: float) -> dict:
    """The summary with its seconds multiplied by `factor`."""
    spans = {name: [calls, own * factor, total * factor]
             for name, (calls, own, total) in summary["spans"].items()}
    counters = dict(summary["counters"])
    counters[MUL_IN_POWERS] *= factor
    return {"spans": spans, "counters": counters, "absent": summary["absent"]}


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of the commands of one workload iteration."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    absent: set[str] = set()
    for s in summaries:
        for name, (calls, own, total) in s["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += own
            rec[2] += total
        for name, value in s["counters"].items():
            if name.endswith("max_level"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        absent.update(s["absent"])
    return {"spans": spans, "counters": counters, "absent": sorted(absent)}


def layer_metrics(merged: dict) -> tuple[dict[str, float], set[str]]:
    """Per-layer values of one iteration (without the trace.* pair), and
    the metric names that are absent.

    A layer the iteration never entered reads 0; a metric whose target is
    gone, or whose hook failed, is absent.
    """
    spans, counters = merged["spans"], merged["counters"]
    gone = set(merged["absent"])
    values: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = spans.get(layer, (0, 0.0, 0.0))[0]
        elif field == "self_s" and name != MUL_IN_POWERS:
            values[name] = spans.get(layer, (0, 0.0, 0.0))[1]
        elif field == "s":
            values[name] = spans.get(layer, (0, 0.0, 0.0))[2]
        elif not name.startswith("trace."):
            values[name] = counters.get(name, 0)
    useful = counters.get("gf2.Span.add.useful", 0)
    adds = values["gf2.Span.add.calls"]
    values["gf2.Span.add.useful_ratio"] = useful / adds if adds else 0.0
    calls = values["spaces.hecke_matrix.calls"]
    values["spaces.hecke_matrix.hit_ratio"] = (
        1 - values["spaces.hecke_matrix.misses"] / calls if calls else 0.0)
    if any(name.startswith("checks.") for name in spans):
        gone.update(f"checks.{n}" for n in CHECK_NAMES
                    if f"checks.{n}" not in spans)
    absent = {name for name in values if gone.intersection(_TARGETS[name])}
    return values, absent
