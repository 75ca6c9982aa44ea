"""Per-layer numbers from a cProfile run: self time and exact call counts.

Every profiled function is charged to the program module whose globals
it runs in.  Methods of the package's classes are mapped through their
``__globals__``: those that ``dataclasses`` generates (``Jet2.__init__``
and the like) have ``co_filename`` ``<string>``, which names no module.
All other code is mapped by the file it lives in.  Everything else
(stdlib, builtins, the benchmark itself) goes to ``other``, so the self
times of all layers add up to the profiled wall time.

The named counters look their functions up by name.  A name that no
longer resolves to code raises :class:`HookError`, which fails the run:
a counter must not read 0, and so show a gain, because the function it
counted was renamed or restructured.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import defaultdict

MODULES = ("jets", "geometry", "factorable", "catalog", "verify", "cli", "rng")
LAYERS = MODULES + ("init", "other")
#: Per-layer metrics that rest on a module or a named hook.  One that read
#: non-zero on a workload when ``reference.json`` was recorded must not
#: read 0 there later; ``run.py`` fails the run if it does.
GUARDED = (
    "jets.calls", "jets.evals", "factorable.calls", "factorable.route_evals",
    "geometry.calls", "geometry.chart_evals", "geometry.parametric_evals",
    "geometry.point3d_calls", "catalog.calls", "catalog.inversions",
    "catalog.integrand_evals", "catalog.inversions_per_point", "catalog.builds",
    "catalog.build_s", "cli.calls", "cli.height_evals_per_point", "verify.calls",
    "verify.sample_grid_s", "verify.check_s", "rng.calls",
)


def _layer_of(module_name: str | None) -> str:
    if module_name == "isocurv":
        return "init"
    prefix, _, rest = (module_name or "").partition(".")
    return rest if prefix == "isocurv" and rest in MODULES else "other"


def _methods(mod):
    """Plain-function methods of the classes a module defines."""
    for cls in vars(mod).values():
        if inspect.isclass(cls) and cls.__module__ == mod.__name__:
            yield from (fn for fn in vars(cls).values() if inspect.isfunction(fn))


class HookError(RuntimeError):
    """A function that a counter looks for is not in the program."""


def _label(owner) -> str:
    return getattr(owner, "__name__", type(owner).__name__)


def _attr(mod, dotted: str):
    obj = mod
    for name in dotted.split("."):
        if not hasattr(obj, name):
            raise HookError(f"layer hook {_label(mod)}.{dotted} does not exist")
        obj = getattr(obj, name)
    return obj


def _codes(mod, *names: str) -> set:
    codes = set()
    for name in names:
        code = getattr(_attr(mod, name), "__code__", None)
        if code is None:
            raise HookError(f"layer hook {_label(mod)}.{name} is not a Python function")
        codes.add(code)
    return codes


class Attribution:
    """Maps profiler entries to layers; built once the package is imported."""

    def __init__(self) -> None:
        import isocurv

        self.package_dir = os.path.dirname(os.path.abspath(isocurv.__file__)) + os.sep
        self.by_code: dict = {}
        mods = {}
        for name in MODULES:
            try:
                mods[name] = importlib.import_module(f"isocurv.{name}")
            except ImportError as err:
                raise HookError(f"layer module isocurv.{name} cannot be imported: {err}") from err
        for mod in mods.values():
            for fn in _methods(mod):
                self.by_code[fn.__code__] = _layer_of(fn.__globals__.get("__name__"))
        jets, geometry, factorable = mods["jets"], mods["geometry"], mods["factorable"]
        catalog, verify = mods["catalog"], mods["verify"]
        integral = _codes(catalog, "build_integral_family").pop()
        registry = _attr(catalog, "REGISTRY")
        self.hooks = {
            "jet_evals": _codes(jets, "eval_profile", "eval_field", "compose"),
            "field_evals": _codes(jets, "eval_field"),
            "routes": _codes(factorable, "afs1_curvatures", "afs2_curvatures"),
            "charts": _codes(geometry, "monge_z_curvatures", "monge_x_curvatures"),
            "parametric": _codes(geometry, "parametric_curvatures"),
            "point3d": _codes(geometry, "SurfaceChart.point3d"),
            "inversions": _codes(catalog, "_MonotoneTable.invert"),
            # The integrand is the lambda that build_integral_family hands
            # to its quadrature table.
            "integrand": {c for c in integral.co_consts
                          if inspect.iscode(c) and c.co_name == "<lambda>"},
            "builders": {_codes(spec, "builder").pop() for spec in registry.values()},
            "sample_grid": _codes(verify, "sample_grid"),
            "checks": _codes(verify, "check_constancy", "cross_validate",
                             "motion_invariance_check", "probe_instances", "ode_crosscheck"),
        }
        for hook in ("integrand", "builders"):
            if not self.hooks[hook]:
                raise HookError(f"layer hook {hook!r} finds no code in isocurv.catalog")

    def layer(self, code) -> str:
        if isinstance(code, str):
            return "other"
        known = self.by_code.get(code)
        if known is not None:
            return known
        if code.co_filename.startswith(self.package_dir):
            stem = os.path.basename(code.co_filename)[:-3]
            return "init" if stem == "__init__" else (stem if stem in MODULES else "other")
        return "other"

    def summarize(self, stats) -> dict:
        """Layer totals of one profiled pass (``cProfile.Profile.getstats()``)."""
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        by_code = {}
        for entry in stats:
            layer = self.layer(entry.code)
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
            by_code[entry.code] = entry

        def count(hook: str) -> int:
            return sum(by_code[c].callcount for c in self.hooks[hook] if c in by_code)

        def cumulative(hook: str) -> float:
            return sum(by_code[c].totaltime for c in self.hooks[hook] if c in by_code)

        grid_inside_checks = sum(
            sub.totaltime
            for c in self.hooks["checks"] if c in by_code
            for sub in (by_code[c].calls or ()) if sub.code in self.hooks["sample_grid"]
        )
        return {
            "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
            "calls": {layer: calls.get(layer, 0) for layer in LAYERS},
            "jet_evals": count("jet_evals"),
            "field_evals": count("field_evals"),
            "route_evals": count("routes"),
            "chart_evals": count("charts"),
            "parametric_evals": count("parametric"),
            "point3d_calls": count("point3d"),
            "inversions": count("inversions"),
            "integrand_evals": count("integrand"),
            "builds": count("builders"),
            "build_s": cumulative("builders"),
            "sample_grid_s": cumulative("sample_grid"),
            "check_s": cumulative("checks") - grid_inside_checks,
            "profiled_s": sum(self_s.values()),
        }
