"""Per-layer tracing of rslab from outside: wrap layer entry points, time spans.

``Tracer.install`` replaces each entry point listed in ``SPANS`` with a
timing wrapper.  A function is replaced under every name rslab looks it up
by (``from .x import y`` copies it into other modules), and a method is
replaced on its class.  Spans nest; a span's self time is its duration
minus the time its child spans cover.  ``uninstall`` restores everything.

``layer_metrics`` turns the collected statistics into the per-layer metrics
named in BENCHMARK.json, always emitting every name (0 where a layer did
not run).
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _genus_span(genus, profile):
    name = genus if isinstance(genus, str) else genus.name
    return "charclass.chi_y" if name == "CHI_Y" else "charclass.genus_1var"


def _failed_entries(results):
    return sum(1 for r in results if not r.passed)


# (span name or chooser, module, attribute, repeat key, size of result)
SPANS = (
    ("exactpoly.mul", "rslab.exactpoly", "TruncatedPoly.__mul__", None,
     lambda r: len(r.coeffs)),
    ("exactpoly.series_inverse", "rslab.exactpoly", "series_inverse", None, None),
    ("exactpoly.series_exp", "rslab.exactpoly", "series_exp", None, None),
    ("exactpoly.series_log", "rslab.exactpoly", "series_log", None, None),
    ("charclass.genus_spec", "rslab.charclass", "genus_spec",
     lambda name, order: (name, order), None),
    (_genus_span, "rslab.charclass", "evaluate_genus", None, None),
    ("charclass.rs_index", "rslab.charclass", "rs_index", None, None),
    ("intersections.build_ci", "rslab.intersections", "build_ci", None, None),
    ("intersections.ci_invariants", "rslab.intersections", "ci_invariants", None, None),
    ("intersections.hodge_numbers", "rslab.intersections", "hodge_numbers", None, None),
    ("intersections.fermat_signature", "rslab.intersections", "fermat_signature",
     None, None),
    ("intersections.ci_rs_kernel", "rslab.intersections", "ci_rs_kernel", None, None),
    ("lie.weyl_dimension", "rslab.lie", "RootSystem.weyl_dimension",
     lambda system, lam: (system.name, tuple(lam)), None),
    ("lie.freudenthal", "rslab.lie", "RootSystem.dominant_weight_multiplicities",
     None, None),
    ("lie.weight_system", "rslab.lie", "RootSystem.weight_multiplicities", None, len),
    ("lie.to_dominant", "rslab.lie", "RootSystem.to_dominant", None, None),
    ("lie.tensor_decompose", "rslab.lie", "tensor_decompose", None, None),
    ("lie.casimir", "rslab.lie", "RootSystem.casimir", None, None),
    ("holonomy.model_build", "rslab.holonomy", "holonomy_model",
     lambda kind, parameter=None: (kind.strip().lower(), parameter), None),
    ("holonomy.sigma_three_half", "rslab.holonomy", "HolonomyModel.sigma_three_half",
     None, None),
    ("holonomy.qk_kernel_analysis", "rslab.holonomy", "qk_kernel_analysis", None, None),
    ("holonomy.sphere_check", "rslab.holonomy", "sphere_check", None, None),
    ("manifest.load", "rslab.manifest", "RegressionManifest.load", None, None),
    ("manifest.run", "rslab.manifest", "RegressionManifest.run", None,
     _failed_entries),
    ("cli.main", "rslab.cli", "main", None, None),
)


class Stat:
    __slots__ = ("calls", "self_s", "keys", "repeats", "size")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.keys = set()
        self.repeats = 0
        self.size = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "repeats": self.repeats,
            "size": self.size,
        }


class Tracer:
    def __init__(self) -> None:
        self.stats: dict = {}
        self._children: list = []  # child time of each open span, innermost last
        self._undo: list = []

    def _stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def _wrap(self, fn, name, key, size):
        children = self._children
        fixed = None if callable(name) else self._stat(name)
        stat_for = self._stat

        def traced(*args, **kwargs):
            stat = fixed or stat_for(name(*args, **kwargs))
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - inner
            if key is not None:
                k = key(*args, **kwargs)
                if k in stat.keys:
                    stat.repeats += 1
                else:
                    stat.keys.add(k)
            if size is not None:
                stat.size += size(result)
            return result

        return traced

    def install(self) -> "Tracer":
        for name, module_name, attribute, key, size in SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._wrap(fn, name, key, size)
                replacement = classmethod(wrapped) if is_classmethod else wrapped
                # __rmul__ is __mul__, so patch every name bound to the object
                for other, value in list(owner.__dict__.items()):
                    if value is raw:
                        self._patch(owner, other, value, replacement)
            else:
                fn = getattr(module, attr)
                wrapped = self._wrap(fn, name, key, size)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded_name != "rslab" and not loaded_name.startswith("rslab."):
                        continue
                    for other, value in list(vars(loaded).items()):
                        if value is fn:
                            self._patch(loaded, other, value, wrapped)
        return self

    def _patch(self, owner, name, old, new) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def snapshot(self) -> dict:
        return {name: stat.as_dict() for name, stat in self.stats.items()}


def merge(snapshots) -> dict:
    """Sum snapshots taken in separate processes (repeats stay per process)."""
    out: dict = {}
    for snap in snapshots:
        for name, fields in snap.items():
            acc = out.setdefault(name, dict.fromkeys(fields, 0))
            for field, value in fields.items():
                acc[field] += value
    return out


_EMPTY = {"calls": 0, "self_s": 0.0, "repeats": 0, "size": 0}


def layer_metrics(snapshot: dict, cli_startup_s: float, cli_output_bytes: int) -> dict:
    """Every per-layer metric of one pass, by name (values only)."""

    def get(name, field):
        return snapshot.get(name, _EMPTY)[field]

    def ratio(name, field):
        calls = get(name, "calls")
        return get(name, field) / calls if calls else 0.0

    metrics = {}
    for span in (
        "exactpoly.mul", "exactpoly.series_inverse", "charclass.genus_spec",
        "intersections.hodge_numbers", "lie.weyl_dimension", "lie.freudenthal",
        "lie.to_dominant", "lie.tensor_decompose", "holonomy.model_build",
    ):
        metrics[f"{span}.calls"] = get(span, "calls")
    for span in (
        "exactpoly.mul", "exactpoly.series_inverse", "exactpoly.series_exp",
        "exactpoly.series_log", "charclass.genus_spec", "charclass.chi_y",
        "charclass.genus_1var", "charclass.rs_index", "intersections.build_ci",
        "intersections.hodge_numbers", "intersections.ci_invariants",
        "intersections.fermat_signature", "intersections.ci_rs_kernel",
        "lie.weyl_dimension", "lie.freudenthal", "lie.to_dominant",
        "lie.tensor_decompose", "lie.casimir", "holonomy.model_build",
        "holonomy.sigma_three_half", "holonomy.qk_kernel_analysis",
        "holonomy.sphere_check", "manifest.load", "manifest.run", "cli.main",
    ):
        metrics[f"{span}.self_s"] = get(span, "self_s")
    for span in ("charclass.genus_spec", "lie.weyl_dimension", "holonomy.model_build"):
        metrics[f"{span}.repeat_ratio"] = ratio(span, "repeats")
    metrics["exactpoly.terms_out.mean"] = ratio("exactpoly.mul", "size")
    metrics["lie.weight_system.size_sum"] = get("lie.weight_system", "size")
    metrics["manifest.entries.failed"] = get("manifest.run", "size")
    metrics["cli.startup_s"] = cli_startup_s
    metrics["cli.output_bytes"] = cli_output_bytes
    return metrics
