"""Regression manifest: externally stated values, re-derived and compared.

The manifest is a JSON list of named checks.  Each entry records which
computation to run, its arguments, the expected value, and a plain
description of where the expectation comes from.  The library never
reads the expected values during computation; they exist only to be
compared against, so a drift in any engine shows up as a named failure.

The packaged file lives in ``data/regressions.json``; the environment
variable ``RSLAB_MANIFEST`` substitutes a different file, which is how
downstream users pin their own regression sets.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import charclass, holonomy, intersections
from .errors import InputError, NotApplicableError, check, integer
from .lie import RepSum

ENV_VAR = "RSLAB_MANIFEST"
DEFAULT_PATH = Path(__file__).resolve().parent / "data" / "regressions.json"


def encode(value):
    """JSON form of a computed value: an integral Fraction becomes an int,
    any other a "p/q" string; tuples become lists and dict keys strings."""
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise InputError(f"cannot encode a {type(value).__name__} as JSON")


def _as_int(value: Fraction) -> int:
    value = Fraction(value)
    check("integral value", value.denominator == 1, value=value)
    return int(value)


def _build(n: int, degrees: Sequence[int]) -> intersections.CIManifold:
    return intersections.build_within_limit(intersections.CISpec(n, tuple(degrees)))[0]


def _bind_ci(name: str, value: object) -> None:
    """TypeError unless ``value`` is an object of exactly _build's arguments."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object with keys n and degrees")
    try:
        inspect.signature(_build).bind(**value)
    except TypeError as exc:
        raise TypeError(f"{name}: {exc}") from None


# -- check implementations, one per library call ------------------------------
# Library functions are looked up on their module at call time, so a
# patched or traced function is the one that runs.


def _ci_number(field: str, n: int, degrees: Sequence[int]) -> int:
    value = getattr(intersections.ci_invariants(_build(n, degrees)), field)
    if value is None:
        raise NotApplicableError(f"no {field} in real dimension {2 * n}")
    return _as_int(value)


def _ci_rs_kernel(n: int, degrees: Sequence[int]) -> int:
    manifold = _build(n, degrees)
    report = intersections.ci_rs_kernel(manifold)
    if report.kernel_dim is None:
        raise NotApplicableError(
            f"{manifold.name}: the kernel is determined only when c1 = 0 and n >= 2"
        )
    return report.kernel_dim


def _ci_hodge_number(n: int, degrees: Sequence[int], p: int, q: int) -> int:
    manifold = _build(n, degrees)
    if not (0 <= integer(p, "p") <= n and 0 <= integer(q, "q") <= n):
        raise InputError(f"h^(p,q) needs 0 <= p, q <= {n}, got ({p}, {q})")
    return intersections.hodge_numbers(manifold)[p][q]


def _dimension_identities(real_dim: int) -> bool:
    return charclass.verify_dimension_identities(real_dim).all_matched


def _dims(rep: RepSum) -> List[int]:
    """Irreducible dimensions of ``rep``, one per copy, sorted."""
    dim = rep.system.weyl_dimension
    return sorted(d for w, mult in rep.terms.items() for d in [dim(w)] * mult)


def _summand_dims(kind: str, parameter: Optional[int] = None) -> List[int]:
    return _dims(holonomy.holonomy_model(kind, parameter).sigma_three_half().total)


def _graded_dims(kind: str, parameter: Optional[int] = None) -> Dict[str, List[int]]:
    model = holonomy.holonomy_model(kind, parameter)
    graded = model.sigma_three_half()
    if not graded.graded:
        raise NotApplicableError(f"{model.group} has no graded spin-3/2 bundle")
    return {"plus": _dims(graded.plus), "minus": _dims(graded.minus)}


def _model_count(method: str, kind: str, parameter: Optional[int] = None) -> int:
    return getattr(holonomy.holonomy_model(kind, parameter), method)()


def _qk_survivors(m: int) -> List[str]:
    return sorted(holonomy.qk_kernel_analysis(m).survivor_labels)


def _qk_kernel_formula(m: int) -> Optional[str]:
    return holonomy.qk_kernel_analysis(m).kernel_formula


def _sphere_casimir(n: int) -> str:
    return str(holonomy.sphere_check(n).casimir_value)


def _topological(formula: str, family: str, n=None, hodge=(), b2=None, b3=None,
                 b4_minus=None) -> int:
    data = holonomy.TopologicalInput(family, n, hodge, b2, b3, b4_minus)
    return getattr(holonomy, formula)(data)


def _symmetric_catalog() -> Dict[str, int]:
    return {
        e.name: e.kernel_dimension for e in holonomy.symmetric_space_catalog()
    }


def _product_rs_index(left: Dict[str, object], right: Dict[str, object]) -> int:
    sides = intersections.build_within_limit(
        *(intersections.CISpec(s["n"], tuple(s["degrees"])) for s in (left, right)))
    return _as_int(charclass.product_rs_index(*(m.profile for m in sides)))


def _product_parallel(left: Sequence[int], right: Sequence[int]) -> int:
    if not all(isinstance(c, list) and len(c) in (2, 3) for c in (left, right)):
        raise InputError("left and right must each be a list of 2 or 3 parallel counts")
    report = holonomy.product_parallel_rs(
        holonomy.ParallelCounts(*left), holonomy.ParallelCounts(*right)
    )
    return report.count


def _wang_cy4_b4minus(n: int, degrees: Sequence[int]) -> int:
    """Anti-self-dual middle Betti number of a Calabi-Yau fourfold, two ways.

    Route one: b4 from the Hodge table minus the signature, halved.
    Route two: the stated relation b2 + 2 h^{1,3} - 1.  They must agree
    before either is reported.
    """
    if n != 4:
        raise InputError("this relation is specific to fourfolds")
    manifold = _build(n, degrees)
    table = intersections.hodge_numbers(manifold)
    sigma = _as_int(intersections.ci_invariants(manifold).signature)
    b4 = sum(table[p][4 - p] for p in range(5))
    b2 = sum(table[p][2 - p] for p in range(3))
    via_signature = Fraction(b4 - sigma, 2)
    via_hodge = b2 + 2 * table[1][3] - 1
    check("b4- of a Calabi-Yau fourfold", via_signature == via_hodge, n=n, degrees=degrees,
          **{"(b4 - signature)/2": via_signature, "b2 + 2 h13 - 1": via_hodge})
    return _as_int(via_signature)


CHECKS: Dict[str, Callable[..., object]] = {
    "ci_signature": partial(_ci_number, "signature"),
    "ci_euler": partial(_ci_number, "euler"),
    "ci_ahat": partial(_ci_number, "ahat"),
    "ci_rs_index": partial(_ci_number, "rs_index"),
    "ci_rs_kernel": _ci_rs_kernel,
    "ci_hodge_number": _ci_hodge_number,
    "dimension_identities": _dimension_identities,
    "holonomy_summand_dims": _summand_dims,
    "holonomy_graded_dims": _graded_dims,
    "parallel_rs": partial(_model_count, "parallel_rs_dimension"),
    "parallel_spinors": partial(_model_count, "parallel_spinor_dimension"),
    "qk_survivors": _qk_survivors,
    "qk_kernel_formula": _qk_kernel_formula,
    "sphere_casimir": _sphere_casimir,
    "topological_kernel": partial(_topological, "kernel_dimension"),
    "topological_index": partial(_topological, "family_index"),
    "symmetric_catalog": _symmetric_catalog,
    "spin7_identity": holonomy.spin7_betti_identity,
    "hk_identity": holonomy.hyperkahler_kernel_identity,
    "product_rs_index": _product_rs_index,
    "product_parallel": _product_parallel,
    "wang_cy4_b4minus": _wang_cy4_b4minus,
}
# arguments that are themselves complete intersections, bound to _build at load
_CI_ARGS = {"product_rs_index": ("left", "right")}


@dataclass(frozen=True)
class ManifestEntry:
    entry_id: str
    description: str
    check: str
    args: Dict[str, object]
    expected: object
    source: str


@dataclass(frozen=True)
class ManifestResult:
    entry: ManifestEntry
    actual: object
    passed: bool
    error: Optional[str] = None


class RegressionManifest:
    """A loaded set of regression checks, runnable as a unit."""

    def __init__(self, entries: Sequence[ManifestEntry], path: Path) -> None:
        self.entries = tuple(entries)
        self.path = path
        ids = [e.entry_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise InputError(f"duplicate entry ids in manifest {path}")

    @classmethod
    def load(cls, path: Optional[str] = None) -> "RegressionManifest":
        chosen = Path(path or os.environ.get(ENV_VAR) or DEFAULT_PATH)
        try:
            raw = json.loads(chosen.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise InputError(f"manifest file not found: {chosen}")
        except json.JSONDecodeError as exc:
            raise InputError(f"manifest {chosen} is not valid JSON: {exc}")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read manifest {chosen}: {exc}")
        if not isinstance(raw, list):
            raise InputError("manifest must be a JSON list of entries")
        entries = []
        for index, item in enumerate(raw):
            where = f"manifest entry {index}"
            if not isinstance(item, dict):
                raise InputError(f"{where} is not an object")
            missing = {"id", "description", "check", "args", "expected", "source"} - set(item)
            if missing:
                raise InputError(f"{where} missing fields: {sorted(missing)}")
            if not all(isinstance(item[k], str) for k in ("id", "description", "check", "source")):
                raise InputError(f"{where}: id, description, check and source must be strings")
            if not isinstance(item["args"], dict):
                raise InputError(f"{where}: args must be an object")
            if item["check"] not in CHECKS:
                raise InputError(f"{where}: unknown check {item['check']!r}")
            try:
                bound = inspect.signature(CHECKS[item["check"]]).bind(**item["args"])
                for name in _CI_ARGS.get(item["check"], ()):
                    _bind_ci(name, bound.arguments[name])
            except TypeError as exc:
                raise InputError(f"{where}: bad args for {item['check']}: {exc}")
            entries.append(
                ManifestEntry(
                    entry_id=item["id"],
                    description=item["description"],
                    check=item["check"],
                    args=dict(item["args"]),
                    expected=item["expected"],
                    source=item["source"],
                )
            )
        return cls(entries, chosen)

    def run(self, id_filter: Optional[str] = None) -> List[ManifestResult]:
        results = []
        for index, entry in enumerate(self.entries):
            if id_filter is not None and id_filter not in entry.entry_id:
                continue
            try:
                actual = encode(CHECKS[entry.check](**entry.args))
            except (InputError, NotApplicableError) as exc:  # the entry's args are bad input
                raise InputError(f"manifest entry {index} ({entry.entry_id!r}): {exc}") from exc
            except Exception as exc:  # a failing check must not stop the run
                results.append(
                    ManifestResult(
                        entry=entry,
                        actual=None,
                        passed=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            results.append(
                ManifestResult(entry=entry, actual=actual, passed=actual == entry.expected)
            )
        return results
