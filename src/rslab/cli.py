"""Command-line front end.

Subcommands
-----------
ci            complete-intersection invariants, Hodge tables, kernel reports
holonomy      spin-3/2 decomposition for a holonomy group, plus kernel data
rep           weight queries: dimension, Casimir, multiplicities, tensors
sphere        round-sphere Casimir positivity check
product       index and parallel-count bookkeeping for Riemannian products
verify-paper  run the checked-in regression manifest

Every run is deterministic: identical inputs produce byte-identical
output.  Exact rationals are rendered as integers when the denominator
is 1 and as "p/q" strings otherwise; floats never appear.

Exit codes: 0 success, 1 consistency or regression failure, 2 usage error,
141 when the reader of stdout goes away early (``rslab ... | head``; the
status a shell reports for a SIGPIPE exit), with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .charclass import product_rs_index
from .errors import ConsistencyError, InputError, NotApplicableError, check
from .holonomy import (
    HOLONOMY_KINDS,
    KIND_FAMILIES,
    PARAMETER_RANGES,
    SPHERE_LIMIT,
    HolonomyModel,
    ParallelCounts,
    TopologicalInput,
    family_index,
    holonomy_model,
    kernel_dimension,
    product_parallel_rs,
    qk_kernel_analysis,
    sphere_check,
)
from .intersections import (
    CI_LIMIT,
    HODGE_LIMIT,
    CISpec,
    build_within_limit,
    ci_invariants,
    ci_rs_kernel,
    fermat_signature,
    hodge_numbers,
)
from .lie import (
    WEIGHT_TABLE_LIMIT,
    RepSum,
    RootSystem,
    g2,
    product_system,
    tensor_decompose,
    type_a,
    type_b,
    type_c,
    type_d,
)
from .manifest import RegressionManifest, encode


# ---------------------------------------------------------------------------
# output


def _render(value: Any, indent: int = 0) -> List[str]:
    """Human-readable tree, one line per scalar, insertion order."""
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, dict) or (
                isinstance(item, list) and any(isinstance(x, (dict, list)) for x in item)
            ):
                lines.append(f"{pad}{key}:")
                lines.extend(_render(item, indent + 1))
            elif isinstance(item, list):
                lines.append(f"{pad}{key}: [{', '.join(str(x) for x in item)}]")
            else:
                lines.append(f"{pad}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            lines.append(f"{pad}-")
            lines.extend(_render(item, indent + 1))
    else:
        lines.append(f"{pad}{value}")
    return lines


def _emit(args: argparse.Namespace, results: Dict[str, Any], citations: Sequence[str] = ()) -> None:
    """Print the results; with --json, in an envelope echoing every parsed option."""
    inputs = {k: v for k, v in vars(args).items() if k not in ("subcommand", "handler", "json")}
    envelope = {
        "command": args.subcommand,
        "inputs": encode(inputs),
        "results": encode(results),
        "citations": list(citations),
    }
    if args.json:
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in _render(envelope["results"]):
            print(line)


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_int_list(text: str) -> List[int]:
    """Comma-separated ints: the argparse type of ``-d`` and ``--hodge``, and the
    degrees of an ``n:d1,d2`` token, whose misses ``main`` reports."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _parse_fraction_list(text: str) -> Tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational list {text!r}") from exc


def _parse_system(token: str) -> RootSystem:
    factors = token.lower().split("x")
    if not all(factors):
        raise InputError(f"empty factor in system token {token!r}")
    systems = [_parse_system_factor(part) for part in factors]
    if len(systems) == 1:
        return systems[0]
    return product_system(*systems)


# a<r> has rank r in r+1 GL coordinates
_SYSTEM_FACTORIES = {"a": lambda rank: type_a(rank + 1), "b": type_b, "c": type_c, "d": type_d}


def _parse_system_factor(tag: str) -> RootSystem:
    if tag == "g2":
        return g2()
    kind, rank_text = tag[:1], tag[1:]
    if kind not in _SYSTEM_FACTORIES or not rank_text.isdigit():
        raise InputError(
            f"unknown system {tag!r}; use a<r>, b<r>, c<r>, d<r>, g2, "
            "or an x-joined product like c1xc2"
        )
    return _SYSTEM_FACTORIES[kind](int(rank_text))


def _parse_ci_token(token: str) -> CISpec:
    """``n:d1,d2,...`` such as ``2:4`` for the quartic surface."""
    head, sep, tail = token.partition(":")
    if not sep or not head.strip().isdigit():
        raise InputError(f"bad complete-intersection token {token!r}; use n:d1,d2,...")
    return CISpec(int(head), tuple(_parse_int_list(tail)))


def _parse_holonomy_token(token: str) -> HolonomyModel:
    """``g2``, ``spin7``, or ``kind:parameter`` such as ``sp:2``."""
    head, sep, tail = token.partition(":")
    if not sep:
        return holonomy_model(head)
    if not tail.strip().isdigit():
        raise InputError(f"bad holonomy token {token!r}; use kind:parameter")
    return holonomy_model(head, int(tail))


def _entries(rep: RepSum) -> List[Dict[str, Any]]:
    dim = rep.system.weyl_dimension
    return [
        {"weight": [str(c) for c in w], "multiplicity": m, "dimension": dim(w)}
        for w, m in rep.sorted_terms()
    ]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ci(args: argparse.Namespace) -> int:
    (manifold,) = build_within_limit(CISpec(args.n, tuple(args.degrees)))
    inv = ci_invariants(manifold)
    results: Dict[str, Any] = {
        "manifold": manifold.name,
        "complex_dimension": args.n,
        "real_dimension": 2 * args.n,
        "codimension": len(args.degrees),
        "total_degree": manifold.total_degree,
        "spin": manifold.spin,
        "c1_sign": manifold.c1_sign,
        "invariants": {
            "euler": inv.euler,
            "signature": inv.signature,
            "ahat": inv.ahat,
            "dirac_index": inv.dirac_index,
            "dirac_tangent_index": inv.dirac_tangent_index,
            "rs_index": inv.rs_index,
        },
    }
    if args.method in ("series", "both"):
        if len(args.degrees) != 1:
            raise NotApplicableError(
                "the series signature route applies to hypersurfaces only"
            )
        series_value = fermat_signature(args.n, args.degrees[0])
        results["signature_by_series"] = series_value
        if args.method == "both":
            check("signature routes", series_value == inv.signature, spec=manifold.spec,
                  characteristic_classes=inv.signature, series=series_value)
    if args.hodge:
        results["hodge_table"] = [list(row) for row in hodge_numbers(manifold)]
    if args.kernel:
        report = ci_rs_kernel(manifold)
        bounded = report.kernel_lower_bound is not None
        optional = (
            ("kernel_dimension", report.kernel_dim),
            ("index_from_hodge", report.index_from_hodge),
            ("kernel_lower_bound", report.kernel_lower_bound),
            ("nontrivial_on_spinor_image", report.nontrivial_on_im_p if bounded else None),
            ("index_differs_from_dirac", report.index_differs_from_dirac),
            ("ke_positive_window", report.ke_positive_window),
        )
        results["kernel"] = {"index": report.index, "note": report.note}
        results["kernel"].update((key, value) for key, value in optional if value is not None)
    _emit(args, results)
    return 0


def _topological_data(args: argparse.Namespace) -> Optional[TopologicalInput]:
    hodge = tuple(args.hodge) if args.hodge else ()
    if not hodge and (args.b2, args.b3, args.b4minus) == (None, None, None):
        return None
    if args.kind not in KIND_FAMILIES:
        raise InputError(f"no kernel formula is wired up for holonomy kind {args.kind!r}")
    # the parameter is n for every family that takes one, None for g2 and spin7
    return TopologicalInput(
        KIND_FAMILIES[args.kind], args.parameter, hodge, args.b2, args.b3, args.b4minus
    )


def _cmd_holonomy(args: argparse.Namespace) -> int:
    model = holonomy_model(args.kind, args.parameter)
    sigma = model.sigma_three_half()
    results: Dict[str, Any] = {
        "group": model.group,
        "real_dimension": model.real_dimension,
        "spin32_dimension": sigma.total.dimension,
        "summands": _entries(sigma.total),
        "parallel_spinors": model.parallel_spinor_dimension(),
        "parallel_rs_fields": model.parallel_rs_dimension(),
    }
    if sigma.graded:
        results["graded"] = {"plus": _entries(sigma.plus), "minus": _entries(sigma.minus)}
    if args.kind == "sp1sp":
        qk = qk_kernel_analysis(args.parameter)
        results["curvature_bounds"] = [
            {
                "summand": entry.summand.label(),
                "dimension": entry.dimension,
                "bound": entry.bound,
            }
            for entry in qk.entries
        ]
        results["survivors"] = list(qk.survivor_labels)
        results["kernel_formula"] = qk.kernel_formula
    data = _topological_data(args)
    if data is not None:
        block: Dict[str, Any] = {"kernel_dimension": kernel_dimension(data)}
        try:
            block["rs_index"] = family_index(data)
        except NotApplicableError as exc:
            block["rs_index"] = None
            block["index_note"] = str(exc)
        results["topology"] = block
    _emit(args, results)
    return 0


def _cmd_rep(args: argparse.Namespace) -> int:
    system = _parse_system(args.system)
    lam = _parse_fraction_list(args.weight)
    mu = _parse_fraction_list(args.tensor) if args.tensor else None
    dim = system.weyl_dimension(lam)
    results: Dict[str, Any] = {
        "system": system.name,
        "weight": [str(c) for c in lam],
        "dimension": dim,
        "casimir": system.casimir(lam),
    }
    # the weight systems this request builds: lam's for --multiplicities and
    # --point, and Klimyk's smaller factor (mu on a tie) for --tensor
    built = [(dim, lam)] if args.multiplicities or args.point else []
    if mu is not None:
        built.append(min((system.weyl_dimension(mu), mu), (dim, lam), key=lambda pair: pair[0]))
    for size, weight in built:
        if size * system.coords > WEIGHT_TABLE_LIMIT:
            shown = ", ".join(map(str, weight))
            raise InputError(
                f"weight systems need dimension x coordinates <= {WEIGHT_TABLE_LIMIT}, "
                f"got {size} x {system.coords} = {size * system.coords} for ({shown})"
            )
    if args.multiplicities or args.point:
        weights = {
            system.from_labels(nu, lam): m for nu, m in system.weight_multiplicities(lam).items()
        }
    if args.multiplicities:
        results["weights"] = [
            {"weight": [str(c) for c in w], "multiplicity": m} for w, m in sorted(weights.items())
        ]
    if mu is not None:
        product = tensor_decompose(system, lam, mu)
        results["tensor_with"] = [str(c) for c in mu]
        results["tensor_decomposition"] = _entries(product)
        results["tensor_dimension"] = product.dimension
    if args.point:
        point = _parse_fraction_list(args.point)
        if len(point) != system.coords:
            raise InputError(
                f"{system.name} points take {system.coords} coordinates, got {len(point)}"
            )
        # moments sum(mult * <nu, point>^k), k = 0..4, over the weights nu of V(lam)
        values = [
            (sum((a * b for a, b in zip(nu, point)), Fraction(0)), m) for nu, m in weights.items()
        ]
        results["character_moments"] = [
            str(sum((m * v**k for v, m in values), Fraction(0))) for k in range(5)
        ]
    _emit(args, results)
    return 0


def _cmd_sphere(args: argparse.Namespace) -> int:
    top = args.n if args.upto is None else args.upto
    if top > SPHERE_LIMIT:
        raise InputError(f"sphere checks stop at n = {SPHERE_LIMIT}, got {top}")
    if args.upto is not None:
        if args.upto < 3:
            raise InputError("--upto must be at least 3")
        dims = list(range(3, args.upto + 1))
    else:
        dims = [args.n]
    checks = []
    for n in dims:
        chk = sphere_check(n)
        checks.append(
            {
                "n": chk.n,
                "realization": chk.realization,
                "casimir": chk.casimir_value,
                "positivity_threshold": chk.positivity_threshold,
                "margin": chk.margin,
            }
        )
    results = {"checks": checks, "all_margins_positive": True}
    _emit(args, results)
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    sides = ("left", "right")
    if args.mode == "ci":
        manifolds = build_within_limit(_parse_ci_token(args.left), _parse_ci_token(args.right))
        invariants = [ci_invariants(m) for m in manifolds]
        results: Dict[str, Any] = {
            side: {"manifold": m.name, "rs_index": inv.rs_index, "dirac_index": inv.dirac_index}
            for side, m, inv in zip(sides, manifolds, invariants)
        }
        results["product_rs_index"] = product_rs_index(*(m.profile for m in manifolds))
    else:
        models = [_parse_holonomy_token(args.left), _parse_holonomy_token(args.right)]
        counts = [
            ParallelCounts(
                m.parallel_spinor_dimension(), m.parallel_rs_dimension(), m.real_dimension
            )
            for m in models
        ]
        report = product_parallel_rs(*counts)
        results = {
            side: {
                "group": model.group,
                "parallel_spinors": c.spinors,
                "parallel_rs_fields": c.rs_fields,
            }
            for side, model, c in zip(sides, models, counts)
        }
        results.update(
            parallel_rs_fields=report.count, proven=report.proven, note=report.note
        )
    _emit(args, results)
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    manifest = RegressionManifest.load()
    outcomes = manifest.run(id_filter=args.filter)
    if not outcomes:
        raise InputError(f"no manifest entries match {args.filter!r}")
    rows: List[Dict[str, Any]] = []
    citations: List[str] = []
    seen = set()
    failures = 0
    for outcome in outcomes:
        entry = outcome.entry
        row: Dict[str, Any] = {
            "id": entry.entry_id,
            "description": entry.description,
            "passed": outcome.passed,
            "expected": entry.expected,
            "actual": outcome.actual,
        }
        if outcome.error is not None:
            row["error"] = outcome.error
        rows.append(row)
        if entry.source not in seen:
            seen.add(entry.source)
            citations.append(entry.source)
        if not outcome.passed:
            failures += 1
    results = {"entries": rows, "total": len(rows), "failures": failures}
    if args.json:
        _emit(args, results, citations)
    else:
        width = max(len(row["id"]) for row in rows)
        for row in rows:
            status = "PASS" if row["passed"] else "FAIL"
            line = f"{status}  {row['id']:<{width}}  {row['description']}"
            if not row["passed"]:
                detail = row.get("error") or (
                    f"expected {row['expected']!r}, got {row['actual']!r}"
                )
                line += f"  [{detail}]"
            print(line)
        print(f"{len(rows)} entries, {failures} failures")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rslab",
        description="Exact index and kernel computations for the spin-3/2 operator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    ci = sub.add_parser("ci", help="complete-intersection invariants")
    ci.add_argument(
        "-n", type=int, required=True, help=f"complex dimension (at most {CI_LIMIT})"
    )
    ci.add_argument(
        "-d",
        "--degree",
        dest="degrees",
        metavar="DEGREE",
        action="extend",
        type=_parse_int_list,
        required=True,
        help="hypersurface degree; repeat or comma-separate for higher codimension",
    )
    ci.add_argument(
        "--method",
        choices=("chern", "series", "both"),
        default="chern",
        help="signature route: characteristic classes, series extraction, or both",
    )
    ci.add_argument(
        "--hodge", action="store_true", help=f"include the Hodge table (n at most {HODGE_LIMIT})"
    )
    ci.add_argument("--kernel", action="store_true", help="include the kernel report")
    ci.add_argument("--json", action="store_true")
    ci.set_defaults(handler=_cmd_ci)

    hol = sub.add_parser("holonomy", help="spin-3/2 bundle of a holonomy group")
    hol.add_argument("kind", choices=HOLONOMY_KINDS)
    ranges = ", ".join(f"{kind} {lo}-{hi}" for kind, (lo, hi) in PARAMETER_RANGES.items())
    hol.add_argument(
        "parameter",
        nargs="?",
        type=int,
        default=None,
        help=f"n, or m for sp1sp; none for g2 and spin7 (admitted: {ranges})",
    )
    hol.add_argument("--b2", type=int, default=None)
    hol.add_argument("--b3", type=int, default=None)
    hol.add_argument("--b4minus", type=int, default=None)
    hol.add_argument(
        "--hodge",
        type=_parse_int_list,
        default=None,
        help="comma-separated Hodge inputs for the CY and HK kernel formulas",
    )
    hol.add_argument("--json", action="store_true")
    hol.set_defaults(handler=_cmd_holonomy)

    rep = sub.add_parser("rep", help="weight queries for a root system")
    rep.add_argument(
        "system",
        help="a<r>, b<r>, c<r>, d<r>, g2, or an x-joined product such as c1xc2",
    )
    rep.add_argument(
        "--weight",
        required=True,
        help="highest weight, comma-separated Euclidean coordinates "
        "(type a<r> uses r+1 coordinates)",
    )
    rep.add_argument("--tensor", default=None, help="second highest weight")
    rep.add_argument(
        "--multiplicities", action="store_true", help="list the full weight system"
    )
    rep.add_argument(
        "--point", default=None, help="evaluation point for character moments"
    )
    rep.add_argument("--json", action="store_true")
    rep.set_defaults(handler=_cmd_rep)

    sph = sub.add_parser("sphere", help="round-sphere Casimir positivity check")
    group = sph.add_mutually_exclusive_group(required=True)
    group.add_argument("-n", type=int, help=f"single dimension, 3 to {SPHERE_LIMIT}")
    group.add_argument(
        "--upto", type=int, help=f"check every dimension from 3 to UPTO (at most {SPHERE_LIMIT})"
    )
    sph.add_argument("--json", action="store_true")
    sph.set_defaults(handler=_cmd_sphere)

    prod = sub.add_parser("product", help="Riemannian product bookkeeping")
    prod.add_argument("mode", choices=("ci", "holonomy"))
    prod.add_argument(
        "left",
        help=f"n:d1,d2,... (n1 + n2 at most {CI_LIMIT}) or a holonomy token like sp:2",
    )
    prod.add_argument("right")
    prod.add_argument("--json", action="store_true")
    prod.set_defaults(handler=_cmd_product)

    verify = sub.add_parser("verify-paper", help="run the regression manifest")
    verify.add_argument("--filter", default=None, help="substring filter on entry ids")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=_cmd_verify_paper)

    return parser


def _glue_negative_values(argv: Sequence[str]) -> List[str]:
    """Glue a value that starts with one minus sign to the ``--weight``,
    ``--tensor`` or ``--point`` before it (``--weight -1,0`` becomes
    ``--weight=-1,0``), which argparse would read as an option.  Any prefix
    argparse resolves to one of them counts (``--wei``; no other ``rep``
    option starts with w, t or p).  A ``--`` option stays one, so
    ``--weight --json`` is still a usage error."""
    glued: List[str] = []
    for arg in argv:
        signed = arg[:1] == "-" and arg[1:2] != "-"
        option = glued[-1] if glued else ""
        if signed and len(option) > 2 and any(
                name.startswith(option) for name in ("--weight", "--tensor", "--point")):
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    return glued


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (InputError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # send what is still buffered to devnull, so the exit-time flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
