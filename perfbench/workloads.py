"""The three benchmark workloads: their request sets, and how a request runs.

Each workload is a fixed set of requests.  The benchmark's ``--seed`` only
orders that set, so every seed does the same work and ``digests.json`` pins
the answer of every request.  The sets that look random (tensor pairs,
sphere dimensions, complete intersections) are drawn once with
``UNIVERSE_SEED``, which is part of the workload definition.

A request is a JSON list:

    ["holonomy", kind, parameter]        Sigma_3/2 and both parallel counts
    ["tensor", system, labels, labels]   Klimyk decomposition, Dynkin labels
    ["sphere", n]                        round-sphere Casimir check
    ["ci", n, [d1, ...]]                 invariants, Hodge table, kernel
    ["cli", "holonomy su 8"]             one ``python -m rslab.cli ... --json``

``execute`` runs an in-process request and returns its canonical output;
``digest`` hashes that output with every rational written as exact ``p/q``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("rep-cold", "ci-tower", "cli-session")
UNIVERSE_SEED = 180410602

# Every holonomy model the rep-cold workload builds, once per process.
HOLONOMY_MODELS = (
    [["su", n] for n in range(2, 9)]
    + [["u", n] for n in range(2, 6)]
    + [["sp", n] for n in range(1, 7)]
    + [["sp1sp", m] for m in range(2, 7)]
    + [["so", n] for n in range(3, 13)]
    + [["g2", None], ["spin7", None]]
)

# system token -> (rank, largest label sum, Dynkin labels the small factor
# may take or None for any, pairs drawn).  The small factor keeps each
# Klimyk sum cheap enough that holonomy models, not tensor pairs, fill the
# latency tail.
_TENSOR_DRAWS = {
    "B3": (3, 2, None, 10),
    "G2": (2, 2, None, 8),
    "A7": (7, 1, ((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)), 8),
    "C6": (6, 1, ((1, 0, 0, 0, 0, 0),), 4),
    "C1xC6": (7, 1, ((1, 0, 0, 0, 0, 0, 0),), 6),
}
_SPHERE_RANGE = range(3, 37)
_SPHERE_DRAWS = 30

# complex dimension -> how many complete intersections of that dimension
# ci-tower holds.  Most are small, so the one-variable genera set the
# median; a few large ones make the two-variable chi_y series set the tail.
_CI_COUNTS = {
    2: 15, 3: 14, 4: 14, 5: 14, 6: 10, 7: 10, 8: 10,
    9: 3, 10: 3, 11: 3, 12: 1, 13: 1, 14: 1, 16: 1,
}

# The README's command list, then full and filtered verify-paper, then the
# heavy commands.  verify-paper rebuilds g2, spin7, sp(2), su(3) and
# sp1sp(2) inside one process, the only repeated inputs of any workload.
CLI_COMMANDS = (
    "ci -n 2 -d 4 --kernel --hodge",
    "ci -n 4 -d 4 --method both",
    "holonomy g2",
    "holonomy spin7 --b2 4 --b3 33 --b4minus 60",
    "holonomy sp1sp 2 --b2 3",
    "rep b3 --weight 3/2,1/2,1/2",
    "rep g2 --weight 0,-1,1 --tensor 0,-1,1",
    "sphere --upto 20",
    "product ci 2:4 2:4",
    "product holonomy sp:2 sp:2",
    "verify-paper --filter signature",
    "verify-paper",
    "verify-paper --filter spin32",
    "verify-paper --filter parallel",
    "verify-paper --filter qk",
    "verify-paper --filter hodge",
    "verify-paper --filter rs-",
    "verify-paper --filter identities",
    "holonomy su 8",
    "ci -n 16 -d 18 --hodge",
)
README_COMMANDS = CLI_COMMANDS[:11]


def _system(token: str):
    from rslab import lie

    factories = {
        "B3": lambda: lie.type_b(3),
        "C6": lambda: lie.type_c(6),
        "A7": lambda: lie.type_a(8),
        "C1xC6": lambda: lie.product_system(lie.type_c(1), lie.type_c(6)),
        "G2": lie.g2,
    }
    return factories[token]()


def _weight(system, labels) -> tuple:
    """Euclidean coordinates of the weight with these Dynkin labels."""
    total = [Fraction(0)] * system.coords
    for a, fundamental in zip(labels, system.fundamental_weights):
        for i, x in enumerate(fundamental):
            total[i] += a * x
    return tuple(total)


def _tensor_requests(rng: random.Random) -> list:
    out = []
    for token, (rank, largest, smalls, draws) in _TENSOR_DRAWS.items():
        labels = [
            v for v in itertools.product(range(largest + 1), repeat=rank)
            if 0 < sum(v) <= largest
        ]
        pairs = sorted(
            {tuple(sorted((a, b))) for a in smalls or labels for b in labels}
        )
        for a, b in rng.sample(pairs, draws):
            out.append(["tensor", token, list(a), list(b)])
    return out


def _ci_requests(rng: random.Random) -> list:
    out = []
    for n, count in _CI_COUNTS.items():
        seen = set()
        while len(seen) < count:
            r = rng.randint(1, 3)
            seen.add(tuple(sorted(rng.randint(2, 7) for _ in range(r))))
        out.extend(["ci", n, list(d)] for d in sorted(seen))
    return out


def requests(workload: str) -> list:
    """The workload's fixed request set, in its canonical order."""
    rng = random.Random(UNIVERSE_SEED)
    if workload == "rep-cold":
        spheres = sorted(rng.sample(list(_SPHERE_RANGE), _SPHERE_DRAWS))
        return (
            [["holonomy", k, p] for k, p in HOLONOMY_MODELS]
            + _tensor_requests(rng)
            + [["sphere", n] for n in spheres]
        )
    if workload == "ci-tower":
        return _ci_requests(rng)
    if workload == "cli-session":
        return [["cli", c] for c in CLI_COMMANDS]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def pass_order(workload: str, seed: int, pass_index: int) -> list:
    """The request set in the order pass ``pass_index`` of a seeded run uses."""
    order = requests(workload)
    rng = random.Random(seed)
    for _ in range(pass_index + 1):
        rng.shuffle(order)
    return order


def request_id(request: list) -> str:
    return json.dumps(request, separators=(",", ":"))


def cli_argv(request: list) -> list:
    return request[1].split() + ["--json"]


# -- canonical output -------------------------------------------------------


def canonical(value):
    """JSON-ready form of a result; rationals become exact ``p/q`` strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if hasattr(value, "sorted_terms"):  # lie.RepSum
        return [[canonical(w), m] for w, m in value.sorted_terms()]
    if dataclasses.is_dataclass(value):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- in-process execution ------------------------------------------------------
# rslab is imported here, not at the top: run.py imports this module without
# it.  Its names are looked up on their modules at call time, so a tracer
# that patches those modules sees every call.


def execute(request: list):
    kind = request[0]
    if kind == "holonomy":
        from rslab import holonomy

        model = holonomy.holonomy_model(request[1], request[2])
        sigma = model.sigma_three_half()
        out = {
            "group": model.group,
            "total": sigma.total,
            "dimension": sigma.total.dimension,
            "parallel_spinors": model.parallel_spinor_dimension(),
            "parallel_rs_fields": model.parallel_rs_dimension(),
        }
        if sigma.graded:
            out["plus"] = sigma.plus
            out["minus"] = sigma.minus
        return out
    if kind == "tensor":
        from rslab import lie

        system = _system(request[1])
        lam, mu = (_weight(system, labels) for labels in request[2:4])
        product = lie.tensor_decompose(system, lam, mu)
        return {"terms": product, "dimension": product.dimension}
    if kind == "sphere":
        from rslab import holonomy

        return holonomy.sphere_check(request[1])
    if kind == "ci":
        from rslab import intersections

        n, degrees = request[1], tuple(request[2])
        manifold = intersections.build_ci(intersections.CISpec(n, degrees))
        out = {
            "name": manifold.name,
            "spin": manifold.spin,
            "c1_sign": manifold.c1_sign,
            "invariants": intersections.ci_invariants(manifold),
            "hodge": intersections.hodge_numbers(manifold),
        }
        if n % 2 == 0 and len(degrees) == 1:
            out["signature_by_series"] = intersections.fermat_signature(n, degrees[0])
        if manifold.spin:
            out["kernel"] = intersections.ci_rs_kernel(manifold)
        return out
    raise ValueError(f"not an in-process request: {request!r}")
