"""Exact formal characters for tests: weight multisets of representation sums.

The character of V (x) W is the Minkowski sum of the weight multisets of V
and W, so a tensor decomposition can be checked weight by weight, or
rebuilt from the product character alone by ``decompose``.
"""

from collections import Counter


def character(rep) -> Counter:
    """Weight -> multiplicity over every weight of every summand of ``rep``,
    in Euclidean coordinates, so A-block sums are compared too."""
    out = Counter()
    system = rep.system
    for lam, m in rep.terms.items():
        for nu, k in system.weight_multiplicities(lam).items():
            out[system.from_labels(nu, lam)] += m * k
    return out


def product_character(left: Counter, right: Counter) -> Counter:
    """The weight multiset of V (x) W from those of V and W."""
    out = Counter()
    for u, m in left.items():
        for v, k in right.items():
            out[tuple(a + b for a, b in zip(u, v))] += m * k
    return out


def decompose(system, char: Counter) -> dict:
    """Highest weight -> multiplicity of the honest representation with
    this character, in coordinates, without Klimyk or any RepSum.

    A weight w with the largest <w, delta> has no weight above it in the
    dominance order (<alpha, delta> > 0 for every positive root), so it is
    the highest weight of a summand; peel off that irreducible's weights
    and repeat.
    """
    rest, out = Counter({w: m for w, m in char.items() if m}), {}
    while rest:
        top = max(rest, key=lambda w: sum(a * d for a, d in zip(w, system.delta)))
        out[top] = m = rest[top]
        for nu, k in system.weight_multiplicities(top).items():
            rest[system.from_labels(nu, top)] -= m * k
        assert min(rest.values(), default=0) >= 0, f"{system.name}: not an honest character"
        rest = Counter({w: k for w, k in rest.items() if k})
    return out


def assert_tensor_character(total, left, right) -> None:
    """char(total) == char(left) * char(right), as weight multisets."""
    product = product_character(character(left), character(right))
    have = character(total)
    wrong = sorted(
        (w, have[w], product[w]) for w in have.keys() | product.keys() if have[w] != product[w]
    )
    if wrong:
        shown = ", ".join(
            f"({', '.join(str(x) for x in w)}): {a} vs {b}" for w, a, b in wrong[:5]
        )
        raise AssertionError(
            f"{total.system.name}: char(total) != char(left) * char(right) at "
            f"{len(wrong)} weights, e.g. {shown}"
        )
