"""Exact formal characters for tests: weight multisets of representation sums.

The character of V (x) W is the Minkowski sum of the weight multisets of V
and W, so a tensor decomposition can be checked weight by weight.
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


def assert_tensor_character(total, left, right) -> None:
    """char(total) == char(left) * char(right), as weight multisets."""
    product, right_char = Counter(), character(right)
    for u, m in character(left).items():
        for v, k in right_char.items():
            product[tuple(a + b for a, b in zip(u, v))] += m * k
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
