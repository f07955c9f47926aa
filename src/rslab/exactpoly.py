"""Truncated polynomial arithmetic over exact rationals.

A :class:`TruncatedPoly` is a sparse polynomial in one or two formal
variables with ``Fraction`` coefficients, taken modulo the ideal generated
by ``v**(cutoff_v + 1)`` for each variable ``v``.  Multiplication silently
drops monomials past a cutoff, which is exactly the truncation an
n-dimensional cohomology ring or an order-n series expansion wants.

Coefficients are stored in a dict keyed by exponent tuples; zero
coefficients are never stored, so dict equality is polynomial equality.
Coefficients must be ``int`` or ``Fraction``; floats and bools are refused.
Cutoffs and exponents must be ``int``.

``Fraction`` is the boundary type only.  The product and the three series
operations split their operands into homogeneous components p_k of total
degree k and hold each component as int numerators over one positive,
gcd-reduced denominator.  Their inner loops multiply and add ints; each
output coefficient becomes one ``Fraction`` when the result is built (the
fraction-free idea of Bareiss, Math. Comp. 22, 1968: divide once per
result, not once per product).  A one-variable series has one coefficient
per degree, so each component is one numerator over one denominator, and
a degree-k convolution is one running int sum whose denominator grows by
one gcd per term; the Ahat, L and Todd classes, the genus specs and
``intersections.build_ci`` run on that path.

``series_inverse``, ``series_exp`` and ``series_log`` are graded
recurrences over the components:

    inverse  q_k = -(1/p_0) * sum_{j>=1} p_j q_{k-j}
    exp      k f_k = sum_{j>=1} j g_j f_{k-j}                (f = exp g)
    log      k g_k = k p_k - sum_{1<=j<k} j g_j p_{k-j}      (g = log p)

The truncation ideal is monomial, so it is graded and stable under the
Euler derivation sum_v v*d/dv; the recurrences are therefore exact for any
per-variable cutoffs.  Each component is computed once, which costs O(n^4)
coefficient products in two variables at cutoff n, against O(n^5) for the
n full truncated products of a geometric or power series.

The exp and log recurrences themselves are ``_exp`` and ``_log``, lists of
components in and out; ``charclass`` runs them on genus series graded by
the power of x, where the only truncation is the length of the list.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import InputError, integer, rational

Exponent = Tuple[int, ...]
RationalLike = Union[int, Fraction]
# a homogeneous component: (denominator, [(first exponent, int numerator)])
Component = Tuple[int, List[Tuple[int, int]]]
Components = List[Component]


class TruncatedPoly:
    __slots__ = ("variables", "cutoffs", "coeffs")

    def __init__(
        self,
        variables: Iterable[str],
        cutoffs: Iterable[int],
        coeffs: Mapping[Exponent, RationalLike] | None = None,
    ) -> None:
        self.variables: Tuple[str, ...] = tuple(variables)
        self.cutoffs: Tuple[int, ...] = tuple(integer(c, "cutoff") for c in cutoffs)
        if not 1 <= len(self.variables) <= 2:
            raise InputError("supported variable counts are 1 and 2")
        if len(self.cutoffs) != len(self.variables):
            raise InputError("one cutoff per variable required")
        if any(c < 0 for c in self.cutoffs):
            raise InputError("cutoffs must be nonnegative")
        count, cutoffs = len(self.variables), self.cutoffs
        clean: Dict[Exponent, Fraction] = {}
        for exps, value in (coeffs or {}).items():
            key = tuple(exps)
            if len(key) != count or not all(type(e) is int and e >= 0 for e in key):
                for e in key:
                    integer(e, "exponent")
                raise InputError(f"bad exponent tuple {exps!r}")
            if type(value) is not Fraction:
                value = rational(value)
            if not value or not all(map(int.__le__, key, cutoffs)):
                continue  # zero, or truncated away by construction
            total = clean[key] + value if key in clean else value
            if total:
                clean[key] = total
            else:
                del clean[key]
        self.coeffs = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str], cutoffs: Iterable[int]) -> "TruncatedPoly":
        return cls(variables, cutoffs)

    @classmethod
    def constant(
        cls, value: RationalLike, variables: Iterable[str], cutoffs: Iterable[int]
    ) -> "TruncatedPoly":
        variables = tuple(variables)
        return cls(variables, cutoffs, {(0,) * len(variables): value})

    def _like(self, coeffs: Mapping[Exponent, Fraction]) -> "TruncatedPoly":
        out = TruncatedPoly.__new__(TruncatedPoly)
        out.variables = self.variables
        out.cutoffs = self.cutoffs
        out.coeffs = {k: v for k, v in coeffs.items() if v}
        return out

    # -- inspection -------------------------------------------------------

    def coefficient(self, exponents: Exponent) -> Fraction:
        return self.coeffs.get(tuple(exponents), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * len(self.variables), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return self.coeffs.items()

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "TruncatedPoly") -> None:
        if self.variables != other.variables or self.cutoffs != other.cutoffs:
            raise InputError(
                f"operands live in different truncated rings: {_ring(self)} and {_ring(other)}"
            )

    def __add__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        self._check_compatible(other)
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, Fraction(0)) + v
        return self._like(merged)

    def __sub__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        self._check_compatible(other)
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, Fraction(0)) - v
        return self._like(merged)

    def __neg__(self) -> "TruncatedPoly":
        return self._like({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other: Union["TruncatedPoly", RationalLike]) -> "TruncatedPoly":
        if isinstance(other, TruncatedPoly):
            self._check_compatible(other)
            a, b = _components(self), _components(other)
            return _from_components(
                self, [_convolve(a, b, k, self.cutoffs, first=0) for k in range(len(a))]
            )
        factor = rational(other)
        return self._like({k: v * factor for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedPoly":
        if integer(n, "power") < 0:
            raise InputError(f"negative power {n}: use series_inverse")
        result = TruncatedPoly.constant(1, self.variables, self.cutoffs)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.cutoffs == other.cutoffs
            and self.coeffs == other.coeffs
        )

    def __hash__(self):  # pragma: no cover - dict use is not supported
        raise TypeError("TruncatedPoly is not hashable")

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for exps in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            coeff = self.coeffs[exps]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            ]
            if not factors:
                terms.append(str(coeff))
            elif coeff == 1:
                terms.append("*".join(factors))
            elif coeff == -1:
                terms.append("-" + "*".join(factors))
            else:
                terms.append(f"{coeff}*" + "*".join(factors))
        return " + ".join(terms).replace("+ -", "- ")


def _ring(p: TruncatedPoly) -> str:
    """The ring of ``p`` for messages, such as Q[x,y]/(x^4, y^3)."""
    ideal = ", ".join(f"{v}^{c + 1}" for v, c in zip(p.variables, p.cutoffs))
    return f"Q[{','.join(p.variables)}]/({ideal})"


def _components(p: TruncatedPoly) -> Components:
    """Homogeneous components of ``p`` by total degree 0 .. sum(cutoffs).

    A monomial of total degree k is determined by its first exponent i
    (the second, if any, is k - i), so component k is (den, [(i, num)]):
    int numerators over the lcm of the component's denominators, which is
    already gcd-reduced against them.  In one variable component k is
    (den, [(k, num)]), or (1, []) when p has no term of degree k.
    """
    if len(p.cutoffs) == 1:
        out: Components = [(1, []) for _ in range(p.cutoffs[0] + 1)]
        for (k,), c in p.coeffs.items():
            out[k] = (c.denominator, [(k, c.numerator)])
        return out
    comps: List[List[Tuple[int, Fraction]]] = [[] for _ in range(sum(p.cutoffs) + 1)]
    for exps, c in p.coeffs.items():
        comps[sum(exps)].append((exps[0], c))
    out = []
    for comp in comps:
        den = lcm(*[c.denominator for _, c in comp])
        out.append((den, [(i, c.numerator * (den // c.denominator)) for i, c in comp]))
    return out


def _reduced(terms: Collection[Tuple[int, int]], den: int) -> Component:
    """The component sum_i num_i/den, zeros dropped, over a positive gcd-reduced denominator."""
    if len(terms) == 1:  # every nonzero one-variable component
        ((i, c),) = terms
        if not c:
            return 1, []
        g = gcd(den, c) if den > 0 else -gcd(den, c)
        return den // g, [(i, c // g)]
    terms = [(i, c) for i, c in terms if c]
    g = gcd(den, *[c for _, c in terms])
    if den < 0:
        g = -g
    if g == 1:
        return den, terms
    return den // g, [(i, c // g) for i, c in terms]


def _convolve(
    a: Components, b: Components, k: int, cutoffs: Exponent, first: int = 1
) -> Component:
    """Degree-k part of sum_{j>=first} a_j * b_{k-j}, truncated, as one component.

    In one variable every product lands on h**k, so the sum is one running
    int numerator over the lcm of the denominator products seen so far.  In
    two, the numerators share the lcm of the pairwise denominator products,
    so the inner loop multiplies and adds ints only.  Zeros are not dropped.
    """
    if len(cutoffs) == 1:
        num, den = 0, 1
        for j in range(first, k + 1):
            (da, aj), (db, bj) = a[j], b[k - j]
            if aj and bj:
                d = da * db
                g = gcd(den, d)
                num = num * (d // g) + aj[0][1] * bj[0][1] * (den // g)
                den = den // g * d
        return den, [(k, num)]
    # a first exponent s is kept when s <= c_0 and the second, k - s, is
    # within its cutoff
    lo, hi = max(0, k - cutoffs[1]), cutoffs[0]
    pairs = [(a[j], b[k - j]) for j in range(first, k + 1) if a[j][1] and b[k - j][1]]
    den = lcm(*[da * db for (da, _), (db, _) in pairs])
    out: Dict[int, int] = {}
    for (da, aj), (db, bj) in pairs:
        scale = den // (da * db)
        for ia, ca in aj:
            ca *= scale
            for ib, cb in bj:
                s = ia + ib
                if lo <= s <= hi:
                    out[s] = out[s] + ca * cb if s in out else ca * cb
    return den, list(out.items())


def _from_components(p: TruncatedPoly, comps: Components) -> TruncatedPoly:
    """The polynomial in ``p``'s ring with these components: one Fraction per coefficient."""
    two = len(p.variables) == 2
    return p._like(
        {
            ((i, k - i) if two else (i,)): Fraction(c, den)
            for k, (den, terms) in enumerate(comps)
            for i, c in terms
        }
    )


def series_inverse(p: TruncatedPoly) -> TruncatedPoly:
    """Multiplicative inverse of a series with nonzero constant term.

    Graded long division: q_k = -(1/p_0) * sum_{j>=1} p_j q_{k-j}.
    """
    c0 = p.constant_term
    if not c0:
        raise InputError("series has no inverse: constant term is zero")
    a = _components(p)
    q = [_reduced([(0, c0.denominator)], c0.numerator)]
    for k in range(1, len(a)):
        den, terms = _convolve(a, q, k, p.cutoffs)
        q.append(_reduced([(i, -c0.denominator * c) for i, c in terms], c0.numerator * den))
    return _from_components(p, q)


def series_exp(p: TruncatedPoly) -> TruncatedPoly:
    """exp of a series with zero constant term.

    With f = exp(g) and the Euler derivation: k f_k = sum_{j>=1} j g_j f_{k-j}.
    """
    if p.constant_term:
        raise InputError(f"series_exp needs a zero constant term, got {p.constant_term}")
    return _from_components(p, _exp(_components(p), p.cutoffs))


def _exp(g: Sequence[Component], cutoffs: Exponent) -> Components:
    """Components of exp(g), given the components of g (g_0 empty)."""
    dg = [_reduced([(i, k * c) for i, c in terms], den) for k, (den, terms) in enumerate(g)]
    f: Components = [(1, [(0, 1)])]
    for k in range(1, len(dg)):
        den, terms = _convolve(dg, f, k, cutoffs)
        f.append(_reduced(terms, k * den))
    return f


def series_log(p: TruncatedPoly) -> TruncatedPoly:
    """log of a series with constant term one.

    With g = log(p): k g_k = k p_k - sum_{j<k} j g_j p_{k-j}.
    """
    if p.constant_term != 1:
        raise InputError(f"series_log needs constant term one, got {p.constant_term}")
    return _from_components(p, _log(_components(p), p.cutoffs))


def _log(a: Sequence[Component], cutoffs: Exponent) -> Components:
    """Components of log(p), given the components of p (p_0 = 1)."""
    dg: Components = [(1, [])]  # j g_j, component by component
    for k in range(1, len(a)):
        den, terms = _convolve(a, dg, k, cutoffs)
        da, own = a[k]
        common = lcm(da, den)
        acc = {i: k * (common // da) * c for i, c in own}
        scale = common // den
        for i, c in terms:
            acc[i] = acc[i] - scale * c if i in acc else -scale * c
        dg.append(_reduced(acc.items(), common))
    return [(1, [])] + [_reduced(terms, k * den) for k, (den, terms) in enumerate(dg) if k]
