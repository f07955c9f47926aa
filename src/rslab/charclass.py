"""Characteristic-class calculus for manifolds whose relevant cohomology is
generated by a single degree-two class.

A :class:`ChernProfile` records the Chern classes ``c_k = chern[k-1] * h**k``
of the tangent bundle together with the pairing ``<h**n, [M]>``.  Everything
else is derived from it with exact rational arithmetic: Pontryagin classes
come straight from c(T) c(conj T), Newton's identities convert Chern classes
to power sums of the formal roots, and any multiplicative genus is evaluated
through ``exp(sum_k log(Q)_k * s_k)``.  A genus spec is log Q itself, read
off the Todd coefficients: the Todd, Ahat and L logs in closed form, and
only chi_y's through the log recurrence.  The genus values and index report
of a profile are kept on it.  Every class here is a list of graded int
components run through the kernels of ``exactpoly``; none is a
``TruncatedPoly``.

The spin-3/2 index functional is ``<Ahat(TM) * (ch(TM x C) + 1), [M]>``; it
splits as a tangent-twisted Dirac index plus a plain Dirac index, and both
parts are reported.  On a product M x N it is the hL**m hR**n coefficient of
one exp in (hL, hR), since Ahat is multiplicative, checked against the
factor indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, Union

from .errors import InputError, NotApplicableError, check, integer, rational
from .exactpoly import Component, Components, _exp, _graded, _inverse, _log

GENUS_NAMES = ("AHAT", "L", "TODD", "CHI_Y")


@dataclass(frozen=True)
class ChernProfile:
    """Tangent Chern data of a 2n-real-dimensional manifold.

    dim      complex dimension n
    chern    coefficients of c_1 .. c_n on h, h**2, .., h**n
    pairing  value of h**n on the fundamental class

    The profile is immutable, so derived values are computed once and kept
    on it: the power sums, the named genus values and the index report.
    """

    dim: int
    chern: Tuple[Fraction, ...]
    pairing: Fraction

    def __post_init__(self):
        if integer(self.dim, "complex dimension") < 1:
            raise InputError(f"complex dimension must be positive, got {self.dim}")
        object.__setattr__(
            self, "chern", tuple(rational(c, "Chern coefficient") for c in self.chern)
        )
        object.__setattr__(self, "pairing", rational(self.pairing, "pairing"))
        if len(self.chern) != self.dim:
            raise InputError(
                f"need exactly dim = {self.dim} Chern coefficients, got {len(self.chern)}"
            )
        if self.pairing == 0:
            raise InputError(f"pairing must be nonzero, got {self.pairing}")

    @cached_property
    def _power_sum_numerators(self) -> Tuple[int, Tuple[int, ...]]:
        """(D, (S_1..S_n)) with power sums s_k = S_k / D**k, D the common
        denominator of the Chern coefficients.

        With c_i = C_i / D, Newton's identities
        s_k = (-1)**(k-1) k c_k + sum_{i<k} (-1)**(i-1) c_i s_{k-i}, times D**k,
        read S_k = k w_k + sum_{i<k} w_i S_{k-i} with w_i = (-1)**(i-1) C_i D**(i-1):
        ints only, and for integral data (D = 1) no scaling either.
        """
        den = math.lcm(*(c.denominator for c in self.chern))
        w = [
            (-1) ** i * c.numerator * (den // c.denominator) * den**i
            for i, c in enumerate(self.chern)
        ]
        sums: List[int] = []
        for k in range(1, self.dim + 1):
            sums.append(k * w[k - 1] + sum(w[i - 1] * sums[k - 1 - i] for i in range(1, k)))
        return den, tuple(sums)

    @cached_property
    def power_sums(self) -> Tuple[Fraction, ...]:
        """Power sums s_1..s_n of the Chern roots, via Newton's identities."""
        den, sums = self._power_sum_numerators
        return tuple(Fraction(s, den**k) for k, s in enumerate(sums, 1))

    @cached_property
    def _values(self) -> Dict[object, object]:
        """Named genus values and the ``rs_index`` report, filled on first use.

        Genus values are keyed by name, the report by the function
        ``rs_index`` itself, so no genus name can reach it.  Only immutable
        values go in: Fractions, tuples, frozen reports.
        """
        return {}


def chern_to_pontryagin(profile: ChernProfile) -> Tuple[Fraction, ...]:
    """Pontryagin coefficients p_k on h**(2k), for 2k <= n.

    The complexified real bundle is T + conj(T), and c(conj T) has
    (-1)**i c_i, so (Milnor-Stasheff, Characteristic Classes, section 15)
    p_k = (-1)**k [c(T) c(conj T)]_2k = sum_i (-1)**(k+i) c_i c_(2k-i),
    with c_0 = 1; every index is at most 2k <= n.
    """
    c = (Fraction(1),) + profile.chern
    return tuple(
        sum((-1) ** (k + i) * c[i] * c[2 * k - i] for i in range(2 * k + 1))
        for k in range(1, profile.dim // 2 + 1)
    )


def _partitions(m: int, largest: int = 0) -> List[Tuple[int, ...]]:
    """Every partition of m with parts at most ``largest`` (default m), as
    non-increasing tuples in ascending tuple order."""
    if m == 0:
        return [()]
    top = min(m, largest or m)
    return [(k,) + rest for k in range(1, top + 1) for rest in _partitions(m - k, k)]


def _partition_label(part: Tuple[int, ...]) -> str:
    pieces = []
    for k in sorted(set(part)):
        e = part.count(k)
        pieces.append(f"p{k}" + (f"^{e}" if e > 1 else ""))
    return "*".join(pieces)


def pontryagin_numbers(profile: ChernProfile) -> Dict[str, Fraction]:
    """Pontryagin numbers on the monomial basis, for real dimension 4m."""
    if profile.dim % 2:
        raise NotApplicableError("real dimension is not divisible by four")
    m = profile.dim // 2
    p = chern_to_pontryagin(profile)
    out: Dict[str, Fraction] = {}
    for part in _partitions(m):
        value = Fraction(1)
        for k in part:
            value *= p[k - 1]
        out[_partition_label(part)] = value * profile.pairing
    return out


# -- multiplicative genera ---------------------------------------------------


# name -> log Q of that genus, built at the highest order asked for so far
_SPECS: Dict[str, Tuple[Component, ...]] = {}


def genus_spec(name: str, order: int) -> Tuple[Component, ...]:
    """log Q of the named genus to at least x**order, as graded components.

    Component d holds the x**d part of log Q as int numerators over one
    denominator: (den, ((d, num),)) for the one-variable genera, and for
    CHI_Y the entries (i, num) of u**i v**(d-i) in u = x, v = xy.  One spec
    per genus is kept and rebuilt only for a higher order; readers cut it to
    their own order, which is exact since the log recurrence is graded.
    """
    if integer(order, "order") < 1:
        raise InputError(f"order must be positive, got {order}")
    spec = _SPECS.get(name)
    if spec is None or len(spec) <= order:
        spec = _SPECS[name] = _build_spec(name, order)
    return spec


def _build_spec(name: str, order: int) -> Tuple[Component, ...]:
    """log Q of the named genus, from the Todd series T(u) = u/(1 - e^-u) = sum_k t_k u**k.

    Every genus here is T after a substitution (Hirzebruch, Topological
    Methods in Algebraic Geometry, section 1):

        TODD   x/(1 - e^-x)                             T(x)
        AHAT   (x/2)/sinh(x/2)                          T(x) e^(-x/2)
        L      x/tanh(x)                                Ahat(2x)**2 / Ahat(4x)
        CHI_Y  x(1 + y e^-x(1+y))/(1 - e^-x(1+y))       T(u + v) - v

    Since d/du log T = 1/u - 1/(e^u - 1), log T(u) = u/2 - sum_k t_2k u**2k / 2k,
    so the logs of TODD, AHAT and L are read off the t_2k directly.  CHI_Y
    is Todd at y = 0 and L at y = 1; its Q has C(k, j) t_k at u**(k-j) v**j
    (less one at v), and only its log runs the recurrence.
    """
    if name not in GENUS_NAMES:
        raise InputError(f"unknown genus {name!r}")
    # T is the inverse of g(u) = (1 - e^-u)/u = sum_j (-u)**j/(j+1)!
    todd = _inverse([(math.factorial(j + 1), [(j, (-1) ** j)]) for j in range(order + 1)], (order,))
    if name == "CHI_Y":
        q = [
            (den, [(k - j, math.comb(k, j) * c) for _, c in terms for j in range(k + 1)])
            for k, (den, terms) in enumerate(todd)
        ]
        q[1] = (2, [(1, 1), (0, -1)])  # t_1 (u + v) - v
        return tuple((den, tuple(terms)) for den, terms in _log(q, (order, order)))
    log_q: Dict[Tuple[int, ...], Fraction] = {(1,): Fraction(1, 2)} if name == "TODD" else {}
    for k in range(1, order // 2 + 1):
        den, ((_, num),) = todd[2 * k]
        scale = 2 * 4**k - 16**k if name == "L" else 1
        log_q[(2 * k,)] = Fraction(-num * scale, 2 * k * den)
    return tuple((den, tuple(terms)) for den, terms in _graded(log_q, (order,)))


def _scaled_log(log_q: Tuple[Component, ...], profile: ChernProfile) -> Components:
    """sum_d s_d (log Q)_d h**d to h**n, graded by the power of h as log Q is
    by the power of x.

    Component d of log Q is scaled by the one power sum s_d = S_d / D**d, as
    int numerators.  Any spec of order >= n serves: log Q is cut after h**n,
    which commutes with exp since the recurrence is graded.
    """
    n = profile.dim
    den_s, sums = profile._power_sum_numerators
    return [(1, [])] + [
        (den * den_s**d, [(i, c * sums[d - 1]) for i, c in terms])
        for d, (den, terms) in enumerate(log_q[1 : n + 1], 1)
    ]


def _class_components(genus: str, profile: ChernProfile) -> Tuple[Tuple[int, ...], Components]:
    """Cutoffs and components of the genus class exp(sum_d s_d (log Q)_d h**d)."""
    n = profile.dim
    cut = (n, n) if genus == "CHI_Y" else (n,)
    return cut, _exp(_scaled_log(genus_spec(genus, n), profile), cut)


def evaluate_genus(genus: str, profile: ChernProfile) -> Union[Fraction, Tuple[Fraction, ...]]:
    """Pair the named genus class with the fundamental class.

    Returns a single rational, except for CHI_Y where the result is the
    tuple of coefficients of y**0 .. y**n, the arithmetic genera
    chi_p = sum_q (-1)**q h^{p,q}.  h**n y**j is u**(n-j) v**j in u = h,
    v = hy, the entry n - j of the class's top component; each value is one
    Fraction.  Each genus is evaluated once per profile.
    """
    if genus in profile._values:
        return profile._values[genus]
    n = profile.dim
    cut, comps = _class_components(genus, profile)
    den, terms = comps[n]
    top = dict(terms)
    p, q = profile.pairing.numerator, profile.pairing.denominator
    if len(cut) == 2:
        value = tuple(Fraction(top.get(n - j, 0) * p, den * q) for j in range(n + 1))
    else:
        value = Fraction(top.get(n, 0) * p, den * q)
    profile._values[genus] = value
    return value


def euler_characteristic(profile: ChernProfile) -> Fraction:
    """Top Chern number c_n[M]."""
    return profile.chern[-1] * profile.pairing


def _ch(profile: ChernProfile) -> List[Tuple[int, int]]:
    """Chern character of TM tensored with C, i.e. of T + conj(T), by degree
    0 .. n as (denominator, int numerator).

    Odd-degree components cancel in pairs, leaving 2n + 2 * sum_{k even}
    s_k/k! * h**k, and s_k = S_k / D**k.
    """
    n = profile.dim
    den_s, sums = profile._power_sum_numerators
    return [(1, 2 * n)] + [
        (math.factorial(k) * den_s**k, 0 if k % 2 else 2 * sums[k - 1]) for k in range(1, n + 1)
    ]


@dataclass(frozen=True)
class RSIndexReport:
    """Index of the spin-3/2 operator and its two Dirac-type parts."""

    total: Fraction
    dirac_tangent: Fraction
    dirac: Fraction


def _paired_top(
    pairs: Iterable[Tuple[Tuple[int, int], Tuple[int, int]]], pairing: Fraction
) -> Fraction:
    """sum a * f over matched coefficient pairs (a, f), paired with [M].

    Each coefficient is (denominator, int numerator); the sum runs on ints
    over one lcm denominator, then makes one Fraction.
    """
    terms = [(da * df, a * f) for (da, a), (df, f) in pairs if a and f]
    den = math.lcm(*(d for d, _ in terms))
    num = sum(c * (den // d) for d, c in terms)
    return Fraction(num * pairing.numerator, den * pairing.denominator)


def rs_index(profile: ChernProfile) -> RSIndexReport:
    """Index functional Ahat(TM)*(ch(TM x C) + 1) paired with [M].

    The summand splits as a tangent-twisted Dirac index plus the plain
    Dirac index; the split is recomputed and cross-checked.  Both sides read
    one list of Ahat coefficients, so the check catches a convolution error
    but not a wrong Ahat class.  Each sum runs on int numerators over one
    lcm denominator, and each reported number is one Fraction.  The report
    is computed once per profile.
    """
    if rs_index in profile._values:
        return profile._values[rs_index]
    n = profile.dim
    # Ahat_k = A_k / a_k: one variable, so component k holds at most (k, A_k)
    comps = _class_components("AHAT", profile)[1]
    ahat = [(den, terms[0][1] if terms else 0) for den, terms in comps]
    ch = _ch(profile)
    pairing = profile.pairing
    # the h**n coefficient of Ahat * factor pairs Ahat_k with factor_(n-k)
    total = _paired_top(zip(ahat, reversed([(1, 2 * n + 1)] + ch[1:])), pairing)
    twisted = _paired_top(zip(ahat, reversed(ch)), pairing)
    dirac = Fraction(ahat[n][1] * pairing.numerator, ahat[n][0] * pairing.denominator)
    recombined = twisted + dirac
    check("index split", total == recombined, chern=profile.chern, pairing=pairing,
          total=total, **{"twisted + dirac": recombined})
    report = profile._values[rs_index] = RSIndexReport(
        total=total, dirac_tangent=twisted, dirac=dirac
    )
    return report


# -- dimension-specific index identities --------------------------------------

# Index, Ahat and signature are linear functionals on Pontryagin numbers.
# The claimed coefficient pairs below are the published relations this
# module exists to certify; verify_dimension_identities recomputes every
# functional from scratch and checks the combinations exactly.
CLAIMED_INDEX_RELATIONS: Dict[int, List[Tuple[str, Dict[str, Fraction]]]] = {
    4: [
        ("index = -19 * ahat", {"ahat": Fraction(-19)}),
        ("index = (19/8) * signature", {"signature": Fraction(19, 8)}),
    ],
    8: [
        ("index = 25 * ahat - signature", {"ahat": Fraction(25), "signature": Fraction(-1)}),
        ("index = 9 * ahat - euler/3", {"ahat": Fraction(9), "euler": Fraction(-1, 3)}),
    ],
    12: [
        ("index = 5 * ahat + signature/8", {"ahat": Fraction(5), "signature": Fraction(1, 8)}),
    ],
}


@dataclass(frozen=True)
class IdentityCheck:
    label: str
    coefficients: Tuple[Tuple[str, Fraction], ...]
    matched: bool


@dataclass(frozen=True)
class DimensionIdentityReport:
    real_dim: int
    basis: Tuple[str, ...]
    functionals: Dict[str, Tuple[Fraction, ...]]
    checks: Tuple[IdentityCheck, ...]

    @property
    def all_matched(self) -> bool:
        return all(c.matched for c in self.checks)


def _solve_linear(rows: List[List[Fraction]], rhs: List[Fraction]) -> List[Fraction]:
    """Exact Gaussian elimination for small square systems."""
    n = len(rows)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        check("invertible sample matrix", pivot is not None, column=col, rows=a)
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def verify_dimension_identities(real_dim: int) -> DimensionIdentityReport:
    """Re-derive the index/Ahat/signature relations in dimensions 4, 8, 12.

    Every functional is expressed on the Pontryagin monomial basis by
    evaluating on one sample profile per partition of m and solving
    exactly (the sample's Chern roots are the parts, padded with zeros, so
    c(T) = prod(1 + x h) and the sample matrix is invertible); the claimed
    coefficient pairs are then checked componentwise.  In dimension 4 the
    two claimed forms are members of a one-parameter solution family; in
    dimension 12 the pair {ahat, signature} cannot span the 3-dimensional
    space, so the claim is certified by direct substitution.
    """
    if integer(real_dim, "real dimension") not in (4, 8, 12):
        raise NotApplicableError("identities are tabulated for dimensions 4, 8, 12")
    m = real_dim // 4
    parts = _partitions(m)
    basis = tuple(_partition_label(p) for p in parts)

    matrix: List[List[Fraction]] = []
    vals: Dict[str, List[Fraction]] = {"index": [], "ahat": [], "signature": []}
    if real_dim == 8:
        vals["euler"] = []
    for part in parts:
        chern = [1] + [0] * (2 * m)
        for x in part:  # multiply c(T) by (1 + x h)
            for k in range(2 * m, 0, -1):
                chern[k] += x * chern[k - 1]
        profile = ChernProfile(2 * m, tuple(chern[1:]), 1)
        numbers = pontryagin_numbers(profile)
        matrix.append([numbers[label] for label in basis])
        vals["index"].append(rs_index(profile).total)
        vals["ahat"].append(evaluate_genus("AHAT", profile))
        vals["signature"].append(evaluate_genus("L", profile))
        if real_dim == 8:
            # chi = -(p1^2 - 4 p2)/8 under the relevant structure reductions
            vals["euler"].append(-(numbers["p1^2"] - 4 * numbers["p2"]) / 8)

    functionals = {
        name: tuple(_solve_linear(matrix, v)) for name, v in vals.items()
    }

    checks = []
    for label, combo in CLAIMED_INDEX_RELATIONS[real_dim]:
        lhs = functionals["index"]
        rhs = [Fraction(0)] * len(basis)
        for name, coeff in combo.items():
            rhs = [r + coeff * f for r, f in zip(rhs, functionals[name])]
        checks.append(
            IdentityCheck(
                label=label,
                coefficients=tuple(sorted(combo.items())),
                matched=tuple(rhs) == lhs,
            )
        )

    return DimensionIdentityReport(
        real_dim=real_dim,
        basis=basis,
        functionals=functionals,
        checks=tuple(checks),
    )


# -- products ------------------------------------------------------------------


def product_rs_index(left: ChernProfile, right: ChernProfile) -> Fraction:
    """Spin-3/2 index of a product, by two routes that must agree.

    Route one evaluates the index integrand directly in the product ring,
    reading only its hL**m hR**n coefficient.  Route two combines the factor
    indices as ``indQ(M)*indD(N) - indD(M)*indD(N) + indD(M)*indQ(N)``.
    Disagreement raises ConsistencyError rather than returning anything.
    Any AHAT spec of order >= max(dims) serves: log Ahat is read to each dim.
    """
    m, n = left.dim, right.dim
    # the product's root power sums are s_k(M) hL**k + s_k(N) hR**k, so degree k
    # of log Ahat holds hL**k (first exponent k) and hR**k (first exponent 0);
    # none lies past max(m, n), so both sides are padded to degree m + n
    spec = genus_spec("AHAT", max(m, n))
    pad = [(1, [])] * (m + n + 1)
    log_ahat: Components = []
    for (dl, tl), (dr, tr) in zip(_scaled_log(spec, left) + pad[m + 1 :],
                                  _scaled_log(spec, right) + pad[n + 1 :]):
        den = math.lcm(dl, dr)
        log_ahat.append((den, [(i, c * (den // dl)) for i, c in tl]
                         + [(0, c * (den // dr)) for _, c in tr]))
    ahat = _exp(log_ahat, (m, n))

    def at(k: int, i: int) -> Tuple[int, int]:  # hL**i hR**(k-i) of Ahat
        den, terms = ahat[k]
        return den, dict(terms).get(i, 0)

    # ch(TM x C) + 1 is 2m + 2n + 1 plus ch_M's hL**k and ch_N's hR**k, k even
    ch_l, ch_r = _ch(left), _ch(right)
    pairs = [(at(m + n, m), (1, 2 * m + 2 * n + 1))]
    pairs += [(at(m + n - k, m - k), ch_l[k]) for k in range(2, m + 1, 2)]
    pairs += [(at(m + n - k, m), ch_r[k]) for k in range(2, n + 1, 2)]
    direct = _paired_top(pairs, left.pairing * right.pairing)

    li = rs_index(left)
    ri = rs_index(right)
    combined = li.total * ri.dirac - li.dirac * ri.dirac + li.dirac * ri.total
    check("product index", direct == combined, left_chern=left.chern,
          left_pairing=left.pairing, right_chern=right.chern, right_pairing=right.pairing,
          direct=direct, combined=combined)
    return direct
