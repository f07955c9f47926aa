"""Exact weight-lattice representation theory for the classical series and G2.

Root systems live in explicit Euclidean coordinates with the standard
scalar product: type A uses GL-style coordinates (n entries, weights are
weakly decreasing tuples, shifts by a constant tuple are central), B/C/D
use the usual m-coordinate realizations with half-integer spin weights
allowed, and G2 sits in the trace-zero hyperplane of three coordinates.
Products concatenate coordinates componentwise.

On top of the realizations: Weyl's dimension formula, Casimir eigenvalues
``<lambda+2*delta, lambda>``, Freudenthal's multiplicity recursion over the
dominant weights and the Klimyk tensor-product rule.

Root data is integer from construction on: the constructor turns the roots
and the fundamental weights into sparse integer rows over a common
denominator and computes delta, the construction checks, the simple
coroots and the Cartan rows from them with int arithmetic; the per-root
table (labels, coroot coefficients, |alpha|^2 / 2) follows on first use.
The public attributes stay Fraction tuples.  Internally weights are int
tuples of Dynkin labels <w, alpha_i^vee>: Weyl reflections, Freudenthal and
the (memoized) Weyl dimension run on them against those tables.  Labels
miss only the constant tuple on an A or G2 block, which no root sees, and
roots keep each block's coordinate sum, so labels plus block sums give
back the Euclidean coordinates exactly.  Each system also memoizes its
weight systems in coordinates and its checked Klimyk products; every call
returns a fresh dict or RepSum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ConsistencyError, InputError

Weight = Tuple[Fraction, ...]
Labels = Tuple[int, ...]
Sparse = Tuple[Tuple[int, int], ...]


def _weight(values: Iterable) -> Weight:
    return tuple(Fraction(v) for v in values)


def _fmt(w: Iterable) -> str:
    """A weight with exact p/q entries, for messages."""
    return "(" + ", ".join(str(x) for x in w) + ")"


def _rows(vectors: Sequence[Weight]) -> Tuple[int, List[Sparse]]:
    """Vectors as sparse integer rows (index, value) over one common denominator."""
    nonzero = [[(i, x) for i, x in enumerate(v) if x] for v in vectors]
    den = math.lcm(*(x.denominator for row in nonzero for _, x in row))
    return den, [tuple((i, x.numerator * den // x.denominator) for i, x in row) for row in nonzero]


def _columns(rows: Sequence[Sparse], n: int) -> List[List[Tuple[int, int]]]:
    """Sparse rows transposed: per coordinate, its (row, value) pairs."""
    out: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for j, row in enumerate(rows):
        for i, v in row:
            out[i].append((j, v))
    return out


def _exact(values: Iterable[int], den: int) -> tuple:
    """values / den, as ints where integral."""
    return tuple(x // den if x % den == 0 else Fraction(x, den) for x in values)


def _add(u: Weight, v: Weight) -> Weight:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: Weight, v: Weight) -> Weight:
    return tuple(a - b for a, b in zip(u, v))


def _dot(u: Weight, v: Weight) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


@dataclass(frozen=True)
class _Component:
    kind: str  # A, B, C, D, G2
    coords: int


class RootSystem:
    """A root system of classical or G2 type, or a product of such.

    Instances are immutable after construction apart from internal caches
    (integer tables, Weyl dimensions, weight systems, Klimyk products),
    which are only ever appended to.
    """

    def __init__(
        self,
        components: Sequence[_Component],
        simple_roots: Sequence[Weight],
        positive_roots: Sequence[Weight],
        fundamental_weights: Sequence[Weight],
        name: str,
    ) -> None:
        self.components = tuple(components)
        self.coords = sum(c.coords for c in self.components)
        self.simple_roots = tuple(simple_roots)
        self.positive_roots = tuple(positive_roots)
        self.fundamental_weights = tuple(fundamental_weights)
        self.name = name
        # roots as sparse integer rows over the denominator _den, fundamental
        # weights likewise over their own (_omega); delta = acc / (2 _den)
        rank = len(self.simple_roots)
        self._den, rows = _rows(self.simple_roots + self.positive_roots)
        self._simple, self._positive = rows[:rank], rows[rank:]
        self._omega = _rows(self.fundamental_weights)
        acc = [0] * self.coords
        for row in self._positive:
            for i, v in row:
                acc[i] += v
        self.delta = tuple(Fraction(x, 2 * self._den) for x in acc)
        # blocks whose constant tuple no root sees: labels omit their sums
        central = ("A", "G2")
        self._central = [(lo, hi) for c, lo, hi in self._blocks() if c.kind in central]
        self._dims: Dict[Weight, int] = {}
        self._weights_cache: Dict[Weight, Dict[Weight, int]] = {}
        self._dominant_cache: Dict[Weight, Tuple[Dict[Labels, int], Dict]] = {}
        self._products: Dict[Tuple[Weight, Weight], Dict[Weight, int]] = {}
        norms = [sum(v * v for _, v in row) for row in self._simple]
        self._validate(norms, acc)
        # simple coroots 2*alpha/|alpha|^2 = 2 _den row / norm as nonzero
        # (coordinate, value) integer pairs over the common denominator _coden
        simple, twice = list(zip(self._simple, norms)), 2 * self._den
        self._coden = math.lcm(*(n // math.gcd(twice * v, n) for r, n in simple for _, v in r))
        self._coroots = [tuple((i, twice * v * self._coden // n) for i, v in r) for r, n in simple]

    # -- construction checks ------------------------------------------------

    def _validate(self, norms: List[int], acc: List[int]) -> None:
        """Cartan entries and delta, on the integer rows; keeps the Cartan
        rows _cartan (row i: the nonzero labels <alpha_i, alpha_j^vee>)."""
        cartan: List[list] = [[] for _ in norms]
        for j, (a, norm) in enumerate(zip(self.simple_roots, norms)):
            if norm == 0:
                raise ConsistencyError(f"{self.name}: simple root {_fmt(a)} has norm 0")
            a_row = dict(self._simple[j])
            for i, (b, row) in enumerate(zip(self.simple_roots, self._simple)):
                twice = 2 * sum(v * a_row.get(k, 0) for k, v in row)
                entry, rest = divmod(twice, norm)
                if rest or (b is not a and entry > 0):
                    raise ConsistencyError(
                        f"{self.name}: Cartan entry of {_fmt(b)} on {_fmt(a)} is "
                        f"{Fraction(twice, norm)}; need an integer, <= 0 off the diagonal"
                    )
                if entry:
                    cartan[i].append((j, entry))
        self._cartan = [tuple(row) for row in cartan]
        # delta equals the sum of fundamental weights, up to the central
        # (constant per A-component) directions that GL coordinates carry
        den, (oden, omega) = self._den, self._omega
        total = [0] * self.coords
        for row in omega:
            for i, v in row:
                total[i] += v
        for alpha, row in zip(self.positive_roots, self._positive):
            on_delta = sum(v * acc[i] for i, v in row)  # over 2 den^2
            on_omega = sum(v * total[i] for i, v in row)  # over oden den
            if on_delta * oden != on_omega * 2 * den:
                raise ConsistencyError(
                    f"{self.name}: <delta, a> = {Fraction(on_delta, 2 * den * den)} but "
                    f"<sum of fundamental weights, a> = {Fraction(on_omega, oden * den)}, "
                    f"a = {_fmt(alpha)}"
                )

    def _blocks(self):
        start = 0
        for comp in self.components:
            yield comp, start, start + comp.coords
            start += comp.coords

    # -- integer tables and labels --------------------------------------------

    @cached_property
    def _roots(self) -> List[Tuple[Labels, Sparse, Fraction]]:
        """Per positive root: its labels, the nonzero c_j = 2<alpha, omega_j>
        / |alpha|^2 of alpha^vee = sum_j c_j alpha_j^vee, and |alpha|^2 / 2,
        from each root's integer row against the coroot and omega columns."""
        den, (oden, omega) = self._den, self._omega
        coroot_cols = _columns(self._coroots, self.coords)
        omega_cols = _columns(omega, self.coords)
        out = []
        for row in self._positive:
            labels, pairs = [0] * len(self._coroots), [0] * len(omega)
            for i, v in row:
                for j, c in coroot_cols[i]:
                    labels[j] += v * c
                for j, w in omega_cols[i]:
                    pairs[j] += v * w
            norm = sum(v * v for _, v in row)
            # c_j = <alpha, omega_j> / (|alpha|^2 / 2) = 2 den p_j / (oden norm)
            coroot = tuple((j, 2 * den * p // (oden * norm)) for j, p in enumerate(pairs) if p)
            out.append((_exact(labels, den * self._coden), coroot, Fraction(norm, 2 * den * den)))
        return out

    def _labels(self, w: Weight) -> tuple:
        """Dynkin labels <w, alpha_i^vee>, as ints where integral."""
        den = math.lcm(*(x.denominator for x in w))
        ints = [x.numerator * (den // x.denominator) for x in w]
        out = (sum(ints[i] * c for i, c in row) for row in self._coroots)
        return _exact(out, den * self._coden)

    def _sums(self, w: Weight) -> Weight:
        return tuple(sum(w[lo:hi], Fraction(0)) for lo, hi in self._central)

    def _from_labels(self, labels: tuple, sums: Weight) -> Weight:
        """Euclidean coordinates from labels and the central block sums."""
        den, omega = self._omega
        acc = [0] * self.coords
        for x, row in zip(labels, omega):
            for i, v in row:
                acc[i] += x * v
        w = [Fraction(a, den) for a in acc]
        for (lo, hi), s in zip(self._central, sums):
            shift = (s - sum(w[lo:hi])) / (hi - lo)
            w[lo:hi] = [x + shift for x in w[lo:hi]]
        return tuple(w)

    # -- chamber geometry ----------------------------------------------------

    def trivial_weight(self) -> Weight:
        return (Fraction(0),) * self.coords

    def is_trivial_weight(self, w: Weight) -> bool:
        """Highest weight of the trivial representation: all labels zero (so
        any constant A block, which the roots do not see) and G2 blocks zero."""
        g2 = [sum(w[lo:hi]) for c, lo, hi in self._blocks() if c.kind == "G2"]
        return not any(self._labels(w)) and not any(g2)

    def _mirror(self, labels: tuple, i: int) -> tuple:
        """The simple reflection s_i on labels: l <- l - l_i * C[i]."""
        out = list(labels)
        for j, a in self._cartan[i]:
            out[j] -= labels[i] * a
        return tuple(out)

    def _reflect(self, labels: tuple) -> Tuple[tuple, int]:
        """Dominant labels of the Weyl orbit and the determinant sign."""
        current, sign, moved = tuple(labels), 1, True
        while moved:
            moved = False
            for i in range(len(current)):
                if current[i] < 0:
                    current, sign, moved = self._mirror(current, i), -sign, True
        return current, sign

    def to_dominant(self, w: Weight) -> Tuple[Weight, int]:
        """Dominant Weyl-orbit representative and the determinant sign."""
        w = _weight(w)
        labels, sign = self._reflect(self._labels(w))
        return self._from_labels(labels, self._sums(w)), sign

    def to_dominant_strict(self, w: Weight) -> Optional[Tuple[Weight, int]]:
        """As to_dominant, but None when the weight lies on a chamber wall."""
        dom, sign = self.to_dominant(w)
        return None if 0 in self._labels(dom) else (dom, sign)

    def _require_dominant(self, w) -> Tuple[Weight, Labels]:
        """A checked highest weight, with its labels."""
        w = _weight(w)
        if len(w) != self.coords:
            raise InputError(
                f"{_fmt(w)}: {self.name} weights have {self.coords} coordinates"
            )
        if any(sum(w[lo:hi]) for c, lo, hi in self._blocks() if c.kind == "G2"):
            raise InputError(f"{_fmt(w)} is off the trace-zero plane of G2")
        labels = self._labels(w)
        if any(x < 0 for x in labels):
            raise InputError(f"{_fmt(w)} is not dominant for {self.name}")
        if any(x.denominator != 1 for x in labels):
            raise InputError(f"{_fmt(w)} is not an integral weight for {self.name}")
        return w, labels

    # -- numeric invariants ---------------------------------------------------

    def weyl_dimension(self, lam: Weight) -> int:
        """prod <lam + delta, alpha^vee> / <delta, alpha^vee>, memoized."""
        lam = tuple(lam)
        if lam not in self._dims:
            lam, labels = self._require_dominant(lam)
            num = den = 1
            for _, coroot, _ in self._roots:
                num *= sum(c * (labels[j] + 1) for j, c in coroot)
                den *= sum(c for _, c in coroot)
            if num % den:
                raise ConsistencyError(f"{self.name}: dim V{_fmt(lam)} = {num}/{den}")
            self._dims[lam] = num // den
        return self._dims[lam]

    def casimir(self, lam: Weight) -> Fraction:
        """Eigenvalue <lambda + 2*delta, lambda> of the quadratic Casimir.

        For A-components the central (trace) part of a GL weight does not
        act through the simple Lie algebra: it is dropped by taking the
        weight with the same labels and block sums zero.
        """
        _, labels = self._require_dominant(lam)
        p = self._from_labels(labels, [0] * len(self._central))
        return _dot(p, p) + 2 * _dot(self.delta, p)

    # -- weight systems ---------------------------------------------------------

    def dominant_weight_multiplicities(self, lam: Weight) -> Dict[Weight, int]:
        """Freudenthal recursion over the dominant weights of V(lam), on labels.

        The dominant weights are the chains of positive roots below lam
        (Stembridge); a weight lies in V(lam) when its dominant Weyl
        representative does.  The label table is cached for
        weight_multiplicities.
        """
        lam, top = self._require_dominant(lam)
        if lam in self._dominant_cache:
            mult, coords = self._dominant_cache[lam]
            return {coords[w]: m for w, m in mult.items()}
        dominant, work = {top}, [top]
        while work:
            mu = work.pop()
            for alpha, _, _ in self._roots:
                nu = tuple(x - a for x, a in zip(mu, alpha))
                if min(nu) >= 0 and nu not in dominant:
                    dominant.add(nu)
                    work.append(nu)
        sums = self._sums(lam)
        coords = {w: self._from_labels(w, sums) for w in dominant}
        shifted = {w: _add(x, self.delta) for w, x in coords.items()}
        norm = {w: _dot(x, x) for w, x in shifted.items()}
        # descending height guarantees every weight above mu is known
        order = sorted(dominant, key=lambda w: -_dot(self.delta, coords[w]))
        mult: Dict[Labels, int] = {top: 1}
        for mu in order[1:]:
            total = Fraction(0)
            for alpha, coroot, half in self._roots:
                # <nu, alpha^vee> = <mu, alpha^vee> + 2k at nu = mu + k*alpha
                pair, part = sum(c * mu[j] for j, c in coroot), 0
                nu = tuple(x + a for x, a in zip(mu, alpha))
                while (rep := self._reflect(nu)[0]) in dominant:
                    pair += 2
                    part += mult[rep] * pair
                    nu = tuple(x + a for x, a in zip(nu, alpha))
                total += half * part
            at = f"{self.name}: V{_fmt(lam)} at {_fmt(coords[mu])}"
            denom = norm[top] - norm[mu]
            if denom <= 0:
                raise ConsistencyError(f"{at}: Freudenthal denominator {denom} <= 0")
            value = 2 * total / denom
            if value.denominator != 1 or value <= 0:
                raise ConsistencyError(f"{at}: multiplicity {value}, not in 1, 2, ...")
            mult[mu] = int(value)
        self._dominant_cache[lam] = mult, coords
        return {coords[w]: m for w, m in mult.items()}

    def weight_multiplicities(self, lam: Weight) -> Dict[Weight, int]:
        """Full weight-to-multiplicity map of V(lam); sums to the dimension.

        Each dominant multiplicity spreads along its Weyl orbit, walked on
        labels by the simple reflections at positive labels.
        """
        lam, _ = self._require_dominant(lam)
        if lam not in self._weights_cache:
            self.dominant_weight_multiplicities(lam)
            labels: Dict[Labels, int] = {}
            for mu, m in self._dominant_cache[lam][0].items():
                labels[mu], work = m, [mu]
                while work:
                    w = work.pop()
                    for i in range(len(w)):
                        if w[i] > 0 and (nu := self._mirror(w, i)) not in labels:
                            labels[nu] = m
                            work.append(nu)
            size, dim = sum(labels.values()), self.weyl_dimension(lam)
            if size != dim:
                where = f"{self.name}: multiplicities of V{_fmt(lam)}"
                raise ConsistencyError(f"{where} sum to {size}, not {dim}")
            sums = self._sums(lam)
            self._weights_cache[lam] = {self._from_labels(w, sums): m for w, m in labels.items()}
        return dict(self._weights_cache[lam])


# -- factories -----------------------------------------------------------------


_ZERO, _ONE = Fraction(0), Fraction(1)


def _vec(n: int, *entries: Tuple[int, int]) -> Weight:
    """The length-n weight with the given (index, value) entries, zero elsewhere."""
    w = [_ZERO] * n
    for i, x in entries:
        w[i] = Fraction(x)
    return tuple(w)


def _chain(n: int) -> List[Weight]:
    """The simple roots e_i - e_(i+1), i < n - 1."""
    return [_vec(n, (i, 1), (i + 1, -1)) for i in range(n - 1)]


def _pairs(m: int) -> List[Weight]:
    """The roots e_i - e_j, e_i + e_j (i < j) that B, C and D share."""
    return [_vec(m, (i, 1), (j, s)) for i in range(m) for j in range(i + 1, m) for s in (-1, 1)]


def _steps(n: int, count: int) -> List[Weight]:
    """The weights e_1 + ... + e_k, k = 1..count."""
    return [(_ONE,) * k + (_ZERO,) * (n - k) for k in range(1, count + 1)]


def type_a(n: int) -> RootSystem:
    """sl(n) in GL coordinates: n entries, roots e_i - e_j."""
    if n < 2:
        raise InputError("type A needs at least two coordinates")
    positive = [_vec(n, (i, 1), (j, -1)) for i in range(n) for j in range(i + 1, n)]
    return RootSystem([_Component("A", n)], _chain(n), positive, _steps(n, n - 1), f"A{n - 1}")


def type_b(m: int) -> RootSystem:
    """so(2m+1): roots e_i +- e_j and the short e_i."""
    if m < 1:
        raise InputError("type B needs rank at least one")
    simple = _chain(m) + [_vec(m, (m - 1, 1))]
    positive = [_vec(m, (i, 1)) for i in range(m)] + _pairs(m)
    fundamentals = _steps(m, m - 1) + [(Fraction(1, 2),) * m]
    return RootSystem([_Component("B", m)], simple, positive, fundamentals, f"B{m}")


def type_c(m: int) -> RootSystem:
    """sp(m): roots e_i +- e_j and the long 2e_i."""
    if m < 1:
        raise InputError("type C needs rank at least one")
    simple = _chain(m) + [_vec(m, (m - 1, 2))]
    positive = [_vec(m, (i, 2)) for i in range(m)] + _pairs(m)
    return RootSystem([_Component("C", m)], simple, positive, _steps(m, m), f"C{m}")


def type_d(m: int) -> RootSystem:
    """so(2m), m >= 2: roots e_i +- e_j."""
    if m < 2:
        raise InputError("type D needs rank at least two")
    simple = _chain(m) + [_vec(m, (m - 2, 1), (m - 1, 1))]
    half = Fraction(1, 2)
    fundamentals = _steps(m, m - 2) + [(half,) * (m - 1) + (-half,), (half,) * m]
    return RootSystem([_Component("D", m)], simple, _pairs(m), fundamentals, f"D{m}")


def g2() -> RootSystem:
    """G2 in the trace-zero hyperplane of three coordinates."""
    # a1, a2, a1 + a2, 2a1 + a2, 3a1 + a2, 3a1 + 2a2
    roots = ((1, -1, 0), (-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1), (-1, -1, 2))
    positive = [_weight(r) for r in roots]
    fundamentals = [_weight((0, -1, 1)), _weight((-1, -1, 2))]
    return RootSystem([_Component("G2", 3)], positive[:2], positive, fundamentals, "G2")


def product_system(*systems: RootSystem) -> RootSystem:
    """Direct product with concatenated coordinates."""
    if len(systems) < 2:
        raise InputError("a product needs at least two factors")
    components: List[_Component] = []
    simple: List[Weight] = []
    positive: List[Weight] = []
    fundamentals: List[Weight] = []
    total = sum(s.coords for s in systems)
    offset = 0
    zero = (Fraction(0),) * total

    def embed(w: Weight, at: int) -> Weight:
        return zero[:at] + w + zero[at + len(w):]

    for s in systems:
        components.extend(s.components)
        simple.extend(embed(r, offset) for r in s.simple_roots)
        positive.extend(embed(r, offset) for r in s.positive_roots)
        fundamentals.extend(embed(w, offset) for w in s.fundamental_weights)
        offset += s.coords
    name = "x".join(s.name for s in systems)
    return RootSystem(components, simple, positive, fundamentals, name)


# -- representation sums ---------------------------------------------------------


class RepSum:
    """Formal integer combination of irreducibles, keyed by highest weight.

    Multiplicities are positive for honest representations; subtraction
    may leave negative entries only when explicitly requested (virtual
    differences, used transiently while peeling off a known subbundle).
    """

    def __init__(self, system: RootSystem, terms: Dict[Weight, int]) -> None:
        self.system = system
        self.terms = {w: m for w, m in terms.items() if m != 0}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RepSum)
            and self.system is other.system
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        inside = ", ".join(
            f"{tuple(str(x) for x in w)}: {m}" for w, m in self.sorted_terms()
        )
        return f"RepSum({self.system.name}; {inside})"

    def sorted_terms(self) -> List[Tuple[Weight, int]]:
        return sorted(self.terms.items())

    def is_virtual(self) -> bool:
        return any(m < 0 for m in self.terms.values())

    @property
    def dimension(self) -> int:
        return sum(
            m * self.system.weyl_dimension(w) for w, m in self.terms.items()
        )

    def add(self, other: "RepSum") -> "RepSum":
        if other.system is not self.system:
            raise InputError("cannot combine representations of different systems")
        merged = dict(self.terms)
        for w, m in other.terms.items():
            merged[w] = merged.get(w, 0) + m
        return RepSum(self.system, merged)

    def scale(self, c: int) -> "RepSum":
        return RepSum(self.system, {w: c * m for w, m in self.terms.items()})

    def subtract(self, other: "RepSum", virtual: bool = False) -> "RepSum":
        result = self.add(other.scale(-1))
        if not virtual and result.is_virtual():
            bad = ", ".join(f"{_fmt(w)}: {m}" for w, m in result.terms.items() if m < 0)
            raise ConsistencyError(
                f"{self.system.name}: subtraction left negative multiplicities {bad}"
            )
        return result

    def trivial_multiplicity(self) -> int:
        return sum(
            m for w, m in self.terms.items() if self.system.is_trivial_weight(w)
        )


def irreducible(system: RootSystem, lam) -> RepSum:
    return RepSum(system, {system._require_dominant(lam)[0]: 1})


# -- public operations --------------------------------------------------------


def tensor_decompose(system: RootSystem, lam, mu) -> RepSum:
    """Decompose V(lam) (x) V(mu) by Klimyk's dominant-reflection rule.

    The weight system of the smaller factor is enumerated; each shifted
    weight lam + nu + delta is reflected into the open chamber (walls
    drop out) and contributes its sign.  The result is checked to be an
    honest representation of the right total dimension, and its terms are
    memoized per system under both argument orders.  A memo hit skips the
    input checks: its key passed them when it was stored, and equal
    weights hash alike whether given as ints or Fractions.
    """
    lam, mu = tuple(lam), tuple(mu)
    if (lam, mu) in system._products:
        return RepSum(system, system._products[lam, mu])
    lam, _ = system._require_dominant(lam)
    mu, _ = system._require_dominant(mu)
    if system.weyl_dimension(mu) > system.weyl_dimension(lam):
        lam, mu = mu, lam
    shift = _add(lam, system.delta)
    counts: Dict[Weight, int] = {}
    for nu, mult in system.weight_multiplicities(mu).items():
        res = system.to_dominant_strict(_add(shift, nu))
        if res is None:
            continue
        dom, sign = res
        w = _sub(dom, system.delta)
        counts[w] = counts.get(w, 0) + sign * mult
    result = RepSum(system, counts)
    where = f"{system.name}: V{_fmt(lam)} (x) V{_fmt(mu)}"
    for w, m in result.sorted_terms():
        if m < 0:
            raise ConsistencyError(
                f"{where}: Klimyk produced a negative multiplicity {m} at {_fmt(w)}"
            )
    expected = system.weyl_dimension(lam) * system.weyl_dimension(mu)
    if result.dimension != expected:
        raise ConsistencyError(
            f"{where} has tensor dimension {result.dimension}, expected {expected}"
        )
    system._products[lam, mu] = system._products[mu, lam] = result.terms
    return RepSum(system, result.terms)


def tensor_product_sum(system: RootSystem, a: RepSum, b: RepSum) -> RepSum:
    """Tensor product of two (honest) representation sums."""
    if a.is_virtual() or b.is_virtual():
        raise InputError("tensor products need honest representations")
    counts: Dict[Weight, int] = {}
    for wa, ma in a.terms.items():
        for wb, mb in b.terms.items():
            for w, m in tensor_decompose(system, wa, wb).terms.items():
                counts[w] = counts.get(w, 0) + ma * mb * m
    return RepSum(system, counts)
