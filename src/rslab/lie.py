"""Exact weight-lattice representation theory for the classical series and G2.

Root systems live in explicit Euclidean coordinates with the standard
scalar product: type A uses GL-style coordinates (n entries, weights are
weakly decreasing tuples, shifts by a constant tuple are central), B/C/D
the usual m-coordinate realizations with half-integer spin weights, and G2
the trace-zero hyperplane of three coordinates; products concatenate them.
On top sit Weyl's dimension formula, Casimir eigenvalues
``<lambda+2*delta, lambda>``, Freudenthal's multiplicity recursion over the
dominant weights, which spreads each multiplicity along its Weyl orbit as
it goes and so builds the full weight table in one pass, and the Klimyk
tensor-product rule.

Root data is held once, as integers: the factories pass each root as a
sparse row of its nonzero (coordinate, value) int pairs, and the
fundamental weights as such rows over one denominator (1 for A, C and G2,
2 for B and D, the lcm of the factors' for products).  delta, the
construction checks, the simple coroots and the Cartan rows come from the
rows with int arithmetic; the per-root table (labels, coroot coefficients,
|alpha|^2 / 2) and the public Fraction tuples follow on first use.

Inside a system a weight is the int tuple of its Dynkin labels
<w, alpha_i^vee>: ``to_dominant``, Freudenthal, ``weight_multiplicities``
(tables keyed by labels), the memoized Weyl dimension and Klimyk (memoized
per label pair) all run on labels.  Labels miss only the constant tuple on
an A or G2 block, which no root sees; every weight of V(lam) has the block
sums of lam, and every summand of V(lam) (x) V(mu) those of lam + mu.  So a
``RepSum`` keys each term by its labels plus its block sums (ints where
integral), and adds, subtracts, measures and multiplies on those keys; its
``terms`` are a coordinate view, built through ``from_labels`` once per
sum.  Coordinates appear only at the API, where the highest weights a
caller passes are checked once.  Every call returns a fresh dict or RepSum.

Equal factory calls (``type_b(3)`` twice, or ``product_system`` over the
same factor objects) return one shared RootSystem while it is kept, so its
tables and memos serve every later request on that Lie algebra.  The least
recently used are dropped once the kept systems hold more than
``_KEPT_ROOTS`` positive roots; a later call builds a fresh system, and sums
over the old and the new one refuse to combine ("different systems").
This store is the one cache that lasts across requests: ``holonomy``
builds each model afresh on the kept system, so a model never outlives it.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple

from .errors import ConsistencyError, InputError, check, integer

Weight = Tuple[Fraction, ...]
Labels = Tuple[int, ...]
Key = Tuple[Labels, tuple]  # a RepSum term: labels and A/G2 block sums
Sparse = Tuple[Tuple[int, int], ...]


def _fmt(w: Iterable) -> str:
    """A weight with exact p/q entries, for messages."""
    return "(" + ", ".join(str(x) for x in w) + ")"


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


def _sums(values: Iterable) -> tuple:
    """Block sums, as ints where integral."""
    return tuple(x.numerator if type(x) is Fraction and x.denominator == 1 else x for x in values)


_Component = namedtuple("_Component", "kind coords")  # kind: A, B, C, D or G2


class RootSystem:
    """A root system of classical or G2 type, or a product of such, built
    from root rows and the fundamental weights as (den, rows).

    Instances are immutable after construction apart from internal caches
    (integer tables, the Fraction tuples, Weyl dimensions, weight systems,
    Klimyk products), which are only ever appended to.  The factories hand
    one instance to every caller on the same root datum, so those caches
    are shared across requests: nothing may modify them, and callers of
    ``_klimyk`` must not modify the memo entries it returns.
    """

    def __init__(self, components: Sequence[_Component], simple: Sequence[Sparse],
                 positive: Sequence[Sparse], omega: Tuple[int, Sequence[Sparse]],
                 name: str) -> None:
        self.components = tuple(components)
        self.coords = sum(c.coords for c in self.components)
        self.name = name
        self._simple, self._positive = tuple(simple), tuple(positive)
        self._omega = omega[0], tuple(omega[1])
        acc = [0] * self.coords  # twice delta
        for row in self._positive:
            for i, v in row:
                acc[i] += v
        self.delta = tuple(Fraction(x, 2) for x in acc)
        starts = itertools.accumulate((c.coords for c in self.components), initial=0)
        blocks = [(c.kind, lo, lo + c.coords) for c, lo in zip(self.components, starts)]
        # blocks whose constant tuple no root sees: labels omit their sums
        self._central = [(lo, hi) for kind, lo, hi in blocks if kind in ("A", "G2")]
        self._g2 = [(lo, hi) for kind, lo, hi in blocks if kind == "G2"]
        self._dims: Dict[Labels, int] = {}
        self._weights_cache: Dict[Labels, Dict[Labels, int]] = {}
        self._products: Dict[Tuple[Labels, Labels], Dict[Labels, int]] = {}
        norms = [sum(v * v for _, v in row) for row in self._simple]
        self._validate(norms, acc)
        # simple coroots 2*alpha/|alpha|^2 = 2 row / norm as nonzero
        # (coordinate, value) integer pairs over the common denominator _coden
        simple_norms = list(zip(self._simple, norms))
        self._coden = math.lcm(*(n // math.gcd(2 * v, n) for r, n in simple_norms for _, v in r))
        self._coroots = [tuple((i, 2 * v * self._coden // n) for i, v in r) for r, n in simple_norms]

    def _dense(self, row: Sparse, den: int = 1) -> Weight:
        w = [Fraction(0)] * self.coords
        for i, v in row:
            w[i] = Fraction(v, den)
        return tuple(w)

    @cached_property
    def simple_roots(self) -> Tuple[Weight, ...]:
        return tuple(self._dense(row) for row in self._simple)

    @cached_property
    def positive_roots(self) -> Tuple[Weight, ...]:
        return tuple(self._dense(row) for row in self._positive)

    @cached_property
    def fundamental_weights(self) -> Tuple[Weight, ...]:
        den, rows = self._omega
        return tuple(self._dense(row, den) for row in rows)

    # -- construction checks ------------------------------------------------

    def _validate(self, norms: List[int], acc: List[int]) -> None:
        """Cartan entries and delta, on the integer rows; keeps the Cartan
        rows _cartan (row i: the nonzero labels <alpha_i, alpha_j^vee>).

        Only simple roots that share a coordinate with alpha_j, found through
        the coordinate columns, can have a nonzero entry on it; every other
        entry is 0, an integer <= 0, so no check is skipped."""
        cartan: List[list] = [[] for _ in norms]
        columns = _columns(self._simple, self.coords)
        for j, norm in enumerate(norms):
            if norm == 0:
                raise ConsistencyError(
                    f"{self.name}: simple root {_fmt(self.simple_roots[j])} has norm 0"
                )
            dots: Dict[int, int] = {}
            for k, v in self._simple[j]:
                for i, w in columns[k]:
                    dots[i] = dots.get(i, 0) + v * w
            for i in sorted(dots):
                twice = 2 * dots[i]
                entry, rest = divmod(twice, norm)
                if rest or (i != j and entry > 0):
                    a, b = self.simple_roots[j], self.simple_roots[i]
                    raise ConsistencyError(
                        f"{self.name}: Cartan entry of {_fmt(b)} on {_fmt(a)} is "
                        f"{Fraction(twice, norm)}; need an integer, <= 0 off the diagonal"
                    )
                if entry:
                    cartan[i].append((j, entry))
        self._cartan = [tuple(row) for row in cartan]
        # delta equals the sum of fundamental weights, up to the central
        # (constant per A-component) directions that GL coordinates carry
        oden, omega = self._omega
        total = [0] * self.coords
        for row in omega:
            for i, v in row:
                total[i] += v
        # <delta, a> - <sum omega, a> over 2 oden, per coordinate
        gap = [a * oden - 2 * t for a, t in zip(acc, total)]
        for k, row in enumerate(self._positive):
            if sum(v * gap[i] for i, v in row):
                on_delta = sum(v * acc[i] for i, v in row)  # over 2
                on_omega = sum(v * total[i] for i, v in row)  # over oden
                raise ConsistencyError(
                    f"{self.name}: <delta, a> = {Fraction(on_delta, 2)} but "
                    f"<sum of fundamental weights, a> = {Fraction(on_omega, oden)}, "
                    f"a = {_fmt(self.positive_roots[k])}"
                )

    # -- integer tables and labels --------------------------------------------

    @cached_property
    def _roots(self) -> List[Tuple[Labels, Sparse, int]]:
        """Per positive root: its labels, the nonzero c_j = 2<alpha, omega_j>
        / |alpha|^2 of alpha^vee = sum_j c_j alpha_j^vee, and |alpha|^2,
        from each root's integer row against the coroot and omega columns."""
        oden, omega = self._omega
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
            # c_j = <alpha, omega_j> / (|alpha|^2 / 2) = 2 p_j / (oden norm)
            coroot = tuple((j, 2 * p // (oden * norm)) for j, p in enumerate(pairs) if p)
            out.append((_exact(labels, self._coden), coroot, norm))
        return out

    def from_labels(self, labels: Sequence[int], like: Optional[Sequence] = None,
                    sums: Optional[Sequence] = None) -> Weight:
        """Euclidean coordinates of the weight with these Dynkin labels whose
        sum over each A or G2 block is ``sums``, or that of the weight
        ``like`` (zero without either); every weight of V(lam) has the block
        sums of lam."""
        if sums is None:
            sums = [0 if like is None else sum(like[lo:hi]) for lo, hi in self._central]
        den, omega = self._omega
        acc = [0] * self.coords
        for x, row in zip(labels, omega):
            for i, v in row:
                acc[i] += x * v
        dens = [den] * self.coords
        for (lo, hi), target in zip(self._central, sums):
            # each entry moves by (target - block sum) / k, over den * k * t
            target = Fraction(target)
            k, t = hi - lo, target.denominator
            shift = target.numerator * den - sum(acc[lo:hi]) * t
            acc[lo:hi] = [a * k * t + shift for a in acc[lo:hi]]
            dens[lo:hi] = [den * k * t] * k
        return tuple(map(Fraction, acc, dens))

    # -- chamber geometry ----------------------------------------------------

    def trivial_weight(self) -> Weight:
        return (Fraction(0),) * self.coords

    def _mirror(self, labels: tuple, i: int) -> tuple:
        """The simple reflection s_i on labels: l <- l - l_i * C[i]."""
        out = list(labels)
        for j, a in self._cartan[i]:
            out[j] -= labels[i] * a
        return tuple(out)

    def to_dominant(self, labels: Labels) -> Tuple[Labels, int]:
        """The dominant labels in the Weyl orbit of ``labels`` and the
        determinant sign of a Weyl element taking them there; a zero label
        in the result puts the weight on a chamber wall."""
        current, sign, moved = tuple(labels), 1, True
        while moved:
            moved = False
            for i in range(len(current)):
                if current[i] < 0:
                    current, sign, moved = self._mirror(current, i), -sign, True
        return current, sign

    def _require_dominant(self, w) -> Tuple[Weight, Labels]:
        """A checked highest weight, with its Dynkin labels <w, alpha_i^vee>."""
        w = tuple(v if type(v) is Fraction else Fraction(v) for v in w)
        if len(w) != self.coords:
            raise InputError(f"{_fmt(w)}: {self.name} weights have {self.coords} coordinates")
        if any(sum(w[lo:hi]) for lo, hi in self._g2):
            raise InputError(f"{_fmt(w)} is off the trace-zero plane of G2")
        den = math.lcm(*(x.denominator for x in w))
        ints = [x.numerator * (den // x.denominator) for x in w]
        labels = _exact((sum(ints[i] * c for i, c in row) for row in self._coroots),
                        den * self._coden)
        if any(x < 0 for x in labels):
            raise InputError(f"{_fmt(w)} is not dominant for {self.name}")
        if any(x.denominator != 1 for x in labels):
            raise InputError(f"{_fmt(w)} is not an integral weight for {self.name}")
        return w, labels

    def _key(self, w) -> Key:
        """A checked highest weight as its labels and block sums."""
        w, labels = self._require_dominant(w)
        return labels, _sums(sum(w[lo:hi]) for lo, hi in self._central)

    # -- numeric invariants ---------------------------------------------------

    def weyl_dimension(self, lam: Weight) -> int:
        """prod <lam + delta, alpha^vee> / <delta, alpha^vee>."""
        return self._dimension(self._require_dominant(lam)[1])

    def _dimension(self, labels: Labels) -> int:
        """Weyl's formula on dominant labels, memoized per label tuple."""
        if labels not in self._dims:
            shifted = [x + 1 for x in labels]
            num = math.prod(sum(c * shifted[j] for j, c in row) for _, row, _ in self._roots)
            dim, rest = divmod(num, self._weyl_den)
            if rest:
                raise ConsistencyError(
                    f"{self.name}: dim V at labels {_fmt(labels)} = {num}/{self._weyl_den}")
            self._dims[labels] = dim
        return self._dims[labels]

    @cached_property
    def _weyl_den(self) -> int:
        """prod <delta, alpha^vee>: the coroot coefficients of each root, summed."""
        return math.prod(sum(c for _, c in coroot) for _, coroot, _ in self._roots)

    def casimir(self, lam: Weight) -> Fraction:
        """Eigenvalue <lambda + 2*delta, lambda> of the quadratic Casimir.

        The central (trace) part of a GL weight does not act through the
        simple Lie algebra: the weight with its labels and block sums zero."""
        _, labels = self._require_dominant(lam)
        p = self.from_labels(labels)
        return sum((x * (x + 2 * d) for x, d in zip(p, self.delta) if x), Fraction(0))

    # -- weight systems ---------------------------------------------------------

    def dominant_weight_multiplicities(self, lam: Weight, top: Labels) -> Dict[Labels, int]:
        """Every weight of V(lam) with its multiplicity, keyed by Dynkin
        labels, for the checked highest weight ``lam`` with labels ``top``.

        Freudenthal's recursion runs over the dominant weights, the chains of
        positive roots below lam (Stembridge), and spreads each multiplicity
        along its Weyl orbit, walked by the simple reflections at positive
        labels, as soon as it is known (Moody-Patera).  Each mu + k*alpha
        above mu has a dominant representative reached before mu, so it is
        in the table, and a missing key means "not a weight".
        """
        # the name is kept for perfbench's tracer, which spans it as lie.freudenthal
        # drop[mu] = |top + delta|^2 - |mu + delta|^2; stepping from mu down
        # to mu - alpha adds |alpha|^2 (<mu + delta, alpha^vee> - 1)
        drop, work = {top: 0}, [top]
        while work:
            mu = work.pop()
            for alpha, coroot, norm in self._roots:
                nu = tuple(x - a for x, a in zip(mu, alpha))
                if min(nu) >= 0 and nu not in drop:
                    drop[nu] = drop[mu] + norm * (sum(c * (mu[j] + 1) for j, c in coroot) - 1)
                    work.append(nu)

        def fail(mu: Labels, what: str) -> NoReturn:
            at = _fmt(self.from_labels(mu, lam))
            raise ConsistencyError(f"{self.name}: V{_fmt(lam)} at {at}: {what}")

        table: Dict[Labels, int] = {}
        # drop grows strictly down the dominance order: weights above mu come first
        for mu in [top] + sorted(drop.keys() - {top}, key=drop.get):
            m = 1
            if mu != top:
                if drop[mu] <= 0:
                    fail(mu, f"Freudenthal denominator {drop[mu]} <= 0")
                total = 0  # 2 sum_alpha sum_k m(mu + k alpha) <mu + k alpha, alpha>
                for alpha, coroot, norm in self._roots:
                    # <nu, alpha^vee> = <mu, alpha^vee> + 2k at nu = mu + k*alpha
                    pair, part = sum(c * mu[j] for j, c in coroot), 0
                    nu = tuple(x + a for x, a in zip(mu, alpha))
                    while above := table.get(nu):
                        pair += 2
                        part += above * pair
                        nu = tuple(x + a for x, a in zip(nu, alpha))
                    total += norm * part
                m, rest = divmod(total, drop[mu])
                if rest or m <= 0:
                    fail(mu, f"multiplicity {Fraction(total, drop[mu])}, not in 1, 2, ...")
            table[mu], work = m, [mu]
            while work:
                w = work.pop()
                for i in range(len(w)):
                    if w[i] > 0 and (nu := self._mirror(w, i)) not in table:
                        table[nu] = m
                        work.append(nu)
        return table

    def weight_multiplicities(self, lam: Weight) -> Dict[Labels, int]:
        """Every weight of V(lam) with its multiplicity, keyed by Dynkin
        labels (``from_labels(w, lam)`` gives coordinates); sums to the
        dimension, memoized per label tuple of lam."""
        lam, top = self._require_dominant(lam)
        if top not in self._weights_cache:
            table = self.dominant_weight_multiplicities(lam, top)
            size, dim = sum(table.values()), self._dimension(top)
            check("weight system size", size == dim, system=self.name, highest_weight=lam,
                  multiplicities=size, weyl_dimension=dim)
            self._weights_cache[top] = table
        return dict(self._weights_cache[top])


# -- factories -----------------------------------------------------------------

# Factory results by root datum, least recently used first.  A system holds
# about 200 bytes of sparse rows per positive root, so the store is bounded
# by the positive roots it holds (about 0.8 MiB), not by a count of systems.
_kept: Dict[tuple, RootSystem] = {}
_KEPT_ROOTS = 4096


def _shared(key: tuple, build: Callable[[], RootSystem]) -> RootSystem:
    """The kept system under ``key``, or a new one; then the least recently
    used are dropped until the kept positive roots total at most
    _KEPT_ROOTS.  A system larger than that is not kept."""
    system = _kept.pop(key, None) or build()
    if len(system._positive) <= _KEPT_ROOTS:
        _kept[key] = system
        held = sum(len(s._positive) for s in _kept.values())
        while held > _KEPT_ROOTS:
            held -= len(_kept.pop(next(iter(_kept)))._positive)
    return system


# The per-root table and each Weyl dimension walk the rank^2 positive roots,
# each with up to rank coroot terms, so a system costs about rank^3: on a
# 2-core VM `rep` at rank 200 took 2.7 s (a200) to 4.0 s (c200).  RANK_LIMIT
# keeps the B199 and D200 of `sphere_check` and `holonomy so 399/400` inside.
RANK_LIMIT = 200

# `rep --multiplicities` and `--point` build, convert and print every weight of
# V(lam), `--tensor` builds Klimyk's smaller factor; their cost follows the
# entries printed (weights x coordinates), which the Weyl dimension times the
# coordinate count bounds.  On a 2-core VM, a30 with weight 1,1,1,0,...,0
# (4,495 x 31 = 139,345) took 2.6-3.3 s with --multiplicities --point and
# 5-6 s tensored with a generic weight; unbounded, a50 with 1,1,1,0,...,0
# (1,062,075) took 14 s.
WEIGHT_TABLE_LIMIT = 150_000


def _within_rank(rank: int) -> None:
    """Refuse a system of rank above RANK_LIMIT before any of it is built."""
    if rank > RANK_LIMIT:
        raise InputError(f"root systems need rank <= {RANK_LIMIT}, got {rank}")


def _chain(n: int) -> List[Sparse]:
    """The simple roots e_i - e_(i+1), i < n - 1."""
    return [((i, 1), (i + 1, -1)) for i in range(n - 1)]


def _pairs(m: int) -> List[Sparse]:
    """The roots e_i - e_j, e_i + e_j (i < j) that B, C and D share."""
    return [((i, 1), (j, s)) for i in range(m) for j in range(i + 1, m) for s in (-1, 1)]


def _steps(count: int, value: int = 1) -> List[Sparse]:
    """The rows value * (e_1 + ... + e_k), k = 1..count."""
    return [tuple((i, value) for i in range(k)) for k in range(1, count + 1)]


def _shift(row: Sparse, offset: int, factor: int = 1) -> Sparse:
    return tuple((offset + i, factor * v) for i, v in row)


def type_a(n: int) -> RootSystem:
    """sl(n) in GL coordinates: n entries, roots e_i - e_j."""
    if integer(n, "type A size") < 2:
        raise InputError("type A needs at least two coordinates")
    _within_rank(n - 1)

    def build() -> RootSystem:
        positive = [((i, 1), (j, -1)) for i in range(n) for j in range(i + 1, n)]
        return RootSystem([_Component("A", n)], _chain(n), positive, (1, _steps(n - 1)), f"A{n - 1}")

    return _shared(("A", n), build)


def type_b(m: int) -> RootSystem:
    """so(2m+1): roots e_i +- e_j and the short e_i."""
    if integer(m, "type B rank") < 1:
        raise InputError("type B needs rank at least one")
    _within_rank(m)

    def build() -> RootSystem:
        simple = _chain(m) + [((m - 1, 1),)]
        positive = [((i, 1),) for i in range(m)] + _pairs(m)
        spin = tuple((i, 1) for i in range(m))  # (1/2, ..., 1/2)
        omega = (2, _steps(m - 1, 2) + [spin])
        return RootSystem([_Component("B", m)], simple, positive, omega, f"B{m}")

    return _shared(("B", m), build)


def type_c(m: int) -> RootSystem:
    """sp(m): roots e_i +- e_j and the long 2e_i."""
    if integer(m, "type C rank") < 1:
        raise InputError("type C needs rank at least one")
    _within_rank(m)

    def build() -> RootSystem:
        simple = _chain(m) + [((m - 1, 2),)]
        positive = [((i, 2),) for i in range(m)] + _pairs(m)
        return RootSystem([_Component("C", m)], simple, positive, (1, _steps(m)), f"C{m}")

    return _shared(("C", m), build)


def type_d(m: int) -> RootSystem:
    """so(2m), m >= 2: roots e_i +- e_j."""
    if integer(m, "type D rank") < 2:
        raise InputError("type D needs rank at least two")
    _within_rank(m)

    def build() -> RootSystem:
        simple = _chain(m) + [((m - 2, 1), (m - 1, 1))]
        half = tuple((i, 1) for i in range(m - 1))  # (1/2, ..., 1/2, -+1/2)
        omega = (2, _steps(m - 2, 2) + [half + ((m - 1, -1),), half + ((m - 1, 1),)])
        return RootSystem([_Component("D", m)], simple, _pairs(m), omega, f"D{m}")

    return _shared(("D", m), build)


def g2() -> RootSystem:
    """G2 in the trace-zero hyperplane of three coordinates."""

    def build() -> RootSystem:
        # a1, a2, a1 + a2, 2a1 + a2, 3a1 + a2, 3a1 + 2a2
        roots = ((1, -1, 0), (-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1), (-1, -1, 2))
        positive = [tuple((i, x) for i, x in enumerate(r) if x) for r in roots]
        # omega_1 = 2a1 + a2, omega_2 = 3a1 + 2a2
        omega = (1, [positive[3], positive[5]])
        return RootSystem([_Component("G2", 3)], positive[:2], positive, omega, "G2")

    return _shared(("G2",), build)


def product_system(*systems: RootSystem) -> RootSystem:
    """Direct product with concatenated coordinates; the fundamental weights
    go over the lcm of the factors' denominators.  Kept under the factor
    objects themselves: a rebuilt factor gives a new product."""
    if len(systems) < 2:
        raise InputError("a product needs at least two factors")
    _within_rank(sum(len(s._simple) for s in systems))

    def build() -> RootSystem:
        den = math.lcm(*(s._omega[0] for s in systems))
        simple, positive, omega, offset = [], [], [], 0  # sparse rows
        for s in systems:
            simple.extend(_shift(row, offset) for row in s._simple)
            positive.extend(_shift(row, offset) for row in s._positive)
            oden, rows = s._omega
            omega.extend(_shift(row, offset, den // oden) for row in rows)
            offset += s.coords
        components = [c for s in systems for c in s.components]
        name = "x".join(s.name for s in systems)
        return RootSystem(components, simple, positive, (den, omega), name)

    return _shared(("x", *systems), build)


# -- representation sums ---------------------------------------------------------


class RepSum:
    """Formal integer combination of irreducibles, keyed by highest weight.

    Each term is kept under the labels and block sums of its highest weight
    (checked when given in coordinates); ``terms`` and ``sorted_terms`` are
    the coordinate view, built once.  Multiplicities are positive for honest
    representations: subtraction refuses to leave a negative entry, and
    tensor products refuse a sum built with one (a virtual sum).
    """

    def __init__(self, system: RootSystem, terms: Dict[Weight, int]) -> None:
        keys = {system._key(w): m for w, m in terms.items()}
        self.system, self._keys = system, {k: m for k, m in keys.items() if m}
        self._view: Optional[List[Tuple[Weight, int]]] = None

    @classmethod
    def _of(cls, system: RootSystem, keys: Dict[Key, int]) -> "RepSum":
        """A sum over keys that passed the checks, zero entries dropped."""
        rep = cls(system, {})
        rep._keys = {k: m for k, m in keys.items() if m}
        return rep

    def __eq__(self, other: object) -> bool:
        same_system = isinstance(other, RepSum) and self.system is other.system
        return same_system and self._keys == other._keys

    def __repr__(self) -> str:
        inside = ", ".join(f"{_fmt(w)}: {m}" for w, m in self.sorted_terms())
        return f"RepSum({self.system.name}; {inside})"

    @property
    def terms(self) -> Dict[Weight, int]:
        """Highest weight in coordinates -> multiplicity, as a fresh dict."""
        return dict(self.sorted_terms())

    def sorted_terms(self) -> List[Tuple[Weight, int]]:
        if self._view is None:
            point = self.system.from_labels
            self._view = sorted((point(w, sums=s), m) for (w, s), m in self._keys.items())
        return list(self._view)

    def is_virtual(self) -> bool:
        return any(m < 0 for m in self._keys.values())

    @property
    def dimension(self) -> int:
        return sum(m * self.system._dimension(labels) for (labels, _), m in self._keys.items())

    def add(self, other: "RepSum") -> "RepSum":
        if other.system is not self.system:
            raise InputError("cannot combine representations of different systems")
        merged = dict(self._keys)
        for k, m in other._keys.items():
            merged[k] = merged.get(k, 0) + m
        return RepSum._of(self.system, merged)

    def subtract(self, other: "RepSum") -> "RepSum":
        result = self.add(RepSum._of(other.system, {k: -m for k, m in other._keys.items()}))
        if result.is_virtual():
            point = self.system.from_labels
            bad = ", ".join(f"{_fmt(point(w, sums=s))}: {m}"
                            for (w, s), m in result._keys.items() if m < 0)
            raise ConsistencyError(
                f"{self.system.name}: subtraction left negative multiplicities {bad}")
        return result

    def trivial_multiplicity(self, center_acts: bool = False) -> int:
        """Copies of the trivial representation: terms with all labels zero,
        so any constant A block; with ``center_acts`` only the zero weight."""
        if center_acts:
            zero = (0,) * len(self.system._cartan), (0,) * len(self.system._central)
            return self._keys.get(zero, 0)
        return sum(m for (labels, _), m in self._keys.items() if not any(labels))


def irreducible(system: RootSystem, lam) -> RepSum:
    return RepSum._of(system, {system._key(lam): 1})


# -- public operations --------------------------------------------------------


def _klimyk(system: RootSystem, a: Key, b: Key) -> Dict[Labels, int]:
    """V(a) (x) V(b) by Klimyk's dominant-reflection rule, on labels.

    The weight system of the smaller factor is enumerated; each shifted
    weight lam + nu + delta, whose labels are those of lam and nu plus one,
    is reflected into the dominant chamber, drops out on a wall, and
    otherwise contributes its sign at the reflected labels less one.  The
    result is checked to be an honest representation of the right total
    dimension and memoized per system under both label orders.  Its terms
    carry no block sums (those of a + b, which the callers add), and the
    callers must not modify it.
    """
    if (a[0], b[0]) in system._products:
        return system._products[a[0], b[0]]
    left, right = system._dimension(a[0]), system._dimension(b[0])
    if right > left:
        a, b = b, a
    lam, mu = (system.from_labels(k[0], sums=k[1]) for k in (a, b))
    shift = tuple(x + 1 for x in a[0])
    counts: Dict[Labels, int] = {}
    for nu, mult in system.weight_multiplicities(mu).items():
        dom, sign = system.to_dominant(tuple(x + y for x, y in zip(shift, nu)))
        if 0 not in dom:
            w = tuple(x - 1 for x in dom)
            counts[w] = counts.get(w, 0) + sign * mult
    counts = {w: m for w, m in counts.items() if m}
    if any(m < 0 for m in counts.values()):
        both = tuple(x + y for x, y in zip(lam, mu))
        w, m = min((system.from_labels(w, both), m) for w, m in counts.items() if m < 0)
        raise ConsistencyError(f"{system.name}: V{_fmt(lam)} (x) V{_fmt(mu)}: Klimyk "
                               f"produced a negative multiplicity {m} at {_fmt(w)}")
    dimension, expected = sum(m * system._dimension(w) for w, m in counts.items()), left * right
    check("Klimyk tensor dimension", dimension == expected, system=system.name, left=lam,
          right=mu, dimension=dimension, expected=expected)
    system._products[a[0], b[0]] = system._products[b[0], a[0]] = counts
    return counts


def tensor_decompose(system: RootSystem, lam, mu) -> RepSum:
    """V(lam) (x) V(mu) by Klimyk's rule, after checking both highest weights."""
    return tensor_product_sum(system, irreducible(system, lam), irreducible(system, mu))


def tensor_product_sum(system: RootSystem, a: RepSum, b: RepSum) -> RepSum:
    """Tensor product of two (honest) representation sums, on their keys."""
    if a.system is not system or b.system is not system:
        raise InputError("cannot combine representations of different systems")
    if a.is_virtual() or b.is_virtual():
        raise InputError("tensor products need honest representations")
    counts: Dict[Key, int] = {}
    for ka, ma in a._keys.items():
        for kb, mb in b._keys.items():
            sums = _sums(x + y for x, y in zip(ka[1], kb[1]))  # those of ka + kb
            for w, m in _klimyk(system, ka, kb).items():
                counts[w, sums] = counts.get((w, sums), 0) + ma * mb * m
    return RepSum._of(system, counts)
