"""Spin-3/2 bundles under reduced holonomy, and what survives on the kernel.

Every holonomy group handled here gets an explicit weight-lattice model:
the (complexified) tangent representation and the spinor bundle as sums
of irreducibles over the group's root system.  The twisted spin-3/2
bundle is then computed once and for all as

    Sigma_3/2 = Sigma_1/2 (x) T  (-)  Sigma_1/2,

with the subtraction checked to leave honest nonnegative multiplicities.
Trivial summands count parallel fields.  On top of the models sit the
quaternion-Kaehler curvature bound, the round-sphere Casimir check, the
topological kernel formulas (Calabi-Yau, hyperkaehler, Spin(7), G2,
positive quaternion-Kaehler), two symbolic Betti-number identities, the
catalog of eight-dimensional symmetric spaces with kernel, and the
parallel-count formula for Riemannian products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import lie
from .errors import ConsistencyError, InputError, NotApplicableError
from .lie import RepSum, RootSystem, Weight

HOLONOMY_KINDS = ("su", "u", "sp", "sp1sp", "g2", "spin7", "so")


# ---------------------------------------------------------------------------
# holonomy models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinThreeHalf:
    """The spin-3/2 bundle of a model, with its Z2-grading when one exists."""

    total: RepSum
    plus: Optional[RepSum] = None
    minus: Optional[RepSum] = None

    @property
    def graded(self) -> bool:
        return self.plus is not None


class HolonomyModel:
    """Weight-lattice model of a holonomy group acting on spinors.

    ``tangent`` is the complexified tangent representation (for the real
    forms G2, Spin(7) and SO(n) the complexification stays irreducible
    and is used directly).  ``spinor`` is the full spinor module; for
    even real dimension the half-spinor pieces are kept as well, since
    Clifford multiplication by T is odd and the graded spin-3/2 parts
    are Sigma^+- (x) T (-) Sigma^-+.
    """

    def __init__(
        self,
        kind: str,
        parameter: int,
        group: str,
        system: RootSystem,
        real_dimension: int,
        tangent: RepSum,
        spinor_plus: Optional[RepSum],
        spinor_minus: Optional[RepSum],
        spinor: RepSum,
        zero_weight_trivial: bool = False,
    ) -> None:
        self.kind = kind
        self.parameter = parameter
        self.group = group
        self.system = system
        self.real_dimension = real_dimension
        self.tangent = tangent
        self.spinor_plus = spinor_plus
        self.spinor_minus = spinor_minus
        self.spinor = spinor
        self.zero_weight_trivial = zero_weight_trivial
        self._three_half: Optional[SpinThreeHalf] = None

        if tangent.dimension != real_dimension:
            raise ConsistencyError(
                f"{group}: tangent model has dimension {tangent.dimension}, "
                f"expected {real_dimension}"
            )
        expected_spinor = 2 ** (real_dimension // 2)
        if spinor.dimension != expected_spinor:
            raise ConsistencyError(
                f"{group}: spinor model has dimension {spinor.dimension}, "
                f"expected {expected_spinor}"
            )
        if (spinor_plus is None) != (spinor_minus is None):
            raise ConsistencyError(f"{group}: half-spinor grading is one-sided")
        if spinor_plus is not None:
            if spinor_plus.add(spinor_minus) != spinor:
                raise ConsistencyError(f"{group}: half-spinors do not sum to spinor")

    def __repr__(self) -> str:
        return f"HolonomyModel({self.group})"

    def trivial_count(self, rep: RepSum) -> int:
        """Multiplicity of the trivial representation inside ``rep``.

        For U(n) the center acts on every spinor summand through the
        square root of the canonical bundle, so only the exact zero
        weight is trivial; in GL coordinates for SU(n) any constant
        tuple is.
        """
        if self.zero_weight_trivial:
            zero = self.system.trivial_weight()
            return rep.terms.get(zero, 0)
        return rep.trivial_multiplicity()

    def sigma_three_half(self) -> SpinThreeHalf:
        if self._three_half is not None:
            return self._three_half
        total = lie.tensor_product_sum(self.system, self.spinor, self.tangent)
        total = total.subtract(self.spinor)
        plus = minus = None
        if self.spinor_plus is not None:
            plus = lie.tensor_product_sum(
                self.system, self.spinor_plus, self.tangent
            ).subtract(self.spinor_minus)
            minus = lie.tensor_product_sum(
                self.system, self.spinor_minus, self.tangent
            ).subtract(self.spinor_plus)
            if plus.add(minus) != total:
                raise ConsistencyError(f"{self.group}: graded halves do not add up")
        expected = self.spinor.dimension * (self.real_dimension - 1)
        if total.dimension != expected:
            raise ConsistencyError(
                f"{self.group}: spin-3/2 dimension {total.dimension} != {expected}"
            )
        self._three_half = SpinThreeHalf(total=total, plus=plus, minus=minus)
        return self._three_half

    def parallel_spinor_dimension(self) -> int:
        return self.trivial_count(self.spinor)

    def parallel_rs_dimension(self) -> int:
        return self.trivial_count(self.sigma_three_half().total)


def _su_like_model(n: int, twist: bool) -> HolonomyModel:
    """SU(n) in GL coordinates; with ``twist`` the U(n) variant.

    Spinors of a Kaehler manifold are the (0, p)-forms twisted by the
    square root of the canonical bundle.  The twist is a constant shift
    of every GL weight and matters only to which weights the center
    kills, so it is applied exactly when the center is part of the
    group.
    """
    if n < 2:
        raise InputError("SU(n)/U(n) models need n >= 2")
    system = lie.type_a(n)
    shift = Fraction(-1, 2) if twist else Fraction(0)

    def form_weight(p: int) -> Weight:
        return tuple(
            (Fraction(1) if i < p else Fraction(0)) + shift for i in range(n)
        )

    spinor_terms: Dict[Weight, int] = {form_weight(p): 1 for p in range(n + 1)}
    plus = RepSum(system, {form_weight(p): 1 for p in range(0, n + 1, 2)})
    minus = RepSum(system, {form_weight(p): 1 for p in range(1, n + 1, 2)})
    e = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))
    ebar = tuple(Fraction(-1) if i == n - 1 else Fraction(0) for i in range(n))
    tangent = RepSum(system, {e: 1, ebar: 1})
    group = f"U({n})" if twist else f"SU({n})"
    return HolonomyModel(
        kind="u" if twist else "su",
        parameter=n,
        group=group,
        system=system,
        real_dimension=2 * n,
        tangent=tangent,
        spinor_plus=plus,
        spinor_minus=minus,
        spinor=RepSum(system, spinor_terms),
        zero_weight_trivial=twist,
    )


def _lambda0(m: int, k: int) -> Weight:
    """Highest weight of the k-th primitive exterior power of C^{2m}."""
    return tuple(Fraction(1) if i < k else Fraction(0) for i in range(m))


def _sp_model(n: int) -> HolonomyModel:
    """Sp(n) hyperkaehler model: spinors pile up primitive forms."""
    if n < 1:
        raise InputError("Sp(n) models need n >= 1")
    system = lie.type_c(n)
    spinor_terms = {_lambda0(n, k): n - k + 1 for k in range(n + 1)}
    plus = RepSum(
        system, {w: m for w, m in spinor_terms.items() if sum(w) % 2 == 0}
    )
    minus = RepSum(
        system, {w: m for w, m in spinor_terms.items() if sum(w) % 2 == 1}
    )
    tangent = RepSum(system, {_lambda0(n, 1): 2})
    return HolonomyModel(
        kind="sp",
        parameter=n,
        group=f"Sp({n})",
        system=system,
        real_dimension=4 * n,
        tangent=tangent,
        spinor_plus=plus,
        spinor_minus=minus,
        spinor=RepSum(system, spinor_terms),
    )


def _sp1spm_model(m: int) -> HolonomyModel:
    """Sp(1)Sp(m) quaternion-Kaehler model on C1 x Cm."""
    if m < 2:
        raise InputError("Sp(1)Sp(m) models need m >= 2")
    system = lie.product_system(lie.type_c(1), lie.type_c(m))

    def summand(k: int) -> Weight:
        return (Fraction(m - k),) + _lambda0(m, k)

    spinor_terms = {summand(k): 1 for k in range(m + 1)}
    plus = RepSum(system, {summand(k): 1 for k in range(0, m + 1, 2)})
    minus = RepSum(system, {summand(k): 1 for k in range(1, m + 1, 2)})
    tangent = RepSum(system, {(Fraction(1),) + _lambda0(m, 1): 1})
    return HolonomyModel(
        kind="sp1sp",
        parameter=m,
        group=f"Sp(1)Sp({m})",
        system=system,
        real_dimension=4 * m,
        tangent=tangent,
        spinor_plus=plus,
        spinor_minus=minus,
        spinor=RepSum(system, spinor_terms),
    )


def _g2_model() -> HolonomyModel:
    system = lie.g2()
    v7 = (Fraction(0), Fraction(-1), Fraction(1))
    zero = system.trivial_weight()
    return HolonomyModel(
        kind="g2",
        parameter=0,
        group="G2",
        system=system,
        real_dimension=7,
        tangent=RepSum(system, {v7: 1}),
        spinor_plus=None,
        spinor_minus=None,
        spinor=RepSum(system, {zero: 1, v7: 1}),
    )


def _spin7_model() -> HolonomyModel:
    system = lie.type_b(3)
    half = Fraction(1, 2)
    delta8 = (half, half, half)
    v7 = (Fraction(1), Fraction(0), Fraction(0))
    zero = system.trivial_weight()
    plus = RepSum(system, {zero: 1, v7: 1})
    minus = RepSum(system, {delta8: 1})
    return HolonomyModel(
        kind="spin7",
        parameter=0,
        group="Spin(7)",
        system=system,
        real_dimension=8,
        tangent=RepSum(system, {delta8: 1}),
        spinor_plus=plus,
        spinor_minus=minus,
        spinor=plus.add(minus),
    )


def _so_model(n: int) -> HolonomyModel:
    """Full special orthogonal holonomy, the generic case."""
    if n < 3:
        raise InputError("SO(n) models need n >= 3")
    half = Fraction(1, 2)
    if n % 2 == 1:
        m = (n - 1) // 2
        system = lie.type_b(m)
        vector = _lambda0(m, 1)
        spin = (half,) * m
        return HolonomyModel(
            kind="so",
            parameter=n,
            group=f"SO({n})",
            system=system,
            real_dimension=n,
            tangent=RepSum(system, {vector: 1}),
            spinor_plus=None,
            spinor_minus=None,
            spinor=RepSum(system, {spin: 1}),
        )
    m = n // 2
    system = lie.type_d(m)
    vector = _lambda0(m, 1)
    plus = RepSum(system, {(half,) * m: 1})
    minus = RepSum(system, {(half,) * (m - 1) + (-half,): 1})
    return HolonomyModel(
        kind="so",
        parameter=n,
        group=f"SO({n})",
        system=system,
        real_dimension=n,
        tangent=RepSum(system, {vector: 1}),
        spinor_plus=plus,
        spinor_minus=minus,
        spinor=plus.add(minus),
    )


def holonomy_model(kind: str, parameter: Optional[int] = None) -> HolonomyModel:
    """The weight-lattice model for a holonomy group.

    ``kind`` is one of su, u, sp, sp1sp, g2, spin7, so; the parameter is
    n for SU(n)/U(n)/Sp(n)/SO(n) and m for Sp(1)Sp(m), and must be
    omitted for g2 and spin7.  Models are immutable apart from their own
    lazy Sigma_3/2, so the most recently used ones are kept and returned
    again for the same (kind, parameter).
    """
    token = kind.strip().lower()
    if token not in HOLONOMY_KINDS:
        raise InputError(f"unknown holonomy kind {kind!r}; expected {HOLONOMY_KINDS}")
    return _build_model(token, parameter)


# `rslab verify-paper` builds 9 distinct models 19 times; keeping eight
# serves 9 of its 10 repeats, while a sweep over every model keeps at most
# eight alive (peak memory stays that of building each model afresh).
@lru_cache(maxsize=8)
def _build_model(token: str, parameter: Optional[int]) -> HolonomyModel:
    if token in ("g2", "spin7"):
        if parameter is not None:
            raise InputError(f"{token} takes no parameter")
        return _g2_model() if token == "g2" else _spin7_model()
    if parameter is None:
        raise InputError(f"{token} needs a rank parameter")
    if token == "su":
        return _su_like_model(parameter, twist=False)
    if token == "u":
        return _su_like_model(parameter, twist=True)
    if token == "sp":
        return _sp_model(parameter)
    if token == "sp1sp":
        return _sp1spm_model(parameter)
    return _so_model(parameter)


# ---------------------------------------------------------------------------
# quaternion-Kaehler curvature bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QKSummand:
    """Label Sym^d H (x) Lambda^{a,b}_0 E of an Sp(1)Sp(m) summand."""

    d: int
    a: int
    b: int

    def validate(self, m: int, skip_parity: bool = False) -> None:
        """Structural checks, plus the center parity d+a+b = m (mod 2).

        Both H and E carry the -1 of the double cover Sp(1) x Sp(m), and
        every summand of the spinor module has total degree m; twisting
        by tangent factors changes the degree by even amounts, so any
        summand of a spinor-valued bundle keeps the same parity.
        """
        if m < 2:
            raise InputError("quaternionic dimension m must be at least 2")
        if not (0 <= self.b <= self.a <= m):
            raise InputError(f"need 0 <= b <= a <= m, got (a, b) = ({self.a}, {self.b})")
        if self.d < 0:
            raise InputError("Sym^d H needs d >= 0")
        if not skip_parity and (self.d + self.a + self.b - m) % 2 != 0:
            raise InputError(
                "d + a + b must have the parity of m for a summand of a "
                "spinor-valued bundle"
            )

    def label(self) -> str:
        return f"Sym^{self.d} H (x) Lambda^({self.a},{self.b})_0 E"


def qk_casimir_bound(m: int, summand: QKSummand) -> Fraction:
    """Sharp lower bound for the twisted Dirac Laplacian on the summand.

    Normalized by the scalar curvature: the operator is bounded below by
    scal * (d+a-b)(d-a-b+2m+2) / (8m(m+2)), so a kernel in that summand
    forces the rational factor to vanish, which on the given summand
    list happens exactly when d = 0 and a = b.
    """
    summand.validate(m)
    d, a, b = summand.d, summand.a, summand.b
    return Fraction((d + a - b) * (d - a - b + 2 * m + 2), 8 * m * (m + 2))


def _qk_summand_from_weight(m: int, w: Weight) -> QKSummand:
    """Translate an Sp(1) x Sp(m) weight into (d; a, b) labels."""
    d = w[0]
    if d.denominator != 1:
        raise ConsistencyError("Sp(1) weight is not integral")
    coords = list(w[1:]) + [Fraction(0)]
    fundamental = [int(coords[i] - coords[i + 1]) for i in range(m)]
    if any(f < 0 for f in fundamental):
        raise ConsistencyError("Sp(m) weight is not dominant")
    if sum(fundamental) > 2:
        raise ConsistencyError(
            "weight does not label a primitive two-column module"
        )
    indices = [i + 1 for i, f in enumerate(fundamental) for _ in range(f)]
    a = indices[0] if len(indices) >= 1 else 0
    b = indices[1] if len(indices) >= 2 else 0
    if b > a:
        a, b = b, a
    return QKSummand(d=int(d), a=a, b=b)


@dataclass(frozen=True)
class QKBoundEntry:
    summand: QKSummand
    dimension: int
    bound: Fraction


@dataclass(frozen=True)
class QKKernelReport:
    m: int
    real_dimension: int
    entries: Tuple[QKBoundEntry, ...]
    survivors: Tuple[QKSummand, ...]
    curvature_allows_kernel: bool
    kernel_formula: Optional[str]

    @property
    def survivor_labels(self) -> Tuple[str, ...]:
        return tuple(s.label() for s in self.survivors)


def qk_kernel_analysis(m: int) -> QKKernelReport:
    """Run the curvature bound over every spin-3/2 summand of Sp(1)Sp(m).

    Survivors are the summands where the sharp bound degenerates to
    zero.  A kernel can only actually occur when the dimension 4m does
    not exceed eight (the generic positivity threshold), i.e. for m = 2,
    where the surviving summands are the trivial one and Sym^2 E and the
    kernel dimension is b2 + 1.
    """
    model = holonomy_model("sp1sp", m)
    rep = model.sigma_three_half().total
    entries: List[QKBoundEntry] = []
    for w, mult in sorted(rep.terms.items()):
        if mult <= 0:
            raise ConsistencyError("spin-3/2 model must be an honest sum")
        summand = _qk_summand_from_weight(m, w)
        bound = qk_casimir_bound(m, summand)
        entry = QKBoundEntry(
            summand=summand,
            dimension=model.system.weyl_dimension(w),
            bound=bound,
        )
        entries.extend([entry] * mult)
    survivors = tuple(e.summand for e in entries if e.bound == 0)
    allows = 4 * m <= 8
    formula = "b2 + 1" if (allows and survivors) else None
    return QKKernelReport(
        m=m,
        real_dimension=4 * m,
        entries=tuple(entries),
        survivors=survivors,
        curvature_allows_kernel=allows,
        kernel_formula=formula,
    )


# ---------------------------------------------------------------------------
# round spheres
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereCheck:
    n: int
    realization: str
    casimir_value: Fraction
    positivity_threshold: Fraction
    margin: Fraction


def sphere_check(n: int) -> SphereCheck:
    """Casimir of the spin-3/2 representation of Spin(n), exactly.

    The eigenvalue n(n+7)/8 is recomputed from the root data of the
    B- or D-realization, compared against the closed form, and measured
    against the positivity threshold (8-n)(n-1)/8 of the curvature term
    on the round sphere; the margin (n^2-n+4)/4 never vanishes, so round
    spheres carry no Rarita-Schwinger kernel in any dimension.
    """
    if n < 3:
        raise InputError("sphere_check needs n >= 3")
    half = Fraction(1, 2)
    if n % 2 == 1:
        system = lie.type_b((n - 1) // 2)
        realization = f"B{(n - 1) // 2}"
    else:
        system = lie.type_d(n // 2)
        realization = f"D{n // 2}"
    lam = (Fraction(3, 2),) + (half,) * (system.coords - 1)
    value = system.casimir(lam)
    closed = Fraction(n * (n + 7), 8)
    if value != closed:
        raise ConsistencyError(
            f"sphere Casimir at n={n}: root data give {value}, closed form {closed}"
        )
    threshold = Fraction((8 - n) * (n - 1), 8)
    margin = value - threshold
    if margin != Fraction(n * n - n + 4, 4) or margin <= 0:
        raise ConsistencyError(f"sphere margin at n={n} is off: {margin}")
    return SphereCheck(
        n=n,
        realization=realization,
        casimir_value=value,
        positivity_threshold=threshold,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# topological kernel formulas
# ---------------------------------------------------------------------------

FAMILIES = ("CY", "HK", "SPIN7", "G2", "QK")


@dataclass(frozen=True)
class TopologicalInput:
    """Topological data of a compact manifold with reduced holonomy.

    family "CY":    n = complex dimension >= 2, hodge = (h^{1,1}, ..., h^{1,n-1})
    family "HK":    n = quaternionic dimension >= 1, hodge = (h^{1,1}, ..., h^{n,1})
    family "SPIN7": b2, b3, b4_minus
    family "G2":    b2, b3 (b3 >= 1, the parallel 3-form class)
    family "QK":    n = 2 and b2 (positive scalar curvature, dimension 8)
    """

    family: str
    n: Optional[int] = None
    hodge: Tuple[int, ...] = ()
    b2: Optional[int] = None
    b3: Optional[int] = None
    b4_minus: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"family must be one of {FAMILIES}")
        if any(h < 0 for h in self.hodge):
            raise InputError("Hodge numbers must be nonnegative")
        for name in ("b2", "b3", "b4_minus"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InputError("Betti numbers must be nonnegative")
        if self.family == "CY":
            if self.n is None or self.n < 2:
                raise InputError("CY input needs complex dimension n >= 2")
            if len(self.hodge) != self.n - 1:
                raise InputError("CY input needs the row h^{1,1}..h^{1,n-1}")
        elif self.family == "HK":
            if self.n is None or self.n < 1:
                raise InputError("HK input needs quaternionic dimension n >= 1")
            if len(self.hodge) != self.n:
                raise InputError("HK input needs the column h^{1,1}..h^{n,1}")
        elif self.family == "SPIN7":
            if None in (self.b2, self.b3, self.b4_minus):
                raise InputError("Spin(7) input needs b2, b3 and b4_minus")
        elif self.family == "G2":
            if None in (self.b2, self.b3):
                raise InputError("G2 input needs b2 and b3")
            if self.b3 < 1:
                raise InputError("a G2 holonomy manifold has b3 >= 1")
        else:  # QK
            if self.n != 2:
                raise InputError(
                    "a positive quaternion-Kaehler kernel exists only in "
                    "dimension 8 (n = 2)"
                )
            if self.b2 is None:
                raise InputError("QK input needs b2")


def kernel_dimension(data: TopologicalInput) -> int:
    """Dimension of the Rarita-Schwinger kernel from topological data."""
    if data.family == "CY":
        value = -2 + 2 * sum(data.hodge)
    elif data.family == "HK":
        n = data.n
        value = -(n + 1) + 2 * data.hodge[-1] + 4 * sum(data.hodge[:-1])
    elif data.family == "SPIN7":
        value = data.b2 + data.b3 + data.b4_minus
    elif data.family == "G2":
        value = data.b2 + data.b3 - 1
    else:  # QK
        value = data.b2 + 1
    if value < 0:
        raise ConsistencyError(
            f"kernel formula returned {value}; the input data are not those "
            "of a compact manifold of this family"
        )
    return value


def family_index(data: TopologicalInput) -> int:
    """Rarita-Schwinger index from the same data, where it is defined."""
    if data.family == "CY":
        if data.n % 2 == 1:
            return 0
        return 2 + 2 * sum((-1) ** p * h for p, h in enumerate(data.hodge, start=1))
    if data.family == "HK":
        n = data.n
        return (
            (n + 1)
            + (-1) ** n * 2 * data.hodge[-1]
            + 4 * sum((-1) ** k * h for k, h in enumerate(data.hodge[:-1], start=1))
        )
    if data.family == "SPIN7":
        return data.b3 - data.b4_minus - data.b2
    raise NotApplicableError(
        f"the index of a {data.family} space is not determined by this data "
        "(odd dimension or no index formula)"
    )


# ---------------------------------------------------------------------------
# symbolic Betti-number identities
# ---------------------------------------------------------------------------


class LinearForm:
    """Affine-linear expression with rational coefficients, for identities."""

    def __init__(self, constant=0, terms: Optional[Dict[str, Fraction]] = None):
        self.constant = Fraction(constant)
        self.terms = {
            k: Fraction(v) for k, v in (terms or {}).items() if Fraction(v) != 0
        }

    @classmethod
    def variable(cls, name: str) -> "LinearForm":
        return cls(0, {name: Fraction(1)})

    def add(self, other: "LinearForm") -> "LinearForm":
        merged = dict(self.terms)
        for k, v in other.terms.items():
            merged[k] = merged.get(k, Fraction(0)) + v
        return LinearForm(self.constant + other.constant, merged)

    def scale(self, c) -> "LinearForm":
        c = Fraction(c)
        return LinearForm(self.constant * c, {k: v * c for k, v in self.terms.items()})

    def subtract(self, other: "LinearForm") -> "LinearForm":
        return self.add(other.scale(-1))

    def shift(self, c) -> "LinearForm":
        return LinearForm(self.constant + Fraction(c), self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearForm)
            and self.constant == other.constant
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        parts = [str(self.constant)] if self.constant or not self.terms else []
        for k in sorted(self.terms):
            parts.append(f"{self.terms[k]}*{k}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class Spin7BettiIdentity:
    """Three routes to the Spin(7) index, as forms in (b2, b3, b4_minus)."""

    b4_plus: LinearForm
    from_betti: LinearForm
    from_ahat_and_signature: LinearForm
    from_ahat_and_euler: LinearForm
    kernel: LinearForm

    @property
    def consistent(self) -> bool:
        return (
            self.from_betti == self.from_ahat_and_signature
            == self.from_ahat_and_euler
        )


def spin7_betti_identity() -> Spin7BettiIdentity:
    """Check b3 - b4^- - b2 against the two characteristic-class routes.

    On a compact Spin(7)-holonomy manifold the index one of the spinor
    Dirac operator pins the fourth Betti number: with b1 = 0,
    24 = -1 - b2 + b3 + b4^+ - 2 b4^-.  Substituting into 25 - signature
    and into 9 - euler/3 must reproduce the refined-Betti count.
    """
    b2 = LinearForm.variable("b2")
    b3 = LinearForm.variable("b3")
    b4m = LinearForm.variable("b4_minus")
    b4p = b2.subtract(b3).add(b4m.scale(2)).shift(25)
    sigma = b4p.subtract(b4m)
    chi = b2.scale(2).subtract(b3.scale(2)).add(b4p).add(b4m).shift(2)
    from_betti = b3.subtract(b4m).subtract(b2)
    from_sigma = sigma.scale(-1).shift(25)
    from_euler = chi.scale(Fraction(-1, 3)).shift(9)
    kernel = b2.add(b3).add(b4m)
    report = Spin7BettiIdentity(
        b4_plus=b4p,
        from_betti=from_betti,
        from_ahat_and_signature=from_sigma,
        from_ahat_and_euler=from_euler,
        kernel=kernel,
    )
    if not report.consistent:
        raise ConsistencyError("Spin(7) index routes disagree symbolically")
    return report


@dataclass(frozen=True)
class HyperkahlerIdentity:
    """Summand-by-summand harmonic count vs. the closed kernel formula."""

    n: int
    raw_kernel: LinearForm
    closed_kernel: LinearForm
    raw_index: LinearForm
    closed_index: LinearForm
    parallel_count: int

    @property
    def consistent(self) -> bool:
        return (
            self.raw_kernel == self.closed_kernel
            and self.raw_index == self.closed_index
        )


def hyperkahler_kernel_identity(n: int) -> HyperkahlerIdentity:
    """Re-derive the hyperkaehler kernel and index formulas symbolically.

    The spin-3/2 bundle decomposes through Lambda^k_0 (x) E, and the
    harmonic count of the two-column summand is h^{k,1} - h^{k-2,1}
    with the degenerate values h^{-1,1} = 1 and h^{0,1} = h^{-2,1} = 0.
    Summing with the spinor multiplicities (n-k+1), with alternating
    signs for the index, must telescope to the closed formulas.
    """
    if n < 1:
        raise InputError("quaternionic dimension must be at least 1")

    def h(k: int) -> LinearForm:
        if k == -1:
            return LinearForm(1)
        if k <= -2 or k == 0:
            return LinearForm(0)
        return LinearForm.variable(f"h{k}1")

    raw_kernel = LinearForm(-(n + 1))
    raw_index = LinearForm(n + 1)
    for k in range(n + 1):
        weight = 2 * (n - k + 1)
        piece = h(k).subtract(h(k - 2)) if k >= 1 else LinearForm(0)
        if k == 1:
            piece = piece.shift(1)  # the harmonic constants in Lambda^0_0
        raw_kernel = raw_kernel.add(piece.scale(weight))
        raw_index = raw_index.add(piece.scale(weight * (-1) ** k))

    closed_kernel = LinearForm(-(n + 1))
    closed_index = LinearForm(n + 1)
    closed_kernel = closed_kernel.add(h(n).scale(2))
    closed_index = closed_index.add(h(n).scale(2 * (-1) ** n))
    for k in range(1, n):
        closed_kernel = closed_kernel.add(h(k).scale(4))
        closed_index = closed_index.add(h(k).scale(4 * (-1) ** k))

    model = holonomy_model("sp", n)
    report = HyperkahlerIdentity(
        n=n,
        raw_kernel=raw_kernel,
        closed_kernel=closed_kernel,
        raw_index=raw_index,
        closed_index=closed_index,
        parallel_count=model.parallel_rs_dimension(),
    )
    if not report.consistent:
        raise ConsistencyError(f"hyperkaehler telescoping fails at n = {n}")
    if report.parallel_count != n - 1:
        raise ConsistencyError(
            f"hyperkaehler parallel count {report.parallel_count} != {n - 1}"
        )
    return report


# ---------------------------------------------------------------------------
# symmetric spaces in dimension eight
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricSpaceEntry:
    name: str
    kernel_dimension: int
    rs_index: Optional[int]
    all_parallel: bool
    detail: str


def symmetric_space_catalog() -> Tuple[SymmetricSpaceEntry, ...]:
    """The compact symmetric eight-manifolds carrying Rarita-Schwinger fields.

    Every kernel field on these spaces is parallel.  The quaternion-
    Kaehler entries follow from the curvature-bound analysis (kernel
    b2 + 1); the group manifold SU(3) and the complex quadric carry
    their kernels in explicit trivial summands of the spin-3/2 bundle.
    """
    return (
        SymmetricSpaceEntry(
            name="Gr2(C4)",
            kernel_dimension=2,
            rs_index=-2,
            all_parallel=True,
            detail=(
                "positive quaternion-Kaehler with b2 = 1; the kernel is the "
                "trivial summand plus one class from Sym^2 E; isometric to "
                "the six-dimensional complex quadric hypersurface"
            ),
        ),
        SymmetricSpaceEntry(
            name="HP2",
            kernel_dimension=1,
            rs_index=None,
            all_parallel=True,
            detail="positive quaternion-Kaehler with b2 = 0",
        ),
        SymmetricSpaceEntry(
            name="G2/SO(4)",
            kernel_dimension=1,
            rs_index=None,
            all_parallel=True,
            detail="positive quaternion-Kaehler with b2 = 0",
        ),
        SymmetricSpaceEntry(
            name="SU(3)",
            kernel_dimension=2,
            rs_index=None,
            all_parallel=True,
            detail=(
                "bi-invariant metric; the tangent representation coincides "
                "with each half-spinor module, leaving a one-dimensional "
                "trivial summand in each half of the spin-3/2 bundle"
            ),
        ),
        SymmetricSpaceEntry(
            name="Q4",
            kernel_dimension=2,
            rs_index=-2,
            all_parallel=True,
            detail=(
                "four-dimensional complex quadric; a two-dimensional trivial "
                "summand sits in the negative half-spin-3/2 bundle, matching "
                "the index -2"
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Riemannian products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelCounts:
    """Parallel spinor and Rarita-Schwinger counts of one factor."""

    spinors: int
    rs_fields: int
    real_dimension: Optional[int] = None


@dataclass(frozen=True)
class ProductParallelReport:
    count: int
    proven: bool
    note: str


def product_parallel_rs(
    left: ParallelCounts, right: ParallelCounts
) -> ProductParallelReport:
    """Parallel Rarita-Schwinger fields on a Riemannian product.

    The spin-3/2 bundle of a product splits into spinor (x) spinor,
    spin-3/2 (x) spinor and spinor (x) spin-3/2 pieces, so the parallel
    count is s_M s_N + r_M s_N + s_M r_N.  The splitting argument needs
    both factors even-dimensional; for odd-dimensional factors the same
    count is reported but flagged as a formula used beyond its proof.
    """
    if min(left.spinors, left.rs_fields, right.spinors, right.rs_fields) < 0:
        raise InputError("parallel counts must be nonnegative")
    count = (
        left.spinors * right.spinors
        + left.rs_fields * right.spinors
        + left.spinors * right.rs_fields
    )
    dims = (left.real_dimension, right.real_dimension)
    if None in dims:
        return ProductParallelReport(
            count=count,
            proven=False,
            note="factor dimensions not supplied; the splitting needs both even",
        )
    if all(d % 2 == 0 for d in dims):
        return ProductParallelReport(count=count, proven=True, note="")
    return ProductParallelReport(
        count=count,
        proven=False,
        note=(
            "odd-dimensional factor: the product splitting of the spin-3/2 "
            "bundle is only established for even-dimensional factors"
        ),
    )


def product_parallel_from_models(
    left: HolonomyModel, right: HolonomyModel
) -> ProductParallelReport:
    """Convenience wrapper reading the counts off two holonomy models."""
    return product_parallel_rs(
        ParallelCounts(
            spinors=left.parallel_spinor_dimension(),
            rs_fields=left.parallel_rs_dimension(),
            real_dimension=left.real_dimension,
        ),
        ParallelCounts(
            spinors=right.parallel_spinor_dimension(),
            rs_fields=right.parallel_rs_dimension(),
            real_dimension=right.real_dimension,
        ),
    )
