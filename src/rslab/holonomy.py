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
positive quaternion-Kaehler), the Spin(7) Betti and hyperkaehler Hodge
identities that check those formulas pointwise, the catalog of
eight-dimensional symmetric spaces with kernel, and the parallel-count
formula for Riemannian products.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import lie
from .errors import InputError, NotApplicableError, check, integer
from .lie import RepSum, RootSystem, Weight

Terms = Dict[Weight, int]  # highest weight -> multiplicity


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
    and is used directly), given as a term map.  ``spinor`` is the spinor
    module: one term map in odd real dimension, or the half-spinor pair
    (plus, minus) in even real dimension, whose sum is the full module;
    Clifford multiplication by T is odd, so the graded spin-3/2 parts are
    Sigma^+- (x) T (-) Sigma^-+, and their sum is the whole bundle.

    ``zero_weight_trivial``: for U(n) the center acts on every spinor
    summand through the square root of the canonical bundle, so only the
    exact zero weight counts as trivial; in GL coordinates for SU(n) any
    constant tuple does.
    """

    def __init__(
        self,
        group: str,
        system: RootSystem,
        real_dimension: int,
        tangent: Terms,
        spinor: Union[Terms, Tuple[Terms, Terms]],
        zero_weight_trivial: bool = False,
    ) -> None:
        self.group = group
        self.system = system
        self.real_dimension = real_dimension
        self.tangent = RepSum(system, tangent)
        self.spinor_plus: Optional[RepSum] = None
        self.spinor_minus: Optional[RepSum] = None
        if isinstance(spinor, tuple):
            self.spinor_plus, self.spinor_minus = (RepSum(system, t) for t in spinor)
            self.spinor = self.spinor_plus.add(self.spinor_minus)
        else:
            self.spinor = RepSum(system, spinor)
        self.zero_weight_trivial = zero_weight_trivial
        self._three_half: Optional[SpinThreeHalf] = None

        dimension = self.tangent.dimension
        check("tangent model", dimension == real_dimension, group=group, dimension=dimension,
              expected=real_dimension)
        dimension, expected = self.spinor.dimension, 2 ** (real_dimension // 2)
        check("spinor model", dimension == expected, group=group, dimension=dimension,
              expected=expected)

    def __repr__(self) -> str:
        return f"HolonomyModel({self.group})"

    def sigma_three_half(self) -> SpinThreeHalf:
        if self._three_half is not None:
            return self._three_half
        def twisted(spinor: RepSum, less: RepSum) -> RepSum:
            return lie.tensor_product_sum(self.system, spinor, self.tangent).subtract(less)

        plus = minus = None
        if self.spinor_plus is None:
            total = twisted(self.spinor, self.spinor)
        else:
            plus = twisted(self.spinor_plus, self.spinor_minus)
            minus = twisted(self.spinor_minus, self.spinor_plus)
            total = plus.add(minus)
        dimension = total.dimension
        expected = self.spinor.dimension * (self.real_dimension - 1)
        check("spin-3/2 dimension", dimension == expected, group=self.group,
              dimension=dimension, expected=expected)
        self._three_half = SpinThreeHalf(total=total, plus=plus, minus=minus)
        return self._three_half

    def parallel_spinor_dimension(self) -> int:
        return self.spinor.trivial_multiplicity(self.zero_weight_trivial)

    def parallel_rs_dimension(self) -> int:
        return self.sigma_three_half().total.trivial_multiplicity(self.zero_weight_trivial)


def _graded(summands: Sequence[Tuple[Weight, int]]) -> Tuple[Terms, Terms]:
    """Half-spinor term maps from the summands listed by degree k = 0, 1, ...

    Even degrees make up Sigma^+, odd degrees Sigma^-.
    """
    return dict(summands[0::2]), dict(summands[1::2])


def _su_like_model(n: int, twist: bool) -> HolonomyModel:
    """SU(n) in GL coordinates; with ``twist`` the U(n) variant.

    Spinors of a Kaehler manifold are the (0, p)-forms twisted by the
    square root of the canonical bundle.  The twist is a constant shift
    of every GL weight and matters only to which weights the center
    kills, so it is applied exactly when the center is part of the
    group.
    """
    shift = Fraction(-1, 2) if twist else Fraction(0)
    forms = [
        (tuple((Fraction(1) if i < p else Fraction(0)) + shift for i in range(n)), 1)
        for p in range(n + 1)
    ]
    e = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))
    ebar = tuple(Fraction(-1) if i == n - 1 else Fraction(0) for i in range(n))
    return HolonomyModel(
        group=f"U({n})" if twist else f"SU({n})",
        system=lie.type_a(n),
        real_dimension=2 * n,
        tangent={e: 1, ebar: 1},
        spinor=_graded(forms),
        zero_weight_trivial=twist,
    )


def _lambda0(m: int, k: int) -> Weight:
    """Highest weight of the k-th primitive exterior power of C^{2m}."""
    return tuple(Fraction(1) if i < k else Fraction(0) for i in range(m))


def _sp_model(n: int) -> HolonomyModel:
    """Sp(n) hyperkaehler model: spinors pile up primitive forms."""
    return HolonomyModel(
        group=f"Sp({n})",
        system=lie.type_c(n),
        real_dimension=4 * n,
        tangent={_lambda0(n, 1): 2},
        spinor=_graded([(_lambda0(n, k), n - k + 1) for k in range(n + 1)]),
    )


def _sp1spm_model(m: int) -> HolonomyModel:
    """Sp(1)Sp(m) quaternion-Kaehler model on C1 x Cm."""
    summands = [((Fraction(m - k),) + _lambda0(m, k), 1) for k in range(m + 1)]
    return HolonomyModel(
        group=f"Sp(1)Sp({m})",
        system=lie.product_system(lie.type_c(1), lie.type_c(m)),
        real_dimension=4 * m,
        tangent={(Fraction(1),) + _lambda0(m, 1): 1},
        spinor=_graded(summands),
    )


def _g2_model() -> HolonomyModel:
    system = lie.g2()
    v7 = (Fraction(0), Fraction(-1), Fraction(1))
    return HolonomyModel(
        group="G2",
        system=system,
        real_dimension=7,
        tangent={v7: 1},
        spinor={system.trivial_weight(): 1, v7: 1},
    )


def _spin7_model() -> HolonomyModel:
    system = lie.type_b(3)
    delta8 = (Fraction(1, 2),) * 3
    v7 = (Fraction(1), Fraction(0), Fraction(0))
    return HolonomyModel(
        group="Spin(7)",
        system=system,
        real_dimension=8,
        tangent={delta8: 1},
        spinor=({system.trivial_weight(): 1, v7: 1}, {delta8: 1}),
    )


def _so_model(n: int) -> HolonomyModel:
    """Full special orthogonal holonomy, the generic case."""
    half = Fraction(1, 2)
    m = n // 2
    if n % 2 == 1:
        system, spinor = lie.type_b(m), {(half,) * m: 1}
    else:
        system = lie.type_d(m)
        spinor = ({(half,) * m: 1}, {(half,) * (m - 1) + (-half,): 1})
    return HolonomyModel(
        group=f"SO({n})",
        system=system,
        real_dimension=n,
        tangent={_lambda0(m, 1): 1},
        spinor=spinor,
    )


# sphere_check(n) builds about n**2/4 positive roots: 0.06-0.08 s at n = 400
# on a 2-core VM, and `sphere --upto 400` 6-8 s
SPHERE_LIMIT = 400


# kind -> (builder, (smallest, largest) parameter or None when the kind takes
#          none, family whose kernel formula it carries or None).  The largest
#          model of each kind takes a few seconds: on a 2-core VM `holonomy su 80`
#          and `u 80` took 2.6-2.9 s, `sp 64` 2.2 s, `sp1sp 32` 1.6 s, and `so 399`
#          and `so 400` 7-9 s; so stops where the sphere checks do
_KINDS: Dict[str, Tuple[Callable[..., HolonomyModel], Optional[Tuple[int, int]],
                        Optional[str]]] = {
    "su": (lambda n: _su_like_model(n, twist=False), (2, 80), "CY"),
    "u": (lambda n: _su_like_model(n, twist=True), (2, 80), None),
    "sp": (_sp_model, (1, 64), "HK"),
    "sp1sp": (_sp1spm_model, (2, 32), "QK"),
    "g2": (_g2_model, None, "G2"),
    "spin7": (_spin7_model, None, "SPIN7"),
    "so": (_so_model, (3, SPHERE_LIMIT), None),
}
HOLONOMY_KINDS = tuple(_KINDS)
KIND_FAMILIES = {kind: family for kind, (_, _, family) in _KINDS.items() if family}
PARAMETER_RANGES = {kind: bounds for kind, (_, bounds, _) in _KINDS.items() if bounds}


def holonomy_model(kind: str, parameter: Optional[int] = None) -> HolonomyModel:
    """The weight-lattice model for a holonomy group.

    ``kind`` is one of su, u, sp, sp1sp, g2, spin7, so; the parameter is
    n for SU(n)/U(n)/Sp(n)/SO(n) and m for Sp(1)Sp(m), and must be
    omitted for g2 and spin7; one outside the kind's PARAMETER_RANGES is
    refused before any model is built.  Each call builds its model on the
    shared root system of ``lie``, whose memos make a repeated build cheap.
    """
    token = kind.strip().lower()
    if token not in _KINDS:
        raise InputError(f"unknown holonomy kind {kind!r}; expected {HOLONOMY_KINDS}")
    build, bounds, _ = _KINDS[token]
    if bounds is None:
        if parameter is not None:
            raise InputError(f"{token} takes no parameter")
    elif parameter is None or integer(parameter, "parameter") < bounds[0]:
        raise InputError(f"{token} needs a parameter >= {bounds[0]}, got {parameter}")
    elif parameter > bounds[1]:
        raise InputError(f"{token} needs a parameter <= {bounds[1]}, got {parameter}")
    return build() if parameter is None else build(parameter)


# ---------------------------------------------------------------------------
# quaternion-Kaehler curvature bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QKSummand:
    """Label Sym^d H (x) Lambda^{a,b}_0 E of an Sp(1)Sp(m) summand."""

    d: int
    a: int
    b: int

    def validate(self, m: int) -> None:
        """Structural checks, plus the center parity d+a+b = m (mod 2).

        Both H and E carry the -1 of the double cover Sp(1) x Sp(m), and
        every summand of the spinor module has total degree m; twisting
        by tangent factors changes the degree by even amounts, so any
        summand of a spinor-valued bundle keeps the same parity.
        """
        if integer(m, "quaternionic dimension m") < 2:
            raise InputError("quaternionic dimension m must be at least 2")
        if not (0 <= integer(self.b, "b") <= integer(self.a, "a") <= m):
            raise InputError(f"need 0 <= b <= a <= m, got (a, b) = ({self.a}, {self.b})")
        if integer(self.d, "d") < 0:
            raise InputError("Sym^d H needs d >= 0")
        if (self.d + self.a + self.b - m) % 2 != 0:
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
    coords = list(w[1:]) + [Fraction(0)]
    fundamental = [int(coords[i] - coords[i + 1]) for i in range(m)]
    # integral Sp(1) label, dominant Sp(m) labels of a primitive two-column module
    ok = d.denominator == 1 and min(fundamental) >= 0 and sum(fundamental) <= 2
    check("Sp(1)Sp(m) summand weight", ok, m=m, weight=w)
    indices = [i + 1 for i, f in enumerate(fundamental) for _ in range(f)]  # ascending
    a, b = (indices[::-1] + [0, 0])[:2]
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
    for w, mult in rep.sorted_terms():  # an honest sum: subtract() refuses negatives
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
    if not 3 <= integer(n, "sphere dimension") <= SPHERE_LIMIT:
        raise InputError(f"sphere_check needs 3 <= n <= {SPHERE_LIMIT}, got {n}")
    system = lie.type_b((n - 1) // 2) if n % 2 == 1 else lie.type_d(n // 2)
    lam = (Fraction(3, 2),) + (Fraction(1, 2),) * (system.coords - 1)
    value = system.casimir(lam)
    closed = Fraction(n * (n + 7), 8)
    check("sphere Casimir", value == closed, n=n, root_data=value, closed_form=closed)
    threshold = Fraction((8 - n) * (n - 1), 8)
    margin, expected = value - threshold, Fraction(n * n - n + 4, 4)
    check("sphere margin", margin == expected and margin > 0, n=n, margin=margin,
          closed_form=expected)
    return SphereCheck(
        n=n,
        realization=system.name,
        casimir_value=value,
        positivity_threshold=threshold,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# topological kernel formulas
# ---------------------------------------------------------------------------

# family -> the TopologicalInput fields it takes
FAMILY_FIELDS = {
    "CY": ("n", "hodge"),
    "HK": ("n", "hodge"),
    "SPIN7": ("b2", "b3", "b4_minus"),
    "G2": ("b2", "b3"),
    "QK": ("n", "b2"),
}
FAMILIES = tuple(FAMILY_FIELDS)


@dataclass(frozen=True)
class TopologicalInput:
    """Topological data of a compact manifold with reduced holonomy.

    family "CY":    n = complex dimension >= 2, hodge = (h^{1,1}, ..., h^{1,n-1})
    family "HK":    n = quaternionic dimension >= 1, hodge = (h^{1,1}, ..., h^{n,1})
    family "SPIN7": b2, b3, b4_minus
    family "G2":    b2, b3 (b3 >= 1, the parallel 3-form class)
    family "QK":    n = 2 and b2 (positive scalar curvature, dimension 8)

    A field the family does not take must keep its default, and one it
    takes must be given.  Every number must be a nonnegative int; ``hodge``
    is a list or tuple, kept as a tuple.
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
        if not isinstance(self.hodge, (list, tuple)):
            raise InputError(f"hodge {self.hodge!r} is not a list of Hodge numbers")
        object.__setattr__(self, "hodge", tuple(integer(h, "Hodge number") for h in self.hodge))
        family, n, takes = self.family, self.n, FAMILY_FIELDS[self.family]
        for f in fields(self)[1:]:
            name, value = f.name, getattr(self, f.name)
            ints = value if name == "hodge" else () if value is None else (integer(value, name),)
            if name not in takes and value != f.default:
                raise InputError(f"{family} input takes no {name}")
            if name in takes and value is None:
                raise InputError(f"{family} input needs {name}")
            if min(ints, default=0) < 0:
                raise InputError(f"{name} must be nonnegative")
        if family == "CY" and not (n >= 2 and len(self.hodge) == n - 1):
            raise InputError("CY input needs n >= 2 and the row h^{1,1}..h^{1,n-1}")
        if family == "HK" and not (n >= 1 and len(self.hodge) == n):
            raise InputError("HK input needs n >= 1 and the column h^{1,1}..h^{n,1}")
        if family == "G2" and self.b3 < 1:
            raise InputError("a G2 holonomy manifold has b3 >= 1")
        if family == "QK" and n != 2:
            raise InputError(
                "a positive quaternion-Kaehler kernel exists only in dimension 8 (n = 2)"
            )


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
    # a negative value: the data are not those of a compact manifold of the family
    check("kernel formula", value >= 0, data=data, kernel_dimension=value)
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
# Betti- and Hodge-number identities
# ---------------------------------------------------------------------------


def _unit_points(base: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """The base point, then the base point plus each unit vector.

    Two affine-linear functions that agree at these n + 1 points agree
    everywhere, so the identities below are checked exactly there.
    """
    yield base
    for i in range(len(base)):
        yield base[:i] + (base[i] + 1,) + base[i + 1 :]


def spin7_betti_identity() -> bool:
    """Check ``family_index`` on Spin(7) data against two class routes.

    On a compact Spin(7)-holonomy manifold the index one of the spinor
    Dirac operator pins the fourth Betti number: with b1 = 0,
    24 = -1 - b2 + b3 + b4^+ - 2 b4^-.  Substituting into 25 - signature
    and into 9 - euler/3 must reproduce b3 - b4^- - b2 at every
    (b2, b3, b4^-).  Returns True or raises ``ConsistencyError``.
    """
    for point in _unit_points((0, 0, 0)):
        b2, b3, b4m = point
        b4p = b2 - b3 + 2 * b4m + 25
        euler = 2 + 2 * b2 - 2 * b3 + b4p + b4m
        data = TopologicalInput("SPIN7", b2=b2, b3=b3, b4_minus=b4m)
        routes = {
            "family_index": family_index(data),
            "25 - signature": 25 - (b4p - b4m),
            "9 - euler/3": 9 - Fraction(euler, 3),
        }
        check("Spin(7) index", len(set(routes.values())) == 1, at=point, **routes)
    return True


def hyperkahler_kernel_identity(n: int) -> bool:
    """Re-derive the hyperkaehler kernel and index summand by summand.

    The spin-3/2 bundle decomposes through Lambda^k_0 (x) E, and the
    harmonic count of the two-column summand is h^{k,1} - h^{k-2,1}
    with the degenerate values h^{-1,1} = 1 and h^{0,1} = h^{-2,1} = 0.
    Summing with the spinor multiplicities 2(n-k+1), with alternating
    signs for the index, must give ``kernel_dimension`` and
    ``family_index`` at every Hodge column; the parallel count of the
    Sp(n) model must be n - 1.  Returns True or raises
    ``ConsistencyError``.
    """
    model = holonomy_model("sp", n)  # refuses a non-int n or one out of range before the loop
    for hodge in _unit_points((1,) * n):  # kernel_dimension refuses negatives
        h = {-1: 1, **dict(enumerate(hodge, start=1))}
        kernel, index = -(n + 1), n + 1
        for k in range(1, n + 1):
            piece = h[k] - h.get(k - 2, 0) + (k == 1)  # +1: constants in Lambda^0_0
            kernel += 2 * (n - k + 1) * piece
            index += 2 * (n - k + 1) * (-1) ** k * piece
        data = TopologicalInput("HK", n=n, hodge=hodge)
        formula = kernel_dimension(data)
        check("hyperkaehler kernel", kernel == formula, at=hodge, summands=kernel,
              kernel_dimension=formula)
        formula = family_index(data)
        check("hyperkaehler index", index == formula, at=hodge, summands=index,
              family_index=formula)
    parallel = model.parallel_rs_dimension()
    check("hyperkaehler parallel count", parallel == n - 1, n=n, parallel_rs=parallel,
          expected=n - 1)
    return True


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
                "the Klein quadric, the four-dimensional quadric in CP^5"
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

    def __post_init__(self) -> None:  # real_dimension is checked only when given
        for f in fields(self)[: 2 if self.real_dimension is None else 3]:
            integer(getattr(self, f.name), f.name)
        if min(self.spinors, self.rs_fields) < 0:
            raise InputError("parallel counts must be nonnegative")


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

