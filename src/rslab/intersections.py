"""Complete intersections of hypersurfaces in complex projective space.

``build_ci`` turns a dimension and a degree list into a Chern profile via
the normal-bundle quotient ``c(TX) = (1+h)^{n+r+1} / prod(1 + d_j h)``, one
series inverse of the normal class and one product; on top of that sit the
classical invariants, a Hodge-table solver, a fully independent signature
series for hypersurfaces, and the kernel-dimension reports for the
spin-3/2 operator in the three scalar-curvature regimes.  ``CI_LIMIT`` and
``HODGE_LIMIT`` bound the complex dimensions of every request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import List, Optional, Tuple

from .charclass import (
    ChernProfile,
    euler_characteristic,
    evaluate_genus,
    rs_index,
)
from .errors import InputError, NotApplicableError, check, integer
from .exactpoly import TruncatedPoly, series_inverse
from .holonomy import TopologicalInput, family_index, kernel_dimension


@dataclass(frozen=True)
class CISpec:
    """Defining data: complex dimension and hypersurface degrees."""

    n: int
    degrees: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(integer(d, "degree") for d in self.degrees))
        if integer(self.n, "complex dimension") < 1:
            raise InputError(f"complex dimension must be at least 1, got {self.n}")
        if not self.degrees:
            raise InputError("need at least one degree, got ()")
        if any(d < 1 for d in self.degrees):
            raise InputError(f"degrees must be positive integers, got {self.degrees}")

    @property
    def codimension(self) -> int:
        return len(self.degrees)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)


C1_POSITIVE = "POSITIVE"
C1_ZERO = "ZERO"
C1_NEGATIVE = "NEGATIVE"


@dataclass(frozen=True)
class CIManifold:
    spec: CISpec
    profile: ChernProfile
    spin: bool
    c1_sign: str

    @property
    def name(self) -> str:
        inner = ",".join(str(d) for d in self.spec.degrees)
        return f"X_{self.spec.n}({inner})"


def build_ci(spec: CISpec) -> CIManifold:
    """Construct the tangent Chern profile of X_n(d_1,...,d_r).

    The Euler-sequence quotient gives the total Chern class
    c(TX) = c(TP^(n+r))|_X * c(N)^(-1) = (1+h)^(n+r+1) / prod_j (1 + d_j h)
    mod h^(n+1): the degree-r normal class c(N), with the elementary
    symmetric functions of the degrees as coefficients, is inverted once
    and multiplied once by the ambient class.  The fundamental class pairs
    h^n to the product of the degrees.
    """
    n, degrees = spec.n, spec.degrees
    r = len(degrees)
    ambient = TruncatedPoly(
        ("h",), (n,), {(k,): math.comb(n + r + 1, k) for k in range(n + 1)}
    )
    normal = [1]  # e_0 .. e_r of the degrees: prod_j (1 + d_j h)
    for d in degrees:
        normal = [a + d * b for a, b in zip(normal + [0], [0] + normal)]
    total = ambient * series_inverse(
        TruncatedPoly(("h",), (n,), {(k,): e for k, e in enumerate(normal)})
    )
    chern = tuple(total.coefficient((k,)) for k in range(1, n + 1))
    pairing = Fraction(math.prod(degrees))

    c1 = n + r + 1 - spec.total_degree
    check("first Chern coefficient", chern[0] == c1, spec=spec, c1=chern[0],
          **{"n + r + 1 - d": c1})
    sign = C1_ZERO if c1 == 0 else (C1_POSITIVE if c1 > 0 else C1_NEGATIVE)
    return CIManifold(
        spec=spec,
        profile=ChernProfile(n, chern, pairing),
        spin=(n + r - spec.total_degree) % 2 == 1,
        c1_sign=sign,
    )


def quadric(m: int) -> CIManifold:
    """The smooth quadric X_m(2), also a symmetric space for even m."""
    return build_ci(CISpec(m, (2,)))


@dataclass(frozen=True)
class CIInvariants:
    euler: Fraction
    signature: Optional[Fraction]
    ahat: Fraction
    dirac_index: Fraction
    dirac_tangent_index: Fraction
    rs_index: Fraction


def ci_invariants(m: CIManifold) -> CIInvariants:
    """Euler number, signature, Ahat and the three Dirac-type indices.

    The signature is reported only when the real dimension is divisible
    by four; the index values are meaningful as operator indices only on
    spin manifolds but are well-defined characteristic numbers always.
    ``ahat`` and ``dirac_index`` are one number, the top coefficient of the
    one Ahat class that ``rs_index`` builds, so they cannot disagree and do
    not check each other.
    """
    profile = m.profile
    split = rs_index(profile)
    signature = evaluate_genus("L", profile) if profile.dim % 2 == 0 else None
    return CIInvariants(
        euler=euler_characteristic(profile),
        signature=signature,
        ahat=split.dirac,
        dirac_index=split.dirac,
        dirac_tangent_index=split.dirac_tangent,
        rs_index=split.total,
    )


def fermat_signature(m: int, d: int) -> Fraction:
    """Signature of the degree-d hypersurface X_m(d) by series extraction.

    Independent of the L-genus route: the value is the coefficient of
    z^(m+1) in  ((1+z)^d - (1-z)^d) / ((1-z^2) ((1+z)^d + (1-z)^d)),
    a generating function that uses no Chern class; the division is
    ``series_inverse``.
    """
    if integer(m, "dimension") < 1 or integer(d, "degree") < 1:
        raise InputError(f"need m >= 1 and d >= 1, got m = {m}, d = {d}")
    if m % 2:
        raise NotApplicableError(f"signature needs even complex dimension, got {m}")
    order = m + 1
    plus = {(k,): Fraction(math.comb(d, k)) for k in range(min(d, order) + 1)}
    minus = {
        (k,): Fraction((-1) ** k * math.comb(d, k)) for k in range(min(d, order) + 1)
    }
    p = TruncatedPoly(("z",), (order,), plus)
    q = TruncatedPoly(("z",), (order,), minus)
    one_minus = TruncatedPoly(("z",), (order,), {(0,): 1, (2,): -1})
    return ((p - q) * series_inverse(one_minus * (p + q))).coefficient((order,))


# the classes of X_n(d) grow about as n**3 and a product's two-variable index
# class about as (n1 + n2)**3.5: `ci -n 400 -d 402` took 2.0 s and
# `product ci 200:202 200:202` 3.8 s (median of three runs on a 2-core VM)
CI_LIMIT = 400


def build_within_limit(*specs: CISpec) -> List[CIManifold]:
    """The complete intersections of one command-line or manifest request, refused
    before any class is built when their complex dimensions total more than CI_LIMIT."""
    total = sum(spec.n for spec in specs)
    if total > CI_LIMIT:
        what = "n" if len(specs) == 1 else "n1 + n2"
        raise InputError(f"complete intersections need {what} <= {CI_LIMIT}, got {total}")
    return [build_ci(spec) for spec in specs]


# the chi_y class behind a Hodge table grows about as n**4: `ci -n N -d N+2
# --hodge` took a median of 0.5 s at N = 64 and 3.5 s at N = 100 over five
# runs on a 2-core VM
HODGE_LIMIT = 100


def hodge_numbers(m: CIManifold) -> Tuple[Tuple[int, ...], ...]:
    """Full Hodge table h^{p,q} as nested tuples, rows indexed by p.

    Complete intersections have hyperplane-section cohomology: the table
    equals the Kronecker pattern away from p+q = n, so the chi_p values
    determine the middle row.  The solve is checked for Serre duality of
    the chi_p, for an integral nonnegative middle row, and against a second
    route: sum (-1)^(p+q) h^{p,q} is chi_y at y = -1, the Euler number c_n[X].
    After one integrality test of the chi_p, the row, table and Euler sum
    are ints; a non-integral chi_p fails the row check, written as p/q.
    Complex dimensions above HODGE_LIMIT are refused before any work.
    """
    n = m.spec.n
    if n > HODGE_LIMIT:
        raise InputError(f"hodge_numbers needs n <= {HODGE_LIMIT}, got {n}")
    chi = evaluate_genus("CHI_Y", m.profile)
    integral = all(c.denominator == 1 for c in chi)
    if integral:
        chi = tuple(c.numerator for c in chi)
    mirrored = tuple((-1) ** n * c for c in reversed(chi))
    check("Serre duality of chi_p", chi == mirrored, spec=m.spec, chi=chi, mirrored=mirrored)
    middle = tuple(
        (-1) ** p * chi[p] if 2 * p == n else (-1) ** (n - p) * (chi[p] - (-1) ** p)
        for p in range(n + 1)
    )
    check("middle Hodge row", integral and min(middle) >= 0, spec=m.spec, row=middle)
    table = tuple(
        tuple(middle[p] if p + q == n else int(p == q) for q in range(n + 1))
        for p in range(n + 1)
    )
    euler = sum((-1) ** (p + q) * h for p, row in enumerate(table) for q, h in enumerate(row))
    c_n = euler_characteristic(m.profile)
    check("Euler number of the Hodge table", euler == c_n, spec=m.spec, table=euler, c_n=c_n)
    return table


@dataclass(frozen=True)
class CIKernelReport:
    """What the scalar-curvature trichotomy says about ker Q on a CI."""

    manifold: str
    spin: bool
    c1_sign: str
    index: Fraction
    # Ricci-flat case: exact kernel dimension and the Hodge-sum index
    kernel_dim: Optional[int] = None
    index_from_hodge: Optional[int] = None
    # negative case: harmonic spinors force a kernel on the image of P
    kernel_lower_bound: Optional[int] = None
    nontrivial_on_im_p: bool = False
    index_differs_from_dirac: Optional[bool] = None
    # positive case: Kaehler-Einstein existence window for hypersurfaces
    ke_positive_window: Optional[bool] = None
    note: str = ""


def ci_rs_kernel(m: CIManifold) -> CIKernelReport:
    """Kernel report for the spin-3/2 operator on a spin complete intersection.

    c1 = 0: the manifold is Calabi-Yau, and holonomy's CY formulas read the
    kernel and the index off the Hodge row h^{1,p}; that index must agree
    with the characteristic-number index.  c1 < 0: nonzero Ahat forces
    harmonic spinors and hence a kernel on the image of P of at least
    |Ahat|.  c1 > 0: Ahat vanishes and a nonzero index is the only lower
    bound; for hypersurfaces the report also flags the degree window in
    which a positive Kaehler-Einstein metric is known to exist.
    """
    if not m.spin:
        raise NotApplicableError(f"{m.name} is not spin")
    inv = ci_invariants(m)
    n = m.spec.n
    report = partial(CIKernelReport, m.name, True, m.c1_sign, inv.rs_index)

    if m.c1_sign == C1_ZERO:
        if n == 1:
            return report(note="flat torus case: the Hodge-sum kernel formula needs n >= 2")
        data = TopologicalInput("CY", n, hodge_numbers(m)[1][1:n])
        kernel, index_hodge = kernel_dimension(data), family_index(data)
        check("Calabi-Yau index", index_hodge == inv.rs_index, spec=m.spec,
              hodge_sum=index_hodge, characteristic=inv.rs_index)
        return report(
            kernel_dim=kernel,
            index_from_hodge=index_hodge,
            note="Ricci-flat Kaehler metric exists; kernel is an exact Hodge sum",
        )

    if m.c1_sign == C1_NEGATIVE:
        ahat = inv.ahat
        bound = abs(int(ahat)) if ahat.denominator == 1 else 0
        return report(
            kernel_lower_bound=bound if bound else None,
            nontrivial_on_im_p=bound > 0,
            index_differs_from_dirac=inv.rs_index != inv.dirac_index,
            note=(
                "negative first Chern class: harmonic spinors inject into ker Q"
                if bound
                else "negative first Chern class, but Ahat vanishes"
            ),
        )

    window = None
    if m.spec.codimension == 1:
        d = m.spec.total_degree
        window = 2 * d >= m.spec.n + 1 and d <= m.spec.n + 1
    check("Ahat under positive c1", inv.ahat == 0, spec=m.spec, ahat=inv.ahat)
    bound = abs(int(inv.rs_index)) if inv.rs_index.denominator == 1 else 0
    return report(
        kernel_lower_bound=bound if bound else None,
        ke_positive_window=window,
        note="positive first Chern class: |index| bounds the kernel from below",
    )
