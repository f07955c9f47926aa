"""Complete intersections: invariants, Hodge tables, kernel reports."""

import functools
import itertools
import math
import re
from fractions import Fraction

import pytest

from rslab import charclass, intersections
from rslab.charclass import evaluate_genus, rs_index
from rslab.errors import ConsistencyError, InputError, NotApplicableError
from rslab.intersections import (
    HODGE_LIMIT,
    CISpec,
    build_ci,
    ci_invariants,
    ci_rs_kernel,
    fermat_signature,
    hodge_numbers,
    quadric,
)


def _ci(n, *degrees):
    return build_ci(CISpec(n, tuple(degrees)))


def test_spec_validation():
    with pytest.raises(InputError, match="^complex dimension must be at least 1, got 0$"):
        CISpec(0, (4,))
    with pytest.raises(InputError, match=re.escape("need at least one degree, got ()")):
        CISpec(2, ())
    with pytest.raises(InputError, match=re.escape("degrees must be positive integers, got (3, 0)")):
        CISpec(2, (3, 0))


def _complete_homogeneous(j, degrees):
    """h_j(d): the sum of all degree-j monomials in the degrees."""
    return sum(math.prod(m) for m in itertools.combinations_with_replacement(degrees, j))


@pytest.mark.parametrize(
    "degrees", [(1,), (2,), (5,), (7,), (2, 3), (4, 4), (1, 6), (2, 2, 2), (3, 5, 7)]
)
def test_build_ci_matches_the_complete_homogeneous_oracle(degrees):
    # 1/prod_j (1 + d_j h) = sum_j (-1)**j h_j(d) h**j, so
    # c_k = sum_j C(n+r+1, k-j) (-1)**j h_j(d)
    r = len(degrees)
    for n in range(1, 21):
        expected = tuple(
            sum(math.comb(n + r + 1, k - j) * (-1) ** j * _complete_homogeneous(j, degrees)
                for j in range(k + 1))
            for k in range(1, n + 1)
        )
        profile = build_ci(CISpec(n, degrees)).profile
        assert profile.chern == expected
        assert all(type(c) is Fraction for c in profile.chern)
        assert profile.pairing == math.prod(degrees)


@pytest.mark.parametrize(
    "n, degrees, named",
    [
        (4, (3.7,), "3.7"),
        (4, ("5",), "'5'"),
        (4, (True,), "True"),
        (4, (3, Fraction(4)), "Fraction(4, 1)"),
        (4.0, (3,), "4.0"),
        (True, (3,), "True"),
    ],
)
def test_spec_refuses_non_int_dimension_and_degrees(n, degrees, named):
    with pytest.raises(InputError, match=re.escape(named)):
        CISpec(n, degrees)


def test_spin_and_c1_classification():
    # spin iff n + r - sum(d) is odd
    quartic = _ci(2, 4)
    assert quartic.spin and quartic.c1_sign == "ZERO"
    quintic_surface = _ci(2, 5)
    assert not quintic_surface.spin
    assert quintic_surface.c1_sign == "NEGATIVE"
    fano = _ci(4, 4)
    assert fano.spin and fano.c1_sign == "POSITIVE"
    assert _ci(3, 2, 3).c1_sign == "POSITIVE"
    assert _ci(2, 2, 3).spin  # 2 + 2 - 5 odd


def test_names():
    assert _ci(4, 6).name == "X_4(6)"
    assert _ci(3, 2, 2).name == "X_3(2,2)"


def test_quadric_fourfold():
    inv = ci_invariants(quadric(4))
    assert inv.euler == 6
    assert inv.signature == 2
    assert inv.ahat == 0
    assert inv.rs_index == -2


def test_quartic_surface_invariants():
    inv = ci_invariants(_ci(2, 4))
    assert inv.euler == 24
    assert inv.signature == -16
    assert inv.ahat == 2
    assert inv.dirac_index == 2
    assert inv.rs_index == -38


def test_signature_agrees_with_series_route():
    for m, d in [(2, 3), (2, 7), (4, 5), (6, 3), (8, 2)]:
        inv = ci_invariants(_ci(m, d))
        assert fermat_signature(m, d) == inv.signature


def test_series_route_rejects_odd_dimension():
    with pytest.raises(NotApplicableError, match="^signature needs even complex dimension, got 3$"):
        fermat_signature(3, 5)
    with pytest.raises(InputError, match="^need m >= 1 and d >= 1, got m = 0, d = 5$"):
        fermat_signature(0, 5)


def test_odd_dimension_has_no_signature():
    assert ci_invariants(_ci(3, 5)).signature is None


def test_quartic_surface_hodge_table():
    assert hodge_numbers(_ci(2, 4)) == ((1, 0, 1), (0, 20, 0), (1, 0, 1))


def test_quintic_threefold_hodge_table():
    table = hodge_numbers(_ci(3, 5))
    assert table[1][1] == 1
    assert table[1][2] == 101
    assert table[2][1] == 101  # conjugation symmetry
    assert table[0] == (1, 0, 0, 1)
    assert table[3] == (1, 0, 0, 1)


def test_hodge_table_matches_euler_and_signature():
    for spec in [CISpec(2, (6,)), CISpec(4, (2,)), CISpec(4, (6,)), CISpec(3, (2, 2))]:
        ci = build_ci(spec)
        inv = ci_invariants(ci)
        table = hodge_numbers(ci)
        n = spec.n
        euler = sum((-1) ** (p + q) * table[p][q] for p in range(n + 1) for q in range(n + 1))
        assert euler == inv.euler
        if n % 2 == 0:
            sig = sum((-1) ** q * table[p][q] for p in range(n + 1) for q in range(n + 1))
            assert sig == inv.signature


def test_general_type_surface_hodge():
    # sextic surface: geometric genus 10, middle row 10, 86, 10
    table = hodge_numbers(_ci(2, 6))
    assert table[2][0] == 10
    assert table[1][1] == 86


def test_hodge_table_above_the_limit_is_refused_before_any_work(monkeypatch):
    genus = intersections.evaluate_genus

    def no_chi_y(name, profile):
        assert name != "CHI_Y", "the chi_y class was built"
        return genus(name, profile)

    monkeypatch.setattr(intersections, "evaluate_genus", no_chi_y)
    n = HODGE_LIMIT + 1
    message = f"^hodge_numbers needs n <= {HODGE_LIMIT}, got {n}$"
    with pytest.raises(InputError, match=message):
        hodge_numbers(_ci(n, n + 2))
    with pytest.raises(InputError, match=message):  # the Ricci-flat report reads the table
        ci_rs_kernel(_ci(n, n + 2))


def test_kernel_report_ricci_flat():
    report = ci_rs_kernel(_ci(2, 4))
    assert report.kernel_dim == 38
    assert report.index_from_hodge == -38
    assert report.index == -38
    report = ci_rs_kernel(_ci(3, 5))
    assert report.kernel_dim == 202
    assert report.index == 0
    report = ci_rs_kernel(_ci(4, 6))
    assert report.kernel_dim == 852
    assert report.index == -852


def test_kernel_report_checks_holonomy_cy_index(monkeypatch):
    from rslab import intersections

    index = intersections.family_index
    monkeypatch.setattr(intersections, "family_index", lambda data: index(data) + 1)
    with pytest.raises(ConsistencyError) as failure:
        ci_rs_kernel(_ci(2, 4))
    assert str(failure.value) == (
        "Calabi-Yau index: spec = CISpec(n=2, degrees=(4,)), hodge_sum = -37, "
        "characteristic = -38"
    )


def test_kernel_report_flat_torus_guard():
    report = ci_rs_kernel(_ci(1, 3))
    assert report.kernel_dim is None
    assert "n >= 2" in report.note


def test_kernel_report_negative_c1():
    report = ci_rs_kernel(_ci(2, 6))
    assert report.kernel_lower_bound == 8  # |Ahat|
    assert report.nontrivial_on_im_p
    assert report.index_differs_from_dirac
    assert report.kernel_dim is None


def test_kernel_report_positive_c1():
    report = ci_rs_kernel(_ci(4, 4))
    assert report.c1_sign == "POSITIVE"
    assert report.kernel_lower_bound == 100
    assert report.ke_positive_window is True
    assert report.kernel_dim is None


def test_kernel_report_requires_spin():
    with pytest.raises(NotApplicableError):
        ci_rs_kernel(_ci(2, 5))


def test_rs_index_report_composition():
    for spec in [CISpec(2, (4,)), CISpec(4, (2,)), CISpec(3, (3,))]:
        report = rs_index(build_ci(spec).profile)
        assert report.total == report.dirac_tangent + report.dirac


def test_ahat_survey_boundary_defect():
    # the advertised equivalence Ahat != 0 iff d > n+r+1 holds away from
    # the Ricci-flat boundary d = n+r+1, where two parallel spinors give
    # Ahat = 2 while the inequality is an equality; surveyed over spin
    # (r - d odd) hypersurfaces and two-fold intersections of degree <= 8
    singles = [(d,) for d in range(1, 9)]
    ahat = {
        (n, degrees): evaluate_genus("AHAT", _ci(n, *degrees).profile)
        for n in (2, 4)
        for degrees in singles + list(itertools.combinations_with_replacement(range(1, 9), 2))
        if (len(degrees) - sum(degrees)) % 2
    }
    assert ahat[2, (6,)] == 8 and ahat[2, (4,)] == 2
    for (n, degrees), value in ahat.items():
        r, d = len(degrees), sum(degrees)
        if d == n + r + 1:
            assert value == 2, (n, degrees)
        else:
            assert (value != 0) == (n + r + 1 < d), (n, degrees)


def test_quartic_sixfold_rs_index():
    inv = ci_invariants(_ci(6, 4))
    # dimension-12 identity: ind Q = 5 Ahat + sigma / 8
    assert inv.rs_index == 5 * inv.ahat + inv.signature / 8


# -- an independent route: Hirzebruch's residue formula -------------------------
# On X = X_n(d_1..d_r) in CP^N, N = n + r, the stable tangent bundle is
# (N+1) O(1) - sum_j O(d_j), so a genus with characteristic series Q takes
# the value prod(d_j) * [h^n] Q(h)^(N+1) / prod_j Q(d_j h) (Hirzebruch,
# Topological Methods in Algebraic Geometry, section 22).  Plain Fraction
# lists only: no ChernProfile, no Newton identities, no TruncatedPoly.


def _mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _inv(a):
    q = [1 / Fraction(a[0])]
    for k in range(1, len(a)):
        q.append(-sum(a[j] * q[k - j] for j in range(1, k + 1)) / a[0])
    return q


def _todd_like(c, n):
    """1 / g(c x) with g(u) = (1 - exp(-u)) / u."""
    return _inv([Fraction((-c) ** k, math.factorial(k + 1)) for k in range(n + 1)])


def _q_ahat(n):
    """(x/2) / sinh(x/2)."""
    return _inv([Fraction(1, 4 ** (k // 2) * math.factorial(k + 1)) if k % 2 == 0 else 0
                 for k in range(n + 1)])


def _q_l(n):
    """x / tanh(x) = cosh(x) / (sinh(x) / x)."""
    cosh = [Fraction(1, math.factorial(k)) if k % 2 == 0 else 0 for k in range(n + 1)]
    sinh = [Fraction(1, math.factorial(k + 1)) if k % 2 == 0 else 0 for k in range(n + 1)]
    return _mul(cosh, _inv(sinh))


def _q_chi_y(y, n):
    """x (1 + y exp(-x(1+y))) / (1 - exp(-x(1+y))) = 1/g(x(1+y)) - x y."""
    q = _todd_like(1 + y, n)
    q[1] -= y
    return q


def _exp_sym(c, n):
    """exp(c x) + exp(-c x)."""
    return [Fraction(2 * c**k, math.factorial(k)) if k % 2 == 0 else 0 for k in range(n + 1)]


@functools.lru_cache(maxsize=None)
def _power(a, e):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    while e:
        if e & 1:
            out = _mul(out, a)
        a, e = _mul(a, a), e >> 1
    return out


@functools.lru_cache(maxsize=None)
def _normal_inverse(q, d):
    """1 / Q(d x)."""
    return _inv([c * d**k for k, c in enumerate(q)])


def _residue(q, n, degrees, factor=None):
    q = tuple(q)
    integrand = _power(q, n + len(degrees) + 1)
    for d in degrees:
        integrand = _mul(integrand, _normal_inverse(q, d))
    if factor is not None:
        integrand = _mul(integrand, factor)
    return math.prod(degrees) * integrand[n]


# 14 degree lists, so 140 complete intersections over n = 1..10
_DEGREES = [(d,) for d in range(2, 6)] + [(d1, d2) for d1 in range(2, 6) for d2 in range(d1, 6)]
# and a few larger ones, three degrees among them, where ci-tower's tail lives
_TAIL = {12: [(2, 2, 2)], 14: [(2, 3, 3)], 16: [(3, 4), (2, 2, 3)]}


@pytest.mark.parametrize("n", [*range(1, 11), *_TAIL])
def test_genera_and_index_match_the_residue_formula(n):
    ahat_q = _q_ahat(n)
    for degrees in _TAIL.get(n, _DEGREES):
        m = build_ci(CISpec(n, degrees))
        inv = ci_invariants(m)
        where = m.name
        assert inv.ahat == _residue(ahat_q, n, degrees), where
        assert evaluate_genus("TODD", m.profile) == _residue(_todd_like(1, n), n, degrees), where
        if n % 2 == 0:
            assert inv.signature == _residue(_q_l(n), n, degrees), where
        big_n = n + len(degrees)
        ch_plus_one = [(big_n + 1) * c for c in _exp_sym(1, n)]
        ch_plus_one[0] -= 1
        for d in degrees:
            ch_plus_one = [a - b for a, b in zip(ch_plus_one, _exp_sym(d, n))]
        assert inv.rs_index == _residue(ahat_q, n, degrees, ch_plus_one), where
        chi = evaluate_genus("CHI_Y", m.profile)
        for y in range(n + 1):
            value = sum(c * y**p for p, c in enumerate(chi))
            assert value == _residue(_q_chi_y(y, n), n, degrees), (where, y)


def test_kernel_report_builds_no_new_genus_class(monkeypatch):
    built = []
    real = charclass._class_components

    def counting(genus, profile):
        built.append(genus)
        return real(genus, profile)

    monkeypatch.setattr(charclass, "_class_components", counting)
    for m in (_ci(2, 6), _ci(4, 4), _ci(4, 6), _ci(3, 5)):  # c1 < 0, > 0, = 0, = 0
        ci_invariants(m)
        hodge_numbers(m)
        before = len(built)
        assert before > 0
        ci_rs_kernel(m)
        hodge_numbers(m)
        rs_index(m.profile)
        assert len(built) == before, m.name
