"""Complete intersections: invariants, Hodge tables, kernel reports."""

import pytest

from rslab.charclass import rs_index
from rslab.errors import ConsistencyError, InputError, NotApplicableError
from rslab.intersections import (
    CISpec,
    ahat_survey,
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
    with pytest.raises(InputError):
        CISpec(0, (4,))
    with pytest.raises(InputError):
        CISpec(2, ())
    with pytest.raises(InputError):
        CISpec(2, (4, 0))


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
    with pytest.raises(NotApplicableError):
        fermat_signature(3, 5)
    with pytest.raises(InputError):
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
    # Ahat = 2 while the inequality is an equality
    entries = ahat_survey(2, 8)
    by_key = {(e.n, e.degrees): e for e in entries}
    assert by_key[(2, (6,))].ahat == 8
    assert by_key[(2, (4,))].ahat == 2 and not by_key[(2, (4,))].claim_nonzero
    for e in entries:
        if e.total_degree == e.n + len(e.degrees) + 1:
            assert e.ahat == 2, (e.n, e.degrees)
        else:
            assert (e.ahat != 0) == e.claim_nonzero, (e.n, e.degrees)


def test_quartic_sixfold_rs_index():
    inv = ci_invariants(_ci(6, 4))
    # dimension-12 identity: ind Q = 5 Ahat + sigma / 8
    assert inv.rs_index == 5 * inv.ahat + inv.signature / 8
