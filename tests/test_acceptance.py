"""Acceptance suite: every guaranteed value, one numbered check per test.

Each test prints a single ``PASS nn`` line (visible under ``pytest -s``);
a failing criterion shows up as an ordinary pytest failure naming the
check.  All comparisons are exact, tolerance zero.
"""

import random
from fractions import Fraction

import pytest

from characters import assert_tensor_character
from newton import elementary_from_power_sums
from rslab.charclass import (
    evaluate_genus,
    ChernProfile,
    euler_characteristic,
    product_rs_index,
    rs_index,
    verify_dimension_identities,
)
from rslab.errors import NotApplicableError
from rslab.holonomy import (
    TopologicalInput,
    family_index,
    holonomy_model,
    qk_kernel_analysis,
    sphere_check,
    symmetric_space_catalog,
)
from rslab.intersections import (
    CISpec,
    build_ci,
    ci_invariants,
    ci_rs_kernel,
    fermat_signature,
    hodge_numbers,
    quadric,
)

F = Fraction


def _ci(n, *degrees):
    return build_ci(CISpec(n, tuple(degrees)))


def _passline(num, text):
    print(f"PASS {num:02d}  {text}")


def test_01_hypersurface_signatures():
    expected = {
        (4, 4): 100,
        (6, 4): -576,
        (6, 6): -12544,
        (4, 8): 4040,
        (6, 10): -505088,
    }
    for (m, d), sigma in expected.items():
        assert ci_invariants(_ci(m, d)).signature == sigma, (m, d)
    _passline(1, "hypersurface signatures via the L-genus")


def test_02_signature_two_independent_routes():
    for m in range(2, 9, 2):
        for d in range(2, 11):
            lgenus = ci_invariants(_ci(m, d)).signature
            series = fermat_signature(m, d)
            assert lgenus == series, (m, d)
    for m in (3, 5, 7):
        assert ci_invariants(_ci(m, 4)).signature is None
        with pytest.raises(NotApplicableError):
            fermat_signature(m, 4)
    _passline(2, "L-genus and series signatures agree on the full grid")


def test_03_ahat_values():
    assert ci_invariants(_ci(2, 6)).ahat == 8
    assert ci_invariants(_ci(4, 8)).ahat == 12
    assert ci_invariants(_ci(6, 10)).ahat == 16
    for manifold in (_ci(4, 4), _ci(6, 4), _ci(6, 6), quadric(4)):
        assert ci_invariants(manifold).ahat == 0, manifold.name
    _passline(3, "Ahat genus values, including the vanishing positive cases")


def test_04_index_values_three_routes():
    assert ci_invariants(quadric(4)).rs_index == -2
    assert ci_invariants(quadric(4)).rs_index == -ci_invariants(quadric(4)).signature

    k3 = _ci(2, 4)
    direct = rs_index(k3.profile).total
    ahat = evaluate_genus("AHAT", k3.profile)
    sigma = evaluate_genus("L", k3.profile)
    from_functionals = -19 * ahat
    assert from_functionals == F(19, 8) * sigma
    from_hodge = family_index(TopologicalInput("CY", n=2, hodge=(20,)))
    assert direct == from_functionals == from_hodge == -38
    _passline(4, "index of the quadric fourfold and three matching K3 routes")


@pytest.mark.parametrize("real_dim", [4, 8, 12])
def test_05_dimension_identities(real_dim):
    report = verify_dimension_identities(real_dim)
    mismatches = "\n".join(
        f"{check.label}: solved coefficients {check.coefficients}"
        for check in report.checks
        if not check.matched
    )
    assert report.all_matched, f"identity mismatch in dimension {real_dim}:\n{mismatches}"
    if real_dim == 8:
        assert any("euler" in check.label for check in report.checks)
    _passline(5, f"index functionals on Pontryagin numbers, dimension {real_dim}")


def test_06_hodge_numbers():
    quintic = hodge_numbers(_ci(3, 5))
    assert quintic[1][2] == 101 and quintic[1][1] == 1
    sextic = hodge_numbers(_ci(4, 6))
    assert sextic[1][3] == 426 and sextic[1][1] == 1
    k3 = hodge_numbers(_ci(2, 4))
    assert k3[1][1] == 20
    for table, n in ((k3, 2), (quintic, 3), (sextic, 4)):
        for p in range(n + 1):
            for q in range(n + 1):
                if p + q != n:
                    assert table[p][q] == (1 if p == q else 0), (n, p, q)
    _passline(6, "Hodge numbers and off-middle Kronecker-delta tables")


def test_07_kernel_dimensions():
    assert ci_rs_kernel(_ci(2, 4)).kernel_dim == 38
    assert ci_rs_kernel(_ci(3, 5)).kernel_dim == 202
    assert ci_rs_kernel(_ci(4, 6)).kernel_dim == 852
    _passline(7, "Ricci-flat kernel dimensions 38 / 202 / 852")


def test_08_decompositions_and_bookkeeping():
    g2 = holonomy_model("g2")
    dims = sorted(
        g2.system.weyl_dimension(w)
        for w, mult in g2.sigma_three_half().total.sorted_terms()
        for _ in range(mult)
    )
    assert dims == [7, 14, 27]

    spin7 = holonomy_model("spin7")
    sigma = spin7.sigma_three_half()
    assert sorted(
        spin7.system.weyl_dimension(w) for w, _ in sigma.plus.sorted_terms()
    ) == [8, 48]
    assert sorted(
        spin7.system.weyl_dimension(w) for w, _ in sigma.minus.sorted_terms()
    ) == [21, 35]

    cases = (
        [("su", k) for k in range(2, 9)]
        + [("u", 3)]
        + [("sp", k) for k in range(1, 7)]
        + [("sp1sp", k) for k in range(2, 7)]
        + [("g2", None), ("spin7", None)]
        + [("so", k) for k in range(3, 11)]
    )
    for kind, parameter in cases:
        model = holonomy_model(kind, parameter)
        total = model.sigma_three_half().total.dimension
        spinor_dim = 2 ** (model.real_dimension // 2)
        assert total == spinor_dim * model.real_dimension - spinor_dim, (kind, parameter)
    _passline(8, "spin-3/2 decompositions with exact dimension bookkeeping")


def test_09_parallel_field_counts():
    for n in range(2, 7):
        assert holonomy_model("sp", n).parallel_rs_dimension() == n - 1
    for n in range(2, 9):
        assert holonomy_model("su", n).parallel_rs_dimension() == 0
    assert holonomy_model("g2").parallel_rs_dimension() == 0
    assert holonomy_model("spin7").parallel_rs_dimension() == 0
    assert holonomy_model("sp1sp", 2).parallel_rs_dimension() == 1
    _passline(9, "parallel Rarita-Schwinger counts for every holonomy family")


def test_10_quaternion_kahler_analysis():
    report = qk_kernel_analysis(2)
    survivor_dims = sorted(
        entry.dimension for entry in report.entries if entry.summand in report.survivors
    )
    assert survivor_dims == [1, 10]  # the trivial summand and Sym^2 E
    assert report.survivor_labels == (
        "Sym^0 H (x) Lambda^(0,0)_0 E",
        "Sym^0 H (x) Lambda^(1,1)_0 E",
    )
    for m in range(3, 7):
        assert qk_kernel_analysis(m).survivors == ()

    kernels = {e.name: e.kernel_dimension for e in symmetric_space_catalog()}
    assert kernels["Gr2(C4)"] == 2
    assert kernels["HP2"] == 1
    assert kernels["G2/SO(4)"] == 1
    _passline(10, "quaternion-Kahler curvature bounds and symmetric-space kernels")


def test_11_sphere_casimirs_and_margins():
    for n in range(3, 21):
        chk = sphere_check(n)
        assert chk.casimir_value == F(n * (n + 7), 8), n
        assert chk.realization[0] == ("B" if n % 2 else "D")
    for n in range(3, 101):
        margin = F(n * (n + 7), 8) - F((8 - n) * (n - 1), 8)
        assert margin == F(n * n - n + 4, 4)
        assert margin > 0
    _passline(11, "sphere Casimirs from root data and positive margins to n = 100")


def test_12_product_index_formula():
    k3 = _ci(2, 4).profile
    assert product_rs_index(k3, k3) == -156

    rng = random.Random(1185)
    pairs = []
    while len(pairs) < 10:
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        d1 = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 2)))
        d2 = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 2)))
        pairs.append((CISpec(n1, d1), CISpec(n2, d2)))
    for left_spec, right_spec in pairs:
        left = build_ci(left_spec).profile
        right = build_ci(right_spec).profile
        li, ri = rs_index(left), rs_index(right)
        combined = li.total * ri.dirac - li.dirac * ri.dirac + li.dirac * ri.total
        assert product_rs_index(left, right) == combined, (left_spec, right_spec)
    _passline(12, "product index formula on ten random pairs and the K3 square")


def test_13_property_suites():
    # chi_y specializations: Euler at y = -1, Todd at y = 0, signature at y = 1
    for spec in [
        CISpec(2, (4,)),
        CISpec(2, (6,)),
        CISpec(3, (5,)),
        CISpec(4, (2,)),
        CISpec(4, (6,)),
        CISpec(3, (2, 2)),
    ]:
        profile = build_ci(spec).profile
        chi_p = evaluate_genus("CHI_Y", profile)
        assert sum(
            (-1) ** p * v for p, v in enumerate(chi_p)
        ) == euler_characteristic(profile)
        assert chi_p[0] == evaluate_genus("TODD", profile)
        if profile.dim % 2 == 0:
            assert sum(chi_p) == evaluate_genus("L", profile)

    # Sigma (x) T = Sigma_3/2 (+) Sigma as exact characters (weight multisets)
    scoped = (
        [("g2", None), ("spin7", None), ("so", 7), ("so", 8)]
        + [("su", k) for k in range(2, 6)]
        + [("sp", 2), ("sp", 3), ("sp1sp", 2)]
    )
    for kind, parameter in scoped:
        model = holonomy_model(kind, parameter)
        total = model.sigma_three_half().total.add(model.spinor)
        assert_tensor_character(total, model.spinor, model.tangent)

    # Newton identity round trips on random exact Chern data
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(1, 6)
        chern = tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n))
        sums = ChernProfile(n, chern, F(1)).power_sums
        assert elementary_from_power_sums(sums, n) == chern

    # divisibility on spin complete intersections in real dimensions 4 and 12:
    # signature divisible by 16, both indices even
    spin_specs = (
        [CISpec(2, (d,)) for d in (2, 4, 6, 8)]
        + [CISpec(2, (2, 3)), CISpec(2, (3, 4))]
        + [CISpec(6, (d,)) for d in (2, 4, 6, 8, 10)]
        + [CISpec(6, (2, 3)), CISpec(6, (2, 5))]
    )
    for spec in spin_specs:
        manifold = build_ci(spec)
        assert manifold.spin, spec
        inv = ci_invariants(manifold)
        assert inv.signature.denominator == 1 and int(inv.signature) % 16 == 0, spec
        assert inv.dirac_index.denominator == 1 and int(inv.dirac_index) % 2 == 0, spec
        assert inv.rs_index.denominator == 1 and int(inv.rs_index) % 2 == 0, spec
    _passline(13, "chi_y, exact character, Newton and divisibility property suites")
