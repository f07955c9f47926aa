"""Holonomy models: spin-3/2 decompositions, kernels, spheres, products."""

import re
from fractions import Fraction

import pytest

from rslab import holonomy, lie
from rslab.charclass import rs_index, verify_dimension_identities
from rslab.errors import ConsistencyError, InputError, NotApplicableError
from rslab.holonomy import (
    ParallelCounts,
    QKSummand,
    TopologicalInput,
    family_index,
    holonomy_model,
    hyperkahler_kernel_identity,
    kernel_dimension,
    product_parallel_rs,
    qk_casimir_bound,
    qk_kernel_analysis,
    sphere_check,
    spin7_betti_identity,
    symmetric_space_catalog,
)
from rslab.intersections import CISpec, build_ci, fermat_signature

F = Fraction


def _summand_dims(model):
    sigma = model.sigma_three_half()
    return sorted(
        model.system.weyl_dimension(w)
        for w, mult in sigma.total.sorted_terms()
        for _ in range(mult)
    )


def test_g2_decomposition():
    model = holonomy_model("g2")
    assert _summand_dims(model) == [7, 14, 27]
    sigma = model.sigma_three_half()
    assert not sigma.graded
    assert sigma.total.dimension == 48


def test_spin7_graded_decomposition():
    model = holonomy_model("spin7")
    sigma = model.sigma_three_half()
    assert sigma.graded
    plus = sorted(
        model.system.weyl_dimension(w)
        for w, mult in sigma.plus.sorted_terms()
        for _ in range(mult)
    )
    minus = sorted(
        model.system.weyl_dimension(w)
        for w, mult in sigma.minus.sorted_terms()
        for _ in range(mult)
    )
    assert plus == [8, 48]
    assert minus == [21, 35]


def test_su3_decomposition():
    assert _summand_dims(holonomy_model("su", 3)) == [3, 3, 3, 3, 6, 6, 8, 8]


def test_dimension_bookkeeping_everywhere():
    cases = (
        [("su", k) for k in range(2, 6)]
        + [("u", 3)]
        + [("sp", k) for k in range(1, 4)]
        + [("sp1sp", k) for k in range(2, 5)]
        + [("g2", None), ("spin7", None)]
        + [("so", k) for k in range(3, 9)]
    )
    for kind, parameter in cases:
        model = holonomy_model(kind, parameter)
        sigma = model.sigma_three_half()
        spinor_dim = 2 ** (model.real_dimension // 2)
        assert sigma.total.dimension == spinor_dim * (model.real_dimension - 1), kind
        if sigma.graded:
            assert sigma.plus.dimension + sigma.minus.dimension == sigma.total.dimension


def test_so_spin32_is_irreducible():
    for n in (7, 9):
        model = holonomy_model("so", n)
        terms = model.sigma_three_half().total.sorted_terms()
        assert len(terms) == 1 and terms[0][1] == 1


def test_parallel_counts():
    for n in range(1, 7):
        model = holonomy_model("sp", n)
        assert model.parallel_spinor_dimension() == n + 1
        assert model.parallel_rs_dimension() == n - 1
    for n in range(2, 9):
        model = holonomy_model("su", n)
        assert model.parallel_spinor_dimension() == 2
        assert model.parallel_rs_dimension() == 0
    assert holonomy_model("g2").parallel_rs_dimension() == 0
    assert holonomy_model("spin7").parallel_rs_dimension() == 0
    assert holonomy_model("sp1sp", 2).parallel_rs_dimension() == 1
    assert holonomy_model("sp1sp", 3).parallel_rs_dimension() == 0


def test_generic_kaehler_twist_kills_trivial_summands():
    model = holonomy_model("u", 3)
    assert model.parallel_spinor_dimension() == 0
    assert model.parallel_rs_dimension() == 0


def test_model_dispatch_validation():
    with pytest.raises(InputError):
        holonomy_model("f4")
    with pytest.raises(InputError):
        holonomy_model("g2", 2)
    with pytest.raises(InputError):
        holonomy_model("su")
    with pytest.raises(InputError):
        holonomy_model("sp1sp", 1)
    with pytest.raises(InputError):
        holonomy_model("so", 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: holonomy_model("su", 1), "su needs a parameter >= 2, got 1"),
        (lambda: holonomy_model("su"), "su needs a parameter >= 2, got None"),
        (lambda: holonomy_model("u", 1), "u needs a parameter >= 2, got 1"),
        (lambda: holonomy_model("so", 2), "so needs a parameter >= 3, got 2"),
        (lambda: holonomy_model("sp", 0), "sp needs a parameter >= 1, got 0"),
        (lambda: holonomy_model("sp1sp", 1), "sp1sp needs a parameter >= 2, got 1"),
        (lambda: holonomy_model("spin7", "x"), "spin7 takes no parameter"),
        (lambda: holonomy_model("su", 81), "su needs a parameter <= 80, got 81"),
        (lambda: holonomy_model("u", 81), "u needs a parameter <= 80, got 81"),
        (lambda: holonomy_model("sp", 65), "sp needs a parameter <= 64, got 65"),
        (lambda: holonomy_model("sp1sp", 33), "sp1sp needs a parameter <= 32, got 33"),
        (lambda: holonomy_model("so", 401), "so needs a parameter <= 400, got 401"),
        (lambda: hyperkahler_kernel_identity(0), "sp needs a parameter >= 1, got 0"),
        (lambda: hyperkahler_kernel_identity(65), "sp needs a parameter <= 64, got 65"),
        (lambda: qk_kernel_analysis(33), "sp1sp needs a parameter <= 32, got 33"),
        (lambda: TopologicalInput("SPIN7", b2=1, b3=1), "SPIN7 input needs b4_minus"),
        (lambda: TopologicalInput("G2", b3=1), "G2 input needs b2"),
        (lambda: TopologicalInput("CY", hodge=(1,)), "CY input needs n"),
        (lambda: TopologicalInput("QK", b2=1), "QK input needs n"),
        (lambda: TopologicalInput("CY", n=1),
         "CY input needs n >= 2 and the row h^{1,1}..h^{1,n-1}"),
        (lambda: TopologicalInput("HK", n=0),
         "HK input needs n >= 1 and the column h^{1,1}..h^{n,1}"),
        (lambda: TopologicalInput("SPIN7", b2=-1, b3=1, b4_minus=1), "b2 must be nonnegative"),
        (lambda: TopologicalInput("QK", n=2, b2=-1), "b2 must be nonnegative"),
        (lambda: TopologicalInput("G2", b2=0, b3=-1), "b3 must be nonnegative"),
        (lambda: TopologicalInput("HK", n=2, hodge=(1, -1)), "hodge must be nonnegative"),
        (lambda: ParallelCounts(-1, 0), "parallel counts must be nonnegative"),
        (lambda: ParallelCounts(1, -2, 8), "parallel counts must be nonnegative"),
    ],
)
def test_refusals_name_what_is_missing_or_out_of_range(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "kind, parameter, named",
    [("sp", True, "parameter True"), ("su", "3", "parameter '3'"), ("so", 7.0, "parameter 7.0")],
)
def test_model_parameter_must_be_an_int(kind, parameter, named):
    holonomy_model(kind, int(parameter))  # the int is accepted; True, "3", 7.0 are not
    with pytest.raises(InputError, match=f"^{named} is not an int$"):
        holonomy_model(kind, parameter)


@pytest.mark.parametrize(
    "family, fields, named",
    [
        ("SPIN7", {"b2": 1.5, "b3": 0, "b4_minus": 0}, "b2 1.5 is not an int"),
        ("G2", {"b2": "0", "b3": 1}, "b2 '0' is not an int"),
        ("CY", {"n": 2, "hodge": 5}, "hodge 5 is not a list of Hodge numbers"),
        ("CY", {"n": 2, "hodge": (True,)}, "Hodge number True is not an int"),
        ("HK", {"n": 1.0, "hodge": (3,)}, "n 1.0 is not an int"),
    ],
)
def test_topological_input_numbers_must_be_ints(family, fields, named):
    with pytest.raises(InputError, match=f"^{re.escape(named)}$"):
        kernel_dimension(TopologicalInput(family, **fields))


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: sphere_check(7.0), "sphere dimension 7.0"),
        (lambda: hyperkahler_kernel_identity(2.0), "parameter 2.0"),
        (lambda: qk_casimir_bound(2.0, QKSummand(0, 0, 0)), "quaternionic dimension m 2.0"),
        (lambda: qk_casimir_bound(2, QKSummand(0, 1.0, 1)), "a 1.0"),
        (lambda: QKSummand(True, 0, 0).validate(3), "d True"),
        (lambda: ParallelCounts(1.5, 0, 8), "spinors 1.5"),
        (lambda: ParallelCounts(1, "0"), "rs_fields '0'"),
        (lambda: ParallelCounts(1, 0, True), "real_dimension True"),
        (lambda: lie.type_a(3.0), "type A size 3.0"),
        (lambda: lie.type_b(2.0), "type B rank 2.0"),
        (lambda: lie.type_c(True), "type C rank True"),
        (lambda: lie.type_d(F(3)), "type D rank Fraction(3, 1)"),
        (lambda: fermat_signature(4, 4.0), "degree 4.0"),
        (lambda: fermat_signature(True, 4), "dimension True"),
        (lambda: verify_dimension_identities(8.0), "real dimension 8.0"),
    ],
    ids=["sphere", "hk", "qk-m", "qk-a", "qk-d", "parallel-spinors", "parallel-rs",
         "parallel-dimension", "type-a", "type-b", "type-c", "type-d", "fermat-degree",
         "fermat-dimension", "dimension-identities"],
)
def test_int_parameters_refuse_other_types(call, named):
    with pytest.raises(InputError, match=f"^{re.escape(named)} is not an int$"):
        call()


def test_topological_input_keeps_hodge_as_a_tuple():
    data = TopologicalInput("HK", n=2, hodge=[5, 7])
    assert data.hodge == (5, 7) and data == TopologicalInput("HK", n=2, hodge=(5, 7))
    assert kernel_dimension(data) == 31


def test_equal_inputs_give_equal_models():
    def seen(kind, parameter=None):
        model = holonomy_model(kind, parameter)
        return model.group, model.sigma_three_half().total.sorted_terms()

    assert seen(" Sp1Sp ", 2) == seen("sp1sp", 2)
    assert seen("G2") == seen("g2")
    assert seen("sp", 2) != seen("sp", 3)


def test_models_follow_their_shared_root_system():
    """A model is built on the system the factory hands out now, also after
    the shared store has dropped and rebuilt it."""
    holonomy_model("sp", 3)
    for n in range(3, 121):  # B_m and D_m up to m = 60 push C3 out of the store
        sphere_check(n)
    model = holonomy_model("sp", 3)
    assert model.system is lie.type_c(3)
    model.tangent.add(lie.irreducible(lie.type_c(3), (1, 0, 0)))


@pytest.mark.parametrize("n", [8, 10])
def test_sigma_three_half_runs_klimyk_once_per_pair(monkeypatch, n):
    model = holonomy_model("so", n)
    calls = {"klimyk": 0, "weights": 0}
    klimyk, weights = lie._klimyk, model.system.weight_multiplicities

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lie, "_klimyk", counted("klimyk", klimyk))
    monkeypatch.setattr(model.system, "weight_multiplicities", counted("weights", weights))
    model.sigma_three_half()
    # Sigma+ (x) T and Sigma- (x) T, whose sum is the total: two spinor terms, one tangent
    assert len(model.spinor.terms) == 2 and len(model.tangent.terms) == 1
    # two label Klimyk calls, one per half; both enumerate the tangent (the
    # smaller factor, or the second on a tie), whose table the first builds
    # and the second reads from the cache; the memo holds each pair in both orders
    assert calls == {"klimyk": 2, "weights": 1}
    assert list(model.system._weights_cache) == [next(iter(model.tangent._keys))[0]]
    assert len(model.system._products) == 4


def test_qk_bound_dimension_eight():
    report = qk_kernel_analysis(2)
    assert report.real_dimension == 8
    assert report.survivor_labels == (
        "Sym^0 H (x) Lambda^(0,0)_0 E",
        "Sym^0 H (x) Lambda^(1,1)_0 E",
    )
    assert report.curvature_allows_kernel
    assert report.kernel_formula == "b2 + 1"
    bounds = {entry.summand.label(): entry.bound for entry in report.entries}
    assert bounds["Sym^1 H (x) Lambda^(1,0)_0 E"] == F(3, 16)
    assert bounds["Sym^3 H (x) Lambda^(1,0)_0 E"] == F(1, 2)
    assert all(entry.bound >= 0 for entry in report.entries)
    # total dimension of the listed summands is the spin-3/2 rank
    assert sum(e.dimension for e in report.entries) == 16 * 7


def test_qk_bound_higher_dimensions_all_positive():
    for m in range(3, 7):
        report = qk_kernel_analysis(m)
        assert report.survivors == ()
        assert not report.curvature_allows_kernel
        assert report.kernel_formula is None
        assert all(entry.bound > 0 for entry in report.entries)


def test_qk_summand_parity_guard():
    with pytest.raises(InputError):
        QKSummand(1, 0, 0).validate(2)
    # degree m summands are fine
    QKSummand(2, 0, 0).validate(2)
    assert qk_casimir_bound(2, QKSummand(0, 1, 1)) == 0


def test_sphere_checks():
    for n in range(3, 21):
        chk = sphere_check(n)
        assert chk.casimir_value == F(n * (n + 7), 8)
        assert chk.margin == F(n * n - n + 4, 4)
        assert chk.margin > 0
        expected_kind = "B" if n % 2 else "D"
        assert chk.realization.startswith(expected_kind)
    with pytest.raises(InputError):
        sphere_check(2)
    with pytest.raises(InputError, match="n <= 400"):
        sphere_check(401)


def test_topological_kernels():
    assert kernel_dimension(TopologicalInput("CY", n=2, hodge=(20,))) == 38
    assert kernel_dimension(TopologicalInput("CY", n=3, hodge=(1, 101))) == 202
    assert kernel_dimension(TopologicalInput("CY", n=4, hodge=(1, 0, 426))) == 852
    assert kernel_dimension(TopologicalInput("HK", n=1, hodge=(20,))) == 38
    assert (
        kernel_dimension(
            TopologicalInput("SPIN7", b2=4, b3=33, b4_minus=60)
        )
        == 97
    )
    assert kernel_dimension(TopologicalInput("G2", b2=0, b3=1)) == 0
    assert kernel_dimension(TopologicalInput("G2", b2=3, b3=17)) == 19
    assert kernel_dimension(TopologicalInput("QK", n=2, b2=1)) == 2


def test_topological_indexes():
    assert family_index(TopologicalInput("CY", n=2, hodge=(20,))) == -38
    assert family_index(TopologicalInput("CY", n=3, hodge=(1, 101))) == 0
    assert family_index(TopologicalInput("CY", n=4, hodge=(1, 0, 426))) == -852
    assert family_index(TopologicalInput("HK", n=1, hodge=(20,))) == -38
    assert (
        family_index(TopologicalInput("SPIN7", b2=4, b3=33, b4_minus=60))
        == 33 - 60 - 4
    )
    with pytest.raises(NotApplicableError):
        family_index(TopologicalInput("G2", b2=0, b3=1))
    with pytest.raises(NotApplicableError):
        family_index(TopologicalInput("QK", n=2, b2=1))


def test_topological_validation():
    with pytest.raises(InputError):
        TopologicalInput("CY", n=1, hodge=())
    with pytest.raises(InputError):
        TopologicalInput("CY", n=3, hodge=(20,))
    with pytest.raises(InputError):
        TopologicalInput("G2", b2=0, b3=0)
    with pytest.raises(InputError):
        TopologicalInput("QK", n=3, b2=1)
    with pytest.raises(InputError):
        TopologicalInput("NK", b2=1)
    with pytest.raises(ConsistencyError):
        kernel_dimension(TopologicalInput("CY", n=2, hodge=(0,)))


@pytest.mark.parametrize(
    "family, fields, stray",
    [
        ("CY", {"n": 2, "hodge": (20,)}, {"b2": 0}),
        ("HK", {"n": 1, "hodge": (20,)}, {"b4_minus": 1}),
        ("SPIN7", {"b2": 4, "b3": 33, "b4_minus": 60}, {"n": 8}),
        ("G2", {"b2": 0, "b3": 1}, {"b4_minus": 7}),
        ("QK", {"n": 2, "b2": 1}, {"hodge": (1,)}),
    ],
)
def test_topological_input_refuses_fields_of_other_families(family, fields, stray):
    assert kernel_dimension(TopologicalInput(family, **fields)) >= 0
    (name,) = stray
    with pytest.raises(InputError, match=f"^{family} input takes no {name}$"):
        TopologicalInput(family, **fields, **stray)


def test_hyperkahler_identities(monkeypatch):
    for n in range(1, 7):
        assert hyperkahler_kernel_identity(n) is True

    kernel, index = holonomy.kernel_dimension, holonomy.family_index
    monkeypatch.setattr(holonomy, "kernel_dimension", lambda d: kernel(d) + d.hodge[0])
    with pytest.raises(
        ConsistencyError,
        match=r"hyperkaehler kernel at \(1, 1\): summands = 3, kernel_dimension = 4$",
    ):
        hyperkahler_kernel_identity(2)
    # right at the base point, wrong in the h21 coefficient
    monkeypatch.setattr(holonomy, "kernel_dimension", lambda d: kernel(d) + d.hodge[-1] - 1)
    with pytest.raises(ConsistencyError, match=r"at \(1, 2\): summands = 5, kernel_dimension = 6$"):
        hyperkahler_kernel_identity(2)
    monkeypatch.setattr(holonomy, "kernel_dimension", kernel)
    monkeypatch.setattr(holonomy, "family_index", lambda d: index(d) + Fraction(d.hodge[0], 2))
    with pytest.raises(
        ConsistencyError,
        match=r"hyperkaehler index at \(1, 1, 1\): summands = 2, family_index = 5/2$",
    ):
        hyperkahler_kernel_identity(3)


def test_hyperkahler_closed_forms_evaluate():
    # in dimension eight the summand count is -3 + 4 h11 + 2 h21 for the
    # kernel and 3 - 4 h11 + 2 h21 for the index
    h11, h21 = 5, 7
    data = TopologicalInput("HK", n=2, hodge=(h11, h21))
    assert kernel_dimension(data) == -3 + 4 * h11 + 2 * h21 == 31
    assert family_index(data) == 3 - 4 * h11 + 2 * h21 == -3


def test_hyperkahler_dim8_betti_corollary():
    # with b2 = h11 + 2 and b3 = 2 h21 the kernel is 4 b2 + b3 - 11
    for b2, b3 in [(7, 14), (23, 0), (5, 36)]:
        data = TopologicalInput("HK", n=2, hodge=(b2 - 2, b3 // 2))
        assert kernel_dimension(data) == 4 * b2 + b3 - 11


def test_spin7_betti_identity(monkeypatch):
    assert spin7_betti_identity() is True
    for b2, b3, b4m in [(0, 0, 0), (4, 33, 60), (1, 2, 3)]:
        data = TopologicalInput("SPIN7", b2=b2, b3=b3, b4_minus=b4m)
        assert kernel_dimension(data) == b2 + b3 + b4m
    # b2 = b3 = b4^- = 0 forces b4^+ = 25, so signature 25 and index 25 - 25
    assert family_index(TopologicalInput("SPIN7", b2=0, b3=0, b4_minus=0)) == 0

    index = holonomy.family_index
    monkeypatch.setattr(holonomy, "family_index", lambda d: index(d) + 2 * d.b4_minus)
    with pytest.raises(
        ConsistencyError,
        match=r"Spin\(7\) index at \(0, 0, 1\): family_index = 1, "
        r"25 - signature = -1, 9 - euler/3 = -1$",
    ):
        spin7_betti_identity()
    monkeypatch.setattr(holonomy, "family_index", lambda d: index(d) + Fraction(d.b2, 3))
    with pytest.raises(ConsistencyError, match=r"at \(1, 0, 0\): family_index = -2/3, "):
        spin7_betti_identity()


def test_symmetric_space_catalog():
    catalog = symmetric_space_catalog()
    by_name = {entry.name: entry for entry in catalog}
    assert set(by_name) == {"Gr2(C4)", "HP2", "G2/SO(4)", "SU(3)", "Q4"}
    assert by_name["Gr2(C4)"].kernel_dimension == 2
    assert by_name["HP2"].kernel_dimension == 1
    assert by_name["G2/SO(4)"].kernel_dimension == 1
    assert by_name["SU(3)"].kernel_dimension == 2
    assert by_name["Q4"].kernel_dimension == 2
    assert by_name["Gr2(C4)"].rs_index == -2
    assert by_name["Q4"].rs_index == -2
    assert all(entry.all_parallel for entry in catalog)


def test_klein_quadric_index_matches_the_quadric_fourfold():
    # Gr2(C4) and Q4 are both the quadric in CP^5; the catalog's index must
    # agree with the characteristic-class route on that complete intersection
    quadric = rs_index(build_ci(CISpec(4, (2,))).profile).total
    assert quadric == -2
    by_name = {entry.name: entry for entry in symmetric_space_catalog()}
    assert by_name["Gr2(C4)"].rs_index == by_name["Q4"].rs_index == quadric


def _product(left, right):
    return product_parallel_rs(*(
        ParallelCounts(m.parallel_spinor_dimension(), m.parallel_rs_dimension(), m.real_dimension)
        for m in (left, right)
    ))


def test_product_parallel_counts():
    left = holonomy_model("sp", 2)
    report = _product(left, left)
    assert report.count == 15
    assert report.proven

    k3_like = holonomy_model("su", 2)
    report = _product(k3_like, k3_like)
    assert report.count == 4

    seven = holonomy_model("g2")
    report = _product(seven, seven)
    assert report.count == 1
    assert not report.proven
    assert "even" in report.note


def test_product_parallel_unknown_dimension():
    report = product_parallel_rs(
        ParallelCounts(spinors=2, rs_fields=0),
        ParallelCounts(spinors=3, rs_fields=1, real_dimension=8),
    )
    assert report.count == 2 * 3 + 0 * 3 + 2 * 1
    assert not report.proven
