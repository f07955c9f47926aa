"""Root systems, Weyl dimensions, Casimirs, multiplicities, tensor products."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from characters import assert_tensor_character, character, decompose, product_character
from rslab import holonomy, lie
from rslab.errors import ConsistencyError, InputError
from rslab.holonomy import sphere_check
from rslab.lie import (
    RepSum,
    RootSystem,
    _Component,
    g2,
    irreducible,
    product_system,
    tensor_decompose,
    tensor_product_sum,
    type_a,
    type_b,
    type_c,
    type_d,
)

F = Fraction


def _w(*coords):
    return tuple(F(c) for c in coords)


def test_b2_half_sum():
    assert type_b(2).delta == _w(F(3, 2), F(1, 2))


def test_g2_dimensions():
    sys = g2()
    assert sys.weyl_dimension(_w(0, -1, 1)) == 7
    assert sys.weyl_dimension(_w(-1, -1, 2)) == 14
    assert sys.weyl_dimension(_w(0, -2, 2)) == 27
    assert sys.weyl_dimension(sys.trivial_weight()) == 1


def test_g2_vector_square():
    sys = g2()
    product = tensor_decompose(sys, _w(0, -1, 1), _w(0, -1, 1))
    dims = sorted(sys.weyl_dimension(w) for w, m in product.sorted_terms() for _ in range(m))
    assert dims == [1, 7, 14, 27]


def test_so7_dimensions_and_products():
    sys = type_b(3)
    vector = _w(1, 0, 0)
    spinor = _w(F(1, 2), F(1, 2), F(1, 2))
    rs = _w(F(3, 2), F(1, 2), F(1, 2))
    assert sys.weyl_dimension(vector) == 7
    assert sys.weyl_dimension(spinor) == 8
    assert sys.weyl_dimension(rs) == 48
    assert sys.weyl_dimension(_w(1, 1, 0)) == 21
    assert sys.weyl_dimension(_w(1, 1, 1)) == 35

    twisted = tensor_decompose(sys, vector, spinor)
    assert dict(twisted.sorted_terms()) == {spinor: 1, rs: 1}

    square = tensor_decompose(sys, spinor, spinor)
    assert dict(square.sorted_terms()) == {
        sys.trivial_weight(): 1,
        vector: 1,
        _w(1, 1, 0): 1,
        _w(1, 1, 1): 1,
    }


def test_casimir_values():
    assert type_b(3).casimir(_w(F(3, 2), F(1, 2), F(1, 2))) == F(49, 4)
    assert type_b(4).casimir(_w(F(3, 2), F(1, 2), F(1, 2), F(1, 2))) == 18
    assert type_d(4).casimir(_w(F(3, 2), F(1, 2), F(1, 2), F(1, 2))) == 15
    assert type_b(1).casimir(_w(F(3, 2))) == F(15, 4)
    assert type_d(2).casimir(_w(F(3, 2), F(1, 2))) == F(11, 2)


@pytest.mark.parametrize(
    "coords",
    [(1, 0, 0), ("1", "0", "0"), (F(1), F(0), F(0)), [1, "0", F(0)]],
    ids=["int", "str", "Fraction", "mixed"],
)
def test_methods_accept_int_str_and_fraction_coordinates(coords):
    sys = type_b(3)
    assert sys.weyl_dimension(coords) == 7
    assert sys.casimir(coords) == 6
    assert sys.weight_multiplicities(coords) == sys.weight_multiplicities(_w(1, 0, 0))


def test_type_a_center_invariance():
    sys = type_a(3)
    adjoint = _w(1, 0, -1)
    assert sys.weyl_dimension(adjoint) == 8
    assert sys.casimir(adjoint) == 6
    # shifting by the central direction changes nothing
    assert sys.casimir(_w(2, 1, 0)) == 6
    assert sys.weyl_dimension(_w(2, 1, 0)) == 8
    assert sys.casimir(_w(1, 0, 0)) == F(8, 3)


def test_weight_multiplicities_a1_adjoint():
    sys = type_a(2)
    lam = _w(1, -1)
    mults = sys.weight_multiplicities(lam)
    assert mults == {(2,): 1, (0,): 1, (-2,): 1}
    coords = {sys.from_labels(nu, lam): m for nu, m in mults.items()}
    assert coords == {_w(1, -1): 1, _w(0, 0): 1, _w(-1, 1): 1}


def test_zero_weight_multiplicities():
    for sys, lam, zero in [
        (type_a(3), _w(1, 0, -1), 2),
        (g2(), _w(-1, -1, 2), 2),
        (type_b(3), _w(1, 1, 0), 3),
    ]:
        labels = (0,) * len(sys.simple_roots)
        assert sys.weight_multiplicities(lam)[labels] == zero
        assert sys.from_labels(labels, lam) == sys.trivial_weight()


def test_multiplicities_sum_to_dimension():
    for sys, lam in [
        (type_b(3), _w(F(3, 2), F(1, 2), F(1, 2))),
        (type_c(2), _w(2, 1)),
        (g2(), _w(0, -2, 2)),
    ]:
        mults = sys.weight_multiplicities(lam)
        assert sum(mults.values()) == sys.weyl_dimension(lam)


def _unit(n, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(n))


def _exterior(weights, k):
    """The weight multiset of the k-th exterior power of a module whose
    basis vectors carry ``weights``: sums over k distinct basis vectors."""
    n = len(weights[0])
    return Counter(tuple(sum(w[i] for w in picked) for i in range(n))
                   for picked in itertools.combinations(weights, k))


def _oracle(kind, m, k):
    """A system, a highest weight and the weight multiset of its irreducible,
    read off exterior powers of the vector module V (weight e_1 + ... + e_k)
    or, for "spin", off the B_m spinor (every +-1/2 vector once)."""
    top = (1,) * k + (0,) * (m - k)
    if kind == "A":  # Lambda^k C^(m+1)
        return type_a(m + 1), top + (0,), _exterior([_unit(m + 1, i) for i in range(m + 1)], k)
    if kind == "spin":
        return type_b(m), (F(1, 2),) * m, Counter(itertools.product((F(1, 2), F(-1, 2)), repeat=m))
    vector = [_unit(m, i, s) for i in range(m) for s in (1, -1)]
    if kind == "B":  # Lambda^k V, k <= m; V has the zero weight too
        return type_b(m), top, _exterior(vector + [(0,) * m], k)
    if kind == "D":  # Lambda^k V, k < m
        return type_d(m), top, _exterior(vector, k)
    # C: Lambda^k V = V(e_1 + ... + e_k) + Lambda^(k-2) V
    weights = _exterior(vector, k)
    weights.subtract(_exterior(vector, k - 2) if k >= 2 else Counter())
    assert min(weights.values()) >= 0
    return type_c(m), top, +weights


ORACLE_CASES = (
    [("A", n, k) for n in range(1, 7) for k in range(1, n + 1)]
    + [("B", m, k) for m in range(1, 6) for k in range(1, m + 1)]
    + [("C", m, k) for m in range(1, 6) for k in range(1, m + 1)]
    + [("D", m, k) for m in range(2, 7) for k in range(1, m)]
    + [("spin", m, 0) for m in range(1, 7)]
    + [("B", 75, 1)]  # the B75 vector: one zero weight, far below the top
)


@pytest.mark.parametrize("kind, m, k", ORACLE_CASES,
                         ids=[f"{kind}{m}-k{k}" for kind, m, k in ORACLE_CASES])
def test_multiplicities_match_vector_exterior_powers_and_spinors(kind, m, k):
    sys, lam, expected = _oracle(kind, m, k)
    table = {sys.from_labels(nu, lam): mult for nu, mult in sys.weight_multiplicities(lam).items()}
    assert table == dict(expected)


def test_sp4_products():
    sys = type_c(2)
    assert sys.weyl_dimension(_w(1, 0)) == 4
    assert sys.weyl_dimension(_w(1, 1)) == 5
    assert sys.weyl_dimension(_w(2, 0)) == 10
    assert sys.weyl_dimension(_w(2, 1)) == 16
    square = tensor_decompose(sys, _w(1, 0), _w(1, 0))
    assert dict(square.sorted_terms()) == {_w(2, 0): 1, _w(1, 1): 1, _w(0, 0): 1}
    mixed = tensor_decompose(sys, _w(1, 1), _w(1, 0))
    assert dict(mixed.sorted_terms()) == {_w(2, 1): 1, _w(1, 0): 1}


def test_product_system_factors():
    sys = product_system(type_c(1), type_c(2))
    assert sys.weyl_dimension(_w(1, 1, 0)) == 8
    assert sys.weyl_dimension(_w(2, 0, 0)) == 3
    assert sys.casimir(_w(1, 0, 0)) == type_c(1).casimir(_w(1))
    product = tensor_decompose(sys, _w(1, 0, 0), _w(0, 1, 0))
    assert dict(product.sorted_terms()) == {_w(1, 1, 0): 1}


def test_product_system_needs_two_factors():
    with pytest.raises(InputError):
        product_system(type_c(2))


def test_dominance_utilities():
    sys = type_b(1)
    # labels <w, 2 e_1>: (-3/2) has label -3, (0) sits on the wall, (-2) has -4
    dom, sign = sys.to_dominant((-3,))
    assert dom == (3,) and sign == -1
    assert sys.from_labels(dom) == _w(F(3, 2))
    assert sys.to_dominant((0,)) == ((0,), 1)  # a zero label: on the wall
    assert sys.to_dominant((-4,)) == ((4,), -1)
    assert sys.from_labels((4,)) == _w(2)


def test_nondominant_weight_rejected():
    with pytest.raises(InputError, match=r"^\(1/2, 3/2\) is not dominant for B2$"):
        type_b(2).weyl_dimension(_w(F(1, 2), F(3, 2)))


def test_nonintegral_weight_rejected():
    with pytest.raises(InputError, match=r"^\(1, 1/2\) is not an integral weight"):
        type_b(2).weyl_dimension(_w(1, F(1, 2)))


def test_g2_weight_off_trace_zero_plane_rejected():
    # Dynkin labels (0, 0), but no weight of G2
    off = _w(F(1, 3), F(1, 3), F(1, 3))
    for w in (_w(1, 1, 1), off):
        with pytest.raises(InputError, match="off the trace-zero plane of G2"):
            g2().weyl_dimension(w)
    with pytest.raises(InputError, match=r"\(1/3, 1/3, 1/3\)"):
        tensor_decompose(g2(), off, _w(0, -1, 1))
    with pytest.raises(InputError):
        product_system(type_a(2), g2()).casimir(_w(1, 0, 1, 1, 1))


def test_repsum_arithmetic():
    sys = type_b(3)
    vector = irreducible(sys, _w(1, 0, 0))
    spinor = irreducible(sys, _w(F(1, 2), F(1, 2), F(1, 2)))
    both = vector.add(spinor)
    assert both.dimension == 15
    back = both.subtract(spinor)
    assert dict(back.sorted_terms()) == dict(vector.sorted_terms())
    with pytest.raises(ConsistencyError):
        vector.subtract(spinor)
    virtual = RepSum(sys, {_w(1, 0, 0): 1, _w(F(1, 2), F(1, 2), F(1, 2)): -1})
    assert virtual.is_virtual() and not both.is_virtual()
    assert virtual.dimension == -1
    with pytest.raises(InputError):
        tensor_product_sum(sys, virtual, vector)
    assert irreducible(sys, sys.trivial_weight()).trivial_multiplicity() == 1
    assert vector.trivial_multiplicity() == 0


@pytest.mark.parametrize(
    "factory, weight, message",
    [
        (partial(type_b, 2), (1, 0, 0), r"^\(1, 0, 0\): B2 weights have 2 coordinates$"),
        (partial(type_b, 2), (F(1, 2), F(3, 2)), r"^\(1/2, 3/2\) is not dominant for B2$"),
        (partial(type_b, 2), (1, F(1, 2)), r"^\(1, 1/2\) is not an integral weight for B2$"),
        (g2, (F(1, 3),) * 3, r"^\(1/3, 1/3, 1/3\) is off the trace-zero plane of G2$"),
    ],
    ids=["wrong-length", "non-dominant", "non-integral", "off-g2-plane"],
)
def test_repsum_refuses_weights_outside_the_system(factory, weight, message):
    # every given weight is checked, a zero multiplicity too
    for multiplicity in (1, 0):
        with pytest.raises(InputError, match=message):
            RepSum(factory(), {weight: multiplicity})


def test_sums_of_different_systems_do_not_combine():
    one, other = type_b(3), type_c(3)  # two root data on the same coordinates
    a, b = irreducible(one, _w(1, 0, 0)), irreducible(other, _w(1, 0, 0))
    for combine in (a.add, a.subtract, partial(tensor_product_sum, one, a)):
        with pytest.raises(InputError, match="different systems"):
            combine(b)


# -- one shared system per root datum -------------------------------------------


def test_equal_factory_calls_share_one_system():
    for factory, args in ((type_a, (4,)), (type_b, (3,)), (type_c, (2,)), (type_d, (4,)), (g2, ())):
        assert factory(*args) is factory(*args)
    assert type_b(3) is not type_c(3)
    pair = product_system(type_c(1), type_c(6))
    assert pair is product_system(type_c(1), type_c(6)) and pair.name == "C1xC6"
    assert product_system(type_c(6), type_c(1)) is not pair


@pytest.mark.parametrize(
    "factory, kept, refused",
    [(type_c, 1, True), (type_a, 3, 3.0), (type_b, 3, "3")],
    ids=["bool", "float", "str"],
)
def test_factories_check_their_argument_ahead_of_the_store(factory, kept, refused):
    factory(kept)
    with pytest.raises(InputError, match="is not an int"):
        factory(refused)


def test_kept_systems_stay_within_the_root_budget():
    first = type_b(1)  # the system of sphere_check(3)
    for n in range(3, 121):
        sphere_check(n)
        assert sum(len(s._positive) for s in lie._kept.values()) <= lie._KEPT_ROOTS
    assert lie._kept[("D", 60)] is type_d(60)  # the last one used, 3,540 roots
    assert type_b(1) is not first  # dropped long ago, built afresh


def test_a_system_beyond_the_root_budget_is_not_kept():
    small = type_b(3)
    big = type_d(70)
    assert len(big._positive) == 4830 > lie._KEPT_ROOTS
    assert type_d(70) is not big and ("D", 70) not in lie._kept
    assert list(lie._kept) == [("B", 3)] and type_b(3) is small


def test_results_do_not_depend_on_the_order_of_requests():
    """Shared systems carry their memos from one request to the next; the
    answers are those of a fresh system, in either order."""

    def model(kind, parameter=None):
        built = holonomy.holonomy_model(kind, parameter)
        sigma = built.sigma_three_half()
        graded = [] if sigma.plus is None else [sigma.plus.sorted_terms(), sigma.minus.sorted_terms()]
        return sigma.total.sorted_terms(), graded, built.parallel_rs_dimension()

    def tensor(factory, lam, mu):
        return tensor_decompose(factory(), lam, mu).sorted_terms()

    half = F(1, 2)
    jobs = [partial(model, kind, parameter) for kind, parameter in
            [("su", 3), ("u", 3), ("sp", 3), ("sp1sp", 3), ("so", 7), ("g2", None), ("spin7", None)]]
    jobs += [partial(tensor, partial(type_a, 3), _w(1, 0, 0), _w(1, 1, 0)),
             partial(tensor, partial(type_b, 3), _w(1, 0, 0), _w(half, half, half)),
             partial(tensor, partial(type_c, 3), _w(1, 1, 0), _w(1, 0, 0)),
             partial(tensor, g2, _w(0, -1, 1), _w(-1, -1, 2))]
    jobs += [partial(sphere_check, n) for n in (6, 7, 8)]
    runs = []
    for order in (jobs, jobs[::-1]):
        lie._kept.clear()
        runs.append([job() for job in order])
    assert runs[0] == runs[1][::-1]


@pytest.mark.parametrize(
    "kind, parameter",
    [("su", n) for n in (2, 3, 5)] + [("u", n) for n in (2, 3, 5)]
    + [("sp", n) for n in (1, 2, 3)] + [("sp1sp", m) for m in (2, 3)]
    + [("so", n) for n in (3, 4, 7, 8)] + [("g2", None), ("spin7", None)],
)
def test_repsum_terms_round_trip_for_holonomy_sums(monkeypatch, kind, parameter):
    """The coordinate view gives back the tangent and spinor terms of every
    holonomy model exactly, U(n)'s half-integral block sums included."""
    built, model = [], holonomy.HolonomyModel
    monkeypatch.setattr(holonomy, "HolonomyModel", lambda **kw: built.append(kw) or model(**kw))
    holonomy._KINDS[kind][0](*([] if parameter is None else [parameter]))
    (inputs,) = built
    spinor = inputs["spinor"]
    for terms in [inputs["tangent"], *(spinor if isinstance(spinor, tuple) else [spinor])]:
        rep = RepSum(inputs["system"], terms)
        assert rep.terms == terms and rep.sorted_terms() == sorted(terms.items())


def test_scalar_factor_rejected():
    with pytest.raises(InputError):
        type_a(1)
    with pytest.raises(InputError):
        type_d(1)


def test_klimyk_failure_names_its_inputs(monkeypatch):
    sys = type_b(3)
    vector, spinor = _w(1, 0, 0), _w(F(1, 2), F(1, 2), F(1, 2))
    # B3 labels <w, e1 - e2>, <w, e2 - e3>, <w, 2 e3>: the vector's top is (1, 0, 0)
    assert sys.weight_multiplicities(vector)[1, 0, 0] == 1
    # corrupt the cached multiplicity table of the smaller factor
    table = sys._weights_cache[1, 0, 0]
    monkeypatch.setitem(table, (1, 0, 0), -3)
    with pytest.raises(ConsistencyError) as failure:
        tensor_decompose(sys, vector, spinor)
    assert str(failure.value) == (
        "B3: V(1/2, 1/2, 1/2) (x) V(1, 0, 0): Klimyk produced a negative "
        "multiplicity -3 at (3/2, 1/2, 1/2)"
    )


# A3 weights with half-integral block sums, both of labels (1, 0, 0): on the
# tie Klimyk enumerates the second factor, whose table any weight of those
# labels builds
HALF_LEFT = _w(F(3, 2), F(1, 2), F(1, 2), F(1, 2))
HALF_RIGHT = _w(F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2))


@pytest.mark.parametrize(
    "doctored, message",
    [
        (-3, "A3: V(3/2, 1/2, 1/2, 1/2) (x) V(1/2, -1/2, -1/2, -1/2): Klimyk produced a "
             "negative multiplicity -3 at (2, 0, 0, 0)"),
        (2, "Klimyk tensor dimension: system = A3, left = (3/2, 1/2, 1/2, 1/2), "
            "right = (1/2, -1/2, -1/2, -1/2), dimension = 26, expected = 16"),
    ],
)
def test_klimyk_failures_name_both_factors_from_a_cached_table(monkeypatch, doctored, message):
    """Klimyk reads the cached table by labels and builds the factors'
    coordinates only to report a failure, with their block sums."""
    sys = type_a(4)
    sys.weight_multiplicities(_w(1, 0, 0, 0))  # the table of labels (1, 0, 0)
    monkeypatch.setitem(sys._weights_cache[1, 0, 0], (1, 0, 0), doctored)
    with pytest.raises(ConsistencyError) as failure:
        tensor_decompose(sys, HALF_LEFT, HALF_RIGHT)
    assert str(failure.value) == message
    assert sys._products == {}


@pytest.mark.parametrize(
    "factory, lam, mu, cache",
    [
        (partial(type_b, 3), _w(F(1, 2), F(1, 2), F(1, 2)), _w(1, 0, 0), _w(1, 0, 0)),
        (partial(type_a, 4), HALF_LEFT, HALF_RIGHT, _w(2, 1, 1, 1)),
        (lambda: product_system(type_a(2), g2()), _w(1, 0, -1, -1, 2),
         _w(F(1, 2), F(1, 2), 0, -1, 1), _w(0, 0, 0, -1, 1)),
    ],
)
def test_klimyk_on_a_cached_table_matches_a_fresh_system(monkeypatch, factory, lam, mu, cache):
    """A product whose smaller factor's table is cached, here built from a
    weight of the same labels but other block sums, never calls the public
    weight-system lookup and equals the product on a freshly built system."""
    sys = factory()
    labels = sys._key(mu)[0]
    sys.weight_multiplicities(cache)
    assert list(sys._weights_cache) == [labels]
    monkeypatch.setattr(sys, "weight_multiplicities", lambda w: pytest.fail(f"rebuilt {w}"))
    cached = tensor_decompose(sys, lam, mu)
    lie._kept.clear()
    fresh = factory()
    assert fresh is not sys and fresh._weights_cache == {}
    built = tensor_decompose(fresh, lam, mu)
    assert list(fresh._weights_cache) == [labels]
    assert cached.terms == built.terms and cached.sorted_terms() == built.sorted_terms()
    assert repr(cached) == repr(built)



def test_cached_products_and_weights_are_independent_copies():
    sys = type_b(3)
    vector, spinor = _w(1, 0, 0), _w(F(1, 2), F(1, 2), F(1, 2))
    expected = {spinor: 1, _w(F(3, 2), F(1, 2), F(1, 2)): 1}
    first = tensor_decompose(sys, vector, spinor)
    view = first.terms
    view[vector] = 99
    del view[spinor]
    assert first.terms == expected  # each read of ``terms`` is a fresh view
    for again in (tensor_decompose(sys, vector, spinor), tensor_decompose(sys, spinor, vector)):
        assert again.terms == expected and again == RepSum(sys, expected)
    # one Klimyk pass, stored once under both orders of the label pair; B3
    # labels of the spinor (0, 0, 1), the vector (1, 0, 0), rs (1, 0, 1)
    top, bottom = (0, 0, 1), (0, 0, -1)
    assert list(sys._products) == [(top, (1, 0, 0)), ((1, 0, 0), top)]
    assert sys._products[top, (1, 0, 0)] is sys._products[(1, 0, 0), top]
    # the edited view never reached the memo, which holds labels only
    assert sys._products[top, (1, 0, 0)] == {(1, 0, 1): 1, top: 1}
    weights = sys.weight_multiplicities(spinor)
    weights[top] = 5
    weights.pop(bottom)
    fresh = sys.weight_multiplicities(spinor)
    assert fresh[top] == 1 and len(fresh) == 8 and sum(fresh.values()) == 8


def test_product_memo_hits_skip_the_input_checks(monkeypatch):
    """Public calls check their weights once, at the boundary; products of
    sums run on checked keys and run no check, memo hit or miss alike."""
    sys = type_c(3)
    lam, mu = _w(1, 1, 0), _w(1, 0, 0)
    first = tensor_decompose(sys, lam, mu)
    left, right = irreducible(sys, lam), irreducible(sys, mu)
    checks = []
    require = sys._require_dominant
    monkeypatch.setattr(sys, "_require_dominant", lambda w: checks.append(w) or require(w))
    for a, b in ((left, right), (right, left)):
        assert tensor_product_sum(sys, a, b) == first
    assert checks == []
    # a fresh pair whose smaller factor's table is cached runs no check either;
    # one whose table is missing builds it through the public call, which checks it
    square = tensor_product_sum(sys, right, right)
    assert square.dimension == 36 and checks == []
    assert tensor_product_sum(sys, left, left).dimension == 196 and checks == [lam]
    checks.clear()
    for args in ((lam, mu), (mu, lam), ((1, 1, 0), (1, 0, 0)), ((1, 0, 0), (1, 1, 0))):
        assert tensor_decompose(sys, *args) == first
    assert checks == [w for args in ((lam, mu), (mu, lam)) * 2 for w in args]


# -- the integer label core against Euclidean formulas ------------------------

DIFFERENTIAL_SYSTEMS = {
    **{f"A{n - 1}": partial(type_a, n) for n in range(2, 7)},
    **{f"B{m}": partial(type_b, m) for m in range(1, 5)},
    **{f"C{m}": partial(type_c, m) for m in range(1, 5)},
    **{f"D{m}": partial(type_d, m) for m in range(2, 6)},
    "G2": g2,
    "C1xC6": lambda: product_system(type_c(1), type_c(6)),
    "A1xB2": lambda: product_system(type_a(2), type_b(2)),
}


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a and b), F(0))


def _dominant_weights(system, largest):
    """Every dominant weight with Dynkin label sum <= largest, in coordinates."""
    omega = system.fundamental_weights
    for labels in itertools.product(range(largest + 1), repeat=len(omega)):
        if sum(labels) <= largest:
            yield tuple(
                sum((a * w[i] for a, w in zip(labels, omega)), F(0))
                for i in range(system.coords)
            )


def _weyl_product(system, lam):
    """Weyl's formula prod <lam + delta, a> / <delta, a> over Fraction."""
    shifted = tuple(x + d for x, d in zip(lam, system.delta))
    value = F(1)
    for alpha in system.positive_roots:
        value *= _dot(shifted, alpha) / _dot(system.delta, alpha)
    return value


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SYSTEMS))
def test_integer_core_matches_euclidean_formulas(name):
    sys = DIFFERENTIAL_SYSTEMS[name]()
    assert sys.name == name
    for lam in _dominant_weights(sys, 2):
        dim = sys.weyl_dimension(lam)
        assert dim == _weyl_product(sys, lam), lam
        assert sum(sys.weight_multiplicities(lam).values()) == dim, lam
    for lam, mu in itertools.combinations(_dominant_weights(sys, 1), 2):
        assert tensor_decompose(sys, lam, mu) == tensor_decompose(sys, mu, lam)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SYSTEMS))
def test_klimyk_matches_exact_character(name):
    """char(V (x) W) is the Minkowski sum of the weight multisets of V and W;
    every pair of label sum <= 1 with dim V * dim W <= 2000."""
    sys = DIFFERENTIAL_SYSTEMS[name]()
    for lam, mu in itertools.combinations(_dominant_weights(sys, 1), 2):
        if sys.weyl_dimension(lam) * sys.weyl_dimension(mu) <= 2000:
            product = tensor_decompose(sys, lam, mu)
            assert_tensor_character(product, irreducible(sys, lam), irreducible(sys, mu))


# -- integer construction against the Fraction formulas ----------------------

CONSTRUCTION_SYSTEMS = {
    **{f"A{n - 1}": partial(type_a, n) for n in range(2, 13)},
    **{f"B{m}": partial(type_b, m) for m in range(1, 19)},
    **{f"C{m}": partial(type_c, m) for m in range(1, 13)},
    **{f"D{m}": partial(type_d, m) for m in range(2, 19)},
    "G2": g2,
    "C1xC6": DIFFERENTIAL_SYSTEMS["C1xC6"],
    "A1xB2": DIFFERENTIAL_SYSTEMS["A1xB2"],
}


def _sparse_ints(values):
    return tuple((i, int(x)) for i, x in enumerate(values) if x)


def _over_lcm(vectors):
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    return den, [_sparse_ints(x * den for x in v) for v in vectors]


def _as_int(x):
    return int(x) if x.denominator == 1 else x


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_SYSTEMS))
def test_integer_construction_matches_fraction_formulas(name):
    sys = CONSTRUCTION_SYSTEMS[name]()
    assert sys.name == name
    simple, positive = sys.simple_roots, sys.positive_roots
    fundamentals = sys.fundamental_weights
    for vector in simple + positive + fundamentals + (sys.delta,):
        assert len(vector) == sys.coords
        assert all(type(x) is F for x in vector)
    # half the sum of the positive roots, never read back from sys.delta
    delta = tuple(sum((a[i] for a in positive), F(0)) / 2 for i in range(sys.coords))
    assert sys.delta == delta
    coroots = [tuple(2 * x / _dot(a, a) for x in a) for a in simple]
    cartan = [
        _sparse_ints(_dot(a, c) for c in coroots) for a in simple
    ]
    assert [tuple(row) for row in sys._cartan] == cartan
    assert (sys._coden, [tuple(r) for r in sys._coroots]) == _over_lcm(coroots)
    den, omega = sys._omega
    assert (den, [tuple(r) for r in omega]) == _over_lcm(fundamentals)
    roots = []
    for alpha in positive:
        norm = _dot(alpha, alpha)  # |alpha|^2, an int: every realization has integer roots
        labels = tuple(_as_int(_dot(alpha, c)) for c in coroots)
        coroot = _sparse_ints(2 * _dot(alpha, w) / norm for w in fundamentals)
        roots.append((labels, coroot, norm))
    assert [(tuple(l), tuple(c), n) for l, c, n in sys._roots] == roots
    assert all(type(n) is int for _, _, n in sys._roots)


# -- root sets against the textbook tables ------------------------------------


def _e(n, *terms):
    """The weight sum of c * e_i over the (i, c) terms, n coordinates; int
    entries hash and compare like the equal Fractions."""
    w = [0] * n
    for i, c in terms:
        w[i] += c
    return tuple(w)


def _first(n, k, c=1):
    """c * (e_1 + ... + e_k)."""
    return _e(n, *((i, c) for i in range(k)))


def _textbook(kind, r):
    """Positive roots and fundamental weights of rank r, as listed in
    Bourbaki's tables (type A in GL coordinates: omega_k = e_1 + ... + e_k)."""
    n = r + 1 if kind == "A" else r
    pairs = {_e(n, (i, 1), (j, s)) for i in range(n) for j in range(i + 1, n) for s in (-1, 1)}
    steps = [_first(n, k) for k in range(1, r + 1)]
    if kind == "A":
        return {_e(n, (i, 1), (j, -1)) for i in range(n) for j in range(i + 1, n)}, set(steps)
    if kind == "B":
        short = {_e(n, (i, 1)) for i in range(n)}
        return pairs | short, set(steps[:-1]) | {_first(n, n, F(1, 2))}
    if kind == "C":
        return pairs | {_e(n, (i, 2)) for i in range(n)}, set(steps)
    spins = {_first(n, n, F(1, 2)), _e(n, *((i, F(1, 2)) for i in range(n - 1)), (n - 1, F(-1, 2)))}
    return pairs, set(steps[:-2]) | spins


TEXTBOOK_SYSTEMS = {
    f"{kind}{r}": (kind, r) for kind in "ABCD" for r in (*range(1, 9), 100) if (kind, r) != ("D", 1)
}
FACTORIES = {"A": lambda r: type_a(r + 1), "B": type_b, "C": type_c, "D": type_d}


@pytest.mark.parametrize("name", sorted(TEXTBOOK_SYSTEMS))
def test_roots_and_fundamental_weights_match_textbook(name):
    kind, r = TEXTBOOK_SYSTEMS[name]
    sys = FACTORIES[kind](r)
    positive, omega = _textbook(kind, r)
    assert sys.name == name
    assert len(sys.positive_roots) == len(positive)
    assert set(sys.positive_roots) == positive
    assert all(type(x) is F for w in sys.positive_roots[:2] + sys.fundamental_weights for x in w)
    assert len(sys.fundamental_weights) == r and set(sys.fundamental_weights) == omega


def test_g2_roots_and_fundamental_weights_match_textbook():
    # Bourbaki: a1 = e1 - e2, a2 = -2e1 + e2 + e3, omega_1 = 2a1 + a2, omega_2 = 3a1 + 2a2
    sys = g2()
    assert set(sys.positive_roots) == {
        _w(1, -1, 0), _w(-2, 1, 1), _w(-1, 0, 1), _w(0, -1, 1), _w(1, -2, 1), _w(-1, -1, 2)
    }
    assert sys.simple_roots == (_w(1, -1, 0), _w(-2, 1, 1))
    assert sys.fundamental_weights == (_w(0, -1, 1), _w(-1, -1, 2))


@pytest.mark.parametrize("n", [199, 200])
def test_sphere_casimir_at_large_rank(n):
    assert sphere_check(n).casimir_value == F(n * (n + 7), 8)


# -- construction checks reject bad root data ---------------------------------


@pytest.mark.parametrize(
    "simple, positive, omega, message",
    [
        (
            [((0, 1), (1, 1), (2, 1)), ((0, -1),)],
            [((0, 1), (1, 1), (2, 1)), ((0, -1),)],
            (1, [((0, 1),), ((1, 1),)]),
            "X: Cartan entry of (-1, 0, 0) on (1, 1, 1) is -2/3; "
            "need an integer, <= 0 off the diagonal",
        ),
        (
            [((0, 1), (1, -1)), ((1, -1),)],
            [((0, 1), (1, -1)), ((1, -1),)],
            (1, [((0, 1),), ((1, 1),)]),
            "X: Cartan entry of (0, -1, 0) on (1, -1, 0) is 1; "
            "need an integer, <= 0 off the diagonal",
        ),
        (
            # B2 with the spin weight (1/2, 1/2) replaced by (1, 1)
            [((0, 1), (1, -1)), ((1, 1),)],
            [((0, 1),), ((1, 1),), ((0, 1), (1, -1)), ((0, 1), (1, 1))],
            (1, [((0, 1),), ((0, 1), (1, 1))]),
            "X: <delta, a> = 3/2 but <sum of fundamental weights, a> = 2, "
            "a = (1, 0, 0)",
        ),
        (
            # B2 with the vector weight (1, 0) halved: rows over 2
            [((0, 1), (1, -1)), ((1, 1),)],
            [((0, 1),), ((1, 1),), ((0, 1), (1, -1)), ((0, 1), (1, 1))],
            (2, [((0, 1),), ((0, 1), (1, 1))]),
            "X: <delta, a> = 3/2 but <sum of fundamental weights, a> = 1, "
            "a = (1, 0, 0)",
        ),
        (
            [((0, 1), (1, -1)), ()],
            [((0, 1), (1, -1))],
            (1, [((0, 1),), ((1, 1),)]),
            "X: simple root (0, 0, 0) has norm 0",
        ),
    ],
    ids=["nonintegral-cartan", "positive-off-diagonal", "wrong-fundamental",
         "wrong-fundamental-over-2", "zero-norm"],
)
def test_bad_root_data_rejected(simple, positive, omega, message):
    with pytest.raises(ConsistencyError) as failure:
        RootSystem([_Component("B", 3)], simple, positive, omega, "X")
    assert str(failure.value) == message


# -- property tests (hypothesis; skipped where it is not installed) ------------

PROPERTY_SYSTEMS = {
    **{f"A{n - 1}": partial(type_a, n) for n in range(3, 6)},
    **{f"B{m}": partial(type_b, m) for m in (2, 3)},
    **{f"C{m}": partial(type_c, m) for m in (2, 3)},
    **{f"D{m}": partial(type_d, m) for m in (3, 4)},
    "G2": g2,
    "C1xC2": lambda: product_system(type_c(1), type_c(2)),
}
_SETTINGS = {"max_examples": 8, "deadline": None, "derandomize": True, "database": None}


def _strategies(name, systems=PROPERTY_SYSTEMS):
    """hypothesis and ``weights(count)``, which draws ``count`` dominant
    weights of label sum <= 2 of the named system.

    Each property test calls this, so ``importorskip`` skips only the
    property tests, never the seeded loops above, when hypothesis is absent.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    choices = st.sampled_from(tuple(_dominant_weights(systems[name](), 2)))
    return hypothesis, lambda count: st.lists(choices, min_size=count, max_size=count)


@pytest.mark.parametrize("name", sorted(PROPERTY_SYSTEMS))
def test_property_freudenthal_multiplicities_sum_to_weyl_dimension(name):
    hypothesis, weights = _strategies(name)

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(weights(1))
    def prop(drawn):
        (lam,) = drawn
        sys = PROPERTY_SYSTEMS[name]()
        assert sum(sys.weight_multiplicities(lam).values()) == sys.weyl_dimension(lam)

    prop()


@pytest.mark.parametrize("name", sorted(PROPERTY_SYSTEMS))
def test_property_klimyk_is_commutative(name):
    hypothesis, weights = _strategies(name)

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(weights(2))
    def prop(drawn):
        # products are memoized under both argument orders: one fresh system each
        lam, mu = drawn
        one, other = PROPERTY_SYSTEMS[name](), PROPERTY_SYSTEMS[name]()
        assert tensor_decompose(one, lam, mu).terms == tensor_decompose(other, mu, lam).terms

    prop()


@pytest.mark.parametrize("name", sorted(PROPERTY_SYSTEMS))
def test_property_klimyk_is_associative(name):
    hypothesis, weights = _strategies(name)

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(weights(3))
    def prop(drawn):
        a, b, c = drawn
        sys = PROPERTY_SYSTEMS[name]()
        left = tensor_product_sum(sys, tensor_decompose(sys, a, b), irreducible(sys, c))
        right = tensor_product_sum(sys, irreducible(sys, a), tensor_decompose(sys, b, c))
        assert left == right
        dims = [sys.weyl_dimension(w) for w in (a, b, c)]
        assert left.dimension == dims[0] * dims[1] * dims[2]

    prop()


@pytest.mark.parametrize("name", sorted(PROPERTY_SYSTEMS))
def test_property_to_dominant_on_labels(name):
    """Dominant labels are nonnegative and fixed; a simple reflection first
    changes nothing but the sign, which it flips off the walls."""
    hypothesis, _ = _strategies(name)
    st = hypothesis.strategies
    sys = PROPERTY_SYSTEMS[name]()
    rank = len(sys.simple_roots)

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank),
                      st.integers(0, rank - 1))
    def prop(labels, i):
        dom, sign = sys.to_dominant(labels)
        assert min(dom) >= 0 and sign in (1, -1)
        assert sys.to_dominant(dom) == (dom, 1)
        mirrored = sys._mirror(tuple(labels), i)
        again, other = sys.to_dominant(mirrored)
        assert again == dom
        if 0 not in dom:  # on a wall a reflection fixes the weight: no sign is defined
            assert other == -sign

    prop()


# systems whose first block is of type A: no root sees its constant tuple
CENTRAL_SYSTEMS = {
    "A2": partial(type_a, 3),
    "A3": partial(type_a, 4),
    "A1xC2": lambda: product_system(type_a(2), type_c(2)),
}


@pytest.mark.parametrize("name", sorted(CENTRAL_SYSTEMS))
def test_property_klimyk_moves_with_central_shifts(name):
    """Labels drop the constant tuple on an A block; Klimyk puts it back:
    shifting lam by c and mu by c' on the A block shifts every term by c + c'."""
    hypothesis, weights = _strategies(name, CENTRAL_SYSTEMS)
    factory = CENTRAL_SYSTEMS[name]
    block = factory().components[0].coords
    shifts = hypothesis.strategies.sampled_from((F(-1, 2), F(1, 2), F(1, 3), -1, 2))

    def moved(w, c):
        return tuple(x + c if i < block else x for i, x in enumerate(w))

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(weights(2), shifts, shifts)
    def prop(drawn, c, d):
        lam, mu = drawn
        sys = factory()  # one system: the label-keyed tables are shared by both products
        plain = tensor_decompose(sys, lam, mu)
        shifted = tensor_decompose(sys, moved(lam, c), moved(mu, d))
        assert shifted.terms == {moved(w, c + d): m for w, m in plain.terms.items()}
        assert shifted.dimension == plain.dimension

    prop()


@pytest.mark.parametrize("name", sorted(CENTRAL_SYSTEMS))
def test_property_product_memo_hit_adds_block_sums(name):
    """The product memo holds labels only: a label pair with block sums c and
    c' hits the entry stored without them, and its terms come back with block
    sums c + c', kept as ints where integral."""
    hypothesis, weights = _strategies(name, CENTRAL_SYSTEMS)
    factory = CENTRAL_SYSTEMS[name]
    block = factory().components[0].coords
    shifts = hypothesis.strategies.sampled_from((F(-1, 2), F(1, 2), F(1, 3), -1, 2))

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(weights(2), shifts, shifts)
    def prop(drawn, c, d):
        lam, mu = drawn
        sys = factory()
        tensor_decompose(sys, lam, mu)
        memo = dict(sys._products)
        moved = [tuple(x + s if i < block else x for i, x in enumerate(w))
                 for w, s in ((lam, c), (mu, d))]
        shifted = tensor_product_sum(sys, *(irreducible(sys, w) for w in moved))
        assert sys._products == memo
        want = sum(lam[:block]) + sum(mu[:block]) + (c + d) * block
        assert {sums for _, sums in shifted._keys} == {(want,)}
        assert all(sum(w[:block]) == want for w in shifted.terms)
        (stored,) = {sums[0] for _, sums in shifted._keys}
        assert (type(stored) is int) == (F(want).denominator == 1)

    prop()


# RepSum views against the rule they replace: sort the Fraction tuples
SORT_SYSTEMS = {
    "A1": partial(type_a, 2),
    "A2": partial(type_a, 3),
    "A3": partial(type_a, 4),
    "B3": partial(type_b, 3),
    "C3": partial(type_c, 3),
    "D4": partial(type_d, 4),
    "G2": g2,
    "A2xG2": lambda: product_system(type_a(3), g2()),
}
BLOCK_SUMS = (0, 1, -2, F(1, 2), F(-3, 2), F(1, 3), F(5, 4))


def _fraction_view(rep):
    """The coordinate view as ``sorted_terms`` once built it: a sort of the
    Fraction tuples."""
    point = rep.system.from_labels
    return sorted((point(w, sums=s), m) for (w, s), m in rep._keys.items())


@pytest.mark.parametrize("name", sorted(SORT_SYSTEMS))
def test_property_sorted_terms_match_the_fraction_sort(name):
    """Sums of random label keys, A block sums integral or not and mixed in
    one sum, plus the U(n) spinor terms on an A system: ``sorted_terms``,
    ``terms`` and ``repr`` read as the Fraction sort gives them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    sys = SORT_SYSTEMS[name]()
    rank, blocks = len(sys._cartan), len(sys._central)
    spinors = {}
    if name.startswith("A") and "x" not in name:  # U(n) spinors: block sums p - n/2
        spinors = holonomy.holonomy_model("u", sys.coords).spinor._keys
    labels = st.tuples(*[st.integers(0, 3)] * rank)
    sums = st.tuples(*[st.sampled_from(BLOCK_SUMS)] * blocks).map(lie._sums)
    keys = st.dictionaries(st.tuples(labels, sums), st.integers(-2, 3), max_size=12)
    some_spinors = st.lists(st.sampled_from(sorted(spinors)), unique=True) if spinors else st.just([])

    @hypothesis.settings(**{**_SETTINGS, "max_examples": 30})
    @hypothesis.given(keys, some_spinors)
    def prop(drawn, chosen):
        rep = RepSum._of(sys, {**drawn, **{k: spinors[k] for k in chosen}})
        expected = _fraction_view(rep)
        assert rep.sorted_terms() == expected
        assert all(type(x) is Fraction for w, _ in rep.sorted_terms() for x in w)
        assert list(rep.terms.items()) == expected
        shown = ", ".join(f"{lie._fmt(w)}: {m}" for w, m in expected)
        assert repr(rep) == f"RepSum({sys.name}; {shown})"

    prop()


# the RepSum operations against the character oracle of tests/characters.py
ORACLE_SYSTEMS = {
    **{f"A{n - 1}": partial(type_a, n) for n in range(3, 6)},
    "B3": partial(type_b, 3),
    "C1xC2": PROPERTY_SYSTEMS["C1xC2"],
    "G2": g2,
}
CENTRAL_SHIFTS = (0, F(1, 2), F(-1, 2), 1, -2, F(3, 2))


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_property_repsum_operations_match_the_character_oracle(name):
    """add, subtract and tensor_product_sum on label keys give the terms that
    coordinate arithmetic and the peeled product character give; weights of
    label sum <= 1, moved by central shifts on the A blocks."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    factory = ORACLE_SYSTEMS[name]
    central = name.startswith("A")  # one A block over every coordinate

    def moved(w, c):
        return tuple(x + c for x in w) if central else w

    weight = st.builds(moved, st.sampled_from(tuple(_dominant_weights(factory(), 1))),
                       st.sampled_from(CENTRAL_SHIFTS))
    terms = st.dictionaries(weight, st.integers(1, 2), min_size=1, max_size=2)

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(terms, terms)
    def prop(left, right):
        sys = factory()
        a, b = RepSum(sys, left), RepSum(sys, right)
        both = a.add(b)
        assert both.terms == dict(Counter(left) + Counter(right))
        assert both.subtract(b).terms == left and both.subtract(a).terms == right
        with pytest.raises(ConsistencyError, match="negative multiplicities"):
            b.subtract(both)
        product = tensor_product_sum(sys, a, b)
        assert product.terms == decompose(sys, product_character(character(a), character(b)))
        assert product.dimension == a.dimension * b.dimension

    prop()
