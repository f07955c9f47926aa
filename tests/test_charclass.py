"""Genus engine: multiplicative sequences, Newton identities, index functionals."""

import math
import random
import re
from fractions import Fraction

import pytest

from newton import elementary_from_power_sums
from rslab import charclass
from rslab.charclass import (
    GENUS_NAMES,
    ChernProfile,
    chern_to_pontryagin,
    euler_characteristic,
    evaluate_genus,
    RSIndexReport,
    genus_spec,
    pontryagin_numbers,
    product_rs_index,
    rs_index,
    verify_dimension_identities,
)
from rslab.errors import InputError, NotApplicableError
from rslab.exactpoly import TruncatedPoly, series_exp, series_inverse, series_log
from rslab.intersections import CISpec, build_ci, hodge_numbers

# Tangent profile of the quartic surface: c1 = 0 and c2 h^2 pairs to 24.
K3 = build_ci(CISpec(2, (4,))).profile


def test_newton_round_trip_on_known_profiles():
    for spec in [CISpec(2, (4,)), CISpec(3, (5,)), CISpec(4, (2, 3)), CISpec(6, (4,))]:
        profile = build_ci(spec).profile
        sums = profile.power_sums
        assert elementary_from_power_sums(sums, profile.dim) == profile.chern
        assert profile.power_sums is sums  # computed once per profile


def test_newton_round_trip_random():
    rng = random.Random(406)
    for _ in range(25):
        n = rng.randint(1, 7)
        chern = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        sums = ChernProfile(n, chern, Fraction(1)).power_sums
        assert elementary_from_power_sums(sums, n) == chern


def _newton_reference(chern):
    """Power sums from Newton's identities, in plain Fraction arithmetic."""
    e = [Fraction(1)] + [Fraction(c) for c in chern]
    s = []
    for k in range(1, len(chern) + 1):
        acc = (-1) ** (k - 1) * k * e[k]
        for i in range(1, k):
            acc += (-1) ** (i - 1) * e[i] * s[k - 1 - i]
        s.append(acc)
    return tuple(s)


def test_power_sums_match_fraction_newton_reference():
    rng = random.Random(1804)
    for n in range(1, 13):
        integral = tuple(rng.randint(-40, 40) for _ in range(n))
        rational = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n))
        for chern in (integral, rational):
            sums = ChernProfile(n, chern, Fraction(3)).power_sums
            assert sums == _newton_reference(chern)
            assert all(type(v) is Fraction for v in sums)
    for spec in [CISpec(2, (4,)), CISpec(7, (2, 2, 3)), CISpec(16, (18,))]:
        profile = build_ci(spec).profile
        assert profile.power_sums == _newton_reference(profile.chern)


def test_pontryagin_of_quartic_surface():
    # p1 = c1^2 - 2 c2 = -12 h^2, pairing 4
    assert chern_to_pontryagin(K3) == (Fraction(-12),)
    assert pontryagin_numbers(K3) == {"p1": Fraction(-48)}


@pytest.mark.parametrize("n", [2, 5, 8], ids=lambda n: f"CP{n}")
def test_pontryagin_classes_of_projective_space(n):
    # c(CP^n) = (1 + h)**(n+1), so p(CP^n) = (1 + h**2)**(n+1)
    profile = ChernProfile(n, tuple(math.comb(n + 1, k) for k in range(1, n + 1)), 1)
    assert chern_to_pontryagin(profile) == tuple(
        math.comb(n + 1, k) for k in range(1, n // 2 + 1))


def test_pontryagin_numbers_need_even_complex_dimension():
    quintic = build_ci(CISpec(3, (5,))).profile
    with pytest.raises(NotApplicableError, match="^real dimension is not divisible by four$"):
        pontryagin_numbers(quintic)


def test_pontryagin_monomials_dim8():
    profile = build_ci(CISpec(4, (4,))).profile
    numbers = pontryagin_numbers(profile)
    assert set(numbers) == {"p1^2", "p2"}
    # signature = (7 p2 - p1^2) / 45 must reproduce the L-genus value
    sig = (7 * numbers["p2"] - numbers["p1^2"]) / 45
    assert sig == evaluate_genus("L", profile) == 100


def test_partitions_by_rule():
    assert [len(charclass._partitions(m)) for m in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]
    # the bases tabulated before the rule, in the same order
    assert charclass._partitions(1) == [(1,)]
    assert charclass._partitions(2) == [(1, 1), (2,)]
    assert charclass._partitions(3) == [(1, 1, 1), (2, 1), (3,)]
    for m in range(1, 9):
        parts = charclass._partitions(m)
        assert parts == sorted(set(parts))
        assert all(sum(p) == m and list(p) == sorted(p, reverse=True) for p in parts)


@pytest.mark.parametrize(
    "degrees", [(2,), (3,), (10,), (2, 3), (4, 5)], ids=lambda d: f"X8({','.join(map(str, d))})"
)
def test_pontryagin_numbers_dim16_match_hirzebruch(degrees):
    profile = build_ci(CISpec(8, degrees)).profile
    p = pontryagin_numbers(profile)
    assert set(p) == {"p1^4", "p1^2*p2", "p2^2", "p1*p3", "p4"}
    l4 = (
        381 * p["p4"] - 71 * p["p1*p3"] - 19 * p["p2^2"] + 22 * p["p1^2*p2"] - 3 * p["p1^4"]
    ) / 14175
    ahat4 = (
        -192 * p["p4"] + 512 * p["p1*p3"] + 208 * p["p2^2"] - 904 * p["p1^2*p2"]
        + 381 * p["p1^4"]
    ) / 464486400
    assert l4 == evaluate_genus("L", profile)
    assert ahat4 == evaluate_genus("AHAT", profile)
    if degrees == (10,):
        assert ahat4 == 2  # a Calabi-Yau eightfold


def test_classical_genus_values():
    assert evaluate_genus("AHAT", K3) == 2
    assert evaluate_genus("L", K3) == -16
    assert evaluate_genus("TODD", K3) == 2
    assert euler_characteristic(K3) == 24


def test_chi_y_coefficients_of_quartic_surface():
    assert evaluate_genus("CHI_Y", K3) == (2, -20, 2)


def test_chi_y_specializations():
    for spec in [CISpec(2, (4,)), CISpec(2, (6,)), CISpec(3, (5,)), CISpec(4, (2,))]:
        profile = build_ci(spec).profile
        chi_p = evaluate_genus("CHI_Y", profile)
        assert sum((-1) ** p * v for p, v in enumerate(chi_p)) == euler_characteristic(
            profile
        )
        assert chi_p[0] == evaluate_genus("TODD", profile)
        if profile.dim % 2 == 0:
            assert sum(chi_p) == evaluate_genus("L", profile)
    sextic = build_ci(CISpec(4, (6,))).profile
    assert evaluate_genus("CHI_Y", sextic) == (2, -427, 1752, -427, 2)
    assert evaluate_genus("CHI_Y", sextic) is evaluate_genus("CHI_Y", sextic)


def ch_complexified_tangent(profile):
    """Chern character of TM tensored with C as a polynomial in h, read off
    the power sums: 2n + 2 * sum_{k even} s_k/k! * h**k, odd degrees cancel."""
    n = profile.dim
    coeffs = {(0,): 2 * n}
    for k in range(2, n + 1, 2):
        coeffs[(k,)] = Fraction(2, math.factorial(k)) * profile.power_sums[k - 1]
    return TruncatedPoly(("h",), (n,), coeffs)


def test_ch_complexified_tangent_leading_terms():
    ch = ch_complexified_tangent(K3)
    assert ch.coefficient((0,)) == 4
    # degree-2 term is s_2 = c1^2 - 2 c2 = -12
    assert ch.coefficient((2,)) == -12
    assert ch.coefficient((1,)) == 0


def test_rs_index_report_on_quartic_surface():
    report = rs_index(K3)
    assert report.total == -38
    assert report.dirac == 2
    assert report.dirac_tangent == -40
    assert report.total == report.dirac_tangent + report.dirac


def test_rs_index_report_is_not_a_genus_value():
    profile = build_ci(CISpec(2, (4,))).profile  # fresh, nothing memoized yet
    with pytest.raises(InputError, match="unknown genus 'rs_index'"):
        evaluate_genus("rs_index", profile)
    assert rs_index(profile).total == -38
    with pytest.raises(InputError, match="unknown genus 'rs_index'"):
        evaluate_genus("rs_index", profile)


def multiplicative_class(genus, profile):
    """The whole genus class of the tangent bundle as a polynomial in h, from
    the engine's graded components: the full products below are a second
    route to the single coefficients that rs_index reads."""
    cut, comps = charclass._class_components(genus, profile)
    return TruncatedPoly(("h",), cut)._like(comps=comps)


def test_rs_index_matches_full_products():
    for spec in [CISpec(2, (4,)), CISpec(4, (6,)), CISpec(6, (2, 3)), CISpec(8, (10,))]:
        profile = build_ci(spec).profile
        n = profile.dim
        ahat_cls = multiplicative_class("AHAT", profile)
        ch = ch_complexified_tangent(profile)
        one = TruncatedPoly.constant(1, ("h",), (n,))
        report = rs_index(profile)
        top = (n,)
        assert report.total == (ahat_cls * (ch + one)).coefficient(top) * profile.pairing
        assert report.dirac_tangent == (ahat_cls * ch).coefficient(top) * profile.pairing
        assert report.dirac == ahat_cls.coefficient(top) * profile.pairing


def test_genus_spec_validation():
    with pytest.raises(InputError):
        genus_spec("ZETA", 4)
    genus_spec("L", 4)  # a stored spec must not let a bad order through
    with pytest.raises(InputError, match="^order must be positive, got 0$"):
        genus_spec("L", 0)
    with pytest.raises(InputError, match="^order must be positive, got -2$"):
        genus_spec("L", -2)
    with pytest.raises(InputError, match=re.escape("order 2.0 is not an int")):
        genus_spec("L", 2.0)


def test_genus_spec_is_memoized_and_stable(monkeypatch):
    monkeypatch.setattr(charclass, "_SPECS", {})
    for name in GENUS_NAMES:
        first = genus_spec(name, 6)
        assert len(first) == 7  # log Q components of x**0 .. x**6
        assert genus_spec(name, 6) is first
        assert genus_spec(name, 5) is first  # a lower order reads the same spec
    assert set(charclass._SPECS) == set(GENUS_NAMES)


@pytest.mark.parametrize("name", GENUS_NAMES)
def test_genus_spec_is_cut_from_the_highest_order_built(monkeypatch, name):
    built = []
    real = charclass._build_spec

    def counting(genus, order):
        built.append(order)
        return real(genus, order)

    monkeypatch.setattr(charclass, "_build_spec", counting)
    monkeypatch.setattr(charclass, "_SPECS", {})
    for order in (3, 1, 9, 5, 9, 2, 11, 4):
        spec = genus_spec(name, order)
        assert spec is charclass._SPECS[name] and len(spec) == max(built) + 1
        # log Q cut to this order is that of the spec built at it
        assert _spec_view(spec[: order + 1]) == _spec_view(real(name, order))
    assert built == [3, 9, 11]  # each new highest order once, a lower one never


def _one_variable(coefficient, n):
    """sum_j coefficient(j) x**j in Q[x]/(x**(n+1))."""
    return TruncatedPoly(("x",), (n,), {(j,): coefficient(j) for j in range(n + 1)})


def _in_z(coefficient, n):
    """sum_j coefficient(j) z**j in Q[x, y]/(x**(n+1), y**(n+1)), z = x(1 + y)."""
    return TruncatedPoly(("x", "y"), (n, n), {
        (j, i): coefficient(j) * math.comb(j, i) for j in range(n + 1) for i in range(j + 1)})


def _oracle_q(name, n):
    """Q of the named genus to x**n, from its defining quotient: no Todd
    coefficients and no substitution, unlike the engine's specs."""
    if name == "TODD":  # x/(1 - e^-x)
        return series_inverse(_one_variable(lambda j: Fraction((-1) ** j, math.factorial(j + 1)), n))
    if name == "AHAT":  # (x/2)/sinh(x/2)
        return series_inverse(_one_variable(
            lambda j: 0 if j % 2 else Fraction(1, 2**j * math.factorial(j + 1)), n))
    if name == "L":  # x cosh x / sinh x
        cosh = _one_variable(lambda j: 0 if j % 2 else Fraction(1, math.factorial(j)), n)
        return cosh * series_inverse(_one_variable(
            lambda j: 0 if j % 2 else Fraction(1, math.factorial(j + 1)), n))
    # (1 + y e^-z) T(z)/(1 + y), with z = x(1 + y) and T(z) = z/(1 - e^-z)
    todd = series_inverse(_in_z(lambda j: Fraction((-1) ** j, math.factorial(j + 1)), n))
    exp = _in_z(lambda j: Fraction((-1) ** j, math.factorial(j)), n)
    one = TruncatedPoly.constant(1, ("x", "y"), (n, n))
    y = TruncatedPoly(("x", "y"), (n, n), {(0, 1): 1})
    return (one + y * exp) * todd * series_inverse(one + y)


def _spec_view(spec):
    """A spec's log Q by (power of x, first exponent): the first exponent is
    that of x in one variable and of u in u = x, v = xy for CHI_Y."""
    return {(k, i): Fraction(c, den) for k, (den, terms) in enumerate(spec) for i, c in terms}


@pytest.mark.parametrize("name", GENUS_NAMES)
def test_genus_spec_is_log_of_the_defining_quotient(name):
    for order in range(1, (20 if name == "CHI_Y" else 60) + 1):
        log_q = series_log(_oracle_q(name, order))
        # x**i y**j is u**(i-j) v**j, which needs j <= i
        assert all(e[-1] <= e[0] for e in log_q.coeffs)
        expected = {(e[0], e[0] - e[1] if len(e) == 2 else e[0]): c for e, c in log_q.items()}
        spec = charclass._build_spec(name, order)
        assert len(spec) == order + 1 and _spec_view(spec) == expected, order


@pytest.mark.parametrize("real_dim", [4, 8, 12])
def test_dimension_identities(real_dim):
    report = verify_dimension_identities(real_dim)
    assert report.all_matched, [c.label for c in report.checks if not c.matched]


def test_dimension_identity_functionals_frozen():
    # Index as a linear functional on Pontryagin numbers, recomputed from
    # scratch each run; these coefficients are pinned as regression anchors.
    dim8 = verify_dimension_identities(8)
    assert dim8.functionals["index"] == (Fraction(101, 1920), Fraction(-83, 480))
    dim12 = verify_dimension_identities(12)
    assert dim12.functionals["index"] == (
        Fraction(101, 967680),
        Fraction(-361, 241920),
        Fraction(491, 60480),
    )


def test_dimension_identities_rejects_other_dims():
    with pytest.raises(NotApplicableError):
        verify_dimension_identities(6)


def test_product_rs_index_quartic_squared():
    assert product_rs_index(K3, K3) == -156


@pytest.mark.parametrize(
    "left_spec, right_spec",
    [
        (CISpec(2, (4,)), CISpec(3, (2, 2))),
        (CISpec(3, (5,)), CISpec(3, (5,))),
        (CISpec(4, (6,)), CISpec(2, (4,))),
        (CISpec(8, (10,)), CISpec(2, (4,))),
    ],
    ids=["X2(4)-X3(2,2)", "X3(5)-X3(5)", "X4(6)-X2(4)", "X8(10)-X2(4)"],
)
def test_product_rs_index_matches_component_combination(left_spec, right_spec):
    left = build_ci(left_spec).profile
    right = build_ci(right_spec).profile
    li, ri = rs_index(left), rs_index(right)
    combined = li.total * ri.dirac - li.dirac * ri.dirac + li.dirac * ri.total
    assert product_rs_index(left, right) == combined


def test_profile_validation():
    for dim, chern, pairing, message in [
        (0, (), Fraction(1), "complex dimension must be positive, got 0"),
        (-3, (), Fraction(1), "complex dimension must be positive, got -3"),
        (2, (Fraction(1),), Fraction(1), "need exactly dim = 2 Chern coefficients, got 1"),
        (1, (Fraction(1, 2), 3), Fraction(1), "need exactly dim = 1 Chern coefficients, got 2"),
        (2, (Fraction(0), Fraction(6)), Fraction(0), "pairing must be nonzero, got 0"),
    ]:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ChernProfile(dim, chern, pairing)


@pytest.mark.parametrize(
    "dim, chern, pairing, named",
    [
        (2, (0.1, 1), 1, "0.1"),
        (2, (True, 1), 1, "True"),
        (2, (0, "6"), 1, "'6'"),
        (2, (0, 6), 4.0, "4.0"),
        (2, (0, 6), True, "True"),
        (2.0, (0, 6), 1, "2.0"),
        (True, (0,), 1, "True"),
    ],
)
def test_profile_refuses_inexact_and_bool_data(dim, chern, pairing, named):
    with pytest.raises(InputError, match=re.escape(named)) as info:
        ChernProfile(dim, chern, pairing)
    assert "exactly" not in str(info.value)


# -- property tests (hypothesis; skipped where it is not installed) ------------

_SETTINGS = {"max_examples": 12, "deadline": None, "derandomize": True, "database": None}


def _non_integral_profiles(st, max_dim):
    """Profiles of complex dimension 1 .. max_dim with a non-integral Chern
    coefficient, so D > 1, and any nonzero pairing."""
    fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    return st.integers(1, max_dim).flatmap(lambda n: st.builds(
        ChernProfile,
        st.just(n),
        st.lists(fractions, min_size=n, max_size=n).filter(
            lambda chern: any(c.denominator > 1 for c in chern)).map(tuple),
        fractions.filter(bool)))


def test_property_values_do_not_depend_on_the_spec_order(monkeypatch):
    """Genus values, the index split and the Hodge table are the same whether
    each genus spec is built at the profile's order or read off one of
    order 12, on complete intersections and on random integral profiles."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    high = {name: charclass._build_spec(name, 12) for name in GENUS_NAMES}
    degrees = st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)
    profiles = st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        st.integers(-5, 5).filter(bool)))

    def values(drawn):
        """Everything read off genus specs, on a fresh profile (nothing kept)."""
        if isinstance(drawn, CISpec):
            manifold = build_ci(drawn)
            profile, hodge = manifold.profile, hodge_numbers(manifold)
        else:
            profile, hodge = ChernProfile(*drawn), None
        genera = tuple(evaluate_genus(name, profile) for name in GENUS_NAMES)
        return genera, rs_index(profile), hodge

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(st.builds(CISpec, st.integers(1, 8), degrees) | profiles)
    def prop(drawn):
        monkeypatch.setattr(charclass, "_SPECS", {})
        own_order = values(drawn)
        monkeypatch.setattr(charclass, "_SPECS", dict(high))
        assert values(drawn) == own_order

    prop()


def _total_degree_route(profile):
    """The genus values and the index report by a route graded differently
    from the engine's: log Q of each defining quotient in (x, y), cut at
    x**n and y**n, each x**i y**j term times the power sum s_i, then
    series_exp and the top coefficients; the index by full products with
    ch_complexified_tangent."""
    n, pairing, sums = profile.dim, profile.pairing, profile.power_sums
    classes = {}
    for name in GENUS_NAMES:
        log_q = series_log(_oracle_q(name, n))
        cut = (n,) * len(log_q.variables)
        scaled = {e: c * sums[e[0] - 1] for e, c in log_q.items() if max(e) <= n}
        classes[name] = series_exp(TruncatedPoly(("h", "y")[: len(cut)], cut, scaled))
    values = {name: classes[name].coefficient((n,)) * pairing for name in ("AHAT", "L", "TODD")}
    values["CHI_Y"] = tuple(classes["CHI_Y"].coefficient((n, j)) * pairing for j in range(n + 1))
    ahat, ch = classes["AHAT"], ch_complexified_tangent(profile)
    one = TruncatedPoly.constant(1, ("h",), (n,))
    index = RSIndexReport(
        total=(ahat * (ch + one)).coefficient((n,)) * pairing,
        dirac_tangent=(ahat * ch).coefficient((n,)) * pairing,
        dirac=values["AHAT"],
    )
    return values, index


def test_property_non_integral_chern_data_match_the_total_degree_route():
    """The engine scales the x**d part of log Q by S_d / D**d; complete
    intersections all have D = 1, so random profiles with non-integral Chern
    coefficients check that scaling against the total-degree route."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(_non_integral_profiles(hypothesis.strategies, 7))
    def prop(profile):
        assert profile._power_sum_numerators[0] > 1
        values, index = _total_degree_route(profile)
        for name in GENUS_NAMES:
            assert evaluate_genus(name, profile) == values[name], name
        assert rs_index(profile) == index

    prop()


def test_property_pontryagin_classes_match_the_squared_power_sums():
    """p_k read off c(T) c(conj T) is e_k of the squared Chern roots, whose
    power sums are s_2, s_4, ..., on random non-integral profiles."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(_non_integral_profiles(hypothesis.strategies, 14))
    def prop(profile):
        squared_sums = profile.power_sums[1::2]  # s_2, s_4, ..., n // 2 of them
        assert chern_to_pontryagin(profile) == elementary_from_power_sums(
            squared_sums, len(squared_sums))

    prop()


def _product_ring_route(left, right):
    """The product index by full products in Q[hL, hR]/(hL**(m+1), hR**(n+1)):
    exp of log Ahat, whose pure terms are s_k(M) hL**k + s_k(N) hR**k, times
    1 + ch(TM x C) lifted from each factor, then the hL**m hR**n coefficient.
    log Ahat comes from the defining quotient, not from a genus spec."""
    cut = (left.dim, right.dim)
    log_ahat = {}
    for (k,), c in series_log(_oracle_q("AHAT", max(cut))).items():
        if k <= left.dim:
            log_ahat[(k, 0)] = c * left.power_sums[k - 1]
        if k <= right.dim:
            log_ahat[(0, k)] = c * right.power_sums[k - 1]
    factor = {(0, 0): 1}
    for slot, profile in enumerate((left, right)):
        for (k,), c in ch_complexified_tangent(profile).items():
            e = (k, 0) if slot == 0 else (0, k)
            factor[e] = factor.get(e, 0) + c
    integrand = series_exp(TruncatedPoly(("hL", "hR"), cut, log_ahat)) * TruncatedPoly(
        ("hL", "hR"), cut, factor)
    return integrand.coefficient(cut) * left.pairing * right.pairing


def test_property_product_index_matches_the_product_ring_route():
    """The engine reads one coefficient of a graded exp in (hL, hR); full
    two-variable products give the same index on X_7(2,2,5) x X_3(5) and on
    random non-integral profiles, of odd and unequal dimensions too."""
    hypothesis = pytest.importorskip("hypothesis")
    left, right = build_ci(CISpec(7, (2, 2, 5))).profile, build_ci(CISpec(3, (5,))).profile
    assert product_rs_index(left, right) == _product_ring_route(left, right)
    profiles = _non_integral_profiles(hypothesis.strategies, 7)

    @hypothesis.settings(**_SETTINGS)
    @hypothesis.given(profiles, profiles)
    def prop(left, right):
        assert product_rs_index(left, right) == _product_ring_route(left, right)

    prop()
